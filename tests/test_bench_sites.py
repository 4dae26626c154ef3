"""The benchmark's traced run wraps library names by attribute lookup.

``perfbench/spans.py`` lists each wrapped function as an ``(owner, attr)``
site; a library change that drops or renames one of those names would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    sites = load_spans().SITES
    assert sites
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing
