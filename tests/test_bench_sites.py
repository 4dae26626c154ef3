"""The benchmark's traced run wraps library names by attribute lookup.

``perfbench/spans.py`` lists each wrapped function as an ``(owner, attr)``
site; a library change that drops or renames one of those names would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # The self-test also fails when a workload's hot counter reads zero, as
    # when the library stops calling the function its span wraps.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
