"""Span recorder for the traced run, and its reduction to per-layer metrics.

The library imports names into its modules (``from .planarity import
is_planar``), so a function is wrapped at every module where callers look it
up, not only where it is defined.  Each wrapped call records one span
``[name, start, end, parent, tag]``; spans stay in memory until the run ends.
Nothing under ``src/`` knows about the recorder.

Import this module only after ``src`` is on ``sys.path`` (see ``run.py``).
"""

from __future__ import annotations

import functools
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import pmfg.builder
import pmfg.cli
import pmfg.cliques
import pmfg.generator
import pmfg.verify
from pmfg.embedding import PlanarEmbedding


def _verdict(args, out):
    return out.planar


def _size(args, out):
    return len(out)


def _flips(args, out):
    return len(out[1])


def _vertex_count(args, out):
    return args[0]


# (owner, attribute, span name, tag of the call or None)
SITES = [
    (pmfg.cli, "main", "cli.main", None),
    (pmfg.cli, "read_returns_csv", "builder.read_csv", None),
    (pmfg.cli, "correlation_from_returns", "builder.correlation", None),
    (pmfg.cli, "build_pmfg", "builder.build", None),
    (pmfg.cli, "acceptance_log_csv", "builder.acceptance_log", None),
    (pmfg.builder, "weighted_edge_list", "builder.rank", None),
    (pmfg.builder, "is_planar", "planarity.gate", _verdict),
    (PlanarEmbedding, "__init__", "embedding.construct", None),
    (pmfg.generator, "canonical_code", "generator.canonical_code", None),
    (pmfg.verify, "canonical_code", "generator.canonical_code", None),
    (pmfg.verify, "generate_all", "generator.closure", _size),
    (pmfg.verify, "flip_closure", "generator.closure", _size),
    (pmfg.generator, "eberhard_ops", "generator.eberhard_ops", None),
    (pmfg.generator, "apply_eberhard", "generator.apply_eberhard", None),
    (pmfg.generator, "diagonal_flip", "generator.diagonal_flip", None),
    (pmfg.generator, "normalize_to_standard", "generator.normalize", _flips),
    (pmfg.verify, "normalize_to_standard", "generator.normalize", _flips),
    (pmfg.cli, "count_cliques", "cliques.census", None),
    (pmfg.cliques, "count_cliques", "cliques.census", None),
    (pmfg.generator, "count_cliques", "cliques.census", None),
    (pmfg.verify, "count_cliques", "cliques.census", None),
    (pmfg.verify, "brute_force_cliques", "cliques.brute", None),
    (pmfg.verify, "verify_level", "verify.level", _vertex_count),
]


class Recorder:
    """Records a span around every call made through a wrapped name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, tag):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if tag is not None:
                span[4] = tag(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, tag in SITES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, tag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced batch.

    ``counters`` sums the exact counts the batch's output checks read back
    (pairs decided, edges accepted, classes verified).  A layer that never ran
    reports 0.  Self time is a span's duration minus its children's.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = list(duration)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            self_time[parent] -= duration[i]

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def total(name, pick=duration):
        return sum(pick[i] for i in ids(name))

    def quantile_us(name, f):
        values = [duration[i] for i in ids(name)]
        return 1e6 * f(values) if values else 0.0

    gate = ids("planarity.gate")
    closures = set(ids("generator.closure"))
    codes_in_closures = 0
    for i in ids("generator.canonical_code"):
        parent = spans[i][3]
        while parent >= 0 and parent not in closures:
            parent = spans[parent][3]
        codes_in_closures += parent >= 0
    classes_returned = sum(spans[i][4] for i in closures)
    pairs = counters.get("pairs", 0)

    metrics = {
        "builder.pairs_examined": pairs,
        "builder.accept_ratio": counters.get("accepted", 0) / pairs if pairs else 0.0,
        "builder.read_csv_s": total("builder.read_csv"),
        "builder.correlation_s": total("builder.correlation"),
        "builder.rank_s": total("builder.rank"),
        "builder.build.self_s": total("builder.build", self_time),
        "builder.acceptance_log_s": total("builder.acceptance_log"),
        "planarity.gate.calls": len(gate),
        "planarity.gate.s": total("planarity.gate"),
        "planarity.gate.accept_s": sum(duration[i] for i in gate if spans[i][4]),
        "planarity.gate.reject_s": sum(duration[i] for i in gate if not spans[i][4]),
        "planarity.gate.p50_us": quantile_us("planarity.gate", statistics.median),
        "planarity.gate.p99_us": quantile_us("planarity.gate", _p99),
        "embedding.construct.calls": calls("embedding.construct"),
        "embedding.construct.s": total("embedding.construct"),
        "embedding.construct.p50_us": quantile_us("embedding.construct", statistics.median),
        "generator.canonical_code.calls": calls("generator.canonical_code"),
        "generator.canonical_code.s": total("generator.canonical_code"),
        "generator.canonical_code.p50_us": quantile_us(
            "generator.canonical_code", statistics.median
        ),
        "generator.closure.dup_ratio": (
            1 - classes_returned / codes_in_closures if codes_in_closures else 0.0
        ),
        "generator.eberhard_ops.s": total("generator.eberhard_ops"),
        "generator.apply_eberhard.calls": calls("generator.apply_eberhard"),
        "generator.apply_eberhard.s": total("generator.apply_eberhard"),
        "generator.diagonal_flip.calls": calls("generator.diagonal_flip"),
        "generator.diagonal_flip.s": total("generator.diagonal_flip"),
        "generator.normalize.s": total("generator.normalize"),
        "generator.normalize.flips": sum(spans[i][4] for i in ids("generator.normalize")),
        "cliques.census.calls": calls("cliques.census"),
        "cliques.census.s": total("cliques.census"),
        "cliques.brute.s": total("cliques.brute"),
    }
    for n in range(4, 10):
        metrics[f"verify.level.n{n}.s"] = sum(
            duration[i] for i in ids("verify.level") if spans[i][4] == n
        )
    metrics["verify.classes"] = counters.get("classes", 0)
    metrics["cli.self_s"] = total("cli.main", self_time)
    return metrics
