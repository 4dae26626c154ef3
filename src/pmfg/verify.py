"""Verification campaigns over exhaustively generated triangulations.

For each vertex count the campaign generates every isomorphism class twice
(wheel insertions from K4 and diagonal flips from the standard form),
demands that the two closures agree, censuses every class against the
brute-force counter, and checks the clique bounds together with attainment
of the maxima by the standard form.  A campaign failure is a counterexample
to one of the claimed identities, so it is loud and machine-readable.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .cliques import (
    BRUTE_FORCE_CEILING,
    brute_force_cliques,
    count_cliques,
    standard_form_expected,
)
from .embedding import degree_sequence, euler_check
from .errors import InputError, StructuralError, VerificationFailure
# perfbench/spans.py traces canonical_code under this module's name.
from .generator import (
    GENERATION_CEILING,
    CanonicalCode,
    EberhardOp,
    GenerationRecord,
    canonical_code,
    flip_closure,
    generate_all,
    generate_levels,
    normalize_to_standard,
    standard_form,
    standard_form_code,
)

_log = logging.getLogger(__name__)


@dataclass
class BoundsReport:
    """Observed clique statistics for all classes on n vertices."""

    n: int
    classes: int
    c3_min: int
    c3_max: int
    c4_min: int
    c4_max: int
    c3_max_attaining: list[str] = field(default_factory=list)
    c4_max_attaining: list[str] = field(default_factory=list)
    standard_code: str = ""
    # Clique-bound breaches, a standard-form census mismatch, a class that
    # breaks Euler's identities or fails to normalize; each entry names the
    # class by its code, and a generated class's entry also carries its wheel
    # insertions from K4.
    bound_violations: list[dict] = field(default_factory=list)
    closure_agreement: bool = True
    census_oracle_agreement: bool = True
    normalization_ok: bool = True
    eberhard_delta_range: dict[str, list[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        bounds = standard_form_expected(self.n)
        return (
            not self.bound_violations
            and self.closure_agreement
            and self.census_oracle_agreement
            and self.normalization_ok
            and self.c3_max == bounds.c3
            and self.c4_max == bounds.c4
            and self.standard_code in self.c3_max_attaining
            and self.standard_code in self.c4_max_attaining
        )

    def to_json_dict(self) -> dict:
        bounds = standard_form_expected(self.n)
        return {
            "n": self.n,
            "classes": self.classes,
            "c3_min": self.c3_min,
            "c3_max": self.c3_max,
            "c4_min": self.c4_min,
            "c4_max": self.c4_max,
            "c3_bounds": [bounds.surface, bounds.c3],
            "c4_bounds": [0, bounds.c4],
            "c3_max_attaining": sorted(self.c3_max_attaining),
            "c4_max_attaining": sorted(self.c4_max_attaining),
            "standard_form_code": self.standard_code,
            "bound_violations": self.bound_violations,
            "closure_agreement": self.closure_agreement,
            "census_oracle_agreement": self.census_oracle_agreement,
            "normalization_ok": self.normalization_ok,
            "eberhard_delta_range": self.eberhard_delta_range,
            "ok": self.ok,
        }


@dataclass
class DegreeSequenceCensus:
    """Which degree multisets are combinatorially possible vs realizable."""

    n: int
    total_combinations: int
    realizable: int
    ambiguous: int
    realizable_sequences: list[tuple[int, ...]] = field(default_factory=list)
    ambiguous_sequences: list[tuple[int, ...]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total_combinations": self.total_combinations,
            "realizable": self.realizable,
            "ambiguous": self.ambiguous,
            "realizable_sequences": [list(s) for s in self.realizable_sequences],
            "ambiguous_sequences": [list(s) for s in self.ambiguous_sequences],
        }


def degree_multisets(n: int) -> list[tuple[int, ...]]:
    """Non-increasing degree multisets with entries in [3, n-1] summing to 2e.

    These are the candidate degree combinations for a triangulation on n
    vertices; realizability is decided separately against the generator.
    """
    if n < 4:
        raise InputError("degree census needs n >= 4")
    target = 2 * (3 * n - 6)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], slots: int, remaining: int, cap: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        low = max(3, remaining - cap * (slots - 1))
        high = min(cap, remaining - 3 * (slots - 1))
        for d in range(high, low - 1, -1):
            prefix.append(d)
            extend(prefix, slots - 1, remaining - d, d)
            prefix.pop()

    extend([], n, target, n - 1)
    return out


def degree_census(n: int, *, ceiling: int = GENERATION_CEILING) -> DegreeSequenceCensus:
    """Compare possible degree multisets with those realized by some class.

    The closure's ceiling refuses n before the multisets, whose number
    grows rapidly with n, are enumerated."""
    records = generate_all(n, ceiling=ceiling)
    candidates = degree_multisets(n)
    realized: dict[tuple[int, ...], int] = {}
    for rec in records.values():
        seq = tuple(degree_sequence(rec.embedding))
        realized[seq] = realized.get(seq, 0) + 1
    unknown = set(realized) - set(candidates)
    if unknown:
        raise VerificationFailure(f"realized sequences missing from enumeration: {unknown}")
    ambiguous = sorted(s for s, k in realized.items() if k >= 2)
    return DegreeSequenceCensus(
        n=n,
        total_combinations=len(candidates),
        realizable=len(realized),
        ambiguous=len(ambiguous),
        realizable_sequences=sorted(realized),
        ambiguous_sequences=ambiguous,
    )


def _trace_json(trace: tuple[EberhardOp, ...]) -> list[dict]:
    """A class's wheel insertions as JSON, replayable from K4 through
    ``apply_trace`` once each entry is read back into an ``EberhardOp``."""
    return [
        {"cycle": list(op.cycle), "chords": [list(c) for c in op.chords]} for op in trace
    ]


def verify_level(n: int) -> BoundsReport:
    """Run every check for one vertex count and collect the evidence.

    This is the campaign over n alone, so it still builds every level below n.
    Above ``GENERATION_CEILING``, call ``run_campaign(n, n_min=n, ceiling=n)``.
    """
    return run_campaign(n, n_min=n)[0]


def _check_level(
    n: int,
    records: dict[CanonicalCode, GenerationRecord],
    flip_codes: set[CanonicalCode],
    deltas: dict[str, list[int]],
) -> BoundsReport:
    """The report on one generated level, its flip closure and the clique
    delta ranges of every insertion up to it."""
    std_code = standard_form_code(n)
    report = BoundsReport(
        n=n,
        classes=len(records),
        c3_min=0,
        c3_max=0,
        c4_min=0,
        c4_max=0,
        standard_code=std_code.hex(),
        eberhard_delta_range=deltas,
    )
    report.closure_agreement = set(records) == flip_codes
    bounds = standard_form_expected(n)

    def violation(rec: GenerationRecord, **facts) -> None:
        doc = {"code": rec.code.hex(), **facts, "trace": _trace_json(rec.trace)}
        report.bound_violations.append(doc)

    c3s: list[int] = []
    c4s: list[int] = []
    for code, rec in records.items():
        try:
            euler_check(rec.embedding)
        except VerificationFailure as exc:
            violation(rec, euler=str(exc))
        try:
            normalize_to_standard(rec.embedding)
        except (StructuralError, VerificationFailure) as exc:
            report.normalization_ok = False
            violation(rec, normalization=str(exc))
        census = count_cliques(rec.embedding)
        c3, c4 = census.counts
        if n <= BRUTE_FORCE_CEILING:
            brute = brute_force_cliques(n, list(rec.embedding.edges()))
            if brute != (c3, c4):
                report.census_oracle_agreement = False
        c3s.append(c3)
        c4s.append(c4)
        if not (bounds.surface <= c3 <= bounds.c3 and 0 <= c4 <= bounds.c4):
            violation(rec, c3=c3, c4=c4)
        if c3 == bounds.c3:
            report.c3_max_attaining.append(code.hex())
        if c4 == bounds.c4:
            report.c4_max_attaining.append(code.hex())
    report.c3_min, report.c3_max = min(c3s), max(c3s)
    report.c4_min, report.c4_max = min(c4s), max(c4s)
    std_census = count_cliques(standard_form(n))
    if std_census.counts != (bounds.c3, bounds.c4):
        report.bound_violations.append(
            {"code": report.standard_code, "standard_form_mismatch": std_census.counts}
        )
    return report


def run_campaign(
    n_max: int, *, n_min: int = 4, ceiling: int = GENERATION_CEILING, workers: int = 1
) -> list[BoundsReport]:
    """Verify every vertex count in [n_min, n_max] in one generation pass.

    Each level is generated once, from the one below it; the levels below
    n_min are generated but not reported.  With ``workers`` k >= 2, a pool
    of k - 1 processes (fewer when there are fewer levels, or fewer CPUs
    besides this process's) computes the flip closures while this process
    generates and checks the levels.
    """
    if n_min < 4 or n_max < n_min:
        raise InputError("campaign range must satisfy 4 <= n_min <= n_max")
    if workers < 1:
        raise InputError(f"workers must be at least 1, not {workers}")
    ns = range(n_min, n_max + 1)
    helpers = min(workers - 1, (os.cpu_count() or 1) - 1, len(ns))
    deltas: dict[str, list[int]] = {}

    def record(kind: str, dc3: int, dc4: int) -> None:
        lo3, hi3, lo4, hi4 = deltas.get(kind, [dc3, dc3, dc4, dc4])
        deltas[kind] = [min(lo3, dc3), max(hi3, dc3), min(lo4, dc4), max(hi4, dc4)]

    reports = []
    pool = ProcessPoolExecutor(max_workers=helpers) if helpers else None
    try:
        flips = {n: pool.submit(flip_closure, n, ceiling=ceiling) for n in ns} if pool else {}
        start = time.perf_counter()
        levels = generate_levels(n_max, ceiling=ceiling, on_application=record)
        for n, records in enumerate(levels, 4):
            if n < n_min:
                continue
            flip_codes = flips[n].result() if pool else flip_closure(n, ceiling=ceiling)
            # record() replaces a range rather than editing it, so a copy of
            # the dict keeps the ranges of the insertions up to n.
            reports.append(_check_level(n, records, flip_codes, dict(deltas)))
            _log.info(
                "n=%d: %d classes verified in %.2f s", n, len(records), time.perf_counter() - start
            )
            start = time.perf_counter()
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return reports
