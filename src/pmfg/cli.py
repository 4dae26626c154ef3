"""Command-line interface.

Subcommands: build, cliques, generate, normalize, flip, verify,
degree-census.  Exit codes: 0 success, 1 a verified mathematical claim
failed, 2 input error.  Configuration precedence is flags, then environment
variables (PMFG_WORKERS, PMFG_CEILING), then the defaults shown in --help.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .builder import (
    acceptance_log_csv,
    build_pmfg,
    correlation_from_returns,
    read_matrix_csv,
    read_returns_csv,
)
from .cliques import count_cliques, standard_form_expected
from .embedding import PlanarEmbedding, degree_sequence
from .errors import PmfgError, InputError, VerificationFailure
from .generator import (
    GENERATION_CEILING,
    FlipMove,
    diagonal_flip,
    generate_all,
    normalize_to_standard,
)
from .verify import degree_census, run_campaign

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"environment variable {name}={raw!r} is not an integer") from exc


def _load_embedding(path: str) -> PlanarEmbedding:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return PlanarEmbedding.from_json(text)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _census_doc(emb: PlanarEmbedding) -> dict:
    census = count_cliques(emb)
    return census.to_json_dict(emb.n)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    if args.format == "returns":
        labels, table = read_returns_csv(args.input)
        sim = correlation_from_returns(table, labels)
    else:
        sim = read_matrix_csv(args.input)
    result = build_pmfg(sim, tie_policy=args.tie_policy)
    out = Path(args.output_dir)
    stem = Path(args.input).stem
    _write(out / f"{stem}.pmfg.json", result.embedding.to_json(indent=2) + "\n")
    _write(out / f"{stem}.acceptance.csv", acceptance_log_csv(result))
    doc: dict = {
        "n": result.embedding.n,
        "accepted_edges": len(result.accepted),
        "rejected_edges": len(result.rejected),
        "total_weight": result.total_weight,
    }
    if result.embedding.n >= 4:
        doc["census"] = _census_doc(result.embedding)
    _write(out / f"{stem}.census.json", json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_cliques(args: argparse.Namespace) -> int:
    emb = _load_embedding(args.graph)
    doc = _census_doc(emb)
    if args.csv:
        c = count_cliques(emb)
        n = emb.n
        print("n,c3_total,c3_surface,c3_separating,c4_total,c3_max,c4_max")
        print(
            f"{n},{c.c3_total},{c.c3_surface},{c.c3_separating},"
            f"{c.c4_total},{3 * n - 8},{n - 3}"
        )
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    ceiling = args.unsafe_ceiling or _env_int("PMFG_CEILING", GENERATION_CEILING)
    records = generate_all(args.n, ceiling=ceiling, check_deltas=False)
    out = Path(args.output_dir)
    lines = []
    for code, rec in sorted(records.items(), key=lambda kv: kv[0]):
        census = count_cliques(rec.embedding)
        lines.append(
            json.dumps(
                {
                    "code": code.hex(),
                    "degree_sequence": degree_sequence(rec.embedding),
                    "c3": census.c3_total,
                    "c4": census.c4_total,
                    "trace_length": len(rec.trace),
                }
            )
        )
    _write(out / f"triangulations_n{args.n}.jsonl", "\n".join(lines) + "\n")
    if args.dot_dir:
        dot_dir = Path(args.dot_dir)
        for code, rec in records.items():
            _write(dot_dir / f"n{args.n}_{code.hex()[:16]}.dot", rec.embedding.to_dot())
    print(f"{len(records)} isomorphism classes on {args.n} vertices")
    return EXIT_OK


def _cmd_normalize(args: argparse.Namespace) -> int:
    emb = _load_embedding(args.graph)
    before = count_cliques(emb)
    normalized, trace = normalize_to_standard(emb)
    after = count_cliques(normalized)
    expected = standard_form_expected(emb.n)
    out = Path(args.output_dir)
    stem = Path(args.graph).stem
    _write(out / f"{stem}.normalized.json", normalized.to_json(indent=2) + "\n")
    _write(
        out / f"{stem}.flips.json",
        json.dumps(
            [
                {"shared_edge": list(m.shared_edge), "replacement": list(m.replacement or ())}
                for m in trace
            ],
            indent=2,
        )
        + "\n",
    )
    print(f"before: C3={before.c3_total} C4={before.c4_total}")
    print(f"after:  C3={after.c3_total} C4={after.c4_total} in {len(trace)} flips")
    if after.counts != (expected.c3, expected.c4):
        raise VerificationFailure(
            f"normalized census {after.counts} != expected {(expected.c3, expected.c4)}"
        )
    return EXIT_OK


def _cmd_flip(args: argparse.Namespace) -> int:
    emb = _load_embedding(args.graph)
    flipped = diagonal_flip(emb, FlipMove((args.u, args.v)))
    if args.output:
        _write(Path(args.output), flipped.to_json(indent=2) + "\n")
    else:
        print(flipped.to_json(indent=2))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ceiling = args.unsafe_ceiling or _env_int("PMFG_CEILING", GENERATION_CEILING)
    workers = args.workers if args.workers is not None else _env_int("PMFG_WORKERS", 1)
    reports = run_campaign(args.n_max, ceiling=ceiling, workers=workers)
    failures = 0
    for report in reports:
        doc = report.to_json_dict()
        if args.output_dir:
            _write(
                Path(args.output_dir) / f"bounds_n{report.n}.json",
                json.dumps(doc, indent=2) + "\n",
            )
        if args.table:
            print(
                f"n={report.n:2d} classes={report.classes:5d} "
                f"C3 in [{report.c3_min}, {report.c3_max}] "
                f"C4 in [{report.c4_min}, {report.c4_max}] "
                f"{'ok' if report.ok else 'FAILED'}"
            )
        else:
            print(json.dumps(doc))
        if not report.ok:
            failures += 1
    if failures:
        print(f"{failures} vertex counts FAILED verification", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_degree_census(args: argparse.Namespace) -> int:
    ceiling = args.unsafe_ceiling or _env_int("PMFG_CEILING", GENERATION_CEILING)
    census = degree_census(args.n, ceiling=ceiling)
    doc = census.to_json_dict()
    if not args.sequences:
        doc.pop("realizable_sequences")
        doc.pop("ambiguous_sequences")
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmfg",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build",
        help="construct a PMFG from a CSV of returns or a similarity matrix",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("input", help="CSV file")
    p.add_argument(
        "--format",
        choices=("returns", "matrix"),
        default="matrix",
        help="returns table (header = names) or square matrix (labeled rows/cols)",
    )
    p.add_argument(
        "--tie-policy",
        choices=("lexicographic", "strict"),
        default="lexicographic",
        help="ordering of equal-weight pairs; strict aborts on ties",
    )
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "cliques",
        help="census the 3- and 4-cliques of a graph JSON file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--csv", action="store_true", help="one CSV summary row instead of JSON")
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser(
        "generate",
        help="enumerate all triangulation classes on n vertices",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--output-dir", default=".", help="directory for the JSONL report")
    p.add_argument("--dot-dir", default=None, help="also dump one DOT file per class")
    p.add_argument(
        "--unsafe-ceiling",
        type=int,
        default=None,
        help=f"override the closure ceiling (default {GENERATION_CEILING})",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "normalize",
        help="flip a triangulation into standard spherical form",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("graph", help="graph JSON file (must be a triangulation)")
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser(
        "flip",
        help="apply one diagonal flip to a triangulation",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("u", type=int, help="first endpoint of the shared edge")
    p.add_argument("v", type=int, help="second endpoint of the shared edge")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser(
        "verify",
        help="exhaustively verify clique bounds and closure agreement",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--n-max", type=int, default=9, help="largest vertex count to verify")
    p.add_argument("--output-dir", default=None, help="write per-n JSON reports here")
    p.add_argument("--table", action="store_true", help="human-readable table output")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers (default: PMFG_WORKERS or 1)",
    )
    p.add_argument(
        "--unsafe-ceiling",
        type=int,
        default=None,
        help=f"override the closure ceiling (default {GENERATION_CEILING})",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "degree-census",
        help="count candidate vs realizable degree multisets",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--sequences", action="store_true", help="include the sequence lists")
    p.add_argument(
        "--unsafe-ceiling",
        type=int,
        default=None,
        help=f"override the closure ceiling (default {GENERATION_CEILING})",
    )
    p.set_defaults(func=_cmd_degree_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (PmfgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
