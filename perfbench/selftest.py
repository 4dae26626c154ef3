"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

It checks that:

* every metric named in BENCHMARK.json is emitted with its unit, and the toy
  runs fail no task;
* a corrupted pinned digest is counted as a failed task;
* the traced counts repeat exactly for one seed, and the counters predicted
  to be zero are zero while the hot layer's counter is not;
* the benchmark exits non-zero without a result where the library is absent.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.load_program()

from workloads import DEFAULT_SEED, BuildSectors, GrowNormalize, VerifyCampaign  # noqa: E402

SPEC = run.SPEC

# n = 70 keeps normalize_to_standard above the n <= 64 canonical-code check,
# as at the full size, so no canonical code runs there either.
TOYS = [
    BuildSectors(n=12, observations=60, pins={}, batch=2),
    VerifyCampaign(n_max=6),
    GrowNormalize(n=70, pins={}, batch=1),
]
EXACT = [
    "planarity.gate.calls",
    "builder.pairs_examined",
    "generator.canonical_code.calls",
    "embedding.construct.calls",
    "generator.diagonal_flip.calls",
]
PREDICTED_ZERO = {
    "build-sectors": ["generator.canonical_code.calls"],
    "verify-campaign": ["planarity.gate.calls"],
    "grow-normalize": ["planarity.gate.calls", "generator.canonical_code.calls"],
}
HOT_COUNTER = {
    "build-sectors": "planarity.gate.calls",
    "verify-campaign": "generator.canonical_code.calls",
    "grow-normalize": "generator.diagonal_flip.calls",
}


def require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def require_clean(result: dict, specs: list[dict], label: str) -> None:
    require(result["attempted"] >= 1, f"{label}: no task attempted")
    require(result["failed"] == 0 and result["correct"], f"{label}: fail_ratio > 0: {result}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    require(units == want, f"{label}: metrics {units} != {want}")


def refuses_without_library() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                run.ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "verify-campaign", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    require(proc.returncode != 0, "a checkout without src/ must exit non-zero")
    require('"correct"' not in proc.stdout, "a checkout without src/ must print no result")


def main() -> int:
    for toy in TOYS:
        plain = run.measure(toy, DEFAULT_SEED, 0.5, trace=False, probes=1)
        require_clean(plain, SPEC["end_to_end"], f"{toy.name} untraced")
        traced = [run.measure(toy, DEFAULT_SEED, 0.5, trace=True) for _ in range(2)]
        for result in traced:
            require_clean(result, SPEC["per_layer"], f"{toy.name} traced")
        first, second = ({k: v["value"] for k, v in r["metrics"].items()} for r in traced)
        for name in EXACT:
            require(first[name] == second[name], f"{toy.name}: {name} differs between runs")
        for name in PREDICTED_ZERO[toy.name]:
            require(first[name] == 0, f"{toy.name}: {name} = {first[name]}, predicted 0")
        require(first[HOT_COUNTER[toy.name]] > 0, f"{toy.name}: hot layer never ran")
        print(f"{toy.name}: ok", flush=True)

    corrupted = BuildSectors(n=12, observations=60, pins={0: "0" * 64})
    result = run.measure(corrupted, DEFAULT_SEED, 0.5, trace=False, probes=1)
    require(result["failed"] > 0 and not result["correct"], "a corrupted digest went unnoticed")
    print("corrupted digest: counted as failed", flush=True)

    refuses_without_library()
    print("checkout without the library: refused", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
