"""Run one pmfg benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload build-sectors --seed 7 --seconds 30 --trace 0

Run it from a checkout of the repository; the library is imported from the
checkout's ``src`` directory, and scratch files go to ``perfbench/out``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``, ``--trace 1``
the per-layer ones.  ``perfbench/DESIGN.md`` explains the workloads and
metrics.

All work runs in this one process, so spans never cross processes.  The
set-up time is measured in fresh interpreters started for that purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 5

# Time of reference_loop() at the nominal speed of the machine.  Every time
# the end-to-end metrics report is scaled by REF_S over the loop's mean time
# just before and just after it, so it reads in seconds at that speed.  The
# shared machine the benchmark was tuned on changes speed by a third for
# minutes at a time, which unscaled times pass straight on to the spread
# between runs.  After each timed interval the loop runs for PACE_SHARE of
# that interval, so long tasks get a less noisy pace.
REF_S = 0.1
PACE_SHARE = 0.1


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "pmfg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'pmfg'} is missing; run from a repository checkout")
    sys.path.insert(0, str(src))


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python graph search that uses no library code."""
    start = time.perf_counter()
    rng = random.Random(1)
    adj: dict[int, set[int]] = {u: set() for u in range(400)}
    for _ in range(1200):
        u, v = rng.randrange(400), rng.randrange(400)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for source in range(0, 400, 3):
        seen, front = {source}, [source]
        while front:
            reached = []
            for u in front:
                for v in sorted(adj[u]):
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
            front = reached
    return time.perf_counter() - start


def pace(interval: float) -> float:
    """Mean time of reference_loop() over calls lasting PACE_SHARE * ``interval``."""
    times = [reference_loop()]
    while sum(times) < PACE_SHARE * interval:
        times.append(reference_loop())
    return statistics.fmean(times)


def setup_probe(name: str, seed: int) -> None:
    """Child side of a set-up measurement: import, make the first input, report."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        WORKLOADS[name]().prepare(seed, 0, Path(tmp) / "0")
        print(repr(clock()))


def measure_setup(name: str, seed: int, probes: int) -> float:
    """Median scaled time from starting an interpreter to its first timed call."""
    times, paces = [], [pace(0)]
    for _ in range(probes):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed = float(proc.stdout.split()[-1]) - start
        paces.append(pace(elapsed))
        times.append(elapsed * REF_S / statistics.fmean(paces[-2:]))
    return statistics.median(times)


def run_task(workload, seed: int, j: int, workdir: Path, recorder=None):
    """Prepare, time and check task ``j``; returns (wall seconds, Outcome)."""
    from workloads import Outcome

    task = workload.prepare(seed, j, workdir)
    stdout = io.StringIO()
    tracing = recorder.installed() if recorder else contextlib.nullcontext()
    error = None
    with contextlib.redirect_stdout(stdout), tracing:
        start = time.perf_counter()
        try:
            result = workload.run(task)
        except Exception as exc:  # a library failure is a failed task, not a crash
            error = exc
        wall = time.perf_counter() - start
    try:
        if error is not None:
            raise error
        outcome = workload.check(seed, j, task, result, stdout.getvalue())
    except Exception as exc:
        traceback.print_exception(exc, file=sys.stderr)
        outcome = Outcome(0, problems=[f"{type(exc).__name__}: {exc}"])
    for problem in outcome.problems:
        print(f"{workload.name} seed {seed} task {j}: {problem}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, outcome


def run_until(deadline: float, step) -> None:
    """Call ``step()`` at least once, and again while another fits the time."""
    costs = []
    while True:
        start = clock()
        step()
        costs.append(clock() - start)
        if clock() + statistics.median(costs) > deadline:
            return


def measure(workload, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """One run of ``workload``; returns the result object printed by ``main``."""
    setup_s = None if trace else measure_setup(workload.name, seed, probes)
    OUT_DIR.mkdir(exist_ok=True)
    outcomes = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        deadline = clock() + seconds
        if trace:
            metrics = measure_traced(workload, seed, deadline, workdir, outcomes)
        else:
            walls, raw_walls, paces = [], [], [pace(0)]
            j = 0

            def step():
                nonlocal j
                wall, outcome = run_task(workload, seed, j, workdir / str(j))
                paces.append(pace(wall))
                walls.append(wall * REF_S / statistics.fmean(paces[-2:]))
                raw_walls.append(wall)
                outcomes.append(outcome)
                j += 1

            run_until(deadline, step)
            print(
                f"unscaled wall_s {statistics.median(raw_walls):.4f}, "
                f"reference loop {statistics.median(paces):.4f} s",
                file=sys.stderr,
            )
            metrics = {
                "wall_s": statistics.median(walls),
                "items_per_s": statistics.median(o.items / w for o, w in zip(outcomes, walls)),
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def measure_traced(workload, seed, deadline, workdir, outcomes) -> dict:
    """Alternate an untraced and a traced pass over the first ``batch`` tasks.

    Every traced batch covers the same inputs, so its counts repeat exactly;
    times are medians over the traced batches.
    """
    from spans import Recorder, layer_metrics

    plain_walls, traced_walls, per_batch = [], [], []
    first_spans = None
    round_no = 0

    def one_batch(recorder):
        wall = 0.0
        counters: dict[str, int] = {}
        for j in range(workload.batch):
            w, outcome = run_task(workload, seed, j, workdir / f"{round_no}-{j}", recorder)
            wall += w
            outcomes.append(outcome)
            for key, value in outcome.counters.items():
                counters[key] = counters.get(key, 0) + value
        return wall, counters

    def step():
        nonlocal first_spans, round_no
        plain_walls.append(one_batch(None)[0])
        recorder = Recorder()
        wall, counters = one_batch(recorder)
        traced_walls.append(wall)
        per_batch.append(layer_metrics(recorder.spans, counters))
        if first_spans is None:
            first_spans = recorder.spans
        round_no += 1

    run_until(deadline, step)
    trace_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(first_spans))
    print(f"wrote {trace_file}", file=sys.stderr)
    metrics = {name: statistics.median(b[name] for b in per_batch) for name in per_batch[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(plain_walls)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
