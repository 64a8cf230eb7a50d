"""natmu benchmark: one workload, measured for a fixed time.

    python3 natbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload, each in a fresh process with BLAS
pinned to one thread, for about --seconds (at least one round; another
round starts while at least half of one still fits), then starts set-up-only processes until SETUP_SAMPLES set-up times are in
hand. Prints, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the median
over rounds of every end-to-end metric, with --trace 1 the median of every
per-layer metric from traced rounds. Failures and check problems go to
standard error. Workloads and metrics are described in natbench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK_ROOT = REPO / ".natbench_work"

WORKLOADS = ("desk", "subclass-sgd", "stages-difficult")
# One BLAS thread: on a 2-core machine OpenBLAS's default threading doubles
# CPU time for no wall-clock gain and makes timings swing with the load.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("pretrain_s", "s"),
              ("retrain_s", "s"), ("unlearn_s", "s"), ("peak_rss_mb", "MB"))


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed, trace=False, setup_only=False) -> dict:
    """One fresh process; returns its JSON result."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
               "--seed", str(seed), "--work", work]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        env = {**os.environ, **PINNED_ENV}
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                              text=True, env=env, timeout=ROUND_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def stage_value(rounds, metric) -> float:
    """Sum over a stage's parts of (times per round x median duration).

    A part (one seed's pretrain, one method, one command) repeats the same
    work every time, so the median over all rounds' samples stands for
    each of its runs; this resists a slow spell better than a median of
    per-round sums.
    """
    total = 0.0
    for part, first in rounds[0]["stages"][metric].items():
        samples = [t for r in rounds for t in r["stages"][metric].get(part, [])]
        total += len(first) * statistics.median(samples)
    return total


def measure(workload, seed, seconds, trace) -> dict:
    begin = time.perf_counter()
    rounds = [run_round(workload, seed, trace)]
    # start another round while at least half of one still fits
    while (time.perf_counter() - begin) * (1 + 0.5 / len(rounds)) < seconds:
        rounds.append(run_round(workload, seed, trace))
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_round(workload, seed, setup_only=True)["setup_s"])

    for note in sorted({n for r in rounds for n in r["failures"] + r["problems"]}):
        print(f"natbench {workload}: {note}", file=sys.stderr)
    if trace:
        from spans import LAYER_METRICS
        names = LAYER_METRICS
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name, _ in names}
    else:
        names = END_TO_END
        values = {name: stage_value(rounds, name) for name in rounds[0]["stages"]}
        values["setup_s"] = statistics.median(setups)
        for name in ("run_s", "peak_rss_mb"):
            values[name] = statistics.median(r[name] for r in rounds)
    return {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "natmu" / "__init__.py").is_file():
        print(f"natbench: no natmu sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"natbench: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
