"""One round of one workload, in a fresh process started by run.py.

    python3 natbench/round.py --workload desk --seed 1 --work DIR --t0 T [--trace] [--setup-only]

T is run.py's time.perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by all processes), so setup_s counts interpreter
start, imports and the workload's set-up. Prints one JSON object as its
last line of standard output.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"


def import_natmu():
    """natmu from this checkout's src/, never from an installed copy."""
    if not (SRC / "natmu" / "__init__.py").is_file():
        raise SystemExit(f"natbench: no natmu sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import natmu
    import natmu.cli
    import natmu.runner
    if Path(natmu.__file__).resolve().parent != SRC / "natmu":
        raise SystemExit(f"natbench: imported natmu from {natmu.__file__}, not {SRC}")
    return natmu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    natmu = import_natmu()
    from spans import LAYER_TABLE, Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](REPO, Path(args.work), args.seed)
    # untraced rounds wrap only the spans the workload's stage clocks and
    # checks need
    table = LAYER_TABLE if args.trace else [e for e in LAYER_TABLE if e[2] in workload.SPANS]
    tracer = Tracer(table).install()
    workload.setup(natmu, tracer)
    start = time.perf_counter()
    setup_s = start - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    paused = workload.run(natmu)
    run_s = time.perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check()
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              **outcome.summary()}
    if args.trace:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
