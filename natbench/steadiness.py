"""Steadiness check: do two sets of benchmark runs of the same code agree?

    python3 natbench/steadiness.py [--runs 10]

Runs natbench/run.py --runs times per set for every workload in
BENCHMARK.json, at its run_seconds, two sets, each run a fresh process
with its own seed (set A seeds 1..k, set B seeds k+1..2k). Runs
alternate: within each repetition the workload order flips, and so does
which set goes first. For every end-to-end metric it prints each set's
median and quartiles and the spread of all 2k runs (quartile distance
over median, as statistics.quantiles gives them), and checks each set's
spread against the metric's bound (setup_s too), the two medians against
each other (the larger over the smaller, less 1, within the bound,
whichever set is slower) and that both sets fail the same share of
operations. Writes the figures to .natbench_out/steadiness.json; exits 1
if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".natbench_out"


def one_run(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    k = args.runs
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(k):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = i + 1 if label == "A" else k + i + 1
                result = one_run(w, seed, bench["run_seconds"])
                results[w][label].append(result)
                print(f"{w} set {label} seed {seed}: "
                      f"{json.dumps({m: round(v['value'], 4) for m, v in result['metrics'].items()})}",
                      file=sys.stderr)

    ok = True
    report = {}
    for w in workloads:
        a, b = results[w]["A"], results[w]["B"]
        shares = {label: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for label, runs in (("A", a), ("B", b))}
        fail_ok = shares["A"] == shares["B"] and all(r["correct"] for r in a + b)
        ok &= fail_ok
        print(f"\n{w}: failed share A {shares['A']:.6f} B {shares['B']:.6f}, "
              f"all correct {all(r['correct'] for r in a + b)}")
        print(f"  {'metric':<12} {'bound':>5}  {'A q1/med/q3':>26}  {'B q1/med/q3':>26}"
              f"  {'spread A':>8} {'spread B':>8} {'all':>6} {'B/A-1':>7}  verdict")
        report[w] = {"failed_share": shares, "metrics": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            sa, sb, s_all = spread(va), spread(vb), spread(va + vb)
            shift = sb[1] / sa[1] - 1.0
            steady = sa[3] <= bound and sb[3] <= bound
            verdict = steady and max(sb[1] / sa[1], sa[1] / sb[1]) - 1.0 <= bound
            ok &= verdict
            print(f"  {name:<12} {bound:>5.2f}  {sa[0]:8.3f}/{sa[1]:8.3f}/{sa[2]:8.3f}"
                  f"  {sb[0]:8.3f}/{sb[1]:8.3f}/{sb[2]:8.3f}  {sa[3]:8.4f} {sb[3]:8.4f}"
                  f" {s_all[3]:6.4f} {shift:+7.4f}  {'ok' if verdict else 'FAIL'}")
            report[w]["metrics"][name] = {"A": va, "B": vb, "spread_A": sa[3],
                                          "spread_B": sb[3], "spread_all": s_all[3],
                                          "shift": shift, "ok": verdict}
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nsets agree within bounds: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
