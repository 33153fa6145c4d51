"""Run two sets of every workload on the same code and compare them.

    python3 benchmark/stability.py --runs 10

Each set runs every workload once per seed, one process at a time; set 1
uses seeds 1..runs and set 2 seeds runs+1..2*runs.  For every end-to-end
metric and workload it prints both sets' medians and quartiles, the spread
(third minus first quartile over the median) and whether the spread (except
for setup_s) and the change of the median from set 1 to set 2 in the worse
direction stay within the metric's bound from BENCHMARK.json.  It also
checks that the share of failed operations is the same in every run.
Runs last BENCHMARK.json's ``run_seconds``; the raw results are written to
.bench_runs/stability-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = parser.parse_args(argv)

    results = {}
    for set_no in (1, 2):
        for workload in (w["name"] for w in spec["workloads"]):
            for i in range(args.runs):
                seed = (set_no - 1) * args.runs + i + 1
                t0 = time.perf_counter()
                res = run_once(spec, workload, seed, spec["run_seconds"])
                results.setdefault(workload, {}).setdefault(set_no, []).append(res)
                print(f"set {set_no} {workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"correct={res['correct']} failed {res['failed']}/{res['attempted']}", flush=True)
    out = ROOT / ".bench_runs" / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return compare(spec, results)


def compare(spec, results) -> int:
    ok = True
    print(f"\n{'workload':<10} {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}  verdict")
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets.values() for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}, correct in every run: "
                  f"{all(r['correct'] for runs in sets.values() for r in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: summarize([r["metrics"][name]["value"] for r in runs]) for s, runs in sets.items()}
            change = (stats[2][0] - stats[1][0]) / stats[1][0]
            worse = change if metric["better"] == "lower" else -change
            spread_ok = name == "setup_s" or all(st[3] <= bound for st in stats.values())
            verdict = "agree" if spread_ok and worse <= bound else "DISAGREE"
            ok &= verdict == "agree"
            for s, (med, q1, q3, spread) in stats.items():
                tail = f"  {verdict}: set 2 median {change:+.2%}, bound {bound:.0%}" if s == 2 else ""
                print(f"{workload:<10} {name:<12} {s:>3} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>7.2%}{tail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
