"""Steadiness check: two sets of runs of the same code, compared.

    python3 benchmarks/steady.py --runs 10

Run from the root of a checkout. For each set and every workload in
BENCHMARK.json it runs ``run.py`` once per seed (set 1 takes seeds 1..runs,
set 2 the next ones) and prints, per end-to-end metric, each set's median
and quartiles, the quartile spread as a share of the median, and the gap
between the two medians, both against the metric's bound in BENCHMARK.json
(the gap in either direction). It also checks that the share of failed
operations is the same in both sets, times a fixed numpy loop for the
host's noise floor, and makes TRACE_PAIRS pairs of an untraced and a traced
run per workload on seed 1: the traced counts must repeat exactly, and the
median ratio of traced to untraced job time, minus one, is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
#: untraced/traced run pairs per workload for the counts and the overhead
TRACE_PAIRS = 2


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: checks failed\n{proc.stderr}")
    summary = next(line for line in proc.stdout.splitlines() if "job wall time" in line)
    print(f"  {summary}\n  {workload} seed {seed} trace {trace}: " + " ".join(
        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if v["unit"] in ("s", "MB", "ref")), flush=True)
    return result


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def noise_floor(repeats=20):
    """Quartile spread, as a share of the median, of a fixed numpy loop."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(20):
            np.sin(a @ a).sum()
        times.append(time.perf_counter() - t0)
    q1, q2, q3 = _quartiles(times)
    return {"median_s": q2, "spread": (q3 - q1) / q2}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=".bench_out/steady.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "noise_floor": noise_floor(), "workloads": {}}
    print(f"noise floor: fixed loop quartile spread {report['noise_floor']['spread']:.1%}", flush=True)
    ok = True
    for wl in workloads:
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            sets.append([_run(wl, seed, seconds, 0) for seed in seeds])
        entry = {}
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        if shares[0] != shares[1]:
            ok = False
        for name, bound in bounds.items():
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = _quartiles(values)
                stats.append({"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2, "values": values})
            gap = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            ok &= all(st["spread"] <= bound for st in stats) and abs(gap) <= bound
            entry[name] = {"bound": bound, "sets": stats, "gap": gap}
            print(f"{wl:12s} {name:12s} bound {bound:.0%}  " + "  ".join(
                f"set{i + 1} median {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                f"spread {st['spread']:.1%}" for i, st in enumerate(stats)
            ) + f"  gap {gap:+.1%}", flush=True)
        entry["failed_share"] = shares
        pairs = [(_run(wl, 1, seconds, 0), _run(wl, 1, seconds, 1)) for _ in range(TRACE_PAIRS)]
        traced = [t for _, t in pairs]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
                  for r in traced]
        ratio = statistics.median(
            t["metrics"]["trace.job_p50_ref"]["value"] / u["metrics"]["job_p50_ref"]["value"] for u, t in pairs)
        entry["trace"] = {
            "counts_repeat": all(c == counts[0] for c in counts),
            "overhead": ratio - 1.0,
            "layers": {k: v["value"] for k, v in traced[0]["metrics"].items()},
        }
        ok &= entry["trace"]["counts_repeat"]
        print(f"{wl:12s} tracing overhead {entry['trace']['overhead']:+.1%}, "
              f"counts repeat: {entry['trace']['counts_repeat']}", flush=True)
        report["workloads"][wl] = entry
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
