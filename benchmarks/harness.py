"""The measured run: set-up launches, warm-up job, timed jobs, checks.

Imported by ``run.py`` after the thread pins are in the environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer
from workloads import WORKLOADS

#: fresh interpreters timed for setup_s in every run; they keep pace with the
#: timed jobs (after each job, as many as the share of --seconds done so far
#: calls for), so that they sample the whole run like the jobs do; the median
#: is reported
SETUP_LAUNCHES = 21
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); import freebrown.cli; "
    "from freebrown.measures import load_measure; "
    "[load_measure(p) for p in sys.argv[1:]]"
)


#: the reference loop: fixed work in the interpreter, in numpy element-wise
#: kernels and in one-thread BLAS, the three kinds of work freebrown's jobs
#: do, but none of freebrown's code. The host's speed drifts by up to 2x over
#: seconds (wall time equals CPU time, so the process is not descheduled: the
#: core itself slows), and it drifts alike for the loop and a job, so a job's
#: time over the loop's time next to it keeps freebrown's cost and drops most
#: of the host's drift.
_REF_X = np.linspace(-3.0, 3.0, 800)[:, None]
_REF_A = np.linspace(-3.0, 3.0, 200)[None, :]
_REF_W = np.full(200, 1.0 / 200)
_REF_M = np.random.default_rng(0).standard_normal((200, 200))


def _reference_seconds():
    """Wall time of one pass of the reference loop (13–30 ms on the reference host)."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(60000):
        s += math.sqrt(i)
    for _ in range(6):
        (_REF_W / ((_REF_A - _REF_X) ** 2 + 0.01)).sum(axis=1)
    for _ in range(16):
        _REF_M @ _REF_M
    return time.perf_counter() - t0


def _setup_seconds(root, measure_paths):
    """Wall time of one fresh interpreter that imports the CLI and loads the
    workload's measure files."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, *measure_paths],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _run_job(wl):
    """Every operation once; returns (results by op name, failed count)."""
    results, failed = {}, 0
    for op in wl.ops:
        try:
            value = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            results[op.name] = exc
            failed += 1
            continue
        if op.kind == "cli" and value[0] != 0:
            failed += 1
        results[op.name] = value
    return results, failed


def _digest(results, out_dir):
    """Hash of every output file and every returned value of a job, and the
    bytes the job's CLI calls wrote."""
    h = hashlib.sha256()
    written = 0
    for name in sorted(os.listdir(out_dir)):
        data = (out_dir / name).read_bytes()
        written += len(data)
        h.update(name.encode() + b"\0" + data)
    for name in sorted(results):
        h.update(f"{name}={results[name]!r}".encode())
    return h.hexdigest(), written


def run(args, root):
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import freebrown

    src = (root / "src").resolve()
    if src not in Path(freebrown.__file__).resolve().parents:
        print(f"freebrown imported from {freebrown.__file__}, not {src}", file=sys.stderr)
        return 2

    base = root / ".bench_out"
    # fixed-width pid: the manifests hold these paths, so cli.bytes_written
    # must not depend on how many digits the pid has
    run_dir = base / f"{args.workload}-seed{args.seed}-pid{os.getpid():07d}"
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        return _measure(args, root, base, in_dir, out_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, root, base, in_dir, out_dir):
    wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), in_dir, out_dir)
    paths = [p for p, _ in wl.measures.values()]
    setup = []

    _run_job(wl)  # warm-up: lazy imports and first-call costs are not timed
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    times, ratios, digests, written, layers = [], [], set(), set(), []
    attempted = failed = 0
    ref_before = _reference_seconds()
    try:
        while sum(times) < args.seconds:
            first = len(tracer.spans) if tracer else 0
            before = dict(tracer.counts) if tracer else {}
            t0 = time.perf_counter()
            results, job_failed = _run_job(wl)
            times.append(time.perf_counter() - t0)
            ref_after = _reference_seconds()
            ratios.append(times[-1] / (0.5 * (ref_before + ref_after)))
            ref_before = ref_after
            if tracer:
                layers.append(tracer.job_metrics(first, len(tracer.spans), before))
            attempted += len(wl.ops)
            failed += job_failed
            digest, nbytes = _digest(results, out_dir)
            digests.add(digest)
            written.add(nbytes)
            while len(setup) < SETUP_LAUNCHES * min(1.0, sum(times) / args.seconds):
                setup.append(_setup_seconds(root, paths))
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = checks.check_workload(wl, results)
    if len(digests) != 1:
        problems.append(f"outputs differ between the {len(times)} jobs of one run")

    if tracer:
        base.mkdir(exist_ok=True)
        tracer.write(base / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {}
        for name in layers[0]:
            values = [job[name] for job in layers]
            if name.endswith((".points", ".calls", ".nodes")):
                if len(set(values)) != 1:
                    problems.append(f"count {name} differs between jobs: {sorted(set(values))}")
                metrics[name] = {"value": int(values[0]), "unit": "count"}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
        metrics["cli.bytes_written"] = {"value": int(min(written)), "unit": "bytes"}
        metrics["trace.job_p50_ref"] = {"value": statistics.median(ratios), "unit": "ref"}
    else:
        metrics = {
            "job_p50_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for name, margin in sorted(checks.MARGINS.items(), key=lambda kv: -kv[1]):
        print(f"check margin: worst error / tolerance = {margin:.3g}  {name}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(times)} jobs, {attempted} operations, "
          f"{failed} failed, {len(problems)} check failures; job wall time median "
          f"{statistics.median(times):.4g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
