"""freebrown benchmark: one workload, one process, timed for a fixed time.

    python3 benchmarks/run.py --workload dense-atoms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The seed makes the workload's measure
files; freebrown only receives those files (CLI calls of
``freebrown.cli.main`` in this process, plus public API calls where the
workload has them). The run repeats whole jobs until ``--seconds`` have
passed, then checks the outputs against the independent computations in
``checks.py``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics: end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1`` (see README.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
#: thread pins; at most nproc, one keeps layer times free of thread hand-offs
THREAD_PINS = {
    "FREEBROWN_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "freebrown" / "cli.py").is_file():
        print(f"no freebrown sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, so only after the pins

    return harness.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
