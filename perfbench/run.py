"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source tree.  The workload runs in a child process
started with one BLAS/OpenMP thread and ``src/`` on its import path, so that
its set-up time and peak memory belong to that workload alone.  The last
line of standard output is the result JSON; see perfbench/README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv) -> int:
    src = Path.cwd() / "src"
    if not (src / "skillcil" / "__init__.py").is_file():
        print(f"no skillcil sources under {src}; run from the source root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               *argv], env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
