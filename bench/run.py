"""orthokit benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):
``svd-dense``, ``lstsq-tall``, ``small-batch`` (library calls, in process)
and ``cli-apps`` (the CLI as subprocesses).  Every workload is a closed loop
with one client: the next request is sent only when the previous one has
returned.  Inputs come from ``--seed`` alone; every answer is checked
against a ``numpy.linalg`` oracle, outside the timed region.

The run happens in a fresh interpreter started here with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in its environment
(and so in the CLI processes it starts), and ``src`` on ``PYTHONPATH``.

The last line of stdout is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``ops_per_s``,
``op_p50_s``, ``op_p90_s``, ``setup_s`` and ``peak_rss_mib``.  Throughput
and latency percentiles are taken per deck (each deck holds the whole
request mix) and the median over decks is reported.  With ``--trace 1``
they are the per-layer ones, from spans recorded around every public
orthokit function (``tracing.py``), in wall seconds.  Lines before the
result give provenance, request counts (with ``failed_frac``) and per-kind
wall medians; when traced, also each layer's share of self time and the
numpy ceiling.  A request that raises or misses its check counts in
``failed`` and ``correct`` is false.

End-to-end times are host-normalized.  On a shared host the same work can
run at half speed for seconds at a time, so the worker times a fixed
calibration loop (no orthokit; ``worker.CALIBRATION``) just before and
after every request and every set-up, and reports each time multiplied by
the loop's reference time over the mean of the two loop times: seconds at
the host speed at which the loop takes its reference time.  The
``wall_clock`` line gives the same metrics unscaled, with the median speed
factor.

Tests: ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    src = ROOT / "src"
    if not (src / "orthokit" / "__init__.py").is_file():
        print(f"run.py: no orthokit sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = subprocess.run([sys.executable, str(HERE / "worker.py"), *sys.argv[1:]], env=env, check=False)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
