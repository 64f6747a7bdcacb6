"""Time the canonical layers and write them to BENCH_<n>.json.

Usage: python scripts/bench_snapshot.py N [--src DIR] [--repeats R]

Times, on the bosegas package under DIR (default: this checkout's src/):

- ``import bosegas.cli`` in a fresh interpreter;
- one Z_N table (one lane) and a batch of 8 lanes, 3D isotropic trap at
  T = 0.8 T_c, for N = 400, 1000 and 1600;
- one ``temperature_for_fraction`` (3D isotropic, N = 1000, N_0/N = 0.2);
- the README ``aspect`` command, run as ``python -m bosegas.cli``.

Each metric is in seconds: the best and the median of R runs (default 5;
the README command runs once).  The JSON also records nproc, Python, numpy,
the commit of the tree and its BOSE_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ASPECT = ["aspect", "--natoms", "1000", "--n0-frac", "0.4", "--ratio-range", "1e-4:1e4:161"]


def _timed(func, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "median_s": statistics.median(times)}


def _commit(src: Path) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("number", type=int, help="n of the BENCH_<n>.json written to the repo root")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding bosegas/")
    p.add_argument("--repeats", type=int, default=5)
    a = p.parse_args(argv)
    src = a.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    import numpy as np

    from bosegas import canonical
    from bosegas.trap import TrapGeometry, characteristic_temperature

    metrics = {"import_cli": _timed(
        lambda: subprocess.run([sys.executable, "-c", "import bosegas.cli"], env=env, check=True),
        a.repeats)}
    trap = TrapGeometry.isotropic(3)
    for n in (400, 1000, 1600):
        state = canonical.ThermalState(n, 0.8 * characteristic_temperature(trap, n))
        lanes = [(trap, state)] * 8
        canonical.build_partition_table(trap, state)  # warm-up
        metrics[f"table_n{n}"] = _timed(lambda: canonical.build_partition_table(trap, state),
                                        a.repeats)
        metrics[f"batch8_n{n}"] = _timed(lambda: canonical.build_partition_tables(lanes),
                                         a.repeats)
    metrics["temperature_for_fraction"] = _timed(
        lambda: canonical.temperature_for_fraction(trap, 1000, 0.2), a.repeats)
    metrics["readme_aspect"] = _timed(
        lambda: subprocess.run([sys.executable, "-m", "bosegas.cli", *ASPECT], env=env,
                               check=True, capture_output=True), 1)

    record = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "bose_threads": os.environ.get("BOSE_THREADS", "nproc"),
        },
        "commit": _commit(src),
        "repeats": a.repeats,
        "metrics": metrics,
    }
    out = ROOT / f"BENCH_{a.number}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
