"""Time the canonical and grand-canonical layers and write them to BENCH_<n>.json.

Usage: python scripts/bench_snapshot.py N [--src DIR] [--repeats R]
       python scripts/bench_snapshot.py --rows NAME[,NAME...] [--src DIR] [--repeats R]

Times, on the bosegas package under DIR (default: this checkout's src/):

- ``import bosegas.cli`` in a fresh interpreter;
- one Z_N table (one lane) and a batch of 8 lanes, 3D isotropic trap at
  T = 0.8 T_c, for N = 400, 1000 and 1600, and at N = 1000 also at 10 T_c,
  the upper end of every T(N_0/N) bracket (``*_hot``), where most of the
  recursion's exponents lie below exp's fast range;
- one ``temperature_for_fraction`` (3D isotropic, N = 1000, N_0/N = 0.2), and
  one in the cigar (1, 1, 1e-4) at N = 1000, N_0/N = 0.4, the first point of
  the README ``aspect`` command;
- one ``atom_number`` at the solved fugacity of a 3D isotropic trap,
  N = 2208, T = 1.1 T_c (the series dies after about 540 terms), and of a
  cylinder (1, 1, 2.4e-3), N = 1e6, T = 0.8 T_c (live for two chunks);
- ``log_z1`` of the 3D isotropic trap over one series chunk, beta = j/T_c
  for j = 1 ... 65,536 at N = 1e4, and over the second chunk,
  j = 65,537 ... 131,072, that of the line (1.0,) at the T of
  ``solve_fugacity_1d`` (``log_z1_line``, whose one axis skips its multiply)
  and of the cylinder (1, 1, 2.4e-3) at the T of ``atom_number_cylinder``
  (``log_z1_cylinder``, whose repeated axis reuses the first one's log);
- one ``solve_fugacity`` (3D isotropic, N = 1e4, T = T_c), two with long
  series: 1D, N = 739,986, T = 0.3392 T_c, and the cylinder (1, 1, 2.405e-3),
  N = 760,675, T = 0.7856 T_c, one of a hot gas above N = 2^53 (3D
  isotropic, N = 1e20, T = 2 T_c, ``solve_fugacity_hot``), and the refusal
  of a cold gas there (2D isotropic, N = 1e16, T = 0.5 T_c,
  ``solve_fugacity_cold``), whose expected ``NumericalError`` is swallowed;
- one exact ``temperature_for_fraction_gc`` (1D, N = 417,135, N_0/N = 0.2506);
- one ``mean_occupations`` of 16,000 axis levels (1D, N = 1600, T = 0.5 T_c),
  and the Hermite pass ``_mirror_sums`` over the first 3001 of them on a
  1201-point grid;
- one ``occupation_spectrum`` (3D isotropic, N = 1000, T = 1.2 T_c);
- ``find_tph`` in 1D at N = 1600 and in the cigars (1, 1, 1e-3) and
  (1, 1, 1e-4) at N = 1000;
- the README ``aspect`` command, the same with ``--tph-markers``, and the
  README ``tph``, ``occupations``, canonical ``sticking`` and ``g1``
  commands, run as ``python -m bosegas.cli`` with the CSV on stdout;
- ``aspect --natoms 1000 --ratio-range 1e-2:1e2:9 --tph-markers`` at
  BOSE_THREADS=1 (``tph_markers_9``), where the nine T_ph searches share one
  worker.

Each metric is in seconds: the best and the median of R runs (default 5;
the README commands run once).  The JSON also records the peak RSS of the
snapshot process itself (``peak_rss_mb``, MiB, without the subprocesses),
nproc (the CPUs the process may run on), Python, numpy, the commit of the
tree and its BOSE_THREADS.

``--rows NAME[,NAME...]`` times only the named rows, in that order, each
after the untimed setup it needs, and prints the record as one JSON line on
stdout instead of writing BENCH_<n>.json; an unknown name exits with
status 2.  Two whole snapshots taken minutes apart differ by host drift of
up to about 40 % on rows whose code is the same, so compare two trees row
by row, alternating fresh processes (parent, change, change, parent, ...):

    for i in 1 2 3 4 5; do
        if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
        for tree in $order; do
            python scripts/bench_snapshot.py --src $tree/src --repeats 1 \
                --rows find_tph_1d_n1600,tph_markers_9 >> $tree.jsonl
        done
    done

and compare the medians of each row over the lines of parent.jsonl and
change.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ASPECT = ["aspect", "--natoms", "1000", "--n0-frac", "0.4", "--ratio-range", "1e-4:1e4:161"]
TPH = ["tph", "--dim", "1", "--natoms", "100,200,400,800,1600"]
TPH_MARKERS_9 = ["aspect", "--natoms", "1000", "--ratio-range", "1e-2:1e2:9", "--tph-markers"]
OCCUPATIONS = ["occupations", "--dim", "3", "--natoms", "1000", "--t-over-tc", "0.1:1.3:25"]
STICKING = ["sticking", "--dim", "1", "--natoms", "50,100,200,400,800,1600", "--n0-frac", "0.2"]
G1 = ["g1", "--dim", "1", "--natoms", "1000", "--n0-frac", "0.6"]


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


def _rows(env: dict) -> dict:
    """Row name -> setup: setup() does the row's untimed work and returns the
    call to time.  The bosegas package must be importable."""
    import numpy as np

    from bosegas import NumericalError, canonical, coherence, grand
    from bosegas.trap import TrapGeometry, characteristic_temperature

    def ready(func, *args, **kwargs):
        """The setup of a row that has none."""
        return lambda: partial(func, *args, **kwargs)

    trap, line = TrapGeometry.isotropic(3), TrapGeometry((1.0,))
    rows = {"import_cli": ready(
        subprocess.run, [sys.executable, "-c", "import bosegas.cli"], env=env, check=True)}

    def warmed(call, state):
        canonical.build_partition_table(trap, state)  # warm-up
        return call

    for n, t_rel, suffix in ((400, 0.8, ""), (1000, 0.8, ""), (1600, 0.8, ""),
                             (1000, 10.0, "_hot")):
        state = canonical.ThermalState(n, t_rel * characteristic_temperature(trap, n))
        rows[f"table_n{n}{suffix}"] = partial(
            warmed, partial(canonical.build_partition_table, trap, state), state)
        rows[f"batch8_n{n}{suffix}"] = partial(
            warmed, partial(canonical.build_partition_tables, [(trap, state)] * 8), state)
    rows["temperature_for_fraction"] = ready(canonical.temperature_for_fraction, trap, 1000, 0.2)
    rows["temperature_for_fraction_cigar"] = ready(
        canonical.temperature_for_fraction, TrapGeometry((1.0, 1.0, 1e-4)), 1000, 0.4)

    def atom_number(geometry, n, t_rel):
        t = t_rel * characteristic_temperature(geometry, n)
        gc = grand.solve_fugacity(geometry, n, t)
        return partial(grand.atom_number, geometry, gc.fugacity, t,
                       one_minus_z=gc.one_minus_fugacity)

    chunk = grand._SERIES_CHUNK
    cylinder = TrapGeometry((1.0, 1.0, 2.4e-3))
    second = np.arange(chunk + 1.0, 2 * chunk + 1)
    rows["log_z1"] = ready(trap.log_z1, np.arange(1.0, chunk + 1)
                           / characteristic_temperature(trap, 1e4))
    rows["log_z1_line"] = ready(
        line.log_z1, second / (0.3392 * characteristic_temperature(line, 739_986)))
    rows["log_z1_cylinder"] = ready(
        cylinder.log_z1, second / (0.8 * characteristic_temperature(cylinder, 1e6)))
    rows["atom_number_3d"] = partial(atom_number, trap, 2208, 1.1)
    rows["atom_number_cylinder"] = partial(atom_number, cylinder, 1e6, 0.8)
    rows["solve_fugacity"] = ready(
        lambda: grand.solve_fugacity(trap, 1e4, characteristic_temperature(trap, 1e4)))

    def solve_fugacity(geometry, n, t_rel):
        return partial(grand.solve_fugacity, geometry, n,
                       t_rel * characteristic_temperature(geometry, n))

    rows["solve_fugacity_1d"] = partial(solve_fugacity, line, 739_986, 0.3392)
    rows["solve_fugacity_cylinder"] = partial(
        solve_fugacity, TrapGeometry((1.0, 1.0, 2.405e-3)), 760_675, 0.7856)
    rows["solve_fugacity_hot"] = partial(solve_fugacity, trap, 1e20, 2.0)

    def refused(geometry, n, t_rel):
        solve = solve_fugacity(geometry, n, t_rel)

        def call():
            try:
                solve()
            except NumericalError:
                return
            raise AssertionError(f"solve_fugacity solved N = {n:g} at {t_rel} T_c")
        return call

    rows["solve_fugacity_cold"] = partial(refused, TrapGeometry.isotropic(2), 1e16, 0.5)
    rows["temperature_for_fraction_gc_1d"] = ready(
        grand.temperature_for_fraction_gc, line, 417_135, 0.2506, mode="exact")

    t_line = 0.5 * characteristic_temperature(line, 1600)
    levels = np.arange(16_000, dtype=float)

    def line_table():
        return canonical.build_partition_table(line, canonical.ThermalState(1600, t_line))

    def mirror_sums():
        weights = canonical.mean_occupations(line_table(), levels[:3001])
        grid = coherence.AxisGrid.symmetric(coherence.default_extent(line, t_line, 0), 1201)
        return partial(coherence._mirror_sums, weights, 1.0, grid)

    rows["mean_occupations_kxn"] = lambda: partial(
        canonical.mean_occupations, line_table(), levels)
    rows["mirror_sums"] = mirror_sums
    hot = canonical.ThermalState(1000, 1.2 * characteristic_temperature(trap, 1000))
    rows["occupation_spectrum_3d"] = ready(canonical.occupation_spectrum, trap, hot)
    rows["find_tph_1d_n1600"] = ready(coherence.find_tph, line, 1600)
    for omega_z in ("1e-3", "1e-4"):
        rows[f"find_tph_cigar_{omega_z}"] = ready(
            coherence.find_tph, TrapGeometry((1.0, 1.0, float(omega_z))), 1000)
    for name, args, cmd_env in (("readme_aspect", ASPECT, env),
                                ("readme_aspect_tph_markers", [*ASPECT, "--tph-markers"], env),
                                ("readme_tph", TPH, env),
                                ("readme_occupations", OCCUPATIONS, env),
                                ("readme_sticking", STICKING, env),
                                ("readme_g1", G1, env),
                                ("tph_markers_9", TPH_MARKERS_9, dict(env, BOSE_THREADS="1"))):
        rows[name] = ready(subprocess.run, [sys.executable, "-m", "bosegas.cli", *args],
                           env=cmd_env, check=True, capture_output=True)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("number", type=int, nargs="?",
                   help="n of the BENCH_<n>.json written to the repo root (not with --rows)")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding bosegas/")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--rows", type=lambda s: s.split(","), metavar="NAME[,NAME...]",
                   help="time only these rows and print the record to stdout")
    a = p.parse_args(argv)
    if (a.number is None) == (a.rows is None):
        p.error("give either N or --rows")
    src = a.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    import numpy as np

    rows = _rows(env)
    unknown = [name for name in a.rows or () if name not in rows]
    if unknown:
        p.error(f"unknown row {', '.join(unknown)}; the rows are {', '.join(rows)}")
    # the README commands are timed once whatever --repeats says
    metrics = {name: _timed(rows[name](), 1 if name.startswith("readme_") else a.repeats)
               for name in a.rows or rows}

    record = {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "bose_threads": os.environ.get("BOSE_THREADS", "nproc"),
        },
        "commit": _commit(src),
        "repeats": a.repeats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": metrics,
    }
    if a.rows:
        print(json.dumps(record))
        return 0
    out = ROOT / f"BENCH_{a.number}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
