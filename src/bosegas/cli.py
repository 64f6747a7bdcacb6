"""Command-line driver: parameter sweeps with machine-readable CSV output.

Each subcommand reproduces the data behind one figure-style observable:

  occupations  N_0/N and N_1/N versus temperature at fixed N
  sticking     N_1/N_0 versus N at fixed condensate fraction
  tph          crossover temperature T_ph and N_0(T_ph)/N versus N
  aspect       N_1/N_0 and N_2/N_0 versus the trap aspect ratio
  g1           g1(-x, x) and density profile at one state point

Output is CSV with a '#'-prefixed metadata block recording every input
parameter, so a figure can be regenerated from the file alone.  Identical
invocations produce byte-identical output, also with BOSE_THREADS > 1.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .canonical import (
    ThermalState,
    build_partition_table,
    mean_occupation,
    occupation_spectrum,
    temperature_for_fraction,
)
from .coherence import AxisGrid, default_extent, find_tph, g1_profile
from .errors import BoseGasError
from .grand import sticking_ratio_gc, temperature_for_fraction_gc
from .trap import TrapGeometry, characteristic_temperature, enumerate_modes

DEFAULT_CANONICAL_CAP = 1600
# below the smallest normal float, beta = 1/T overflows to inf
_MIN_TEMPERATURE = float(np.finfo(float).tiny)

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return __version__


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17e")


def _worker_count(parser) -> int:
    env = os.environ.get("BOSE_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        parser.error(f"BOSE_THREADS must be an integer, got {env!r}")


def _parallel_map(func, items, workers):
    """Map preserving input order; fans out to processes when allowed."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [func(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


class _Writer:
    def __init__(self, stream):
        self.stream = stream

    def meta(self, **kv):
        for key, value in kv.items():
            self.stream.write(f"# {key} = {value}\n")

    def header(self, *names):
        self.stream.write(",".join(names) + "\n")

    def row(self, *values):
        self.stream.write(",".join(_fmt(v) for v in values) + "\n")


def _resolve_geometry(args, parser) -> TrapGeometry:
    given = [args.omega is not None, args.aspect_ratio is not None, args.dim is not None]
    if sum(given) != 1:
        parser.error("specify exactly one of --dim, --omega, --aspect-ratio")
    if args.omega is not None:
        try:
            freqs = tuple(float(v) for v in args.omega.split(","))
            return TrapGeometry(freqs)
        except ValueError as err:
            parser.error(f"bad --omega value {args.omega!r}: {err}")
    if args.aspect_ratio is not None:
        return TrapGeometry.from_aspect_ratio(args.aspect_ratio)
    return TrapGeometry.isotropic(args.dim)


def _parse_sweep(text: str, parser, flag: str):
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"{flag} expects START:STOP:STEPS, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"{flag} expects START:STOP:STEPS, got {text!r}")
    if steps < 2 or not (start < stop and math.isfinite(start) and math.isfinite(stop)):
        parser.error(f"{flag} needs steps >= 2 and finite start < stop, got {text!r}")
    return start, stop, steps


def _natoms_list(text: str) -> list[int]:
    try:
        values = [int(round(float(v))) for v in text.split(",")]
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"expected an integer or comma list, got {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"values must be positive, got {text!r}")
    return values


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _temperature(text: str) -> float:
    value = _positive(text)
    if value < _MIN_TEMPERATURE:
        raise argparse.ArgumentTypeError(f"expected at least {_MIN_TEMPERATURE:g}, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1), got {text!r}")
    return value


def _single_natoms(args, parser) -> int:
    if len(args.natoms) != 1:
        parser.error(f"{args.command} takes one --natoms value, got {args.natoms}")
    return args.natoms[0]


def _require_two_atoms(n_atoms, parser):
    if min(n_atoms) < 2:
        parser.error("--natoms must be at least 2: T_c is undefined for one atom")


def _geometry_meta(writer, geometry):
    writer.meta(
        omega=",".join(format(w, ".17e") for w in geometry.omega),
        dimension=geometry.dimension,
    )


# ---------------------------------------------------------------------------
# sweep-point workers (module level so ProcessPoolExecutor can pickle them)

def _occupations_point(payload):
    geometry, n_atoms, temperature = payload
    state = ThermalState(n_atoms, temperature)
    table = build_partition_table(geometry, state)
    n0 = mean_occupation(table, 0.0)
    n1 = mean_occupation(table, geometry.min_frequency)
    return n0, n1


def _sticking_canonical_point(payload):
    geometry, n_atoms, fraction = payload
    state = temperature_for_fraction(geometry, n_atoms, fraction)
    n0, n1 = _occupations_point((geometry, n_atoms, state.temperature))
    return n1 / n0


def _tph_point(payload):
    geometry, n_atoms = payload
    tc = characteristic_temperature(geometry, n_atoms)
    try:
        t_ph, n0 = find_tph(geometry, n_atoms)
    except BoseGasError as err:
        return math.nan, math.nan, type(err).__name__
    return t_ph / tc, n0 / n_atoms, "ok"


def _aspect_point(payload):
    ratio, n_atoms, fraction, with_tph = payload
    geometry = TrapGeometry.from_aspect_ratio(ratio)
    state = temperature_for_fraction(geometry, n_atoms, fraction)
    table = build_partition_table(geometry, state)
    # energies of the 2nd and 3rd largest eigenvalues: the two lowest excited
    # modes counted with degeneracy
    e1, e2 = enumerate_modes(geometry, 2 * geometry.min_frequency)[1][1:3]
    n0 = mean_occupation(table, 0.0)
    n1 = mean_occupation(table, e1)
    n2 = mean_occupation(table, e2)
    if with_tph:
        t_ph, _ = find_tph(geometry, n_atoms)
        markers = (t_ph / geometry.omega[0], t_ph / geometry.omega[2])
    else:
        markers = None
    return n0 / n_atoms, n1 / n0, n2 / n0, markers


# ---------------------------------------------------------------------------
# subcommands

def _cmd_occupations(args, parser):
    geometry = _resolve_geometry(args, parser)
    n_atoms = _single_natoms(args, parser)
    _require_two_atoms(args.natoms, parser)
    tc = characteristic_temperature(geometry, n_atoms)
    if args.t_over_tc is not None:
        lo, hi, steps = _parse_sweep(args.t_over_tc, parser, "--t-over-tc")
        fracs = np.linspace(lo, hi, steps)
        temps = fracs * tc
    elif args.temp is not None:
        try:
            temps = np.array([float(v) for v in args.temp.split(",")])
        except ValueError:
            parser.error(f"--temp expects a comma list of numbers, got {args.temp!r}")
        fracs = temps / tc
    else:
        parser.error("occupations needs --t-over-tc or --temp")
    if not np.all((temps >= _MIN_TEMPERATURE) & np.isfinite(temps)):
        parser.error(f"temperatures must be finite and at least {_MIN_TEMPERATURE:g}")

    results = _parallel_map(
        _occupations_point, [(geometry, n_atoms, float(t)) for t in temps], args.workers
    )
    writer = _Writer(args.out_stream)
    writer.meta(command="occupations", version=_version_string())
    _geometry_meta(writer, geometry)
    writer.meta(natoms=n_atoms, t_c=format(tc, ".17e"))
    writer.header("t", "t_over_tc", "n0_frac", "n1_frac", "n1_over_n0")
    for t, frac, (n0, n1) in zip(temps, fracs, results):
        writer.row(t, frac, n0 / n_atoms, n1 / n_atoms, n1 / n0)
    return 0


def _cmd_sticking(args, parser):
    geometry = _resolve_geometry(args, parser)
    fraction = args.n0_frac if args.n0_frac is not None else 0.2
    ensembles = ["canonical", "grand"] if args.ensemble == "both" else [args.ensemble]
    if "canonical" in ensembles:
        over = [n for n in args.natoms if n > args.canonical_cap]
        if over:
            parser.error(
                f"canonical ensemble is capped at N = {args.canonical_cap} "
                f"(requested {over}); raise --canonical-cap or use --ensemble grand"
            )

    rows = []
    if "canonical" in ensembles:
        values = _parallel_map(
            _sticking_canonical_point,
            [(geometry, n, fraction) for n in args.natoms],
            args.workers,
        )
        rows += [(n, "canonical", v) for n, v in zip(args.natoms, values)]
    if "grand" in ensembles:
        for n in args.natoms:
            state = temperature_for_fraction_gc(geometry, n, fraction, mode="closed")
            rows.append((n, "grand", sticking_ratio_gc(state)))
    rows.sort(key=lambda r: (r[0], r[1]))

    writer = _Writer(args.out_stream)
    writer.meta(command="sticking", version=_version_string())
    _geometry_meta(writer, geometry)
    writer.meta(
        n0_frac=fraction,
        ensemble=args.ensemble,
        canonical_cap=args.canonical_cap,
    )
    writer.header("n_atoms", "ensemble", "n1_over_n0")
    for row in rows:
        writer.row(*row)
    return 0


def _cmd_tph(args, parser):
    geometry = _resolve_geometry(args, parser)
    _require_two_atoms(args.natoms, parser)
    results = _parallel_map(_tph_point, [(geometry, n) for n in args.natoms], args.workers)
    writer = _Writer(args.out_stream)
    writer.meta(command="tph", version=_version_string())
    _geometry_meta(writer, geometry)
    writer.header("n_atoms", "tph_over_tc", "n0ph_frac", "status")
    for n, (t_rel, n0_frac, status) in zip(args.natoms, results):
        writer.row(n, t_rel, n0_frac, status)
    return 0


def _cmd_aspect(args, parser):
    n_atoms = _single_natoms(args, parser)
    fraction = args.n0_frac if args.n0_frac is not None else 0.4
    lo, hi, steps = _parse_sweep(args.ratio_range, parser, "--ratio-range")
    if lo <= 0:
        parser.error("--ratio-range is log-scaled and needs start > 0")
    ratios = np.geomspace(lo, hi, steps)

    results = _parallel_map(
        _aspect_point,
        [(float(r), n_atoms, fraction, args.tph_markers) for r in ratios],
        args.workers,
    )
    writer = _Writer(args.out_stream)
    writer.meta(
        command="aspect",
        version=_version_string(),
        natoms=n_atoms,
        n0_frac=fraction,
        ratio_range=args.ratio_range,
        tph_markers=args.tph_markers,
    )
    names = ["aspect_ratio", "n0_frac", "n1_over_n0", "n2_over_n0"]
    if args.tph_markers:
        names += ["tph_over_omega_perp", "tph_over_omega_z"]
    writer.header(*names)
    for r, (n0f, s1, s2, markers) in zip(ratios, results):
        row = [r, n0f, s1, s2]
        if args.tph_markers:
            row += list(markers)
        writer.row(*row)
    return 0


def _cmd_g1(args, parser):
    geometry = _resolve_geometry(args, parser)
    if args.grid_points < 3 or args.grid_points % 2 == 0:
        parser.error(f"--grid-points must be an odd integer >= 3, got {args.grid_points}")
    n_atoms = _single_natoms(args, parser)
    if args.temp is not None:
        state = ThermalState(n_atoms, args.temp)
    elif args.n0_frac is not None:
        state = temperature_for_fraction(geometry, n_atoms, args.n0_frac)
    else:
        parser.error("g1 needs --temp or --n0-frac")
    axis = int(np.argmin(geometry.omega))
    extent = args.grid_extent or default_extent(geometry, state.temperature, axis)
    grid = AxisGrid.symmetric(extent, args.grid_points, axis=axis)
    spectrum = occupation_spectrum(geometry, state, tol=args.cutoff_tol)
    profile = g1_profile(spectrum, geometry, grid)

    writer = _Writer(args.out_stream)
    writer.meta(command="g1", version=_version_string())
    _geometry_meta(writer, geometry)
    writer.meta(
        natoms=n_atoms,
        temperature=format(state.temperature, ".17e"),
        axis="xyz"[axis],
        grid_extent=format(grid.extent, ".17e"),
        grid_points=grid.count,
        cutoff_tol=args.cutoff_tol,
    )
    writer.header("x", "g1", "density")
    for x, g1v, dens in zip(grid.points, profile.g1, profile.density):
        writer.row(x, g1v, dens)
    writer.meta(
        coherence_length=format(profile.coherence_length, ".17e"),
        cloud_width=format(profile.cloud_width, ".17e"),
    )
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Exact statistics of ideal Bose gases in harmonic traps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups; each subcommand takes only the groups it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--natoms", type=_natoms_list, required=True,
                        help="atom number (comma list for sweeps)")
    common.add_argument("--out", help="output file (default: stdout)")
    trap = argparse.ArgumentParser(add_help=False)
    trap.add_argument("--dim", type=int, choices=(1, 2, 3), help="isotropic trap dimension")
    trap.add_argument("--omega", help="trap frequencies X[,Y[,Z]] in oscillator units")
    trap.add_argument(
        "--aspect-ratio",
        type=_positive,
        help="cylindrical 3D trap: omega_x = omega_y = 1, omega_z = RATIO",
    )
    n0_frac = argparse.ArgumentParser(add_help=False)
    n0_frac.add_argument("--n0-frac", type=_fraction, help="target condensate fraction N_0/N")

    p = sub.add_parser(
        "occupations",
        help="N_0/N, N_1/N and N_1/N_0 versus temperature "
        "(ground/first-excited populations across the degeneracy range)",
        parents=[common, trap],
    )
    p.add_argument("--t-over-tc", help="temperature sweep A:B:K in units of T_c")
    p.add_argument("--temp", help="absolute temperature(s), comma separated")
    p.set_defaults(func=_cmd_occupations)

    p = sub.add_parser(
        "sticking",
        help="N_1/N_0 versus atom number at fixed condensate fraction, "
        "canonical and/or grand-canonical (closed forms while C*N < 2^53)",
        parents=[common, trap, n0_frac],
    )
    p.add_argument(
        "--ensemble", choices=("canonical", "grand", "both"), default="both"
    )
    p.add_argument(
        "--canonical-cap",
        type=int,
        default=DEFAULT_CANONICAL_CAP,
        help="largest N accepted for the O(N^2) canonical recursion",
    )
    p.set_defaults(func=_cmd_sticking)

    p = sub.add_parser(
        "tph",
        help="crossover temperature T_ph (coherence length = cloud width) "
        "and condensate fraction there, versus atom number",
        parents=[common, trap],
    )
    p.set_defaults(func=_cmd_tph)

    p = sub.add_parser(
        "aspect",
        help="N_1/N_0 and N_2/N_0 versus trap aspect ratio omega_z/omega_perp "
        "at fixed N and condensate fraction",
        parents=[common, n0_frac],
    )
    p.add_argument("--ratio-range", required=True,
                   help="log-spaced aspect-ratio sweep A:B:K")
    p.add_argument(
        "--tph-markers",
        action="store_true",
        help="also compute T_ph per point and emit T_ph/omega columns (slow)",
    )
    p.set_defaults(func=_cmd_aspect)

    p = sub.add_parser(
        "g1",
        help="mirror-point correlation g1(-x, x) and density along the softest "
        "axis at one state point, with FWHM footer",
        parents=[common, trap, n0_frac],
    )
    p.add_argument("--temp", type=_temperature, help="absolute temperature")
    p.add_argument("--cutoff-tol", type=_fraction, default=1e-10,
                   help="relative tail tolerance for mode-sum truncation")
    p.add_argument("--grid-extent", type=_positive, help="half-width of the spatial grid")
    p.add_argument("--grid-points", type=int, default=2001,
                   help="odd number of grid points")
    p.set_defaults(func=_cmd_g1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workers = _worker_count(parser)
    if args.out:
        out = open(args.out, "w", encoding="utf-8", newline="\n")
    else:
        out = sys.stdout
    args.out_stream = out
    try:
        return args.func(args, parser)
    except BoseGasError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
