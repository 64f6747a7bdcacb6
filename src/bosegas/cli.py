"""Command-line driver: parameter sweeps with machine-readable CSV output.

Each subcommand reproduces the data behind one figure-style observable:

  occupations  N_0/N and N_1/N versus temperature at fixed N
  sticking     N_1/N_0 versus N at fixed condensate fraction
  tph          crossover temperature T_ph and N_0(T_ph)/N versus N
  aspect       N_1/N_0 and N_2/N_0 versus the trap aspect ratio
  g1           g1(-x, x) and density profile at one state point

Output is CSV with a '#'-prefixed metadata block recording every input
parameter, so a figure can be regenerated from the file alone.  Identical
invocations produce byte-identical output, also with BOSE_THREADS > 1: a
sweep deals its points round-robin to the workers, and the first failed
point's error is raised under any worker count (tph instead writes each
failed point's error type as its status).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .brent import _raise_first
from .canonical import (
    ThermalState,
    _search_outcomes,
    build_partition_tables,
    mean_occupation,
    temperature_for_fraction,
)
from .coherence import _tph_outcomes, thermal_profile
from .errors import BoseGasError, NumericalError
from .grand import sticking_ratio_gc, temperature_for_fraction_gc
from .trap import _MIN_FREQUENCY, TrapGeometry, characteristic_temperature

DEFAULT_CANONICAL_CAP = 1600
# below the smallest normal float, beta = 1/T overflows to inf
_MIN_TEMPERATURE = float(np.finfo(float).tiny)

EXIT_NUMERICAL = 3


@functools.cache
def _version_string() -> str:
    """``git describe`` of the checkout that tracks this file, else __version__.

    A package installed inside some other git work tree is not tracked there,
    so that tree's commit is never stamped into the output.  Computed once:
    a process runs the code it imported.
    """
    here = os.path.dirname(os.path.abspath(__file__))

    def git(*args):
        return subprocess.run(["git", *args], cwd=here, capture_output=True, text=True, timeout=5)

    try:
        if git("ls-files", "--error-unmatch", "cli.py").returncode == 0:
            out = git("describe", "--always", "--dirty")
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
    if env is None:  # the CPUs this process may run on, not the host's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as err:
        parser.error(f"BOSE_THREADS: {err}")


def _map(batch, items, workers):
    """``batch(items)``, one outcome per item in input order, on up to ``workers``
    processes: worker w of k takes items w, w + k, ...  An outcome is the
    item's result or the error that ended it, and ends no other item.
    """
    k = max(1, min(workers, len(items)))
    if k == 1:
        return batch(items)
    outcomes = [None] * len(items)
    with ProcessPoolExecutor(max_workers=k) as pool:
        for w, dealt in enumerate(pool.map(batch, [items[w::k] for w in range(k)])):
            outcomes[w::k] = dealt
    return outcomes


class _Writer:
    """Collects the CSV lines; main writes them out once the command has succeeded.

    The metadata opens with the command, the version and, when given, the trap.
    """

    def __init__(self, command, geometry=None):
        self.lines = []
        self.meta(command=command, version=_version_string())
        if geometry is not None:
            self.meta(
                omega=",".join(format(w, ".17e") for w in geometry.omega),
                dimension=geometry.dimension,
            )

    def meta(self, **kv):
        self.lines += [f"# {key} = {value}\n" for key, value in kv.items()]

    def header(self, *names):
        self.lines.append(",".join(names) + "\n")

    def row(self, *values):
        self.lines.append(",".join(_fmt(v) for v in values) + "\n")


# ---------------------------------------------------------------------------
# argparse types: each checks one flag's value and returns it ready to use

def _checked(expected: str, convert, ok=lambda value: True):
    """An argparse type: ``convert`` the text and refuse a value that fails ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, OverflowError):
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _usable_temperatures(temps) -> bool:
    return bool(np.all((temps >= _MIN_TEMPERATURE) & (temps < math.inf)))


_positive = _checked("a positive finite number", float, lambda x: 0 < x < math.inf)
_fraction = _checked("a fraction in (0, 1)", float, lambda x: 0 < x < 1)
_positive_int = _checked("a positive integer", int, lambda k: k >= 1)
_odd_int = _checked("an odd integer >= 3", int, lambda k: k >= 3 and k % 2 == 1)
_temperature = _checked(f"a finite T >= {_MIN_TEMPERATURE:g}", float, _usable_temperatures)
_temperatures = _checked(
    f"T[,T,...], each finite and >= {_MIN_TEMPERATURE:g}",
    lambda text: np.array([float(v) for v in text.split(",")]),
    _usable_temperatures,
)
_dim = _checked("1, 2 or 3", lambda text: TrapGeometry.isotropic(int(text)))
_omega = _checked(
    f"WX[,WY[,WZ]], 1 to 3 finite frequencies >= {_MIN_FREQUENCY:g}",
    lambda text: TrapGeometry(tuple(float(v) for v in text.split(","))),
)
_aspect_ratio = _checked(
    f"a finite ratio >= {_MIN_FREQUENCY:g}",
    lambda text: TrapGeometry.from_aspect_ratio(float(text)),
)


def _writable(path: str) -> bool:
    """Whether --out can be written, judged without creating or truncating it."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)


_out = _checked("a writable file path", str, _writable)


def _atom_number(text: str) -> int:
    """An integral atom number, also in float notation such as 1e6."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def _natoms(*, many: bool, minimum: int):
    """The --natoms type: one atom number >= ``minimum``, or a comma list of them."""
    if many:
        return _checked(
            f"integral atom numbers >= {minimum}, comma separated",
            lambda text: [_atom_number(v) for v in text.split(",")],
            lambda values: min(values) >= minimum,
        )
    return _checked(
        f"one integral atom number >= {minimum}", _atom_number,
        lambda value: value >= minimum,
    )


def _sweep(*, log: bool):
    """The START:STOP:STEPS type, returned as (text, start, stop, steps); a
    log sweep, of trap frequencies, starts at a normal float."""
    low = f"{_MIN_FREQUENCY:g} <=" if log else "-inf <"

    def convert(text: str):
        start, stop, steps = text.split(":")
        return text, float(start), float(stop), int(steps)

    return _checked(
        f"START:STOP:STEPS with {low} START < STOP < inf and STEPS >= 2",
        convert,
        lambda sweep: (sweep[1] >= _MIN_FREQUENCY if log else sweep[1] > -math.inf)
        and sweep[1] < sweep[2] < math.inf and sweep[3] >= 2,
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_occupations(args):
    geometry, n_atoms = args.geometry, args.natoms
    tc = characteristic_temperature(geometry, n_atoms)
    if args.temp is None:
        fracs = np.linspace(*args.t_over_tc[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # T_c may be inf: refused below
            temps = fracs * tc
        if not _usable_temperatures(temps):
            args.parser.error(f"--t-over-tc reaches T below {_MIN_TEMPERATURE:g} or T = inf")
    else:
        temps = args.temp
        with np.errstate(over="ignore"):  # a T/T_c past the float range reads inf
            fracs = temps / tc

    lanes = [(geometry, ThermalState(n_atoms, float(t))) for t in temps]
    tables = _raise_first(_map(build_partition_tables, lanes, args.workers))
    writer = _Writer("occupations", geometry)
    writer.meta(natoms=n_atoms, t_c=format(tc, ".17e"))
    writer.header("t", "t_over_tc", "n0_frac", "n1_frac", "n1_over_n0")
    for t, frac, table in zip(temps, fracs, tables):
        n0, n1 = mean_occupation(table, 0.0), mean_occupation(table, geometry.min_frequency)
        if not n0 > 0:
            raise NumericalError(f"N_0 underflows to 0 at T = {t:g}, so N_1/N_0 is undefined")
        writer.row(t, frac, n0 / n_atoms, n1 / n_atoms, n1 / n0)
    return writer


def _cmd_sticking(args):
    geometry, fraction = args.geometry, args.n0_frac
    ensembles = ["canonical", "grand"] if args.ensemble == "both" else [args.ensemble]
    rows = []
    if "canonical" in ensembles:
        over = [n for n in args.natoms if n > args.canonical_cap]
        if over:
            args.parser.error(
                f"canonical ensemble is capped at N = {args.canonical_cap} "
                f"(requested {over}); raise --canonical-cap or use --ensemble grand"
            )
        points = [(geometry, n, fraction) for n in args.natoms]
        tables = _raise_first(_map(_search_outcomes, points, args.workers))
        for n, table in zip(args.natoms, tables):
            n0, n1 = mean_occupation(table, 0.0), mean_occupation(table, geometry.min_frequency)
            rows.append((n, "canonical", n1 / n0))
    if "grand" in ensembles:
        for n in args.natoms:
            state = temperature_for_fraction_gc(geometry, n, fraction, mode="closed")
            rows.append((n, "grand", sticking_ratio_gc(state)))
    rows.sort(key=lambda r: (r[0], r[1]))

    writer = _Writer("sticking", geometry)
    writer.meta(
        n0_frac=fraction,
        ensemble=args.ensemble,
        canonical_cap=args.canonical_cap,
    )
    writer.header("n_atoms", "ensemble", "n1_over_n0")
    for row in rows:
        writer.row(*row)
    return writer


def _cmd_tph(args):
    outcomes = _map(_tph_outcomes, [(args.geometry, n) for n in args.natoms], args.workers)
    writer = _Writer("tph", args.geometry)
    writer.header("n_atoms", "tph_over_tc", "n0ph_frac", "status")
    for n, outcome in zip(args.natoms, outcomes):
        tc = characteristic_temperature(args.geometry, n)
        failed = isinstance(outcome, Exception)
        t_ph, n0 = (math.nan, math.nan) if failed else outcome
        writer.row(n, t_ph / tc, n0 / n, type(outcome).__name__ if failed else "ok")
    return writer


def _cmd_aspect(args):
    if args.tph_markers and args.natoms < 2:
        args.parser.error("--tph-markers needs --natoms >= 2: T_ph is undefined for one atom")
    ratio_range, *sweep = args.ratio_range
    ratios = np.geomspace(*sweep)
    geometries = [TrapGeometry.from_aspect_ratio(float(r)) for r in ratios]
    points = [(g, args.natoms, args.n0_frac) for g in geometries]
    tables = _raise_first(_map(_search_outcomes, points, args.workers))
    rows = []
    for r, g, table in zip(ratios, geometries, tables):
        # energies of the 2nd and 3rd largest eigenvalues, the two lowest excited
        # modes counted with degeneracy: one quantum on an axis or two on the softest
        e1, e2 = sorted(g.omega + (2 * g.min_frequency,))[:2]
        n0, n1, n2 = (mean_occupation(table, e) for e in (0.0, e1, e2))
        rows.append([r, n0 / args.natoms, n1 / n0, n2 / n0])
    if args.tph_markers:
        payloads = [(g, args.natoms) for g in geometries]
        markers = _raise_first(_map(_tph_outcomes, payloads, args.workers))
        for row, g, (t_ph, _) in zip(rows, geometries, markers):
            row += [t_ph / g.omega[0], t_ph / g.omega[2]]
    writer = _Writer("aspect")
    writer.meta(
        natoms=args.natoms,
        n0_frac=args.n0_frac,
        ratio_range=ratio_range,
        tph_markers=args.tph_markers,
    )
    names = ["aspect_ratio", "n0_frac", "n1_over_n0", "n2_over_n0"]
    if args.tph_markers:
        names += ["tph_over_omega_perp", "tph_over_omega_z"]
    writer.header(*names)
    for row in rows:
        writer.row(*row)
    return writer


def _cmd_g1(args):
    geometry, n_atoms = args.geometry, args.natoms
    state = (ThermalState(n_atoms, args.temp) if args.temp is not None
             else temperature_for_fraction(geometry, n_atoms, args.n0_frac))
    grid, profile = thermal_profile(
        geometry, state, args.grid_points, args.cutoff_tol, args.grid_extent
    )

    writer = _Writer("g1", geometry)
    writer.meta(
        natoms=n_atoms,
        temperature=format(state.temperature, ".17e"),
        axis="xyz"[grid.axis],
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
    return writer


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Exact statistics of ideal Bose gases in harmonic traps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups; each subcommand takes only the groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_out, help="output file (default: stdout)")
    trap = argparse.ArgumentParser(add_help=False)
    geometry = trap.add_mutually_exclusive_group(required=True)
    geometry.add_argument("--dim", dest="geometry", type=_dim, metavar="D",
                          help="isotropic trap of dimension 1, 2 or 3")
    geometry.add_argument("--omega", dest="geometry", type=_omega, metavar="WX,WY,WZ",
                          help="trap frequencies in oscillator units, one per axis")
    geometry.add_argument("--aspect-ratio", dest="geometry", type=_aspect_ratio, metavar="R",
                          help="cylindrical 3D trap: omega_x = omega_y = 1, omega_z = R")

    p = sub.add_parser(
        "occupations",
        help="N_0/N, N_1/N and N_1/N_0 versus temperature "
        "(ground/first-excited populations across the degeneracy range)",
        parents=[trap, out],
    )
    # occupations and tph need T_c, which is undefined for one atom
    p.add_argument("--natoms", type=_natoms(many=False, minimum=2), required=True,
                   help="atom number")
    temps = p.add_mutually_exclusive_group(required=True)
    temps.add_argument("--t-over-tc", type=_sweep(log=False),
                       help="temperature sweep A:B:K in units of T_c")
    temps.add_argument("--temp", type=_temperatures,
                       help="absolute temperature(s), comma separated")
    p.set_defaults(func=_cmd_occupations, parser=p)

    p = sub.add_parser(
        "sticking",
        help="N_1/N_0 versus atom number at fixed condensate fraction, "
        "canonical and/or grand-canonical (closed forms while C*N < 2^53)",
        parents=[trap, out],
    )
    p.add_argument("--natoms", type=_natoms(many=True, minimum=1), required=True,
                   help="atom numbers, comma separated")
    p.add_argument("--n0-frac", type=_fraction, default=0.2,
                   help="target condensate fraction N_0/N")
    p.add_argument(
        "--ensemble", choices=("canonical", "grand", "both"), default="both"
    )
    p.add_argument(
        "--canonical-cap",
        type=_positive_int,
        default=DEFAULT_CANONICAL_CAP,
        help="largest N accepted for the O(N^2) canonical recursion",
    )
    p.set_defaults(func=_cmd_sticking, parser=p)

    p = sub.add_parser(
        "tph",
        help="crossover temperature T_ph (coherence length = cloud width) "
        "and N_0/N at the last bisection probe, within 0.5 %% of T_ph in T, "
        "versus atom number",
        parents=[trap, out],
    )
    p.add_argument("--natoms", type=_natoms(many=True, minimum=2), required=True,
                   help="atom numbers, comma separated")
    p.set_defaults(func=_cmd_tph, parser=p)

    p = sub.add_parser(
        "aspect",
        help="N_1/N_0 and N_2/N_0 versus trap aspect ratio omega_z/omega_perp "
        "at fixed N and condensate fraction",
        parents=[out],
    )
    p.add_argument("--natoms", type=_natoms(many=False, minimum=1), required=True,
                   help="atom number")
    p.add_argument("--n0-frac", type=_fraction, default=0.4,
                   help="target condensate fraction N_0/N")
    p.add_argument("--ratio-range", type=_sweep(log=True), required=True,
                   help="log-spaced aspect-ratio sweep A:B:K")
    p.add_argument(
        "--tph-markers",
        action="store_true",
        help="also compute T_ph per point and emit T_ph/omega columns (slow)",
    )
    p.set_defaults(func=_cmd_aspect, parser=p)

    p = sub.add_parser(
        "g1",
        help="mirror-point correlation g1(-x, x) and density along the softest "
        "axis at one state point, with FWHM footer",
        parents=[trap, out],
    )
    p.add_argument("--natoms", type=_natoms(many=False, minimum=1), required=True,
                   help="atom number")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--temp", type=_temperature, help="absolute temperature")
    point.add_argument("--n0-frac", type=_fraction, help="target condensate fraction N_0/N")
    p.add_argument("--cutoff-tol", type=_fraction, default=1e-10,
                   help="relative tail tolerance for truncating the softest axis' "
                   "quantum numbers")
    p.add_argument("--grid-extent", type=_positive, help="half-width of the spatial grid")
    p.add_argument("--grid-points", type=_odd_int, default=2001,
                   help="odd number of grid points")
    p.set_defaults(func=_cmd_g1, parser=p)

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    # a flag the subcommand does not own is refused with that subcommand's usage
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.workers = _worker_count(args.parser)
    try:
        text = "".join(args.func(args).lines)
    except BoseGasError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
    except OSError as err:
        args.parser.error(f"cannot write --out {args.out!r}: {err.strerror}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
