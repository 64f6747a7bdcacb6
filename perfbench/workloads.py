"""The benchmark's seeded workloads, their operations and their output checks.

An operation is one CLI command run in-process through ``bosegas.cli.main``
or one library call. Inputs are drawn stratified: a range is cut into equal
slices and each slice gets two antithetic points (offsets u and 1 - u), in a
fixed order. Every input moves with the seed while a run's total work barely
does, which keeps the run times of different seeds comparable.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass

WORKLOADS = ("canonical_sweep", "coherence_tph", "grand_fugacity")

# An operation that fails, or runs longer than this, is charged this many
# seconds. Each limit is at least three times the slowest operation of its
# workload run serially (BOSE_THREADS=1) on a 2-core x86 host: 4.2 s, 2.2 s
# and 0.17 s.
TIME_LIMIT = {"canonical_sweep": 15.0, "coherence_tph": 10.0, "grand_fugacity": 2.0}

# find_tph's own bisection tolerance on T_ph (relative).
TPH_REL_TOL = 5e-3
# N_0/N moves by at most 0.022 across a 2*TPH_REL_TOL temperature bracket
# around T_ph for the N used here (3D, N = 400 is the steepest).
TPH_FRACTION_TOL = 0.025
# solve_fugacity's default residual tolerance, relative to N.
FUGACITY_TOL = 1e-10
# Grid stride at which g1 and density profiles are kept for the reference.
PROFILE_STRIDE = 100


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects how it runs and is checked."""

    label: str
    kind: str
    args: tuple


class OpFailed(Exception):
    """The operation failed: nonzero exit, BoseGasError or a tph status."""


# ---------------------------------------------------------------------------
# input generation

def _design(rng, k):
    """2k sample points (stratum, offset): each of k strata twice, at offsets
    u and 1 - u, so a cost that varies smoothly within a stratum cancels to
    first order between the two points."""
    points = []
    for i in range(k):
        u = rng.random()
        points += [(i, u), (i, 1.0 - u)]
    return points


def _at(lo, hi, stratum, offset, k, log=False):
    """The point at ``offset`` in stratum ``stratum`` of k slices of [lo, hi]."""
    x = (stratum + offset) / k
    return lo * (hi / lo) ** x if log else lo + (hi - lo) * x


def _g(x):
    return format(x, ".6g")


def _canonical_sweep(rng):
    ops = []
    # the larger N goes with the larger C, so the two sweeps' summed cost is
    # nearly seed independent
    for i, w in _design(rng, 1):
        n, c = _at(800, 1600, i, w, 1), _at(0.2, 0.6, i, w, 1)
        lo, hi = 10.0 ** -_at(4.0, 4.5, i, w, 1), 10.0 ** _at(4.0, 4.5, i, 1 - w, 1)
        ops.append(Op("aspect", "aspect", (
            "aspect", "--natoms", str(round(n)), "--n0-frac", _g(c),
            "--ratio-range", f"{_g(lo)}:{_g(hi)}:8",
        )))
    design = _design(rng, 2)
    ops.append(Op("sticking", "sticking", (
        "sticking", "--dim", "3", "--ensemble", "canonical",
        "--natoms", ",".join(str(round(_at(400, 1600, i, w, 2))) for i, w in design),
        "--n0-frac", _g(_at(0.2, 0.6, 0, design[0][1], 1)),
    )))
    for i, w in _design(rng, 1):
        t_lo, t_hi = _at(0.1, 0.2, i, w, 1), _at(1.1, 1.3, i, 1 - w, 1)
        ops.append(Op("occupations", "occupations", (
            "occupations", "--dim", "3", "--natoms", str(round(_at(800, 1600, i, w, 1))),
            "--t-over-tc", f"{_g(t_lo)}:{_g(t_hi)}:16",
        )))
    return ops


def _coherence_tph(rng):
    ops = []
    for dim, lo, hi in ((1, 200, 800), (3, 100, 400)):
        # two commands of two points each, one small and one large N, so
        # each command keeps both workers busy for about the same time
        design = _design(rng, 2)
        natoms = [round(_at(lo, hi, i, w, 2)) for i, w in design]
        for pair in ((natoms[0], natoms[3]), (natoms[1], natoms[2])):
            ops.append(Op(f"tph_dim{dim}", "tph", (
                "tph", "--dim", str(dim), "--natoms", ",".join(map(str, pair)),
            )))
    for i, w in _design(rng, 1):
        ops.append(Op("g1", "g1", (
            "g1", "--aspect-ratio", _g(_at(0.1, 1.0, i, w, 1, log=True)),
            "--natoms", "600", "--n0-frac", _g(_at(0.4, 0.6, i, 1 - w, 1)),
        )))
    # the README library tour, fixed: fails with ResourceLimitError today
    ops.append(Op("readme_tour", "readme_tour", ()))
    return ops


def _grand_fugacity(rng):
    ops = []
    # N and T/T_c run in opposite directions: the series length grows with
    # T/omega_min, and pairing large N with small t keeps any one point from
    # dominating a run's time
    for dim, k in ((1, 4), (3, 3)):
        for i, w in _design(rng, k):
            n, t = _at(1e3, 1e6, i, w, k, log=True), _at(0.3, 1.2, k - 1 - i, 1 - w, k)
            ops.append(Op(f"solve_fugacity_dim{dim}", "solve_fugacity",
                          ((1.0,) * dim, float(round(n)), t)))
    # fixed stratum permutations, the same for every seed
    ratio_stratum, t_stratum = (2, 0, 3, 1), (1, 3, 0, 2)
    for i, w in _design(rng, 4):
        r = _at(1e-4, 1e-1, ratio_stratum[i], w, 4, log=True)
        n = _at(1e3, 1e6, i, w, 4, log=True)
        t = _at(0.3, 1.2, t_stratum[i], 1 - w, 4)
        ops.append(Op("solve_fugacity_cyl", "solve_fugacity",
                      ((1.0, 1.0, r), float(round(n)), t)))
    for i, w in _design(rng, 1):
        r = _at(1e-3, 1e-1, i, w, 1, log=True)
        for omega in ((1.0,), (1.0, 1.0, 1.0), (1.0, 1.0, r)):
            ops.append(Op("tff_gc_exact", "temperature_for_fraction_gc", (
                omega, float(round(_at(1e3, 1e6, i, w, 1, log=True))),
                _at(0.2, 0.6, i, 1 - w, 1),
            )))
    c = _at(0.1, 0.3, 0, rng.random(), 1)
    ops.append(Op("closed_form_sticking", "closed_form_sticking",
                  tuple((d, 10.0 ** e, c) for d in (1, 2, 3) for e in range(3, 16))))
    return ops


_GENERATORS = {
    "canonical_sweep": _canonical_sweep,
    "coherence_tph": _coherence_tph,
    "grand_fugacity": _grand_fugacity,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload``; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup_op(workload: str) -> Op:
    """A small operation of the workload's kind, run untimed before the passes."""
    if workload == "grand_fugacity":
        return Op("warmup", "solve_fugacity", ((1.0, 1.0, 1.0), 1000.0, 5.0))
    return Op("warmup", "occupations",
              ("occupations", "--dim", "3", "--natoms", "200", "--t-over-tc", "0.5:1:2"))


# ---------------------------------------------------------------------------
# running

def _run_cli(argv):
    import bosegas.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = bosegas.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    if code != 0:
        raise OpFailed(f"exit code {code}")
    meta, lines = {}, []
    for line in buf.getvalue().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            lines.append(line)
    rows = list(csv.DictReader(lines))
    for row in rows:
        if row.get("status", "ok") != "ok":
            raise OpFailed(f"tph status {row['status']} at N = {row['n_atoms']}")
    return {"meta": meta, "rows": rows}


def _readme_tour():
    import bosegas as bg

    trap = bg.TrapGeometry.from_aspect_ratio(0.05)
    spec = bg.occupation_spectrum(trap, bg.ThermalState(n_atoms=1000, temperature=20.0))
    profile = bg.g1_profile(spec, trap, bg.AxisGrid.symmetric(60.0, 2001, axis=2))
    return {"n0": spec.condensate_occupation, "g1": profile.g1,
            "coherence_length": profile.coherence_length,
            "cloud_width": profile.cloud_width}


def run_op(op: Op):
    """Run one operation and return its raw output; raise OpFailed on failure."""
    import bosegas as bg

    try:
        if op.kind == "readme_tour":
            return _readme_tour()
        if op.kind == "solve_fugacity":
            omega, n, t = op.args
            geo = bg.TrapGeometry(omega)
            return bg.solve_fugacity(geo, n, t * bg.characteristic_temperature(geo, int(n)))
        if op.kind == "temperature_for_fraction_gc":
            omega, n, c = op.args
            return bg.temperature_for_fraction_gc(bg.TrapGeometry(omega), n, c, mode="exact")
        if op.kind == "closed_form_sticking":
            return [bg.closed_form_sticking(*a) for a in op.args]
        return _run_cli(op.args)
    except bg.BoseGasError as err:
        raise OpFailed(type(err).__name__) from err


# ---------------------------------------------------------------------------
# checks

def _col(out, name):
    return [float(r[name]) for r in out["rows"]]


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _residual(state):
    import bosegas as bg

    n = bg.atom_number(state.geometry, state.fugacity, state.temperature,
                       tol=1e-14, one_minus_z=state.one_minus_fugacity)
    return abs(n - state.n_atoms_target)


def check(op: Op, out) -> list[str]:
    """Invariants of one operation's output that hold for every seed."""
    bad = []
    k = op.kind
    if k == "aspect":
        c = float(_argv_value(op.args, "--n0-frac"))
        if any(abs(f - c) > 1e-9 for f in _col(out, "n0_frac")):
            bad.append("n0_frac differs from the target by more than 1e-9")
        for s1, s2 in zip(_col(out, "n1_over_n0"), _col(out, "n2_over_n0")):
            if not 0.0 < s2 <= s1 <= 1.0:
                bad.append(f"need 0 < N2/N0 <= N1/N0 <= 1, got {s2}, {s1}")
    elif k == "sticking":
        if not all(0.0 < s <= 1.0 for s in _col(out, "n1_over_n0")):
            bad.append("N1/N0 outside (0, 1]")
    elif k == "occupations":
        n0 = _col(out, "n0_frac")
        if any(b > a for a, b in zip(n0, n0[1:])):
            bad.append("n0_frac is not monotone in T")
        if not all(0.0 < s <= 1.0 for s in _col(out, "n1_over_n0")):
            bad.append("N1/N0 outside (0, 1]")
    elif k == "tph":
        for t, f in zip(_col(out, "tph_over_tc"), _col(out, "n0ph_frac")):
            if not (0.0 < t < math.inf and 0.0 < f < 1.0):
                bad.append(f"tph row out of range: {t}, {f}")
    elif k in ("g1", "readme_tour"):
        if k == "g1":
            g1 = _col(out, "g1")
            widths = [float(out["meta"][w]) for w in ("coherence_length", "cloud_width")]
        else:
            g1 = out["g1"]
            widths = [out["coherence_length"], out["cloud_width"]]
        if max(abs(g) for g in g1) > 1.0 + 1e-12:
            bad.append("|g1| exceeds 1")
        if not all(0.0 < w < math.inf for w in widths):
            bad.append(f"FWHM not finite: {widths}")
    elif k == "solve_fugacity":
        res = _residual(out)
        if not (0.0 < out.fugacity < 1.0 and res <= FUGACITY_TOL * out.n_atoms_target):
            bad.append(f"atom_number residual {res:.3e} above tol*N")
    elif k == "temperature_for_fraction_gc":
        res = _residual(out)
        if not (out.temperature > 0 and res <= 1e-9 * out.n_atoms_target):
            bad.append(f"atom_number residual {res:.3e} above 1e-9*N")
    elif k == "closed_form_sticking":
        if not all(0.0 < s < 1.0 for s in out):
            bad.append("closed-form N1/N0 outside (0, 1)")
    return bad


# (absolute, relative) tolerance of each reference quantity, from the solver
# that produced it; see NOTES.md.
TOLERANCE = {
    "aspect": {"n0_frac": (1e-9, 0.0), "n1_over_n0": (0.0, 1e-9), "n2_over_n0": (0.0, 1e-9)},
    "sticking": {"n1_over_n0": (0.0, 1e-9)},
    "occupations": {"n0_frac": (1e-12, 1e-9), "n1_frac": (1e-12, 1e-9),
                    "n1_over_n0": (1e-12, 1e-9)},
    "tph": {"tph_over_tc": (0.0, TPH_REL_TOL), "n0ph_frac": (TPH_FRACTION_TOL, 0.0)},
    "g1": {"g1": (1e-9, 0.0), "density": (1e-12, 1e-9),
           "coherence_length": (0.0, 1e-9), "cloud_width": (0.0, 1e-9)},
    "readme_tour": {"n0": (0.0, 1e-9), "coherence_length": (0.0, 1e-9),
                    "cloud_width": (0.0, 1e-9)},
    # |dN0| <= |dN| <= 2 tol N for two solutions that each meet the residual
    "solve_fugacity": {"n0_over_n": (2 * FUGACITY_TOL, 0.0)},
    "temperature_for_fraction_gc": {"temperature": (0.0, 1e-9)},
    "closed_form_sticking": {"n1_over_n0": (0.0, 1e-12)},
}


def values(op: Op, out) -> dict[str, list[float]]:
    """The quantities of an output compared across passes and against the reference."""
    k = op.kind
    if k == "g1":
        vals = {c: _col(out, c)[::PROFILE_STRIDE] for c in ("g1", "density")}
        vals.update({w: [float(out["meta"][w])] for w in ("coherence_length", "cloud_width")})
        return vals
    if k == "readme_tour":
        return {c: [out[c]] for c in ("n0", "coherence_length", "cloud_width")}
    if k == "solve_fugacity":
        return {"n0_over_n": [out.condensate_number / out.n_atoms_target]}
    if k == "temperature_for_fraction_gc":
        return {"temperature": [out.temperature]}
    if k == "closed_form_sticking":
        return {"n1_over_n0": list(out)}
    return {c: _col(out, c) for c in TOLERANCE[k]}


def compare(op: Op, got: dict, ref: dict) -> list[str]:
    """Differences between ``got`` and reference values beyond TOLERANCE."""
    bad = []
    for name, (atol, rtol) in TOLERANCE[op.kind].items():
        a, b = got.get(name, []), ref.get(name, [])
        if len(a) != len(b):
            bad.append(f"{name}: {len(a)} values, reference has {len(b)}")
            continue
        for x, y in zip(a, b):
            if not abs(x - y) <= atol + rtol * abs(y):
                bad.append(f"{name}: {x!r} vs reference {y!r}")
                break
    return bad
