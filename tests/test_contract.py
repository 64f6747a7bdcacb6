"""The CLI contract over drawn inputs: every subcommand, run in-process on one
worker, exits 0, 2 or 3 and raises nothing else; exit 3 prints one `error:`
line, and exit 0 an empty stderr and condensate fractions in [0, 1].

Frequencies are drawn log-uniformly over the normal floats.  The Hermite
pass of g1 and of the T_ph probes has no work bound yet: it runs about
T/omega_min steps, so those draws keep omega_max/omega_min <= 10 and T/omega_min
either small or past the mode limit, where the cutoff refuses at once.
"""

import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bosegas.cli


def contract(examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=examples,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# every normal frequency and temperature; 10**e may round a hair below the
# smallest normal float, a usage error
frequencies = log_uniform(sys.float_info.min, 1e308)
temperatures = log_uniform(sys.float_info.min, 1.7e308)
# condensate fractions and tolerances near 0 and near 1
fractions = st.one_of(log_uniform(1e-300, 0.5), log_uniform(1e-16, 0.5).map(lambda d: 1.0 - d))
small_n = st.integers(1, 20)


def csv(values):
    return ",".join(repr(float(v)) for v in values)


@st.composite
def geometries(draw, spread=None):
    """--dim, --aspect-ratio or --omega; ``spread`` caps omega_max/omega_min."""
    if spread is None:
        kind = draw(st.sampled_from(["dim", "aspect", "omega"]))
        if kind == "dim":
            return ["--dim", str(draw(st.integers(1, 3)))]
        if kind == "aspect":
            return ["--aspect-ratio", repr(draw(frequencies))]
        return ["--omega", csv(draw(st.lists(frequencies, min_size=1, max_size=3)))]
    scale = draw(frequencies)
    ratios = draw(st.lists(st.floats(1.0, spread), min_size=1, max_size=3))
    return ["--omega", csv(scale * r for r in ratios)]


def run(argv, capsys):
    try:
        code = bosegas.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    if code == 3:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    if code == 0:
        assert err == "", (argv, err)
        header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        for name in ("n0_frac", "n0ph_frac"):
            if name in header:
                # a failed T_ph point reads nan, with its error's type as the status
                values = [float(row[header.index(name)]) for row in rows
                          if name == "n0_frac" or row[-1] == "ok"]
                assert all(0 <= v <= 1 for v in values), (argv, out)


@pytest.fixture
def one_worker(monkeypatch):
    monkeypatch.setenv("BOSE_THREADS", "1")


@contract(60)
@given(
    geometry=geometries(),
    n_atoms=st.integers(2, 20),
    temps=st.lists(temperatures, min_size=1, max_size=3),
    sweep=st.none() | st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.integers(2, 4)),
)
def test_occupations(one_worker, capsys, geometry, n_atoms, temps, sweep):
    argv = ["occupations", *geometry, "--natoms", str(n_atoms)]
    if sweep is None:
        argv += ["--temp", csv(temps)]
    else:
        argv += ["--t-over-tc", f"{sweep[0]!r}:{sweep[0] + sweep[1]!r}:{sweep[2]}"]
    run(argv, capsys)


@contract(60)
@given(
    geometry=geometries(),
    atoms=st.lists(small_n, min_size=1, max_size=3),
    fraction=fractions,
    ensemble=st.sampled_from(["canonical", "grand", "both"]),
)
def test_sticking(one_worker, capsys, geometry, atoms, fraction, ensemble):
    run(["sticking", *geometry, "--natoms", ",".join(map(str, atoms)),
         "--n0-frac", repr(fraction), "--ensemble", ensemble], capsys)


@contract(60)
@given(
    ratios=st.lists(frequencies, min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 3),
    n_atoms=small_n,
    fraction=fractions,
)
def test_aspect(one_worker, capsys, ratios, steps, n_atoms, fraction):
    run(["aspect", "--natoms", str(n_atoms), "--n0-frac", repr(fraction),
         "--ratio-range", f"{ratios[0]!r}:{ratios[1]!r}:{steps}"], capsys)


@contract(8)
@given(ratio=st.floats(0.1, 10.0), n_atoms=st.integers(1, 12))
def test_aspect_tph_markers(one_worker, capsys, ratio, n_atoms):
    run(["aspect", "--natoms", str(n_atoms), "--ratio-range", f"{ratio!r}:{ratio * 1.5!r}:2",
         "--tph-markers"], capsys)


@contract(15)
@given(geometry=geometries(spread=10.0), n_atoms=st.integers(1, 20))
def test_tph(one_worker, capsys, geometry, n_atoms):
    run(["tph", *geometry, "--natoms", str(n_atoms)], capsys)


@contract(80)
@given(
    geometry=geometries(spread=10.0),
    n_atoms=small_n,
    # T/omega_min up to 1e3, or from 1e10 on, where the cutoff passes the mode limit
    t_over_omega=st.none() | log_uniform(1e-6, 1e3) | log_uniform(1e10, 1e300),
    fraction=st.floats(0.05, 0.95) | fractions,
    tol=st.none() | fractions,
    # the grid's largest xi = extent * sqrt(omega_min)
    xi_max=st.none() | log_uniform(1e-3, 1e200),
    points=st.integers(1, 50).map(lambda k: 2 * k + 1),
)
def test_g1(one_worker, capsys, geometry, n_atoms, t_over_omega, fraction, tol, xi_max, points):
    omega_min = min(float(w) for w in geometry[1].split(","))
    argv = ["g1", *geometry, "--natoms", str(n_atoms), "--grid-points", str(points)]
    if t_over_omega is None:
        argv += ["--n0-frac", repr(fraction)]
    else:
        argv += ["--temp", repr(omega_min * t_over_omega)]
    if tol is not None:
        argv += ["--cutoff-tol", repr(tol)]
    if xi_max is not None:
        argv += ["--grid-extent", repr(xi_max / math.sqrt(omega_min))]
    run(argv, capsys)
