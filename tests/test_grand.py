import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import bosegas.grand
import oracles
from bosegas import (
    GrandCanonicalState,
    NumericalError,
    TrapGeometry,
    atom_number,
    characteristic_temperature,
    closed_form_sticking,
    enumerate_modes,
    solve_fugacity,
    sticking_ratio_gc,
    temperature_for_fraction_gc,
)


def gc_state(z, temperature, geometry):
    """A grand-canonical state at a given fugacity, bypassing the N solve."""
    return GrandCanonicalState(z, 1.0 - z, temperature, geometry, z / (1.0 - z))


class TestAtomNumber:
    def test_small_fugacity_limit(self):
        g = TrapGeometry.isotropic(1)
        n = atom_number(g, 1e-12, 1.0)
        assert n == pytest.approx(0.0, abs=1e-10)

    def test_frozen_gas_limit(self):
        # T -> 0 at z = 0.5: only the condensate term z/(1-z) = 1 survives
        g = TrapGeometry.isotropic(3)
        assert atom_number(g, 0.5, 1e-3) == pytest.approx(1.0, rel=1e-12)

    def test_zero_tol_ends_at_the_last_nonzero_term(self):
        # every term past the dead index is an exact zero, so tol = 0 gives
        # the default tol's bits instead of running to the term cap
        g = TrapGeometry.isotropic(3)
        for tol in (1e-12, 0.0):
            assert atom_number(g, 0.5, 1.0, tol=tol).hex() == "0x1.52171ddedf276p+1"

    def test_monotone_in_fugacity(self):
        g = TrapGeometry((0.7, 1.4))
        zs = np.linspace(0.05, 0.95, 12)
        ns = [atom_number(g, z, 3.0) for z in zs]
        assert np.all(np.diff(ns) > 0)

    def test_monotone_in_temperature(self):
        g = TrapGeometry.isotropic(2)
        ts = np.geomspace(0.5, 50.0, 10)
        ns = [atom_number(g, 0.8, t) for t in ts]
        assert np.all(np.diff(ns) > 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_mode_sum(self, seed):
        # independent route: enumerate modes and sum z*e^-be/(1 - z*e^-be)
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        omega = tuple(rng.uniform(0.6, 1.8, size=dim))
        z = float(rng.uniform(0.2, 0.9))
        t = float(rng.uniform(1.0, 6.0))
        g = TrapGeometry(omega)
        e_max = t * math.log(1e18)
        _, energies = enumerate_modes(g, e_max)
        x = z * np.exp(-energies / t)
        direct = float(np.sum(x / (1.0 - x)))
        assert atom_number(g, z, t) == pytest.approx(direct, rel=1e-10)

    def test_series_cap(self, monkeypatch):
        # the series would end after about 18 chunks; capped at two it raises
        monkeypatch.setattr(bosegas.grand, "_SERIES_MAX_TERMS", 2 * bosegas.grand._SERIES_CHUNK)
        with pytest.raises(NumericalError, match="did not converge"):
            atom_number(TrapGeometry((1e-5,)), 1.0 - 1e-12, 1.0, one_minus_z=1e-12)

    def test_non_finite_sum_raises_at_once(self):
        # beta*omega underflows to 0: ln Z_1 = inf on every term, and the sum
        # would otherwise run all _SERIES_MAX_TERMS terms before it raised
        start = time.perf_counter()
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="series sum is"):
            atom_number(TrapGeometry((1e-20,)), 0.5, 1e308)
        assert time.perf_counter() - start < 2.0

    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            atom_number(g, 0.0, 1.0)
        with pytest.raises(ValueError):
            atom_number(g, 1.0, 1.0)
        with pytest.raises(ValueError):
            atom_number(g, 0.5, -1.0)


@st.composite
def series_points(draw):
    """(geometry, z, T, 1 - z), series of <= 4 chunks, over traps with a
    repeated frequency, isotropic(3), (1, 1, r), (w, w, r) and (1, r, 1),
    and 1-3D random ones, one axis set to 1.0 or none."""
    log_omega = st.floats(-3.0, 1.0)
    w, r = (10.0 ** draw(log_omega) for _ in range(2))
    if draw(st.booleans()):
        omega = draw(st.sampled_from([(1.0, 1.0, 1.0), (1.0, 1.0, r), (w, w, r), (1.0, r, 1.0)]))
    else:
        omega = [10.0 ** draw(log_omega) for _ in range(draw(st.integers(1, 3)))]
        unit = draw(st.integers(-1, len(omega) - 1))
        if unit >= 0:
            omega[unit] = 1.0
    geometry = TrapGeometry(tuple(omega))
    one_minus_z = 10.0 ** draw(st.floats(-15.0, math.log10(0.999)))
    temperature = 10.0 ** draw(st.floats(math.log10(0.03), math.log10(300.0)))
    # the terms decay as (z exp(-beta*omega_min))^j
    terms = 30.0 / (geometry.min_frequency / temperature + one_minus_z)
    assume(terms <= 4 * bosegas.grand._SERIES_CHUNK)
    return geometry, 1.0 - one_minus_z, temperature, one_minus_z


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(series_points())
def test_skipping_zero_terms_is_bit_identical(point):
    geometry, z, temperature, one_minus_z = point
    n = atom_number(geometry, z, temperature, one_minus_z=one_minus_z)
    ref = oracles.atom_number_full_chunks(geometry, z, temperature, one_minus_z=one_minus_z)
    assert n.hex() == ref.hex()


def test_kept_factors_serve_calls_in_any_order():
    # a kept chunk grown by a short call is extended by a longer one, chunks
    # past the cap are recomputed, and a new T drops the kept factors
    g = TrapGeometry((1.0, 1.0, 1e-3))
    series = bosegas.grand._Series(g, 2)
    for temperature, one_minus_z in [(5.0, 0.1), (5.0, 1e-6), (5.0, 1e-3), (7.0, 1e-6),
                                     (5.0, 1e-5)]:
        z = 1.0 - one_minus_z
        n = series.atom_number(z, temperature, one_minus_z=one_minus_z)
        ref = oracles.atom_number_full_chunks(g, z, temperature, one_minus_z=one_minus_z)
        assert n.hex() == ref.hex()


@st.composite
def series_calls(draw):
    """Calls (T, 1 - z) on the trap (1, 1, 1e-3) at three temperatures, so a T
    comes back after another.  A series ends inside its first chunk for
    1 - z >~ 0.01, and within 40 T/omega_min terms: 1.8 chunks at T = 3, 4.3 at
    T = 7, past a cap of two."""
    return draw(st.lists(st.tuples(st.sampled_from([3.0, 5.0, 7.0]),
                                   st.floats(-7.0, -0.5).map(lambda e: 10.0 ** e)),
                         min_size=2, max_size=8))


@pytest.mark.parametrize("cap", [0, 1, 2])
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(calls=series_calls())
def test_factor_store_serves_any_call_sequence(cap, calls):
    g = TrapGeometry((1.0, 1.0, 1e-3))
    series = bosegas.grand._Series(g, cap)
    for temperature, one_minus_z in calls:
        z = 1.0 - one_minus_z
        n = series.atom_number(z, temperature, one_minus_z=one_minus_z)
        ref = oracles.atom_number_full_chunks(g, z, temperature, one_minus_z=one_minus_z)
        assert n.hex() == ref.hex()


def test_shared_ramp_gives_every_chunks_j():
    # ramp + (j0 - 1) has the bits of the chunk's j at the first chunk, a
    # middle one and the last one the series reaches, and no call can write it
    chunk = bosegas.grand._SERIES_CHUNK
    last = bosegas.grand._SERIES_MAX_TERMS // chunk * chunk + 1
    ramp = bosegas.grand._ramp()
    for j0 in (1, last // 2 // chunk * chunk + 1, last):
        j = np.arange(j0, j0 + chunk, dtype=float)
        assert (ramp + (j0 - 1)).tobytes() == j.tobytes()
    assert not ramp.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ramp[0] = 0.0


def test_numpy_rounds_the_skipped_terms_to_zero():
    # what atom_number's exact-zero index relies on, for the installed numpy
    assert np.all(np.exp(np.linspace(-800.0, -745.2, 100_001)) == 0.0)
    x = np.concatenate([np.linspace(40.0, 1e3, 100_001), [1e4, 1e100, 1e308, np.inf]])
    assert np.all(np.expm1(-x) == -1.0)
    assert np.all(np.log(-np.expm1(-x)) == 0.0)


@st.composite
def bound_points(draw):
    """(geometry, T): 1-3D traps with omega in [0.05, 5] and beta*omega_min in [1e-3, 2]."""
    omega = tuple(draw(st.floats(0.05, 5.0)) for _ in range(draw(st.integers(1, 3))))
    beta_omega = 10.0 ** draw(st.floats(-3.0, math.log10(2.0)))
    return TrapGeometry(omega), min(omega) / beta_omega


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(bound_points(), st.sampled_from([-4.0, 0.0, 3.0, 12.0, 35.0]))
def test_excited_part_stays_below_its_bound(point, u):
    # what solve_fugacity's refusal above N ~ 2^53 rests on
    geometry, temperature = point
    z, one_minus_z = bosegas.grand._fugacity(u)
    excited = atom_number(geometry, z, temperature, one_minus_z=one_minus_z) - z / one_minus_z
    assert excited <= bosegas.grand._excited_bound(geometry, temperature, u)


class TestSolveFugacity:
    def test_cold_limit_condensate_only(self):
        # at very low T the excited sum vanishes: z/(1-z) = N
        g = TrapGeometry.isotropic(1)
        state = solve_fugacity(g, 50.0, 1e-2)
        assert state.fugacity == pytest.approx(50.0 / 51.0, rel=1e-10)
        assert state.condensate_number == pytest.approx(50.0, rel=1e-8)

    def test_self_consistency_large_n(self):
        g = TrapGeometry.isotropic(1)
        state = solve_fugacity(g, 1e6, 5e4)
        n_back = atom_number(
            g, state.fugacity, 5e4, one_minus_z=state.one_minus_fugacity
        )
        assert n_back == pytest.approx(1e6, rel=1e-4)

    def test_one_minus_fugacity_consistent(self):
        g = TrapGeometry.isotropic(2)
        state = solve_fugacity(g, 500.0, 10.0)
        assert state.fugacity + state.one_minus_fugacity == pytest.approx(1.0, abs=1e-14)

    def test_hotter_means_smaller_fugacity(self):
        g = TrapGeometry.isotropic(3)
        z_cold = solve_fugacity(g, 1000.0, 5.0).fugacity
        z_hot = solve_fugacity(g, 1000.0, 15.0).fugacity
        assert z_hot < z_cold

    def test_invalid_n(self):
        for n, t in [(-5.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (100.0, 0.0)]:
            with pytest.raises(ValueError):
                solve_fugacity(TrapGeometry.isotropic(1), n, t)
        # above about N = 2^53 z rounds to 1 at u = ln N; a cold gas's root lies
        # even closer to 1, so the walk up from below reaches z = 1 first
        g = TrapGeometry.isotropic(3)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="within 6.3e-16 of z = 1"):
            solve_fugacity(g, 1e16, 0.5 * characteristic_temperature(g, 1e16))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("n, fugacity", [(1e16, 0.1474135680904607),
                                             (1e20, 0.147414088405933)])
    def test_hot_gas_above_2_to_53(self, n, fugacity):
        # z = 1/(1 + 1/N) rounds to 1, but at 2 T_c the root z is far below it
        g = TrapGeometry.isotropic(3)
        t = 2.0 * characteristic_temperature(g, n)
        start = time.perf_counter()
        state = solve_fugacity(g, n, t)
        assert time.perf_counter() - start < 2.0
        assert state.fugacity == pytest.approx(fugacity, rel=1e-12)
        n_back = atom_number(g, state.fugacity, t, one_minus_z=state.one_minus_fugacity)
        assert abs(n_back - n) <= 1e-10 * n

    @pytest.mark.parametrize("dimension, n", [(1, 1e16), (2, 1e16), (3, 1e16), (3, 1e20)])
    def test_cold_gas_above_2_to_53_refused_at_once(self, dimension, n):
        # N exceeds the closed-form bound on N(u = 35), so no probe is summed
        g = TrapGeometry.isotropic(dimension)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="within 6.3e-16 of z = 1"):
            solve_fugacity(g, n, 0.5 * characteristic_temperature(g, n))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("dimension, n, temperature, fugacity, one_minus_fugacity", [
        # hot gases above 2^53, at 2 T_c
        (3, 1e16, None, "0x1.2de72a2f7b490p-3", "0x1.b4863574212ddp-1"),
        (3, 1e20, None, "0x1.2de770056294bp-3", "0x1.b48623fea75adp-1"),
        (2, 1e16, None, "0x1.7abe45a104e4dp-2", "0x1.42a0dd2f7d8dap-1"),
        # just below the edge where z rounds to 1 at u = ln N: the ln N start
        # nudges the bracket end onto z = 1.0, and the root is z = 1 - 2^-52
        (3, 9007190430814945.0, 0.01, "0x1.ffffffffffffep-1", "0x1.0000106f94774p-53"),
        (3, 9007190430814945.0, 1.0, "0x1.ffffffffffffep-1", "0x1.0000106f94774p-53"),
    ])
    def test_roots_keep_their_bits(self, dimension, n, temperature, fugacity,
                                   one_minus_fugacity):
        g = TrapGeometry.isotropic(dimension)
        if temperature is None:
            temperature = 2.0 * characteristic_temperature(g, n)
        state = solve_fugacity(g, n, temperature)
        assert state.fugacity.hex() == fugacity
        assert state.one_minus_fugacity.hex() == one_minus_fugacity

    def test_bracket_from_below_fails(self, monkeypatch):
        # N(z) that never falls below the target: the walk down stops where the
        # logistic map's exp(-u) would overflow, with a typed error
        monkeypatch.setattr(bosegas.grand._Series, "atom_number", lambda *args, **kwargs: 200.0)
        with pytest.raises(NumericalError, match="failed to bracket the fugacity from below"):
            solve_fugacity(TrapGeometry.isotropic(1), 100.0, 1.0)

    def test_residual_check(self, monkeypatch):
        # a step at z = 1/2 leaves |N(z) - N| = 1 at the root, above 1e-10 N
        def step(series, z, temperature, tol=1e-12, one_minus_z=None):
            return 999.0 if z < 0.5 else 1001.0

        monkeypatch.setattr(bosegas.grand._Series, "atom_number", step)
        with pytest.raises(NumericalError, match="fugacity solve residual"):
            solve_fugacity(TrapGeometry.isotropic(1), 1000.0, 1.0)


class TestTemperatureForFraction:
    def test_fugacity_from_condensate_constraint(self):
        state = temperature_for_fraction_gc(TrapGeometry.isotropic(3), 1000, 0.4)
        assert state.fugacity == pytest.approx(400.0 / 401.0, rel=1e-14)
        assert state.one_minus_fugacity == pytest.approx(1.0 / 401.0, rel=1e-14)

    def test_closed_form_values(self):
        # 1D: T = N(1-C)/ln(CN+1); 2D/3D: T = (N(1-C)/zeta(D))^(1/D)
        cases = [
            (1, 150.84933147711228),
            (2, 22.05315581687168),
            (3, 8.7308190367387929),
        ]
        for dim, expect in cases:
            state = temperature_for_fraction_gc(TrapGeometry.isotropic(dim), 1000, 0.2)
            assert state.temperature == pytest.approx(expect, rel=1e-12)

    def test_closed_2d_formula(self):
        state = temperature_for_fraction_gc(TrapGeometry.isotropic(2), 1000, 0.2)
        assert state.temperature == pytest.approx(
            math.sqrt(800.0 / float(zeta(2))), rel=1e-13
        )

    def test_exact_mode_solves_constraint(self):
        g = TrapGeometry.isotropic(3)
        state = temperature_for_fraction_gc(g, 1e4, 0.2, mode="exact")
        n_back = atom_number(
            g,
            state.fugacity,
            state.temperature,
            one_minus_z=state.one_minus_fugacity,
        )
        assert n_back == pytest.approx(1e4, rel=1e-8)

    # each root lies outside the first bracket [0.3 t0, 3 t0], so the exact
    # solve walks t_lo down (root at 0.10 t0) or t_hi up (root at 3.36 t0)
    @pytest.mark.parametrize("omega, fraction", [((1.0, 1.0, 0.01), 0.5), ((1.0,), 0.9)],
                             ids=["t_lo_walks_down", "t_hi_walks_up"])
    def test_exact_mode_walks_the_bracket(self, omega, fraction):
        g = TrapGeometry(omega)
        t0 = temperature_for_fraction_gc(g, 2, fraction).temperature
        state = temperature_for_fraction_gc(g, 2, fraction, mode="exact")
        assert not 0.3 * t0 <= state.temperature <= 3.0 * t0
        n_back = atom_number(
            g, state.fugacity, state.temperature, one_minus_z=state.one_minus_fugacity
        )
        assert abs(n_back - 2) <= 1e-9 * 2

    def test_closed_vs_exact_converge(self):
        # thermodynamic-limit formula within 1% of the exact solve at N = 1e6
        g = TrapGeometry.isotropic(3)
        t_closed = temperature_for_fraction_gc(g, 1e6, 0.2, mode="closed").temperature
        t_exact = temperature_for_fraction_gc(g, 1e6, 0.2, mode="exact").temperature
        assert abs(t_closed / t_exact - 1.0) < 0.01

    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            temperature_for_fraction_gc(g, 100, 1.2)
        with pytest.raises(ValueError):
            temperature_for_fraction_gc(g, 100, 0.5, mode="bogus")
        # C*N >= 2^53 rounds z = CN/(1+CN) to exactly 1
        with pytest.raises(NumericalError):
            temperature_for_fraction_gc(g, 5e16, 0.2)
        for mode in ("closed", "exact"):
            for n in (0, -10, math.nan, math.inf):
                with pytest.raises(ValueError):
                    temperature_for_fraction_gc(g, n, 0.2, mode=mode)


@pytest.mark.parametrize("solve", [
    lambda: solve_fugacity(TrapGeometry.isotropic(3), 1e5, 30.0),
    lambda: temperature_for_fraction_gc(TrapGeometry.isotropic(1), 1e4, 0.3, mode="exact"),
], ids=["solve_fugacity", "temperature_for_fraction_gc"])
def test_each_probe_summed_once(monkeypatch, solve):
    summed = []
    original = bosegas.grand._Series.atom_number

    def recording(series, z, temperature, tol=1e-12, one_minus_z=None):
        summed.append((z, temperature, one_minus_z))
        return original(series, z, temperature, tol=tol, one_minus_z=one_minus_z)

    monkeypatch.setattr(bosegas.grand._Series, "atom_number", recording)
    solve()
    assert summed
    assert len(summed) == len(set(summed))


def _solve_points():
    """Fugacity solves (omega, N, T/T_c) and exact T solves (omega, N, N_0/N):
    fixed points whose probes run to 18 chunks, and seeded draws."""
    fugacity = [((1.0,), 1e6, 0.3), ((1.0,), 739_986, 0.3392),
                ((1.0, 1.0, 2.405e-3), 760_675, 0.7856), ((1.0, 1.0, 1e-4), 1e6, 1.2),
                ((1.0, 1.0, 1e-4), 3e5, 0.5), ((0.7, 1.3), 1e5, 0.9)]
    temperature = [((1.0,), 417_135, 0.2506), ((1.0, 1.0, 1e-4), 3e4, 0.3)]
    rng = np.random.default_rng(2012)
    for _ in range(4):
        omega = (1.0, 1.0, 10.0 ** rng.uniform(-4.0, -1.0))
        fugacity.append((omega, round(10.0 ** rng.uniform(3.0, 6.0)), rng.uniform(0.3, 1.2)))
        temperature.append((omega, round(10.0 ** rng.uniform(3.0, 5.0)), rng.uniform(0.2, 0.6)))
    return fugacity, temperature


def _solve_all():
    fugacity, temperature = _solve_points()
    out = []
    for omega, n, t_rel in fugacity:
        g = TrapGeometry(omega)
        state = solve_fugacity(g, n, t_rel * characteristic_temperature(g, n))
        out += [state.fugacity.hex(), state.one_minus_fugacity.hex()]
    for omega, n, c in temperature:
        state = temperature_for_fraction_gc(TrapGeometry(omega), n, c, mode="exact")
        out.append(state.temperature.hex())
    return out


@pytest.fixture(scope="module")
def oracle_solves():
    """_solve_all with every probe summed by the oracle series."""
    def probe(series, z, temperature, tol=1e-12, one_minus_z=None):
        return oracles.atom_number_full_chunks(
            TrapGeometry(series.omega), z, temperature, tol, one_minus_z)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bosegas.grand._Series, "atom_number", probe)
        return _solve_all()


@pytest.mark.parametrize("max_chunks", [bosegas.grand._TABLE_MAX_CHUNKS, 1],
                         ids=["default_cap", "one_chunk_kept"])
def test_solves_are_bit_identical_to_oracle_probes(monkeypatch, oracle_solves, max_chunks):
    # kept factor chunks, recomputed chunks past the cap and the per-call
    # chunks of the T solve all give the oracle's z, 1 - z and T
    monkeypatch.setattr(bosegas.grand, "_TABLE_MAX_CHUNKS", max_chunks)
    chunks = []
    original = bosegas.grand._Series._chunk_factors

    def recording(series, j0, *args):
        chunks.append(j0 // bosegas.grand._SERIES_CHUNK)
        return original(series, j0, *args)

    monkeypatch.setattr(bosegas.grand._Series, "_chunk_factors", recording)
    assert _solve_all() == oracle_solves
    assert max(chunks) > bosegas.grand._TABLE_MAX_CHUNKS


class TestStickingRatio:
    def test_boltzmann_limit(self):
        # z -> 0: ratio -> exp(-eps/T) exactly
        r = sticking_ratio_gc(gc_state(1e-8, 2.0, TrapGeometry.isotropic(1)))
        assert r == pytest.approx(math.exp(-0.5), rel=1e-6)

    def test_matches_occupation_quotient(self):
        # against the raw per-mode occupations n_eps = x/(1-x)
        g = TrapGeometry((0.8, 1.5))
        z, t = 0.97, 4.0
        eps = g.min_frequency
        x = z * math.exp(-eps / t)
        expect = (x / (1.0 - x)) / (z / (1.0 - z))
        assert sticking_ratio_gc(gc_state(z, t, g)) == pytest.approx(expect, rel=1e-12)

    def test_scale_invariance(self):
        # scaling omega and T together leaves the ratio unchanged
        r1 = sticking_ratio_gc(gc_state(0.9, 3.0, TrapGeometry((1.0, 0.4))))
        r2 = sticking_ratio_gc(gc_state(0.9, 3.0 * 2.3, TrapGeometry((2.3, 0.4 * 2.3))))
        assert r1 == pytest.approx(r2, rel=1e-13)

    def test_state_wrapper(self):
        # the state's explicit 1 - z is used, not 1 - fugacity recomputed
        state = temperature_for_fraction_gc(TrapGeometry.isotropic(2), 1000, 0.3)
        x = state.fugacity * math.exp(-1.0 / state.temperature)
        expect = (x / (1.0 - x)) * state.one_minus_fugacity / state.fugacity
        assert sticking_ratio_gc(state) == pytest.approx(expect, rel=1e-12)

    def test_frozen_closed_form_values(self):
        # high-precision references for N = 1000, C = 0.2
        cases = [
            (1, 0.42792068758802637),
            (2, 0.09686031347745443),
            (3, 0.03938227604287086),
        ]
        for dim, expect in cases:
            assert closed_form_sticking(dim, 1000, 0.2) == pytest.approx(expect, rel=1e-6)

    def test_huge_n_stays_finite(self):
        # 1 - z carried explicitly keeps N = 1e15 representable
        r = closed_form_sticking(1, 1e15, 0.2)
        assert 0.0 < r < 1.0
        assert r > 0.1

    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            gc_state(1.5, 1.0, g)
        with pytest.raises(ValueError):
            gc_state(0.5, -1.0, g)


class TestAsymptoticScaling:
    def test_2d_slope(self):
        slope = oracles.sticking_slope(2, np.geomspace(1e8, 1e12, 5))
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_3d_slope(self):
        slope = oracles.sticking_slope(3, np.geomspace(1e8, 1e12, 5))
        assert slope == pytest.approx(-2.0 / 3.0, abs=0.01)

    def test_1d_log_law(self):
        drift = oracles.log_law_drift(np.geomspace(1e10, 1e15, 6))
        assert drift < 0.02


class TestGrandCanonicalState:
    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            GrandCanonicalState(1.2, -0.2, 1.0, g, 10.0)
        with pytest.raises(ValueError):
            GrandCanonicalState(0.5, -0.5, 1.0, g, 10.0)
