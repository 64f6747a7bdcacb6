import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import oracles

from bosegas import (
    ResourceLimitError,
    TrapGeometry,
    characteristic_temperature,
    enumerate_modes,
)
from bosegas.trap import _ZETA


class TestTrapGeometry:
    def test_isotropic(self):
        g = TrapGeometry.isotropic(2)
        assert g.omega == (1.0, 1.0)
        assert g.dimension == 2

    def test_aspect_ratio(self):
        g = TrapGeometry.from_aspect_ratio(0.1)
        assert g.omega == (1.0, 1.0, 0.1)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_aspect_ratio(self, ratio):
        with pytest.raises(ValueError):
            TrapGeometry.from_aspect_ratio(ratio)

    # a subnormal frequency would underflow the temperatures scaled by it
    @pytest.mark.parametrize("omega", [(), (1.0,) * 4, (1.0, -1.0), (1.0, 0.0), (1.0, 1e-310)])
    def test_invalid(self, omega):
        with pytest.raises(ValueError):
            TrapGeometry(omega)

    def test_geometric_mean(self):
        g = TrapGeometry((1.0, 1.0, 0.001))
        assert g.geometric_mean_frequency == pytest.approx(0.1)


class TestEnumerateModes:
    def test_counts(self):
        # level degeneracies: 1D one per level, 2D n+1, 3D (n+1)(n+2)/2
        cases = [(1, 5.0, 6), (2, 3.0, 10), (3, 2.0, 10)]
        for dim, e_max, expect in cases:
            q, e = enumerate_modes(TrapGeometry.isotropic(dim), e_max)
            assert q.shape == (expect, dim)
            assert np.all(e <= e_max + 1e-9)

    def test_sorted_by_energy_then_lex(self):
        g = TrapGeometry.isotropic(3)
        q, e = enumerate_modes(g, 3.0)
        assert np.all(np.diff(e) >= 0)
        for i in range(len(e) - 1):
            if e[i] == e[i + 1]:
                assert tuple(q[i]) < tuple(q[i + 1])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_level_degeneracy_binomial(self, dim):
        g = TrapGeometry.isotropic(dim)
        q, e = enumerate_modes(g, 8.0)
        levels = np.round(e).astype(int)
        for n in range(9):
            count = int(np.sum(levels == n))
            assert count == math.comb(n + dim - 1, dim - 1)

    def test_completeness_anisotropic(self):
        # full ordered output against a sorted brute-force product; the
        # energies use the same float expression, so near-degenerate ties
        # (e.g. (1, 0, 0) and (0, 0, 20) at omega_z = 0.05) break alike
        cases = [
            ((0.7, 1.3), 5.0),
            ((1.0, 1.0, 0.05), 3.0),
            ((1.416, 0.586, 0.757), 4.0),  # fixed random triple
        ]
        for omega, e_max in cases:
            q, e = enumerate_modes(TrapGeometry(omega), e_max)
            candidates = list(itertools.product(*(range(int(e_max / w) + 2) for w in omega)))
            energies = np.array(candidates, dtype=float) @ np.array(omega)
            expect = sorted(
                (energy, quanta)
                for energy, quanta in zip(energies.tolist(), candidates)
                if energy <= e_max
            )
            assert [tuple(row) for row in q.tolist()] == [quanta for _, quanta in expect]
            assert e.tolist() == [energy for energy, _ in expect]

    def test_mode_limit(self):
        # more than MODE_LIMIT modes in 1D, 2D and 3D; the check trips before
        # the last axis is allocated
        for dim, e_max in ((1, 2e7), (2, 5000.0), (3, 400.0)):
            with pytest.raises(ResourceLimitError):
                enumerate_modes(TrapGeometry.isotropic(dim), e_max)

    @pytest.mark.parametrize("e_max", [0.0, -1.0, math.nan])
    def test_nonpositive_cutoff(self, e_max):
        with pytest.raises(ValueError):
            enumerate_modes(TrapGeometry.isotropic(2), e_max)


@st.composite
def spectra(draw):
    """(omega, max_energy): isotropic 1-3D traps, whose levels are degenerate,
    and random 1-3D ones, with at most about 2e5 modes."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        omega = (1.0,) * dim
    else:
        omega = tuple(10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    max_energy = 10.0 ** draw(st.floats(-1.0, 3.0))
    assume(math.prod(max_energy / w + 1 for w in omega) <= 2e5 * math.factorial(dim))
    return omega, max_energy


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(spectra())
def test_modes_match_the_float_sort(point):
    # sorting the energies' bits as uint64 and gathering with take gives the
    # float stable sort's quanta and energies, bit for bit
    omega, max_energy = point
    q, e = enumerate_modes(TrapGeometry(omega), max_energy)
    q_ref, e_ref = oracles.enumerate_modes_float_sort(omega, max_energy)
    assert q.dtype == q_ref.dtype and np.array_equal(q, q_ref)
    assert e.tobytes() == e_ref.tobytes()


class TestSingleParticleZ:
    def test_1d_geometric_series(self):
        # beta = ln 2: sum of (1/2)^n = 2
        z = math.exp(TrapGeometry.isotropic(1).log_z1(math.log(2.0)))
        assert z == pytest.approx(2.0, rel=1e-14)

    def test_3d_factorizes(self):
        z = math.exp(TrapGeometry.isotropic(3).log_z1(math.log(2.0)))
        assert z == pytest.approx(8.0, rel=1e-13)

    def test_zero_temperature_limit(self):
        z = math.exp(TrapGeometry.isotropic(1).log_z1(500.0))
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            TrapGeometry.isotropic(1).log_z1(-1.0)

    def test_axis_factorization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            omega = tuple(rng.uniform(0.1, 3.0, size=3))
            beta = rng.uniform(0.01, 10.0)
            total = TrapGeometry(omega).log_z1(beta)
            per_axis = sum(TrapGeometry((w,)).log_z1(beta) for w in omega)
            assert total == pytest.approx(per_axis, rel=1e-13)

    def test_matches_truncated_mode_sum(self):
        # brute-force sum over enumerated modes with an analytic tail bound
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            omega = tuple(rng.uniform(0.5, 2.0, size=dim))
            beta = rng.uniform(0.5, 5.0)
            g = TrapGeometry(omega)
            w_min = min(omega)
            tol = 1e-12
            e_max = -math.log(tol * -math.expm1(-beta * w_min)) / beta + max(omega)
            q, e = enumerate_modes(g, e_max)
            brute = np.sum(np.exp(-beta * e))
            assert math.exp(g.log_z1(beta)) == pytest.approx(brute, rel=1e-10)

    def test_monotone_in_beta(self):
        g = TrapGeometry((0.6, 1.7))
        betas = np.geomspace(0.01, 10.0, 40)
        vals = g.log_z1(betas)
        assert np.all(np.diff(vals) < 0)

    def test_increasing_in_inverse_frequency(self):
        beta = 0.8
        z_soft = TrapGeometry((0.5,)).log_z1(beta)
        z_stiff = TrapGeometry((2.0,)).log_z1(beta)
        assert z_soft > z_stiff


@st.composite
def trap_frequencies(draw):
    """omega with a repeated frequency, half the time: isotropic 2D and 3D,
    (1, 1, r), the non-unit pairs (w, w, r) and (r, w, w), and the repeat
    (1, r, 1) that is not consecutive; else 1-3 random frequencies, one of
    them set to 1.0 at a drawn axis or none."""
    log_omega = st.floats(-5.0, 2.0)
    w, r = (10.0 ** draw(log_omega) for _ in range(2))
    if draw(st.booleans()):
        return draw(st.sampled_from([(1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, r), (w, w, r),
                                     (r, w, w), (1.0, r, 1.0)]))
    omega = [10.0 ** draw(log_omega) for _ in range(draw(st.integers(1, 3)))]
    unit = draw(st.integers(-1, len(omega) - 1))
    if unit >= 0:
        omega[unit] = 1.0
    return tuple(omega)


@st.composite
def traps_and_betas(draw):
    """(omega, scalar beta, array of betas) over the traps of trap_frequencies;
    the array runs j*beta over a stretch of j, then adds products beta*omega
    that underflow and ones at or past 40."""
    omega = draw(trap_frequencies())
    beta = 10.0 ** draw(st.floats(-8.0, 3.0))
    j0 = draw(st.integers(1, 10**6))
    j = np.arange(j0, j0 + draw(st.integers(1, 3000)), dtype=float)
    w_min, w_max = min(omega), max(omega)
    edges = np.array([5e-324, 1e-310, 1e-300 / w_max, 40.0 / w_min, 40.0 / w_max, 1e3 / w_min])
    return omega, beta, np.concatenate([j * beta, edges, edges * (1 + 2**-52)])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(traps_and_betas())
def test_log_z1_matches_the_outer_product_formula(point):
    # the axes added one by one, a repeated frequency's log reused and a unit
    # frequency's multiply skipped, give numpy's row sum of the (L, d) array,
    # bit for bit
    omega, beta, betas = point
    g = TrapGeometry(omega)
    with np.errstate(divide="ignore"):  # beta*omega that underflows gives ln 0
        assert g.log_z1(beta).hex() == oracles.log_z1_outer(omega, beta).hex()
        got, ref = g.log_z1(betas), oracles.log_z1_outer(omega, betas)
        for b in betas[-12:]:
            assert g.log_z1(b).hex() == oracles.log_z1_outer(omega, b).hex()
    assert [x.hex() for x in got] == [x.hex() for x in ref]


class TestCharacteristicTemperature:
    def test_1d(self):
        # direct high-precision evaluation of N/ln(2N)
        tc = characteristic_temperature(TrapGeometry.isotropic(1), 1000)
        assert tc == pytest.approx(131.56332492395188, rel=1e-12)

    def test_3d(self):
        tc = characteristic_temperature(TrapGeometry.isotropic(3), 1000)
        assert tc == pytest.approx(9.4049897025704055, rel=1e-12)

    def test_2d_formula_inversion(self):
        g = TrapGeometry.isotropic(2)
        tc = characteristic_temperature(g, 1000)
        # invert: T_c^2 * zeta(2) recovers N
        assert tc**2 * float(zeta(2)) == pytest.approx(1000.0, rel=1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zeta_constants(self, d):
        # the constants stand in for scipy.special.zeta, bit for bit
        assert _ZETA[d].hex() == float(zeta(d)).hex()

    def test_anisotropic_uses_geometric_mean(self):
        iso = characteristic_temperature(TrapGeometry.isotropic(3), 500)
        squeezed = characteristic_temperature(TrapGeometry((10.0, 1.0, 0.1)), 500)
        assert squeezed == pytest.approx(iso, rel=1e-13)

    def test_too_few_atoms(self):
        with pytest.raises(ValueError):
            characteristic_temperature(TrapGeometry.isotropic(1), 1)


class TestFiniteSpectrum:
    def test_log_z1(self):
        fs = oracles.FiniteSpectrum((0.0, 1.0))
        beta = math.log(2.0)
        assert math.exp(fs.log_z1(beta)) == pytest.approx(1.5, rel=1e-14)
