import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import eval_hermite, factorial

from bosegas import (
    AxisGrid,
    BracketError,
    GridExtentError,
    OccupationSpectrum,
    ThermalState,
    TrapGeometry,
    characteristic_temperature,
    find_tph,
    fwhm,
    g1_curve,
    g1_profile,
    mode_function,
    occupation_spectrum,
)
from bosegas.coherence import coherence_vs_width, default_extent


def hermite_mode(k, x):
    """Reference oscillator eigenfunction via scipy's physicists' Hermite."""
    norm = 1.0 / math.sqrt(2.0**k * float(factorial(k)) * math.sqrt(math.pi))
    return norm * eval_hermite(k, x) * np.exp(-0.5 * x * x)


def condensate_spectrum(geometry, n_atoms, k_excited=6):
    """Injected spectrum with every atom in the ground mode."""
    dim = geometry.dimension
    quanta = np.zeros((k_excited + 1, dim), dtype=np.int32)
    quanta[:, 0] = np.arange(k_excited + 1)
    energies = quanta[:, 0] * geometry.omega[0]
    occ = np.zeros(k_excited + 1)
    occ[0] = n_atoms
    return OccupationSpectrum(
        quanta=quanta,
        energies=energies.astype(float),
        occupations=occ,
        n_atoms=n_atoms,
        captured_fraction=1.0,
    )


class TestAxisGrid:
    def test_symmetric_pairs(self):
        grid = AxisGrid.symmetric(4.0, 9)
        assert grid.points.shape == (9,)
        assert grid.points[grid.center] == 0.0
        assert np.array_equal(grid.points, -grid.points[::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisGrid.symmetric(-1.0, 9)
        with pytest.raises(ValueError):
            AxisGrid.symmetric(1.0, 10)  # even count has no center point


class TestModeFunction:
    def test_ground_state_at_origin(self):
        assert mode_function(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)

    def test_value_at_origin(self):
        # phi_k(0)^2 = C(k, k/2) / (2^k sqrt(pi)) for even k, 0 for odd k;
        # g1_curve weights the transverse modes by these values
        for k in range(0, 401, 2):
            exact = math.comb(k, k // 2) / 2**k / math.sqrt(math.pi)
            assert mode_function(k, 0.0) ** 2 == pytest.approx(exact, rel=1e-12)
        for k in range(1, 401, 2):
            assert mode_function(k, 0.0) ** 2 == 0.0

    def test_parity(self):
        x = np.linspace(-5.0, 5.0, 41)
        for k in (0, 1, 4, 7):
            phi = mode_function(k, x)
            assert np.allclose(phi, (-1.0) ** k * phi[::-1], atol=1e-14)

    def test_matches_hermite_reference(self):
        x = np.linspace(-6.0, 6.0, 81)
        for k in range(31):
            assert np.allclose(
                mode_function(k, x), hermite_mode(k, x), atol=1e-10
            )

    def test_orthonormal(self):
        x = np.linspace(-15.0, 15.0, 4001)
        basis = np.array([mode_function(k, x) for k in range(0, 51, 10)])
        gram = trapezoid(basis[:, None, :] * basis[None, :, :], x, axis=-1)
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-8)

    def test_no_underflow_far_out(self):
        # naive recursion seeded with exp(-x^2/2) would be exactly 0 here
        phi = mode_function(40, 40.0)
        assert np.isfinite(phi)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            mode_function(-1, 0.0)
        with pytest.raises(ValueError):
            mode_function(5001, 0.0)


class TestFwhm:
    def test_gaussian(self):
        # exp(-x^2/(2s^2)) has FWHM 2s*sqrt(2 ln 2)
        grid = AxisGrid.symmetric(10.0, 4001)
        sigma = 1.7
        width = fwhm(np.exp(-0.5 * (grid.points / sigma) ** 2), grid)
        assert width == pytest.approx(2.0 * sigma * math.sqrt(2.0 * math.log(2.0)),
                                      rel=1e-4)

    def test_resolution_convergence(self):
        sigma = 1.0
        expect = 2.0 * math.sqrt(2.0 * math.log(2.0))
        errs = []
        for count in (101, 401, 1601):
            grid = AxisGrid.symmetric(6.0, count)
            errs.append(abs(fwhm(np.exp(-0.5 * grid.points**2), grid) - expect))
        assert errs[2] < errs[1] < errs[0]

    def test_triangle_exact(self):
        # piecewise-linear peak: interpolation is exact
        grid = AxisGrid.symmetric(2.0, 401)
        width = fwhm(np.clip(1.0 - np.abs(grid.points), 0.0, None), grid)
        assert width == pytest.approx(1.0, abs=1e-12)

    def test_never_crosses(self):
        grid = AxisGrid.symmetric(1.0, 101)
        with pytest.raises(GridExtentError) as err:
            fwhm(np.full(101, 2.0), grid, curve="g1")
        assert err.value.curve == "g1"

    def test_not_peaked_at_center(self):
        grid = AxisGrid.symmetric(1.0, 101)
        with pytest.raises(ValueError):
            fwhm(grid.points + 2.0, grid)


class TestG1Curve:
    def test_pure_condensate_is_fully_coherent(self):
        g = TrapGeometry.isotropic(1)
        spec = condensate_spectrum(g, 1000)
        grid = AxisGrid.symmetric(5.0, 201)
        g1, density = g1_curve(spec, g, grid)
        assert np.allclose(g1, 1.0, atol=1e-12)
        n_total = trapezoid(density, grid.points)
        assert n_total == pytest.approx(1000.0, rel=1e-6)

    def test_center_value_and_bounds(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, ThermalState(200, 40.0))
        grid = AxisGrid.symmetric(default_extent(g, 40.0, 0), 801)
        g1, density = g1_curve(spec, g, grid)
        assert g1[grid.center] == 1.0
        assert np.all(np.abs(g1) <= 1.0 + 1e-12)
        assert np.all(density >= 0.0)
        assert np.allclose(g1, g1[::-1], atol=1e-12)

    def test_two_mode_closed_form(self):
        # weights (w0, w1): g1 = (w0 phi0^2 - w1 phi1^2)/(w0 phi0^2 + w1 phi1^2)
        g = TrapGeometry.isotropic(1)
        quanta = np.array([[0], [1]], dtype=np.int32)
        spec = OccupationSpectrum(
            quanta=quanta,
            energies=np.array([0.0, 1.0]),
            occupations=np.array([3.0, 1.0]),
            n_atoms=4,
            captured_fraction=1.0,
        )
        grid = AxisGrid.symmetric(4.0, 401)
        g1, _ = g1_curve(spec, g, grid)
        p0 = mode_function(0, grid.points) ** 2
        p1 = mode_function(1, grid.points) ** 2
        expect = (3.0 * p0 - p1) / (3.0 * p0 + p1)
        assert np.allclose(g1, expect, atol=1e-12)

    def test_density_integrates_to_n(self):
        g = TrapGeometry.isotropic(1)
        n, t = 500, 60.0
        spec = occupation_spectrum(g, ThermalState(n, t))
        # wide grid so the populated modes are fully contained
        extent = 2.5 * math.sqrt(2.0 * t)
        grid = AxisGrid.symmetric(extent, 4001)
        _, density = g1_curve(spec, g, grid)
        n_total = trapezoid(density, grid.points)
        assert n_total == pytest.approx(n * spec.captured_fraction, rel=1e-4)

    def test_transverse_marginalization_3d(self):
        # an isotropic 3D cut must stay symmetric and normalized at the center
        g = TrapGeometry.isotropic(3)
        spec = occupation_spectrum(g, ThermalState(300, 5.0))
        grid = AxisGrid.symmetric(default_extent(g, 5.0, 0), 401)
        g1, density = g1_curve(spec, g, grid)
        assert g1[grid.center] == 1.0
        assert density[grid.center] == np.max(density)

    def test_capture_guard(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, ThermalState(100, 10.0))
        poor = OccupationSpectrum(
            quanta=spec.quanta,
            energies=spec.energies,
            occupations=spec.occupations,
            n_atoms=100,
            captured_fraction=0.9,
        )
        with pytest.raises(ValueError):
            g1_curve(poor, g, AxisGrid.symmetric(5.0, 101))

    def test_bad_axis(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, ThermalState(50, 5.0))
        with pytest.raises(ValueError):
            g1_curve(spec, g, AxisGrid.symmetric(5.0, 101, axis=2))


class TestG1Profile:
    def test_cold_gas_coherence_exceeds_width(self):
        g = TrapGeometry.isotropic(1)
        tc = characteristic_temperature(g, 400)
        l_cold, w_cold, _ = coherence_vs_width(g, ThermalState(400, 0.3 * tc))
        l_hot, w_hot, _ = coherence_vs_width(g, ThermalState(400, 1.5 * tc))
        assert l_cold > w_cold
        assert l_hot < w_hot

    def test_coherence_length_decreases_with_t(self):
        g = TrapGeometry.isotropic(1)
        tc = characteristic_temperature(g, 300)
        lengths = [
            coherence_vs_width(g, ThermalState(300, f * tc))[0]
            for f in (0.4, 0.8, 1.2)
        ]
        assert lengths[0] > lengths[1] > lengths[2]

    def test_underflowed_density_is_not_a_crossing(self):
        # far out at 0.02 T_c the density underflows to exactly 0; g1 is NaN
        # there, so the underflow radius is no half-maximum crossing and the
        # gas stays fully coherent
        g = TrapGeometry.isotropic(3)
        tc = characteristic_temperature(g, 400)
        state = ThermalState(400, 0.02 * tc)
        l_phi, width, _ = coherence_vs_width(g, state)
        assert l_phi == math.inf
        # the ground-state density FWHM 2 sqrt(ln 2), from the default grid
        assert width == pytest.approx(2.0 * math.sqrt(math.log(2.0)), rel=1e-4)
        spec = occupation_spectrum(g, state, tol=1e-8)
        g1, density = g1_curve(spec, g, AxisGrid.symmetric(60.0, 1201))
        assert np.array_equal(np.isnan(g1), density == 0.0)
        assert np.isnan(g1).any()
        # at 0.05 T_c g1 stays above half maximum on the default grid (extent
        # 4.5) and crosses it only on a grid twice as wide
        state = ThermalState(400, 0.05 * tc)
        assert coherence_vs_width(g, state)[0] == math.inf
        spec = occupation_spectrum(g, state, tol=1e-8)
        profile = g1_profile(spec, g, AxisGrid.symmetric(9.0, 1201))
        assert profile.coherence_length == pytest.approx(15.062396624423155, rel=1e-12)

    def test_coherent_across_the_grid(self):
        # a pure condensate: g1 = 1 everywhere, the density is exp(-x^2)/sqrt(pi)
        g = TrapGeometry.isotropic(1)
        spec = condensate_spectrum(g, 1000)
        profile = g1_profile(spec, g, AxisGrid.symmetric(5.0, 2001))
        assert profile.coherence_length == math.inf
        assert profile.cloud_width == pytest.approx(2.0 * math.sqrt(math.log(2.0)), rel=1e-4)
        # the density FWHM is still required
        with pytest.raises(GridExtentError) as err:
            g1_profile(spec, g, AxisGrid.symmetric(0.5, 11))
        assert err.value.curve == "density"

    def test_condensate_occupation_of_the_probe(self):
        g = TrapGeometry.isotropic(1)
        state = ThermalState(300, 0.5 * characteristic_temperature(g, 300))
        n0 = coherence_vs_width(g, state)[2]
        assert n0 == occupation_spectrum(g, state, tol=1e-8).condensate_occupation

    def test_profile_struct(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, ThermalState(200, 20.0))
        grid = AxisGrid.symmetric(default_extent(g, 20.0, 0), 801)
        prof = g1_profile(spec, g, grid)
        assert prof.coherence_length > 0
        assert prof.cloud_width > 0
        assert prof.g1.shape == grid.points.shape


class TestFindTph:
    def test_1d_small(self):
        g = TrapGeometry.isotropic(1)
        t_ph, n0 = find_tph(g, 100)
        tc = characteristic_temperature(g, 100)
        assert 0.2 < t_ph / tc < 1.0
        assert n0 / 100 > 0.5  # quasicondensate regime opens below T_c in 1D

    def test_elongated_uses_soft_axis(self):
        g = TrapGeometry((1.0, 1.0, 0.05))
        t_ph, n0 = find_tph(g, 100)
        assert t_ph > 0
        assert 0 < n0 < 100

    def test_validation(self):
        with pytest.raises(ValueError):
            find_tph(TrapGeometry.isotropic(1), 1)

    def test_crossing_below_start_bracket(self):
        # a long cigar crosses at 0.026 T_c, below the 0.05 T_c start of the
        # bracket, which widens downward to find it
        g = TrapGeometry((1.0, 1.0, 1e-3))
        t_ph, n0 = find_tph(g, 100)
        assert 0 < t_ph < 0.05 * characteristic_temperature(g, 100)
        assert 0 < n0 < 100

    @pytest.mark.parametrize("difference", [-1.0, 1.0])
    def test_no_sign_change_is_bracket_error(self, monkeypatch, difference):
        probes = []

        def never_crossing(geometry, state):
            probes.append(state.temperature)
            return 1.0 + difference, 1.0, None

        monkeypatch.setattr("bosegas.coherence.coherence_vs_width", never_crossing)
        g = TrapGeometry.isotropic(1)
        tc = characteristic_temperature(g, 100)
        with pytest.raises(BracketError) as err:
            find_tph(g, 100)
        t_lo, t_hi = min(probes), max(probes)
        assert err.value.samples == [(t_lo, difference), (t_hi, difference)]
        assert t_lo <= 1e-3 * tc if difference < 0 else t_lo == 0.05 * tc
        assert t_hi >= 4.0 * tc if difference > 0 else t_hi == 1.2 * tc
        assert len(probes) <= 16
