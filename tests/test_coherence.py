import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import eval_hermite, factorial

import bosegas.coherence
import oracles
from bosegas import (
    AxisGrid,
    BracketError,
    GridExtentError,
    NumericalError,
    OccupationSpectrum,
    ResourceLimitError,
    ThermalState,
    TrapGeometry,
    characteristic_temperature,
    find_tph,
    fwhm,
    g1_curve,
    g1_profile,
    mean_occupation,
    occupation_spectrum,
)
from bosegas.coherence import (
    _mirror_sums,
    _tph_outcomes,
    coherence_vs_width,
    default_extent,
    thermal_profile,
)


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
        for extent in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                AxisGrid.symmetric(extent, 7)
        with pytest.raises(ValueError):
            AxisGrid.symmetric(1.0, 10)  # even count has no center point


def mode_functions(k_max, x):
    """phi_0..phi_kmax at the points x, one row per k, from the oracle to which
    TestInPlaceHermitePass pins the library's pass bit for bit."""
    x = np.atleast_1d(np.asarray(x, float))
    return np.array(list(oracles.mode_function_iter(k_max, x)))


class TestModeFunction:
    def test_ground_state_at_origin(self):
        assert mode_functions(0, 0.0)[0, 0] == pytest.approx(math.pi**-0.25, rel=1e-15)

    def test_value_at_origin(self):
        # phi_k(0)^2 = C(k, k/2) / (2^k sqrt(pi)) for even k, 0 for odd k;
        # g1_curve weights the transverse modes by these values
        phi_sq = mode_functions(400, 0.0)[:, 0] ** 2
        for k in range(0, 401, 2):
            exact = math.comb(k, k // 2) / 2**k / math.sqrt(math.pi)
            assert phi_sq[k] == pytest.approx(exact, rel=1e-12)
        for k in range(1, 401, 2):
            assert phi_sq[k] == 0.0

    def test_parity(self):
        x = np.linspace(-5.0, 5.0, 41)
        phis = mode_functions(7, x)
        for k in (0, 1, 4, 7):
            assert np.allclose(phis[k], (-1.0) ** k * phis[k][::-1], atol=1e-14)

    def test_matches_hermite_reference(self):
        x = np.linspace(-6.0, 6.0, 81)
        for k, phi in enumerate(mode_functions(30, x)):
            assert np.allclose(phi, hermite_mode(k, x), atol=1e-10)

    def test_orthonormal(self):
        x = np.linspace(-15.0, 15.0, 4001)
        basis = mode_functions(50, x)[::10]
        gram = trapezoid(basis[:, None, :] * basis[None, :, :], x, axis=-1)
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-8)

    def test_no_underflow_far_out(self):
        # naive recursion seeded with exp(-x^2/2) would be exactly 0 here
        phi = mode_functions(40, 40.0)[40, 0]
        assert np.isfinite(phi)


def float_hex(arrays):
    return [[float(v).hex() for v in a] for a in arrays]


class TestInPlaceHermitePass:
    """The in-place Hermite pass gives (g1, density) of the allocating one,
    bit for bit."""

    @pytest.mark.parametrize("omega, n_atoms, t_over_tc", [
        ((1.0,), 400, 0.5), ((1.0, 1.0, 1.0), 300, 0.6), ((1.0, 1.0, 0.05), 300, 0.4)],
        ids=["1d", "3d", "cigar"])
    def test_thermal_profiles(self, monkeypatch, omega, n_atoms, t_over_tc):
        calls = []
        original = bosegas.coherence._mirror_sums

        def recording(*args):
            calls.append((args, original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(bosegas.coherence, "_mirror_sums", recording)
        g = TrapGeometry(omega)
        state = ThermalState(n_atoms, t_over_tc * characteristic_temperature(g, n_atoms))
        coherence_vs_width(g, state)
        ((args, got),) = calls
        assert float_hex(got) == float_hex(oracles.mirror_sums(*args))

    def test_rescaled_grid(self):
        grid = AxisGrid.symmetric(60.0, 241)
        weights = np.exp(-0.01 * np.arange(2001))
        # far out on the grid the unscaled u_k pass the 1e130 threshold, so the
        # envelope is rescaled
        x = grid.points
        u_prev, u = np.zeros_like(x), np.full_like(x, math.pi**-0.25)
        for k in range(2000):
            u_prev, u = u, x * math.sqrt(2.0 / (k + 1)) * u - math.sqrt(k / (k + 1)) * u_prev
            if np.abs(u).max() > 1e130:
                break
        else:
            pytest.fail("the grid never drives |u_k| past 1e130")
        got = _mirror_sums(weights, 1.0, grid)
        assert float_hex(got) == float_hex(oracles.mirror_sums(weights, 1.0, grid))

    @pytest.mark.parametrize("count", [3, 5, 7])
    def test_smallest_half_grids(self, count):
        # the half grid holds the center and one to three points beyond it;
        # at extent 30 the outer points are rescaled
        grid = AxisGrid.symmetric(30.0, count)
        weights = np.exp(-0.01 * np.arange(1001))
        got = _mirror_sums(weights, 1.0, grid)
        assert float_hex(got) == float_hex(oracles.mirror_sums(weights, 1.0, grid))

    def test_explicit_3d_spectrum(self):
        # the transverse modes enter through phi_q(0)^2 of their own axis
        g = TrapGeometry((1.0, 1.3, 0.7))
        spec = occupation_spectrum(g, ThermalState(300, 5.0))
        grid = AxisGrid.symmetric(default_extent(g, 5.0, 0), 401)
        assert spec.quanta[:, 1:].max() > 1
        assert float_hex(g1_curve(spec, g, grid)) == float_hex(oracles.g1_curve(spec, g, grid))

    def test_explicit_spectrum_large_transverse_quanta(self):
        # phi_q(0)^2 of the soft transverse axis for q up to a few thousand
        g = TrapGeometry((1.0, 0.1))
        spec = occupation_spectrum(g, ThermalState(100, 10.0))
        grid = AxisGrid.symmetric(default_extent(g, 10.0, 0), 401)
        assert spec.quanta[:, 1].max() > 2000
        assert float_hex(g1_curve(spec, g, grid)) == float_hex(oracles.g1_curve(spec, g, grid))

    def test_g1_above_one_refused(self):
        # a negative weight drives g1 = num/den past 1 where den stays positive
        with pytest.raises(NumericalError, match=r"\|g1\| exceeded 1 by"):
            _mirror_sums(np.array([1.0, -2.0]), 1.0, AxisGrid.symmetric(3.0, 101))


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
            captured_fraction=1.0,
        )
        grid = AxisGrid.symmetric(4.0, 401)
        g1, _ = g1_curve(spec, g, grid)
        p0, p1 = mode_functions(1, grid.points) ** 2
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
        l_cold, w_cold = coherence_vs_width(g, ThermalState(400, 0.3 * tc))
        l_hot, w_hot = coherence_vs_width(g, ThermalState(400, 1.5 * tc))
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
        l_phi, width = coherence_vs_width(g, state)
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

    def test_thermal_path_matches_spectrum_in_1d(self):
        # with no transverse axis the weights are the spectrum's occupations
        g = TrapGeometry.isotropic(1)
        state = ThermalState(400, 0.5 * characteristic_temperature(g, 400))
        grid, profile = thermal_profile(g, state, 1201, 1e-8)
        expect = g1_profile(occupation_spectrum(g, state, tol=1e-8), g, grid)
        assert np.array_equal(profile.g1, expect.g1)
        assert np.array_equal(profile.density, expect.density)
        assert profile.coherence_length == expect.coherence_length
        assert profile.cloud_width == expect.cloud_width

    def test_axis_truncation_limit(self):
        with pytest.raises(ResourceLimitError):
            coherence_vs_width(TrapGeometry.isotropic(3), ThermalState(100, 1e300))

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

    def test_3d_criterion_6_points_pinned(self):
        # (T_ph, N_0) as float hex, recorded under numpy 2.4.6 and scipy 1.17.1;
        # the README tph digest pins the 1D points
        pinned = {
            100: ("0x1.b0b1a5b4553c0p+1", "0x1.64dcd2eb9b68ep+4"),
            200: ("0x1.20648ec2c5897p+2", "0x1.123829a0b22b4p+5"),
            400: ("0x1.7c4958b1a3390p+2", "0x1.ab4515544cea7p+5"),
            800: ("0x1.f0b3a600e38fep+2", "0x1.3b16d9b57182dp+6"),
            1600: ("0x1.41feab535ec20p+3", "0x1.857935f5883b9p+6"),
        }
        g = TrapGeometry.isotropic(3)
        found = {n: tuple(float(v).hex() for v in find_tph(g, n)) for n in pinned}
        assert found == pinned

    def test_cylinder_points_pinned(self):
        # (T_ph, N_0) as float hex, recorded under numpy 2.4.6 and scipy 1.17.1,
        # independent of oracles.find_tph_serial: a cigar whose walk goes down
        # from 0.05 T_c, a cigar at omega_z = 0.1 and a pancake
        pinned = {
            ((1.0, 1.0, 1e-3), 300): ("0x1.df184a20da697p-6", "0x1.7131c31660501p+7"),
            ((1.0, 1.0, 0.1), 1000): ("0x1.b5b6d2e78388cp+1", "0x1.d30db797ef2c8p+7"),
            ((1.0, 1.0, 10.0), 300): ("0x1.2ff27e55e7606p+3", "0x1.205f95d88ac16p+6"),
        }
        found = {
            (omega, n): tuple(float(v).hex() for v in find_tph(TrapGeometry(omega), n))
            for omega, n in pinned
        }
        assert found == pinned

    @pytest.mark.parametrize("omega, n_atoms", [((1.0,), 300), ((1.0, 1.0, 1e-3), 300)],
                             ids=["1d", "walked-down-cigar"])
    def test_condensate_occupation_of_the_last_table(self, table_batches, omega, n_atoms):
        # N_0 is read from the table the search was sent last, that of its
        # last bisection probe
        t_ph, n0 = find_tph(TrapGeometry(omega), n_atoms)
        ((_, last),) = table_batches[-1]
        assert abs(last.temperature / t_ph - 1.0) < 5e-3
        assert n0.hex() == mean_occupation(last, 0.0).hex()

    def test_no_mode_list(self, monkeypatch):
        import bosegas

        def refuse(*args, **kwargs):
            raise AssertionError("the thermal path built a mode list")

        for module in (bosegas, bosegas.trap, bosegas.canonical, bosegas.coherence):
            for name in ("enumerate_modes", "occupation_spectrum"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        t_ph, n0 = find_tph(TrapGeometry.isotropic(3), 100)
        assert t_ph > 0
        assert 0 < n0 < 100

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
            return 1.0 + difference, 1.0

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


class TestTphOutcomes:
    """The T_ph searches of many points run in lockstep: each point's result is
    that of its own serial search, bit for bit, and a failed point's error sits
    in its own slot."""

    # N = 1 has no T_c: its search fails before its first probe
    POINTS = [(TrapGeometry.isotropic(1), 200), (TrapGeometry((1.0, 1.0, 1e-3)), 1),
              (TrapGeometry.isotropic(3), 100), (TrapGeometry((1.0, 1.0, 1e-3)), 100)]
    LIVE = [POINTS[0], *POINTS[2:]]

    def test_matches_the_serial_search(self):
        outcomes = _tph_outcomes(self.POINTS)
        assert isinstance(outcomes[1], ValueError)
        for point, outcome in zip(self.LIVE, [outcomes[0], *outcomes[2:]]):
            expect = oracles.find_tph_serial(*point)
            assert [v.hex() for v in outcome] == [v.hex() for v in expect]

    def test_one_batch_per_round(self, table_batches):
        _tph_outcomes(self.POINTS)
        rounds = [[lane for lane, _ in batch] for batch in table_batches]
        keys = [[(system, state.n_atoms) for system, state in lanes] for lanes in rounds]
        # every live search has one lane in each round, from the first round to its end
        assert keys[0] == self.LIVE
        for before, after in zip(keys, keys[1:]):
            assert after == [key for key in before if key in after]
        built = [(system, state.n_atoms, state.temperature)
                 for lanes in rounds for system, state in lanes]
        assert len(built) == len(set(built))

    def test_walked_down_search_skips_known_signs(self, monkeypatch, table_batches):
        # the cigar crosses at 0.026 T_c: f <= 0 at 0.05 T_c fixes the sign at
        # 1.2 T_c and at every bisection midpoint above the walk's last
        # negative probe, so those are never probed
        g, n = self.POINTS[3]
        outcome = _tph_outcomes([(g, n)])[0]
        probes = [state.temperature for batch in table_batches for (_, state), _ in batch]
        assert 1.2 * characteristic_temperature(g, n) not in probes
        serial = []
        original = oracles.coherence_vs_width

        def counting(geometry, state):
            serial.append(state.temperature)
            return original(geometry, state)

        monkeypatch.setattr(oracles, "coherence_vs_width", counting)
        expect = oracles.find_tph_serial(g, n)
        assert [v.hex() for v in outcome] == [v.hex() for v in expect]
        assert set(probes) < set(serial)
