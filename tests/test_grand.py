import math

import numpy as np
import pytest
from scipy.special import zeta

import bosegas.grand
from bosegas import (
    GrandCanonicalState,
    NumericalError,
    TrapGeometry,
    asymptotic_scaling_exponent,
    atom_number,
    closed_form_sticking,
    enumerate_modes,
    log_law_drift,
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

    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            atom_number(g, 0.0, 1.0)
        with pytest.raises(ValueError):
            atom_number(g, 1.0, 1.0)
        with pytest.raises(ValueError):
            atom_number(g, 0.5, -1.0)


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
        with pytest.raises(ValueError):
            solve_fugacity(TrapGeometry.isotropic(1), -5.0, 1.0)


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


@pytest.mark.parametrize("solve", [
    lambda: solve_fugacity(TrapGeometry.isotropic(3), 1e5, 30.0),
    lambda: temperature_for_fraction_gc(TrapGeometry.isotropic(1), 1e4, 0.3, mode="exact"),
], ids=["solve_fugacity", "temperature_for_fraction_gc"])
def test_each_probe_summed_once(monkeypatch, solve):
    summed = []
    original = bosegas.grand.atom_number

    def recording(geometry, z, temperature, tol=1e-12, one_minus_z=None):
        summed.append((z, temperature, one_minus_z))
        return original(geometry, z, temperature, tol=tol, one_minus_z=one_minus_z)

    monkeypatch.setattr(bosegas.grand, "atom_number", recording)
    solve()
    assert len(summed) == len(set(summed))


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
        slope = asymptotic_scaling_exponent(2, np.geomspace(1e8, 1e12, 5))
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_3d_slope(self):
        slope = asymptotic_scaling_exponent(3, np.geomspace(1e8, 1e12, 5))
        assert slope == pytest.approx(-2.0 / 3.0, abs=0.01)

    def test_1d_log_law(self):
        drift = log_law_drift(np.geomspace(1e10, 1e15, 6))
        assert drift < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_scaling_exponent(1, [1e3, 1e4, 1e5])
        with pytest.raises(ValueError):
            asymptotic_scaling_exponent(2, [1e3, 1e4])
        with pytest.raises(ValueError):
            log_law_drift([1e3])


class TestGrandCanonicalState:
    def test_validation(self):
        g = TrapGeometry.isotropic(1)
        with pytest.raises(ValueError):
            GrandCanonicalState(1.2, -0.2, 1.0, g, 10.0)
        with pytest.raises(ValueError):
            GrandCanonicalState(0.5, -0.5, 1.0, g, 10.0)
