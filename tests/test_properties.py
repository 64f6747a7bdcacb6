"""Property tests: invariants over random traps, atom numbers and temperatures.

Each draw is a 1-3D trap with frequencies in [0.5, 2], N in [2, 100] and
T in [0.1, 1.2] T_c; the exhaustive oracle draws its own small systems.  The
runs are derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bosegas import (
    AxisGrid,
    ThermalState,
    TrapGeometry,
    build_partition_table,
    characteristic_temperature,
    enumerate_modes,
    g1_curve,
    mean_occupation,
    occupancy_distribution,
    occupation_spectrum,
    solve_fugacity,
    sticking_ratio_gc,
)
from bosegas.coherence import default_extent

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

frequencies = st.floats(0.5, 2.0)


@st.composite
def state_points(draw):
    """(geometry, N, T) with T given as a fraction of T_c in [0.1, 1.2]."""
    dimension = draw(st.integers(1, 3))
    geometry = TrapGeometry(tuple(draw(frequencies) for _ in range(dimension)))
    n_atoms = draw(st.integers(2, 100))
    t_rel = draw(st.floats(0.1, 1.2))
    return geometry, n_atoms, t_rel * characteristic_temperature(geometry, n_atoms)


@PROPERTY
@given(state_points())
def test_occupations_sum_to_n(point):
    geometry, n_atoms, temperature = point
    spec = occupation_spectrum(geometry, ThermalState(n_atoms, temperature))
    total = spec.occupations.sum()
    # the cutoff may drop up to 1e-6 of the atoms; the slack above N is rounding
    assert n_atoms * (1.0 - 1e-6) <= total <= n_atoms * (1.0 + 1e-12)


@PROPERTY
@given(state_points(), st.floats(1.05, 2.0))
def test_condensate_decreases_with_temperature(point, factor):
    geometry, n_atoms, temperature = point

    def ground_fraction(t):
        state = ThermalState(n_atoms, t)
        return mean_occupation(build_partition_table(geometry, state), 0.0) / state.n_atoms

    assert ground_fraction(factor * temperature) < ground_fraction(temperature)


@PROPERTY
@given(state_points())
def test_g1_even_and_bounded(point):
    geometry, n_atoms, temperature = point
    spec = occupation_spectrum(geometry, ThermalState(n_atoms, temperature))
    axis = int(np.argmin(geometry.omega))
    grid = AxisGrid.symmetric(default_extent(geometry, temperature, axis), 201, axis=axis)
    g1, _ = g1_curve(spec, geometry, grid)
    np.testing.assert_array_equal(g1, g1[::-1])
    assert g1[grid.center] == 1.0
    assert np.nanmax(np.abs(g1)) <= 1.0 + 1e-12


@PROPERTY
@given(state_points())
def test_grand_sticking_ratio_in_unit_interval(point):
    geometry, n_atoms, temperature = point
    ratio = sticking_ratio_gc(solve_fugacity(geometry, n_atoms, temperature))
    assert 0.0 < ratio < 1.0


def lowest_modes(geometry, n_levels):
    """(geometry, energies of its lowest n_levels <= 21 modes, lowest energy left out)."""
    # at least 22 modes lie below 21 quanta of the softest axis
    _, energies = enumerate_modes(geometry, 21.0 * geometry.min_frequency)
    return geometry, tuple(energies[:n_levels]), float(energies[n_levels])


@st.composite
def truncated_traps(draw):
    dimension = draw(st.integers(1, 3))
    geometry = TrapGeometry(tuple(draw(frequencies) for _ in range(dimension)))
    return lowest_modes(geometry, draw(st.integers(2, 20)))


@PROPERTY
@given(truncated_traps(), st.integers(1, 4), st.floats(0.3, 3.0))
@example(lowest_modes(TrapGeometry((0.5, 1.3, 2.0)), 20), 4, 0.3)
def test_truncated_trap_against_exhaustive_oracle(trap, n_atoms, beta):
    geometry, energies, tail = trap
    spectrum = oracles.FiniteSpectrum(energies)
    table = build_partition_table(spectrum, ThermalState(n_atoms, 1.0 / beta))
    z_ref = oracles.partition_function(energies, beta, n_atoms)
    assert table.log_z[n_atoms] == pytest.approx(math.log(z_ref), abs=1e-12)
    for level in sorted({0, 1, len(energies) - 1}):
        p_ref = oracles.occupancy_distribution(energies, beta, n_atoms, level)
        assert np.allclose(occupancy_distribution(table, energies[level]), p_ref, atol=1e-12)
        occ_ref = oracles.mean_occupation(energies, beta, n_atoms, level)
        assert mean_occupation(table, energies[level]) == pytest.approx(occ_ref, abs=1e-12)

    # e^-40 of the ground weight sits above the truncation, below rounding
    cold = ThermalState(n_atoms, tail / 40.0)
    np.testing.assert_allclose(
        build_partition_table(geometry, cold).log_z,
        build_partition_table(spectrum, cold).log_z,
        rtol=0, atol=1e-14,
    )
