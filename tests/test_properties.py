"""Property tests: invariants over random traps, atom numbers and temperatures.

Each draw is a 1-3D trap with frequencies in [0.5, 2], N in [2, 100] and
T in [0.1, 1.2] T_c.  The runs are derandomized, so every run checks the
same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosegas import (
    AxisGrid,
    ThermalState,
    TrapGeometry,
    characteristic_temperature,
    g1_curve,
    occupation_spectrum,
    solve_fugacity,
    sticking_ratio_gc,
)
from bosegas.canonical import ground_fraction
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
    cold = ground_fraction(geometry, ThermalState(n_atoms, temperature))
    hot = ground_fraction(geometry, ThermalState(n_atoms, factor * temperature))
    assert hot < cold


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
