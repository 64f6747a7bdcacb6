import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bosegas.canonical
import oracles
from bosegas import (
    BracketError,
    CutoffError,
    NumericalError,
    OccupationSpectrum,
    ThermalState,
    TrapGeometry,
    build_partition_table,
    characteristic_temperature,
    mean_occupation,
    mean_occupations,
    occupancy_distribution,
    occupation_spectrum,
    sticking_ratio,
    temperature_for_fraction,
)
from bosegas.brent import _raise_first
from bosegas.canonical import (
    PartitionTable,
    _occupancy_raw,
    _search_outcomes,
    build_partition_tables,
    log_p_at_least,
)

LN2 = math.log(2.0)
TWO_LEVEL = oracles.FiniteSpectrum((0.0, 1.0))


def make_state(n, t):
    return ThermalState(n, t)


def ground_fraction(geometry, state):
    return mean_occupation(build_partition_table(geometry, state), 0.0) / state.n_atoms


class TestThermalState:
    def test_integral_float_atom_number_is_stored_as_int(self):
        state = ThermalState(100.0, 5.0)
        assert type(state.n_atoms) is int and state.n_atoms == 100
        table = build_partition_table(TrapGeometry.isotropic(1), state)
        assert table.log_z.shape == (101,)

    def test_non_integral_atom_number_refused(self):
        with pytest.raises(ValueError, match="integer"):
            ThermalState(100.5, 5.0)
        with pytest.raises(ValueError, match="integer"):
            temperature_for_fraction(TrapGeometry.isotropic(1), 100.5, 0.3)


class TestPartitionTable:
    def test_base_case_n1(self):
        g = TrapGeometry((0.8, 1.9))
        table = build_partition_table(g, make_state(1, 2.5))
        assert table.log_z[0] == 0.0
        assert table.log_z[1] == pytest.approx(g.log_z1(0.4), rel=1e-14)

    def test_two_level_n2(self):
        # direct enumeration: occupations (2,0),(1,1),(0,2) -> Z_2 = 1 + 1/2 + 1/4
        table = build_partition_table(TWO_LEVEL, make_state(2, 1.0 / LN2))
        assert math.exp(table.log_z[2]) == pytest.approx(1.75, rel=1e-14)

    def test_frozen_limit(self):
        table = build_partition_table(TrapGeometry.isotropic(1), make_state(5, 1e-3))
        assert math.exp(table.log_z[5]) == pytest.approx(1.0, abs=1e-12)

    def test_is_a_state(self):
        state = make_state(30, 2.0)
        table = build_partition_table(TrapGeometry.isotropic(2), state)
        assert isinstance(table, ThermalState)
        assert table.beta == state.beta
        assert (table.n_atoms, table.temperature) == (30, 2.0)
        assert "log_z" not in repr(table)

    def test_monotone_in_temperature(self):
        g = TrapGeometry.isotropic(2)
        z_cold = build_partition_table(g, make_state(30, 2.0)).log_z
        z_hot = build_partition_table(g, make_state(30, 3.0)).log_z
        assert np.all(z_hot[1:] > z_cold[1:])

    def test_non_finite_entry_refused(self):
        log_z = np.array([0.0, 1.0, math.inf])
        with pytest.raises(NumericalError, match="non-finite"):
            PartitionTable(2, 1.0, log_z, TrapGeometry.isotropic(1))


class TestBatchedRecursion:
    """A batch of lanes gives each lane's one-lane table, bit for bit."""

    @pytest.mark.parametrize("omega", [(1.0,), (1.0, 1.0, 1.0), (1.0, 1.0, 0.05),
                                       (1.0, 1.0, 30.0)], ids=["1d", "3d", "cigar", "pancake"])
    def test_mixed_atom_numbers(self, omega):
        g = TrapGeometry(omega)
        tc = characteristic_temperature(g, 1000)
        lanes = [(g, make_state(n, f * tc)) for n, f in [
            (1000, 0.5), (3, 0.2), (400, 1.1), (1, 2.0), (1000, 0.05), (57, 0.8), (999, 3.0)]]
        tables = build_partition_tables(lanes)
        for (system, state), table in zip(lanes, tables):
            alone = build_partition_table(system, make_state(state.n_atoms, state.temperature))
            assert table.log_z.tobytes() == alone.log_z.tobytes()
            assert (table.n_atoms, table.temperature, table.system) == (
                state.n_atoms, state.temperature, system)

    def test_mixed_systems(self):
        lanes = [(TrapGeometry((1.0, 1.0, r)), make_state(300, 4.0)) for r in (1e-3, 1.0, 7.0)]
        lanes.append((TWO_LEVEL, make_state(5, 0.7)))
        # a lane whose state is a finished table of its system is built again
        lanes.append((lanes[0][0], build_partition_table(*lanes[0])))
        for (system, state), table in zip(lanes, build_partition_tables(lanes)):
            assert table is not state
            assert table.log_z.tobytes() == build_partition_table(system, state).log_z.tobytes()

    def test_table_of_the_same_system_is_kept(self):
        g = TrapGeometry((1.0, 1.0, 0.05))
        table = build_partition_table(g, make_state(200, 5.0))
        assert build_partition_table(g, table) is table
        assert build_partition_table(TrapGeometry((1.0, 1.0, 0.05)), table) is table
        other = build_partition_table(TrapGeometry.isotropic(3), table)
        assert other is not table and other.log_z.tobytes() != table.log_z.tobytes()

    def test_no_lanes(self):
        assert build_partition_tables([]) == []


class TestOracleEquivalence:
    """Recursion vs exhaustive occupation-multiset enumeration, N <= 4."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spectra(self, seed):
        rng = np.random.default_rng(seed)
        n_levels = int(rng.integers(2, 13))
        energies = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 4.0, n_levels - 1))])
        beta = rng.uniform(0.3, 3.0)
        system = oracles.FiniteSpectrum(energies)
        for n_atoms in range(1, 5):
            table = build_partition_table(system, make_state(n_atoms, 1.0 / beta))
            z_ref = oracles.partition_function(energies, beta, n_atoms)
            assert math.exp(table.log_z[n_atoms]) == pytest.approx(z_ref, rel=1e-12)
            for level in (0, n_levels - 1):
                p_ref = oracles.occupancy_distribution(energies, beta, n_atoms, level)
                p = occupancy_distribution(table, energies[level])
                assert np.allclose(p, p_ref, atol=1e-12)
                occ_ref = oracles.mean_occupation(energies, beta, n_atoms, level)
                assert mean_occupation(table, energies[level]) == pytest.approx(
                    occ_ref, abs=1e-12
                )

    def test_two_level_documented_values(self):
        table = build_partition_table(TWO_LEVEL, make_state(2, 1.0 / LN2))
        p = occupancy_distribution(table, 1.0)
        # P(0) = (Z_2 - e^-beta Z_1)/Z_2 = 1/1.75
        assert p[0] == pytest.approx(1.0 / 1.75, rel=1e-12)
        assert mean_occupation(table, 1.0) == pytest.approx(1.0 / 1.75, rel=1e-12)


@st.composite
def recursion_lanes(draw):
    """1 to 4 (system, state) lanes: traps of 1 to 3 axes with ratios 1e-4 to
    1e4 or explicit spectra, N from 1 to 1600, and T log-uniform from
    1e-3 omega_min to 20 T_c or at an end of a T(N_0/N) bracket."""
    lanes = []
    for _ in range(draw(st.integers(1, 4))):
        n_atoms = draw(st.one_of(st.integers(1, 40), st.integers(1, 1600)))
        if draw(st.booleans()):
            ratios = draw(st.lists(st.floats(-4.0, 4.0), max_size=2))
            system = TrapGeometry((1.0, *(10.0**r for r in ratios)))
            t_min = 1e-3 * system.min_frequency
            t_max = 20.0 * characteristic_temperature(system, max(n_atoms, 2))
        else:  # an explicit spectrum with its ground level at 0, as in a trap
            levels = draw(st.lists(st.floats(0.0, 5.0), max_size=5))
            system, t_min, t_max = oracles.FiniteSpectrum((0.0, *levels)), 1e-3, 20.0
        ends = [t_min, 1e-3, 0.5 * t_max]  # 0.5 t_max: the 10 T_c bracket end
        if draw(st.booleans()):
            t = draw(st.sampled_from(ends))
        else:
            t = t_min * (t_max / t_min) ** draw(st.floats(0.0, 1.0))
        lanes.append((system, make_state(n_atoms, t)))
    return lanes


def _bracket_end_lanes(omega, n_atoms):
    g = TrapGeometry(omega)
    tc = characteristic_temperature(g, n_atoms)
    return [(g, make_state(n_atoms, t)) for t in (10.0 * tc, 1e-3, 1e-3 * g.min_frequency)]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(recursion_lanes())
@example(_bracket_end_lanes((1.0, 1.0, 1.0), 1000))
@example(_bracket_end_lanes((1.0, 1.0, 1e-4), 1000))
@example(_bracket_end_lanes((1.0, 1.0, 1e4), 200) + _bracket_end_lanes((1.0,), 1600))
def test_tables_match_the_unfloored_recursion(lanes):
    # the floored exponents move a row sum >= 1 by at most N * 5.5e-308
    want = oracles.recursion_dense(lanes)
    for table, log_z in zip(build_partition_tables(lanes), want):
        assert [x.hex() for x in table.log_z] == [x.hex() for x in log_z]


class TestOccupancyDistribution:
    def test_normalized(self):
        g = TrapGeometry.isotropic(1)
        table = build_partition_table(g, make_state(100, 20.0))
        for energy in (0.0, 1.0, 7.0):
            p = occupancy_distribution(table, energy)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_raw_negatives_tiny(self):
        g = TrapGeometry.isotropic(1)
        for t in (5.0, 50.0, 150.0):
            table = build_partition_table(g, make_state(200, t))
            for energy in (0.0, 1.0, 10.0):
                raw = _occupancy_raw(table, energy)
                assert raw.sum() == pytest.approx(1.0, abs=1e-10)
                assert raw.min() > -1e-14

    def test_zero_temperature_ground(self):
        g = TrapGeometry.isotropic(1)
        table = build_partition_table(g, make_state(10, 1e-2))
        p = occupancy_distribution(table, 0.0)
        assert p[10] == pytest.approx(1.0, abs=1e-10)

    def test_negative_energy_rejected(self):
        table = build_partition_table(TrapGeometry.isotropic(1), make_state(3, 1.0))
        with pytest.raises(ValueError):
            occupancy_distribution(table, -0.1)

    def test_infinite_energy_is_never_occupied(self):
        # the n = 0 term of ln P>= must not be formed as -0 * beta * inf = NaN
        table = build_partition_table(TrapGeometry((1.0,)), make_state(5, 2.0))
        assert log_p_at_least(table, math.inf).tolist() == [0.0] + [-math.inf] * 5
        assert occupancy_distribution(table, math.inf).tolist() == [1.0] + [0.0] * 5
        assert mean_occupation(table, math.inf) == 0.0


class TestMeanOccupation:
    def test_equivalence_of_both_forms(self):
        # sum_n n P(n) and sum_{n>=1} P>=(n) must agree
        g = TrapGeometry.isotropic(2)
        table = build_partition_table(g, make_state(150, 8.0))
        for energy in (0.0, 1.0, 2.0, 5.0):
            p = occupancy_distribution(table, energy)
            direct = np.dot(np.arange(151), p)
            assert mean_occupation(table, energy) == pytest.approx(
                direct, abs=1e-10 * 150
            )

    def test_frozen_limits(self):
        g = TrapGeometry.isotropic(1)
        table = build_partition_table(g, make_state(40, 1e-2))
        assert mean_occupation(table, 0.0) == pytest.approx(40.0, abs=1e-8)
        assert mean_occupation(table, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        g = TrapGeometry.isotropic(1)
        table = build_partition_table(g, make_state(60, 12.0))
        energies = np.array([0.0, 1.0, 3.0, 9.0])
        batch = mean_occupations(table, energies)
        for e, v in zip(energies, batch):
            assert v == pytest.approx(mean_occupation(table, e), rel=1e-13)

    def test_nan_energy_refused(self):
        table = build_partition_table(TrapGeometry.isotropic(1), make_state(60, 12.0))
        with pytest.raises(ValueError, match="non-negative"):
            mean_occupation(table, math.nan)
        with pytest.raises(ValueError, match="non-negative"):
            mean_occupations(table, [0.0, math.nan, 1.0])

    def test_infinite_and_no_energies(self):
        table = build_partition_table(TrapGeometry.isotropic(1), make_state(60, 12.0))
        with np.errstate(invalid="ignore"):  # the n = 0 term of ln P>= is 0 * inf
            assert mean_occupation(table, math.inf) == 0.0
        assert mean_occupations(table, [0.0, math.inf])[1] == 0.0
        assert mean_occupations(table, []).shape == (0,)

    @pytest.mark.parametrize("temperature", [3e-308, 1e-310])
    def test_pure_condensate_where_n_beta_overflows(self, temperature):
        # n*beta is inf from n = 6 on at 3e-308 and for every n at 1e-310: the
        # ground mode's exponent stays 0 there, and no overflow warns
        table = build_partition_table(TrapGeometry.isotropic(3), make_state(10, temperature))
        assert mean_occupation(table, 0.0) == 10.0
        assert mean_occupation(table, 1.0) == 0.0

    def test_block_buffer_stays_small(self):
        g = TrapGeometry.isotropic(1)
        table = build_partition_table(g, make_state(1600, 0.5 * characteristic_temperature(g, 1600)))
        energies = np.arange(16_000, dtype=float)
        tracemalloc.start()
        try:
            mean_occupations(table, energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every term of a 4,000,000-entry chunk at once peaks at 91.8 MiB here
        assert peak < 8 * 2**20


@st.composite
def occupation_points(draw):
    """(table, energies, log_weight, block entries) for mean_occupations."""
    n_atoms = draw(st.integers(1, 1200))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        system = TrapGeometry(tuple(draw(st.floats(1e-3, 4.0)) for _ in range(dim)))
        t_ref = characteristic_temperature(system, max(n_atoms, 2))
        quantum = system.min_frequency
    else:  # an explicit spectrum with its ground level at 0, as in a trap
        levels = draw(st.lists(st.floats(0.0, 5.0), min_size=0, max_size=5))
        system, t_ref, quantum = oracles.FiniteSpectrum((0.0, *levels)), 1.0, 0.5
    t = draw(st.floats(0.05, 3.0)) * t_ref
    table = build_partition_table(system, make_state(n_atoms, t))
    count = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(["sorted", "unsorted", "repeated", "underflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    energies = np.arange(count) * quantum
    if kind == "unsorted":
        rng.shuffle(energies)
    elif kind == "repeated":
        energies = np.sort(rng.choice(energies[: max(1, count // 4)], count))
    elif kind == "underflow":  # rows whose every term is far below exp's range
        energies = np.sort(rng.uniform(0.0, 2000.0 * t, count))
        energies[rng.integers(0, count)] = 0.0
    # ln Z_{N-n} - ln Z_N falls with n; a per-n weight makes the exponents
    # rise and fall, which the live-width bound must not assume away
    weight = draw(st.sampled_from(["none", "noise", "spikes"]))
    if weight == "none":
        log_weight = 0.0
    elif weight == "noise":
        log_weight = rng.normal(0.0, 3.0, n_atoms)
    else:  # sparse spikes over a floor near exp's underflow: rows peak late in n
        log_weight = rng.uniform(-770.0, -720.0) + np.where(
            rng.random(n_atoms) < 0.02, rng.uniform(0.0, 60.0, n_atoms), 0.0)
    block = draw(st.sampled_from([bosegas.canonical._OCC_BLOCK, 64, 1]))
    return table, energies, log_weight, block


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(occupation_points())
@example((build_partition_table(TWO_LEVEL, make_state(1, 0.3)), np.array([0.7]), 0.0, 64))
def test_mean_occupations_match_the_dense_oracle(point):
    # the skipped terms are exactly +0.0, so every row sum is the dense one, bit for bit
    table, energies, log_weight, block = point
    with mock.patch.object(bosegas.canonical, "_OCC_BLOCK", block):
        got = mean_occupations(table, energies, log_weight)
    want = oracles.mean_occupations_dense(table, energies, log_weight)
    assert [x.hex() for x in got] == [x.hex() for x in want]


class TestOccupationSpectrum:
    def test_normalization(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, make_state(300, 30.0))
        total = spec.occupations.sum()
        assert 300 * (1 - 1e-6) <= total <= 300.0

    def test_monotone_and_degenerate(self):
        g = TrapGeometry.isotropic(3)
        spec = occupation_spectrum(g, make_state(200, 3.0))
        assert np.all(np.diff(spec.occupations) <= 1e-12)
        first_excited = spec.occupations[1:4]  # threefold degenerate level
        assert np.allclose(spec.energies[1:4], 1.0)
        assert np.ptp(first_excited) <= 1e-12 * first_excited[0]

    def test_low_temperature(self):
        g = TrapGeometry.isotropic(1)
        spec = occupation_spectrum(g, make_state(1000, 0.05))
        assert spec.condensate_occupation / 1000 == pytest.approx(1.0, abs=1e-6)
        assert spec.occupations[1] / 1000 == pytest.approx(0.0, abs=1e-6)

    @staticmethod
    def record_cutoffs(monkeypatch):
        cutoffs = []
        original = bosegas.canonical.enumerate_modes

        def recording(geometry, max_energy):
            cutoffs.append(max_energy)
            return original(geometry, max_energy)

        monkeypatch.setattr(bosegas.canonical, "enumerate_modes", recording)
        return cutoffs

    @staticmethod
    def grown(first, count):
        # the default cutoff T ln(N/tol) + slack, grown by 1.3x per enumeration
        cutoffs = [first]
        while len(cutoffs) < count:
            cutoffs.append(1.3 * cutoffs[-1])
        return cutoffs

    def test_cutoff_regrown_once(self, monkeypatch):
        cutoffs = self.record_cutoffs(monkeypatch)
        spec = occupation_spectrum(TrapGeometry.isotropic(1), make_state(20, 0.5), tol=0.01)
        assert cutoffs == self.grown(0.5 * np.log(20 / 0.01) + 1.0, 2)
        assert spec.captured_fraction >= bosegas.canonical.MIN_CAPTURED_FRACTION

    def test_cutoff_regrowth_gives_up(self, monkeypatch):
        cutoffs = self.record_cutoffs(monkeypatch)
        with pytest.raises(CutoffError) as err:
            occupation_spectrum(TrapGeometry.isotropic(3), make_state(50, 5.0), tol=0.9)
        assert cutoffs == self.grown(5.0 * np.log(50 / 0.9) + 1.0, 6)
        # the message names the last cutoff tried
        assert f"max_energy={cutoffs[-1]:g} " in str(err.value)
        assert err.value.captured_fraction < bosegas.canonical.MIN_CAPTURED_FRACTION

    def test_pancake_slack_is_two_soft_quanta(self, monkeypatch):
        # a stiff quantum of 1e4 as slack would exceed the mode-count limit
        cutoffs = self.record_cutoffs(monkeypatch)
        spec = occupation_spectrum(TrapGeometry((1.0, 1.0, 1e4)), make_state(200, 10.0))
        assert cutoffs == [10.0 * np.log(200 / 1e-10) + 2.0]
        assert np.all(spec.quanta[:, 2] == 0)
        # the first excited level is the degenerate pair of soft-axis quanta
        assert sticking_ratio(spec, 1) == sticking_ratio(spec, 2)

    def test_scale_invariance(self):
        # scaling all frequencies and T together leaves occupations unchanged
        state1 = make_state(80, 7.0)
        spec1 = occupation_spectrum(TrapGeometry((1.0, 0.5)), state1)
        factor = 3.7
        state2 = make_state(80, 7.0 * factor)
        spec2 = occupation_spectrum(TrapGeometry((factor, 0.5 * factor)), state2)
        m = min(len(spec1), len(spec2))
        assert np.allclose(
            spec1.occupations[:m], spec2.occupations[:m], rtol=1e-12, atol=1e-12
        )
        assert sticking_ratio(spec1, 1) == pytest.approx(
            sticking_ratio(spec2, 1), rel=1e-12
        )


class TestStickingRatio:
    def test_frozen_gas(self):
        spec = occupation_spectrum(TrapGeometry.isotropic(1), make_state(100, 0.05))
        assert sticking_ratio(spec, 1) == pytest.approx(0.0, abs=1e-6)

    def test_isotropic_degeneracy(self):
        spec = occupation_spectrum(TrapGeometry.isotropic(3), make_state(200, 4.0))
        # N_1 and N_2 come from the same degenerate level at isotropy
        assert sticking_ratio(spec, 1) == pytest.approx(sticking_ratio(spec, 2), rel=1e-12)

    def test_increasing_with_temperature(self):
        g = TrapGeometry.isotropic(1)
        ratios = [
            sticking_ratio(occupation_spectrum(g, make_state(150, t)), 1)
            for t in (5.0, 10.0, 20.0, 40.0)
        ]
        assert np.all(np.diff(ratios) > 0)

    def test_bad_k(self):
        spec = occupation_spectrum(TrapGeometry.isotropic(1), make_state(20, 2.0))
        with pytest.raises(ValueError):
            sticking_ratio(spec, 3)


TWO_MODES = OccupationSpectrum(
    quanta=np.arange(2, dtype=np.int32)[:, None],
    energies=np.array([0.0, 1.0]),
    occupations=np.array([90.0, 10.0]),
    captured_fraction=1.0,
)

# refusals that no other test reaches, each with the message of its check
VALUE_ERRORS = {
    "no_atoms": (lambda: ThermalState(0, 1.0), "n_atoms must be >= 1"),
    "zero_temperature": (lambda: ThermalState(5, 0.0), "temperature must be positive"),
    "negative_energy": (
        lambda: mean_occupations(build_partition_table(TWO_LEVEL, ThermalState(2, 1.0)), [-1.0]),
        "mode energies must be non-negative",
    ),
    "too_few_modes": (lambda: sticking_ratio(TWO_MODES, 2), "spectrum has only 2 modes"),
    "four_dimensions": (lambda: TrapGeometry.isotropic(4), "dimension must be 1, 2 or 3"),
    "zero_beta": (lambda: TrapGeometry.isotropic(1).log_z1(0.0), "beta must be positive"),
}


@pytest.mark.parametrize("case", sorted(VALUE_ERRORS))
def test_value_error(case):
    refused, message = VALUE_ERRORS[case]
    with pytest.raises(ValueError, match=message):
        refused()


class TestTemperatureForFraction:
    def test_self_consistency(self):
        g = TrapGeometry.isotropic(1)
        state = temperature_for_fraction(g, 1000, 0.2)
        assert ground_fraction(g, state) == pytest.approx(0.2, abs=1e-8)

    def test_near_unity_fraction_gives_low_temperature(self):
        g = TrapGeometry.isotropic(1)
        state = temperature_for_fraction(g, 200, 0.999)
        assert state.temperature < 5.0

    def test_3d_near_tc(self):
        g = TrapGeometry.isotropic(3)
        state = temperature_for_fraction(g, 1000, 0.2)
        tc = characteristic_temperature(g, 1000)
        assert 0.5 < state.temperature / tc < 1.0

    def test_monotone_ground_fraction(self):
        g = TrapGeometry.isotropic(1)
        fracs = [ground_fraction(g, make_state(300, t)) for t in (10.0, 25.0, 50.0, 80.0)]
        assert np.all(np.diff(fracs) < 0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            temperature_for_fraction(TrapGeometry.isotropic(1), 100, 1.5)

    def test_bracket_error(self):
        # N_0/N at 10 T_c is far above the target, so the bracket has no root;
        # a soft axis does not change that
        for geometry in (TrapGeometry.isotropic(1), TrapGeometry.from_aspect_ratio(1e-4)):
            with pytest.raises(BracketError):
                temperature_for_fraction(geometry, 100, 1e-300)

    @pytest.mark.parametrize("omega, n_atoms, fraction", [
        ((1.0, 1.0, 1e-4), 20, 0.9),
        ((1.0, 1.0, 1e-4), 100, 0.8),
        ((1.0, 1.0, 3e-5), 100, 0.5),
    ], ids=["aspect_1e-4_n20", "aspect_1e-4_n100", "aspect_3e-5_n100"])
    def test_soft_axis_below_bracket(self, omega, n_atoms, fraction):
        # N_0/N is below the target already at T = 1e-3; the root lies in
        # [1e-3 omega_z, 1e-3]
        g = TrapGeometry(omega)
        state = temperature_for_fraction(g, n_atoms, fraction)
        assert 1e-3 * omega[2] < state.temperature < 1e-3
        assert ground_fraction(g, state) == pytest.approx(fraction, abs=1e-9)

    @pytest.mark.parametrize("omega, n_atoms, fraction, fails", [
        ((1.0, 1.0, 1.0), 200, 0.4, False),
        ((1.0, 1.0, 1e-4), 100, 0.8, False),
        ((1.0,), 100, 1e-300, True),
        ((1.0, 1.0, 1e-4), 100, 1e-300, True),
    ], ids=["3d", "cold_bracket", "bracket_error_1d", "bracket_error_soft_axis"])
    def test_each_probe_built_once(self, table_batches, omega, n_atoms, fraction, fails):
        # one search runs one lane per batch; count the lanes each batch builds
        if fails:
            with pytest.raises(BracketError) as info:
                temperature_for_fraction(TrapGeometry(omega), n_atoms, fraction)
        else:
            temperature_for_fraction(TrapGeometry(omega), n_atoms, fraction)
        batches = [[state.temperature for (_, state), _ in batch] for batch in table_batches]
        assert all(len(batch) == 1 for batch in batches)
        built = [t for batch in batches for t in batch]
        if fails:
            assert [t for t, _ in info.value.samples] == built
        assert len(built) == len(set(built))

    @pytest.mark.parametrize("omega, n_atoms, fraction", [
        ((1.0,), 300, 0.2),
        ((1.0, 1.0, 0.05), 200, 0.4),
        ((1.0, 1.0, 1e-4), 100, 0.8),
    ], ids=["1d", "cigar", "cold_bracket"])
    def test_returns_root_table(self, table_batches, omega, n_atoms, fraction):
        g = TrapGeometry(omega)
        table = temperature_for_fraction(g, n_atoms, fraction)
        assert all(len(batch) == 1 for batch in table_batches)
        built = [probe for batch in table_batches for _, probe in batch]
        assert isinstance(table, bosegas.canonical.PartitionTable)
        assert isinstance(table, ThermalState)
        # the table of one of Brent's probes, not a build after the search
        assert any(probe is table for probe in built)
        rebuilt = build_partition_table(g, ThermalState(n_atoms, table.temperature))
        assert table.log_z.tobytes() == rebuilt.log_z.tobytes()
        assert mean_occupation(table, 0.0) / n_atoms == pytest.approx(fraction, abs=1e-9)


class TestLockstep:
    """Searches run in lockstep give each point's one-point search, bit for bit."""

    @staticmethod
    def check(points, tables):
        for point, table in zip(points, tables):
            alone = temperature_for_fraction(*point)
            assert table.temperature.hex() == alone.temperature.hex()
            assert table.log_z.tobytes() == alone.log_z.tobytes()

    def test_readme_aspect_ratios(self, table_batches):
        # every 8th of the 161 ratios of the README aspect command
        ratios = np.geomspace(1e-4, 1e4, 161)[::8]
        points = [(TrapGeometry.from_aspect_ratio(float(r)), 1000, 0.4) for r in ratios]
        tables = _raise_first(_search_outcomes(points))
        assert len(ratios) == 21 and len(table_batches[0]) == 21
        self.check(points, tables)

    def test_canonical_sticking_atom_numbers(self, table_batches):
        g = TrapGeometry.isotropic(1)
        points = [(g, n, 0.2) for n in (50, 100, 200, 400, 800, 1600)]
        tables = _raise_first(_search_outcomes(points))
        assert len(table_batches[0]) == len(points)
        self.check(points, tables)

    def test_first_failed_point_raises(self):
        # Brent's BracketError names no target: the N = 100 point is the one
        # whose upper bracket end is 10 T_c at N = 100
        g = TrapGeometry.isotropic(1)
        with pytest.raises(BracketError) as info:
            _raise_first(_search_outcomes([(g, 100, 0.3), (g, 100, 1e-200), (g, 50, 1e-300)]))
        assert info.value.samples[1][0] == 10.0 * characteristic_temperature(g, 100)
