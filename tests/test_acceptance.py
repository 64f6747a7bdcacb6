"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture) for one numbered
criterion, then asserts it.  Several of these are expensive: the full module
takes minutes, dominated by the crossover-temperature sweeps in criterion 6.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from bosegas import (
    OccupationSpectrum,
    ThermalState,
    TrapGeometry,
    build_partition_table,
    characteristic_temperature,
    closed_form_sticking,
    find_tph,
    g1_curve,
    mean_occupation,
    occupancy_distribution,
    occupation_spectrum,
    temperature_for_fraction,
)
from bosegas.brent import _raise_first
from bosegas.canonical import _search_outcomes
from bosegas.coherence import AxisGrid, default_extent, fwhm


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def canonical_sticking(geometry, n_atoms, fraction, energy=None):
    """N_1/N_0 at fixed condensate fraction from the fixed-N recursion."""
    table = temperature_for_fraction(geometry, n_atoms, fraction)
    if energy is None:
        energy = geometry.min_frequency
    return mean_occupation(table, energy) / mean_occupation(table, 0.0)


def test_criterion_1_oracle_equivalence(capsys):
    """Recursion vs exhaustive enumeration: <= 12 levels, N <= 4, 1e-12 rel."""
    worst = 0.0
    rng = np.random.default_rng(2024)
    for trial in range(8):
        n_levels = int(rng.integers(2, 13))
        energies = np.concatenate(
            [[0.0], np.sort(rng.uniform(0.1, 5.0, n_levels - 1))]
        )
        beta = float(rng.uniform(0.2, 4.0))
        system = oracles.FiniteSpectrum(energies)
        for n_atoms in range(1, 5):
            table = build_partition_table(system, ThermalState(n_atoms, 1.0 / beta))
            z_ref = oracles.partition_function(energies, beta, n_atoms)
            worst = max(worst, abs(math.exp(table.log_z[n_atoms]) / z_ref - 1.0))
            for level in range(n_levels):
                p_ref = np.array(
                    oracles.occupancy_distribution(energies, beta, n_atoms, level)
                )
                p = occupancy_distribution(table, energies[level])
                scale = max(1.0, np.max(np.abs(p_ref)))
                worst = max(worst, float(np.max(np.abs(p - p_ref))) / scale)
                occ_ref = oracles.mean_occupation(energies, beta, n_atoms, level)
                occ = mean_occupation(table, energies[level])
                worst = max(worst, abs(occ - occ_ref) / max(1.0, occ_ref))
    report(capsys, 1, worst < 1e-12, f"max relative deviation {worst:.2e}")


@pytest.mark.slow
def test_criterion_2_normalization(capsys):
    """Sum of all mode occupations within [N(1 - 1e-6), N] across dims/temps."""
    n = 1000
    worst_low, worst_high = 1.0, 0.0
    for dim in (1, 2, 3):
        g = TrapGeometry.isotropic(dim)
        tc = characteristic_temperature(g, n)
        for t in np.linspace(1.2 * tc / 20, 1.2 * tc, 20):
            total = occupation_spectrum(g, ThermalState(n, float(t))).occupations.sum()
            worst_low = min(worst_low, total / n)
            worst_high = max(worst_high, total / n)
    ok = worst_low >= 1.0 - 1e-6 and worst_high <= 1.0 + 1e-12
    report(capsys, 2, ok, f"sum/N in [{worst_low:.9f}, {worst_high:.9f}]")


def test_criterion_3_ensemble_comparison(capsys):
    """Canonical vs grand-canonical N_1/N_0 at C = 0.2 (finite-size figure)."""
    samples = [50, 100, 200, 400, 800, 1600]
    gaps = {}
    for dim in (1, 2, 3):
        g = TrapGeometry.isotropic(dim)
        gaps[dim] = [
            abs(canonical_sticking(g, n, 0.2) / closed_form_sticking(dim, n, 0.2) - 1.0)
            for n in samples
        ]
    # (a) 1D grand-canonical ratio stays above 0.1 all the way to N = 1e15
    big_n = list(samples) + list(np.geomspace(1e4, 1e15, 12))
    min_1d = min(closed_form_sticking(1, n, 0.2) for n in big_n)
    ok_a = min_1d > 0.1
    # (b) 2D/3D gap <= 5% at N = 1600 and smaller than at N = 50
    ok_b = all(gaps[d][-1] <= 0.05 and gaps[d][-1] < gaps[d][0] for d in (2, 3))
    # (c) the 1D gap at N = 1600 exceeds the 2D gap
    ok_c = gaps[1][-1] > gaps[2][-1]
    report(
        capsys,
        3,
        ok_a and ok_b and ok_c,
        f"min 1D grand ratio {min_1d:.4f}; gaps at N=1600: "
        f"1D {gaps[1][-1]:.4f}, 2D {gaps[2][-1]:.4f}, 3D {gaps[3][-1]:.4f}",
    )


def test_criterion_4_asymptotic_exponents(capsys):
    slope_2d = oracles.sticking_slope(2, np.geomspace(1e8, 1e12, 5))
    slope_3d = oracles.sticking_slope(3, np.geomspace(1e8, 1e12, 5))
    drift_1d = oracles.log_law_drift(np.geomspace(1e10, 1e15, 6))
    ok = (
        abs(slope_2d + 0.50) <= 0.05
        and abs(slope_3d + 2.0 / 3.0) <= 0.05
        and drift_1d < 0.10
    )
    report(
        capsys,
        4,
        ok,
        f"2D slope {slope_2d:.4f}, 3D slope {slope_3d:.4f}, "
        f"1D per-decade drift {drift_1d:.4f}",
    )


def test_criterion_5_spot_values(capsys):
    # frozen high-precision references (N = 1000, C = 0.2)
    expect = {
        1: 0.42792068758802637,
        2: 0.09686031347745443,
        3: 0.03938227604287086,
    }
    worst = max(
        abs(closed_form_sticking(d, 1000, 0.2) / v - 1.0) for d, v in expect.items()
    )
    report(capsys, 5, worst < 1e-6, f"max relative deviation {worst:.2e}")


def test_criterion_6_crossover_temperature(capsys):
    """Quasicondensation crossover: 1D vs 3D behavior of T_ph and N_0(T_ph)."""
    samples = [100, 200, 400, 800, 1600]
    frac = {1: [], 3: []}
    t_rel = {1: [], 3: []}
    for dim in (1, 3):
        g = TrapGeometry.isotropic(dim)
        for n in samples:
            t_ph, n0 = find_tph(g, n)
            frac[dim].append(n0 / n)
            t_rel[dim].append(t_ph / characteristic_temperature(g, n))
    ok_1d = all(f > 0.5 for f in frac[1])
    ok_below = all(f3 < f1 for f1, f3 in zip(frac[1], frac[3]))
    drop_1d = frac[1][0] - frac[1][-1]
    drop_3d = frac[3][0] - frac[3][-1]
    ok_faster = drop_3d > drop_1d
    ok_trel = all(t3 > t1 for t1, t3 in zip(t_rel[1], t_rel[3]))
    ok = ok_1d and ok_below and ok_faster and ok_trel
    report(
        capsys,
        6,
        ok,
        f"1D N0_ph/N in [{min(frac[1]):.3f}, {max(frac[1]):.3f}], "
        f"3D in [{min(frac[3]):.3f}, {max(frac[3]):.3f}]; "
        f"declines 1D {drop_1d:.3f} vs 3D {drop_3d:.3f}; "
        f"T_ph/T_c 3D>1D at all N: {ok_trel}",
    )


@pytest.mark.slow
def test_criterion_7_aspect_ratio_sweep(capsys):
    """Dimensional crossover of N_1/N_0 and N_2/N_0 versus trap anisotropy."""
    n, c = 1000, 0.4
    ratios = np.geomspace(1e-4, 1e4, 161)  # 20 points/decade, 4 decades each side
    # one lockstep batch, as the README aspect command runs it
    tables = _raise_first(
        _search_outcomes([(TrapGeometry.from_aspect_ratio(float(r)), n, c) for r in ratios])
    )
    s1 = np.empty_like(ratios)
    s2 = np.empty_like(ratios)
    for i, (r, table) in enumerate(zip(ratios, tables)):
        low = sorted(
            i1 + j1 + k1 * r for i1 in range(3) for j1 in range(3) for k1 in range(3)
        )
        n0 = mean_occupation(table, 0.0)
        s1[i] = mean_occupation(table, low[1]) / n0
        s2[i] = mean_occupation(table, low[2]) / n0
    mid = len(ratios) // 2
    assert ratios[mid] == pytest.approx(1.0, rel=1e-12)
    ok_degenerate = abs(s1[mid] - s2[mid]) < 1e-10
    # extreme-ratio limits against pure lower-dimensional computations
    pure_1d = canonical_sticking(TrapGeometry.isotropic(1), n, c)
    pure_2d = canonical_sticking(TrapGeometry.isotropic(2), n, c)
    err_1d = abs(s1[0] / pure_1d - 1.0)
    err_2d = abs(s1[-1] / pure_2d - 1.0)
    ok_limits = err_1d < 0.02 and err_2d < 0.02
    # continuity: the correct curve is steep (adjacent relative changes reach
    # ~8% at 20 points/decade) and has slope kinks where the identity of the
    # 2nd/3rd-lowest excitation energy switches (ratios 1/2, 1, 2).  A jump is
    # therefore (i) an absolute adjacent change above 0.05 anywhere, or
    # (ii) a >5% deviation from the neighbor geometric mean away from kinks.
    jump_abs = max(float(np.max(np.abs(np.diff(c)))) for c in (s1, s2))
    smooth_mask = np.ones(len(ratios) - 2, dtype=bool)
    for crossing in (0.5, 1.0, 2.0):
        smooth_mask &= ~((ratios[:-2] < crossing) & (crossing < ratios[2:]))
    jump_rel = max(
        float(
            np.max(
                np.abs(c[1:-1] / np.sqrt(c[:-2] * c[2:]) - 1.0)[smooth_mask]
            )
        )
        for c in (s1, s2)
    )
    ok_smooth = jump_abs < 0.05 and jump_rel < 0.05
    report(
        capsys,
        7,
        ok_degenerate and ok_limits and ok_smooth,
        f"|N1-N2|/N0 at ratio 1: {abs(s1[mid] - s2[mid]):.2e}; "
        f"limit errors 1D {err_1d:.4f}, 2D {err_2d:.4f}; "
        f"max abs jump {jump_abs:.4f}, max off-kink smoothness dev {jump_rel:.4f}",
    )


def test_criterion_8_coherence_sanity(capsys):
    g = TrapGeometry.isotropic(1)
    # (i) all atoms in the ground mode: g1 identically 1
    quanta = np.arange(7, dtype=np.int32)[:, None]
    occ = np.zeros(7)
    occ[0] = 1000.0
    pure = OccupationSpectrum(
        quanta=quanta,
        energies=quanta[:, 0].astype(float),
        occupations=occ,
        captured_fraction=1.0,
    )
    grid = AxisGrid.symmetric(6.0)
    g1, density = g1_curve(pure, g, grid)
    dev_g1 = float(np.max(np.abs(g1 - 1.0)))
    # (ii) ground-state density FWHM = 2 sqrt(ln 2) on the default grid
    width = fwhm(density, grid, curve="density")
    err_w = abs(width - 2.0 * math.sqrt(math.log(2.0)))
    # (iii) evenness and |g1| <= 1 over the thermal-profile temperature range
    tc = characteristic_temperature(g, 1000)
    worst_even, worst_bound = 0.0, 0.0
    for f in (0.2, 0.5, 0.8, 1.0):
        state = ThermalState(1000, f * tc)
        spec = occupation_spectrum(g, state)
        tg = AxisGrid.symmetric(default_extent(g, state.temperature, 0), 1201)
        curve, _ = g1_curve(spec, g, tg)
        worst_even = max(worst_even, float(np.max(np.abs(curve - curve[::-1]))))
        worst_bound = max(worst_bound, float(np.max(np.abs(curve)) - 1.0))
    ok = dev_g1 < 1e-10 and err_w < 1e-4 and worst_even < 1e-12 and worst_bound <= 1e-12
    report(
        capsys,
        8,
        ok,
        f"max |g1-1| pure condensate {dev_g1:.2e}; FWHM error {err_w:.2e}; "
        f"asymmetry {worst_even:.2e}; |g1|-1 max {worst_bound:.2e}",
    )


def test_criterion_9_cli_determinism(capsys, tmp_path):
    argv = [
        sys.executable, "-m", "bosegas.cli",
        "occupations", "--dim", "1", "--natoms", "400",
        "--t-over-tc", "0.2:1.2:6",
    ]
    outputs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"{tag}.csv"
        env = dict(os.environ, BOSE_THREADS=threads)
        res = subprocess.run(
            argv + ["--out", str(path)], env=env, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(capsys, 9, ok, f"3 invocations, {len(outputs[0])} bytes each, identical: {ok}")
