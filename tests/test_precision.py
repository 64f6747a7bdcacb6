"""High-precision references and the canonical-to-grand limit.

The first test reruns the Z_N recursion and the occupation sums in 50-digit
mpmath arithmetic, in the linear domain, and checks ln Z_m (m = 1..N), N_0 and
N_1 of the float code against it.  The second checks g1(-x, x) and the
density of the thermal path against 40-digit sums of Mehler's closed forms,
in the isotropic 3D trap and in three cigars at their T_ph.
Each bound is twice the error measured at that point (numpy 2.4 on x86-64),
so a change that loses precision fails.
"""

import math

import mpmath
import pytest

from bosegas import (
    ThermalState,
    TrapGeometry,
    build_partition_table,
    characteristic_temperature,
    mean_occupation,
    mean_occupations,
    sticking_ratio_gc,
    temperature_for_fraction,
    temperature_for_fraction_gc,
)
from bosegas.coherence import thermal_profile

# (omega, N, T, measured max |d ln Z_m|, measured max relative error of N_0 and N_1)
POINTS = [
    ((1.0,), 400, 30.0, 1.6e-14, 2.2e-15),
    ((1.0,), 400, 60.0, 7.0e-14, 1.7e-15),
    ((1.0, 0.6), 200, 6.0, 9.2e-14, 7.2e-15),
    ((1.0, 1.0, 1.0), 200, 2.75, 3.2e-14, 1.1e-15),
    ((1.0, 1.0, 1.0), 200, 5.0, 1.05e-12, 5.2e-14),
    ((1.0, 1.0, 0.3), 200, 2.6, 1.6e-13, 1.1e-14),
    # at 10 T_c, the upper end of every T(N_0/N) bracket, 29 % (N = 200) and
    # 59 % (N = 400) of the recursion's exponents lie below exp's fast range
    ((1.0, 1.0, 1.0), 200, 55.0, 6.6e-12, 2.0e-14),
    ((1.0, 1.0, 1.0), 400, 69.3, 1.4e-11, 1.9e-13),
    ((1.0, 1.0, 1e-2), 400, 14.93, 1.4e-12, 2.1e-13),
]


def reference_log_z(omega, n_atoms, beta):
    """ln Z_0 .. ln Z_N from the linear-domain recursion in mpmath."""
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        z1 = [
            mpmath.fprod(1 / (1 - mpmath.exp(-k * b * w)) for w in omega)
            for k in range(1, n_atoms + 1)
        ]
        z = [mpmath.mpf(1)]
        for m in range(1, n_atoms + 1):
            z.append(mpmath.fsum(z1[k - 1] * z[m - k] for k in range(1, m + 1)) / m)
        return [mpmath.log(v) for v in z]


def reference_occupation(log_z, beta, energy):
    """sum_{n=1..N} exp(-n beta eps) Z_{N-n}/Z_N in mpmath."""
    n_atoms = len(log_z) - 1
    with mpmath.workdps(50):
        b, e = mpmath.mpf(beta), mpmath.mpf(energy)
        return mpmath.fsum(
            mpmath.exp(-n * b * e + log_z[n_atoms - n] - log_z[n_atoms])
            for n in range(1, n_atoms + 1)
        )


@pytest.mark.parametrize("omega, n_atoms, temperature, log_z_err, occ_err", POINTS)
def test_against_mpmath(omega, n_atoms, temperature, log_z_err, occ_err):
    geometry = TrapGeometry(omega)
    state = ThermalState(n_atoms, temperature)
    table = build_partition_table(geometry, state)
    log_z = reference_log_z(omega, n_atoms, state.beta)
    worst = max(abs(float(ref - got)) for ref, got in zip(log_z[1:], table.log_z[1:]))
    assert worst <= 2 * log_z_err
    for energy in (0.0, geometry.min_frequency):
        ref = reference_occupation(log_z, state.beta, energy)
        for got in (mean_occupation(table, energy), mean_occupations(table, [energy])[0]):
            assert abs(float(got / ref - 1)) <= 2 * occ_err


def reference_mirror_sums(omega, axis, log_z, beta, xi):
    """(g1, density) at the points xi from Mehler's closed forms in mpmath.

    With t = exp(-s), s = n beta omega, sum_k phi_k(x) phi_k(+-x) t^k is
    exp(-x^2 tanh(s/2)) or exp(-x^2 / tanh(s/2)), over sqrt(pi (1 - t^2));
    each transverse axis contributes its value at x = 0 times sqrt(omega).
    """
    n_atoms = len(log_z) - 1
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        coef, half_angle = [], []
        for n in range(1, n_atoms + 1):
            c = mpmath.exp(log_z[n_atoms - n] - log_z[n_atoms])
            for other, w in enumerate(omega):
                c /= mpmath.sqrt(mpmath.pi * -mpmath.expm1(-2 * n * b * w))
                if other != axis:
                    c *= mpmath.sqrt(w)
            coef.append(c)
            half_angle.append(mpmath.tanh(n * b * omega[axis] / 2))
        g1, density = [], []
        for x in xi:
            x2 = mpmath.mpf(float(x)) ** 2
            diag = mpmath.fsum(c * mpmath.exp(-x2 * h) for c, h in zip(coef, half_angle))
            anti = mpmath.fsum(c * mpmath.exp(-x2 / h) for c, h in zip(coef, half_angle))
            g1.append(anti / diag)
            density.append(mpmath.sqrt(omega[axis]) * diag)
        return g1, density


def check_mirror_sums(geometry, state, step, g1_err, density_err):
    """thermal_profile on the coherence_vs_width grid against the reference on
    every step-th point of x >= 0; both curves are even, so both halves are
    checked against it."""
    grid, profile = thermal_profile(geometry, state, 1201, 1e-8)
    axis = grid.axis
    log_z = reference_log_z(geometry.omega, state.n_atoms, state.beta)
    c = grid.center
    xi = grid.points[c::step] * math.sqrt(geometry.omega[axis])
    ref_g1, ref_density = reference_mirror_sums(geometry.omega, axis, log_z, state.beta, xi)
    for half in (slice(c, None, step), slice(c, None, -step)):
        worst_g1 = max(abs(float(r - v)) for r, v in zip(ref_g1, profile.g1[half]))
        worst_density = max(
            abs(float(v / r - 1)) for r, v in zip(ref_density, profile.density[half])
        )
        assert worst_g1 <= 2 * g1_err
        assert worst_density <= 2 * density_err


# (N, T/T_c, measured max |d g1|, measured max relative error of the density)
MIRROR_POINTS = [
    (100, 0.3, 5.2e-9, 6.9e-9),
    (400, 1.0, 6.3e-12, 2.2e-11),
]


@pytest.mark.parametrize("n_atoms, t_over_tc, g1_err, density_err", MIRROR_POINTS)
def test_mirror_sums_against_mpmath(n_atoms, t_over_tc, g1_err, density_err):
    # the isotropic 3D trap, the reference on every grid point
    geometry = TrapGeometry.isotropic(3)
    state = ThermalState(n_atoms, t_over_tc * characteristic_temperature(geometry, n_atoms))
    check_mirror_sums(geometry, state, 1, g1_err, density_err)


# (omega_z, T = find_tph((1, 1, omega_z), 1000)[0], measured max |d g1|,
# measured max relative error of the density)
CIGAR_MIRROR_POINTS = [
    (1e-2, 0.7942221952584689, 1.4e-13, 9.9e-12),
    (1e-3, 0.08623728045758983, 9.4e-14, 9.8e-12),
    (1e-4, 0.008631449223178225, 9.2e-14, 9.7e-12),
]


@pytest.mark.parametrize("omega_z, temperature, g1_err, density_err", CIGAR_MIRROR_POINTS)
def test_cigar_mirror_sums_against_mpmath(omega_z, temperature, g1_err, density_err):
    # the cigars that the T_ph search probes at N = 1000, each at its T_ph;
    # the reference on every 30th point
    geometry = TrapGeometry((1.0, 1.0, omega_z))
    check_mirror_sums(geometry, ThermalState(1000, temperature), 30, g1_err, density_err)


def test_canonical_approaches_grand_in_3d():
    # |canonical / grand - 1| for N_1/N_0 at C = 0.2, grand from the exact
    # fugacity solve, measured 0.107, 0.069 and 0.029.  Not asserted in 1D,
    # where the gap grows over this range (0.075 to 0.131).
    geometry = TrapGeometry.isotropic(3)
    gaps = []
    for n_atoms in (100, 400, 1600):
        state = temperature_for_fraction(geometry, n_atoms, 0.2)
        table = build_partition_table(geometry, state)
        canonical = mean_occupation(table, 1.0) / mean_occupation(table, 0.0)
        grand = sticking_ratio_gc(
            temperature_for_fraction_gc(geometry, n_atoms, 0.2, mode="exact")
        )
        gaps.append(abs(canonical / grand - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.04
