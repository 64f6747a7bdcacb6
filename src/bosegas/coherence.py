"""Real-space observables of the trapped ideal gas along one principal axis.

The one-body density matrix is diagonal in the oscillator eigenbasis, so the
normalized mirror-point correlation function reduces to a parity-weighted
mode sum along the axis:

    g1(-x, x) = sum_k W_k (-1)^k phi_k(xi)^2 / sum_k W_k phi_k(xi)^2,

with xi = x*sqrt(omega_axis) and W_k the occupation of axis quantum number k
marginalized over the transverse quanta, each weighted by |phi(0)|^2 of its
own axis.  For an explicit spectrum W_k is that sum over the listed modes;
for the gas at a state point Mehler's kernel at the trap centre sums each
transverse axis in closed form, so W_k comes from the Z_N table alone.
Coherence length and cloud width are the FWHM of g1 and of the density cut
respectively; T_ph is the temperature where they cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .brent import _raise_first, lockstep
from .canonical import (
    MIN_CAPTURED_FRACTION,
    OccupationSpectrum,
    ThermalState,
    build_partition_table,
    build_partition_tables,
    grow_cutoff,
    mean_occupation,
    mean_occupations,
)
from .errors import BracketError, GridExtentError, NumericalError
from .trap import TrapGeometry, _quanta_counts, characteristic_temperature

_RESCALE_THRESHOLD = 1e130

# coherence_vs_width and find_tph work on the softest axis with these settings
_GRID_COUNT = 1201
_CAPTURE_TOL = 1e-8
_T_REL_TOL = 5e-3


@dataclass(frozen=True)
class AxisGrid:
    """Uniform symmetric grid along one principal axis, containing 0 exactly."""

    axis: int
    points: np.ndarray = field(repr=False)
    extent: float
    count: int

    @classmethod
    def symmetric(cls, extent: float, count: int = 2001, axis: int = 0) -> "AxisGrid":
        if not 0 < extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {extent}")
        if not float(count).is_integer() or count < 3 or count % 2 == 0:
            raise ValueError(f"count must be an odd integer >= 3, got {count}")
        count = int(count)
        half = np.linspace(0.0, float(extent), (count + 1) // 2)
        points = np.concatenate([-half[:0:-1], half])  # exact (-x, x) pairs
        return cls(axis=axis, points=points, extent=float(extent), count=count)

    @property
    def center(self) -> int:
        return self.count // 2


@dataclass(frozen=True)
class CorrelationProfile:
    """g1(-x, x) and density along one axis, with FWHM-derived lengths."""

    g1: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    coherence_length: float
    cloud_width: float


def fwhm(values, grid: AxisGrid, curve: str = "curve") -> float:
    """Full width at half maximum of a curve peaked at the grid center.

    The two half-maximum crossings nearest the center are located by linear
    interpolation between bracketing grid points.
    """
    v = np.asarray(values, dtype=float)
    c = grid.center
    vmax = v[c]
    if vmax < np.nanmax(v) * (1.0 - 1e-9):
        raise ValueError(f"{curve} is not peaked at the grid center")
    half = 0.5 * vmax
    x = grid.points

    def crossing(indices):
        prev = c
        for i in indices:
            if v[i] < half:
                frac = (v[prev] - half) / (v[prev] - v[i])
                return x[prev] + frac * (x[i] - x[prev])
            prev = i
        raise GridExtentError(
            f"{curve} never falls below half maximum within extent {grid.extent:g}",
            curve=curve,
        )

    right = crossing(range(c + 1, grid.count))
    left = crossing(range(c - 1, -1, -1))
    return float(right - left)


def g1_curve(spectrum: OccupationSpectrum, geometry: TrapGeometry, grid: AxisGrid):
    """(g1, density) of an explicit spectrum sampled on the grid, without the
    FWHM extraction.

    g1 is NaN where the density underflows to exactly 0.
    """
    axis = grid.axis
    if axis >= geometry.dimension:
        raise ValueError(f"axis {axis} not present in a {geometry.dimension}-dimensional trap")
    omega_axis = geometry.omega[axis]
    if spectrum.captured_fraction < MIN_CAPTURED_FRACTION:
        raise ValueError(
            f"spectrum captures only {spectrum.captured_fraction:.9f} of the atoms; "
            f"rebuild with a larger cutoff"
        )

    # Marginal weight per axis quantum number: transverse modes enter through
    # |phi(0)|^2 of their own axis (odd ones vanish there).
    weight = spectrum.occupations
    transverse = [other for other in range(geometry.dimension) if other != axis]
    q_max = max((int(spectrum.quanta[:, other].max()) for other in transverse), default=0)
    # phi_q(0) by _mirror_sums' recurrence at x = 0, where its x term is +-0,
    # the envelope is 1 and no rescale fires
    phi_0 = [math.pi ** -0.25, 0.0]
    for q in range(1, q_max):
        phi_0.append(-(math.sqrt(q / (q + 1)) * phi_0[q - 1]))
    phi_sq = np.array(phi_0) ** 2
    for other in transverse:
        weight = weight * math.sqrt(geometry.omega[other]) * phi_sq[spectrum.quanta[:, other]]
    w = np.bincount(spectrum.quanta[:, axis], weights=weight)
    return _mirror_sums(w, omega_axis, grid)


def _mirror_sums(weights: np.ndarray, omega_axis: float, grid: AxisGrid):
    """(g1, density) on the grid from the axis weights W_0..W_K.

    The oscillator eigenfunctions come from the Hermite recurrence
    phi_0 = pi^(-1/4) exp(-xi^2/2),
    phi_k = xi sqrt(2/k) phi_{k-1} - sqrt((k-1)/k) phi_{k-2},
    run as phi_k = u_k exp(scale) in place on three rotating buffers, in the
    operation order ((xi*c1)*u_{k-1}) - (c2*u_{k-2}).  Where |u| passes 1e130
    its log moves into the per-point scale, so the Gaussian seed cannot
    underflow prematurely at large |xi|.  The pass runs on the xi >= 0 half
    of the grid and is mirrored: phi_k(-xi) = (-1)^k phi_k(xi) exactly, so
    every sum is that of the full grid, bit for bit.  A grid reaching past
    xi = 1e154, where xi^2 overflows, and a density that overflows raise
    NumericalError.
    """
    sqrt_omega = math.sqrt(omega_axis)
    if not grid.extent * sqrt_omega <= 1e154:
        raise NumericalError(
            f"the grid reaches xi = {grid.extent * sqrt_omega:g}, "
            f"past the 1e154 where xi^2 overflows"
        )
    xi = grid.points[grid.center:] * sqrt_omega
    scale = -0.5 * xi * xi  # log of the factored-out envelope
    escale = np.exp(scale)
    u = np.full_like(xi, math.pi ** -0.25)
    u_prev = np.zeros_like(xi)
    spare = np.empty_like(xi)
    num = np.zeros_like(xi)
    den = np.zeros_like(xi)
    phi = np.empty_like(xi)
    contrib = np.empty_like(xi)
    for k, w in enumerate(weights):
        if k:
            np.multiply(xi, math.sqrt(2.0 / k), out=spare)
            np.multiply(spare, u, out=spare)
            np.multiply(u_prev, math.sqrt((k - 1) / k), out=u_prev)
            np.subtract(spare, u_prev, out=spare)
            u_prev, u, spare = u, spare, u_prev
            if np.maximum.reduce(np.abs(u, out=spare)) > _RESCALE_THRESHOLD:
                big = np.abs(u) > _RESCALE_THRESHOLD
                shift = np.where(big, np.log(np.abs(np.where(big, u, 1.0))), 0.0)
                damp = np.exp(-shift)
                np.multiply(u, damp, out=u)
                np.multiply(u_prev, damp, out=u_prev)
                scale = scale + shift
                escale = np.exp(scale)
        np.multiply(u, escale, out=phi)
        np.multiply(phi, w, out=contrib)
        np.multiply(contrib, phi, out=contrib)
        np.add(den, contrib, out=den)
        # odd modes enter num with the sign (-1)^k
        (np.subtract if k & 1 else np.add)(num, contrib, out=num)

    if not float(den.max()) * sqrt_omega < math.inf:
        raise NumericalError("the density at the trap centre overflows the float range")
    den, num = (np.concatenate([v[:0:-1], v]) for v in (den, num))
    density = sqrt_omega * den
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = np.where(den > 0.0, num / den, math.nan)
    excess = np.nanmax(np.abs(g1)) - 1.0
    if excess > 1e-12:
        raise NumericalError(f"|g1| exceeded 1 by {excess:.3e}")
    return g1, density


def g1_profile(
    spectrum: OccupationSpectrum, geometry: TrapGeometry, grid: AxisGrid
) -> CorrelationProfile:
    """Mirror-point g1 and density along the grid axis through the trap center.

    The coherence length is inf when g1 stays above half maximum on the grid;
    the density must cross it there (GridExtentError otherwise).
    """
    return _correlation_profile(*g1_curve(spectrum, geometry, grid), grid)


def _correlation_profile(g1, density, grid: AxisGrid) -> CorrelationProfile:
    cloud_width = fwhm(density, grid, curve="density")
    try:
        coherence_length = fwhm(g1, grid, curve="g1")
    except GridExtentError:
        coherence_length = math.inf
    return CorrelationProfile(
        g1=g1,
        density=density,
        coherence_length=coherence_length,
        cloud_width=cloud_width,
    )


@np.errstate(over="ignore")  # n*beta may overflow to inf, its limit
def thermal_profile(
    geometry: TrapGeometry, state: ThermalState, count: int, tol: float,
    extent: float | None = None,
) -> tuple[AxisGrid, CorrelationProfile]:
    """(grid, g1_profile) of the gas at a state point, with no mode list, on
    count points along the softest axis over extent (default_extent if None).

    Mehler's kernel at the trap centre, sum_q phi_q(0)^2 t^q = 1/sqrt(pi (1 - t^2)),
    sums each transverse axis o in closed form.  With C_n = Z_{N-n}/Z_N and
    t_i = exp(-n*beta*omega_i) the axis weights, for k = 0..K below the cutoff
    of grow_cutoff (ResourceLimitError if K + 1 > MODE_LIMIT), are
        W_k = sum_n C_n t_a^k prod_{o != a} sqrt(omega_o/pi) / sqrt(1 - t_o^2);
    in 1D they are the occupations of occupation_spectrum, bit for bit.  A
    state that is a PartitionTable of this geometry is used as it is.
    """
    axis = int(np.argmin(geometry.omega))
    omega_axis = geometry.omega[axis]
    table = build_partition_table(geometry, state)
    n_beta = table.beta * np.arange(1, state.n_atoms + 1)
    # ln(C_n Z_1(n beta)); C_n Z_1(n beta) sums to N over n
    log_cz1 = table.log_z[-2::-1] - table.log_z[-1] + geometry.log_z1(n_beta)

    def capture(cutoff):
        levels = _quanta_counts(cutoff, omega_axis, cutoff)
        # the atoms in modes with fewer than `levels` axis quanta:
        # sum_n C_n prod_{o != a} (1 - t_o)^-1 (1 - t_a^levels)/(1 - t_a)
        kept = np.log(-np.expm1(-levels * n_beta * omega_axis))
        return float(np.exp(log_cz1 + kept).sum()) / state.n_atoms, int(levels) - 1

    k_max = grow_cutoff(geometry, state, tol, capture)
    if extent is None:
        extent = default_extent(geometry, state.temperature, axis)
    grid = AxisGrid.symmetric(extent, count, axis=axis)
    log_weight = 0.0  # ln prod_{o != a} sqrt(omega_o/pi) / sqrt(1 - t_o^2)
    for other, omega in enumerate(geometry.omega):
        if other != axis:
            one_minus_t_sq = -np.expm1(-2.0 * n_beta * omega)
            log_weight += 0.5 * (math.log(omega / math.pi) - np.log(one_minus_t_sq))
    weights = mean_occupations(table, np.arange(k_max + 1) * omega_axis, log_weight)
    return grid, _correlation_profile(*_mirror_sums(weights, omega_axis, grid), grid)


def default_extent(geometry: TrapGeometry, temperature: float, axis: int) -> float:
    """1.5x the thermal cloud radius along the axis (floored near T = 0)."""
    omega_axis = geometry.omega[axis]
    radius = max(math.sqrt(2.0 * temperature / omega_axis), 3.0)
    return 1.5 * radius / math.sqrt(omega_axis)


def coherence_vs_width(geometry: TrapGeometry, state: ThermalState):
    """(coherence_length, cloud_width) at one temperature, along the softest
    axis.

    One thermal_profile on the default grid of that axis: the coherence
    length is infinite when g1 stays above half maximum across it.
    """
    _, profile = thermal_profile(geometry, state, _GRID_COUNT, _CAPTURE_TOL)
    return profile.coherence_length, profile.cloud_width


def find_tph(geometry: TrapGeometry, n_atoms: int) -> tuple[float, float]:
    """Crossover temperature where coherence length equals cloud width.

    Below T_ph the coherence length exceeds the cloud size (true condensate);
    above it the order is reversed (quasicondensate).  Lengths are taken along
    the softest axis.  Returns (T_ph, N_0 at T_ph).  Canonical statistics only.

    The bracket starts at [0.05, 1.2] T_c.  Each end moves outward by a factor
    1.4 until l_phi - width is positive at the low end and negative at the high
    end, the low end down to 1e-3 T_c and the high end up to 4 T_c; if either
    end is still on the wrong side there, BracketError carries the two final
    ends as its samples; a probe at T = inf, or one whose table is refused,
    raises NumericalError.  Bisection then narrows the bracket to a relative
    width of 5e-3 and returns its midpoint.  N_0 is the condensate occupation
    read once from the table of the last bisection probe, which lies within
    0.5 % of T_ph in T, not at the returned midpoint itself.  This is the
    one-point case of the lockstep batch _tph_outcomes.

    l_phi - width is assumed to fall with T: a probe above one where it is
    <= 0, the 1.2 T_c end included, is taken as negative and not evaluated.
    Where it does not fall, the crossing found may differ from that of a
    search that evaluates every probe.
    """
    return _raise_first(_tph_outcomes([(geometry, n_atoms)]))[0]


def _tph_outcomes(points) -> list:
    """find_tph at each (geometry, n_atoms) point, a failed point's error in its
    place: the searches run in lockstep, one build_partition_tables per round."""
    return lockstep([_tph_search(*point) for point in points], build_partition_tables)


def _tph_search(geometry: TrapGeometry, n_atoms: int):
    """One find_tph search as a generator: yields (geometry, state) for each
    probe temperature, is sent its table, and returns (T_ph, N_0 of the last table)."""
    tc = characteristic_temperature(geometry, n_atoms)
    table = None

    def f(t):
        nonlocal table
        if t == math.inf:
            raise NumericalError("beta*omega_min rounds to 0 at T = inf: "
                                 "ln Z_1 leaves the float range")
        table = yield geometry, ThermalState(n_atoms, t)
        l_phi, width = coherence_vs_width(geometry, table)
        return l_phi - width

    def wide(lo, hi):
        return (hi - lo) > _T_REL_TOL * 0.5 * (lo + hi)

    # the crossing sits below T_c, often far below it in elongated traps; very
    # high endpoints are expensive in 3D.  f falls with T, so f <= 0 at a probe
    # fixes the sign above it: -inf stands for a high end left unprobed, and
    # t_neg is the lowest walked-down probe with f <= 0
    t_lo, t_hi, t_neg = 0.05 * tc, 1.2 * tc, math.inf
    f_lo = yield from f(t_lo)
    f_hi = (yield from f(t_hi)) if f_lo > 0 else -math.inf
    while not f_lo > 0 and t_lo > 1e-3 * tc:
        t_neg = t_lo
        t_lo /= 1.4
        f_lo = yield from f(t_lo)
    while f_hi > 0 and t_hi < 4.0 * tc:
        t_hi *= 1.4
        f_hi = yield from f(t_hi)
    if not (f_lo > 0 > f_hi):
        if f_hi == -math.inf:
            f_hi = yield from f(t_hi)
        raise BracketError(
            f"coherence length never crosses the cloud width in "
            f"[{t_lo:g}, {t_hi:g}]",
            samples=[(t_lo, f_lo), (t_hi, f_hi)],
        )

    while wide(t_lo, t_hi):
        t_mid = 0.5 * (t_lo + t_hi)
        # a midpoint at or above t_neg is negative; the last one is evaluated,
        # since N_0 is read from its table
        if t_mid >= t_neg and wide(t_lo, t_mid):
            t_hi = t_mid
            continue
        if (yield from f(t_mid)) > 0:
            t_lo = t_mid
        else:
            t_hi = t_mid
    # every starting bracket is far wider than _T_REL_TOL, so the loop runs
    return 0.5 * (t_lo + t_hi), mean_occupation(table, 0.0)
