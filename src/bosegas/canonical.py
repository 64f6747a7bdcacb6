"""Exact fixed-N statistics of the trapped ideal Bose gas.

Builds the N-atom partition function from the single-particle one through the
recursion Z_N = (1/N) sum_{n=1}^N Z_1(n*beta) Z_{N-n}, entirely in the log
domain, and derives per-mode occupation statistics from ratios Z_{N-n}/Z_N.
The mean occupations are the eigenvalues of the one-body density matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, CutoffError, NumericalError
from .trap import TrapGeometry, characteristic_temperature, enumerate_modes

# entries per chunk when evaluating occupations for many energies at once
_CHUNK = 4_000_000
# smallest fraction of the atoms a spectrum must capture below its cutoff
MIN_CAPTURED_FRACTION = 1.0 - 1e-6


@dataclass(frozen=True)
class ThermalState:
    """Atom number and temperature; beta is always derived as 1/T.

    The atom number is integral: an integral float such as 100.0 is stored
    as the int 100, and a non-integral one raises ValueError.
    """

    n_atoms: int
    temperature: float

    def __post_init__(self):
        if not float(self.n_atoms).is_integer():
            raise ValueError(f"n_atoms must be an integer, got {self.n_atoms}")
        object.__setattr__(self, "n_atoms", int(self.n_atoms))
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class PartitionTable(ThermalState):
    """A state with its log-domain partition values ln Z_0 ... ln Z_N."""

    log_z: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.log_z)):
            raise NumericalError("partition table contains non-finite entries")


def build_partition_table(system, state: ThermalState) -> PartitionTable:
    """Run the Z_N recursion in the log domain via log-sum-exp.

    ``system`` is anything exposing log_z1(beta): a TrapGeometry or an
    injected FiniteSpectrum.
    """
    n = state.n_atoms
    a = system.log_z1(state.beta * np.arange(1, n + 1))  # ln Z_1(k*beta), k = 1..n
    log_z = np.empty(n + 1)
    log_z[0] = 0.0
    for k in range(1, n + 1):
        t = a[:k] + log_z[k - 1 :: -1]
        m = t.max()
        log_z[k] = m + np.log(np.sum(np.exp(t - m))) - np.log(k)
    return PartitionTable(n, state.temperature, log_z)


def log_p_at_least(table: PartitionTable, energy: float) -> np.ndarray:
    """ln P>=(n|N) = -n*beta*eps + ln Z_{N-n} - ln Z_N for n = 0..N."""
    if energy < 0:
        raise ValueError(f"mode energy must be non-negative, got {energy}")
    n = np.arange(table.n_atoms + 1)
    return -n * table.beta * energy + table.log_z[::-1] - table.log_z[-1]


def _occupancy_raw(table: PartitionTable, energy: float) -> np.ndarray:
    """P(n|N) before clamping; entries may be tiny negatives from cancellation."""
    lp = log_p_at_least(table, energy)
    n = table.n_atoms
    p = np.empty(n + 1)
    # P(n) = e^a - e^b = -e^a * expm1(b - a), with a = lp[n], b = lp[n+1]
    p[:n] = -np.exp(lp[:n]) * np.expm1(lp[1:] - lp[:n])
    p[n] = np.exp(lp[n])
    return p


def occupancy_distribution(table: PartitionTable, energy: float) -> np.ndarray:
    """Probability vector P(n|N), n = 0..N, for a mode of the given energy.

    The difference of consecutive P>= values is taken in linear domain after
    factoring out the larger log term.  Tiny negative entries from
    cancellation are clamped to zero and the vector renormalized.
    """
    p = _occupancy_raw(table, energy)
    p[p < 0] = 0.0
    p /= p.sum()
    return p


def mean_occupation(table: PartitionTable, energy: float) -> float:
    """Mean atom number in one mode: sum_{n>=1} P>=(n|N).

    Equivalent to sum_n n*P(n|N) but with fewer cancellations.
    """
    lp = log_p_at_least(table, energy)
    return float(np.sum(np.exp(lp[1:])))


def mean_occupations(table: PartitionTable, energies, log_weight=0.0) -> np.ndarray:
    """Vectorized mean_occupation over an array of mode energies; term n of
    each sum is multiplied by w_n = exp(log_weight), a scalar or one per n."""
    energies = np.asarray(energies, dtype=float)
    if np.any(energies < 0):
        raise ValueError("mode energies must be non-negative")
    n = np.arange(1, table.n_atoms + 1)
    base = table.log_z[-2::-1] - table.log_z[-1] + log_weight  # ln(w_n Z_{N-n}/Z_N)
    out = np.empty(energies.shape[0])
    step = max(1, _CHUNK // n.shape[0])
    for i in range(0, energies.shape[0], step):
        e = energies[i : i + step]
        expo = base[None, :] - table.beta * np.outer(e, n)
        out[i : i + step] = np.exp(expo).sum(axis=1)
    return out


@dataclass(frozen=True)
class OccupationSpectrum:
    """Eigenvalues of the one-body density matrix, one entry per mode.

    Modes are sorted by energy ascending (ties lexicographic on quanta), so
    entry 0 is the ground mode.  Equal-energy modes carry equal occupations.
    """

    quanta: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    occupations: np.ndarray = field(repr=False)
    n_atoms: int
    captured_fraction: float

    def __len__(self):
        return self.energies.shape[0]

    @property
    def condensate_occupation(self) -> float:
        return float(self.occupations[0])


def grow_cutoff(geometry: TrapGeometry, state: ThermalState, tol: float, capture):
    """``capture(cutoff)`` -> (captured fraction, result) at the first cutoff
    whose captured fraction clears MIN_CAPTURED_FRACTION; return the result.

    The cutoff starts at T ln(N/tol) plus a slack of min(omega_max,
    2 omega_min) and grows by 1.3x, for up to six tries; then CutoffError
    reports the last cutoff tried and its captured fraction.
    """
    # The occupation tail stays below roughly tol*N: from
    # N_nu <= N exp(-beta*eps) Z_{N-1}/Z_N the cutoff is T ln(N/tol).  The
    # slack reaches the two lowest excited modes without a pancake's stiff
    # quantum multiplying the soft-axis modes.
    slack = min(geometry.max_frequency, 2.0 * geometry.min_frequency)
    cutoff = float(state.temperature * np.log(state.n_atoms / tol) + slack)
    for _ in range(6):
        captured, result = capture(cutoff)
        if captured >= MIN_CAPTURED_FRACTION:
            return result
        tried, cutoff = cutoff, 1.3 * cutoff
    raise CutoffError(
        f"cutoff max_energy={tried:g} captured only "
        f"{captured:.12f} of the atoms (need {MIN_CAPTURED_FRACTION})",
        captured_fraction=captured,
    )


def occupation_spectrum(
    geometry: TrapGeometry, state: ThermalState, tol: float = 1e-10
) -> OccupationSpectrum:
    """Mean occupation of every mode below the energy cutoff of grow_cutoff.

    Occupations are computed once per distinct energy level and broadcast to
    the degenerate modes, so isotropic traps cost no more than 1D ones.
    """
    table = build_partition_table(geometry, state)

    def capture(cutoff):
        quanta, energies = enumerate_modes(geometry, cutoff)
        distinct, inverse = np.unique(energies, return_inverse=True)
        occ = mean_occupations(table, distinct)[inverse]
        captured = float(occ.sum()) / state.n_atoms
        return captured, OccupationSpectrum(
            quanta=quanta,
            energies=energies,
            occupations=occ,
            n_atoms=state.n_atoms,
            captured_fraction=captured,
        )

    return grow_cutoff(geometry, state, tol, capture)


def sticking_ratio(spectrum: OccupationSpectrum, k: int) -> float:
    """N_k/N_0 with N_k the (k+1)-th largest eigenvalue of the one-body
    density matrix (per mode, not degeneracy-summed).

    Modes are sorted by energy and equal-energy modes share one occupation,
    so entry k of the spectrum is the (k+1)-th largest eigenvalue; at an
    isotropic point the degenerate first excited level makes N_1 = N_2
    exactly.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if len(spectrum) <= k:
        raise ValueError(f"spectrum has only {len(spectrum)} modes, need at least {k + 1}")
    return float(spectrum.occupations[k]) / spectrum.condensate_occupation


def temperature_for_fraction(
    geometry: TrapGeometry, n_atoms: int, target_fraction: float
) -> PartitionTable:
    """Temperature at which the condensate fraction N_0/N equals the target.

    N_0(T) falls monotonically with T, so Brent's method (the derivative of
    N_0 is expensive) converges once the bracket holds the root.  The bracket
    is chosen once, from N_0/N at T = 1e-3: it is [1e-3, 10 T_c], unless a
    soft axis (omega_min < 1) leaves N_0/N below the target already at
    T = 1e-3; then it is [1e-3 omega_min, 1e-3], with xtol scaled by
    omega_min.  There is one Brent call, and each probe temperature builds
    one table; the result is the table of Brent's root, so its occupations
    need no rebuild.  BracketError reports the ends of the bracket.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target fraction must be in (0, 1), got {target_fraction}")
    t_lo = 1e-3
    t_hi = 10.0 * characteristic_temperature(geometry, max(n_atoms, 2))
    xtol = 1e-12
    omega_min = geometry.min_frequency

    @functools.cache
    def table_at(t):
        return build_partition_table(geometry, ThermalState(n_atoms, t))

    def f(t):
        return mean_occupation(table_at(t), 0.0) / n_atoms - target_fraction

    if omega_min < 1.0 and f(t_lo) < 0:
        t_lo, t_hi, xtol = t_lo * omega_min, t_lo, xtol * omega_min
    f_lo, f_hi = f(t_lo), f(t_hi)
    if f_lo * f_hi > 0:  # the sign test brentq applies to the bracket ends
        raise BracketError(
            f"no sign change for N_0/N = {target_fraction} in T bracket "
            f"[{t_lo:g}, {t_hi:g}]: f = ({f_lo:.3e}, {f_hi:.3e})",
            samples=[(t_lo, f_lo), (t_hi, f_hi)],
        )
    t, info = brentq(f, t_lo, t_hi, xtol=xtol, rtol=1e-14, full_output=True, disp=False)
    if not info.converged:
        raise NumericalError(f"T for N_0/N = {target_fraction} did not converge: {info.flag}")
    return table_at(t)
