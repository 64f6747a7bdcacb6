"""Exact fixed-N statistics of the trapped ideal Bose gas.

Builds the N-atom partition function from the single-particle one through the
recursion Z_N = (1/N) sum_{n=1}^N Z_1(n*beta) Z_{N-n}, entirely in the log
domain, and derives per-mode occupation statistics from ratios Z_{N-n}/Z_N.
The mean occupations are the eigenvalues of the one-body density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .brent import _raise_first, brent, lockstep
from .errors import CutoffError, NumericalError
from .trap import TrapGeometry, characteristic_temperature, enumerate_modes

# array entries per batch of recursion lanes (lanes times N)
_CHUNK = 4_000_000
# recursion exponents are raised to this floor, inside exp's fast range
_EXP_FLOOR = -707.5
# array entries of the block buffer of mean_occupations
_OCC_BLOCK = 1 << 18
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
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class PartitionTable(ThermalState):
    """A state with its log-domain partition values ln Z_0 ... ln Z_N and
    the system they were built for."""

    log_z: np.ndarray = field(repr=False, compare=False)
    system: object = field(repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.log_z)):
            raise NumericalError("partition table contains non-finite entries")


def build_partition_tables(lanes) -> list:
    """Run the Z_N recursion in the log domain via log-sum-exp, for many
    (system, state) lanes at once; one new table per lane, in order, or a
    NumericalError where ln Z_1(beta) is not finite (beta*omega_min rounds
    to 0).  ln Z_1(k*beta) falls with k, so the rows built are finite.

    A system is anything exposing log_z1(beta), such as a TrapGeometry.
    Every lane is built, a PartitionTable state too: only
    build_partition_table hands a finished table back.  The lanes run one k
    loop over (lanes, N) arrays, sorted by N so that step k works on the
    lanes with N >= k; each lane's values are those of a one-lane run, bit
    for bit (the row sums and the exp run over contiguous rows).
    """
    with np.errstate(over="ignore", divide="ignore"):  # beta*omega may overflow or round to 0
        finite = [math.isfinite(system.log_z1(state.beta)) for system, state in lanes]
    order = sorted((i for i, ok in enumerate(finite) if ok), key=lambda i: -lanes[i][1].n_atoms)
    step = max(1, _CHUNK // (lanes[order[0]][1].n_atoms + 1)) if order else 1
    log_z = {}
    for start in range(0, len(order), step):
        group = order[start : start + step]
        log_z.update(zip(group, _recursion([lanes[i] for i in group])))
    return [PartitionTable(state.n_atoms, state.temperature, log_z[i], system) if i in log_z
            else NumericalError(f"beta*omega_min rounds to 0 at T = {state.temperature:g}: "
                                "ln Z_1 leaves the float range")
            for i, (system, state) in enumerate(lanes)]


def _recursion(lanes):
    """ln Z_0..ln Z_N per lane; the lanes are sorted by N, largest first.

    Each step's exponents, less their row max, are raised to _EXP_FLOOR
    before exp.  numpy's vector exp keeps its fast path only for arguments
    >= ln 2^-1021 (about -707.70); each block of SIMD lanes holding an
    argument below that, whose result is subnormal or 0, falls back to a
    path 15-150 times slower per element.  The row max still gives
    exp(0) = 1, so every row sum is >= 1, while a floored term grows by at
    most exp(-707.5) = 5.5e-308, and a row of j terms by at most j times
    that (9e-305 at j = 1600): the sum can change only where a partial sum
    lies that close to a rounding boundary.  The tests check the tables
    against the unfloored recursion bit for bit.  np.maximum keeps NaN, so
    a non-finite table is still refused.
    """
    sizes = [state.n_atoms for _, state in lanes]
    n = sizes[0]
    k = np.arange(1, n + 1)
    a = np.zeros((len(lanes), n))  # ln Z_1(k*beta), k = 1..N; zero past a lane's N
    for row, (system, state) in zip(a, lanes):
        with np.errstate(over="ignore"):  # beta*k = inf gives ln Z_1 = 0, its limit
            row[: state.n_atoms] = system.log_z1(state.beta * k[: state.n_atoms])
    log_k = np.log(k).tolist()
    # rev[:, n - i] = ln Z_i, so step j reads ln Z_{j-1} ... ln Z_0 as rev[:, n-j+1:]
    rev = np.zeros((len(lanes), n + 1))
    flat = np.empty(len(lanes) * n)
    peak = np.empty(len(lanes))
    total = np.empty(len(lanes))
    j0 = 1
    for c in range(len(lanes), 0, -1):
        # steps j0..sizes[c-1] run on the first c lanes, those with N >= j
        ac, rc, m, s, m_col = a[:c], rev[:c], peak[:c], total[:c], peak[:c, None]
        for j in range(j0, sizes[c - 1] + 1):
            t = flat[: c * j].reshape(c, j)
            np.add(ac[:, :j], rc[:, n - j + 1 :], out=t)
            np.maximum.reduce(t, 1, None, m)
            np.subtract(t, m_col, out=t)
            np.maximum(t, _EXP_FLOOR, out=t)
            np.exp(t, out=t)
            np.add.reduce(t, 1, None, s)
            np.log(s, out=s)
            np.add(m, s, out=s)
            np.subtract(s, log_k[j - 1], out=rc[:, n - j])
        j0 = sizes[c - 1] + 1
    return [rev[row, n - size :][::-1].copy() for row, size in enumerate(sizes)]


def build_partition_table(system, state: ThermalState) -> PartitionTable:
    """The table of one lane: a state that is a PartitionTable of an equal
    system, handed back as it is, or built; a refused lane raises its error."""
    if isinstance(state, PartitionTable) and state.system == system:
        return state
    return _raise_first(build_partition_tables([(system, state)]))[0]


@np.errstate(over="ignore")  # n*beta may overflow to inf, its limit
def log_p_at_least(table: PartitionTable, energy: float) -> np.ndarray:
    """ln P>=(n|N) = -n*beta*eps + ln Z_{N-n} - ln Z_N for n = 0..N."""
    if not energy >= 0:
        raise ValueError(f"mode energy must be non-negative, got {energy}")
    n = np.arange(1, table.n_atoms + 1)
    # ln P>=(0) = 0, also at eps = inf, where -0*beta*eps would be NaN; at
    # eps = 0 the energy term is 0, also where n*beta is inf (-0.0 elsewhere)
    exponent = -n * table.beta * energy if energy else 0.0
    return np.r_[0.0, exponent + table.log_z[-2::-1] - table.log_z[-1]]


def _occupancy_raw(table: PartitionTable, energy: float) -> np.ndarray:
    """P(n|N) before clamping; entries may be tiny negatives from cancellation."""
    lp = log_p_at_least(table, energy)
    # P(n) = e^a - e^b = -e^a * expm1(b - a), with a = lp[n], b = lp[n+1], for
    # n < m; P(n) = 0 from m + 1 on, where lp is -inf (eps = inf)
    m = np.count_nonzero(lp > -np.inf) - 1
    p = np.zeros(table.n_atoms + 1)
    p[:m] = -np.exp(lp[:m]) * np.expm1(lp[1 : m + 1] - lp[:m])
    p[m] = np.exp(lp[m])
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


@np.errstate(over="ignore")  # beta*(e*n) may overflow to inf, its limit
def mean_occupations(table: PartitionTable, energies, log_weight=0.0) -> np.ndarray:
    """Vectorized mean_occupation over an array of mode energies; term n of
    each sum is multiplied by w_n = exp(log_weight), a scalar or one per n.

    Entry i is the sum over n = 1..N of exp(b_n - beta*(e_i*n)), with
    b_n = ln(w_n Z_{N-n}/Z_N), each row of N terms summed whole by numpy.
    The energies are taken in blocks of rows, and a block computes its terms
    only over its live width W: with c_n = max(b_n, ..., b_N) and e_min the
    block's smallest energy, the columns where c_n - beta*(e_min*n) < -746
    are a suffix, and W is N less their number.  Rounding is monotone, so
    every term of every row in the block past W rounds below -745.13, where
    exp gives exactly +0.0; no ordering of the energies or of b is assumed.
    The block buffer keeps those columns at +0.0, so each row sum adds the
    same N values, in the same order, as an evaluation of every term, bit
    for bit.  Blocks double in rows up to _OCC_BLOCK entries; for ascending
    energies W then stays within about twice each row's own width.  A
    subnormal T, where beta = 1/T overflows to inf and beta*(0*n) would be
    NaN, raises NumericalError.
    """
    energies = np.asarray(energies, dtype=float)
    if not np.all(energies >= 0):
        raise ValueError("mode energies must be non-negative")
    n_atoms, beta = table.n_atoms, table.beta
    if beta == math.inf:
        raise NumericalError(f"beta = 1/T overflows at T = {table.temperature:g}")
    n = np.arange(1, n_atoms + 1, dtype=float)
    base = table.log_z[-2::-1] - table.log_z[-1] + log_weight  # ln(w_n Z_{N-n}/Z_N)
    ceiling = np.maximum.accumulate(base[::-1])[::-1]
    out = np.empty(energies.shape[0])
    buf = np.zeros((min(out.shape[0], max(1, _OCC_BLOCK // n_atoms)), n_atoms))
    dirty = 0  # the columns of buf from here on are +0.0 in every row
    i, rows = 0, 1
    while i < out.shape[0]:
        e = energies[i : i + rows, None]
        width = n_atoms - np.count_nonzero(ceiling - beta * (e.min() * n) < -746.0)
        if width < dirty:
            buf[:, width:dirty] = 0.0
        dirty = width
        block = buf[: len(e)]
        live = block[:, :width]
        np.multiply(e, n[:width], out=live)
        np.multiply(live, beta, out=live)
        np.subtract(base[:width], live, out=live)
        np.exp(live, out=live)
        np.add.reduce(block, 1, None, out[i : i + len(e)])
        i += len(e)
        rows = min(2 * rows, len(buf))
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
    the degenerate modes, so isotropic traps cost no more than 1D ones.  A
    state that is a PartitionTable of this geometry is used as it is.
    """
    table = build_partition_table(geometry, state)

    def capture(cutoff):
        quanta, energies = enumerate_modes(geometry, cutoff)
        # the energies come sorted, so each level starts where the energy changes
        starts = np.r_[True, energies[1:] != energies[:-1]]
        occ = mean_occupations(table, energies[starts])[np.cumsum(starts) - 1]
        captured = float(occ.sum()) / state.n_atoms
        return captured, OccupationSpectrum(
            quanta=quanta,
            energies=energies,
            occupations=occ,
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
    is chosen once, from N_0/N at T = 1e-3: it is [1e-3, 10 T_c], unless
    N_0/N is below the target already at T = 1e-3 (only a soft axis,
    omega_min < 1, can make it so); then it is [1e-3 omega_min, 1e-3], with
    xtol scaled by omega_min.  There is one Brent search, and each probe
    temperature builds one table; the result is the table of Brent's root,
    so its occupations need no rebuild.  Brent's BracketError carries the
    ends of a bracket without a sign change as its samples; a probe whose
    table build_partition_tables refuses, or a 10 T_c that overflows to
    inf, raises NumericalError.
    """
    return _raise_first(_search_outcomes([(geometry, n_atoms, target_fraction)]))[0]


def _search_outcomes(points) -> list:
    """temperature_for_fraction's table at each (geometry, n_atoms,
    target_fraction) point, a failed point's error in its place.

    The searches run in lockstep: each round builds the tables of all their
    new probe temperatures in one build_partition_tables batch.  Each point's
    probes, root and table are those of its own one-point search, bit for bit.
    """
    return lockstep([_search(*point) for point in points], build_partition_tables)


def _search(geometry: TrapGeometry, n_atoms: int, target_fraction: float):
    """One T(N_0/N) search as a generator: yields (geometry, state) for each
    new probe temperature, is sent its table, and returns the root's table.

    The soft-axis bracket is taken where f(1e-3) < 0.  Brent probes both ends
    again, served by the table memo, and tests their signs itself.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target fraction must be in (0, 1), got {target_fraction}")
    t_lo = 1e-3
    t_hi = 10.0 * characteristic_temperature(geometry, max(n_atoms, 2))
    xtol = 1e-12
    tables = {}

    def f(t):
        if t not in tables:
            tables[t] = yield geometry, ThermalState(n_atoms, t)
        return mean_occupation(tables[t], 0.0) / n_atoms - target_fraction

    if (yield from f(t_lo)) < 0:
        t_lo, t_hi, xtol = t_lo * geometry.min_frequency, t_lo, xtol * geometry.min_frequency
    elif t_hi == math.inf:
        raise NumericalError("beta*omega_min rounds to 0 at T = inf: "
                             "ln Z_1 leaves the float range")
    return tables[(yield from brent(t_lo, t_hi, xtol, 1e-14, f))]
