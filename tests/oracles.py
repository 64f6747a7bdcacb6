"""Independent references for the tests.

The Fock-state functions enumerate boson occupation configurations
explicitly, so they share no code path with the recursion-based
implementation they check.  ``atom_number_full_chunks`` keeps the plain form
of the grand-canonical series, every term of every chunk computed and each
chunk summed whole, against which the library's series is checked bit for
bit.  It takes ln Z_1 from ``log_z1_outer``, a frozen copy of the (L, d)
outer-product formula, so it shares no ln Z_1 code with the library.

``mean_occupations_dense``, ``mode_function_iter``, ``mirror_sums`` and
``g1_curve`` are frozen copies of the plain forms of the occupation and
Hermite passes: every term of every row computed and summed whole, and a new
array for every value.  The library's passes skip the terms that underflow
and work in place, and are checked against these bit for bit.

``recursion_dense`` is a frozen copy of the log-sum-exp Z_N recursion with
every term put through exp as it is; the library raises the exponents that
underflow to a floor inside exp's fast range, and is checked against it bit
for bit.

``find_tph_serial`` is a frozen copy of the T_ph bracket walk and bisection
as a plain loop, one probe at a time, against which the lockstep searches
are checked bit for bit.

``enumerate_modes_float_sort`` is a frozen copy of the mode enumeration
that sorts the energies as floats and gathers the rows by fancy indexing;
the library sorts their bits and gathers with ``np.take``, and is checked
against it bit for bit.

``FiniteSpectrum`` is an explicit list of levels, the system of the
exhaustive oracle.  ``sticking_slope`` and ``log_law_drift`` fit the
closed-form N_1/N_0 against N: the N^-gamma law in 2D and 3D, and the flat
(N_1/N_0) ln N of the 1/ln N law in 1D.
"""

import itertools
import math

import numpy as np

from bosegas import canonical
from bosegas.canonical import ThermalState, build_partition_table
from bosegas.coherence import coherence_vs_width
from bosegas.errors import BracketError, NumericalError
from bosegas.grand import _SERIES_CHUNK, _SERIES_MAX_TERMS, closed_form_sticking
from bosegas.trap import characteristic_temperature

_RESCALE_THRESHOLD = 1e130


def boson_states(n_levels, n_atoms):
    """All N-boson Fock states over the given levels, as occupation tuples."""
    for combo in itertools.combinations_with_replacement(range(n_levels), n_atoms):
        occ = [0] * n_levels
        for idx in combo:
            occ[idx] += 1
        yield tuple(occ)


class FiniteSpectrum:
    """Levels for build_partition_table, which needs only log_z1."""

    def __init__(self, energies):
        self.energies = np.array(energies, dtype=float)

    def log_z1(self, beta):
        a = -np.multiply.outer(np.asarray(beta, dtype=float), self.energies)
        m = np.max(a, axis=-1)
        return m + np.log(np.sum(np.exp(a - m[..., None]), axis=-1))


def partition_function(energies, beta, n_atoms):
    return sum(
        math.exp(-beta * sum(n * e for n, e in zip(occ, energies)))
        for occ in boson_states(len(energies), n_atoms)
    )


def occupancy_distribution(energies, beta, n_atoms, level):
    """P(n|N) for the given level by direct state enumeration."""
    z = 0.0
    weights = [0.0] * (n_atoms + 1)
    for occ in boson_states(len(energies), n_atoms):
        w = math.exp(-beta * sum(n * e for n, e in zip(occ, energies)))
        z += w
        weights[occ[level]] += w
    return [w / z for w in weights]


def mean_occupation(energies, beta, n_atoms, level):
    p = occupancy_distribution(energies, beta, n_atoms, level)
    return sum(n * pn for n, pn in enumerate(p))


def log_z1_outer(omega, beta):
    """ln Z_1(beta) = -sum_i ln(1 - exp(-beta*omega_i)), summed by numpy over
    a (len(beta), d) array."""
    b = np.asarray(beta, dtype=float)
    terms = np.log(-np.expm1(-np.multiply.outer(b, np.array(omega))))
    out = -np.sum(terms, axis=-1)
    return float(out) if np.isscalar(beta) else out


def enumerate_modes_float_sort(omega, max_energy):
    """(quanta, energies) of the modes with energy <= max_energy, grown one
    axis at a time in lexicographic order and stable-sorted on the float
    energies."""
    columns = []
    budget = np.array([max_energy])
    for wi in omega:
        counts = (np.floor(budget / wi + 1e-9) + 1).astype(np.int32)
        ends = np.cumsum(counts, dtype=np.int32)
        n = np.arange(ends[-1], dtype=np.int32) - np.repeat(ends - counts, counts)
        columns = [np.repeat(c, counts) for c in columns] + [n]
        budget = np.repeat(budget, counts) - wi * n
    q = np.column_stack(columns)
    energies = q.astype(float) @ np.array(omega)
    order = np.argsort(energies, kind="stable")
    return q[order], energies[order]


def atom_number_full_chunks(geometry, z, temperature, tol=1e-12, one_minus_z=None):
    """N(z, T) from the Boltzmann series, each 65,536-term chunk computed whole."""
    if one_minus_z is None:
        one_minus_z = 1.0 - z
    beta = 1.0 / temperature
    ln_z = math.log(z) if one_minus_z > 0.5 else math.log1p(-one_minus_z)
    total = z / one_minus_z
    rate = math.exp(ln_z - beta * geometry.min_frequency)
    j0 = 1
    while True:
        j = np.arange(j0, j0 + _SERIES_CHUNK, dtype=float)
        t = np.exp(j * ln_z) * np.expm1(log_z1_outer(geometry.omega, j * beta))
        total += float(t.sum())
        tail = t[-1] * rate / (1.0 - rate)
        if tail < tol * total:
            break
        j0 += _SERIES_CHUNK
        if j0 > _SERIES_MAX_TERMS:
            raise NumericalError("atom-number series did not converge")
    return total


def mean_occupations_dense(table, energies, log_weight=0.0):
    """sum_n exp(ln(w_n Z_{N-n}/Z_N) - beta*e*n) per energy, every term
    computed, in chunks of 4,000,000 entries."""
    energies = np.asarray(energies, dtype=float)
    n = np.arange(1, table.n_atoms + 1)
    base = table.log_z[-2::-1] - table.log_z[-1] + log_weight
    out = np.empty(energies.shape[0])
    step = max(1, 4_000_000 // n.shape[0])
    for i in range(0, energies.shape[0], step):
        e = energies[i : i + step]
        expo = base[None, :] - table.beta * np.outer(e, n)
        out[i : i + step] = np.exp(expo).sum(axis=1)
    return out


def recursion_dense(lanes):
    """ln Z_0..ln Z_N of each (system, state) lane, in input order: one k loop
    over the lanes sorted by N, step k on the lanes with N >= k, every
    exponent put through exp."""
    order = sorted(range(len(lanes)), key=lambda i: -lanes[i][1].n_atoms)
    sizes = [lanes[i][1].n_atoms for i in order]
    n = sizes[0]
    k = np.arange(1, n + 1)
    a = np.zeros((len(lanes), n))
    for row, i in zip(a, order):
        system, state = lanes[i]
        row[: state.n_atoms] = system.log_z1(state.beta * k[: state.n_atoms])
    log_k = np.log(k).tolist()
    rev = np.zeros((len(lanes), n + 1))
    flat = np.empty(len(lanes) * n)
    peak = np.empty(len(lanes))
    total = np.empty(len(lanes))
    j0 = 1
    for c in range(len(lanes), 0, -1):
        ac, rc, m, s, m_col = a[:c], rev[:c], peak[:c], total[:c], peak[:c, None]
        for j in range(j0, sizes[c - 1] + 1):
            t = flat[: c * j].reshape(c, j)
            np.add(ac[:, :j], rc[:, n - j + 1 :], out=t)
            np.maximum.reduce(t, 1, None, m)
            np.subtract(t, m_col, out=t)
            np.exp(t, out=t)
            np.add.reduce(t, 1, None, s)
            np.log(s, out=s)
            np.add(m, s, out=s)
            np.subtract(s, log_k[j - 1], out=rc[:, n - j])
        j0 = sizes[c - 1] + 1
    out = [None] * len(lanes)
    for row, (i, size) in enumerate(zip(order, sizes)):
        out[i] = rev[row, n - size :][::-1].copy()
    return out


def mode_function_iter(k_max, x):
    """phi_0..phi_kmax at x by the scaled Hermite recurrence, a new array for
    every step."""
    x = np.asarray(x, dtype=float)
    scale = -0.5 * x * x
    escale = np.exp(scale)
    u = np.full_like(x, math.pi ** -0.25)
    u_prev = np.zeros_like(x)
    yield u * escale
    for k in range(k_max):
        u_next = x * math.sqrt(2.0 / (k + 1)) * u - math.sqrt(k / (k + 1)) * u_prev
        u_prev, u = u, u_next
        if np.max(np.abs(u)) > _RESCALE_THRESHOLD:
            big = np.abs(u) > _RESCALE_THRESHOLD
            shift = np.where(big, np.log(np.abs(np.where(big, u, 1.0))), 0.0)
            damp = np.exp(-shift)
            u = u * damp
            u_prev = u_prev * damp
            scale = scale + shift
            escale = np.exp(scale)
        yield u * escale


def mirror_sums(weights, omega_axis, grid):
    """(g1, density) on the grid from the axis weights W_0..W_K."""
    xi = grid.points * math.sqrt(omega_axis)
    num = np.zeros_like(xi)
    den = np.zeros_like(xi)
    sign = 1.0
    for w, phi in zip(weights, mode_function_iter(len(weights) - 1, xi)):
        contrib = w * phi * phi
        den += contrib
        num += sign * contrib
        sign = -sign
    density = math.sqrt(omega_axis) * den
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = np.where(den > 0.0, num / den, math.nan)
    return g1, density


def g1_curve(spectrum, geometry, grid):
    """(g1, density) of an explicit spectrum, each transverse mode weighted by
    phi_q(0)^2 of its own axis."""
    axis = grid.axis
    weight = spectrum.occupations
    transverse = [other for other in range(geometry.dimension) if other != axis]
    q_max = max((int(spectrum.quanta[:, other].max()) for other in transverse), default=0)
    phi_sq = np.array([phi[0] for phi in mode_function_iter(q_max, np.zeros(1))]) ** 2
    for other in transverse:
        weight = weight * math.sqrt(geometry.omega[other]) * phi_sq[spectrum.quanta[:, other]]
    w = np.bincount(spectrum.quanta[:, axis], weights=weight)
    return mirror_sums(w, geometry.omega[axis], grid)


def find_tph_serial(geometry, n_atoms):
    """(T_ph, N_0 at the last bisection probe): the bracket [0.05, 1.2] T_c
    widened by 1.4x, then bisected to a relative width of 5e-3."""
    tc = characteristic_temperature(geometry, n_atoms)

    def f(t):
        table = build_partition_table(geometry, ThermalState(n_atoms, t))
        l_phi, width = coherence_vs_width(geometry, table)
        return l_phi - width, canonical.mean_occupation(table, 0.0)

    t_lo, t_hi = 0.05 * tc, 1.2 * tc
    f_lo, _ = f(t_lo)
    f_hi, _ = f(t_hi)
    while not f_lo > 0 and t_lo > 1e-3 * tc:
        t_lo /= 1.4
        f_lo, _ = f(t_lo)
    while f_hi > 0 and t_hi < 4.0 * tc:
        t_hi *= 1.4
        f_hi, _ = f(t_hi)
    if not (f_lo > 0 > f_hi):
        raise BracketError(
            f"coherence length never crosses the cloud width in [{t_lo:g}, {t_hi:g}]",
            samples=[(t_lo, f_lo), (t_hi, f_hi)],
        )
    while (t_hi - t_lo) > 5e-3 * 0.5 * (t_lo + t_hi):
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid, n0_mid = f(t_mid)
        if f_mid > 0:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi), n0_mid


def sticking_slope(dimension, samples):
    """Least-squares slope of ln(N_1/N_0) against ln N at N_0/N = 0.2."""
    ratios = [closed_form_sticking(dimension, n, 0.2) for n in samples]
    return np.polyfit(np.log(samples), np.log(ratios), 1)[0]


def log_law_drift(samples):
    """Largest change per decade of N of (N_1/N_0) ln N in 1D at N_0/N = 0.2,
    relative to its value at the lower N."""
    n = np.asarray(samples, dtype=float)
    product = np.array([closed_form_sticking(1, x, 0.2) for x in n]) * np.log(n)
    return np.max(np.abs(np.diff(product)) / product[:-1] / np.diff(np.log10(n)))
