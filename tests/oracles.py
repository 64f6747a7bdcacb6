"""Independent references for the tests.

The Fock-state functions enumerate boson occupation configurations
explicitly, so they share no code path with the recursion-based
implementation they check.  ``atom_number_full_chunks`` keeps the plain form
of the grand-canonical series, every term of every chunk computed and each
chunk summed whole, against which the library's series is checked bit for
bit.  It takes ln Z_1 from ``log_z1_outer``, a frozen copy of the (L, d)
outer-product formula, so it shares no ln Z_1 code with the library.
"""

import itertools
import math

import numpy as np

from bosegas.errors import NumericalError
from bosegas.grand import _SERIES_CHUNK, _SERIES_MAX_TERMS


def boson_states(n_levels, n_atoms):
    """All N-boson Fock states over the given levels, as occupation tuples."""
    for combo in itertools.combinations_with_replacement(range(n_levels), n_atoms):
        occ = [0] * n_levels
        for idx in combo:
            occ[idx] += 1
        yield tuple(occ)


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
