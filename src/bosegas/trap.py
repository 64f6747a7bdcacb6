"""Harmonic trap geometry, single-particle spectrum and characteristic scales.

Oscillator units throughout: energies in units of hbar*omega0, temperatures in
hbar*omega0/kB, with omega0 the geometric mean of the present trap frequencies.
The zero-point energy is excluded, so the ground mode sits at energy 0 and the
single-particle energies are E = sum_i omega_i * lambda_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# enumerating more modes, or truncating a thermal axis at more quanta, than
# this raises ResourceLimitError
MODE_LIMIT = 10_000_000
# Riemann zeta(d) of the 2D and 3D T_c; the tests pin both floats to a reference zeta
_ZETA = {2: math.pi**2 / 6, 3: 1.2020569031595942}
# the smallest normal float; a lower frequency is refused, as the temperatures
# and tolerances scaled by it would underflow
_MIN_FREQUENCY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TrapGeometry:
    """Trap frequencies for a 1D, 2D or 3D harmonic trap.

    ``omega`` holds one finite frequency per present axis, each at least the
    smallest normal float; the dimension is simply the number of entries.
    """

    omega: tuple[float, ...]

    def __post_init__(self):
        omega = tuple(float(w) for w in self.omega)
        object.__setattr__(self, "omega", omega)
        if len(omega) not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(omega)} frequencies")
        if not all(_MIN_FREQUENCY <= w < math.inf for w in omega):
            raise ValueError(
                f"all trap frequencies must be finite and >= {_MIN_FREQUENCY:g}, got {omega}"
            )

    @classmethod
    def isotropic(cls, dimension: int) -> "TrapGeometry":
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
        return cls((1.0,) * dimension)

    @classmethod
    def from_aspect_ratio(cls, ratio: float) -> "TrapGeometry":
        """Cylindrical 3D trap with omega_x = omega_y = 1 and omega_z = ratio."""
        return cls((1.0, 1.0, ratio))

    @property
    def dimension(self) -> int:
        return len(self.omega)

    @property
    def geometric_mean_frequency(self) -> float:
        return float(np.exp(np.mean(np.log(self.omega))))

    @property
    def min_frequency(self) -> float:
        return min(self.omega)

    @property
    def max_frequency(self) -> float:
        return max(self.omega)

    def log_z1(self, beta):
        """ln Z_1(beta) from the exact geometric sum per axis.

        Accepts a scalar or an array of inverse temperatures. With the ground
        energy at zero each axis contributes -ln(1 - exp(-beta*omega)).  beta
        is negated once into the array returned, over which _log_z1_into
        writes ln Z_1, adding the axes left to right, the order in which numpy
        reduces a row of them, so no (len(beta), d) array is formed.
        """
        b = np.asarray(beta, dtype=float)
        if np.any(b <= 0):
            raise ValueError("beta must be positive")
        out = _log_z1_into(self.omega, np.negative(b, out=np.empty_like(b)), np.empty_like(b))
        return float(out) if np.isscalar(beta) else out


def _log_z1_into(omega, x, spare):
    """ln Z_1 of a trap with frequencies omega at the inverse temperatures -x,
    written over x; the one ln Z_1 kernel.

    x and spare are distinct float arrays of one shape; spare holds the sum
    of the axes' logs when there are two axes or more.  Each axis
    contributes -ln(-expm1(x * omega_i)); as rounding is sign-symmetric,
    x * omega_i has the bits of -(beta * omega_i), and an axis with
    omega_i = 1.0 skips the multiply.  The logs are added left to right and
    the sum negated, and an axis whose frequency equals the previous axis's
    adds that axis's log again, so an isotropic or cylindrical trap runs one
    expm1/negative/log chain per distinct frequency.  The last chain runs in
    x, which no later axis reads, and the first in spare; only the middle
    one of three, as in (1, r, 1), takes an array of its own.  Returns x.
    """
    acc = None
    for i, w in enumerate(omega):
        if not i or w != omega[i - 1]:
            y = x if all(v == w for v in omega[i:]) else (np.empty_like(x) if i else spare)
            # -expm1 keeps precision for beta*omega << 1
            np.expm1(x if w == 1.0 else np.multiply(x, w, out=y), out=y)
            np.negative(y, out=y)
            np.log(y, out=y)
        acc = y if acc is None else np.add(acc, y, out=spare)
    return np.negative(acc, out=x)


def _ragged_arange(counts):
    """Concatenate arange(c) for each c in counts, vectorized, as int32: the
    counts total at most MODE_LIMIT < 2^31."""
    ends = np.cumsum(counts, dtype=np.int32)
    return np.arange(ends[-1], dtype=np.int32) - np.repeat(ends - counts, counts)


def _quanta_counts(budget, omega: float, max_energy: float):
    """Per budget entry, the number of quanta k with k*omega <= budget (a small
    slack keeps equality); ResourceLimitError if they total over MODE_LIMIT.

    Counted in float: a huge budget would overflow the int32 cast.
    """
    counts = np.floor(budget / omega + 1e-9) + 1
    if not counts.sum() <= MODE_LIMIT:
        raise ResourceLimitError(
            f"mode count exceeds the limit {MODE_LIMIT} at energy cutoff {max_energy}"
        )
    return counts.astype(np.int32)


def enumerate_modes(geometry: TrapGeometry, max_energy: float):
    """All modes with energy <= max_energy.

    Returns (quanta, energies): an (M, d) int32 array and a length-M float
    array, sorted by energy ascending with ties broken lexicographically on
    the quanta tuple.
    """
    if not max_energy > 0:
        raise ValueError(f"max_energy must be positive, got {max_energy}")
    w = geometry.omega
    # Grow the modes one axis at a time, first axis first, so the rows come
    # out in lexicographic order: each partial mode carries its unspent
    # energy, and the next axis takes every quantum number that fits in it.
    columns = []
    budget = np.array([max_energy])
    for wi in w:
        counts = _quanta_counts(budget, wi, max_energy)
        n = _ragged_arange(counts)
        columns = [np.repeat(c, counts) for c in columns] + [n]
        budget = np.repeat(budget, counts) - wi * n
    q = np.column_stack(columns)
    del columns, budget  # lower the peak memory of the sort below
    energies = q.astype(float) @ np.array(w)
    # a stable sort on energy keeps the lexicographic order within a level;
    # q >= 0 and omega > 0 make every energy +0.0 or positive, never NaN or
    # -0.0, so the float order is that of the bits read as uint64
    order = np.argsort(energies.view(np.uint64), kind="stable")
    return np.take(q, order, axis=0), energies[order]


def characteristic_temperature(geometry: TrapGeometry, n_atoms: int) -> float:
    """Degeneracy temperature T_c in oscillator units.

    1D: N/ln(2N); 2D: (N/zeta(2))^(1/2); 3D: (N/zeta(3))^(1/3), scaled by the
    geometric-mean frequency.  The dimension-specific formulas are defined for
    isotropic traps; the geometric-mean extension to anisotropic traps is a
    convention of this package (it only sets the reported temperature scale).
    """
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be at least 2, got {n_atoms}")
    n = float(n_atoms)
    d = geometry.dimension
    if d == 1:
        tc = n / math.log(2.0 * n)
    else:
        tc = (n / _ZETA[d]) ** (1.0 / d)
    return geometry.geometric_mean_frequency * tc
