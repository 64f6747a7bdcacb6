"""Grand-canonical statistics: fugacity solves, thermodynamic-limit closed
forms and the asymptotic behavior of the sticking ratio N_1/N_0.

The atom-number constraint N = z/(1-z) + sum_{lambda != 0} x/(1-x) with
x = z exp(-beta*E_lambda) is evaluated through the exact Boltzmann series
sum_{j>=1} z^j (Z_1(j*beta) - 1), which converges geometrically at rate
exp(-beta*omega_min) independent of z and needs no mode enumeration.

Fugacities very close to one are tracked together with their complement
1 - z, so a cold gas's root stays representable up to N ~ 2^53, where
z = 1/(1 + 1/N) rounds to 1; a hot gas, whose root lies far below z = 1,
still solves beyond that.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .brent import brentq
from .errors import NumericalError
from .trap import _ZETA, TrapGeometry, _log_z1_into

_SERIES_CHUNK = 65536
_SERIES_MAX_TERMS = 500_000_000
# series chunks whose z-free factors a fugacity solve keeps, 512 KB each
_TABLE_MAX_CHUNKS = 8
# lowest u = ln(z/(1-z)) probed: below it exp(-u) overflows in the logistic map
_U_MIN = -709.78
# relative residual allowed in N after a fugacity solve
_FUGACITY_TOL = 1e-10


@dataclass(frozen=True)
class GrandCanonicalState:
    """Solved fugacity for one (geometry, T, N) point.

    ``one_minus_fugacity`` is carried explicitly; for z = 1 - O(1/N) it holds
    more precision than 1 - fugacity recomputed in floats.
    """

    fugacity: float
    one_minus_fugacity: float
    temperature: float
    geometry: TrapGeometry
    n_atoms_target: float

    def __post_init__(self):
        if not (0.0 < self.fugacity < 1.0):
            raise ValueError(f"fugacity must lie strictly in (0, 1), got {self.fugacity}")
        if not self.one_minus_fugacity > 0:
            raise ValueError("one_minus_fugacity must be positive")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def condensate_number(self) -> float:
        return self.fugacity / self.one_minus_fugacity


@functools.cache
def _ramp() -> np.ndarray:
    """The read-only j = 1.0 ... _SERIES_CHUNK, built on the first series and
    shared by all."""
    j = np.arange(1.0, _SERIES_CHUNK + 1)
    j.flags.writeable = False
    return j


class _Series:
    """N(z, T) of one trap through the Boltzmann series, for the probes of a solve.

    The excited sum is sum_{j>=1} z^j f_j with the z-free factors
    f_j = expm1(ln Z_1(j*beta)), evaluated in chunks of _SERIES_CHUNK terms
    into buffers allocated once per object.  A chunk's j is built once and
    serves both j*(-beta) and j*ln z: the first chunk reads _ramp() itself,
    a later one _ramp() + (j0 - 1) in its own buffer, exact below 2^53.
    ln Z_1 is written over j*(-beta) in the chunk's factors.
    The store kept, max_chunks chunks long, holds f_1 ... f_known at
    self.beta, filled in order as calls reach past known, so later calls at
    that beta compute only z^j, one multiply and the chunk sums.  Chunks
    past the store are computed per call, and a new beta sets known = 0.

    Every term from j_dead = min(40/(beta*omega_min), -745.2/ln z) + 2 on is
    an exact zero (z^j underflows once j ln z <= -745.2; ln Z_1 and its expm1
    are -0.0 once j*beta*omega >= 40 on every axis), so the chunk holding
    j_dead computes only its live terms and ends the series; a full chunk's
    last term bounds the tail.  j_dead is infinite unless beta*omega_min is a
    normal float: below it ln Z_1 can be inf and 0 * inf a NaN.  A chunk is
    summed over the smallest 128 * 2^p prefix holding its live terms: numpy
    sums it pairwise in power-of-two halves of 128-term blocks, so the zero
    blocks add exactly +0.0 and the sum has the whole chunk's bits.
    """

    def __init__(self, geometry: TrapGeometry, max_chunks: int = 0):
        self.omega = geometry.omega
        self.omega_min = geometry.min_frequency
        self.beta = None
        self.known = 0
        self.kept = np.empty(max_chunks * _SERIES_CHUNK)
        self.j = np.empty(_SERIES_CHUNK)
        self.terms = np.empty(_SERIES_CHUNK)
        self.factors = np.empty(_SERIES_CHUNK)

    def _chunk_factors(self, j0: int, j: np.ndarray) -> np.ndarray:
        """f_j for the j = j0, j0 + 1, ... of the chunk starting at j0."""
        live = len(j)
        end = j0 - 1 + live
        if end <= self.known:
            return self.kept[j0 - 1:end]
        # chunks are reached in order: f_1 ... f_(j0-1) are known, or the store is full
        f = self.kept[j0 - 1:end] if end <= len(self.kept) else self.factors[:live]
        self.known = min(end, len(self.kept))
        np.multiply(j, -self.beta, out=f)
        _log_z1_into(self.omega, f, self.terms[:live])
        return np.expm1(f, out=f)

    def atom_number(self, z: float, temperature: float, one_minus_z: float,
                    tol: float = 1e-12) -> float:
        """atom_number at 0 < z < 1, 1 - z = one_minus_z > 0 and T > 0, as checked
        by the caller."""
        beta = 1.0 / temperature
        if beta != self.beta:
            self.beta, self.known = beta, 0
        ln_z = math.log(z) if one_minus_z > 0.5 else math.log1p(-one_minus_z)
        total = z / one_minus_z
        # asymptotic per-term decay rate: z * exp(-beta*omega_min)
        beta_omega = beta * self.omega_min
        rate = math.exp(ln_z - beta_omega)
        j_dead = math.inf
        if beta_omega >= sys.float_info.min:
            j_dead = min(40.0 / beta_omega, -745.2 / ln_z) + 2
        t = self.terms
        ramp = _ramp()
        j0 = 1
        while True:
            live = math.ceil(min(j_dead - j0, _SERIES_CHUNK))
            j = ramp[:live] if j0 == 1 else np.add(ramp[:live], j0 - 1, out=self.j[:live])
            f = self._chunk_factors(j0, j)
            head = np.multiply(j, ln_z, out=t[:live])
            np.exp(head, out=head)  # z^j
            head *= f
            block = max(128, 1 << max(live - 1, 0).bit_length())
            t[live:block] = 0.0
            total += float(t[:block].sum())
            if not math.isfinite(total):
                raise NumericalError(
                    f"atom-number series sum is {total} after {j0 + _SERIES_CHUNK - 1} terms"
                )
            if live < _SERIES_CHUNK or t[-1] * rate / (1.0 - rate) < tol * total:
                break
            j0 += _SERIES_CHUNK
            if j0 > _SERIES_MAX_TERMS:
                raise NumericalError(
                    f"atom-number series did not converge within {_SERIES_MAX_TERMS} terms"
                )
        return total


def atom_number(
    geometry: TrapGeometry,
    z: float,
    temperature: float,
    tol: float = 1e-12,
    one_minus_z: float | None = None,
) -> float:
    """Mean atom number N(z, T) = z/(1-z) + excited-mode Bose sum.

    The excited sum is resummed exactly as sum_j z^j (Z_1(j/T) - 1); the
    truncation tail is bounded below tol by the geometric decay of the terms.
    Exact-zero terms are skipped (see _Series): the value is bit for bit that
    of every term.  A sum that is not finite (a NaN or an overflowed term)
    raises NumericalError at the chunk where it appears; ValueError refuses
    z outside (0, 1), a one_minus_z (default 1 - z) <= 0 and T <= 0.
    A call allocates three one-chunk buffers, 1.5 MB: the j of the chunks
    past the first, which reads the shared ramp, the terms, which also hold
    the sum of ln Z_1's axes, and the factors.  A trap whose frequencies
    change twice from axis to axis, as (1, r, 1), adds one array per chunk.
    It keeps no factors: solve_fugacity does.
    """
    if one_minus_z is None:
        one_minus_z = 1.0 - z
    if not (0.0 < z < 1.0) or not one_minus_z > 0:
        raise ValueError(f"fugacity must lie strictly in (0, 1), got {z}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return _Series(geometry).atom_number(z, temperature, one_minus_z, tol)


def _fugacity(u: float) -> tuple[float, float]:
    """z and 1 - z at u = ln(z/(1-z)), each from its own logistic form."""
    return 1.0 / (1.0 + math.exp(-u)), 1.0 / (1.0 + math.exp(u))


def _excited_bound(geometry: TrapGeometry, temperature: float, u: float) -> float:
    """An upper bound on the excited part N(z) - z/(1-z) at u = ln(z/(1-z)).

    As 1/(1 - e^-x) <= 1 + 1/x, Z_1(j/T) - 1 <= sum over the non-empty sets S
    of axes of prod_{i in S} T/(j*omega_i), and sum_j z^j/j^s = Li_s(z), with
    Li_1(z) = -ln(1 - z) = ln(1 + e^u) and Li_s(z) <= zeta(s) for s = 2, 3.
    """
    li = (math.log1p(math.exp(u)), _ZETA[2], _ZETA[3])
    return sum(li[k - 1] * math.prod(temperature / w for w in axes)
               for k in (1, 2, 3) for axes in itertools.combinations(geometry.omega, k))


def solve_fugacity(
    geometry: TrapGeometry, n_atoms: float, temperature: float
) -> GrandCanonicalState:
    """Invert N(z, T) for z by root search in u = ln(z/(1-z)).

    N(z) is strictly increasing and spans (0, inf), so the bracket always
    exists; the logistic parameterization keeps resolution near z -> 1.
    Each probe sums the series once: Brent returns a point it has probed, so
    the residual check reads the root's probe.  T is fixed, so the series
    factors expm1(ln Z_1(j/T)) are computed once per solve, as far as the
    longest probe reaches: up to eight 65,536-term chunks (4 MB) are
    kept until the solve returns, and chunks past them are recomputed per
    probe.  The values are those of atom_number, bit for bit.

    The upper bracket end comes from one walk up in u.  If z < 1 at u = ln N,
    where z/(1-z) alone is N, the walk starts there and steps by 1e-6 with no
    reach, as rounding can leave N(ln N) a hair below N.  Above N ~ 2^53 z
    rounds to 1 there, so it starts at u = -5 and steps by 5 up to u = 35;
    NumericalError refuses a root past that reach, within 6.3e-16 of z = 1,
    before any probe when N exceeds (e^35 + _excited_bound(35))(1 + 1e-9),
    an upper bound on N(35) with room for the series' rounding.
    ValueError refuses an N that is not positive and finite or a T <= 0.
    """
    if not 0.0 < n_atoms < math.inf:
        raise ValueError(f"n_atoms must be positive and finite, got {n_atoms}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    series = _Series(geometry, _TABLE_MAX_CHUNKS)

    @functools.cache
    def n_of(u):
        z, omz = _fugacity(u)
        return series.atom_number(z, temperature, one_minus_z=omz)

    u_hi = math.log(n_atoms)  # condensate term alone already reaches N
    if _fugacity(u_hi)[0] < 1.0:
        # rounding in z/(1-z) can leave n_of(u_hi) a hair below N at very low T
        step, top = 1e-6, math.inf
    else:
        # a probe at z just below 1 sums ~40 T/omega_min terms: walk up from below
        u_hi, step, top = -5.0, 5.0, 35.0
        if n_atoms > (math.exp(top) + _excited_bound(geometry, temperature, top)) * (1 + 1e-9):
            top = -math.inf
    while u_hi <= top and n_of(u_hi) < n_atoms:
        u_hi += step
    if u_hi > top:
        raise NumericalError(f"fugacity root within 6.3e-16 of z = 1 at N = {n_atoms:g}")
    u_lo = u_hi - 60.0
    while u_lo >= _U_MIN and n_of(u_lo) > n_atoms:
        u_lo -= 60.0
    if u_lo < _U_MIN:
        raise NumericalError("failed to bracket the fugacity from below")
    u = brentq(lambda v: n_of(v) - n_atoms, u_lo, u_hi, 1e-13, 8.9e-16)
    z, omz = _fugacity(u)
    n_check = n_of(u)
    if abs(n_check - n_atoms) > max(_FUGACITY_TOL * n_atoms, 1e-12):
        raise NumericalError(
            f"fugacity solve residual {abs(n_check - n_atoms):.3e} exceeds "
            f"tolerance {_FUGACITY_TOL * n_atoms:.3e}"
        )
    return GrandCanonicalState(
        fugacity=z,
        one_minus_fugacity=omz,
        temperature=temperature,
        geometry=geometry,
        n_atoms_target=float(n_atoms),
    )


def temperature_for_fraction_gc(
    geometry: TrapGeometry,
    n_atoms: float,
    target_fraction: float,
    mode: str = "closed",
) -> GrandCanonicalState:
    """Fugacity and temperature holding the condensate fraction at the target.

    The condensate constraint fixes z = CN/(1+CN) in both modes.  "closed"
    uses the thermodynamic-limit forms T = (N(1-C)/zeta(D))^(1/D) (2D/3D,
    z set to 1 inside the excited sum) and T = N(1-C)/ln(CN+1) (1D);
    "exact" keeps z < 1 and solves the full atom-number equation for T, so
    the two modes check each other.  ValueError refuses an N that is not
    positive and finite; NumericalError a C*N at which z rounds to 1.
    """
    c = target_fraction
    if not 0.0 < c < 1.0:
        raise ValueError(f"target fraction must be in (0, 1), got {c}")
    if mode not in ("closed", "exact"):
        raise ValueError(f"mode must be 'closed' or 'exact', got {mode!r}")
    if not 0.0 < n_atoms < math.inf:
        raise ValueError(f"n_atoms must be positive and finite, got {n_atoms}")
    cn = c * n_atoms
    z = cn / (1.0 + cn)
    omz = 1.0 / (1.0 + cn)
    if not z < 1.0:
        raise NumericalError(
            f"fugacity CN/(1+CN) rounds to 1 at C*N = {cn:g}; C*N must stay below 2^53"
        )
    d = geometry.dimension
    n_exc = n_atoms * (1.0 - c)
    if d == 1:
        t = n_exc * geometry.omega[0] / math.log(c * n_atoms + 1.0)
    else:
        t = (n_exc * float(np.prod(geometry.omega)) / _ZETA[d]) ** (1.0 / d)
    if mode == "exact":
        # no kept chunks: beta changes at every probe, so they would be rebuilt each time
        series = _Series(geometry)

        @functools.cache
        def f(t):
            return series.atom_number(z, t, one_minus_z=omz) - n_atoms

        t_lo, t_hi = 0.3 * t, 3.0 * t
        while f(t_lo) > 0:
            t_lo *= 0.3
        while f(t_hi) < 0:
            t_hi *= 3.0
        t = brentq(f, t_lo, t_hi, 1e-12, 1e-14)
    return GrandCanonicalState(
        fugacity=z,
        one_minus_fugacity=omz,
        temperature=t,
        geometry=geometry,
        n_atoms_target=float(n_atoms),
    )


def sticking_ratio_gc(state: GrandCanonicalState) -> float:
    """Asymptotic N_1/N_0 = [x/(1-x)] * [(1-z)/z] with x = z exp(-eps/T).

    eps is one quantum of the softest axis, the first excited mode.  1 - x is
    assembled as (1-z) + z(1 - e^(-beta*eps)) to avoid cancellation for z
    near 1.
    """
    energy = state.geometry.min_frequency
    z, one_minus_z = state.fugacity, state.one_minus_fugacity
    damp = math.exp(-energy / state.temperature)
    one_minus_x = one_minus_z + z * (-math.expm1(-energy / state.temperature))
    return damp * one_minus_z / one_minus_x


def closed_form_sticking(dimension: int, n_atoms: float, target_fraction: float) -> float:
    """N_1/N_0 from the closed-form (z, T) in an isotropic trap; safe to N ~ 1e15."""
    g = TrapGeometry.isotropic(dimension)
    state = temperature_for_fraction_gc(g, n_atoms, target_fraction, mode="closed")
    return sticking_ratio_gc(state)
