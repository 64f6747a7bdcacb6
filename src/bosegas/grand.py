"""Grand-canonical statistics: fugacity solves, thermodynamic-limit closed
forms and the asymptotic behavior of the sticking ratio N_1/N_0.

The atom-number constraint N = z/(1-z) + sum_{lambda != 0} x/(1-x) with
x = z exp(-beta*E_lambda) is evaluated through the exact Boltzmann series
sum_{j>=1} z^j (Z_1(j*beta) - 1), which converges geometrically at rate
exp(-beta*omega_min) independent of z and needs no mode enumeration.

Fugacities very close to one are tracked together with their complement
1 - z so that N up to 1e15 stays representable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .brent import brentq
from .errors import NumericalError
from .trap import _ZETA, TrapGeometry

_SERIES_CHUNK = 65536
_SERIES_MAX_TERMS = 500_000_000
# relative residual allowed in N after a fugacity solve
_FUGACITY_TOL = 1e-10
# condensate fraction at which the asymptotic N-scaling laws are sampled
_SCALING_FRACTION = 0.2


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
    """
    if one_minus_z is None:
        one_minus_z = 1.0 - z
    if not (0.0 < z < 1.0) or not one_minus_z > 0:
        raise ValueError(f"fugacity must lie strictly in (0, 1), got {z}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    beta = 1.0 / temperature
    ln_z = math.log(z) if one_minus_z > 0.5 else math.log1p(-one_minus_z)
    total = z / one_minus_z
    # asymptotic per-term decay rate: z * exp(-beta*omega_min)
    rate = math.exp(ln_z - beta * geometry.min_frequency)
    j0 = 1
    while True:
        j = np.arange(j0, j0 + _SERIES_CHUNK, dtype=float)
        t = np.exp(j * ln_z) * np.expm1(geometry.log_z1(j * beta))
        total += float(t.sum())
        tail = t[-1] * rate / (1.0 - rate)
        if tail < tol * total:
            break
        j0 += _SERIES_CHUNK
        if j0 > _SERIES_MAX_TERMS:
            raise NumericalError(
                f"atom-number series did not converge within {_SERIES_MAX_TERMS} terms"
            )
    return total


def solve_fugacity(
    geometry: TrapGeometry, n_atoms: float, temperature: float
) -> GrandCanonicalState:
    """Invert N(z, T) for z by root search in u = ln(z/(1-z)).

    N(z) is strictly increasing and spans (0, inf), so the bracket always
    exists; the logistic parameterization keeps resolution near z -> 1.
    Each probe sums the series once: Brent returns a point it has probed, so
    the residual check reads the root's probe.
    """
    if not n_atoms > 0:
        raise ValueError(f"n_atoms must be positive, got {n_atoms}")

    @functools.cache
    def n_of(u):
        z = 1.0 / (1.0 + math.exp(-u))
        omz = 1.0 / (1.0 + math.exp(u))
        return atom_number(geometry, z, temperature, one_minus_z=omz)

    u_hi = math.log(n_atoms)  # condensate term alone already reaches N
    # rounding in z/(1-z) can leave n_of(u_hi) a hair below N at very low T
    while n_of(u_hi) < n_atoms:
        u_hi += 1e-6
    u_lo = u_hi - 60.0
    while n_of(u_lo) > n_atoms:
        u_lo -= 60.0
        if u_lo < -1e6:
            raise NumericalError("failed to bracket the fugacity from below")
    u = brentq(lambda v: n_of(v) - n_atoms, u_lo, u_hi, 1e-13, 8.9e-16)
    z = 1.0 / (1.0 + math.exp(-u))
    omz = 1.0 / (1.0 + math.exp(u))
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


def _closed_form_temperature(geometry: TrapGeometry, n_atoms: float, c: float) -> float:
    d = geometry.dimension
    n_exc = n_atoms * (1.0 - c)
    if d == 1:
        return n_exc * geometry.omega[0] / math.log(c * n_atoms + 1.0)
    freq_product = float(np.prod(geometry.omega))
    return (n_exc * freq_product / _ZETA[d]) ** (1.0 / d)


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
    the two modes check each other.
    """
    c = target_fraction
    if not 0.0 < c < 1.0:
        raise ValueError(f"target fraction must be in (0, 1), got {c}")
    if mode not in ("closed", "exact"):
        raise ValueError(f"mode must be 'closed' or 'exact', got {mode!r}")
    cn = c * n_atoms
    z = cn / (1.0 + cn)
    omz = 1.0 / (1.0 + cn)
    if not z < 1.0:
        raise NumericalError(
            f"fugacity CN/(1+CN) rounds to 1 at C*N = {cn:g}; C*N must stay below 2^53"
        )
    t0 = _closed_form_temperature(geometry, n_atoms, c)
    if mode == "closed":
        t = t0
    else:
        @functools.cache
        def f(t):
            return atom_number(geometry, z, t, one_minus_z=omz) - n_atoms

        t_lo, t_hi = 0.3 * t0, 3.0 * t0
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


def asymptotic_scaling_exponent(dimension: int, samples) -> float:
    """Least-squares slope of ln(N_1/N_0) vs ln N for D = 2 or 3, at N_0/N = 0.2.

    The expected limits are -1/2 (2D) and -2/3 (3D).  The 1D law is
    logarithmic, not a power; use log_law_drift for it.
    """
    if dimension not in (2, 3):
        raise ValueError("power-law scaling applies to D = 2 or 3; use log_law_drift for 1D")
    samples = sorted(float(n) for n in samples)
    if len(samples) < 3:
        raise ValueError(f"need at least 3 atom-number samples, got {len(samples)}")
    ratios = [closed_form_sticking(dimension, n, _SCALING_FRACTION) for n in samples]
    slope = np.polyfit(np.log(samples), np.log(ratios), 1)[0]
    return float(slope)


def log_law_drift(samples) -> float:
    """Max per-decade relative change of (N_1/N_0)*ln N in 1D, at N_0/N = 0.2.

    Small values confirm the 1/ln N law: the product is asymptotically flat.
    """
    samples = sorted(float(n) for n in samples)
    if len(samples) < 3:
        raise ValueError(f"need at least 3 atom-number samples, got {len(samples)}")
    products = np.array(
        [closed_form_sticking(1, n, _SCALING_FRACTION) * math.log(n) for n in samples]
    )
    drift = 0.0
    for i in range(len(samples) - 1):
        decades = math.log10(samples[i + 1] / samples[i])
        change = abs(products[i + 1] - products[i]) / products[i]
        drift = max(drift, change / decades)
    return drift
