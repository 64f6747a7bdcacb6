"""Brent's root finder as a generator, and the loop that runs many at once.

``brent`` is a line-for-line port of the ``brentq`` C routine of scipy
(scipy/optimize/Zeros/brentq.c): the same probes in the same order, so the
same root to the last bit.  Its evaluator f is a generator function, read
as ``fx = yield from f(x)``, so searches compose with ``yield from``; only
``lockstep`` sends values in, evaluating each round's requests in one call.
"""

from __future__ import annotations

import math

from .errors import BoseGasError, BracketError, NumericalError

# the smallest rtol brentq accepts: four machine epsilons
MIN_RTOL = 4.0 * 2.0**-52
# Bisection alone needs at most about 1,080 halvings on either T(N_0/N)
# bracket anywhere in the float range: [1e-3, <= 1.8e308] to rtol 1e-14, and
# [1e-3 omega_min, 1e-3] to xtol 1e-12 omega_min.  The bound leaves room for
# the interpolation steps between them; every search that converges within
# fewer iterations keeps its probes.
MAX_ITER = 3000


def brent(a: float, b: float, xtol: float, rtol: float, f):
    """A Brent search for a root of f in [a, b], as a generator.

    f is a generator function, run as ``yield from f(x)`` at a, b and each new
    probe x; its return value is the function value.  Returns the root
    (StopIteration.value).  f(a) and f(b) of one sign raise BracketError with
    both ends as its samples; a NaN value, or no convergence within MAX_ITER
    iterations, raises NumericalError.  This is the one sign test of every
    caller's bracket.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {MIN_RTOL:g})")

    def probe(x):
        fx = yield from f(x)
        if math.isnan(fx):
            raise NumericalError(f"the function value at x={x} is NaN; Brent cannot continue")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = yield from probe(xpre)
    fcur = yield from probe(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(
            f"f has one sign at both ends of [{a:g}, {b:g}]: f = ({fpre:.3e}, {fcur:.3e})",
            samples=[(a, fpre), (b, fcur)],
        )
    for _ in range(MAX_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # a denominator that underflows to 0 gives brentq.c an inf or
                # NaN step, which fails the test below: bisect
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield from probe(xcur)
    raise NumericalError(f"Brent did not converge in {MAX_ITER} iterations; last x = {xcur}")


def lockstep(searches, evaluate):
    """Run generator searches together; return, in input order, each search's
    result or the BoseGasError or ValueError that ended it.

    Each round collects the pending probe of every unfinished search, calls
    ``evaluate(probes)`` once for all of them and sends each search its
    value.  Any other error, and an error of ``evaluate`` itself, ends the
    run at once.
    """
    outcomes = [None] * len(searches)
    values = dict.fromkeys(range(len(searches)))  # what each live search is sent next
    while values:
        probes = {}
        for i, value in values.items():
            try:
                probes[i] = searches[i].send(value)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except (BoseGasError, ValueError) as err:
                outcomes[i] = err
        values = dict(zip(probes, evaluate(list(probes.values())))) if probes else {}
    return outcomes


def _raise_first(outcomes):
    """The outcomes, or the first BoseGasError or ValueError among them raised."""
    for outcome in outcomes:
        if isinstance(outcome, (BoseGasError, ValueError)):
            raise outcome
    return outcomes


def _ask(x):
    """The evaluator that yields its probe and returns the value sent back."""
    return (yield x)


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """The root of f in [a, b]: one brent search, each probe evaluated by f."""
    search = brent(a, b, xtol, rtol, _ask)
    return _raise_first(lockstep([search], lambda xs: [f(x) for x in xs]))[0]
