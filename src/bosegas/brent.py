"""Brent's root finder as a generator, and the loop that runs many at once.

``brent`` is a line-for-line port of the ``brentq`` C routine of scipy
(scipy/optimize/Zeros/brentq.c): the same probes in the same order, so the
same root to the last bit.  Instead of calling f it yields each probe x and
is sent f(x), so the caller decides how probes are evaluated: ``lockstep``
evaluates one probe of every unfinished search per round, in one call.
"""

from __future__ import annotations

import math

from .errors import BoseGasError, NumericalError

# the smallest rtol brentq accepts: four machine epsilons
MIN_RTOL = 4.0 * 2.0**-52
MAX_ITER = 100


def brent(a: float, b: float, xtol: float, rtol: float):
    """Generator over the probes of a Brent search for a root in [a, b].

    Yields a, b and then each new probe x; expects f(x) to be sent back for
    each, and returns the root (StopIteration.value).  A NaN value, f(a) and
    f(b) of one sign, or no convergence within MAX_ITER iterations raises
    NumericalError.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {MIN_RTOL:g})")

    def probe(x):
        fx = yield x
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
        raise NumericalError(
            f"f(a) and f(b) have one sign: f({a}) = {fpre}, f({b}) = {fcur}"
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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
    """Run generator searches together and return their results in order.

    Each round collects the pending probe of every unfinished search, calls
    ``evaluate(probes)`` once for all of them and sends each search its
    value.  A search that raises a BoseGasError or ValueError is dropped;
    once all are done, the error of the first failed search (in input order)
    is raised.  Any other error, and an error of ``evaluate`` itself, ends
    the run at once.
    """
    results = [None] * len(searches)
    errors = {}
    pending = {}

    def advance(i, value):
        try:
            pending[i] = searches[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
        except (BoseGasError, ValueError) as err:  # raised below, in input order
            errors[i] = err

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        lanes, probes = zip(*pending.items())
        pending.clear()
        for i, value in zip(lanes, evaluate(list(probes))):
            advance(i, value)
    if errors:
        raise errors[min(errors)]
    return results


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """The root of f in [a, b]: one brent search, each probe evaluated by f."""
    return lockstep([brent(a, b, xtol, rtol)], lambda xs: [f(x) for x in xs])[0]
