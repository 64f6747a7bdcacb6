"""The Brent port against scipy.optimize.brentq, its checks, and the lockstep
loop.  scipy is a test-only oracle here; the package never imports it."""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import bosegas.brent
from bosegas import BracketError, NumericalError
from bosegas.brent import MIN_RTOL, _raise_first, brent, brentq, lockstep

# the (xtol, rtol) pairs the package uses: the soft-axis T inversion (xtol
# scaled by omega_min), the fugacity solve, and the T inversion and exact
# grand-canonical T
TOLERANCES = {
    "soft_axis_inversion": (1e-12 * 3e-5, 1e-14),
    "fugacity": (1e-13, 8.9e-16),
    "inversion": (1e-12, 1e-14),
}


def monotone(kind, centre, scale, sign):
    """A strictly monotone function with its root at ``centre``."""
    if kind == "power":
        return lambda x: sign * math.copysign(abs(x - centre) ** scale, x - centre)
    if kind == "tanh":
        return lambda x: sign * math.tanh(scale * (x - centre))
    if kind == "exp":
        return lambda x: sign * math.expm1(scale * (x - centre))
    return lambda x: sign * ((x - centre) ** 3 + scale * (x - centre))


def recorded(f):
    probes = []

    def g(x):
        probes.append(x)
        return f(x)

    return g, probes


def scipy_run(f, a, b, xtol, rtol):
    g, probes = recorded(f)
    try:
        root = scipy_brentq(g, a, b, xtol=xtol, rtol=rtol, maxiter=bosegas.brent.MAX_ITER)
    except RuntimeError:  # scipy's non-convergence
        root = None
    return root, probes


def port_run(f, a, b, xtol, rtol):
    g, probes = recorded(f)
    try:
        root = brentq(g, a, b, xtol, rtol)
    except NumericalError:
        root = None
    return root, probes


@pytest.mark.parametrize("tol", TOLERANCES.values(), ids=TOLERANCES.keys())
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    kind=st.sampled_from(["power", "tanh", "exp", "cubic"]),
    centre=st.floats(-50.0, 50.0),
    scale=st.floats(0.2, 5.0),
    sign=st.sampled_from([-1.0, 1.0]),
    left=st.floats(1e-3, 100.0),
    right=st.floats(1e-3, 100.0),
)
def test_matches_scipy_bitwise(tol, kind, centre, scale, sign, left, right):
    f = monotone(kind, centre, scale, sign)
    a, b = centre - left, centre + right
    if f(a) == 0 or f(b) == 0 or (f(a) < 0) == (f(b) < 0):
        return  # rounding put the root on an end or outside the bracket
    expected, expected_probes = scipy_run(f, a, b, *tol)
    root, probes = port_run(f, a, b, *tol)
    assert probes == expected_probes
    assert (root is None) == (expected is None)
    if root is not None:
        assert root.hex() == expected.hex()


# brackets spanning about 1e200 and more, where the extrapolation step's
# denominator underflows to 0 and brentq.c bisects on its inf or NaN step
WIDE_BRACKETS = {
    "expm1_1e250": (lambda x: math.expm1(x / 1e250 - 0.7), 1e-3, 1e251),
    "cube_1e200": (lambda x: (x / 1e200) ** 3 - 2.0, 1e-3, 1e201),
}


@pytest.mark.parametrize("tol", TOLERANCES.values(), ids=TOLERANCES.keys())
@pytest.mark.parametrize("case", sorted(WIDE_BRACKETS))
def test_matches_scipy_bitwise_on_wide_brackets(tol, case):
    f, a, b = WIDE_BRACKETS[case]
    expected, expected_probes = scipy_run(f, a, b, *tol)
    root, probes = port_run(f, a, b, *tol)
    assert probes == expected_probes
    assert root.hex() == expected.hex()


@pytest.mark.parametrize("tol", TOLERANCES.values(), ids=TOLERANCES.keys())
def test_non_convergence_after_max_iter(monkeypatch, tol):
    # a step function never shrinks its value, so Brent runs out of iterations
    # at the bound it was written against; scipy_run reads the patched value
    monkeypatch.setattr(bosegas.brent, "MAX_ITER", 100)
    f = lambda x: -1.0 if x < math.pi else 1.0  # noqa: E731
    _, expected_probes = scipy_run(f, 0.0, 1e100, *tol)
    g, probes = recorded(f)
    with pytest.raises(NumericalError, match="did not converge"):
        brentq(g, 0.0, 1e100, *tol)
    assert probes == expected_probes
    assert len(probes) == 100 + 2


def test_nan_probe():
    with pytest.raises(NumericalError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0, 1e-12, 1e-14)


def test_one_sign_at_the_ends():
    with pytest.raises(BracketError, match="one sign") as info:
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 1e-14)
    assert info.value.samples == [(-1.0, 2.0), (2.0, 5.0)]


def test_root_on_an_end():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12, 1e-14) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12, 1e-14) == 3.0


@pytest.mark.parametrize("xtol, rtol", [(0.0, 1e-14), (-1e-12, 1e-14), (1e-12, MIN_RTOL / 2)])
def test_tolerances_checked(xtol, rtol):
    with pytest.raises(ValueError, match="too small"):
        next(brent(0.0, 1.0, xtol, rtol, lambda x: (yield x)))
    assert MIN_RTOL == 4 * sys.float_info.epsilon


def test_lockstep_rounds_and_order():
    centres = [0.3, 1.7, -2.2, 5.0]
    rounds = []

    def evaluate(points):
        rounds.append(len(points))
        return [x - c for x, c in points]

    def search(c):
        return brent(-10.0, 10.0, 1e-12, 1e-14, lambda x: (yield x, c))

    roots = lockstep([search(c) for c in centres], evaluate)
    assert roots == [brentq(lambda x, c=c: x - c, -10.0, 10.0, 1e-12, 1e-14) for c in centres]
    assert rounds[0] == len(centres)
    assert sum(rounds) == sum(
        len(port_run(lambda x, c=c: x - c, -10.0, 10.0, 1e-12, 1e-14)[1]) for c in centres
    )


def test_lockstep_raises_the_first_failure_in_input_order():
    def search(fails_after):
        for i in range(3):
            yield i
            if i == fails_after:
                raise NumericalError(f"failed after {fails_after}")
        return "done"

    with pytest.raises(NumericalError, match="failed after 2"):
        _raise_first(lockstep([search(5), search(2), search(0)], lambda xs: xs))
    assert _raise_first(lockstep([search(5), search(5)], lambda xs: xs)) == ["done", "done"]


def test_lockstep_holds_each_failure_in_its_slot():
    def search(fails_at, result):
        for i in range(4):
            if i == fails_at:
                raise (ValueError if result == "c" else NumericalError)(f"{result} failed")
            assert (yield i) == 2 * i
        return result

    evaluated = []

    def double(probes):
        evaluated.append(list(probes))
        return [2 * x for x in probes]

    outcomes = lockstep([search(9, "a"), search(1, "b"), search(2, "c"), search(9, "d")], double)
    assert outcomes[0] == "a" and outcomes[3] == "d"
    assert isinstance(outcomes[1], NumericalError) and str(outcomes[1]) == "b failed"
    assert isinstance(outcomes[2], ValueError) and str(outcomes[2]) == "c failed"
    # a failed search leaves the rounds after its failure
    assert evaluated == [[0, 0, 0, 0], [1, 1, 1], [2, 2], [3, 3]]


def test_lockstep_evaluate_error_ends_the_run_at_once():
    def search():
        for i in range(3):
            yield i
        return "done"

    calls = []

    def evaluate(probes):
        calls.append(probes)
        if len(calls) == 2:
            raise NumericalError("evaluate failed")
        return probes

    with pytest.raises(NumericalError, match="evaluate failed"):
        lockstep([search(), search()], evaluate)
    assert len(calls) == 2


def test_lockstep_throws_a_slot_error_into_its_own_search():
    resumed = []

    def search(c):
        def f(x):
            value = yield x, c
            resumed.append((x, c))
            return value
        return brent(-10.0, 10.0, 1e-12, 1e-14, f)

    def run(centres, refused=None):
        probes, errors = [], {}

        def evaluate(points):
            probes.extend(points)
            errors.update({p: NumericalError(f"refused {p}") for p in points if p == refused})
            return [errors.get((x, c), x - c) for x, c in points]

        return lockstep([search(c) for c in centres], evaluate), probes, errors

    centres = [0.3, 1.7, -2.2]
    outcomes, probes, errors = run(centres, refused=(10.0, 1.7))  # the upper end of 1.7's bracket
    assert outcomes[1] is errors[(10.0, 1.7)]
    # the search resumed after its first probe only: the error ended it at its yield
    assert [p for p in resumed if p[1] == 1.7] == [(-10.0, 1.7)]
    for c, outcome in zip(centres, outcomes):
        if c != 1.7:
            alone, alone_probes, _ = run([c])
            assert outcome == alone[0]
            assert [p for p in probes if p[1] == c] == alone_probes

    def raising(points):
        raise NumericalError("evaluate failed")

    # an error the evaluator raises, not returns, still ends the run
    with pytest.raises(NumericalError, match="evaluate failed"):
        lockstep([search(c) for c in centres], raising)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, bosegas.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
