"""Polynomial function specs: evaluation, derivatives, windows, inverses."""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickset import (
    CertifiedValue,
    ClosedInterval,
    CounterexampleParams,
    DomainError,
    FunctionSpec,
    MonotoneBracket,
    Polynomial,
    RangeError,
    counterexample_parts,
    derivative_window,
    eval_function,
    monotone_inverse,
)
from thickset import functions
from thickset.functions import count_roots, isolate_roots, range_bounds

from conftest import naive_count_roots, naive_isolate_roots

IDENTITY = FunctionSpec((F(1),))
SQUARE = FunctionSpec((F(0), F(1)))
GENTLE = FunctionSpec((F(1), F(1, 10)))  # t + t^2/10


def test_eval_identity():
    assert eval_function(IDENTITY, F(1, 3)) == F(1, 3)


def test_eval_gentle():
    assert eval_function(GENTLE, F(1, 2)) == F(21, 40)


def test_eval_square_reproduces_counterexample_endpoint_squares():
    params = CounterexampleParams(F(1), F(1, 1000), F(99, 100))
    parts = counterexample_parts(params)
    # Squaring the inner reflected flank endpoint lands exactly c times the
    # far endpoint of the gap right of I3; the c < 1 slack is what makes the
    # avoidance inclusions strict.
    inner = -parts["I2"].hi  # = eps
    assert eval_function(SQUARE, inner) == parts["G3"].lo / params.c
    outer = -parts["I2"].lo  # = (1 + beta*tau) eps
    assert eval_function(SQUARE, outer) == params.c * parts["G3"].hi


def test_derivative_examples():
    assert IDENTITY.polynomial().derivative().coeffs == (F(1),)
    d_square = SQUARE.polynomial().derivative()
    assert d_square.coeffs == (F(0), F(2))
    assert d_square(F(0)) == 0
    d_gentle = GENTLE.polynomial().derivative()
    assert d_gentle.coeffs == (F(1), F(1, 5))
    assert d_gentle(F(0)) == GENTLE.slope_at_zero


def test_derivative_matches_central_differences():
    import random

    rng = random.Random(7)
    f = FunctionSpec((F(2, 3), F(-1, 4), F(0), F(1, 7)))
    p = f.polynomial()
    dp = p.derivative()
    for _ in range(1000):
        x = F(rng.randint(-50, 50), rng.randint(1, 40))
        h = F(1, rng.randint(100, 10000))
        centered = (p(x + h) - p(x - h)) / (2 * h)
        # Truncation envelope: |err| <= h^2 * sum |c_k| 2^k max(1,|x|)^k.
        bound = h ** 2 * sum(
            abs(c) * 2 ** k * max(F(1), abs(x)) ** k
            for k, c in enumerate(p.coeffs)
        )
        assert abs(centered - dp(x)) <= bound


def test_derivative_window_values():
    w = derivative_window(F(2))
    assert (w.lower, w.upper) == (F(2, 3), F(3, 2))
    w = derivative_window(F(3, 2))
    assert (w.lower, w.upper) == (F(2, 3), F(3, 2))


def test_derivative_window_brute_candidates():
    for tau in (F(101, 100), F(3, 2), F(2), F(7), F(100)):
        w = derivative_window(tau)
        candidates_low = [tau / (tau + 1), 1 / tau]
        candidates_high = [tau, 1 + 1 / tau]
        assert w.lower == max(candidates_low)
        assert w.upper == min(candidates_high)
        assert w.lower < 1 < w.upper


def test_derivative_window_requires_tau_above_one():
    for tau in (F(1), F(1, 2), F(0)):
        with pytest.raises(DomainError):
            derivative_window(tau)


def test_monotone_inverse_identity():
    enc = monotone_inverse(IDENTITY, F(1, 4), ClosedInterval(F(0), F(1)), F(1, 2 ** 40))
    assert enc.contains_point(F(1, 4))
    assert enc.length <= F(1, 2 ** 40)


def test_monotone_inverse_exact_hits():
    f = FunctionSpec((F(1), F(1)))  # t + t^2
    enc = monotone_inverse(f, F(2), ClosedInterval(F(0), F(2)), F(1, 2 ** 20))
    assert enc.contains_point(F(1))
    enc = monotone_inverse(GENTLE, F(21, 40), ClosedInterval(F(0), F(1)), F(1, 2 ** 20))
    assert enc.contains_point(F(1, 2))
    # Endpoint hit collapses to a point.
    enc = monotone_inverse(IDENTITY, F(0), ClosedInterval(F(0), F(1)), F(1, 4))
    assert enc.lo == enc.hi and enc.lo == 0


def test_monotone_inverse_decreasing_function():
    f = FunctionSpec((F(-1), F(-1, 20)))
    enc = monotone_inverse(f, F(-21, 40) * F(1, 2), ClosedInterval(F(0), F(1)), F(1, 2 ** 30))
    value = eval_function(f, enc.midpoint)
    assert abs(value - F(-21, 80)) < F(1, 2 ** 20)


def test_monotone_inverse_rejects_non_monotone_bracket():
    with pytest.raises(DomainError):
        monotone_inverse(SQUARE, F(1, 4), ClosedInterval(F(-1), F(1)), F(1, 2 ** 20))


def test_monotone_bracket_is_certified_once(monkeypatch):
    with pytest.raises(DomainError, match="not certifiably monotone"):
        MonotoneBracket(F(-1), F(1), SQUARE)
    plain = ClosedInterval(F(0), F(1))
    certified = MonotoneBracket(F(0), F(1), GENTLE)
    expected = monotone_inverse(GENTLE, F(1, 2), plain, F(1, 2 ** 40))
    # A certified bracket skips the certificate; a plain one still runs it.
    monkeypatch.setattr(functions, "sign_on_interval", lambda p, window: None)
    assert monotone_inverse(GENTLE, F(1, 2), certified, F(1, 2 ** 40)) == expected
    with pytest.raises(DomainError, match="not certifiably monotone"):
        monotone_inverse(GENTLE, F(1, 2), plain, F(1, 2 ** 40))
    with pytest.raises(DomainError, match="not certifiably monotone"):
        monotone_inverse(IDENTITY, F(1, 2), certified, F(1, 2 ** 40))


def test_monotone_inverse_rejects_out_of_range():
    with pytest.raises(RangeError):
        monotone_inverse(IDENTITY, F(3), ClosedInterval(F(0), F(1)), F(1, 2 ** 20))


def test_monotone_inverse_round_trip_containment():
    import random

    rng = random.Random(11)
    for _ in range(60):
        f = FunctionSpec((F(rng.randint(1, 5)), F(rng.randint(-2, 4), 10)))
        bracket = ClosedInterval(F(0), F(1))
        t_true = F(rng.randint(1, 99), 100)
        y = eval_function(f, t_true)
        enc = monotone_inverse(f, y, bracket, F(1, 2 ** 50))
        assert enc.contains_point(t_true)
        assert eval_function(f, enc.lo) <= y <= eval_function(f, enc.hi)


@st.composite
def _inverse_problems(draw):
    """A polynomial f with f(0) = 0, a bracket on which MonotoneBracket
    certifies it increasing or decreasing, a target between the bracket-end
    values (often the ends themselves) and a precision."""
    slope = F(draw(st.integers(1, 4))) * draw(st.sampled_from((1, -1)))
    higher = draw(st.lists(st.builds(F, st.integers(-6, 6), st.just(8)), max_size=2))
    f = FunctionSpec((slope, *higher))
    lo = F(draw(st.integers(-8, 7)), 8)
    hi = lo + F(draw(st.integers(1, 8)), 8)
    try:
        bracket = MonotoneBracket(lo, hi, f)
    except DomainError:
        assume(False)
    at = draw(st.one_of(st.just(F(0)), st.just(F(1)), st.integers(0, 64).map(lambda k: F(k, 64))))
    y_lo, y_hi = eval_function(f, lo), eval_function(f, hi)
    precision = F(1, 2 ** draw(st.integers(1, 64)))
    return f, bracket, y_lo + (y_hi - y_lo) * at, precision


@settings(max_examples=150, deadline=None)
@given(_inverse_problems())
def test_monotone_inverse_encloses_the_sympy_root(problem):
    f, bracket, y, precision = problem
    enc = monotone_inverse(f, y, bracket, precision)
    assert bracket.contains_interval(enc)
    assert enc.length <= precision
    q = sympy.Rational
    shifted = sympy.Poly([q(c) for c in reversed(f.coefficients)] + [-q(y)], sympy.Symbol("t"))
    # f is strictly monotone on the bracket: f - y has exactly one root there,
    # and Sturm counting in sympy places it in the closed enclosure.
    assert shifted.count_roots(q(bracket.lo), q(bracket.hi)) == 1
    assert shifted.count_roots(q(enc.lo), q(enc.hi)) == 1


def test_sturm_root_counting():
    p = Polynomial((F(6), F(-7), F(0), F(1)))  # (t-1)(t-2)(t+3)
    assert count_roots(p, ClosedInterval(F(0), F(5))) == 2
    assert count_roots(p, ClosedInterval(F(-4), F(5))) == 3
    assert count_roots(p, ClosedInterval(F(-3), F(1))) == 2  # endpoint roots count
    assert count_roots(p, ClosedInterval(F(3, 2), F(3, 2))) == 0
    double = Polynomial((F(1), F(-2), F(1)))  # (t-1)^2
    assert count_roots(double, ClosedInterval(F(0), F(2))) == 1  # distinct roots


def test_isolate_roots_covers_all_roots():
    p = Polynomial((F(6), F(-7), F(0), F(1)))
    boxes = isolate_roots(p, ClosedInterval(F(-4), F(3)), F(1, 64))
    assert len(boxes) == 3
    for root in (F(1), F(2), F(-3)):
        assert any(b.lo <= root <= b.hi for b in boxes)
    assert all(b.length <= F(1, 64) for b in boxes)


def test_isolate_roots_reports_a_root_right_of_a_midpoint_root_once():
    p = Polynomial((F(3, 8), F(-5, 4), F(1)))  # (t - 1/2)(t - 3/4)
    boxes = isolate_roots(p, ClosedInterval(F(0), F(1)), F(1, 4))
    assert boxes == [ClosedInterval(F(1, 4), F(1, 2)), ClosedInterval(F(1, 2), F(3, 4))]


def _from_roots(roots):
    coeffs = [F(1)]
    for r in roots:  # multiply by (t - r)
        coeffs = [a - r * b for a, b in zip([F(0)] + coeffs, coeffs + [F(0)])]
    return Polynomial(tuple(coeffs))


def _sympy_roots_in(p, window):
    t = sympy.Symbol("t")
    roots = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(p.coeffs)], t).real_roots()
    found = {F(int(r.p), int(r.q)) for r in roots}
    return sorted(r for r in found if window.lo <= r <= window.hi)


@st.composite
def _root_problems(draw):
    """A window, a box width 1/2**k of it, and a product of linear factors
    (some repeated) whose roots include dyadic midpoints of the window."""
    lo = F(draw(st.integers(-8, 4)), 4)
    window = ClosedInterval(lo, lo + F(draw(st.integers(1, 8)), 4))
    k = draw(st.integers(2, 6))
    dyadic = st.builds(
        lambda j, i: window.lo + window.length * F(i % (2 ** j + 1), 2 ** j),
        st.integers(0, k), st.integers(0, 64),
    )
    anywhere = st.builds(F, st.integers(-40, 24), st.integers(1, 9)).map(lambda r: r / 2)
    roots = draw(st.lists(st.one_of(dyadic, anywhere), min_size=1, max_size=4))
    repeated = draw(st.lists(st.sampled_from(roots), max_size=2))
    return _from_roots(roots + repeated), window, window.length / 2 ** k


@settings(max_examples=80, deadline=None)
@given(_root_problems())
def test_isolate_roots_against_sympy(problem):
    p, window, max_width = problem
    roots = _sympy_roots_in(p, window)
    assume(all(b - a > max_width for a, b in zip(roots, roots[1:])))
    boxes = isolate_roots(p, window, max_width)
    assert len(boxes) == len(roots)
    assert all(any(b.contains_point(r) for b in boxes) for r in roots)
    assert all(b.length <= max_width and window.contains_interval(b) for b in boxes)


@settings(max_examples=80, deadline=None)
@given(_root_problems())
def test_count_roots_against_sympy(problem):
    p, window, _ = problem
    assert count_roots(p, window) == len(_sympy_roots_in(p, window))


def test_range_bounds_exact_for_monotone():
    p = Polynomial((F(1), F(1, 5)))
    got = range_bounds(p, ClosedInterval(F(0), F(1)))
    assert (got.lo, got.hi) == (F(1), F(6, 5))


def test_range_bounds_boxes_an_interior_critical_point():
    # f' = 1 + 3t^2 on [-1/2, 1/4]: its minimum 1 sits at t = 0, inside the
    # window, so it is isolated and boxed by interval evaluation; the
    # maximum 7/4 sits at an endpoint and is exact.
    p = Polynomial((F(1), F(0), F(3)))
    got = range_bounds(p, ClosedInterval(F(-1, 2), F(1, 4)))
    assert got.hi == F(7, 4)
    assert got.lo <= 1
    assert 1 - got.lo < F(1, 2 ** 20)


def _poly(texts):
    return Polynomial(tuple(F(c) for c in texts))


def _window(lo, hi):
    return ClosedInterval(F(lo), F(hi))


# (coefficients from the constant term up, window, max_width) -> the exact
# boxes, taken from the per-segment recursion before the one-chain form.
ISOLATION_PINS = [
    # (t - 1/2)(t - 3/4): the second root lies right of the midpoint root.
    (["3/8", "-5/4", "1"], ("0", "1"), "1/4", [("1/4", "1/2"), ("1/2", "3/4")]),
    # t(t - 1): a root at each window end.
    (["0", "-1", "1"], ("0", "1"), "1/8", [("0", "1/8"), ("7/8", "1")]),
    # (t + 1)**2 (t - 2/3): a double root at lo, a root at a non-dyadic hi.
    (["-2/3", "-1/3", "4/3", "1"], ("-1", "2/3"), "1/16",
     [("-1", "-91/96"), ("59/96", "2/3")]),
    # (t - 1/3)(t - 1/2)(t - 2/3) on [1/3, 2/3]: both ends and the midpoint.
    (["-1/9", "13/18", "-3/2", "1"], ("1/3", "2/3"), "1/100",
     [("1/3", "65/192"), ("95/192", "1/2"), ("127/192", "2/3")]),
    # t**3 - 2: one irrational root.
    (["-2", "0", "0", "1"], ("1", "2"), "1/1024", [("645/512", "1291/1024")]),
    # (t - 1/2)**3: a triple root at the first midpoint.
    (["-1/8", "3/4", "-3/2", "1"], ("0", "1"), "1/2", [("0", "1/2")]),
    # A point window on a root.
    (["-5/7", "1"], ("5/7", "5/7"), "1/4", [("5/7", "5/7")]),
]


@pytest.mark.parametrize("coeffs, window, width, expected", ISOLATION_PINS)
def test_isolate_roots_boxes_are_pinned(coeffs, window, width, expected):
    boxes = isolate_roots(_poly(coeffs), _window(*window), F(width))
    assert boxes == [_window(*b) for b in expected]
    assert count_roots(_poly(coeffs), _window(*window)) == len(expected)


# f = t + t**3/10: the boxes of radius tau*delta that ``_validate_delta``
# meets for middle-alpha 1/5, 1/6, 1/7 and 2/11, and range_bounds of f' on
# each; f'' = 3t/5 has its root at the box centre.
CUBIC_SLOPE_PINS = [
    ("1/4", "163/160", ("-1/8589934592", "0")),
    ("5/16", "527/512", ("-5/34359738368", "0")),
    ("3/8", "667/640", ("-3/17179869184", "0")),
    ("3/16", "2587/2560", ("-3/34359738368", "0")),
    ("9/32", "10483/10240", ("-9/68719476736", "0")),
]


@pytest.mark.parametrize("radius, upper, critical", CUBIC_SLOPE_PINS)
def test_cubic_slope_gate_is_pinned(radius, upper, critical):
    slope = FunctionSpec((F(1), F(0), F(1, 10))).polynomial().derivative()
    box = _window("-" + radius, radius)
    assert range_bounds(slope, box) == _window("1", upper)
    assert isolate_roots(slope.derivative(), box, box.length / 2 ** 32) == [_window(*critical)]


@pytest.mark.parametrize("coeffs, window, lower, upper", [
    (["1", "0", "3"], ("-1/2", "1/4"), "147573952589676412925/147573952589676412928", "7/4"),
    (["0", "-1", "0", "1"], ("-2", "2"), "-6", "6"),
    (["1/4", "-1", "1"], ("0", "1"), "-1/8589934592", "1/4"),
    (["1", "1/5"], ("0", "1"), "1", "6/5"),
])
def test_range_bounds_is_pinned(coeffs, window, lower, upper):
    assert range_bounds(_poly(coeffs), _window(*window)) == _window(lower, upper)


@settings(max_examples=150, deadline=None)
@given(_root_problems())
def test_isolate_roots_matches_the_per_segment_recursion(problem):
    p, window, max_width = problem
    assert isolate_roots(p, window, max_width) == naive_isolate_roots(p, window, max_width)
    assert count_roots(p, window) == naive_count_roots(p, window)


def test_one_call_builds_one_sturm_chain(monkeypatch):
    built = []
    chain = functions.sturm_sequence
    monkeypatch.setattr(functions, "sturm_sequence", lambda p: built.append(p) or chain(p))
    cubic_slope = FunctionSpec((F(1), F(0), F(1, 10))).polynomial().derivative()
    box = _window("-1/4", "1/4")
    for call in (lambda: isolate_roots(cubic_slope.derivative(), box, box.length / 2 ** 32),
                 lambda: range_bounds(cubic_slope, box),
                 lambda: count_roots(cubic_slope.derivative(), box),
                 lambda: isolate_roots(_poly(["-1/9", "13/18", "-3/2", "1"]),
                                       _window("1/3", "2/3"), F(1, 100))):
        built.clear()
        call()
        assert len(built) == 1


@pytest.mark.parametrize("width", [F(0), F(-1, 4)])
def test_isolate_roots_refuses_a_width_that_is_not_positive(width):
    with pytest.raises(DomainError, match="max_width must be positive"):
        isolate_roots(_poly(["-1/3", "1"]), _window("0", "1"), width)


def test_function_spec_parse():
    f = FunctionSpec.parse("1,1/10")
    assert f.coefficients == (F(1), F(1, 10))
    assert f.slope_at_zero == 1
    with pytest.raises(DomainError):
        FunctionSpec.parse("")
    with pytest.raises(DomainError):
        FunctionSpec.parse("1,x")
    assert FunctionSpec.parse(" 1 , 1/10 ").coefficients == (F(1), F(1, 10))
    with pytest.raises(DomainError):
        FunctionSpec((F(1),) * 9)  # degree cap


@pytest.mark.parametrize("text", ["1,,1/10", ",1", "1,1/10,", "1, ,1/10", ","])
def test_function_spec_parse_refuses_an_empty_entry(text):
    """Dropping the entry would move each later coefficient down a degree."""
    with pytest.raises(DomainError, match=f"empty entry in coefficient list {text!r}"):
        FunctionSpec.parse(text)


def test_certified_value_basics():
    assert CertifiedValue is ClosedInterval
    v = CertifiedValue(F(1, 3), F(1, 2))
    assert v.length == F(1, 6)
    assert v.contains_point(F(2, 5))
    with pytest.raises(DomainError):
        CertifiedValue(F(1), F(0))
