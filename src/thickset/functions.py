"""Configuration functions: exact polynomials with f(0) = 0.

The search pipeline needs three capabilities from its function family, all
of them certified:

* exact evaluation and exact formal derivatives,
* exact sign decisions for the derivative on an interval (Sturm counting:
  one chain per call, integer signs, half-open counting of (lo, hi]),
* certified monotone inverses (bisection enclosures, never Newton: sign
  changes plus exact arithmetic give unconditional correctness).

Polynomials with rational coefficients and zero constant term cover every
function the search routines are exercised with (identity, general lines
through the origin, small quadratic perturbations, squaring) while keeping
all of the above exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import ClosedInterval, RationalLike, rational_str, to_rational
from .errors import DomainError, RangeError

MAX_DEGREE = 8


# ---------------------------------------------------------------------------
# Dense polynomials over Q, coefficients from the constant term up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial sum(coeffs[k] * t**k)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(to_rational(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (Fraction(0),)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __call__(self, t: RationalLike) -> Fraction:
        t = to_rational(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((Fraction(0),))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def interval_eval(self, box: ClosedInterval) -> ClosedInterval:
        """Interval-Horner enclosure of the range over ``box``."""
        lo = hi = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            products = (lo * box.lo, lo * box.hi, hi * box.lo, hi * box.hi)
            lo, hi = min(products) + c, max(products) + c
        return ClosedInterval(lo, hi)

    def neg(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(1, a.degree - b.degree + 1)
    for shift in range(a.degree - b.degree, -1, -1):
        quo[shift] = factor = rem[shift + b.degree] / b.coeffs[-1]
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
    return Polynomial(tuple(quo)), Polynomial(tuple(rem[:b.degree]))


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.coeffs[-1]
    return Polynomial(tuple(c / lead for c in a.coeffs))


def square_free_part(p: Polynomial) -> Polynomial:
    if p.degree <= 1:
        return p
    g = _poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p
    q, _ = _poly_divmod(p, g)
    return q


# ---------------------------------------------------------------------------
# Sturm root counting (exact)
# ---------------------------------------------------------------------------

def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        _, r = _poly_divmod(seq[-2], seq[-1])
        seq.append(r.neg())
    return seq[:-1]


def _integer_sign_evaluator(p: Polynomial, y: Fraction):
    """sign((p - y)(num/den)) as pure integer arithmetic, den > 0: the one
    sign kernel of this module, behind Sturm counting and the inverse.

    Clearing denominators once lets the bisection loops run on machine
    integers (arbitrary precision, but without per-step gcd normalization),
    which dominates their cost otherwise.
    """
    shifted = [p.coeffs[0] - y] + list(p.coeffs[1:])
    scale = math.lcm(*(c.denominator for c in shifted))
    ints = [int(c * scale) for c in shifted]

    def sign_at(num: int, den: int) -> int:
        acc = ints[-1]
        dpow = 1
        for c in reversed(ints[:-1]):
            dpow *= den
            acc = acc * num + c * dpow
        return (acc > 0) - (acc < 0)

    return sign_at


def _sturm_grid(p: Polynomial, window: ClosedInterval):
    """(V, a, b, den, v_lo): the window as [a/den, b/den] over the lcm of its
    denominators; V(num/den), the sign variations (zeros dropped) of the
    Sturm chain of p's square-free part, built once, so that V(x) - V(y)
    counts the roots in (x, y]; and v_lo, V just left of lo."""
    signs = [_integer_sign_evaluator(q, 0) for q in sturm_sequence(square_free_part(p))]

    def variations(num: int, den: int) -> int:
        count, last = 0, 0
        for sign_at in signs:
            s = sign_at(num, den)
            if s:
                count += s == -last
                last = s
        return count

    lo, hi = window.lo, window.hi
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    return variations, a, b, den, variations(a, den) + (signs[0](a, den) == 0)


def count_roots(p: Polynomial, window: ClosedInterval) -> int:
    """Number of distinct real roots of p in the closed window. Exact: one
    Sturm chain per call, integer signs, half-open counting (``_sturm_grid``)."""
    if p.is_zero:
        raise DomainError("root counting of the zero polynomial")
    variations, _, b, den, v_lo = _sturm_grid(p, window)
    return v_lo - variations(b, den)


def sign_on_interval(p: Polynomial, window: ClosedInterval) -> Optional[int]:
    """+1 or -1 if p has that constant, nonvanishing sign on the closed
    window; None if p vanishes somewhere on it."""
    if p.is_zero:
        return None
    if count_roots(p, window) > 0:
        return None
    v = p(window.midpoint)
    return 1 if v > 0 else -1


def isolate_roots(
    p: Polynomial, window: ClosedInterval, max_width: Fraction
) -> list[ClosedInterval]:
    """Subintervals of ``window`` of width <= max_width, one per distinct
    root when roots are more than max_width apart, that together contain
    every root of p in the window (neighbours may share an endpoint); []
    when there is none.

    One Sturm chain per call, integer signs, half-open counting: ``den``
    doubles at each level, so midpoints are grid ints, each evaluated once;
    a segment holds the V(lo) - V(hi) roots in (lo, hi], so a root at a
    midpoint is reported once, by the left half."""
    if p.is_zero:
        raise DomainError("cannot isolate roots of the zero polynomial")
    if max_width <= 0:
        raise DomainError(f"max_width must be positive, got {max_width}")
    out: list[ClosedInterval] = []
    variations, a, b, den, v_lo = _sturm_grid(p, window)

    def split(a: int, b: int, den: int, v_a: int, v_b: int) -> None:
        if v_a == v_b:
            return
        if (b - a) * max_width.denominator <= max_width.numerator * den:
            out.append(ClosedInterval(Fraction(a, den), Fraction(b, den)))
            return
        v_m = variations(a + b, 2 * den)
        split(2 * a, a + b, 2 * den, v_a, v_m)
        split(a + b, 2 * b, 2 * den, v_m, v_b)

    split(a, b, den, v_lo, variations(b, den))
    return out


def range_bounds(p: Polynomial, window: ClosedInterval) -> ClosedInterval:
    """Rigorous [lower, upper] containing the exact range of p on window.

    Exact when the derivative of p does not vanish inside the window
    (extrema then sit at the endpoints); otherwise critical points are
    isolated to width window.length / 2**32 by ``isolate_roots`` (one Sturm
    chain of p', integer signs, half-open counting) and bounded by interval
    evaluation, giving a slightly outward but always correct answer.
    """
    candidates = [p(window.lo), p(window.hi)]
    if window.length > 0:
        dp = p.derivative()
        if not dp.is_zero:
            for seg in isolate_roots(dp, window, window.length / 2 ** 32):
                enclosure = p.interval_eval(seg)
                candidates.extend([enclosure.lo, enclosure.hi])
    return ClosedInterval(min(candidates), max(candidates))


# ---------------------------------------------------------------------------
# FunctionSpec: polynomial f with f(0) = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """f(t) = c1*t + c2*t**2 + ... + cd*t**d, degree d <= 8.

    The constant term is absent by construction, so f(0) = 0 always holds
    and f'(0) is the first coefficient.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(to_rational(c) for c in self.coefficients)
        if not cs:
            raise DomainError("a function spec needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if len(cs) > MAX_DEGREE:
            raise DomainError(f"degree {len(cs)} exceeds the supported maximum {MAX_DEGREE}")
        object.__setattr__(self, "coefficients", cs)

    @property
    def slope_at_zero(self) -> Fraction:
        return self.coefficients[0]

    def polynomial(self) -> Polynomial:
        return Polynomial((Fraction(0),) + self.coefficients)

    @staticmethod
    def parse(text: str) -> "FunctionSpec":
        """Parse a comma-separated coefficient list 'c1,c2,...,cd'."""
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise DomainError("empty coefficient list")
        if "" in parts:  # never dropped: each later coefficient would move down a degree
            raise DomainError(f"empty entry in coefficient list {text!r}")
        try:
            return FunctionSpec(tuple(to_rational(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad coefficient list {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return ",".join(rational_str(c) for c in self.coefficients)


def eval_function(f: FunctionSpec, t: RationalLike) -> Fraction:
    """Exact polynomial evaluation of f at a rational point."""
    return f.polynomial()(t)


@dataclass(frozen=True)
class DerivativeWindow:
    """The open slope window (max(tau/(tau+1), 1/tau), min(tau, 1+1/tau))
    that f'(0) must inhabit for the nonlinear configuration search."""

    lower: Fraction
    upper: Fraction

    def contains(self, slope: Fraction) -> bool:
        return self.lower < slope < self.upper

    def __str__(self) -> str:
        return f"({self.lower}, {self.upper})"


def derivative_window(tau: RationalLike) -> DerivativeWindow:
    tau = to_rational(tau)
    if tau <= 1:
        raise DomainError(f"derivative window requires tau > 1, got {tau}")
    lower = max(tau / (tau + 1), 1 / tau)
    upper = min(tau, 1 + 1 / tau)
    return DerivativeWindow(lower, upper)


@dataclass(frozen=True)
class MonotoneBracket(ClosedInterval):
    """A bracket on which ``f`` is certified strictly monotone.

    Construction runs the exact certificate once (the derivative polynomial
    has no root in the closed bracket, hence the constant ``sign``) and
    raises DomainError otherwise.  ``monotone_inverse`` trusts a bracket
    certified for the same ``f`` instead of certifying it again.
    """

    f: FunctionSpec
    sign: int = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        sign = sign_on_interval(self.f.polynomial().derivative(), self)
        if sign is None:
            raise DomainError(
                f"f is not certifiably monotone on {self}: derivative vanishes there"
            )
        object.__setattr__(self, "sign", sign)


def monotone_inverse(
    f: FunctionSpec,
    y: RationalLike,
    bracket: ClosedInterval,
    precision: RationalLike,
) -> ClosedInterval:
    """Certified enclosure of f^{-1}(y) on a bracket where f is strictly
    monotone.

    Monotonicity is verified exactly (see ``MonotoneBracket``; a bracket
    already certified for ``f`` is not certified again).  The enclosure is
    produced by bisection, narrowing to at most ``precision`` width; an exact
    rational hit collapses it to a point.
    """
    y = to_rational(y)
    precision = to_rational(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    if not (isinstance(bracket, MonotoneBracket) and bracket.f == f):
        bracket = MonotoneBracket(bracket.lo, bracket.hi, f)
    sign = bracket.sign
    p = f.polynomial()
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = p(lo), p(hi)
    if sign < 0:
        # Work with -f so the value increases along the bracket.
        p = p.neg()
        y = -y
        f_lo, f_hi = -f_lo, -f_hi
    if not (f_lo <= y <= f_hi):
        raise RangeError(f"target value {y if sign > 0 else -y} outside f({bracket})")
    if f_lo == y:
        return ClosedInterval(lo, lo)
    if f_hi == y:
        return ClosedInterval(hi, hi)

    # Bisection over an integer grid: endpoints a/den, b/den with den the
    # common denominator, doubled each step so midpoints stay exact.
    sign_at = _integer_sign_evaluator(p, y)
    den = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    a = int(lo * den)
    b = int(hi * den)
    prec_num, prec_den = precision.numerator, precision.denominator
    while (b - a) * prec_den > prec_num * den:
        a, b, den = 2 * a, 2 * b, 2 * den
        m = (a + b) // 2
        s = sign_at(m, den)
        if s == 0:
            hit = Fraction(m, den)
            return ClosedInterval(hit, hit)
        if s < 0:
            a = m
        else:
            b = m
    return ClosedInterval(Fraction(a, den), Fraction(b, den))
