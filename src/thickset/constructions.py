"""Generators for Cantor stages and refinement families.

Three sources of sets:

* ``middle_alpha``: remove the central open proportion alpha from every
  interval at every level; stage thickness is (1 - alpha) / (2 * alpha) at
  every depth.
* ``random_thick``: seeded random refinement that provably keeps thickness
  at or above a target (each cut leaves both flanks at least tau times the
  new gap, which bounds every bridge from below).
* ``counterexample_set``: the explicit five-interval set of prescribed
  thickness that avoids configurations {x - t, x, x + t^2} anchored at the
  endpoints of its largest gap.

A ``StageFamily`` is a lazily refined chain K_0 superset K_1 superset ...;
restriction and affine views compose so search pipelines can localize work
to a small bridge without recomputing global stages.  ``StageFamily.stage``
is every family's one depth check and stage cache; a refinable family has
one refinement step, stage to child stage, which its ``interval_chain``
walk applies to one-interval stages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    CantorStage,
    ClosedInterval,
    Gap,
    RationalLike,
    _endpoint_index,
    _rational_text,
    _require_int,
    affine_image,
    restrict,
    thickness,
    to_rational,
)
from .errors import CalibrationError, ConstructionError, DomainError

IntervalRefiner = Callable[[ClosedInterval, int], Sequence[ClosedInterval]]


# ---------------------------------------------------------------------------
# Refinement families
# ---------------------------------------------------------------------------

class StageFamily:
    """A refinement sequence of Cantor stages, indexed by depth from 0.

    ``stage`` is every family's one depth check and stage cache: it fills
    ``_stages`` in depth order, calling the subclass's ``_build(depth)`` once
    per depth, after every shallower stage is in.

    ``thickness_bound`` is a lower bound on the thickness of every stage at
    depth >= 1 that the construction certifies, or None when it certifies
    none.
    """

    thickness_bound: Optional[Fraction] = None

    def __init__(self):
        self._stages: list[CantorStage] = []

    def stage(self, depth: int) -> CantorStage:
        _require_int("family depth", depth)
        if depth < 0:
            raise DomainError("family depth must be nonnegative")
        stages = self._stages
        while len(stages) <= depth:
            stages.append(self._build(len(stages)))
        return stages[depth]

    def _build(self, depth: int) -> CantorStage:
        raise NotImplementedError

    def stages(self, first: int, last: int) -> list[CantorStage]:
        return [self.stage(d) for d in range(first, last + 1)]

    def interval_chain(self, enclosure: ClosedInterval, max_depth: int) -> list[ClosedInterval]:
        """The unique stage interval containing ``enclosure``, per depth
        0..max_depth.  Raises DomainError where no interval contains it."""
        chain: list[ClosedInterval] = []
        for d in range(max_depth + 1):
            host = self.stage(d).interval_containing(enclosure)
            if host is None:
                raise DomainError(
                    f"enclosure {enclosure} is not inside any interval at depth {d}"
                )
            chain.append(host)
        return chain


class _GridRefiner:
    """A built-in construction's refinement as one integer formula.

    ``cut(x, y, den, depth)`` takes interval [x/den, y/den] of a grid over
    any denominator ``den`` and returns the integers (a, b) that split it
    into [x*factor, a] and [b, y*factor] over den*factor.  ``refine``
    applies the formula to a whole stage grid at the stage's depth and
    builds the child stage, nested by construction, from the child grid
    alone.
    """

    def __init__(self, factor: int, cut: Callable[[int, int, int, int], tuple[int, int]]):
        self.factor = factor
        self.cut = cut

    def refine(self, parent: CantorStage) -> CantorStage:
        den, lo, hi = parent._grid
        m, cut, depth = self.factor, self.cut, parent.depth
        clo: list[int] = []
        chi: list[int] = []
        for x, y in zip(lo, hi):
            a, b = cut(x, y, den, depth)
            clo += (x * m, b)
            chi += (a, y * m)
        # [x*m, a] and [b, y*m] pass the order and disjointness checks only if
        # x*m <= a < b <= y*m, inside [x, y]: a nesting check could never fail.
        return CantorStage._from_grid((den * m, clo, chi), depth + 1)


class RefinableFamily(StageFamily):
    """A family generated by refining each interval independently.

    The refiner maps (interval, depth) to the child intervals it splits
    into; children must stay inside the interval and keep its endpoints so
    that gaps only ever get added, never moved; it is called with the depth
    of the stage it refines, counted from the root's own.  ``_refined`` is
    the family's one refinement step, stage to child stage: a built-in
    construction refines the whole stage grid at once; any other refiner's
    children are validated ``ClosedInterval``s whose stage is built through
    the public constructor and checked for nesting in its parent.
    """

    def __init__(self, root: CantorStage, refine_interval: IntervalRefiner | _GridRefiner,
                 name: str = "", thickness_bound: Optional[Fraction] = None):
        super().__init__()
        self._stages.append(root)
        self.thickness_bound = thickness_bound
        self._refine = refine_interval
        self.name = name

    def _refined(self, parent: CantorStage) -> CantorStage:
        if isinstance(self._refine, _GridRefiner):
            return self._refine.refine(parent)
        children = [c for iv in parent.intervals for c in self._refine(iv, parent.depth)]
        child = CantorStage(tuple(children), depth=parent.depth + 1)
        child.check_nested_in(parent)
        return child

    def _build(self, depth: int) -> CantorStage:
        return self._refined(self._stages[depth - 1])

    def interval_chain(self, enclosure: ClosedInterval, max_depth: int) -> list[ClosedInterval]:
        """Walk down refining only the containing interval, as a one-interval
        stage through the family's one step: avoids materializing
        exponentially large deep stages."""
        stage = self._stages[0]
        chain: list[ClosedInterval] = []
        for d in range(max_depth + 1):
            host = stage.interval_containing(enclosure)
            if host is None:
                raise DomainError(
                    f"enclosure {enclosure} is not inside any interval at depth {d}"
                )
            chain.append(host)
            if d < max_depth:
                stage = self._refined(CantorStage((host,), depth=stage.depth))
        return chain


class RestrictedFamily(StageFamily):
    """View of a family intersected with a fixed window, optionally
    re-indexed so index 0 is the base stage at ``depth_offset``; each stage
    keeps its depth in the base family, ``depth_offset`` plus its index.

    When the base refines intervals independently and the window spans whole
    intervals of the offset stage, the restriction refines locally through
    the base's refinement step: deep levels cost only the window's own
    subtree, not the full base stage.
    """

    def __init__(self, base: StageFamily, window: ClosedInterval, depth_offset: int = 0):
        super().__init__()
        _require_int("depth_offset", depth_offset)
        if depth_offset < 0:
            raise DomainError("depth_offset must be nonnegative")
        self.base = base
        self.window = window
        self.depth_offset = depth_offset
        self._local = None  # the base's refinement step, if this view refines locally
        if isinstance(base, RefinableFamily):
            offset_stage = base.stage(depth_offset)
            root = restrict(offset_stage, window)
            # restrict clips only its first and last interval, so the window
            # spans whole intervals exactly when the restriction starts at an
            # interval start and ends at an interval end.
            den, lo, hi = offset_stage._grid
            if _endpoint_index(lo, den, root.min) >= 0 and _endpoint_index(hi, den, root.max) >= 0:
                self._local = base._refined
                self._stages.append(root)

    def _build(self, level: int) -> CantorStage:
        if self._local is not None:
            return self._local(self._stages[level - 1])
        return restrict(self.base.stage(level + self.depth_offset), self.window)


class AffineFamily(StageFamily):
    """View of a family under an exact affine map.  Thickness is affine
    invariant, so the view keeps the base family's bound."""

    def __init__(self, base: StageFamily, scale: RationalLike, shift: RationalLike):
        super().__init__()
        self.scale = to_rational(scale)
        if self.scale == 0:
            raise DomainError("affine family requires a nonzero scale")
        self.shift = to_rational(shift)
        self.base = base
        self.thickness_bound = base.thickness_bound

    def _build(self, depth: int) -> CantorStage:
        return affine_image(self.base.stage(depth), self.scale, self.shift)


# ---------------------------------------------------------------------------
# middle-alpha sets
# ---------------------------------------------------------------------------

def _middle_alpha_refiner(alpha: Fraction) -> _GridRefiner:
    bn, bd = ((1 - alpha) / 2).as_integer_ratio()

    def cut(x: int, y: int, _den: int, _depth: int) -> tuple[int, int]:
        # Over den*bd, beta * width is bn * (y - x).
        keep = bn * (y - x)
        return x * bd + keep, y * bd - keep

    return _GridRefiner(bd, cut)


def middle_alpha_family(
    alpha: RationalLike, base: Optional[ClosedInterval] = None
) -> RefinableFamily:
    """Family for the middle-alpha construction on ``base`` (default [0, 1])."""
    alpha = to_rational(alpha)
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if base is None:
        base = ClosedInterval(Fraction(0), Fraction(1))
    root = CantorStage((base,), depth=0)
    return RefinableFamily(root, _middle_alpha_refiner(alpha), name=f"middle-alpha:{alpha}",
                           thickness_bound=(1 - alpha) / (2 * alpha))


def middle_alpha(alpha: RationalLike, depth: int) -> CantorStage:
    """Stage of the middle-alpha set at the given depth.

    Starting from [0, 1], each level removes the central open proportion
    alpha of every interval; the stage thickness is (1 - alpha)/(2 * alpha)
    at every depth >= 1.
    """
    return middle_alpha_family(alpha).stage(depth)


# ---------------------------------------------------------------------------
# seeded random thick sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomThickSpec:
    """Parameters for the seeded thick-set generator.

    ``gap_placement`` fixes where in the admissible middle region each new
    gap is cut (0 = leftmost, 1 = rightmost admissible); None draws the
    position from the seed.  The admissible region is exactly the set of
    positions leaving both flanks at least target_tau times the gap.
    """

    target_tau: Fraction
    depth: int
    seed: int
    gap_placement: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "target_tau", to_rational(self.target_tau))
        if self.gap_placement is not None:
            gp = to_rational(self.gap_placement)
            if not 0 <= gp <= 1:
                raise DomainError("gap_placement must lie in [0, 1]")
            object.__setattr__(self, "gap_placement", gp)
        if self.target_tau <= 0:
            raise DomainError("target_tau must be positive")
        _require_int("depth", self.depth)
        _require_int("seed", self.seed)
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a 64-bit unsigned integer")


_SHARE_BITS = 16


def _seeded_share(tag: str) -> int:
    """Deterministic pseudo-random numerator in [0, 2**_SHARE_BITS) from a
    string tag; the share is that numerator over 2**_SHARE_BITS."""
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:_SHARE_BITS // 8], "big")


def _random_thick_refiner(spec: RandomThickSpec) -> _GridRefiner:
    tn, td = spec.target_tau.as_integer_ratio()
    crit = 2 * tn + td  # alpha = 1 / (2 tau + 1) = td / crit
    unit = 2 ** _SHARE_BITS
    placement = spec.gap_placement
    pd = unit if placement is None else placement.denominator
    # Gap strictly below the critical proportion so the admissible placement
    # region is nondegenerate: gap = s*alpha*width, s in [1/2, 1), leaves
    # slack width*(1 - s) for the position.  With s = sn/(2*unit) and
    # placement pn/pd, the cuts are lo + width*c for c = tau*s*alpha +
    # placement*(1 - s) (left flank) and that plus s*alpha (gap), both over
    # cd = 2*unit*crit*pd.
    cd = 2 * unit * crit * pd

    def cut(x: int, y: int, den: int, depth: int) -> tuple[int, int]:
        # The tag names the interval by its lowest-terms endpoints.
        tag = f"{spec.seed}:{depth}:{_rational_text(x, den)}:{_rational_text(y, den)}"
        sn = unit + _seeded_share(tag + ":len")
        pn = _seeded_share(tag + ":pos") if placement is None else placement.numerator
        left = tn * sn * pd + pn * (2 * unit - sn) * crit
        right = left + sn * td * pd
        base, width = x * cd, y - x
        return base + width * left, base + width * right

    return _GridRefiner(cd, cut)


def random_thick_family(
    spec: RandomThickSpec, base: Optional[ClosedInterval] = None
) -> RefinableFamily:
    if base is None:
        base = ClosedInterval(Fraction(0), Fraction(1))
    root = CantorStage((base,), depth=0)
    return RefinableFamily(
        root, _random_thick_refiner(spec), name=f"random-thick:{spec.target_tau}:{spec.seed}",
        thickness_bound=spec.target_tau,
    )


def random_thick(spec: RandomThickSpec, base: Optional[ClosedInterval] = None) -> CantorStage:
    """Deterministic-in-seed random stage with thickness >= target_tau.

    Every cut leaves both flanks at least target_tau times the new gap, so
    every bridge is at least target_tau times its gap; the resulting stage
    thickness is provably >= target_tau at every depth (and verified exactly
    by the test suite).
    """
    return random_thick_family(spec, base).stage(spec.depth)


# ---------------------------------------------------------------------------
# The square-configuration counterexample set
# ---------------------------------------------------------------------------

def _proportions(tau: Fraction) -> tuple[Fraction, Fraction]:
    """The gap and flank proportions (alpha, beta) = (1/(2 tau + 1),
    tau/(2 tau + 1)) that produce thickness tau: 2 beta + alpha = 1 and
    beta/alpha = tau."""
    return 1 / (2 * tau + 1), tau / (2 * tau + 1)


@dataclass(frozen=True)
class CounterexampleParams:
    """Parameters of the five-interval avoidance set.

    ``alpha`` and ``beta`` are the gap and flank proportions that tau fixes
    (``_proportions``).  tau = 1 is accepted for the construction itself (it
    is the reference point of the length table); calibration requires
    tau > 1 strictly.
    """

    tau: Fraction
    eps: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("tau", "eps", "c"):
            object.__setattr__(self, name, to_rational(getattr(self, name)))
        if self.tau < 1:
            raise DomainError(f"tau must be at least 1, got {self.tau}")
        if self.eps <= 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        if not 0 < self.c < 1:
            raise DomainError(f"c must lie in (0, 1), got {self.c}")

    @property
    def alpha(self) -> Fraction:
        return _proportions(self.tau)[0]

    @property
    def beta(self) -> Fraction:
        return _proportions(self.tau)[1]


def make_counterexample_params(
    tau: RationalLike, eps: RationalLike, c: RationalLike
) -> CounterexampleParams:
    return CounterexampleParams(tau=tau, eps=eps, c=c)


def counterexample_parts(params: CounterexampleParams) -> dict:
    """Named pieces of the counterexample set: intervals I1..I5, gaps G1..G4,
    and the proportions alpha, beta."""
    tau, eps, c = params.tau, params.eps, params.c
    bt = params.beta * tau
    at = params.alpha * tau
    e2 = eps * eps
    i1 = ClosedInterval(-(1 + tau) * eps, -(1 + bt + at) * eps)
    i2 = ClosedInterval(-(1 + bt) * eps, -eps)
    i3 = ClosedInterval(Fraction(0), c * e2)
    i4_lo = (1 + bt) ** 2 / c * e2
    i4_hi = (1 + bt + at) ** 2 * c * e2
    i5_lo = (1 + tau) ** 2 / c * e2
    i5_hi = tau * eps
    if not i4_lo < i4_hi:
        raise ConstructionError(
            f"interval order violated: I4 is empty (requires c > {(1 + bt) / (1 + bt + at)}, got {c})"
        )
    if not i4_hi < i5_lo:
        raise ConstructionError("interval order violated: I4 must end before I5 begins")
    if not i5_lo < i5_hi:
        raise ConstructionError(
            f"interval order violated: I5 is empty (requires eps < {tau * c / (1 + tau) ** 2}, got {eps})"
        )
    if not i3.hi < i4_lo:
        raise ConstructionError("interval order violated: I3 must end before I4 begins")
    i4 = ClosedInterval(i4_lo, i4_hi)
    i5 = ClosedInterval(i5_lo, i5_hi)
    return {
        "I1": i1,
        "I2": i2,
        "I3": i3,
        "I4": i4,
        "I5": i5,
        "G1": Gap(i1.hi, i2.lo),
        "G2": Gap(i2.hi, i3.lo),
        "G3": Gap(i3.hi, i4.lo),
        "G4": Gap(i4.hi, i5.lo),
        "alpha": params.alpha,
        "beta": params.beta,
    }


def counterexample_set(params: CounterexampleParams) -> CantorStage:
    """The five-interval set, exact and in increasing order.

    Its largest bounded gap is G2 = (-eps, 0); the pieces right of zero are
    arranged so that squaring the reflection of I1 lands inside G4 and
    squaring the reflection of I2 lands inside G3.
    """
    parts = counterexample_parts(params)
    return CantorStage(
        tuple(parts[k] for k in ("I1", "I2", "I3", "I4", "I5")), depth=0
    )


# counterexample_calibrate probes c = 1 - (1 - floor)/2**k for k up to this.
_CALIBRATION_PROBES = 64


def counterexample_limit_ratio(tau: RationalLike) -> Fraction:
    """Minimum, over the c-dependent gap endpoints, of the bridge/gap ratio
    in the c -> 1 limit.  Calibration to thickness tau is possible only if
    this exceeds tau; it decays quickly, which is why only tau close to 1 is
    reachable."""
    tau = to_rational(tau)
    alpha, beta = _proportions(tau)
    bt, at = beta * tau, alpha * tau
    r3_left = Fraction(1, 1) / ((1 + bt) ** 2 - 1)
    r3_right = ((1 + bt + at) ** 2 - (1 + bt) ** 2) / ((1 + bt) ** 2 - 1)
    r4_left = (1 + bt + at) ** 2 / ((1 + tau) ** 2 - (1 + bt + at) ** 2)
    return min(r3_left, r3_right, r4_left)


def counterexample_calibrate(
    tau: RationalLike, eps: RationalLike, tol: RationalLike
) -> CounterexampleParams:
    """Search c in (0, 1) so the set's exact thickness lands in
    [tau - tol, tau].

    The thickness is nondecreasing in c and capped at tau (several bridge
    ratios equal tau for every c), so probing c = 1 - (1 - floor)/2**k and
    stopping at the first success is a binary search toward 1.  Failure
    after ``_CALIBRATION_PROBES`` probes, or a limiting ratio below the
    target, means the requested tau is out of the construction's reach.
    """
    tau = to_rational(tau)
    eps = to_rational(eps)
    tol = to_rational(tol)
    if tau <= 1:
        raise DomainError(f"calibration requires tau > 1, got {tau}")
    if tol < 0:
        raise DomainError("tol must be nonnegative")
    limit = counterexample_limit_ratio(tau)
    if limit <= tau - tol:
        raise CalibrationError(
            f"no c in (0, 1) reaches thickness {tau}: the limiting bridge ratio "
            f"as c -> 1 is {limit} (~ {float(limit):.6g}); the construction only "
            f"calibrates for tau below that ratio"
        )
    # c must keep I4 and I5 nonempty.
    alpha, beta = _proportions(tau)
    bt, at = beta * tau, alpha * tau
    c_floor = max((1 + bt) / (1 + bt + at), eps * (1 + tau) ** 2 / tau, Fraction(1, 2))
    if c_floor >= 1:
        raise CalibrationError(
            f"eps = {eps} is too large: the rightmost piece is empty for every c < 1"
        )
    for k in range(1, _CALIBRATION_PROBES + 1):
        c = 1 - (1 - c_floor) / 2 ** k
        try:
            params = make_counterexample_params(tau, eps, c)
            value = thickness(counterexample_set(params)).value
        except ConstructionError:
            continue
        if tau - tol <= value <= tau:
            return params
    raise CalibrationError(
        f"no probed c reached thickness within {tol} of {tau} "
        f"after {_CALIBRATION_PROBES} probes toward c = 1"
    )
