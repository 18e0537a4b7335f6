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
is every family's one depth check and stage cache; a family's refinement
step, stage to child stage, is a capability a view takes from its base, and
``interval_chain`` applies it to one-interval stages.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from typing import Callable, Optional, Sequence

from .core import (
    CantorStage,
    ClosedInterval,
    Gap,
    RationalLike,
    _endpoint_index,
    _endpoint_texts,
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

    ``stage`` is every family's one depth check and stage cache: under the
    family's lock it fills ``_stages`` in depth order, calling
    ``_build(depth)`` once per depth, after every shallower stage is in; by
    default ``_build`` applies ``_refined``, the family's refinement step.

    ``thickness_bound`` is a lower bound on the thickness of every stage at
    depth >= 1 that the construction certifies, or None when it certifies
    none.
    """

    thickness_bound: Optional[Fraction] = None
    _refined: Optional[Callable[[CantorStage], CantorStage]] = None

    def __init__(self):
        self._stages: list[CantorStage] = []
        self._lock = threading.Lock()

    def stage(self, depth: int) -> CantorStage:
        _require_int("family depth", depth, 0)
        stages = self._stages
        if len(stages) <= depth:
            with self._lock:
                while len(stages) <= depth:
                    stages.append(self._build(len(stages)))
        return stages[depth]

    def _build(self, depth: int) -> CantorStage:
        if self._refined is None:
            raise NotImplementedError
        return self._refined(self._stages[depth - 1])

    def stages(self, first: int, last: int) -> list[CantorStage]:
        _require_int("first", first, 0)
        _require_int("last", last)
        return [self.stage(d) for d in range(first, last + 1)]

    def interval_chain(self, enclosure: ClosedInterval, max_depth: int) -> list[ClosedInterval]:
        """The unique stage interval containing ``enclosure``, per depth
        0..max_depth: refined as a one-interval stage by the family's step,
        if any, else read off whole stages.  DomainError where none holds it."""
        _require_int("max_depth", max_depth, 0)
        step, stage = self._refined, self.stage(0)
        chain: list[ClosedInterval] = []
        for d in range(max_depth + 1):
            host = stage.interval_containing(enclosure)
            if host is None:
                raise DomainError(
                    f"enclosure {enclosure} is not inside any interval at depth {d}"
                )
            chain.append(host)
            if d < max_depth:
                stage = (self.stage(d + 1) if step is None
                         else step(CantorStage((host,), depth=stage.depth)))
        return chain


class _GridRefiner:
    """A built-in construction's refinement as one integer formula that cuts
    a whole level at once.

    ``cut(lo, hi, depth, texts)`` takes a stage grid's ``lo`` and ``hi``
    over any denominator ``den`` and returns two lists (a, b): interval k,
    [x/den, y/den], splits into [x*factor, a[k]] and [b[k], y*factor] over
    den*factor.  ``refine`` interleaves them with the scaled ends into the
    child grid and builds the child stage, nested by construction, alone.

    A ``named`` refiner's ``texts`` are the lowest-terms texts of ``lo`` and
    ``hi`` (else None), from ``core._endpoint_texts``; the child's memo
    ``_texts`` gets the parent's texts for its ends x*factor and y*factor,
    so each endpoint is written once, by the first stage that has it, when
    that stage is refined or written out.
    """

    def __init__(self, factor: int, cut: Callable[..., tuple[list, list]], named: bool = False):
        self.factor = factor
        self.cut = cut
        self.named = named

    def refine(self, parent: CantorStage) -> CantorStage:
        den, lo, hi = parent._grid
        m = self.factor
        texts = _endpoint_texts(parent) if self.named else None
        a, b = self.cut(lo, hi, parent.depth, texts)
        clo, chi = [0] * (2 * len(lo)), [0] * (2 * len(lo))
        clo[::2], clo[1::2] = [x * m for x in lo], b
        chi[::2], chi[1::2] = a, [y * m for y in hi]
        # [x*m, a] and [b, y*m] pass the order and disjointness checks only if
        # x*m <= a < b <= y*m, inside [x, y]: a nesting check could never fail.
        child = CantorStage._from_grid((den * m, clo, chi), parent.depth + 1)
        if texts is not None:
            clt, cht = [None] * len(clo), [None] * len(chi)
            clt[::2], cht[1::2] = texts
            child.__dict__["_texts"] = clt, cht
        return child


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


class RestrictedFamily(StageFamily):
    """View of a family intersected with a fixed window, optionally
    re-indexed so index 0 is the base stage at ``depth_offset``; each stage
    keeps its depth in the base family, ``depth_offset`` plus its index.

    When the base has a refinement step and the window spans whole
    intervals of the offset stage, the restriction takes that step and
    refines locally: deep levels cost only the window's own subtree, not
    the full base stage, which only a window that clips an interval reads.
    """

    def __init__(self, base: StageFamily, window: ClosedInterval, depth_offset: int = 0):
        super().__init__()
        _require_int("depth_offset", depth_offset, 0)
        self.base = base
        self.window = window
        self.depth_offset = depth_offset
        if base._refined is not None:
            offset_stage = base.stage(depth_offset)
            root = restrict(offset_stage, window)
            # restrict clips only its first and last interval, so the window
            # spans whole intervals exactly when the restriction starts at an
            # interval start and ends at an interval end.
            den, lo, hi = offset_stage._grid
            if _endpoint_index(lo, den, root.min) >= 0 and _endpoint_index(hi, den, root.max) >= 0:
                self._refined = base._refined
                self._stages.append(root)

    def _build(self, level: int) -> CantorStage:
        if self._refined is not None:
            return super()._build(level)
        return restrict(self.base.stage(level + self.depth_offset), self.window)


class AffineFamily(StageFamily):
    """View of a family under an exact affine map.  Thickness is affine
    invariant, so the view keeps the base family's bound.  Its step, if the
    base has one, is the base's conjugated by the map."""

    def __init__(self, base: StageFamily, scale: RationalLike, shift: RationalLike):
        super().__init__()
        self.scale = to_rational(scale)
        if self.scale == 0:
            raise DomainError("affine family requires a nonzero scale")
        self.shift = to_rational(shift)
        self.base = base
        self.thickness_bound = base.thickness_bound
        step, scale, shift = base._refined, self.scale, self.shift
        if step is not None:  # a closure over self would hold the view in a cycle
            def conjugated(parent: CantorStage) -> CantorStage:
                back = affine_image(parent, 1 / scale, -shift / scale)
                return affine_image(step(back), scale, shift)
            self._refined = conjugated

    def _build(self, depth: int) -> CantorStage:
        return affine_image(self.base.stage(depth), self.scale, self.shift)


# ---------------------------------------------------------------------------
# middle-alpha sets
# ---------------------------------------------------------------------------

def _middle_alpha_refiner(alpha: Fraction) -> _GridRefiner:
    bn, bd = ((1 - alpha) / 2).as_integer_ratio()

    def cut(lo: list[int], hi: list[int], _depth: int, _texts: None):
        # Over den*bd, beta * width is bn * (y - x).
        return ([x * bd + bn * (y - x) for x, y in zip(lo, hi)],
                [y * bd - bn * (y - x) for x, y in zip(lo, hi)])

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
        _require_int("depth", self.depth, 0)
        _require_int("seed", self.seed)
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a 64-bit unsigned integer")


def _random_thick_refiner(spec: RandomThickSpec) -> _GridRefiner:
    tn, td = spec.target_tau.as_integer_ratio()
    crit = 2 * tn + td  # alpha = 1 / (2 tau + 1) = td / crit
    unit = 2 ** 16  # a share is the first two bytes of a sha256, over unit
    placement = spec.gap_placement
    pd = unit if placement is None else placement.denominator
    # Gap strictly below the critical proportion so the admissible placement
    # region is nondegenerate: gap = s*alpha*width, s in [1/2, 1), leaves
    # slack width*(1 - s) for the position.  With s = sn/(2*unit) and
    # placement pn/pd, the cuts are lo + width*c for c = tau*s*alpha +
    # placement*(1 - s) (left flank) and that plus s*alpha (gap), both over
    # cd = 2*unit*crit*pd.
    cd = 2 * unit * crit * pd
    gap = td * pd

    def cut(lo: list[int], hi: list[int], depth: int, texts: tuple[list[str], list[str]]):
        # The tag names an interval by its lowest-terms endpoints and is hashed
        # once: the ":len" share extends a copy of that state, ":pos" the state.
        sns, pns = [], [] if placement is None else [placement.numerator] * len(lo)
        for x, y in zip(*texts):
            tag = sha256(f"{spec.seed}:{depth}:{x}:{y}".encode())
            share = tag.copy()
            share.update(b":len")
            sns.append(unit + int.from_bytes(share.digest()[:2], "big"))
            if placement is None:
                tag.update(b":pos")
                pns.append(int.from_bytes(tag.digest()[:2], "big"))
        lefts = [tn * sn * pd + pn * (2 * unit - sn) * crit for sn, pn in zip(sns, pns)]
        a = [x * cd + (y - x) * left for x, y, left in zip(lo, hi, lefts)]
        return a, [c + (y - x) * sn * gap for c, x, y, sn in zip(a, lo, hi, sns)]

    return _GridRefiner(cd, cut, named=True)


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
            params = CounterexampleParams(tau, eps, c)
            value = thickness(counterexample_set(params)).value
        except ConstructionError:
            continue
        if tau - tol <= value <= tau:
            return params
    raise CalibrationError(
        f"no probed c reached thickness within {tol} of {tau} "
        f"after {_CALIBRATION_PROBES} probes toward c = 1"
    )
