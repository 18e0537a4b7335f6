"""Exact interval geometry for thick Cantor sets.

A Cantor set is approximated at finite depth by a *stage*: a finite union of
pairwise disjoint closed intervals with exact rational endpoints.  All
geometry in this module is exact; there is no floating point anywhere.
Thickness comparisons such as ``tau >= 1`` must be decided exactly because
they gate the gap-lemma machinery downstream.

Vocabulary (all standard):

* a *gap* is a connected component of the complement of the stage; the two
  unbounded components count as gaps but carry no length;
* the *bridge* at an endpoint ``u`` of a bounded gap ``G`` is the maximal
  closed interval starting at ``u``, extending away from ``G``, in which
  every bounded gap is no longer than ``G``;
* the *local thickness* at ``u`` is ``|bridge| / |gap|``, and the Newhouse
  thickness of the stage is the minimum of the local thickness over all
  bounded-gap endpoints.

Endpoints are ``fractions.Fraction`` at the API and JSON edge, which
guarantees lowest terms and a positive denominator.  The primary form of a
stage is one integer grid: its endpoints as Python ints over one common
denominator, the lcm of the endpoint denominators for a stage built from
intervals or parsed from stage JSON (there, the denominators as written),
any common multiple for a stage that ``restrict``, a polynomial image
(affine or the search's map f), the gap-lemma merge or a built-in refiner
builds straight from the grid it computed.  Stage validation, the nesting
check, bridges, thickness, the point and piece lookups and the endpoint
locator ``_endpoint_index`` read the grid, so they compare and subtract ints
instead of walking ``Fraction`` chains.  A grid-built stage normalises its
endpoints into ``intervals`` only on the first read of that attribute, each
endpoint once by ``Fraction(numerator, denominator)``; the search's internal
stages, whose output is a witness, and a loaded stage file that is only
measured or rendered never build most of them.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import eq, le, lt, ne
from typing import Iterable, NamedTuple, Optional, Union

from .errors import DomainError

Rational = Fraction
RationalLike = Union[Fraction, int, str]
# A stage's integer grid (den, lo, hi): interval k is [lo[k]/den, hi[k]/den].
Grid = tuple[int, list[int], list[int]]

BOUNDED = "bounded"
LEFT_UNBOUNDED = "left_unbounded"
RIGHT_UNBOUNDED = "right_unbounded"

LEFT = "left"
RIGHT = "right"


def to_rational(value: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError(f"floats are not accepted as coordinates: {value!r}")
    if isinstance(value, bool):
        raise DomainError(f"booleans are not accepted as coordinates: {value!r}")
    return Fraction(value)


def rational_str(value: Fraction) -> str:
    """Lowest-terms string form, e.g. '2/3', '-1/2', '4'."""
    return str(value)


@dataclass(frozen=True)
class ClosedInterval:
    """A closed interval [lo, hi] with lo <= hi; also the type of certified
    enclosures of a real value (an exact value v is [v, v]).  Grid
    operations, whose stage checks the order on ints, build their intervals
    through ``_trusted_interval`` instead of this checking constructor."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", to_rational(self.lo))
        object.__setattr__(self, "hi", to_rational(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_point(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "ClosedInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersection(self, other: "ClosedInterval") -> Optional["ClosedInterval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return ClosedInterval(lo, hi)

    def to_json(self) -> list[str]:
        return [rational_str(self.lo), rational_str(self.hi)]

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _trusted_interval(lo: Fraction, hi: Fraction) -> ClosedInterval:
    """A ``ClosedInterval`` of two Fractions with lo <= hi, built without the
    constructor's coercion and check."""
    iv = object.__new__(ClosedInterval)
    d = iv.__dict__
    d["lo"] = lo
    d["hi"] = hi
    return iv


def _trusted(cls, **fields):
    """An instance of a frozen dataclass holding ``fields``, built without
    its constructor's checks: for values whose order the grid fixes."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _grid_of(ends: list[tuple[int, int]]) -> Grid:
    """The grid of endpoints given as (numerator, positive denominator),
    in the order lo, hi of each interval, over the lcm of the denominators."""
    den = math.lcm(*{d for _, d in ends})
    grid = [n * (den // d) for n, d in ends]
    return den, grid[::2], grid[1::2]


def _first_false(flags: Iterable[bool]) -> int:
    """Index of the first false flag, or -1 when every flag holds."""
    flags = list(flags)
    return flags.index(False) if False in flags else -1


@dataclass(frozen=True)
class Gap:
    """A connected component of the complement of a stage.

    Bounded gaps carry both endpoints; the unbounded ones carry only the
    finite endpoint (``hi`` for the left-unbounded component, ``lo`` for the
    right-unbounded one).
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    kind: str = BOUNDED

    def __post_init__(self):
        if self.kind == BOUNDED:
            if self.lo is None or self.hi is None or self.lo >= self.hi:
                raise DomainError(f"invalid bounded gap ({self.lo}, {self.hi})")
        elif self.kind == LEFT_UNBOUNDED:
            if self.lo is not None or self.hi is None:
                raise DomainError("left-unbounded gap must have only a right endpoint")
        elif self.kind == RIGHT_UNBOUNDED:
            if self.lo is None or self.hi is not None:
                raise DomainError("right-unbounded gap must have only a left endpoint")
        else:
            raise DomainError(f"unknown gap kind {self.kind!r}")

    @property
    def length(self) -> Fraction:
        if self.kind != BOUNDED:
            raise DomainError("unbounded gaps have no finite length")
        return self.hi - self.lo  # type: ignore[operator]

    def contains_point(self, x: Fraction) -> bool:
        """Open-interval membership, with unbounded sides treated as infinite."""
        if self.lo is not None and x <= self.lo:
            return False
        if self.hi is not None and x >= self.hi:
            return False
        return True

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo}, {hi})"


@dataclass(frozen=True)
class CantorStage:
    """A finite union of disjoint closed intervals, ordered left to right.

    ``depth`` records the refinement generation, ``parent`` the coarser stage
    this one refines (each interval must then be contained in a parent
    interval).  Zero-length intervals are rejected unless the stage is
    explicitly built with ``allow_degenerate=True`` (exact intersections may
    legitimately produce isolated points).

    Every stage carries an integer grid ``(den, lo, hi)``: ``den`` is a
    common denominator of the endpoints and ``lo[k] / den``, ``hi[k] / den``
    are the endpoints of interval k.  The constructor computes it over the
    lcm of the endpoint denominators; ``_from_grid`` takes it from the
    operation that made the stage, whose ``den`` may be any common multiple.
    Either way the stage checks (``_validate``) run on the grid's ints, and
    ``count``, ``min``, ``max``, ``interval_containing``, ``check_nested_in``,
    the bridge pass behind ``thickness``, ``all_bridge_reports`` and
    ``bridge_at``, ``restrict``, ``affine_image`` and the gap-lemma merges
    all read it, as does ``_endpoint_index``, which finds ``bridge_at``'s gap
    and tells ``subset_extract`` and ``RestrictedFamily`` whether a window's
    ends are interval endpoints.  The grid is private and never mutated.

    The grid is the primary form: a stage built by ``_from_grid`` without
    its intervals, as ``stage_from_json`` builds one, builds ``intervals``
    from the grid on the first read and keeps it.  The public constructor
    and ``make_stage`` hold their intervals from the start.  Equality,
    hashing, ``repr`` and pickling see the same stage either way.
    """

    intervals: tuple[ClosedInterval, ...]
    depth: int = 0
    parent: Optional["CantorStage"] = field(default=None, compare=False, repr=False)
    allow_degenerate: bool = field(default=False, compare=False, repr=False)
    _grid: Grid = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        ends = [x.as_integer_ratio() for iv in ivs for x in (iv.lo, iv.hi)]
        object.__setattr__(self, "_grid", _grid_of(ends))
        self._validate()

    @classmethod
    def _from_grid(cls, grid: Grid, depth: int = 0, parent: Optional["CantorStage"] = None,
                   allow_degenerate: bool = False,
                   intervals: Optional[tuple[ClosedInterval, ...]] = None) -> "CantorStage":
        """A stage from the grid an operation computed: the grid is taken as
        it is, and every stage check runs on its ints.  ``intervals``, when
        the operation already holds them, must be the grid's endpoints;
        otherwise they are built on first read."""
        stage = object.__new__(cls)
        d = stage.__dict__
        d.update(depth=depth, parent=parent, allow_degenerate=allow_degenerate, _grid=grid)
        if intervals is not None:
            d["intervals"] = intervals
        stage._validate()
        return stage

    def __getattr__(self, name: str):
        # Only ``intervals`` can be missing from a stage, and only from one
        # that _from_grid built without them.
        if name != "intervals":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, lo, hi = self._grid
        ivs = tuple(_trusted_interval(Fraction(x, den), Fraction(y, den)) for x, y in zip(lo, hi))
        self.__dict__["intervals"] = ivs
        return ivs

    def _interval(self, k: int) -> ClosedInterval:
        """Interval k, from ``intervals`` once built, else from the grid."""
        ivs = self.__dict__.get("intervals")
        if ivs is not None:
            return ivs[k]
        den, lo, hi = self._grid
        return _trusted_interval(Fraction(lo[k], den), Fraction(hi[k], den))

    def _validate(self) -> None:
        """The stage checks, on the grid's ints: nonempty, each interval in
        order, disjoint and increasing, no zero length unless degenerate
        stages are allowed, nonnegative depth, nested in the parent."""
        _, lo, hi = self._grid
        if not lo:
            raise DomainError("a stage must contain at least one interval")
        k = _first_false(map(le, lo, hi))
        if k >= 0:
            raise DomainError(f"interval endpoints out of order: {self._interval(k)}")
        k = _first_false(map(lt, hi, lo[1:]))
        if k >= 0:
            raise DomainError(
                "stage intervals must be disjoint and increasing: "
                f"{self._interval(k)} then {self._interval(k + 1)}"
            )
        if not self.allow_degenerate:
            k = _first_false(map(ne, lo, hi))
            if k >= 0:
                raise DomainError(
                    f"zero-length interval {self._interval(k)} in a non-degenerate stage"
                )
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")
        if self.parent is not None:
            self.check_nested_in(self.parent)

    def _grid_over(self, den: int) -> tuple[list[int], list[int]]:
        """The grid's ``lo`` and ``hi`` over ``den``, a multiple of its own
        denominator."""
        own, lo, hi = self._grid
        if den == own:
            return lo, hi
        m = den // own
        return [x * m for x in lo], [x * m for x in hi]

    def check_nested_in(self, parent: "CantorStage") -> None:
        """Raise DomainError unless every interval lies inside some interval
        of ``parent`` (one merge walk over both grids, brought to one
        denominator)."""
        den = math.lcm(self._grid[0], parent._grid[0])
        lo, hi = self._grid_over(den)
        plo, phi = parent._grid_over(den)
        j, n = 0, len(plo)
        for k in range(len(lo)):
            while j < n and phi[j] < lo[k]:
                j += 1
            if j >= n or plo[j] > lo[k] or hi[k] > phi[j]:
                raise DomainError(
                    f"interval {self._interval(k)} is not contained in any parent interval"
                )

    @property
    def count(self) -> int:
        return len(self._grid[1])

    @property
    def min(self) -> Fraction:
        return self._interval(0).lo

    @property
    def max(self) -> Fraction:
        return self._interval(-1).hi

    def hull(self) -> ClosedInterval:
        return ClosedInterval(self.min, self.max)

    def contains_point(self, x: Fraction) -> bool:
        return self.interval_containing_point(x) is not None

    def _containing_index(self, piece: ClosedInterval) -> int:
        """Index of the interval containing ``piece`` entirely, or -1: one
        bisection on the grid for the first interval whose right end reaches
        ``piece.lo``, cross-multiplied."""
        den, lo, hi = self._grid
        pn, pd = piece.lo.as_integer_ratio()
        qn, qd = piece.hi.as_integer_ratio()
        k = bisect_left(hi, pn * den, key=lambda x: x * pd)
        if k < len(lo) and lo[k] * pd <= pn * den and qn * den <= hi[k] * qd:
            return k
        return -1

    def interval_containing_point(self, x: Fraction) -> Optional[ClosedInterval]:
        """The interval containing x, if any."""
        return self.interval_containing(_trusted_interval(x, x))

    def interval_containing(self, piece: ClosedInterval) -> Optional[ClosedInterval]:
        """The stage interval containing ``piece`` entirely, if any."""
        k = self._containing_index(piece)
        return self._interval(k) if k >= 0 else None

    def __str__(self) -> str:
        return " ".join(str(iv) for iv in self.intervals)


def make_stage(
    endpoints: Iterable[tuple[RationalLike, RationalLike]],
    depth: int = 0,
    parent: Optional[CantorStage] = None,
) -> CantorStage:
    """Convenience constructor from (lo, hi) pairs."""
    ivs = tuple(ClosedInterval(to_rational(a), to_rational(b)) for a, b in endpoints)
    return CantorStage(ivs, depth=depth, parent=parent)


# ---------------------------------------------------------------------------
# Gaps and bridges
# ---------------------------------------------------------------------------

def gaps(stage: CantorStage) -> list[Gap]:
    """All gaps of the stage: the left-unbounded one, the bounded ones in
    increasing order, then the right-unbounded one.

    The number of bounded gaps is always ``stage.count - 1``.
    """
    result: list[Gap] = [Gap(None, stage.min, LEFT_UNBOUNDED)]
    result.extend(bounded_gaps(stage))
    result.append(Gap(stage.max, None, RIGHT_UNBOUNDED))
    return result


def bounded_gaps(stage: CantorStage) -> list[Gap]:
    """The bounded gaps in increasing order."""
    ivs = stage.intervals
    return [Gap(a.hi, b.lo, BOUNDED) for a, b in zip(ivs, ivs[1:])]


@dataclass(frozen=True)
class GapBridgeReport:
    """The bridge and local thickness at one endpoint of a bounded gap.

    ``side`` names which endpoint of the gap is under consideration and
    therefore the direction the bridge extends: ``left`` means the gap's left
    endpoint with the bridge extending leftward, ``right`` the mirror image.
    """

    endpoint: Fraction
    side: str
    gap: Gap
    bridge: ClosedInterval
    local_thickness: Fraction

    def to_json(self) -> dict:
        return {
            "endpoint": rational_str(self.endpoint),
            "side": self.side,
            "gap": [rational_str(self.gap.lo), rational_str(self.gap.hi)],
            "bridge": self.bridge.to_json(),
            "local_thickness": rational_str(self.local_thickness),
        }


def _endpoint_index(ends: list[int], den: int, value: Fraction) -> int:
    """Index of ``value`` among the strictly increasing grid ``ends`` over
    ``den``, or -1: one bisection, cross-multiplied."""
    n, d = value.as_integer_ratio()
    k = bisect_left(ends, n * den, key=lambda x: x * d)
    return k if k < len(ends) and ends[k] * d == n * den else -1


def _bridge_ends(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """The next-longer-gap pass over a stage grid: ``(left_end, right_end)``.

    A bridge stops at the first strictly longer gap, so the left bridge of
    bounded gap i starts at interval ``left_end[i]`` (just right of the
    nearest strictly longer gap on the left, else the first interval) and
    its right bridge ends at interval ``right_end[i]`` (just left of the
    nearest strictly longer gap on the right, else the last).  Two
    monotone-stack passes find them in O(n) integer comparisons.
    """
    gap = [b - a for a, b in zip(hi, lo[1:])]
    left_end = [0] * len(gap)
    right_end = [len(lo) - 1] * len(gap)
    stack: list[int] = []
    for i, g in enumerate(gap):
        while stack and gap[stack[-1]] <= g:
            stack.pop()
        if stack:
            left_end[i] = stack[-1] + 1
        stack.append(i)
    stack.clear()
    for i in reversed(range(len(gap))):
        g = gap[i]
        while stack and gap[stack[-1]] <= g:
            stack.pop()
        if stack:
            right_end[i] = stack[-1]
        stack.append(i)
    return left_end, right_end


# One bridge row: (gap index, side, first and last interval the bridge
# spans, local thickness).  The bridge is [lo[first], hi[last]].
BridgeRow = tuple[int, str, int, int, Fraction]


def _bridge_row(lo: list[int], hi: list[int], i: int, side: str, end: int) -> BridgeRow:
    """The row for one side of bounded gap i, whose bridge reaches interval
    ``end`` (from ``_bridge_ends``); the local thickness is one ratio of
    grid ints."""
    g = lo[i + 1] - hi[i]
    if side == LEFT:
        return i, LEFT, end, i, Fraction(hi[i] - lo[end], g)
    return i, RIGHT, i + 1, end, Fraction(hi[end] - lo[i + 1], g)


def _bridge_rows(stage: CantorStage) -> list[BridgeRow]:
    """Rows for both sides of every bounded gap, left to right: the one walk
    behind ``all_bridge_reports`` and the rendered braces."""
    _, lo, hi = stage._grid
    left_end, right_end = _bridge_ends(lo, hi)
    return [_bridge_row(lo, hi, i, side, end) for i in range(len(lo) - 1)
            for side, end in ((LEFT, left_end[i]), (RIGHT, right_end[i]))]


def _bridge_report(interval, row: BridgeRow) -> GapBridgeReport:
    """The report of one bridge row; ``interval(k)`` is the stage's interval
    k.  The grid fixed every order, so no constructor re-checks it."""
    i, side, first, last, local = row
    gap = _trusted(Gap, lo=interval(i).hi, hi=interval(i + 1).lo, kind=BOUNDED)
    if side == LEFT:
        endpoint = gap.lo
        bridge = _trusted_interval(interval(first).lo, endpoint)
    else:
        endpoint = gap.hi
        bridge = _trusted_interval(endpoint, interval(last).hi)
    return _trusted(GapBridgeReport, endpoint=endpoint, side=side, gap=gap, bridge=bridge,
                    local_thickness=local)


def bridge_at(stage: CantorStage, endpoint: RationalLike, side: str) -> GapBridgeReport:
    """Bridge and local thickness at one bounded-gap endpoint.

    The bridge extends away from the gap across every bounded gap of length
    at most the reference gap's, stopping at the first strictly longer gap or
    at the extreme point of the stage.  One bisection on the grid locates
    the gap and the next-longer-gap pass gives the bridge: O(n) integer
    operations.
    """
    endpoint = to_rational(endpoint)
    den, lo, hi = stage._grid
    # Bounded gap i runs from hi[i] to lo[i + 1].
    if side == LEFT:
        i = _endpoint_index(hi[:-1], den, endpoint)
    elif side == RIGHT:
        i = _endpoint_index(lo[1:], den, endpoint)
    else:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if i < 0:
        raise DomainError(
            f"{endpoint} is not the {side} endpoint of any bounded gap of the stage"
        )
    left_end, right_end = _bridge_ends(lo, hi)
    end = left_end[i] if side == LEFT else right_end[i]
    return _bridge_report(stage._interval, _bridge_row(lo, hi, i, side, end))


def all_bridge_reports(stage: CantorStage) -> list[GapBridgeReport]:
    """Reports for both sides of every bounded gap, left to right."""
    interval = stage.intervals.__getitem__  # every endpoint is read: build them once
    return [_bridge_report(interval, row) for row in _bridge_rows(stage)]


class ThicknessResult(NamedTuple):
    value: Fraction
    argmin: GapBridgeReport


def thickness(stage: CantorStage) -> ThicknessResult:
    """Exact Newhouse thickness of the stage with the minimizing report.

    One next-longer-gap pass gives every bridge in O(n) integer operations;
    local thicknesses are compared as integer cross-products, and a report
    is built for the minimizer only.  Ties are broken deterministically:
    smallest endpoint first, then the left side before the right.  The
    comparison uses that key rather than gap order because a degenerate
    interval makes the right endpoint of one gap the left endpoint of the
    next.
    """
    if stage.count < 2:
        raise DomainError("thickness undefined for a single interval")
    _, lo, hi = stage._grid
    left_end, right_end = _bridge_ends(lo, hi)
    # (bridge length, gap length, endpoint, 0 for left or 1 for right, gap index)
    best = (hi[0] - lo[left_end[0]], lo[1] - hi[0], hi[0], 0, 0)
    for i in range(len(lo) - 1):
        g = lo[i + 1] - hi[i]
        for cand in (
            (hi[i] - lo[left_end[i]], g, hi[i], 0, i),
            (hi[right_end[i]] - lo[i + 1], g, lo[i + 1], 1, i),
        ):
            lhs, rhs = cand[0] * best[1], best[0] * g
            if lhs < rhs or (lhs == rhs and cand[2:4] < best[2:4]):
                best = cand
    *_, right, i = best
    row = _bridge_row(lo, hi, i, *((RIGHT, right_end[i]) if right else (LEFT, left_end[i])))
    return ThicknessResult(row[-1], _bridge_report(stage._interval, row))


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------

def restrict(stage: CantorStage, window: ClosedInterval) -> CantorStage:
    """The stage intersected with a closed window.

    Intervals are clipped exactly; clips that vanish are dropped; a clip that
    degenerates to a point is kept (it is honest intersection content) and
    marks the result as degenerate-permitting.  Two binary searches on the
    grid find the intervals that meet the window; only the first and last of
    them can be clipped.  The others keep their grid ints, which are
    rescaled only when a window endpoint is off the grid.
    """
    den, lo, hi = stage._grid
    wn, wd = window.lo.as_integer_ratio()
    vn, vd = window.hi.as_integer_ratio()
    # hi[k] / den >= wn / wd and lo[k] / den <= vn / vd, cross-multiplied.
    first = bisect_left(hi, wn * den, key=lambda x: x * wd)
    last = bisect_right(lo, vn * den, key=lambda x: x * vd)
    if first >= last:
        raise DomainError(f"window {window} does not intersect the stage")
    common = math.lcm(den, wd, vd)
    m = common // den
    clo = [x * m for x in lo[first:last]]
    chi = [x * m for x in hi[first:last]]
    clo[0] = max(clo[0], wn * (common // wd))
    chi[-1] = min(chi[-1], vn * (common // vd))
    return CantorStage._from_grid((common, clo, chi), stage.depth, None, any(map(eq, clo, chi)))


def _polynomial_image(stage: CantorStage, coeffs: tuple[Fraction, ...]) -> CantorStage:
    """Exact image of the stage under x -> sum(coeffs[k] * x**k), degree >= 1,
    for a polynomial the caller knows to be monotone on the stage's hull.

    With c_k = p_k/d_k and q = lcm(d_k), a grid endpoint X/den maps to
    N(X) / (q * den**n), where N(X) is the integer Horner scheme with
    coefficients c_k * q * den**(n - k).  The image's grid is those
    numerators over q * den**n, reversed when the images decrease; its
    intervals are built on first read.  The stage checks run on the image
    grid, so endpoint images out of order, touching or collapsed to a point
    (unless the stage allows that) raise DomainError.
    """
    den, lo, hi = stage._grid
    ratios = [c.as_integer_ratio() for c in coeffs]
    q = math.lcm(*(d for _, d in ratios))
    n = len(ratios) - 1
    a = [p * (q // d) * den ** (n - k) for k, (p, d) in enumerate(ratios)]
    top, rest = a[-1], a[-2::-1]

    def horner(xs: list[int]) -> list[int]:
        acc = [x * top + rest[0] for x in xs]
        for c in rest[1:]:
            acc = [v * x + c for v, x in zip(acc, xs)]
        return acc

    lo, hi = horner(lo), horner(hi)
    if lo[0] > hi[-1]:
        lo, hi = hi[::-1], lo[::-1]
    return CantorStage._from_grid((q * den ** n, lo, hi), stage.depth, None,
                                  stage.allow_degenerate)


def affine_image(stage: CantorStage, scale: RationalLike, shift: RationalLike) -> CantorStage:
    """Exact image of the stage under x -> scale*x + shift (scale nonzero):
    the degree-1 case of the integer Horner image on the stage's grid."""
    scale = to_rational(scale)
    if scale == 0:
        raise DomainError("affine image requires a nonzero scale")
    return _polynomial_image(stage, (to_rational(shift), scale))


# ---------------------------------------------------------------------------
# Serialization: {"depth": n, "intervals": [["p/q", "r/s"], ...]}
# ---------------------------------------------------------------------------

def stage_to_json(stage: CantorStage) -> dict:
    return {
        "depth": stage.depth,
        "intervals": [iv.to_json() for iv in stage.intervals],
    }


# An integer or 'p/q' token in ASCII digits; every other token goes through
# to_rational, so Fraction keeps deciding what it accepts and its error text.
_GRID_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _token_ratio(token) -> tuple[int, int]:
    """A coordinate token as (numerator, positive denominator), not
    necessarily in lowest terms."""
    if type(token) is int:
        return token, 1
    if type(token) is str and (m := _GRID_TOKEN.fullmatch(token)):
        num, den = m.groups()
        q = 1 if den is None else int(den)
        if q:
            return int(num), q
    return to_rational(token).as_integer_ratio()


def stage_from_json(data: dict) -> CantorStage:
    """Parse a stage object straight to its integer grid; the depth must be
    a JSON integer and every coordinate an integer or a 'p/q' string
    (floats and booleans are rejected, never rounded).  Each pair's order
    is checked as it is read; the other stage checks run on the grid, and
    ``intervals`` is built on first read."""
    try:
        depth = data["depth"]
        pairs = data["intervals"]
        if type(depth) is not int:
            raise DomainError(f"stage depth must be an integer, got {depth!r}")
        ends = []
        for lo, hi in pairs:
            (a, p), (b, q) = _token_ratio(lo), _token_ratio(hi)
            if a * q > b * p:
                raise DomainError(
                    f"interval endpoints out of order: [{Fraction(a, p)}, {Fraction(b, q)}]"
                )
            ends += (a, p), (b, q)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed stage object: {exc}") from exc
    grid = _grid_of(ends)
    return CantorStage._from_grid(grid, depth, None, any(map(eq, grid[1], grid[2])))


def dumps_stage(stage: CantorStage, indent: int | None = None) -> str:
    return json.dumps(stage_to_json(stage), indent=indent)


def loads_stage(text: str) -> CantorStage:
    return stage_from_json(json.loads(text))
