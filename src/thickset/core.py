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
intervals or parsed from stage JSON, any common multiple for a stage that
``restrict``, a polynomial image (affine or the search's map f), the
gap-lemma merge or a built-in refiner builds straight from the grid it
computed.  A stage file of plain '-?digits[/digits]' texts passes one
whole-file screen and is read over its denominators as written, with no
``Fraction``; any other file is read token by token through ``Fraction``,
so the first fault in file order is the one reported.  Stage validation, the nesting
check, bridges, thickness, the point and piece lookups and the endpoint
locator ``_endpoint_index`` read the grid, so they compare and subtract ints
instead of walking ``Fraction`` chains.  A grid-built stage normalises its
endpoints into ``intervals`` only on the first read of that attribute, each
endpoint once by ``Fraction(numerator, denominator)``; the search's internal
stages, whose output is a witness, and a loaded stage file that is only
measured or rendered never build most of them.  Stage JSON is written from
the grid too, so a refined stage that is only written builds none.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import eq, itemgetter, le, lt, mul, ne
from typing import Iterable, NamedTuple, Optional, Union

from .errors import DomainError

RationalLike = Union[Fraction, int, str]
# A stage's integer grid (den, lo, hi): interval k is [lo[k]/den, hi[k]/den].
Grid = tuple[int, list[int], list[int]]
# CPython's default digit limit for int text; to_rational refuses a decimal
# exponent above it before Fraction computes 10**exponent.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

BOUNDED = "bounded"
LEFT_UNBOUNDED = "left_unbounded"
RIGHT_UNBOUNDED = "right_unbounded"

LEFT = "left"
RIGHT = "right"


def to_rational(value: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to an exact Fraction (Fraction's grammar)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError(f"floats are not accepted as coordinates: {value!r}")
    if isinstance(value, bool):
        raise DomainError(f"booleans are not accepted as coordinates: {value!r}")
    exp = isinstance(value, str) and _EXPONENT.search(value)
    if exp and (len(exp[1]) > _MAX_DIGITS or abs(int(exp[1])) > _MAX_DIGITS):
        raise DomainError(
            f"decimal exponent out of range: its magnitude may be at most {_MAX_DIGITS}")
    return Fraction(value)


def _require_int(name: str, value, least: Optional[int] = None) -> None:
    """Depths and seeds are ints, at least ``least`` if given; a bool or a float is refused."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be {f'at least {least}' if least else 'nonnegative'}")


def rational_str(value: Fraction) -> str:
    """Lowest-terms string form, e.g. '2/3', '-1/2', '4'."""
    return _lowest_terms_text(value.numerator, value.denominator)


def _rational_text(n: int, d: int) -> str:
    """``rational_str(Fraction(n, d))`` for d > 0, from one gcd."""
    g = math.gcd(n, d)
    return _lowest_terms_text(n // g, d // g)


def _lowest_terms_text(n: int, d: int) -> str:
    """The text of n/d in lowest terms, d > 0, as a Fraction holds it."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:
        raise DomainError(f"rational too long to write: {exc}") from exc


def _grid_texts(den: int, ends: Iterable[int]) -> list[str]:
    """``[_rational_text(x, den) for x in ends]`` for den > 0.  With den
    split once into ``2**k * odd``, x/den reduces by 2**v, v the lesser of k
    and x's trailing zero bits, then by ``gcd(x >> v, odd)``: a built-in
    grid's odd part has a few bits, so that gcd is short.  Each reduced
    denominator's text is written once per call."""
    k = (den & -den).bit_length() - 1
    odd = den >> k
    tails: dict[tuple[int, int], str] = {}
    texts = []
    try:
        for x in ends:
            v = (x & -x or den).bit_length() - 1  # x = 0 takes v = k
            if v > k:
                v = k
            x >>= v
            g = math.gcd(x, odd)
            if g > 1:
                x //= g
            tail = tails.get((v, g))
            if tail is None:
                d = (odd // g) << (k - v)
                tail = tails[v, g] = f"/{d}" if d > 1 else ""
            texts.append(f"{x}{tail}")
    except ValueError as exc:
        raise DomainError(f"rational too long to write: {exc}") from exc
    return texts


@dataclass(frozen=True)
class ClosedInterval:
    """A closed interval [lo, hi] with lo <= hi; also the type of certified
    enclosures of a real value (an exact value v is [v, v]).  Grid
    operations, whose stage checks the order on ints, build their intervals
    through ``_trusted_interval`` instead of this checking constructor."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            object.__setattr__(self, "lo", lo := to_rational(lo))
        if type(hi) is not Fraction:
            object.__setattr__(self, "hi", hi := to_rational(hi))
        # On ints: Fraction's own comparison checks the Rational ABC each call.
        if lo._numerator * hi._denominator > hi._numerator * lo._denominator:
            raise DomainError(f"interval endpoints out of order: [{lo}, {hi}]")

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

    ``depth`` records the stage's generation in its family.  A stage keeps
    no link to the stage it refines: nesting belongs to a chain, and
    ``check_nested_in`` checks it where one is put together.  Zero-length
    intervals are rejected unless the stage is explicitly built with
    ``allow_degenerate=True`` (exact intersections may legitimately produce
    isolated points).

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

    The grid is the primary form: a stage built by ``_from_grid``, as every
    grid operation, built-in refiner and ``stage_from_json`` builds one,
    builds ``intervals`` from the grid on the first read and keeps it, and
    ``stage_to_json`` writes its text from the grid.  The public constructor
    and ``make_stage`` hold their intervals from the start.  Equality,
    hashing, ``repr`` and pickling see the same stage either way.

    A random-thick stage also holds the private memo ``_texts`` that its
    grid refiner fills: lists parallel to ``lo`` and ``hi`` with the text of
    each endpoint inherited from its parent, None for the rest, which
    ``_endpoint_texts`` writes in.  It is derived from the grid, never read
    in its place, and left out of copies and pickles.
    """

    intervals: tuple[ClosedInterval, ...]
    depth: int = 0
    allow_degenerate: bool = field(default=False, compare=False, repr=False)
    _grid: Grid = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        ends = [x.as_integer_ratio() for iv in ivs for x in (iv.lo, iv.hi)]
        object.__setattr__(self, "_grid", _grid_of(ends))
        self._validate()

    @classmethod
    def _from_grid(cls, grid: Grid, depth: int = 0,
                   allow_degenerate: bool = False) -> "CantorStage":
        """A stage from the grid an operation computed: the grid is taken as
        it is, every stage check runs on its ints, and ``intervals`` is
        built on first read."""
        stage = object.__new__(cls)
        stage.__dict__.update(depth=depth, allow_degenerate=allow_degenerate, _grid=grid)
        stage._validate()
        return stage

    def __getattr__(self, name: str):
        # Only ``intervals`` can be missing from a stage, and only from one
        # that _from_grid built.
        if name != "intervals":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, lo, hi = self._grid
        ivs = tuple(_trusted_interval(Fraction(x, den), Fraction(y, den)) for x, y in zip(lo, hi))
        self.__dict__["intervals"] = ivs
        return ivs

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_texts"}

    def _interval(self, k: int) -> ClosedInterval:
        """Interval k, from ``intervals`` once built, else from the grid."""
        ivs = self.__dict__.get("intervals")
        if ivs is not None:
            return ivs[k]
        den, lo, hi = self._grid
        return _trusted_interval(Fraction(lo[k], den), Fraction(hi[k], den))

    def _lo(self, k: int) -> Fraction:
        """The left end of interval k, built from the grid alone unless
        ``intervals`` is: a caller that reads one end builds one Fraction."""
        ivs = self.__dict__.get("intervals")
        if ivs is not None:
            return ivs[k].lo
        den, lo, _ = self._grid
        return Fraction(lo[k], den)

    def _hi(self, k: int) -> Fraction:
        """The right end of interval k, as ``_lo`` builds the left."""
        ivs = self.__dict__.get("intervals")
        if ivs is not None:
            return ivs[k].hi
        den, _, hi = self._grid
        return Fraction(hi[k], den)

    def _validate(self) -> None:
        """The stage checks, on the grid's ints: nonempty, each interval in
        order, disjoint and increasing, no zero length unless degenerate
        stages are allowed, nonnegative depth."""
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
        _require_int("stage depth", self.depth)
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")

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
        return self._lo(0)

    @property
    def max(self) -> Fraction:
        return self._hi(-1)

    def hull(self) -> ClosedInterval:
        return ClosedInterval(self.min, self.max)

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

    def interval_containing(self, piece: ClosedInterval) -> Optional[ClosedInterval]:
        """The stage interval containing ``piece`` entirely, if any."""
        k = self._containing_index(piece)
        return self._interval(k) if k >= 0 else None

    def __str__(self) -> str:
        return " ".join(str(iv) for iv in self.intervals)


def make_stage(
    endpoints: Iterable[tuple[RationalLike, RationalLike]],
    depth: int = 0,
) -> CantorStage:
    """Convenience constructor from (lo, hi) pairs."""
    ivs = tuple(ClosedInterval(to_rational(a), to_rational(b)) for a, b in endpoints)
    return CantorStage(ivs, depth=depth)


# ---------------------------------------------------------------------------
# Gaps and bridges
# ---------------------------------------------------------------------------

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


def _bridge_ends(lo: list[int], hi: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The next-longer-gap pass over a stage grid: ``(gap, left_end, right_end)``.

    A bridge stops at the first strictly longer gap: the left bridge of gap
    i starts at interval ``left_end[i]``, just right of the nearest such gap
    on the left (else 0), and the right bridge ends at interval
    ``right_end[i]``, just left of the nearest on the right (else the last).
    One monotone stack: gap i pops each strictly shorter gap, ending its
    right bridge at i, and takes the left end of an equal gap left on top.
    """
    gap = [b - a for a, b in zip(hi, lo[1:])]
    left_end = [0] * len(gap)
    right_end = [len(lo) - 1] * len(gap)
    stack: list[int] = []
    for i, g in enumerate(gap):
        while stack and gap[stack[-1]] < g:
            right_end[stack.pop()] = i
        if stack:
            j = stack[-1]
            left_end[i] = left_end[j] if gap[j] == g else j + 1
        stack.append(i)
    return gap, left_end, right_end


# One bridge row: (gap index, side, first and last interval the bridge
# spans, bridge length, gap length), lengths on the grid.  The bridge is
# [lo[first], hi[last]] and its local thickness bridge / gap.
BridgeRow = tuple[int, str, int, int, int, int]


def _bridge_row(lo: list[int], hi: list[int], ends, i: int, side: str) -> BridgeRow:
    """The row for one side of bounded gap i; ``ends`` is ``_bridge_ends``."""
    gap, left_end, right_end = ends
    if side == LEFT:
        first = left_end[i]
        return i, LEFT, first, i, hi[i] - lo[first], gap[i]
    last = right_end[i]
    return i, RIGHT, i + 1, last, hi[last] - lo[i + 1], gap[i]


def _bridge_rows(stage: CantorStage) -> list[BridgeRow]:
    """Rows for both sides of every bounded gap, left to right: the one walk
    behind ``all_bridge_reports``, the ``bridges`` payload and the braces."""
    _, lo, hi = stage._grid
    gap, left_end, right_end = _bridge_ends(lo, hi)
    return [row for i, (g, first, last) in enumerate(zip(gap, left_end, right_end))
            for row in ((i, LEFT, first, i, hi[i] - lo[first], g),
                        (i, RIGHT, i + 1, last, hi[last] - lo[i + 1], g))]


def _bridge_report(stage: CantorStage, row: BridgeRow) -> GapBridgeReport:
    """The report of one bridge row of ``stage``.  It reads three endpoints,
    the gap's two and the bridge's far end, and builds from the grid only
    those ``intervals`` does not hold: three Fractions and the local
    thickness on a grid-built stage.  The grid fixed every order, so no
    constructor re-checks it."""
    i, side, first, last, bridge_len, gap_len = row
    a, b = stage._hi(i), stage._lo(i + 1)
    if side == LEFT:
        endpoint, bridge = a, _trusted_interval(stage._lo(first), a)
    else:
        endpoint, bridge = b, _trusted_interval(b, stage._hi(last))
    return _trusted(GapBridgeReport, endpoint=endpoint, side=side,
                    gap=_trusted(Gap, lo=a, hi=b, kind=BOUNDED), bridge=bridge,
                    local_thickness=Fraction(bridge_len, gap_len))


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
    return _bridge_report(stage, _bridge_row(lo, hi, _bridge_ends(lo, hi), i, side))


def all_bridge_reports(stage: CantorStage) -> list[GapBridgeReport]:
    """Reports for both sides of every bounded gap, left to right."""
    stage.intervals  # every endpoint is read: build them once
    return [_bridge_report(stage, row) for row in _bridge_rows(stage)]


# The frame of the ``bridges`` payload and one report in it, each text a
# "%s": json.dumps lays out the fixed shape, and the writer fills in sides
# and rational texts, which JSON quotes unchanged.
_REPORTS_HEAD, _REPORTS_TAIL = '{\n  "reports": [', "\n  ]\n}"
_BRIDGE_REPORT = json.dumps({"reports": [{
    "endpoint": "%s", "side": "%s", "gap": ["%s", "%s"], "bridge": ["%s", "%s"],
    "local_thickness": "%s"}]}, indent=2)[len(_REPORTS_HEAD):-len(_REPORTS_TAIL)]


def _bridges_json(stage: CantorStage) -> Iterable[str]:
    """``json.dumps({"reports": [r.to_json() for r in all_bridge_reports(stage)]},
    indent=2)`` in chunks of one report each, from the bridge rows and each
    endpoint's text written once off the grid: no report built.  Every text
    is written before this returns, so the iteration only formats and cannot
    raise."""
    lo, hi = _endpoint_texts(stage)
    fields = []
    for i, side, first, last, bridge_len, gap_len in _bridge_rows(stage):
        a, b = hi[i], lo[i + 1]
        bridge = (lo[first], a) if side == LEFT else (b, hi[last])
        fields.append((a if side == LEFT else b, side, a, b, *bridge,
                       _rational_text(bridge_len, gap_len)))
    if not fields:
        return ('{\n  "reports": []\n}',)
    reports = map(_BRIDGE_REPORT.__mod__, fields)
    return chain((_REPORTS_HEAD, next(reports)), map(",".__add__, reports), (_REPORTS_TAIL,))


class ThicknessResult(NamedTuple):
    value: Fraction
    argmin: GapBridgeReport


def thickness(stage: CantorStage) -> ThicknessResult:
    """Exact Newhouse thickness of the stage with the minimizing report.

    One next-longer-gap pass gives every bridge in O(n) integer operations.
    Each gap offers its smaller side (left on a tie: they share the gap),
    which wins only on a strictly smaller integer cross-product; one report
    is built, for the minimizer.  The argmin is the minimizer with the
    smallest endpoint, left side first, which is the first in scan order:
    only at a point interval [x, x] do two sides share an endpoint (the
    right of gap i, the left of gap i + 1), and they never both reach the
    minimum.  If the gaps differ, the side toward the longer one has an
    empty bridge and the other does not; if they are equal, gap i + 1's
    left bridge is gap i's plus the gap, so strictly longer.
    """
    if stage.count < 2:
        raise DomainError("thickness undefined for a single interval")
    _, lo, hi = stage._grid
    ends = gap, left_end, right_end = _bridge_ends(lo, hi)
    best_len, best_gap, best = hi[0] - lo[left_end[0]], gap[0], (0, LEFT)
    for i, g in enumerate(gap):
        left, right = hi[i] - lo[left_end[i]], hi[right_end[i]] - lo[i + 1]
        b, side = (left, LEFT) if left <= right else (right, RIGHT)
        if b * best_gap < best_len * g:
            best_len, best_gap, best = b, g, (i, side)
    argmin = _bridge_report(stage, _bridge_row(lo, hi, ends, *best))
    return ThicknessResult(argmin.local_thickness, argmin)


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
    return CantorStage._from_grid((common, clo, chi), stage.depth, any(map(eq, clo, chi)))


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
    return CantorStage._from_grid((q * den ** n, lo, hi), stage.depth, stage.allow_degenerate)


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

def _endpoint_texts(stage: CantorStage) -> tuple[list[str], list[str]]:
    """The texts of the grid's ``lo`` and ``hi`` endpoints: those the memo
    holds, the rest written from the grid by ``_grid_texts`` (and kept, if
    it has a memo)."""
    den, lo, hi = stage._grid
    memo = stage.__dict__.get("_texts")
    if memo is None:
        return _grid_texts(den, lo), _grid_texts(den, hi)
    for ends, texts in zip((lo, hi), memo):
        written = iter(_grid_texts(den, [x for x, t in zip(ends, texts) if t is None]))
        texts[:] = [t or next(written) for t in texts]
    return memo


def stage_to_json(stage: CantorStage) -> dict:
    """The stage object, with the 'p/q' strings ``_endpoint_texts`` gives."""
    lo, hi = _endpoint_texts(stage)
    return {"depth": stage.depth, "intervals": [[a, b] for a, b in zip(lo, hi)]}


def _screened_grid(pairs) -> Optional[Grid]:
    """The grid of a stage file's pairs, over the lcm of its denominators
    as written, when one whole-file screen passes: every pair two ASCII str
    tokens '-?digits' or '-?digits/digits' (a JSON int is read as its
    ``str``; a bool or float is not), nonzero denominators and, so that
    ``int`` reads no other numerator, no whitespace, '+' or '_'."""
    try:
        tokens = [t for lo, hi in pairs for t in (lo, hi)]
        try:
            text = "".join(tokens)
        except TypeError:
            tokens = [str(t) if type(t) is int else t for t in tokens]
            text = "".join(tokens)
        if not text.isascii() or any(c in text for c in " \t\n\r\v\f+_"):
            return None
        del text  # 170 kB for a depth-9 file, not kept beside the lists below
        parts = [t.partition("/") for t in tokens]
        dens = list(map(itemgetter(2), parts))
        # An empty denominator text is a token with no '/', never one ending in '/'.
        if dens.count("") != list(map(itemgetter(1), parts)).count(""):
            return None
        qs = {d: int(d or 1) for d in set(dens)}
        if not all(map(str.isdigit, qs.keys() - {""})) or not all(qs.values()):
            return None
        den = math.lcm(*qs.values())
        scale = {d: den // q for d, q in qs.items()}
        grid = list(map(mul, map(int, map(itemgetter(0), parts)), map(scale.__getitem__, dens)))
    except (TypeError, ValueError):
        return None
    return den, grid[::2], grid[1::2]


def stage_from_json(data: dict) -> CantorStage:
    """Parse a stage object straight to its integer grid; the depth must be
    a JSON integer and every coordinate an integer or a 'p/q' string
    (floats and booleans are rejected, never rounded).  A file that
    ``_screened_grid`` takes is read in a few whole-file passes, and
    ``_validate`` is its one order check.  Any other file goes token by
    token through ``to_rational``, each pair's order checked as it is read,
    so the first fault in file order wins and Fraction keeps deciding what
    it accepts and its error text.  ``intervals`` is built on first read."""
    try:
        depth = data["depth"]
        pairs = data["intervals"]
        _require_int("stage depth", depth)
        grid = _screened_grid(pairs)
        if grid is None:
            ivs = [ClosedInterval(lo, hi) for lo, hi in pairs]
            grid = _grid_of([x.as_integer_ratio() for iv in ivs for x in (iv.lo, iv.hi)])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed stage object: {exc}") from exc
    return CantorStage._from_grid(grid, depth, any(map(eq, grid[1], grid[2])))


def dumps_stage(stage: CantorStage, indent: int | str | None = None) -> str:
    """``json.dumps(stage_to_json(stage), indent=indent)``, byte for byte,
    one f-string per interval: every endpoint text is ``[-0-9/]``, which
    JSON quotes unchanged."""
    lo, hi = _endpoint_texts(stage)
    if indent is None:
        pairs = ", ".join([f'["{a}", "{b}"]' for a, b in zip(lo, hi)])
        return f'{{"depth": {stage.depth}, "intervals": [{pairs}]}}'
    pad = indent if isinstance(indent, str) else " " * indent
    n1 = "\n" + pad
    n2 = n1 + pad
    n3 = n2 + pad
    pairs = ("," + n2).join([f'[{n3}"{a}",{n3}"{b}"{n2}]' for a, b in zip(lo, hi)])
    return f'{{{n1}"depth": {stage.depth},{n1}"intervals": [{n2}{pairs}{n1}]\n}}'


def _unique_keys(items: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key written twice is refused, never resolved."""
    obj = {}
    for key, value in items:
        if key in obj:
            raise DomainError(f"duplicate key in stage JSON: {key!r}")
        obj[key] = value
    return obj


def loads_stage(text: str) -> CantorStage:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise DomainError("stage JSON is nested too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer literal over the int-string digit limit
        raise DomainError(f"malformed stage JSON: {exc}") from exc
    return stage_from_json(data)
