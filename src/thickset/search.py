"""Constructive configuration search in thick Cantor stages.

Three finders, all exact or certified:

* ``find_3ap``: three-term arithmetic progressions {x - t, x, x + t} in a
  family of thickness at least 1.  The middle point is a largest-gap
  endpoint; the offset t is located by intersecting the reflected left
  bridge piece with the right bridge piece of the deepest stage.
* ``find_config``: nonlinear configurations {x - t, x, x + f(t)} for
  thickness above 1 and f'(0) strictly inside the admissible slope window.
  The pipeline localizes to a small bridge, orients so the left bridge
  dominates, maps the bridge piece that carries t forward through the exact
  polynomial (f is increasing on the validated box, so f([a, b]) is
  [f(a), f(b)]) and intersects the deepest image exactly with the piece
  that carries f(t).  Each extracted level's thickness is checked once,
  exactly, against the thickness gated on (the certified bound, else the
  measured floor), and the smooth-image thickness hypothesis a posteriori
  and exactly on the image of every level.  Only the witness
  offset t needs a certified inverse: two bisections, one per end of ``ft``.
* ``verify_counterexample``: exact endpoint-inequality verification that the
  five-interval construction avoids {x - t, x, x + t^2} at its largest-gap
  endpoints.

``find_3ap`` and ``find_config`` share one orient-and-frame step
(``largest_gap_frame``): the 3-AP is the f(t) = t case of the configuration,
and the two differ only in their hypothesis gates, their bridge inequalities
and the map f applied to the piece that carries t.

Each finder reads a witness's chains off the family stages it holds; the
``ConfigWitness`` constructor and the coupling check of ``ft`` to f(t)
certify it.  ``verify_witness`` replays it, the only ``interval_chain`` walk.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .constructions import (
    CounterexampleParams,
    RestrictedFamily,
    StageFamily,
    counterexample_parts,
    counterexample_set,
)
from .core import (
    LEFT,
    CantorStage,
    ClosedInterval,
    Gap,
    RationalLike,
    _endpoint_index,
    _polynomial_image,
    _require_int,
    affine_image,
    bridge_at,
    rational_str,
    restrict,
    thickness,
    to_rational,
)
from .errors import (
    DomainError,
    HypothesisError,
    InsufficientDepthError,
    InternalContradictionError,
    PrecisionError,
)
from .functions import (
    FunctionSpec,
    MonotoneBracket,
    derivative_window,
    eval_function,
    monotone_inverse,
    range_bounds,
)
from .gaplemma import GapLemmaInapplicable, persistent_intersect

WITNESS_WIDTH = Fraction(1, 2 ** 48)
# Width of the certified inverse enclosing each end of the witness offset t.
_INVERSE_PRECISION = Fraction(1, 2 ** 64)
# find_config halves delta at most this many times before giving up.
_DELTA_HALVINGS = 40
# find_config gates a family that certifies no thickness bound on its
# thickness floor over depths 1..CONFIG_GATE_DEPTH.
CONFIG_GATE_DEPTH = 4
# The most intervals a stage may be asked for, by subset_extract's scan or a
# CLI depth: `construct --random-thick 2 --depth 16` peaks at about 250 MB
# and writes 39 MiB of JSON (Python 3.11 on a 2-core x86-64 host).
INTERVAL_BUDGET = 2 ** 16


# ---------------------------------------------------------------------------
# Largest-gap frame
# ---------------------------------------------------------------------------

class _Piece(NamedTuple):
    """A stage's part in ``window``, as offsets z -> scale * z + shift."""

    window: ClosedInterval
    scale: int
    shift: Fraction

    def of(self, stage: CantorStage) -> CantorStage:
        return affine_image(restrict(stage, self.window), self.scale, self.shift)


class GapFrame(NamedTuple):
    """A stage's largest bounded gap, oriented so the left bridge dominates.
    Offsets run from the middle point ``x``: the ``left`` piece spans
    [gap.length, left_reach], the ``right`` piece [0, right_reach].  Read
    ``reflected`` (the right bridge strictly longer), x is the gap's left
    endpoint, not its right, and the two pieces swap bridges."""

    gap: Gap
    x: Fraction
    reflected: bool
    left_reach: Fraction
    right_reach: Fraction
    left: _Piece
    right: _Piece


def _largest_gap(lo: list[int], hi: list[int]) -> int:
    """Index of the largest bounded gap of a stage grid, leftmost on ties."""
    widths = [b - a for a, b in zip(hi, lo[1:])]
    return widths.index(max(widths))


def largest_gap_frame(stage: CantorStage) -> GapFrame:
    """The one frame step of both searches.  The gap is an argmax of the
    grid's gap widths (leftmost on ties); no gap is strictly longer, so both
    bridges run to the ends of the stage."""
    _, lo, hi = stage._grid
    if len(lo) < 2:
        raise DomainError("no bounded gap: cannot frame a single interval")
    i = _largest_gap(lo, hi)
    gap = Gap(stage._hi(i), stage._lo(i + 1))
    left, right = ClosedInterval(stage.min, gap.lo), ClosedInterval(gap.hi, stage.max)
    if hi[i] - lo[0] >= hi[-1] - lo[i + 1]:
        x = gap.hi
        return GapFrame(gap, x, False, x - left.lo, right.length,
                        _Piece(left, -1, x), _Piece(right, 1, -x))
    x = gap.lo
    return GapFrame(gap, x, True, right.hi - x, left.length,
                    _Piece(right, 1, -x), _Piece(left, -1, x))


# ---------------------------------------------------------------------------
# Small-diameter subset extraction
# ---------------------------------------------------------------------------

def subset_extract(
    family: StageFamily,
    delta: RationalLike,
    max_scan_depth: int = INTERVAL_BUDGET.bit_length() - 1,
) -> RestrictedFamily:
    """Restrict a family to a bridge of hull width below delta.

    Follows the constructive recipe: take the largest gap, look right of its
    right endpoint ``u`` for the first strictly shorter gap starting within
    min(|largest gap|, delta) of ``u``, and restrict to the left bridge of
    that gap.  The returned family is re-indexed to start at the first depth
    where both window endpoints are interval endpoints, so that every
    returned stage is a genuine bridge restriction.  Thickness is not
    measured here: ``find_config`` checks every level it uses once, against
    the thickness it gated on.
    """
    delta = to_rational(delta)
    if delta <= 0:
        raise DomainError("delta must be positive")
    _require_int("max_scan_depth", max_scan_depth, 1)
    dn, dd = delta.as_integer_ratio()
    found = None
    for depth in range(1, max_scan_depth + 1):
        stage = family.stage(depth)
        if stage.count < 2:
            continue
        # On the grid: u is the largest gap's right end; a gap qualifies when
        # it starts right of u, closer than min(|largest gap|, delta), and is
        # strictly shorter.
        den, lo, hi = stage._grid
        i = _largest_gap(lo, hi)
        u, width = lo[i + 1], lo[i + 1] - hi[i]
        reach = min(width * dd, dn * den)  # (start - u) / den >= reach / (den * dd)
        for j in range(bisect_right(hi, u), len(lo) - 1):
            if (hi[j] - u) * dd >= reach:
                break
            if lo[j + 1] - hi[j] < width:
                found = (depth, stage, j)
                break
        if found:
            break
    if not found:
        raise InsufficientDepthError(
            f"no gap suitable for extraction within {delta} of the largest gap "
            f"up to depth {max_scan_depth}",
            required_depth=max_scan_depth + 1,
        )

    depth, stage, j = found
    window = bridge_at(stage, stage._hi(j), LEFT).bridge
    if window.length >= delta:
        raise InternalContradictionError(
            f"extracted bridge {window} is not shorter than delta = {delta}"
        )

    # First depth at which both window endpoints are interval endpoints of
    # the stage; from there on the window spans whole intervals.
    base = None
    for d in range(1, depth + 1):
        den, lo, hi = family.stage(d)._grid
        if _endpoint_index(lo, den, window.lo) >= 0 and _endpoint_index(hi, den, window.hi) >= 0:
            base = d
            break
    if base is None:
        raise InternalContradictionError("bridge endpoints never align with stage intervals")

    return RestrictedFamily(family, window, depth_offset=base)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

Chain = tuple[ClosedInterval, ...]


@dataclass(frozen=True)
class ConfigWitness:
    """A certified configuration {x - t, x, x + f(t)}.

    ``t`` and ``ft`` are rational enclosures; ``chains`` holds one interval
    chain per configuration point (left, middle, right), entry d an interval
    of the stage at depth d.  The certificate reads: for every s in the
    ``ft`` enclosure there is a matching offset t* in the ``t`` enclosure
    with f(t*) = s, and the three points x - t*, x, x + s lie in every stage
    down to ``depth``.  The constructor proves a nonnegative int depth,
    t.lo > 0, nested chains and a deepest link holding its point enclosure,
    so every link holds it; only ``verify_witness`` shows that the links are
    the family's and ft is f(t).
    """

    x: Fraction
    t: ClosedInterval
    ft: ClosedInterval
    depth: int
    chains: tuple[Chain, Chain, Chain]

    def __post_init__(self):
        _require_int("depth", self.depth, 0)
        if self.t.lo <= 0:
            raise DomainError(f"nondegeneracy requires t > 0, got enclosure {self.t.lo}")
        if len(self.chains) != 3:
            raise DomainError("a witness carries exactly three chains")
        for chain in self.chains:
            for deeper, coarser in zip(chain[1:], chain):
                if not coarser.contains_interval(deeper):
                    raise DomainError("witness chains must be nested")
        for chain, enc in zip(self.chains, self.point_enclosures()):
            if chain and not chain[-1].contains_interval(enc):
                raise DomainError("deepest chain entry must contain its point enclosure")

    def point_enclosures(self) -> tuple[ClosedInterval, ClosedInterval, ClosedInterval]:
        return _point_enclosures(self.x, self.t, self.ft)

    def to_json(self) -> dict:
        return {
            "x": rational_str(self.x),
            "t": self.t.to_json(),
            "ft": self.ft.to_json(),
            "depth": self.depth,
            "chains": [[iv.to_json() for iv in chain] for chain in self.chains],
        }


def _point_enclosures(
    x: Fraction, t: ClosedInterval, ft: ClosedInterval
) -> tuple[ClosedInterval, ClosedInterval, ClosedInterval]:
    """Enclosures of the three configuration points x - t, x, x + f(t)."""
    return (
        ClosedInterval(x - t.hi, x - t.lo),
        ClosedInterval(x, x),
        ClosedInterval(x + ft.lo, x + ft.hi),
    )


def verify_witness(
    family: StageFamily,
    witness: ConfigWitness,
    f: Optional[FunctionSpec] = None,
) -> dict:
    """Replay a witness against its family; returns {'ok': bool, 'failures': [...]}.

    Checks what the ``ConfigWitness`` constructor cannot: ft within f(t
    enclosure) when ``f`` is given, each chain's length, and each chain
    entry by entry against the family's stage intervals.
    """
    failures: list[str] = []
    if f is not None:
        flo = eval_function(f, witness.t.lo)
        fhi = eval_function(f, witness.t.hi)
        if not (min(flo, fhi) <= witness.ft.lo and witness.ft.hi <= max(flo, fhi)):
            failures.append("ft enclosure is not within f(t enclosure)")
    enclosures = witness.point_enclosures()
    for name, chain, enc in zip(("left", "middle", "right"), witness.chains, enclosures):
        if len(chain) != witness.depth + 1:
            failures.append(
                f"{name} chain has {len(chain)} entries, expected {witness.depth + 1}"
            )
            continue
        try:
            if list(chain) != family.interval_chain(enc, witness.depth):
                failures.append(f"{name} chain does not match the family's stage intervals")
        except DomainError as exc:
            failures.append(f"{name} enclosure escapes the family: {exc}")
    return {"ok": not failures, "failures": failures}


def _witness(stages: list[CantorStage], x: Fraction,
             t: ClosedInterval, ft: ClosedInterval) -> ConfigWitness:
    """Each point's chain off the stages the finder holds, depths 0, 1, ...;
    every enclosure lies in stage intervals, so one outside is a bug."""
    encs = _point_enclosures(x, t, ft)
    chains = tuple(tuple(stage.interval_containing(enc) for stage in stages) for enc in encs)
    for enc, chain in zip(encs, chains):
        if None in chain:
            raise InternalContradictionError(
                f"witness point {enc} left the family at depth {chain.index(None)}")
    return ConfigWitness(x=x, t=t, ft=ft, depth=len(stages) - 1, chains=chains)


def _deepest_link(a: CantorStage, b: CantorStage) -> ClosedInterval:
    """The first widest interval common to two framed pieces.  The frame
    facts the search has checked make the pieces meet, so an empty
    intersection is a contradiction even where the pieces themselves fail
    the gap-lemma hypotheses."""
    try:
        return persistent_intersect([a], [b], check=False).chain[-1]
    except GapLemmaInapplicable as exc:
        raise InternalContradictionError(f"the framed pieces do not meet: {exc}") from exc


# ---------------------------------------------------------------------------
# 3-AP search
# ---------------------------------------------------------------------------

def thickness_floor(family: StageFamily, max_depth: int) -> Fraction:
    """Minimum exact thickness of the family's stages at depths 1..max_depth,
    the value the search hypotheses are gated on."""
    _require_int("max_depth", max_depth, 1)
    values = []
    for d in range(1, max_depth + 1):
        stage = family.stage(d)
        if stage.count < 2:
            raise HypothesisError(
                f"stage at depth {d} has no bounded gap; thickness is undefined"
            )
        values.append(thickness(stage).value)
    return min(values)


def config_gate_thickness(family: StageFamily) -> Fraction:
    """The thickness ``find_config`` gates on: the family's certified bound,
    else its exact floor over depths 1..CONFIG_GATE_DEPTH (deeper levels are
    checked as the search reaches them)."""
    if family.thickness_bound is not None:
        return family.thickness_bound
    return thickness_floor(family, CONFIG_GATE_DEPTH)


def find_3ap(family: StageFamily, max_depth: int = 12) -> ConfigWitness:
    """A certified 3-AP {x - t, x, x + t} in a family of thickness >= 1 at
    every certified depth 1..max_depth.

    The middle point is an endpoint of the largest gap, on the side opposite
    the longer bridge.  Every point of the returned t-enclosure gives a
    genuine progression through all certified depths: both offsets live in
    the exact intersection of the deepest pieces, which the stages' nesting
    puts inside every coarser one, with no rounding anywhere.
    """
    _require_int("max_depth", max_depth, 1)
    tau = thickness_floor(family, max_depth)
    if tau < 1:
        raise HypothesisError(f"3-AP search requires thickness >= 1, got {tau}")

    stages = family.stages(0, max_depth)
    deep = stages[-1]
    fr = largest_gap_frame(deep)
    if not (0 < fr.gap.length <= fr.right_reach <= fr.left_reach):
        raise InternalContradictionError(
            f"bridge inequalities failed: gap {fr.gap.length}, right {fr.right_reach}, "
            f"left reach {fr.left_reach}; with thickness >= 1 this cannot happen"
        )
    t_enc = _deepest_link(fr.left.of(deep), fr.right.of(deep))
    return _witness(stages, fr.x, t_enc, t_enc)


# ---------------------------------------------------------------------------
# Nonlinear configuration search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Tunables for the nonlinear search.

    ``rho`` must satisfy 0 < rho < 1 and rho * tau >= 1 (default: midpoint
    of [1/tau, 1]); it fixes the bound epsilon = (1 - rho)/(2 rho) on the
    derivative ratio deviation used when validating delta.  The decisive
    check is a posteriori: the exact thickness of every image stage must
    exceed rho * tau.  ``delta`` seeds the hull-shrinking loop and is halved
    until every validation passes.  ``max_depth`` is the number of certified
    refinement levels below the extracted bridge.
    """

    rho: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    max_depth: int = 12

    def __post_init__(self):
        for name in ("rho", "delta"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, to_rational(v))
        if self.delta is not None and self.delta <= 0:
            raise DomainError("delta must be positive")
        _require_int("max_depth", self.max_depth, 1)


@dataclass
class FindConfigResult:
    """Witness plus the diagnostics the acceptance checks re-verify."""

    witness: ConfigWitness
    tau: Fraction
    rho: Fraction
    epsilon: Fraction
    delta: Fraction
    reflected: bool
    extraction_offset: int
    image_thickness_min: Fraction
    rho_tau: Fraction = field(init=False)

    def __post_init__(self):
        self.rho_tau = self.rho * self.tau


class _RetryDelta(Exception):
    """Internal: the a-posteriori image-thickness check failed; shrink delta."""


def _validate_delta(f: FunctionSpec, tau: Fraction, delta: Fraction, eps: Fraction) -> bool:
    """Derivative conditions on the symmetric box of radius tau*delta:

    the range [m, M] of f' (and hence of its reciprocal, the inverse
    derivative) must sit strictly inside the slope window, and both
    derivative deviations from their values at zero must stay below
    eps/(2*tau).  The ratio deviation M/m - 1 < eps needs no check of its
    own: the window gives m > 1/tau and the first deviation M - m < eps/tau,
    so M/m - 1 = (M - m)/m < eps."""
    box = ClosedInterval(-tau * delta, tau * delta)
    bounds = range_bounds(f.polynomial().derivative(), box)
    m, M = bounds.lo, bounds.hi
    window = derivative_window(tau)
    if not (window.lower < m and M < window.upper):
        return False
    slope = f.slope_at_zero
    budget = eps / (2 * tau)
    if max(M - slope, slope - m) >= budget:
        return False
    return max(1 / m - 1 / slope, 1 / slope - 1 / M) < budget


def _shrink_centered(piece: ClosedInterval, width: Fraction) -> ClosedInterval:
    if piece.length <= width:
        return piece
    mid = piece.midpoint
    half = width / 2
    return ClosedInterval(mid - half, mid + half)


def find_config(
    family: StageFamily,
    f: FunctionSpec,
    cfg: Optional[SearchConfig] = None,
    enforce_window: bool = True,
) -> FindConfigResult:
    """Find a certified configuration {x - t, x, x + f(t)} in the family.

    Requires family thickness strictly above 1 and f'(0) strictly inside the
    slope window (the latter check can be disabled for the experimental
    sweep mode, in which case failures downstream are expected and
    reported).  See the module docstring for the pipeline; every accepted
    run has verified, exact image-stage thickness above rho * tau at every
    certified level.
    """
    cfg = cfg or SearchConfig()
    tau = config_gate_thickness(family)
    if tau <= 1:
        raise HypothesisError(
            f"nonlinear search requires thickness > 1, got {tau}"
        )
    window = derivative_window(tau)
    slope = f.slope_at_zero
    if enforce_window and not window.contains(slope):
        raise HypothesisError(
            f"f'(0) = {slope} violates the slope window {window} for thickness {tau}"
        )
    if slope <= 0:
        raise HypothesisError(
            f"f'(0) = {slope} must be positive: the search maps offsets forward "
            f"through an increasing f"
        )

    rho = cfg.rho if cfg.rho is not None else (1 / tau + 1) / 2
    if not (0 < rho < 1 and rho * tau >= 1):
        raise DomainError(f"rho = {rho} must satisfy 0 < rho < 1 and rho*tau >= 1")
    eps = (1 - rho) / (2 * rho)

    hull = family.stage(0).hull().length
    delta = cfg.delta if cfg.delta is not None else hull / 8
    last_error: Optional[Exception] = None
    for _ in range(_DELTA_HALVINGS):
        if not _validate_delta(f, tau, delta, eps):
            delta = delta / 2
            continue
        try:
            return _attempt_config(family, f, cfg.max_depth, tau, rho, eps, delta)
        except _RetryDelta as exc:
            last_error = exc
            delta = delta / 2
    raise PrecisionError(
        f"no delta down to {delta} satisfied the derivative and image-thickness "
        f"conditions" + (f"; last failure: {last_error}" if last_error else "")
        + " (supply a smaller cfg.delta or a tamer function)"
    )


def _attempt_config(
    family: StageFamily,
    f: FunctionSpec,
    levels: int,
    tau: Fraction,
    rho: Fraction,
    eps: Fraction,
    delta: Fraction,
) -> FindConfigResult:
    sub = subset_extract(family, delta)
    sub_stages = sub.stages(0, levels)

    # The one check of the extracted levels: each is measured once, against
    # the tau gated on.  Below a certified bound that is a bug; below the
    # floor gated on for a family that certifies none, the family is thin
    # deeper than the gate.
    for level, piece in enumerate(sub_stages):
        if piece.count >= 2 and (value := thickness(piece).value) < tau:
            depth = sub.depth_offset + level
            if family.thickness_bound is None:
                raise HypothesisError(
                    f"extracted family thickness {value} at depth {depth} is below "
                    f"the floor {tau} gated on over depths 1..{CONFIG_GATE_DEPTH}"
                )
            raise InternalContradictionError(
                f"extracted family lost thickness at level {level} (depth {depth}): "
                f"{value} < certified bound {tau}"
            )

    fr = largest_gap_frame(sub_stages[-1])
    gap_len, left_reach, right_reach = fr.gap.length, fr.left_reach, fr.right_reach
    if not (tau * gap_len <= right_reach and tau * gap_len <= left_reach - gap_len):
        raise InternalContradictionError(
            "bridge-ratio facts failed although thickness was verified"
        )

    # The left offsets carry t and the right offsets f(t); a reflection swaps
    # the roles.  Every offset lies in the validated box, where f is
    # increasing, so the exact polynomial maps each interval of the t piece
    # onto [f(lo), f(hi)] (integer Horner on the stage's grid) and the
    # intersection runs in f(t) coordinates.
    poly = f.polynomial()
    if fr.reflected:
        source, target, reach = fr.right, fr.left, right_reach
        frame = (gap_len, poly(right_reach), left_reach)
    else:
        source, target, reach = fr.left, fr.right, left_reach
        frame = (poly(gap_len), right_reach, poly(left_reach))

    # Mean-value bound, decided exactly in f(t) coordinates: the right reach
    # falls strictly inside the span (gap length, left reach) of the left
    # piece; guaranteed by the validated window.
    if not frame[0] < frame[1] < frame[2]:
        raise InternalContradictionError(
            "frame bound {} < {} < {} failed despite validated bounds".format(*frame)
        )

    # Every level's image is thickness-checked; the loop ends on the deepest,
    # the only one intersected: the stages nest, so it meets every coarser one.
    image_thickness_min: Optional[Fraction] = None
    for level, stage in enumerate(sub_stages):
        t_piece = source.of(stage)
        image = _polynomial_image(t_piece, poly.coeffs)
        if image.count >= 2:
            tv = thickness(image).value
            if tv <= rho * tau:
                raise _RetryDelta(
                    f"image stage thickness {tv} at level {level} "
                    f"is not above rho*tau = {rho * tau}"
                )
            if image_thickness_min is None or tv < image_thickness_min:
                image_thickness_min = tv
    if image_thickness_min is None:
        raise _RetryDelta("image stages never developed a bounded gap")

    deepest = _deepest_link(target.of(sub_stages[-1]), image)
    k = image._containing_index(deepest)
    if k < 0:
        raise InternalContradictionError("deepest common interval left the image stage")
    source_iv = t_piece._interval(k)

    # ft is exact; t encloses f^-1(ft), which lies inside source_iv, so the
    # clamp to source_iv keeps it nonempty and inside the t piece.
    ft_enc = _shrink_centered(deepest, WITNESS_WIDTH)
    bracket = MonotoneBracket(Fraction(0), tau * reach, f)
    t_lo = monotone_inverse(f, ft_enc.lo, bracket, _INVERSE_PRECISION).lo
    t_hi = monotone_inverse(f, ft_enc.hi, bracket, _INVERSE_PRECISION).hi
    t_enc = ClosedInterval(max(t_lo, source_iv.lo), min(t_hi, source_iv.hi))
    if not (poly(t_enc.lo) <= ft_enc.lo and ft_enc.hi <= poly(t_enc.hi)):
        raise InternalContradictionError("ft enclosure is not within f(t enclosure)")

    # The window spans whole intervals from depth_offset on: the links are the family's.
    return FindConfigResult(
        witness=_witness(family.stages(0, sub.depth_offset - 1) + sub_stages, fr.x, t_enc, ft_enc),
        tau=tau,
        rho=rho,
        epsilon=eps,
        delta=delta,
        reflected=fr.reflected,
        extraction_offset=sub.depth_offset,
        image_thickness_min=image_thickness_min,
    )


# ---------------------------------------------------------------------------
# Mean-value bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MvtBoundsReport:
    """Per-inequality report for the mean-value frame bound.

    Geometry: a gap of width ``gap_width`` with its right endpoint at the
    origin, the left bridge reaching ``left_reach`` left of the origin, the
    right bridge reaching ``right_reach`` right of it.  The claim: a map g
    with g(0) = 0 and derivative strictly inside (1/tau, 1 + 1/tau) on the
    right bridge sends its far end strictly between the gap width and the
    left reach.
    """

    gap_width: Fraction
    left_reach: Fraction
    right_reach: Fraction
    tau: Fraction
    hypotheses: dict
    value: Optional[Fraction]
    lower_ok: bool
    upper_ok: bool

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def conclusion_ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    @property
    def all_ok(self) -> bool:
        return self.hypotheses_ok and self.conclusion_ok

    def to_json(self) -> dict:
        return {
            "gap_width": rational_str(self.gap_width),
            "left_reach": rational_str(self.left_reach),
            "right_reach": rational_str(self.right_reach),
            "tau": rational_str(self.tau),
            "hypotheses": dict(self.hypotheses),
            "value": None if self.value is None else rational_str(self.value),
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "all_ok": self.all_ok,
        }


def verify_mvt_bounds(
    gap_width: RationalLike,
    left_reach: RationalLike,
    right_reach: RationalLike,
    tau: RationalLike,
    g: FunctionSpec,
) -> MvtBoundsReport:
    """Check 0 < gap_width < g(right_reach) < left_reach, reporting every
    hypothesis and both conclusion inequalities separately (violations are
    reported, never thrown).  The derivative window is checked on the right
    bridge [0, right_reach]."""
    a = to_rational(gap_width)
    b = to_rational(left_reach)
    c = to_rational(right_reach)
    tau = to_rational(tau)
    window = ClosedInterval(Fraction(0), max(c, Fraction(0)))

    hypotheses = {
        "positive_lengths": a > 0 and b > 0 and c > 0,
        "tau_above_one": tau > 1,
        "left_at_least_right": b - a >= c,
        "right_bridge_ratio": tau * a <= c,
        "left_bridge_ratio": tau * a <= b - a,
        "derivative_window_lower": False,
        "derivative_window_upper": False,
    }
    if tau > 1:
        bounds = range_bounds(g.polynomial().derivative(), window)
        hypotheses["derivative_window_lower"] = bounds.lo > 1 / tau
        hypotheses["derivative_window_upper"] = bounds.hi < 1 + 1 / tau

    value = eval_function(g, c) if c > 0 else None
    lower_ok = value is not None and a < value
    upper_ok = value is not None and value < b
    return MvtBoundsReport(
        gap_width=a,
        left_reach=b,
        right_reach=c,
        tau=tau,
        hypotheses=hypotheses,
        value=value,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
    )


# ---------------------------------------------------------------------------
# Counterexample verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvoidanceReport:
    """Exact verification that the five-interval set avoids its target
    configurations; every check is an endpoint inequality over rationals."""

    checks: tuple[tuple[str, bool, str], ...]
    thickness: Fraction
    tau: Fraction
    eps: Fraction
    c: Fraction

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "thickness": rational_str(self.thickness),
            "tau": rational_str(self.tau),
            "eps": rational_str(self.eps),
            "c": rational_str(self.c),
            "all_passed": self.all_passed,
        }


def avoidance_checks(parts: dict, eps: Fraction) -> list[tuple[str, bool, str]]:
    """Endpoint-inequality checks on a named-parts dictionary.

    Exposed separately so deliberate tampering (shifting a piece into the
    squared image of another) is detectable in isolation.
    """
    checks: list[tuple[str, bool, str]] = []
    text = rational_str  # each detail writes its rationals as the JSON does

    i1, i2 = parts["I1"], parts["I2"]
    g3, g4 = parts["G3"], parts["G4"]
    # Squaring is monotone on positive reals, so interval containment of the
    # squared reflections reduces to endpoint inequalities.
    r1 = ClosedInterval(-i1.hi, -i1.lo)
    r2 = ClosedInterval(-i2.hi, -i2.lo)
    sq1 = ClosedInterval(r1.lo ** 2, r1.hi ** 2)
    sq2 = ClosedInterval(r2.lo ** 2, r2.hi ** 2)
    ok1 = g4.lo < sq1.lo and sq1.hi < g4.hi
    checks.append(
        (
            "squares_of_I1_reflection_inside_G4",
            ok1,
            f"{text(g4.lo)} < {text(sq1.lo)} and {text(sq1.hi)} < {text(g4.hi)}",
        )
    )
    ok2 = g3.lo < sq2.lo and sq2.hi < g3.hi
    checks.append(
        (
            "squares_of_I2_reflection_inside_G3",
            ok2,
            f"{text(g3.lo)} < {text(sq2.lo)} and {text(sq2.hi)} < {text(g3.hi)}",
        )
    )
    top = parts["I5"].hi
    ok3 = top ** 2 < eps
    checks.append(
        (
            "max_point_square_below_largest_gap",
            ok3,
            f"max(conv K)^2 = {text(top ** 2)} vs eps = {text(eps)}",
        )
    )
    return checks


def verify_counterexample(
    params: CounterexampleParams,
    thickness_tol: RationalLike = Fraction(1, 10 ** 6),
) -> AvoidanceReport:
    """Full avoidance report for a (preferably calibrated) parameter set."""
    tol = to_rational(thickness_tol)
    if tol < 0:
        raise DomainError("tol must be nonnegative")
    parts = counterexample_parts(params)
    stage = counterexample_set(params)
    value = thickness(stage).value
    checks = avoidance_checks(parts, params.eps)
    ok_t = abs(value - params.tau) <= tol
    checks.append(
        (
            "thickness_matches_target",
            ok_t,
            f"exact thickness {rational_str(value)} vs target {rational_str(params.tau)}"
            f" (tol {rational_str(tol)})",
        )
    )
    return AvoidanceReport(
        checks=tuple(checks),
        thickness=value,
        tau=params.tau,
        eps=params.eps,
        c=params.c,
    )
