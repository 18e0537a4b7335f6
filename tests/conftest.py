"""Shared test helpers: independent brute-force oracles.

The oracles here deliberately re-derive definitions from scratch (maximality
checks by exhaustive candidate scan, digit recursions) rather than reusing
the package's incremental algorithms, so they can referee them.
"""

import hashlib
from fractions import Fraction

from thickset import (
    CantorStage,
    ClosedInterval,
    DomainError,
    RandomThickSpec,
    RefinableFamily,
    gaps,
    random_thick,
)
from thickset.core import to_rational


def brute_local_thickness(stage: CantorStage, gap_index: int, side: str) -> Fraction:
    """Bridge ratio at one gap endpoint via exhaustive maximality check:
    among all candidate far endpoints, keep those whose span contains no gap
    longer than the reference gap, and take the farthest."""
    ivs = stage.intervals
    gap_lo, gap_hi = ivs[gap_index].hi, ivs[gap_index + 1].lo
    glen = gap_hi - gap_lo

    def admissible(lo: Fraction, hi: Fraction) -> bool:
        for j in range(len(ivs) - 1):
            g_lo, g_hi = ivs[j].hi, ivs[j + 1].lo
            if lo <= g_lo and g_hi <= hi and g_hi - g_lo > glen:
                return False
        return True

    # ">=" and "<=": next to a zero-length interval the bridge can be a point.
    if side == "right":
        candidates = [iv.hi for iv in ivs if iv.hi >= gap_hi and admissible(gap_hi, iv.hi)]
        return (max(candidates) - gap_hi) / glen
    candidates = [iv.lo for iv in ivs if iv.lo <= gap_lo and admissible(iv.lo, gap_lo)]
    return (gap_lo - min(candidates)) / glen


def brute_thickness(stage: CantorStage) -> Fraction:
    """Minimum bridge ratio over every bounded-gap endpoint, via the
    exhaustive oracle."""
    best = None
    for i in range(stage.count - 1):
        for side in ("left", "right"):
            r = brute_local_thickness(stage, i, side)
            if best is None or r < best:
                best = r
    assert best is not None
    return best


def in_middle_thirds(x: Fraction, depth: int) -> bool:
    """Ternary-digit membership test for the middle-thirds stage: x survives
    ``depth`` rounds of keeping only the outer thirds."""
    if x < 0 or x > 1:
        return False
    for _ in range(depth):
        if x <= Fraction(1, 3):
            x = 3 * x
        elif x >= Fraction(2, 3):
            x = 3 * x - 2
        else:
            return False
    return True


def random_stage(seed: int, tau: Fraction = Fraction(3, 2), depth: int = 4) -> CantorStage:
    return random_thick(RandomThickSpec(target_tau=tau, depth=depth, seed=seed))


def stage_problem(intervals, allow_degenerate: bool):
    """The DomainError text a stage of these intervals must raise, or None:
    the constructor's checks re-derived with Fraction comparisons."""
    if not intervals:
        return "a stage must contain at least one interval"
    for a, b in zip(intervals, intervals[1:]):
        if not a.hi < b.lo:
            return f"stage intervals must be disjoint and increasing: {a} then {b}"
    if not allow_degenerate:
        for iv in intervals:
            if iv.hi - iv.lo == 0:
                return f"zero-length interval {iv} in a non-degenerate stage"
    return None


def fraction_stage_from_json(data) -> CantorStage:
    """The per-token stage parser: a validated ``ClosedInterval`` of two
    ``to_rational`` Fractions per pair, then the public constructor."""
    try:
        depth = data["depth"]
        pairs = data["intervals"]
        if type(depth) is not int:
            raise DomainError(f"stage depth must be an integer, got {depth!r}")
        ivs = tuple(ClosedInterval(to_rational(lo), to_rational(hi)) for lo, hi in pairs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed stage object: {exc}") from exc
    degenerate = any(iv.lo == iv.hi for iv in ivs)
    return CantorStage(ivs, depth=depth, allow_degenerate=degenerate)


def nesting_problem(child: CantorStage, parent: CantorStage):
    """The DomainError text of ``child.check_nested_in(parent)``, or None:
    every child interval is looked up in every parent interval."""
    for iv in child.intervals:
        if not any(p.lo <= iv.lo and iv.hi <= p.hi for p in parent.intervals):
            return f"interval {iv} is not contained in any parent interval"
    return None


def in_stage(stage: CantorStage, x: Fraction) -> bool:
    """Linear-scan membership."""
    return any(iv.lo <= x <= iv.hi for iv in stage.intervals)


def probe_points(*stages: CantorStage) -> list[Fraction]:
    """Every endpoint of the stages, the midpoint between each two
    consecutive ones, and a point beyond each end: membership at these
    points determines a union of closed intervals with those endpoints."""
    ends = sorted({x for s in stages for iv in s.intervals for x in (iv.lo, iv.hi)})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return ends + mids + [ends[0] - 1, ends[-1] + 1]


def brute_containing_gap(host: CantorStage, other: CantorStage):
    """Linear scan over every gap of ``host`` for one containing ``other``
    (an unbounded side is infinite)."""
    for gap in gaps(host):
        if (gap.lo is None or gap.lo < other.min) and (gap.hi is None or other.max < gap.hi):
            return gap
    return None


def _seeded_share(tag: str) -> Fraction:
    digest = hashlib.sha256(tag.encode()).digest()
    return Fraction(int.from_bytes(digest[:2], "big"), 2 ** 16)


def naive_random_thick_children(lo, hi, depth, spec: RandomThickSpec):
    """The random-thick cut of [lo, hi] in step-by-step Fraction arithmetic."""
    tau = spec.target_tau
    tag = f"{spec.seed}:{depth}:{lo}:{hi}"
    width = hi - lo
    gap = (Fraction(1, 2) + _seeded_share(tag + ":len") / 2) * (1 / (2 * tau + 1)) * width
    slack = width - (2 * tau + 1) * gap
    placement = spec.gap_placement
    if placement is None:
        placement = _seeded_share(tag + ":pos")
    left = tau * gap + placement * slack
    return [(lo, lo + left), (lo + left + gap, hi)]


def naive_middle_alpha_children(lo, hi, alpha):
    """The middle-alpha cut of [lo, hi] in step-by-step Fraction arithmetic."""
    keep = (1 - alpha) / 2 * (hi - lo)
    return [(lo, lo + keep), (hi - keep, hi)]


def scan_levels(spans):
    """Brace rows by the greedy scan: narrowest first, each brace on the
    lowest row where it overlaps no brace already placed, every placed brace
    compared."""
    occupied = []
    out = [0] * len(spans)
    for i in sorted(range(len(spans)), key=lambda i: spans[i][1] - spans[i][0]):
        a, b = spans[i]
        level = 0
        while level < len(occupied) and any(not (b < c or d < a) for c, d in occupied[level]):
            level += 1
        if level == len(occupied):
            occupied.append([])
        occupied[level].append((a, b))
        out[i] = level
    return out


def thin_below_family(depth: int) -> RefinableFamily:
    """A user refiner that removes the middle fifth of every interval down
    to ``depth`` and the middle three fifths below it: thickness 2 at depths
    1..depth, 1/3 deeper, and no certified bound."""

    def refine(iv: ClosedInterval, at: int):
        keep = (Fraction(2, 5) if at < depth else Fraction(1, 5)) * iv.length
        return [ClosedInterval(iv.lo, iv.lo + keep), ClosedInterval(iv.hi - keep, iv.hi)]

    root = CantorStage((ClosedInterval(Fraction(0), Fraction(1)),))
    return RefinableFamily(root, refine, name="thin-below")
