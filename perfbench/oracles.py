"""Independent oracles for the benchmark's correctness checks.

Nothing here imports thickset.  Intervals are plain ``(lo, hi)`` pairs of
``Fraction``s and every answer is re-derived from the definitions by direct
scan or recursion, so a fault in the library's own algorithms cannot hide
behind a check that reuses them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Pair = tuple[Fraction, Fraction]


def host_interval(intervals: Sequence[Pair], lo: Fraction, hi: Fraction) -> Optional[Pair]:
    """Linear-scan membership: the interval of the list containing [lo, hi]."""
    for a, b in intervals:
        if a <= lo and hi <= b:
            return (a, b)
    return None


def horner(coeffs: Sequence[Fraction], t: Fraction) -> Fraction:
    """f(t) = c1*t + c2*t**2 + ... for coefficients (c1, c2, ...), exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = (acc + c) * t
    return acc


def digit_path(left: Fraction, right: Fraction, lo: Fraction, hi: Fraction,
               depth: int) -> Optional[list[Pair]]:
    """The chain of stage intervals containing [lo, hi], depths 0..depth.

    The family starts from [0, 1] and splits every interval [a, b] into its
    leftmost ``left`` share and its rightmost ``right`` share.  The
    middle-alpha set is left = right = (1 - alpha) / 2; a two-ratio set has
    unequal shares.  Returns None when [lo, hi] leaves the family.
    """
    a, b = Fraction(0), Fraction(1)
    if not (a <= lo and hi <= b):
        return None
    chain = [(a, b)]
    for _ in range(depth):
        width = b - a
        if hi <= a + left * width:
            b = a + left * width
        elif lo >= b - right * width:
            a = b - right * width
        else:
            return None
        chain.append((a, b))
    return chain


def bridge(intervals: Sequence[Pair], gap_index: int, side: str) -> Pair:
    """Bridge at one endpoint of the bounded gap after interval ``gap_index``.

    From the definition: the longest closed interval that starts at the gap
    endpoint, extends away from the gap, ends at an interval endpoint and
    contains no gap longer than this one.
    """
    glen = intervals[gap_index + 1][0] - intervals[gap_index][1]
    if side == "right":
        j = gap_index + 1
        while j + 1 < len(intervals) and intervals[j + 1][0] - intervals[j][1] <= glen:
            j += 1
        return (intervals[gap_index + 1][0], intervals[j][1])
    j = gap_index
    while j > 0 and intervals[j][0] - intervals[j - 1][1] <= glen:
        j -= 1
    return (intervals[j][0], intervals[gap_index][1])


def local_thickness(intervals: Sequence[Pair], gap_index: int, side: str) -> Fraction:
    lo, hi = bridge(intervals, gap_index, side)
    return (hi - lo) / (intervals[gap_index + 1][0] - intervals[gap_index][1])


def thickness(intervals: Sequence[Pair]) -> Fraction:
    """Newhouse thickness by scanning every bridge: quadratic, small stages only."""
    return min(
        local_thickness(intervals, i, side)
        for i in range(len(intervals) - 1)
        for side in ("left", "right")
    )


def is_nested_chain(chain: Sequence[Pair]) -> bool:
    """Every link is a proper interval inside the one before it."""
    if any(lo > hi for lo, hi in chain):
        return False
    return all(
        outer[0] <= inner[0] and inner[1] <= outer[1]
        for outer, inner in zip(chain, chain[1:])
    )


def avoidance(parts: dict) -> dict[str, bool]:
    """The counterexample's avoidance inequalities from its named pieces.

    Reflections of I1 and I2 through 0, squared, must fall strictly inside
    G4 and G3, and the largest point squared must stay below eps.
    """
    i1, i2, i5 = parts["I1"], parts["I2"], parts["I5"]
    g3, g4 = parts["G3"], parts["G4"]
    return {
        "squares_of_I1_reflection_inside_G4":
            g4[0] < i1[1] ** 2 and i1[0] ** 2 < g4[1],
        "squares_of_I2_reflection_inside_G3":
            g3[0] < i2[1] ** 2 and i2[0] ** 2 < g3[1],
        "max_point_square_below_largest_gap": i5[1] ** 2 < parts["eps"],
    }


def all_inside(intervals: Sequence[Pair], pieces: Sequence[Pair]) -> bool:
    """Whether every piece lies inside some interval of the list.

    Both lists run left to right, so one forward linear scan serves them
    all.
    """
    j = 0
    for lo, hi in pieces:
        while j < len(intervals) and intervals[j][1] < lo:
            j += 1
        if j == len(intervals) or not (intervals[j][0] <= lo and hi <= intervals[j][1]):
            return False
    return True
