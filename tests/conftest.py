"""Shared test helpers: independent brute-force oracles.

The oracles here deliberately re-derive definitions from scratch (maximality
checks by exhaustive candidate scan, digit recursions) rather than reusing
the package's incremental algorithms, so they can referee them.
"""

from fractions import Fraction

from thickset import CantorStage, RandomThickSpec, random_thick


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
