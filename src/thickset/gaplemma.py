"""The Newhouse gap lemma as executable machinery.

The lemma: two Cantor sets whose thicknesses multiply to at least 1, neither
contained in a single gap of the other, must intersect.  At finite depth the
honest statement is about stages: hypothesis checking is exact, stage
intersection is an exact merge scan, and the limit claim is certified by a
chain of nested nonempty common intervals across a refinement sequence
(compactness then guarantees a limit point in the intersection of the limit
sets' stages).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    BOUNDED,
    LEFT_UNBOUNDED,
    RIGHT_UNBOUNDED,
    CantorStage,
    ClosedInterval,
    Gap,
    rational_str,
    thickness,
)
from .errors import DomainError, HypothesisError, InternalContradictionError


@dataclass(frozen=True)
class GapLemmaVerdict:
    """Outcome of the hypothesis check for a pair of stages.

    ``applies`` is True exactly when the thickness product is at least 1 and
    neither stage sits inside a single gap (bounded or unbounded) of the
    other.  ``reasons`` carries human-readable failure explanations.
    """

    product_ok: bool
    k1_in_gap_of_k2: Optional[Gap]
    k2_in_gap_of_k1: Optional[Gap]
    applies: bool
    tau1: Optional[Fraction] = None
    tau2: Optional[Fraction] = None
    reasons: tuple[str, ...] = ()

    def to_json(self) -> dict:
        def gap_json(g: Optional[Gap]):
            if g is None:
                return None
            return {
                "lo": None if g.lo is None else rational_str(g.lo),
                "hi": None if g.hi is None else rational_str(g.hi),
                "kind": g.kind,
            }

        return {
            "product_ok": self.product_ok,
            "tau1": None if self.tau1 is None else rational_str(self.tau1),
            "tau2": None if self.tau2 is None else rational_str(self.tau2),
            "k1_in_gap_of_k2": gap_json(self.k1_in_gap_of_k2),
            "k2_in_gap_of_k1": gap_json(self.k2_in_gap_of_k1),
            "applies": self.applies,
            "reasons": list(self.reasons),
        }


def containing_gap(host: CantorStage, other: CantorStage) -> Optional[Gap]:
    """The single gap of ``host`` containing all of ``other``, if any.

    Unbounded gaps count: a set entirely left of the host lies in the host's
    left-unbounded gap.  Only the gap just left of the first host interval
    reaching ``other.min`` can contain ``other``; one cross-multiplied
    bisection on the host's grid finds it, and only the returned gap's
    endpoints become Fractions.
    """
    den, lo, hi = host._grid
    oden, olo, ohi = other._grid
    a, b = olo[0] * den, ohi[-1] * den  # other's hull, scaled by den * oden
    k = bisect_left(hi, a, key=lambda x: x * oden)
    # hi[k - 1] < other.min, so other fits unless it reaches lo[k].
    if k < len(lo) and lo[k] * oden <= b:
        return None
    if k == 0:
        return Gap(None, Fraction(lo[0], den), LEFT_UNBOUNDED)
    if k == len(lo):
        return Gap(Fraction(hi[-1], den), None, RIGHT_UNBOUNDED)
    return Gap(Fraction(hi[k - 1], den), Fraction(lo[k], den), BOUNDED)


def check_hypotheses(k1: CantorStage, k2: CantorStage) -> GapLemmaVerdict:
    """Exact gap-lemma hypothesis check for a pair of stages."""
    reasons: list[str] = []
    tau1 = tau2 = None
    product_ok = False
    try:
        tau1 = thickness(k1).value
        tau2 = thickness(k2).value
        product_ok = tau1 * tau2 >= 1
        if not product_ok:
            reasons.append(
                f"thickness product {tau1} * {tau2} = {tau1 * tau2} < 1"
            )
    except DomainError:
        reasons.append(
            "thickness undefined: at least one stage has no bounded gap"
        )
    g12 = containing_gap(k2, k1)
    g21 = containing_gap(k1, k2)
    if g12 is not None:
        reasons.append(f"first set is contained in the single gap {g12} of the second")
    if g21 is not None:
        reasons.append(f"second set is contained in the single gap {g21} of the first")
    applies = product_ok and g12 is None and g21 is None
    return GapLemmaVerdict(
        product_ok=product_ok,
        k1_in_gap_of_k2=g12,
        k2_in_gap_of_k1=g21,
        applies=applies,
        tau1=tau1,
        tau2=tau2,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class IntersectionWitness:
    """Exact intersection of two stages, as an interval union.

    ``chain`` is filled by ``persistent_intersect``: one nested common
    interval per depth, with the sample point taken inside the deepest one.
    """

    common: CantorStage
    sample_point: Fraction
    chain: tuple[ClosedInterval, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "common": [iv.to_json() for iv in self.common.intervals],
            "sample_point": rational_str(self.sample_point),
            "chain": [iv.to_json() for iv in self.chain],
        }


def _widest(stage: CantorStage) -> ClosedInterval:
    """The first of the stage's widest intervals, compared on its grid."""
    _, lo, hi = stage._grid
    best = 0
    for k in range(1, len(lo)):
        if hi[k] - lo[k] > hi[best] - lo[best]:
            best = k
    return stage._interval(best)


def intersect(k1: CantorStage, k2: CantorStage) -> Optional[IntersectionWitness]:
    """Exact stage intersection by merge scan; None when empty.

    Touching closed intervals meet in a point, which is kept as a degenerate
    interval: stages overapproximate their limit sets, so a nonempty stage
    intersection is necessary evidence, not sufficient (see
    ``persistent_intersect`` for the refinement-chain version).  The merge
    compares the two grids over one denominator, and the common stage is
    built on the merge's own grid ints.
    """
    den = math.lcm(k1._grid[0], k2._grid[0])
    alo, ahi = k1._grid_over(den)
    blo, bhi = k2._grid_over(den)
    starts: list[int] = []
    ends: list[int] = []
    i = j = 0
    while i < len(alo) and j < len(blo):
        start = max(alo[i], blo[j])
        if ahi[i] < bhi[j]:
            end = ahi[i]
            i += 1
        else:
            end = bhi[j]
            j += 1
        if start <= end:
            starts.append(start)
            ends.append(end)
    if not starts:
        return None
    common = CantorStage._from_grid((den, starts, ends), max(k1.depth, k2.depth), None, True)
    return IntersectionWitness(common=common, sample_point=_widest(common).midpoint)


class GapLemmaViolation(InternalContradictionError):
    """Raised when stages satisfying the gap-lemma hypotheses at every depth
    nevertheless have an empty intersection at some depth.  Under the lemma
    this cannot happen; it signals a bug (or an undetected hypothesis
    violation) and carries a machine-readable report."""

    def __init__(self, depth: int, verdict: GapLemmaVerdict):
        super().__init__(
            f"empty stage intersection at depth {depth} although the gap-lemma "
            f"hypotheses hold there; this contradicts the gap lemma"
        )
        self.depth = depth
        self.verdict = verdict

    def report(self) -> dict:
        return {"depth": self.depth, "verdict": self.verdict.to_json()}


def _require_refinement_chain(stages: Sequence[CantorStage], label: str) -> None:
    for d in range(1, len(stages)):
        try:
            stages[d].check_nested_in(stages[d - 1])
        except DomainError as exc:
            raise DomainError(
                f"{label} is not a refinement chain at index {d}: {exc}"
            ) from exc


def persistent_intersect(
    k1_stages: Sequence[CantorStage],
    k2_stages: Sequence[CantorStage],
    check: bool = True,
) -> IntersectionWitness:
    """Nested-chain certificate that two refinement sequences intersect.

    For each depth the two stages are intersected exactly; the chain picks
    one common interval per depth, each nested in the previous one (possible
    whenever all intersections are nonempty, because the per-depth common
    sets are themselves nested).  The sample point comes from the deepest
    link.

    With ``check`` on, the gap-lemma hypotheses are verified at every depth:
    a hypothesis failure raises ``HypothesisError``, while an empty
    intersection under valid hypotheses raises ``GapLemmaViolation`` -- the
    latter must never happen and is treated as an internal contradiction.
    """
    if len(k1_stages) != len(k2_stages) or not k1_stages:
        raise DomainError("persistent_intersect needs two equal-length nonempty sequences")
    _require_refinement_chain(k1_stages, "first family")
    _require_refinement_chain(k2_stages, "second family")

    witnesses: list[IntersectionWitness] = []
    for s1, s2 in zip(k1_stages, k2_stages):
        verdict = check_hypotheses(s1, s2) if check else None
        if check and verdict is not None and not verdict.applies:
            raise HypothesisError(
                f"gap-lemma hypotheses fail at depth {s1.depth}: "
                + "; ".join(verdict.reasons)
            )
        w = intersect(s1, s2)
        if w is None:
            if verdict is None:
                verdict = check_hypotheses(s1, s2)
            raise GapLemmaViolation(max(s1.depth, s2.depth), verdict)
        witnesses.append(w)

    # Choose the deepest link first (widest interval for robustness), then
    # walk back up: each common set contains the next one, so the containing
    # interval at every shallower depth exists and is unique.
    chain: list[ClosedInterval] = [None] * len(witnesses)  # type: ignore[list-item]
    chain[-1] = _widest(witnesses[-1].common)
    for d in range(len(witnesses) - 2, -1, -1):
        host = witnesses[d].common.interval_containing(chain[d + 1])
        if host is None:
            raise InternalContradictionError(
                f"common interval at depth {d + 1} is not nested in the depth-{d} "
                f"intersection; refinement chains were validated, so this is a bug"
            )
        chain[d] = host

    deepest = witnesses[-1]
    return IntersectionWitness(
        common=deepest.common,
        sample_point=chain[-1].midpoint,
        chain=tuple(chain),
    )
