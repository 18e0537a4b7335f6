"""Gap-lemma machinery: hypothesis verdicts, exact intersections, chains."""

import functools
import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickset import (
    AffineFamily,
    CantorStage,
    ClosedInterval,
    HypothesisError,
    InternalContradictionError,
    RandomThickSpec,
    affine_image,
    check_hypotheses,
    intersect,
    make_stage,
    middle_alpha,
    middle_alpha_family,
    persistent_intersect,
    random_thick_family,
)
from thickset import gaplemma
from thickset.core import rational_str
from thickset.gaplemma import GapLemmaInapplicable, GapLemmaViolation, containing_gap
from conftest import brute_containing_gap, in_stage, probe_points


def test_hypotheses_apply_for_equal_thick_sets():
    k = middle_alpha(F(1, 3), 3)
    verdict = check_hypotheses(k, k)
    assert verdict.applies
    assert verdict.product_ok
    assert verdict.tau1 == verdict.tau2 == 1
    assert verdict.k1_in_gap_of_k2 is None and verdict.k2_in_gap_of_k1 is None


def test_hypotheses_fail_for_disjoint_hulls():
    k1 = middle_alpha(F(1, 3), 2)
    k2 = affine_image(k1, 1, 10)
    verdict = check_hypotheses(k1, k2)
    assert not verdict.applies
    assert verdict.product_ok
    assert verdict.k2_in_gap_of_k1 is not None
    assert verdict.k2_in_gap_of_k1.kind == "right_unbounded"
    assert verdict.reasons


def test_hypotheses_fail_for_thin_sets():
    # alpha = 1/2 gives thickness exactly 1/2; the product is 1/4 < 1.
    k = middle_alpha(F(1, 2), 3)
    verdict = check_hypotheses(k, k)
    assert not verdict.product_ok
    assert not verdict.applies
    assert any("product" in r for r in verdict.reasons)


def test_hypotheses_report_undefined_thickness():
    verdict = check_hypotheses(make_stage([(0, 1)]), middle_alpha(F(1, 3), 2))
    assert not verdict.applies
    assert any("undefined" in r for r in verdict.reasons)


def test_intersect_two_intervals():
    w = intersect(make_stage([(0, 1)]), make_stage([(F(1, 2), 2)]))
    assert [(iv.lo, iv.hi) for iv in w.common.intervals] == [(F(1, 2), F(1))]
    assert w.common.intervals[0].contains_point(w.sample_point)


def test_intersect_symmetric_set_with_its_reflection():
    k = middle_alpha(F(1, 3), 2)
    mirrored = affine_image(k, -1, 1)  # reflection about 1/2 maps the set to itself
    w = intersect(k, mirrored)
    assert w.common.intervals == k.intervals


def test_intersect_touching_intervals_keep_degenerate_point():
    w = intersect(make_stage([(0, 1)]), make_stage([(1, 2)]))
    assert [(iv.lo, iv.hi) for iv in w.common.intervals] == [(F(1), F(1))]


def test_intersect_empty():
    assert intersect(make_stage([(0, 1)]), make_stage([(2, 3)])) is None


def test_intersect_commutative_and_idempotent():
    import random

    rng = random.Random(3)
    for seed in range(12):
        f1 = random_thick_family(RandomThickSpec(target_tau=F(3, 2), depth=0, seed=seed))
        shift = F(rng.randint(1, 40), 256)
        f2 = AffineFamily(
            random_thick_family(RandomThickSpec(target_tau=F(2), depth=0, seed=seed + 100)),
            F(1),
            shift,
        )
        a, b = f1.stage(4), f2.stage(4)
        w_ab, w_ba = intersect(a, b), intersect(b, a)
        if w_ab is None:
            assert w_ba is None
            continue
        assert w_ab.common.intervals == w_ba.common.intervals
        again = intersect(w_ab.common, w_ab.common)
        assert again.common.intervals == w_ab.common.intervals


def test_3ap_style_reflected_intersection_on_middle_thirds():
    # Translate so the largest gap is (-1/3, 0): the reflected left piece
    # meets the right piece exactly at t = 1/3, giving {1/3, 2/3, 1}.
    k = affine_image(middle_alpha(F(1, 3), 3), 1, F(-2, 3))
    from thickset import restrict, ClosedInterval

    left = restrict(k, ClosedInterval(F(-2, 3), F(-1, 3)))
    right = restrict(k, ClosedInterval(F(0), F(1, 3)))
    w = intersect(affine_image(left, -1, 0), right)
    assert w is not None
    assert any(iv.contains_point(F(1, 3)) for iv in w.common.intervals)
    for t in (F(1, 3),):
        base = middle_alpha(F(1, 3), 3)
        for x in (F(2, 3) - t, F(2, 3), F(2, 3) + t):
            assert base.interval_containing(ClosedInterval(x, x)) is not None


def test_persistent_intersect_equal_families():
    fam = middle_alpha_family(F(1, 3))
    stages = fam.stages(1, 10)
    w = persistent_intersect(stages, stages)
    assert len(w.chain) == 10
    for deeper, coarser in zip(w.chain[1:], w.chain):
        assert coarser.contains_interval(deeper)
    point = ClosedInterval(w.sample_point, w.sample_point)
    assert w.common.interval_containing(point) is not None


def test_persistent_intersect_reflection_pair():
    fam = middle_alpha_family(F(1, 5))
    mirrored = AffineFamily(fam, F(-1), F(1))
    w = persistent_intersect(fam.stages(1, 10), mirrored.stages(1, 10))
    assert len(w.chain) == 10
    for deeper, coarser in zip(w.chain[1:], w.chain):
        assert coarser.contains_interval(deeper)


def test_persistent_intersect_flags_hypothesis_violation():
    thin = middle_alpha_family(F(1, 2))  # thickness 1/2
    shifted = AffineFamily(thin, F(1), F(3, 8))
    with pytest.raises(HypothesisError, match="product"):
        persistent_intersect(thin.stages(1, 4), shifted.stages(1, 4))


def test_persistent_intersect_reports_empty_depth():
    # Same thin pair, hypothesis checking switched off: the depth-1 stage
    # intersection is already empty, and that is reported as the violating
    # depth with a verdict naming the failed product.
    thin = middle_alpha_family(F(1, 2))
    shifted = AffineFamily(thin, F(1), F(3, 8))
    with pytest.raises(GapLemmaInapplicable) as err:
        persistent_intersect(thin.stages(1, 4), shifted.stages(1, 4), check=False)
    assert err.value.depth == 1
    assert not err.value.verdict.product_ok
    assert err.value.report()["depth"] == 1
    assert str(err.value) == ("empty stage intersection at depth 1, where the gap-lemma "
                              "hypotheses fail: thickness product 1/2 * 1/2 = 1/4 < 1")


def test_an_empty_depth_is_a_bug_only_where_the_hypotheses_hold(monkeypatch):
    """With check off, an empty depth whose verdict fails is the input's
    fault, a HypothesisError; one whose verdict applies contradicts the
    lemma.  An intersect that finds nothing stands in for the second case,
    which no input reaches."""
    thin = middle_alpha_family(F(1, 2))
    with pytest.raises(HypothesisError) as err:
        persistent_intersect(thin.stages(1, 4), AffineFamily(thin, F(1), F(3, 8)).stages(1, 4),
                             check=False)
    assert not isinstance(err.value, InternalContradictionError)
    stages = middle_alpha_family(F(1, 3)).stages(1, 3)
    monkeypatch.setattr(gaplemma, "intersect", lambda k1, k2: None)
    with pytest.raises(GapLemmaViolation) as err:
        persistent_intersect(stages, stages, check=False)
    assert not isinstance(err.value, HypothesisError)
    assert err.value.depth == 1 and err.value.verdict.applies
    verdict = check_hypotheses(stages[0], stages[0])
    assert err.value.report() == {"depth": 1, "verdict": verdict.to_json()}


def test_gap_lemma_violation_says_the_hypotheses_hold_only_when_they_do():
    stage = middle_alpha_family(F(1, 3)).stage(2)
    verdict = check_hypotheses(stage, stage)
    assert verdict.applies
    assert str(GapLemmaViolation(2, verdict)) == (
        "empty stage intersection at depth 2 although the gap-lemma hypotheses hold "
        "there; this contradicts the gap lemma")


def test_persistent_intersect_validates_refinement_chains():
    fam = middle_alpha_family(F(1, 3))
    stages = fam.stages(1, 4)
    broken = [stages[0], stages[2], stages[1], stages[3]]
    with pytest.raises(Exception, match="refinement"):
        persistent_intersect(broken, broken)


def test_randomized_gap_lemma_evidence_small():
    # Scaled-down version of the acceptance run: overlapping random thick
    # pairs with product >= 1 always intersect persistently.
    taus = [F(1), F(3, 2), F(2), F(3)]
    for seed in range(30):
        t1, t2 = taus[seed % 4], taus[(seed // 4) % 4]
        f1 = random_thick_family(RandomThickSpec(target_tau=t1, depth=0, seed=seed))
        f2 = AffineFamily(
            random_thick_family(RandomThickSpec(target_tau=t2, depth=0, seed=1000 + seed)),
            F(1),
            F(1 + seed % 37, 256),
        )
        w = persistent_intersect(f1.stages(1, 6), f2.stages(1, 6))
        assert len(w.chain) == 6


@st.composite
def _lattice_stages(draw, den):
    """A stage with endpoints k/den, possibly with zero-length intervals."""
    n = draw(st.integers(1, 7))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    spaces = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    x, ivs = draw(st.integers(-6, 6)), []
    for w, gap in zip(widths, spaces):
        ivs.append(ClosedInterval(F(x, den), F(x + w, den)))
        x += w + gap
    return CantorStage(tuple(ivs), allow_degenerate=True)


_dens = st.sampled_from([1, 2, 3, 4, 6])


@settings(max_examples=400, deadline=None)
@given(_dens.flatmap(_lattice_stages), _dens.flatmap(_lattice_stages))
def test_intersect_against_pointwise_oracle(k1, k2):
    # Mixed denominators put shared endpoints and touching intervals on
    # both sides, so the merge must keep degenerate points.
    w = intersect(k1, k2)
    for x in probe_points(k1, k2):
        expected = in_stage(k1, x) and in_stage(k2, x)
        assert (w is not None and in_stage(w.common, x)) == expected
    if w is not None:
        assert w.common.allow_degenerate
        widest = max(iv.hi - iv.lo for iv in w.common.intervals)
        first = next(iv for iv in w.common.intervals if iv.hi - iv.lo == widest)
        assert w.sample_point == (first.lo + first.hi) / 2


@st.composite
def _hulls(draw, host):
    """A one-interval stage left of, right of, inside or touching the host:
    endpoints are host endpoints, points between them, or points beyond."""
    points = probe_points(host)
    points += [x + F(1, 97) for x in points] + [x - F(1, 97) for x in points]
    a, b = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
    return CantorStage((ClosedInterval(a, b),), allow_degenerate=True)


@settings(max_examples=400, deadline=None)
@given(_dens.flatmap(_lattice_stages).flatmap(lambda h: st.tuples(st.just(h), _hulls(h))))
def test_containing_gap_against_linear_scan(pair):
    host, other = pair
    assert containing_gap(host, other) == brute_containing_gap(host, other)


# ---------------------------------------------------------------------------
# Pins: the certificate's bytes on 64 gap-lemma pairs
# ---------------------------------------------------------------------------

_PIN_TAUS = (F(1), F(3, 2), F(2), F(3))


@functools.lru_cache(maxsize=1)
def _pinned_pairs() -> tuple:
    """64 pairs as the gap-lemma benchmark builds them, depths 1..8: a
    random-thick family of each (tau1, tau2) in _PIN_TAUS against a second
    one shifted right by k/1024."""
    rng = random.Random("gap-lemma-pins")
    pairs = []
    for index in range(64):
        tau1, tau2 = _PIN_TAUS[index % 4], _PIN_TAUS[(index // 4) % 4]
        f1 = random_thick_family(RandomThickSpec(tau1, 0, rng.randrange(2 ** 32)))
        f2 = AffineFamily(random_thick_family(RandomThickSpec(tau2, 0, rng.randrange(2 ** 32))),
                          F(1), F(1 + rng.randrange(200), 1024))
        pairs.append((f1.stages(1, 8), f2.stages(1, 8)))
    return tuple(pairs)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_persistent_intersect_witnesses_are_pinned():
    witnesses = [persistent_intersect(k1, k2, check=True).to_json()
                 for k1, k2 in _pinned_pairs()]
    assert _sha256(witnesses) == (
        "6ecb3e82c547486e29604c53a3fd8e2f3820aa1b03eae298409184084fe0b8ce")


def test_per_depth_verdicts_and_sample_points_are_pinned():
    """Each pair's verdict and sample point at every depth, and the verdict
    of its first stage against middle halves (thickness 1/2), which fails
    the product for tau1 < 2."""
    thin = middle_alpha_family(F(1, 2)).stages(1, 8)
    rows = []
    for k1, k2 in _pinned_pairs():
        for s1, s2, s3 in zip(k1, k2, thin):
            w = intersect(s1, s2)
            rows.append([check_hypotheses(s1, s2).to_json(),
                         None if w is None else rational_str(w.sample_point),
                         check_hypotheses(s1, s3).to_json()])
    assert _sha256(rows) == (
        "e64ef9141af05569d969d5331ee8874d5990523a1b76347c93f24d3d0828d168")
