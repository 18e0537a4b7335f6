"""Stages built straight from integer grids, refereed by the public
constructor and the Fraction oracles in conftest."""

import copy
import json
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickset import (
    AffineFamily,
    CantorStage,
    ClosedInterval,
    DomainError,
    RandomThickSpec,
    RestrictedFamily,
    affine_image,
    bounded_gaps,
    bridge_at,
    check_hypotheses,
    dumps_stage,
    intersect,
    loads_stage,
    middle_alpha_family,
    persistent_intersect,
    random_thick_family,
    restrict,
    thickness,
)
from thickset.core import _polynomial_image, stage_from_json
from thickset.functions import Polynomial, sign_on_interval
from thickset.render import render_stage_svg
from thickset.search import largest_gap_frame, subset_extract
from conftest import (
    brute_thickness,
    fraction_stage_from_json,
    naive_middle_alpha_children,
    naive_random_thick_children,
    nesting_problem,
    probe_points,
    random_stage,
    stage_problem,
)


def assert_rebuilds(stage: CantorStage) -> None:
    """The stage equals the public constructor's rebuild of its intervals,
    its grid has the same ratios, and the Fraction oracles find nothing
    wrong with it."""
    rebuilt = CantorStage(stage.intervals, depth=stage.depth,
                          allow_degenerate=stage.allow_degenerate)
    assert rebuilt == stage
    assert rebuilt.intervals == stage.intervals
    den, lo, hi = stage._grid
    rden, rlo, rhi = rebuilt._grid
    assert den % rden == 0
    assert [F(x, den) for x in lo] == [F(x, rden) for x in rlo] == [iv.lo for iv in stage.intervals]
    assert [F(x, den) for x in hi] == [F(x, rden) for x in rhi] == [iv.hi for iv in stage.intervals]
    assert stage_problem(stage.intervals, stage.allow_degenerate) is None
    if stage.parent is not None:
        assert nesting_problem(stage, stage.parent) is None


_taus = st.sampled_from([F(1), F(3, 2), F(2), F(3), F(7, 5)])
_placements = st.one_of(st.none(), st.builds(F, st.integers(0, 7), st.just(7)))
_bases = st.tuples(
    st.builds(F, st.integers(-50, 50), st.integers(1, 60)),
    st.builds(F, st.integers(1, 50), st.integers(1, 60)),
).map(lambda p: ClosedInterval(p[0], p[0] + p[1]))
_scales = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
_shifts = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


def _family(kind, tau, seed, placement, base):
    if kind == "random-thick":
        return random_thick_family(RandomThickSpec(tau, 0, seed, placement), base)
    return middle_alpha_family(1 / (2 * tau + 1), base)


_families = st.builds(
    _family, st.sampled_from(["random-thick", "middle-alpha"]), _taus,
    st.integers(0, 2 ** 64 - 1), _placements, _bases,
)


# ---------------------------------------------------------------------------
# every grid operation equals the public path
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_families)
def test_refined_stages_rebuild_through_the_public_path(family):
    for d in range(7):
        stage = family.stage(d)
        assert_rebuilds(stage)
        assert stage.depth == d


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), _taus, st.booleans(), _scales, _shifts)
def test_affine_image_rebuilds_through_the_public_path(seed, tau, degenerate, scale, shift):
    stage = random_stage(seed, tau=tau, depth=4)
    if degenerate:
        stage = restrict(stage, ClosedInterval(stage.min, stage.intervals[2].lo))
    image = affine_image(stage, scale, shift)
    assert_rebuilds(image)
    assert image.allow_degenerate == degenerate


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), _taus, st.integers(0, 1024), st.integers(0, 1024),
       st.sampled_from([F(0), F(1, 7), F(1, 3 ** 9), F(1, 2 ** 40)]))
def test_restrict_rebuilds_through_the_public_path(seed, tau, a, b, offset):
    """Windows on and off the stage's grid, clipping one, both or neither
    end interval."""
    stage = random_stage(seed, tau=tau, depth=5)
    lo, hi = sorted((a, b))
    window = ClosedInterval(F(lo, 1024) + offset, F(hi, 1024) + offset)
    assume(any(iv.intersection(window) for iv in stage.intervals))
    part = restrict(stage, window)
    assert_rebuilds(part)
    expected = [iv.intersection(window) for iv in stage.intervals]
    assert list(part.intervals) == [iv for iv in expected if iv is not None]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200))
def test_restrict_to_interval_endpoints_keeps_the_intervals(seed, pick):
    stage = random_stage(seed, depth=5)
    k = pick % stage.count
    j = min(stage.count - 1, k + pick % 5)
    part = restrict(stage, ClosedInterval(stage.intervals[k].lo, stage.intervals[j].hi))
    assert_rebuilds(part)
    assert part.intervals == stage.intervals[k:j + 1]


@settings(max_examples=100, deadline=None)
@given(_taus, _taus, st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
       st.integers(1, 200), st.integers(1, 6))
def test_intersect_rebuilds_through_the_public_path(tau1, tau2, seed1, seed2, k, depth):
    f1 = random_thick_family(RandomThickSpec(tau1, 0, seed1))
    f2 = AffineFamily(random_thick_family(RandomThickSpec(tau2, 0, seed2)), F(1), F(k, 1024))
    w = intersect(f1.stage(depth), f2.stage(depth))
    assume(w is not None)
    assert_rebuilds(w.common)
    assert w.common.depth == depth
    pieces = [a.intersection(b) for a in f1.stage(depth).intervals
              for b in f2.stage(depth).intervals]
    assert list(w.common.intervals) == sorted((p for p in pieces if p is not None),
                                              key=lambda iv: iv.lo)


# ---------------------------------------------------------------------------
# polynomial images: integer Horner on the grid against Fraction Horner
# ---------------------------------------------------------------------------

def _fraction_horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _oracle_pairs(stage, coeffs):
    """Endpoint images by Fraction Horner, reversed when they decrease."""
    pairs = [(_fraction_horner(coeffs, iv.lo), _fraction_horner(coeffs, iv.hi))
             for iv in stage.intervals]
    if pairs[0][0] > pairs[-1][1]:
        pairs = [(b, a) for a, b in reversed(pairs)]
    return pairs


_small = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7, 12, 1024]))


@st.composite
def _image_sources(draw):
    """A random-thick stage (non-minimal grids from depth 6 on), sometimes
    degenerate, moved by an affine map so its hull can sit anywhere in
    [-4, 4]."""
    stage = random_stage(draw(st.integers(0, 200)), tau=draw(_taus),
                         depth=draw(st.integers(1, 7)))
    if draw(st.booleans()):
        k = draw(st.integers(1, stage.count - 1))
        stage = restrict(stage, ClosedInterval(stage.min, stage.intervals[k].lo))
    return affine_image(stage, draw(_small.filter(lambda c: 0 < abs(c) <= 2)),
                        draw(_small.filter(lambda c: abs(c) <= 2)))


_coeff_lists = st.tuples(
    _small, _small.filter(bool), st.lists(_small, max_size=2)
).map(lambda p: (p[0], p[1], *p[2]))


@settings(max_examples=300, deadline=None)
@given(_image_sources(), _coeff_lists)
def test_polynomial_image_matches_fraction_horner(stage, coeffs):
    """Degrees 1-3, either sign of slope, on the hull of the stage."""
    slope = Polynomial(coeffs).derivative()
    assume(sign_on_interval(slope, stage.hull()) is not None)
    image = _polynomial_image(stage, coeffs)
    expected = CantorStage(tuple(ClosedInterval(a, b) for a, b in _oracle_pairs(stage, coeffs)),
                           depth=stage.depth, allow_degenerate=stage.allow_degenerate)
    assert image == expected
    assert_rebuilds(image)


def test_polynomial_image_on_a_non_minimal_grid():
    stage = random_stage(3, tau=F(3, 2), depth=7)
    assert stage._grid[0] != math.lcm(*(x.denominator for iv in stage.intervals for x in (iv.lo, iv.hi)))
    for coeffs in ((F(1, 3), F(-7, 5)), (F(0), F(2), F(-1, 3)), (F(1), F(1), F(0), F(1, 7))):
        image = _polynomial_image(stage, coeffs)
        pairs = _oracle_pairs(stage, coeffs)
        assert [(iv.lo, iv.hi) for iv in image.intervals] == pairs
        assert_rebuilds(image)


@settings(max_examples=200, deadline=None)
@given(_image_sources(), st.integers(0, 10 ** 6), _small.filter(bool), st.booleans())
def test_polynomial_image_rejects_a_map_that_is_not_monotone(stage, pick, s, cubic):
    """s u^2, or s (u^3 - r^2 u), in u = t - m for a gap (m - r, m + r): the
    gap's two endpoints map to one value, so the image fails the stage
    checks with the public constructor's text."""
    assume(stage.count >= 2)
    k = pick % (stage.count - 1)
    a, b = stage.intervals[k].hi, stage.intervals[k + 1].lo
    m, r2 = (a + b) / 2, ((b - a) / 2) ** 2
    if cubic:
        coeffs = (s * (r2 * m - m ** 3), s * (3 * m * m - r2), -3 * s * m, s)
    else:
        coeffs = (s * m * m, -2 * s * m, s)
    expected = _public_error(_oracle_pairs(stage, coeffs), depth=stage.depth,
                             allow_degenerate=stage.allow_degenerate)
    assert expected is not None
    with pytest.raises(DomainError) as exc:
        _polynomial_image(stage, coeffs)
    assert str(exc.value) == expected


# ---------------------------------------------------------------------------
# _from_grid rejects what the public constructor rejects, with its text
# ---------------------------------------------------------------------------

_coords = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 1024]))


def _public_error(pairs, depth=0, parent=None, allow_degenerate=False):
    try:
        ivs = tuple(ClosedInterval(a, b) for a, b in pairs)
        CantorStage(ivs, depth=depth, parent=parent, allow_degenerate=allow_degenerate)
    except DomainError as exc:
        return str(exc)
    return None


def _grid_error(pairs, scale, depth=0, parent=None, allow_degenerate=False):
    den = math.lcm(*(x.denominator for p in pairs for x in p)) * scale
    grid = (den, [a.numerator * (den // a.denominator) for a, _ in pairs],
            [b.numerator * (den // b.denominator) for _, b in pairs])
    try:
        stage = CantorStage._from_grid(grid, depth, parent, allow_degenerate)
    except DomainError as exc:
        return str(exc)
    assert_rebuilds(stage)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_coords, _coords), max_size=8), st.booleans(),
       st.sampled_from([1, 2, 5, 2 ** 40]), st.booleans())
def test_from_grid_rejects_like_the_public_constructor(pairs, allow_degenerate, scale, tidy):
    if tidy:
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs)
    expected = _public_error(pairs, allow_degenerate=allow_degenerate)
    assert _grid_error(pairs, scale, allow_degenerate=allow_degenerate) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100), st.lists(st.integers(-40, 1064), min_size=2, max_size=12, unique=True),
       st.sampled_from([1, 3, 2 ** 20]))
def test_from_grid_nesting_matches_the_public_constructor(seed, ends, scale):
    parent = random_stage(seed, depth=2)
    ends = sorted(F(x, 1024) for x in ends)
    pairs = list(zip(ends[::2], ends[1::2]))
    expected = _public_error(pairs, depth=3, parent=parent)
    assert _grid_error(pairs, scale, depth=3, parent=parent) == expected


def test_from_grid_rejects_each_fault_with_the_public_text():
    cases = {
        "out of order": [(F(0), F(1)), (F(3), F(2))],
        "overlapping": [(F(0), F(2)), (F(1), F(3))],
        "zero length": [(F(0), F(1)), (F(2), F(2))],
    }
    for pairs in cases.values():
        text = _public_error(pairs)
        assert text is not None and _grid_error(pairs, 3) == text
    parent = CantorStage((ClosedInterval(F(0), F(1)),))
    pairs = [(F(1, 2), F(3, 2))]
    text = _public_error(pairs, depth=1, parent=parent)
    assert text is not None and _grid_error(pairs, 1, depth=1, parent=parent) == text
    assert _grid_error([(F(0), F(1))], 1, depth=-1) == "depth must be nonnegative"
    with pytest.raises(DomainError, match="at least one interval"):
        CantorStage._from_grid((1, [], []))


# ---------------------------------------------------------------------------
# one integer formula, two adapters
# ---------------------------------------------------------------------------

def _assert_one_formula(family, depth):
    """Whole-stage refinement equals the per-interval refiner at every
    depth, and ``interval_chain`` follows the stages."""
    shift = family._depth_shift
    for d in range(depth):
        stage = family.stage(d)
        children = [c for iv in stage.intervals for c in family._refine(iv, d + shift)]
        assert list(family.stage(d + 1).intervals) == children
    deepest = family.stage(depth)
    for iv in (deepest.intervals[0], deepest.intervals[len(deepest.intervals) // 2]):
        point = ClosedInterval(iv.midpoint, iv.midpoint)
        chain = family.interval_chain(point, depth)
        assert chain == [family.stage(d).interval_containing(point) for d in range(depth + 1)]


@settings(max_examples=40, deadline=None)
@given(_families)
def test_whole_stage_refinement_equals_the_interval_refiner(family):
    _assert_one_formula(family, 6)


@settings(max_examples=40, deadline=None)
@given(_taus, st.integers(0, 2 ** 64 - 1), _placements, st.integers(1, 3), st.integers(0, 99))
def test_local_refinement_equals_the_base_family(tau, seed, placement, offset, pick):
    spec = RandomThickSpec(tau, 0, seed, placement)
    base = random_thick_family(spec)
    top = base.stage(offset)
    k = pick % top.count
    window = ClosedInterval(top.intervals[k].lo, top.intervals[min(k + 1, top.count - 1)].hi)
    sub = RestrictedFamily(base, window, depth_offset=offset)
    assert sub._local is not None and sub._local._depth_shift == offset
    _assert_one_formula(sub._local, 4)
    for level in range(5):
        stage = sub.stage(level)
        assert stage.intervals == restrict(base.stage(offset + level), window).intervals
        if level:
            # The seeded tag is built from the reduced endpoints and the base depth.
            at = offset + level - 1
            expected = [c for iv in sub.stage(level - 1).intervals
                        for c in naive_random_thick_children(iv.lo, iv.hi, at, spec)]
            assert [(iv.lo, iv.hi) for iv in stage.intervals] == expected


def test_middle_alpha_local_refinement_matches_naive_arithmetic():
    alpha = F(1, 5)
    base = middle_alpha_family(alpha)
    sub = RestrictedFamily(base, base.stage(2).intervals[1], depth_offset=2)
    for level in range(1, 5):
        expected = [c for iv in sub.stage(level - 1).intervals
                    for c in naive_middle_alpha_children(iv.lo, iv.hi, alpha)]
        assert [(iv.lo, iv.hi) for iv in sub.stage(level).intervals] == expected


# ---------------------------------------------------------------------------
# grid-native frame scan
# ---------------------------------------------------------------------------

@st.composite
def _tied_stages(draw):
    """Stages over a small denominator with few distinct gap lengths, so the
    largest gap often ties, some zero-length intervals, and either sign of
    scale."""
    den = draw(st.sampled_from([1, 2, 3, 7]))
    n = draw(st.integers(2, 10))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    spaces = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    x, ivs = 0, []
    for w, gap in zip(widths, spaces):
        ivs.append(ClosedInterval(F(x, den), F(x + w, den)))
        x += w + gap
    stage = CantorStage(tuple(ivs), allow_degenerate=True)
    return affine_image(stage, draw(_scales), draw(_shifts))


@settings(max_examples=300, deadline=None)
@given(_tied_stages())
def test_largest_gap_frame_matches_fraction_scan(stage):
    gaps = bounded_gaps(stage)
    best = gaps[0]
    for g in gaps[1:]:
        if g.length > best.length:
            best = g
    frame = largest_gap_frame(stage)
    left = bridge_at(stage, best.lo, "left").bridge
    right = bridge_at(stage, best.hi, "right").bridge
    assert (frame.gap, frame.left_bridge, frame.right_bridge) == (best, left, right)
    assert frame.left_at_least_right == (left.length >= right.length)


def _fraction_extract_window(family, delta, max_scan_depth):
    """The window and offset ``subset_extract`` picks, by the Fraction scan
    over validated gaps."""
    for depth in range(1, max_scan_depth + 1):
        stage = family.stage(depth)
        frame = largest_gap_frame(stage)
        u = frame.gap.hi
        reach = min(frame.gap.length, delta)
        for g in bounded_gaps(stage):
            if g.lo <= u:
                continue
            if g.lo - u >= reach:
                break
            if g.length < frame.gap.length:
                window = bridge_at(stage, g.lo, "left").bridge
                for d in range(1, depth + 1):
                    ivs = family.stage(d).intervals
                    if (any(iv.lo == window.lo for iv in ivs)
                            and any(iv.hi == window.hi for iv in ivs)):
                        return window, d
    return None


@settings(max_examples=60, deadline=None)
@given(_families, st.integers(2, 9))
def test_subset_extract_matches_fraction_scan(family, k):
    delta = (family.stage(0).max - family.stage(0).min) / 2 ** k
    sub = subset_extract(family, delta, max_scan_depth=12)
    assert (sub.window, sub.depth_offset) == _fraction_extract_window(family, delta, 12)


@pytest.mark.parametrize("alpha, delta", [
    (F(1, 3), F(1, 9)), (F(1, 3), F(1, 27)), (F(1, 3), F(2, 27)), (F(1, 5), F(4, 25)),
])
def test_subset_extract_reach_bound_is_exclusive(alpha, delta):
    """Deltas equal to the distance from the largest gap to a shorter one:
    that gap is out of reach."""
    family = middle_alpha_family(alpha)
    sub = subset_extract(family, delta, max_scan_depth=12)
    assert (sub.window, sub.depth_offset) == _fraction_extract_window(family, delta, 12)


# ---------------------------------------------------------------------------
# grid-built stages answer sparse reads before building ``intervals``
# ---------------------------------------------------------------------------

def _eager(stage: CantorStage) -> CantorStage:
    """The public constructor's stage of a grid-built stage's endpoints,
    read from the grid so that ``stage.intervals`` stays unbuilt."""
    den, lo, hi = stage._grid
    ivs = tuple(ClosedInterval(F(x, den), F(y, den)) for x, y in zip(lo, hi))
    return CantorStage(ivs, depth=stage.depth, allow_degenerate=stage.allow_degenerate)


def _is_lazy(stage: CantorStage) -> bool:
    return "intervals" not in stage.__dict__


def _rescaled(stage: CantorStage, m: int) -> CantorStage:
    """The same stage over a grid denominator m times larger."""
    den, lo, hi = stage._grid
    return CantorStage._from_grid((den * m, [x * m for x in lo], [x * m for x in hi]),
                                  stage.depth, None, stage.allow_degenerate)


@st.composite
def _lazy_stages(draw):
    """A fresh stage from restrict, affine_image, _polynomial_image or
    intersect, sometimes over a non-minimal grid denominator."""
    kind = draw(st.sampled_from(["restrict", "affine", "polynomial", "intersect"]))
    seed, tau = draw(st.integers(0, 200)), draw(_taus)
    if kind == "restrict":
        stage = random_stage(seed, tau=tau, depth=draw(st.integers(1, 7)))
        a, b = sorted(draw(st.tuples(st.integers(0, 1024), st.integers(0, 1024))))
        offset = draw(st.sampled_from([F(0), F(1, 7), F(1, 2 ** 40)]))
        window = ClosedInterval(F(a, 1024) + offset, F(b, 1024) + offset)
        assume(any(iv.intersection(window) for iv in stage.intervals))
        stage = restrict(stage, window)
    elif kind == "affine":
        stage = affine_image(random_stage(seed, tau=tau, depth=draw(st.integers(1, 7))),
                             draw(_scales), draw(_shifts))
    elif kind == "polynomial":
        source, coeffs = draw(_image_sources()), draw(_coeff_lists)
        assume(sign_on_interval(Polynomial(coeffs).derivative(), source.hull()) is not None)
        stage = _polynomial_image(source, coeffs)
    else:
        depth = draw(st.integers(1, 6))
        f1 = random_thick_family(RandomThickSpec(tau, 0, seed))
        f2 = AffineFamily(random_thick_family(RandomThickSpec(draw(_taus), 0, seed + 1)),
                          F(1), F(draw(st.integers(1, 200)), 1024))
        w = intersect(f1.stage(depth), f2.stage(depth))
        assume(w is not None)
        stage = w.common
    m = draw(st.sampled_from([1, 1, 6, 2 ** 40]))
    return stage if m == 1 else _rescaled(stage, m)


def _scan_containing(ivs, piece):
    return next((iv for iv in ivs if iv.contains_interval(piece)), None)


@settings(max_examples=300, deadline=None)
@given(_lazy_stages(), st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                                max_size=30))
def test_sparse_reads_match_a_scan_before_intervals_are_built(stage, picks):
    """Pieces are the stage's endpoints, gap and interval midpoints and
    points beyond the hull, as points and as random spans between them
    (which straddle gaps, touch endpoints or leave the hull)."""
    assert _is_lazy(stage)
    eager = _eager(stage)
    ivs = eager.intervals
    assert stage.count == len(ivs)
    assert (stage.min, stage.max) == (ivs[0].lo, ivs[-1].hi)
    points = probe_points(eager)
    spans = [sorted((points[i % len(points)], points[j % len(points)])) for i, j in picks]
    for lo, hi in [(x, x) for x in points] + spans:
        piece = ClosedInterval(lo, hi)
        assert stage.interval_containing(piece) == _scan_containing(ivs, piece)
        if lo == hi:
            assert stage.interval_containing_point(lo) == _scan_containing(ivs, piece)
    if stage.count >= 2:
        result = thickness(stage)
        assert result == thickness(eager)
        if stage.count <= 16:
            assert result.value == brute_thickness(eager)
        assert largest_gap_frame(stage) == largest_gap_frame(eager)
    assert _is_lazy(stage)
    assert stage == eager and stage.intervals == ivs


@settings(max_examples=60, deadline=None)
@given(_taus, _taus, st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
       st.integers(1, 200), _scales)
def test_persistent_intersect_without_check_leaves_intervals_unbuilt(
        tau1, tau2, seed1, seed2, k, scale):
    """Chains of affine images, as find_config passes them, and the common
    stages the intersection builds.  The second chain is shifted by at most
    a fifth of the common hull length, so the hulls overlap and neither
    lies in a gap of the other: the gap lemma makes every depth intersect."""
    f1 = random_thick_family(RandomThickSpec(tau1, 0, seed1))
    f2 = random_thick_family(RandomThickSpec(tau2, 0, seed2))
    k1 = [affine_image(s, scale, F(0)) for s in f1.stages(1, 6)]
    k2 = [affine_image(s, scale, abs(scale) * F(k, 1024)) for s in f2.stages(1, 6)]
    w = persistent_intersect(k1, k2, check=False)
    assert all(map(_is_lazy, k1 + k2)) and _is_lazy(w.common)
    expected = persistent_intersect([_eager(s) for s in k1], [_eager(s) for s in k2],
                                    check=False)
    assert w.to_json() == expected.to_json()


@settings(max_examples=100, deadline=None)
@given(_lazy_stages())
def test_lazy_stages_compare_hash_and_copy_like_their_eager_rebuild(stage):
    eager = _eager(stage)
    copies = [pickle.loads(pickle.dumps(stage)), copy.deepcopy(stage)]
    assert all(map(_is_lazy, copies))
    for other in [*copies, stage]:
        assert other._grid == stage._grid
        assert other == eager and eager == other
        assert hash(other) == hash(eager)
        assert other.intervals == eager.intervals
    assert getattr(stage, "no_such_attribute", None) is None



# Stage JSON tokens: the integer and 'p/q' forms the grid parser reads
# itself, and every form it must hand to Fraction: signs, padding, decimals,
# exponents, underscores, zero or negative denominators, non-ASCII digits,
# wrong shapes and wrong types.
_small = st.integers(-6, 6)
_token = st.one_of(
    _small,
    st.builds(lambda p, q: f"{p}/{q}", _small, st.integers(0, 4)),
    st.builds(lambda p, q: f"{p}/{q}", _small, st.integers(-2, -1)),
    st.builds(lambda p, q: f"+{abs(p)}/{q}", _small, st.integers(1, 4)),
    st.builds(lambda p, pad: f"{pad}{p}{pad}", _small, st.sampled_from([" ", "\t", "\n"])),
    st.booleans(),
    st.floats(-4, 4) | st.sampled_from([float("nan"), float("inf")]),
    st.sampled_from(["0.5", "1e3", "1/0", "1/-2", "1_000", "-0", "007/010", "\u0661/\u0662",
                     "\uff13", "1/2/3", "", "/", "-", "--1", "1 /2", "1/ 2", "0x10", "abc",
                     "2/4\n"]),
    st.text(alphabet="0123456789/-+ ._e\u0663", max_size=5),
    st.sampled_from([None, [], {}, [1, 2]]),
)
# Two-token pairs are listed twice to draw them more often than wrong shapes.
_pair = st.one_of(
    st.lists(_token, min_size=2, max_size=2),
    st.lists(_token, min_size=2, max_size=2),
    st.lists(_token, max_size=3),
    st.sampled_from([None, 3, "ab", {"lo": 0, "hi": 1}]),
)
_ordered_pair = st.tuples(st.integers(-20, 20), st.integers(0, 3), st.integers(1, 3)).map(
    lambda t: [f"{t[0]}/{t[2]}", t[0] + t[1]])


@st.composite
def _stage_objects(draw):
    """Stage objects that are often valid and often carry one, two or more
    faults: mostly increasing pairs with faulty pairs and tokens mixed in."""
    pairs = draw(st.lists(st.one_of(_ordered_pair, _ordered_pair, _pair), max_size=8))
    if draw(st.booleans()):
        pairs.sort(key=lambda p: str(p))
    data = {"depth": draw(st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from(
        [1.0, "1", None]))), "intervals": pairs}
    drop = draw(st.sampled_from([None, None, None, "depth", "intervals"]))
    if drop:
        del data[drop]
    return draw(st.sampled_from([data, data, data, pairs, None, "x"]))


def _parse(parser, data):
    try:
        return parser(data), None
    except DomainError as exc:
        return None, str(exc)


@settings(max_examples=1500, deadline=None)
@given(_stage_objects())
def test_stage_from_json_matches_the_fraction_parser(data):
    """The grid parser gives the per-token parser's stage, or its
    DomainError text: the first fault in file order wins in both."""
    stage, error = _parse(stage_from_json, data)
    expected, expected_error = _parse(fraction_stage_from_json, data)
    assert error == expected_error
    if expected is not None:
        assert _is_lazy(stage)
        assert stage == expected
        assert stage.depth == expected.depth
        assert stage.allow_degenerate == expected.allow_degenerate
        assert [F(x, stage._grid[0]) for x in stage._grid[1]] == [iv.lo for iv in expected.intervals]


@pytest.mark.parametrize("text, error", [
    ('{"depth": 1, "intervals": [["1", "0"], [0.5, 1]]}',
     "interval endpoints out of order: [1, 0]"),
    ('{"depth": 1, "intervals": [["0", "1"], ["3", "2"], [0.5, 1]]}',
     "interval endpoints out of order: [3, 2]"),
    ('{"depth": 1, "intervals": [["0", "1"], [0.5, 1], ["3", "2"]]}',
     "floats are not accepted as coordinates: 0.5"),
    ('{"depth": 1, "intervals": [["0", "1/0"], ["3", "2"]]}',
     "malformed stage object: Fraction(1, 0)"),
    ('{"depth": 1, "intervals": [["+1/2", " 3/4 "], ["1", "2"]]}', None),
])
def test_stage_file_faults_are_reported_in_file_order(text, error):
    expected, expected_error = _parse(fraction_stage_from_json, json.loads(text))
    assert expected_error == error
    stage, got_error = _parse(loads_stage, text)
    assert got_error == error
    assert stage == expected


def test_whole_stage_verbs_build_no_interval_of_a_loaded_stage():
    """Thickness, the gap-lemma check and both renders read a loaded
    stage's grid only."""
    k1, k2 = (loads_stage(dumps_stage(random_stage(seed, F(2), depth=6))) for seed in (1, 2))
    thickness(k1)
    check_hypotheses(k1, k2)
    check_hypotheses(k2, affine_image(k1, 1, 5))
    render_stage_svg(k1)
    render_stage_svg(k1, log_scale=True)
    assert _is_lazy(k1) and _is_lazy(k2)
