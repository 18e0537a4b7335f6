"""Configuration finders, subset extraction, MVT bounds, avoidance checks."""

import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickset import (
    AffineFamily,
    CantorStage,
    ClosedInterval,
    ConfigWitness,
    ConstructionError,
    CounterexampleParams,
    DomainError,
    FunctionSpec,
    HypothesisError,
    RandomThickSpec,
    RefinableFamily,
    SearchConfig,
    StageFamily,
    ThicksetError,
    counterexample_calibrate,
    counterexample_parts,
    derivative_window,
    find_3ap,
    find_config,
    largest_gap_frame,
    make_stage,
    middle_alpha,
    middle_alpha_family,
    random_thick_family,
    subset_extract,
    thickness,
    verify_counterexample,
    verify_mvt_bounds,
    verify_witness,
)
from thickset import cli, gaplemma, persistent_intersect, search
from thickset.constructions import _middle_alpha_refiner
from thickset.core import _polynomial_image
from thickset.errors import InsufficientDepthError, InternalContradictionError
from thickset.functions import range_bounds
from thickset.search import (
    WITNESS_WIDTH,
    _RetryDelta,
    _attempt_config,
    _shrink_centered,
    _validate_delta,
    avoidance_checks,
    config_gate_thickness,
)
from conftest import in_middle_thirds, naive_middle_alpha_children, thin_below_family

GENTLE = FunctionSpec((F(1), F(1, 10)))


def right_heavy_family(tau=F(3)) -> RefinableFamily:
    """Deterministic generator whose every cut leaves a longer right flank,
    forcing the reflection path; thickness stays >= tau = 3."""

    def refine(iv: ClosedInterval, _depth: int):
        width = iv.length
        return [
            ClosedInterval(iv.lo, iv.lo + 3 * width / 8),
            ClosedInterval(iv.lo + width / 2, iv.hi),
        ]

    root = CantorStage((ClosedInterval(F(0), F(1)),))
    return RefinableFamily(root, refine, name="right-heavy")


# ---------------------------------------------------------------------------
# largest_gap_frame
# ---------------------------------------------------------------------------

def test_frame_middle_thirds():
    frame = largest_gap_frame(middle_alpha(F(1, 3), 2))
    assert (frame.gap.lo, frame.gap.hi) == (F(1, 3), F(2, 3))
    assert frame.left.window == ClosedInterval(F(0), F(1, 3))
    assert frame.right.window == ClosedInterval(F(2, 3), F(1))
    assert not frame.reflected  # tie counts as left-dominant


def test_frame_counterexample_set():
    params = CounterexampleParams(F(101, 100), F(1, 1000), F(99, 100))
    frame = largest_gap_frame(
        CantorStage(tuple(counterexample_parts(params)[k] for k in ("I1", "I2", "I3", "I4", "I5")))
    )
    assert (frame.gap.lo, frame.gap.hi) == (-F(1, 1000), F(0))


def test_frame_two_interval_set():
    frame = largest_gap_frame(make_stage([(0, 1), (3, 4)]))
    assert (frame.gap.lo, frame.gap.hi) == (F(1), F(3))
    assert frame.left.window == ClosedInterval(F(0), F(1))
    assert frame.right.window == ClosedInterval(F(3), F(4))
    assert not frame.reflected


def test_frame_reflected_reads_the_gap_from_its_left_endpoint():
    """The right bridge [1/2, 1] is the longer, so x is the gap's left end
    3/8: the left piece is the right bridge under z -> z - x and the right
    piece the left bridge [0, 3/8] under z -> x - z."""
    stage = right_heavy_family().stage(3)
    frame = largest_gap_frame(stage)
    x = F(3, 8)
    assert (frame.gap.lo, frame.gap.hi) == (x, F(1, 2))
    assert frame.reflected and frame.x == frame.gap.lo
    assert frame.left.window == ClosedInterval(F(1, 2), F(1))
    assert frame.right.window == ClosedInterval(F(0), x)
    assert (frame.left_reach, frame.right_reach) == (F(5, 8), F(3, 8))
    assert frame.left.of(stage).intervals == tuple(
        ClosedInterval(iv.lo - x, iv.hi - x) for iv in stage.intervals if iv.lo >= F(1, 2))
    assert frame.right.of(stage).intervals == tuple(
        ClosedInterval(x - iv.hi, x - iv.lo) for iv in reversed(stage.intervals) if iv.hi <= x)
    assert frame.left.of(stage).hull() == ClosedInterval(frame.gap.length, frame.left_reach)
    assert frame.right.of(stage).hull() == ClosedInterval(F(0), frame.right_reach)


# ---------------------------------------------------------------------------
# subset_extract
# ---------------------------------------------------------------------------

def test_subset_extract_middle_thirds():
    fam = middle_alpha_family(F(1, 3))
    sub = subset_extract(fam, F(1, 10))
    assert sub.window.length < F(1, 10)
    for level in range(6):
        piece = sub.stage(level)
        assert sub.window.contains_interval(piece.hull())
        if piece.count >= 2:
            assert thickness(piece).value >= 1


def test_subset_extract_huge_delta_still_valid():
    fam = middle_alpha_family(F(1, 3))
    sub = subset_extract(fam, F(100))
    assert sub.window.length < 100
    assert thickness(sub.stage(3)).value == 1


def test_subset_extract_repeated_shrinkage():
    fam = middle_alpha_family(F(1, 5))
    hull = F(1)
    for k in range(1, 6):
        delta = hull / 3 ** k
        sub = subset_extract(fam, delta)
        assert sub.stage(0).hull().length < delta
        assert thickness(sub.stage(2)).value >= 2


def test_subset_extract_insufficient_depth_hint():
    fam = middle_alpha_family(F(1, 3))
    with pytest.raises(InsufficientDepthError) as err:
        subset_extract(fam, F(1, 10 ** 9), max_scan_depth=5)
    assert err.value.required_depth == 6


def test_subset_extract_keeps_the_certified_bound_of_a_window_thinner_than_its_level():
    """A gap cut inside the window after the scan depth is longer than the
    gap whose bridge the window is, so the window is thinner than its whole
    level; it keeps the family's certified bound."""
    fam = random_thick_family(RandomThickSpec(F(3, 2), 0, 81, F(5, 7)),
                              ClosedInterval(F(0), F(1, 45)))
    sub = subset_extract(fam, F(1, 180))
    assert thickness(sub.stage(1)).value < thickness(fam.stage(sub.depth_offset + 1)).value
    for level in range(1, 6):
        assert thickness(sub.stage(level)).value >= F(3, 2)


# ---------------------------------------------------------------------------
# find_3ap
# ---------------------------------------------------------------------------

def test_find_3ap_middle_thirds_canonical_triple():
    fam = middle_alpha_family(F(1, 3))
    w = find_3ap(fam, max_depth=12)
    assert w.x == F(2, 3)
    assert w.t.lo == w.t.hi and w.t.lo == F(1, 3)
    # Independent digit-recursion membership check of all three points.
    for point in (w.x - w.t.lo, w.x, w.x + w.t.lo):
        assert in_middle_thirds(point, 12)
    assert verify_witness(fam, w)["ok"]


def test_find_3ap_middle_fifth():
    fam = middle_alpha_family(F(1, 5))
    w = find_3ap(fam, max_depth=10)
    assert w.depth == 10
    assert all(len(c) == 11 for c in w.chains)
    assert verify_witness(fam, w)["ok"]
    assert w.t.lo > 0


def test_find_3ap_requires_bounded_gap():
    single = RefinableFamily(
        CantorStage((ClosedInterval(F(0), F(1)),)), lambda iv, d: [iv]
    )
    with pytest.raises(HypothesisError):
        find_3ap(single, max_depth=4)


def test_find_3ap_requires_thickness_at_least_one():
    with pytest.raises(HypothesisError, match=">= 1"):
        find_3ap(middle_alpha_family(F(1, 2)), max_depth=6)


def test_find_3ap_gates_on_every_certified_depth():
    def refine(iv, depth):
        # Middle thirds (thickness 1) down to depth 4, then a middle half
        # (local thickness 1/2) at depth 5.
        cut = F(1, 3) if depth < 4 else F(1, 4)
        width = iv.hi - iv.lo
        return [ClosedInterval(iv.lo, iv.lo + cut * width),
                ClosedInterval(iv.hi - cut * width, iv.hi)]

    fam = RefinableFamily(CantorStage((ClosedInterval(F(0), F(1)),)), refine)
    assert verify_witness(fam, find_3ap(fam, max_depth=4))["ok"]
    with pytest.raises(HypothesisError, match="got 1/2"):
        find_3ap(fam, max_depth=5)


def test_find_3ap_reflected_orientation():
    fam = right_heavy_family()
    w = find_3ap(fam, max_depth=10)
    assert verify_witness(fam, w)["ok"]
    # Middle point must be a gap endpoint of the stage at every depth.
    deep = fam.stage(10)
    assert any(iv.lo == w.x or iv.hi == w.x for iv in deep.intervals)


def test_find_3ap_witness_midpoint_is_gap_endpoint():
    for fam in (middle_alpha_family(F(1, 3)), middle_alpha_family(F(1, 5))):
        w = find_3ap(fam, max_depth=8)
        stage = fam.stage(8)
        assert any(iv.lo == w.x or iv.hi == w.x for iv in stage.intervals)


# ---------------------------------------------------------------------------
# find_config
# ---------------------------------------------------------------------------

def test_find_config_identity_subsumes_linear_case():
    fam = middle_alpha_family(F(1, 5))
    res = find_config(fam, FunctionSpec((F(1),)), SearchConfig(max_depth=8))
    assert verify_witness(fam, res.witness, FunctionSpec((F(1),)))["ok"]
    assert res.tau == 2
    assert res.image_thickness_min > res.rho_tau


def test_find_config_gentle_quadratic():
    fam = middle_alpha_family(F(1, 5))
    res = find_config(fam, GENTLE, SearchConfig(max_depth=10))
    w = res.witness
    assert w.depth >= 10
    assert w.t.length <= F(1, 2 ** 40) and w.ft.length <= F(1, 2 ** 40)
    assert verify_witness(fam, w, GENTLE)["ok"]
    assert res.image_thickness_min > res.rho_tau


def test_find_config_rejects_zero_slope():
    fam = middle_alpha_family(F(1, 5))
    with pytest.raises(HypothesisError, match="slope window"):
        find_config(fam, FunctionSpec((F(0), F(1))), SearchConfig(max_depth=6))


def test_find_config_rejects_boundary_slope_exactly():
    fam = middle_alpha_family(F(1, 5))  # tau = 2, window (2/3, 3/2)
    for slope in (F(2, 3), F(3, 2)):
        with pytest.raises(HypothesisError, match="slope window"):
            find_config(fam, FunctionSpec((slope,)), SearchConfig(max_depth=6))


def test_find_config_accepts_slope_just_inside_window():
    fam = middle_alpha_family(F(1, 5))
    slope = F(2, 3) + F(1, 1000)
    res = find_config(fam, FunctionSpec((slope,)), SearchConfig(max_depth=8))
    assert verify_witness(fam, res.witness, FunctionSpec((slope,)))["ok"]


def test_find_config_linear_weighted_midpoint_identity():
    # For linear f with slope m, the middle point is the m/(m+1) : 1/(m+1)
    # weighted combination of the outer two, exactly.
    fam = middle_alpha_family(F(1, 5))
    m = F(5, 4)
    res = find_config(fam, FunctionSpec((m,)), SearchConfig(max_depth=8))
    w = res.witness
    for t in (w.t.lo, w.t.hi):
        left = w.x - t
        right = w.x + m * t
        assert w.x == (m / (m + 1)) * left + (F(1) / (m + 1)) * right


def test_find_config_reflected_branch():
    fam = right_heavy_family()
    f = FunctionSpec((F(1), F(1, 20)))
    res = find_config(fam, f, SearchConfig(max_depth=8))
    assert res.reflected
    assert verify_witness(fam, res.witness, f)["ok"]
    assert res.image_thickness_min > res.rho_tau


def test_find_config_requires_thickness_above_one():
    with pytest.raises(HypothesisError, match="> 1"):
        find_config(middle_alpha_family(F(1, 3)), GENTLE, SearchConfig(max_depth=6))


def test_find_config_validates_rho():
    fam = middle_alpha_family(F(1, 5))
    with pytest.raises(Exception, match="rho"):
        find_config(fam, GENTLE, SearchConfig(rho=F(1, 4), max_depth=6))


def _four_condition_rule(f, tau, delta, eps):
    """The delta gate from the public routines: f' inside the slope window
    on the box of radius tau*delta, both deviations from f'(0) below
    eps/(2 tau), and the derivative ratio deviation M/m - 1 below eps."""
    box = ClosedInterval(-tau * delta, tau * delta)
    bounds = range_bounds(f.polynomial().derivative(), box)
    m, M = bounds.lo, bounds.hi
    window = derivative_window(tau)
    slope, budget = f.slope_at_zero, eps / (2 * tau)
    if not (window.lower < m and M < window.upper):
        return False
    if max(M - slope, slope - m) >= budget:
        return False
    if max(1 / m - 1 / slope, 1 / slope - 1 / M) >= budget:
        return False
    return M / m - 1 < eps  # m > window.lower > 0


@settings(max_examples=300, deadline=None)
@given(
    st.builds(F, st.integers(60, 140), st.just(100)),
    st.lists(st.builds(F, st.integers(-20, 20), st.sampled_from([1, 10, 100])), max_size=2),
    st.builds(F, st.integers(11, 50), st.just(10)),
    st.integers(0, 24),
    st.builds(F, st.integers(1, 100), st.just(200)),
)
def test_validate_delta_matches_the_four_condition_rule(slope, higher, tau, k, eps):
    f = FunctionSpec((slope, *higher))
    delta = F(1, 2 ** k)
    assert _validate_delta(f, tau, delta, eps) == _four_condition_rule(f, tau, delta, eps)


def test_family_thickness_bounds():
    assert middle_alpha_family(F(1, 5)).thickness_bound == 2
    spec = RandomThickSpec(F(3, 2), 0, 7)
    assert random_thick_family(spec).thickness_bound == F(3, 2)
    assert AffineFamily(random_thick_family(spec), F(-2, 3), F(1)).thickness_bound == F(3, 2)
    assert right_heavy_family().thickness_bound is None
    # Each bound holds at every depth; middle-alpha's is the exact thickness.
    for family in (middle_alpha_family(F(2, 11)), random_thick_family(spec),
                   AffineFamily(random_thick_family(spec), F(-2, 3), F(1))):
        values = [thickness(family.stage(d)).value for d in range(1, 9)]
        assert min(values) >= family.thickness_bound
    assert config_gate_thickness(middle_alpha_family(F(2, 11))) == F(9, 4)
    # A family with no certificate is gated on its floor over depths 1..4.
    assert config_gate_thickness(right_heavy_family()) == 3
    assert config_gate_thickness(thin_below_family(5)) == 2


def test_find_config_random_thick_witness_is_pinned():
    family = random_thick_family(RandomThickSpec(F(3, 2), 0, 7))
    res = find_config(family, GENTLE, SearchConfig(max_depth=8))
    assert res.tau == F(3, 2)
    assert (res.delta, res.extraction_offset, res.reflected) == (F(1, 16), 3, False)
    doc = res.witness.to_json()
    assert doc["x"] == ("5936621036293801359883883951263618795/"
                        "10633823966279326983230456482242756608")
    assert doc["depth"] == 11
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "c8cf50017fcd1452c6c741aadecd13bae7501833389fa1713535ab3d92ef0f21"
    assert verify_witness(family, res.witness, GENTLE)["ok"]


@pytest.mark.parametrize("seed, digest", [
    (0, "b8e66384cb0d7df41e6b19030418ab7696879cb73509f1e8d19c3d49525db849"),
    (1, "0c55e7df4e7388991ea188ec5938024ea5835ac1f85464cfa79444a9de1c89b9"),
    (7, "3a49fb40ea5894a2142c7466178d60f08a4783bf51dc2337817a96bcf6b5118b"),
])
def test_find_config_on_an_affine_view_refines_only_the_bridge(seed, digest):
    """Under x -> -2x/3 + 1 the extracted bridge refines through the base's
    step conjugated by the map, so the search builds its base no deeper
    than the plain family's search does, the witness is pinned, and its
    replay builds no base stage below the root."""
    identity = FunctionSpec((F(1),))
    plain = random_thick_family(RandomThickSpec(F(2), 0, seed))
    find_config(plain, identity, SearchConfig(max_depth=8))
    base = random_thick_family(RandomThickSpec(F(2), 0, seed))
    witness = find_config(AffineFamily(base, F(-2, 3), F(1)), identity,
                          SearchConfig(max_depth=8)).witness
    assert len(base._stages) <= len(plain._stages)
    assert hashlib.sha256(json.dumps(witness.to_json()).encode()).hexdigest() == digest
    replay = random_thick_family(RandomThickSpec(F(2), 0, seed))
    assert verify_witness(AffineFamily(replay, F(-2, 3), F(1)), witness, identity)["ok"]
    assert len(replay._stages) == 1


def test_find_config_family_thin_below_the_gate_is_a_hypothesis_violation():
    family = thin_below_family(5)
    assert [thickness(family.stage(d)).value for d in range(1, 7)] == [2] * 5 + [F(1, 3)]
    with pytest.raises(HypothesisError, match="thickness 1/3 at depth 6 is below the floor 2"):
        find_config(family, FunctionSpec((F(1),)), SearchConfig(max_depth=8))


def _window_thinner_than_its_level_without_a_bound() -> RefinableFamily:
    """The cuts of the random-thick family in
    ``test_subset_extract_keeps_the_certified_bound_of_a_window_thinner_than_its_level``,
    made by a user refiner, so the family certifies no bound."""
    root = ClosedInterval(F(0), F(1, 45))
    cuts = random_thick_family(RandomThickSpec(F(3, 2), 0, 81, F(5, 7)), root)

    def refine(iv: ClosedInterval, depth: int):
        return [c for c in cuts.stage(depth + 1).intervals if iv.contains_interval(c)]

    return RefinableFamily(CantorStage((root,)), refine, name="thin-window")


@pytest.mark.parametrize("delta", [F(1, 180), F(1, 200)])
@pytest.mark.parametrize("f", [FunctionSpec((F(1),)), GENTLE], ids=["identity", "gentle"])
def test_find_config_window_thinner_than_the_floor_is_a_hypothesis_violation(delta, f):
    """A window may be thinner than its whole level; with no certified bound
    that is the family thin below the gate, not a bug."""
    family = _window_thinner_than_its_level_without_a_bound()
    assert family.thickness_bound is None
    with pytest.raises(HypothesisError,
                       match=r"^extracted family thickness 685553/451542 at depth 3 "
                             r"is below the floor "):
        find_config(family, f, SearchConfig(delta=delta, max_depth=8))


@pytest.mark.parametrize("make, thin", [
    (lambda: middle_alpha_family(F(1, 5)), False), (right_heavy_family, False),
    (lambda: thin_below_family(5), True),
], ids=["middle-alpha", "right-heavy", "thin-below"])
def test_find_config_measures_no_stage_twice(make, thin, monkeypatch):
    measured = []
    real = search.thickness
    monkeypatch.setattr(search, "thickness", lambda stage: measured.append(stage) or real(stage))
    try:
        find_config(make(), GENTLE, SearchConfig(max_depth=8))
    except HypothesisError:
        assert thin  # only thin-below is thin below its gate
    assert measured
    assert len({id(stage) for stage in measured}) == len(measured)


def test_find_config_without_a_bound_builds_whole_stages_only_to_the_gate():
    family = right_heavy_family()
    find_config(family, GENTLE, SearchConfig(max_depth=8))
    assert len(family._stages) - 1 == search.CONFIG_GATE_DEPTH == 4


def test_find_config_below_a_false_certified_bound_is_a_bug_named_by_depth():
    family = middle_alpha_family(F(1, 5))  # thickness 2 at every depth
    family.thickness_bound = F(3)
    with pytest.raises(InternalContradictionError,
                       match=r"^extracted family lost thickness at level 1 \(depth 5\): "
                             r"2 < certified bound 3$"):
        find_config(family, GENTLE, SearchConfig(max_depth=8))


# Witnesses are a function of (x, t, ft, depth): the chains follow from them
# through the family, so pinning these four fields pins the whole JSON.
PINNED_WITNESSES = {
    "3ap-middle-thirds": ("2/3", ["1/3", "1/3"], ["1/3", "1/3"], 12),
    "3ap-right-heavy-reflected": (
        "3/8", ["2415/8192", "4835/16384"], ["2415/8192", "4835/16384"], 10,
    ),
    "config-middle-fifth": (
        "1923/3125",
        ["432179614542569997/56294995342131200000",
         "86435922908553939/11258999068426240000"],
        ["32224610528804379361518436743267/4194304000000000000000000000000000",
         "32224610528819280522712284399517/4194304000000000000000000000000000"],
        14,
    ),
    "config-right-heavy-reflected": (
        "539/1024",
        ["46361620640183926869/2361183241434822606848",
         "46361620640192299191/2361183241434822606848"],
        ["55321617070219/2814749767106560", "55321617070229/2814749767106560"],
        11,
    ),
}


def _pinned_search(name):
    if name == "3ap-middle-thirds":
        return find_3ap(middle_alpha_family(F(1, 3)), max_depth=12), None
    if name == "3ap-right-heavy-reflected":
        return find_3ap(right_heavy_family(), max_depth=10), None
    if name == "config-middle-fifth":
        res = find_config(middle_alpha_family(F(1, 5)), GENTLE, SearchConfig(max_depth=10))
        return res.witness, (res.delta, res.extraction_offset, res.reflected)
    f = FunctionSpec((F(1), F(1, 20)))
    res = find_config(right_heavy_family(), f, SearchConfig(max_depth=8))
    return res.witness, (res.delta, res.extraction_offset, res.reflected)


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_search_witnesses_are_pinned(name):
    witness, diagnostics = _pinned_search(name)
    doc = witness.to_json()
    assert (doc["x"], doc["t"], doc["ft"], doc["depth"]) == PINNED_WITNESSES[name]
    expected = {
        "config-middle-fifth": (F(1, 16), 4, False),
        "config-right-heavy-reflected": (F(1, 8), 3, True),
    }.get(name)
    assert diagnostics == expected


def _pinned_families():
    for alpha in (F(1, 5), F(1, 6), F(1, 7)):
        yield f"middle-alpha {alpha}", lambda a=alpha: middle_alpha_family(a)
    for tau in (F(3, 2), F(2), F(3)):
        for seed in (0, 1, 7):
            make = lambda t=tau, s=seed: random_thick_family(RandomThickSpec(t, 0, s))
            yield f"random-thick {tau} {seed}", make
            yield f"affine random-thick {tau} {seed}", lambda m=make: AffineFamily(m(), F(-2, 3), F(1))


def test_searches_over_21_families_and_4_finders_are_pinned():
    """84 outcomes, 28 of them reflected: find_3ap and find_config for
    f in {t, t + t^2/10, 9t/10 + t^2/20}, all at max_depth 8, on fresh
    middle-alpha, random-thick and affine-view families."""
    functions = [FunctionSpec((F(1),)), GENTLE, FunctionSpec((F(9, 10), F(1, 20)))]

    def outcome(run):
        try:
            return run()
        except ThicksetError as exc:
            return [type(exc).__name__, str(exc)]

    def config(make, f):
        res = find_config(make(), f, SearchConfig(max_depth=8))
        return [res.witness.to_json(), str(res.delta), res.extraction_offset, res.reflected]

    outcomes = []
    for name, make in _pinned_families():
        outcomes.append([name, "3ap", outcome(lambda: find_3ap(make(), max_depth=8).to_json())])
        for k, f in enumerate(functions):
            outcomes.append([name, k, outcome(lambda: config(make, f))])
    assert len(outcomes) == 84
    assert sum(len(o[2]) == 4 and o[2][3] is True for o in outcomes) == 28
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "889f4bbecfea5b368ffe5bec56d39af72bedf19b4a30becb7e1ad819f9c574bc"


# The config-middle-fifth witness of the earlier search, which inverted every
# right-piece endpoint to 2^-64 and intersected in t coordinates.  It is still
# a valid certificate and must keep replaying.
INVERSE_MAP_MIDDLE_FIFTH = (
    "1923/3125",
    ["168820161926949644535161/21990232555520000000000000",
     "168820161927027769535161/21990232555520000000000000"],
    ["37152446455414702391365763739112090533151765295921/"
     "4835703278458516698824704000000000000000000000000000",
     "37152446455431908638700064831097564777058015295921/"
     "4835703278458516698824704000000000000000000000000000"],
    14,
)


def test_inverse_map_witness_still_verifies():
    fam = middle_alpha_family(F(1, 5))
    x, t, ft, depth = INVERSE_MAP_MIDDLE_FIFTH
    x = F(x)
    t = ClosedInterval(*map(F, t))
    ft = ClosedInterval(*map(F, ft))
    points = (ClosedInterval(x - t.hi, x - t.lo), ClosedInterval(x, x),
              ClosedInterval(x + ft.lo, x + ft.hi))
    chains = tuple(tuple(fam.interval_chain(enc, depth)) for enc in points)
    witness = ConfigWitness(x=x, t=t, ft=ft, depth=depth, chains=chains)
    assert verify_witness(fam, witness, GENTLE)["ok"]


def _horner(coeffs, t):
    """f(t) = c1 t + c2 t^2 + ..., evaluated exactly."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = (acc + c) * t
    return acc


def _scan_host(stage, lo, hi):
    """The intervals of ``stage`` that contain [lo, hi], by linear scan."""
    return [iv for iv in stage.intervals if iv.lo <= lo and hi <= iv.hi]


# (family, thickness, whether the search must reflect)
_CONFIG_CASES = {
    "middle-1/5": (middle_alpha_family(F(1, 5)), F(2), False),
    "middle-1/6": (middle_alpha_family(F(1, 6)), F(5, 2), False),
    "middle-1/7": (middle_alpha_family(F(1, 7)), F(3), False),
    "middle-2/11": (middle_alpha_family(F(2, 11)), F(9, 4), False),
    "right-heavy": (right_heavy_family(), F(3), True),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_CASES))
@settings(max_examples=25, deadline=None)
@given(
    position=st.integers(1, 39).map(lambda k: F(k, 40)),
    quad=st.integers(-10, 10).map(lambda k: F(k, 20)),
    levels=st.integers(3, 7),
)
def test_find_config_witness_against_linear_scan(case, position, quad, levels):
    fam, tau, reflected = _CONFIG_CASES[case]
    # f = s t + c t^2 with s strictly inside the slope window of tau.
    lower, upper = max(tau / (tau + 1), 1 / tau), min(tau, 1 + 1 / tau)
    coeffs = (lower + (upper - lower) * position, quad)
    res = find_config(fam, FunctionSpec(coeffs), SearchConfig(max_depth=levels))
    assert res.reflected == reflected
    w = res.witness
    assert w.t.lo > 0
    assert _horner(coeffs, w.t.lo) <= w.ft.lo <= w.ft.hi <= _horner(coeffs, w.t.hi)
    points = ((w.x - w.t.hi, w.x - w.t.lo), (w.x, w.x), (w.x + w.ft.lo, w.x + w.ft.hi))
    for d in range(w.depth + 1):
        stage = fam.stage(d)
        for lo, hi in points:
            assert len(_scan_host(stage, lo, hi)) == 1, (d, lo, hi)


def test_verify_witness_detects_tampering():
    fam = middle_alpha_family(F(1, 5))
    res = find_config(fam, GENTLE, SearchConfig(max_depth=8))
    w = res.witness
    shift = F(1, 10 ** 12)
    tampered = ConfigWitness(
        x=w.x + shift,
        t=w.t,
        ft=w.ft,
        depth=w.depth,
        chains=tuple(
            tuple(ClosedInterval(iv.lo + shift, iv.hi + shift) for iv in chain)
            for chain in w.chains
        ),
    )
    assert not verify_witness(fam, tampered, GENTLE)["ok"]


# ---------------------------------------------------------------------------
# verify_mvt_bounds
# ---------------------------------------------------------------------------

def test_mvt_linear_example():
    report = verify_mvt_bounds(1, 3, F(3, 2), F(3, 2), FunctionSpec((F(1),)))
    assert report.hypotheses_ok
    assert report.value == F(3, 2)
    assert report.conclusion_ok and report.all_ok


def test_mvt_randomized_instances():
    import random

    rng = random.Random(23)
    for _ in range(40):
        tau = F(1 + rng.randint(1, 20), rng.randint(1, 10))
        if tau <= 1:
            tau += 1
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        c = tau * a * F(rng.randint(100, 150), 100)
        b = a + max(c, tau * a) * F(rng.randint(100, 140), 100)
        window = (1 / tau, 1 + 1 / tau)
        margin = (window[1] - window[0]) / 4
        slope = window[0] + margin + (window[1] - window[0] - 2 * margin) * F(rng.randint(0, 100), 100)
        quad = margin / (4 * c)  # keeps g' inside the window on [0, c]
        g = FunctionSpec((slope, quad))
        report = verify_mvt_bounds(a, b, c, tau, g)
        assert report.hypotheses_ok, report.to_json()
        assert report.conclusion_ok, report.to_json()


def test_mvt_flags_window_violation():
    tau = F(2)
    g = FunctionSpec((F(1, 4),))  # slope 1/(2 tau) < 1/tau
    report = verify_mvt_bounds(1, 3, 2, tau, g)
    assert not report.hypotheses["derivative_window_lower"]
    assert not report.lower_ok  # g(c) = 1/2 <= a = 1
    assert not report.all_ok


def test_mvt_reports_precondition_failures_without_throwing():
    report = verify_mvt_bounds(1, 2, 5, F(3, 2), FunctionSpec((F(1),)))
    assert not report.hypotheses["left_at_least_right"]
    assert isinstance(report.to_json(), dict)


# ---------------------------------------------------------------------------
# verify_counterexample
# ---------------------------------------------------------------------------

def test_verify_counterexample_calibrated_passes():
    params = counterexample_calibrate(F(101, 100), F(1, 1000), F(1, 10 ** 6))
    report = verify_counterexample(params)
    assert report.all_passed, report.to_json()
    assert report.thickness == F(101, 100)


def test_verify_counterexample_large_eps_fails_left_anchor_check():
    # tau^3 > (1+tau)^2 makes room for a valid construction whose top point
    # squares above eps: the left-anchor check must fail, nothing else blows.
    params = CounterexampleParams(F(11, 5), F(21, 100), F(99, 100))
    report = verify_counterexample(params)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "max_point_square_below_largest_gap" in failed


def test_verify_counterexample_eps_half_is_a_construction_error():
    with pytest.raises(ConstructionError):
        verify_counterexample(CounterexampleParams(F(101, 100), F(1, 2), F(99, 100)))


def test_verify_counterexample_refuses_a_negative_tol_as_calibration_does():
    params = CounterexampleParams(F(101, 100), F(1, 1000), F(99, 100))
    for refuse in (lambda tol: verify_counterexample(params, thickness_tol=tol),
                   lambda tol: counterexample_calibrate(F(101, 100), F(1, 1000), tol)):
        with pytest.raises(DomainError, match="^tol must be nonnegative$"):
            refuse(-1)
        with pytest.raises(DomainError, match="^tol must be nonnegative$"):
            refuse(F(-1, 10 ** 9))
    assert verify_counterexample(params, thickness_tol=0).checks  # zero is a tolerance


def test_avoidance_checks_catch_tampered_parts():
    params = counterexample_calibrate(F(101, 100), F(1, 1000), F(1, 10 ** 6))
    parts = counterexample_parts(params)
    # Shift I4 so it swallows part of the squared reflection of I2.
    sq_lo = parts["I2"].hi ** 2
    width = parts["I4"].length
    parts["I4"] = ClosedInterval(sq_lo, sq_lo + width)
    parts["G3"] = type(parts["G3"])(parts["I3"].hi, sq_lo)
    parts["G4"] = type(parts["G4"])(sq_lo + width, parts["I5"].lo)
    checks = {name: ok for name, ok, _ in avoidance_checks(parts, params.eps)}
    assert not checks["squares_of_I2_reflection_inside_G3"]


# ---------------------------------------------------------------------------
# One framing: the searches intersect only the deepest stage's pieces
# ---------------------------------------------------------------------------

def tie_family(grid: bool) -> RefinableFamily:
    """Middle thirds of three unit intervals: the deepest stage has tied
    largest gaps (1, 2) and (3, 4), the left bridge is shorter at the first
    and longer at the second.  ``grid`` picks the built-in grid refiner, else
    a per-interval ``ClosedInterval`` refiner."""
    if grid:
        refine = _middle_alpha_refiner(F(1, 3))
    else:
        def refine(iv, _depth):
            return [ClosedInterval(*c) for c in naive_middle_alpha_children(iv.lo, iv.hi, F(1, 3))]
    return RefinableFamily(make_stage([(0, 1), (2, 3), (4, 5)]), refine)


@pytest.mark.parametrize("grid", [True, False], ids=["grid-refiner", "interval-refiner"])
def test_find_3ap_tied_largest_gaps_frames_the_leftmost(grid):
    family = tie_family(grid)
    w = find_3ap(family, max_depth=3)
    assert verify_witness(family, w)["ok"]
    # The leftmost gap (1, 2), read reflected: x is its left endpoint.
    assert w.x == 1 and w.t == ClosedInterval(F(1), F(1))


def _oracle_chain(frame, stages, f=None):
    """The per-level certificate: both pieces mapped at every level, the t
    piece through f when given, and intersected level by level."""
    if f is None:
        return persistent_intersect([frame.left.of(s) for s in stages],
                                    [frame.right.of(s) for s in stages], check=False).chain
    source, target = (frame.right, frame.left) if frame.reflected else (frame.left, frame.right)
    coeffs = f.polynomial().coeffs
    images = [_polynomial_image(source.of(s), coeffs) for s in stages]
    return persistent_intersect([target.of(s) for s in stages], images, check=False).chain


_3AP_ORACLE_CASES = {
    "middle-thirds": lambda: middle_alpha_family(F(1, 3)),
    "middle-fifth": lambda: middle_alpha_family(F(1, 5)),
    "random-thick": lambda: random_thick_family(RandomThickSpec(F(2), 0, 7)),
    "affine-minus-one": lambda: AffineFamily(random_thick_family(RandomThickSpec(F(2), 0, 1)),
                                             F(-1), F(0)),
    "affine-minus-two-thirds": lambda: AffineFamily(middle_alpha_family(F(1, 5)), F(-2, 3), F(1)),
    "right-heavy": right_heavy_family,
    "tie": lambda: tie_family(True),
}


@pytest.mark.parametrize("case", sorted(_3AP_ORACLE_CASES))
def test_find_3ap_matches_the_per_level_chain(case, monkeypatch):
    family = _3AP_ORACLE_CASES[case]()
    calls = []
    real = gaplemma.intersect
    monkeypatch.setattr(gaplemma, "intersect", lambda a, b: calls.append(1) or real(a, b))
    w = find_3ap(family, max_depth=8)
    assert len(calls) == 1
    monkeypatch.undo()
    chain = _oracle_chain(largest_gap_frame(family.stage(8)), family.stages(0, 8))
    assert w.t == chain[-1]


@pytest.mark.parametrize("search", ["find_3ap", "find_config"])
def test_framed_pieces_that_do_not_meet_are_an_internal_contradiction(search, monkeypatch,
                                                                      capsys):
    """The frame facts make the pieces meet, so an empty intersection is a
    bug (exit 2), also where the pieces fail the gap-lemma hypotheses, as
    the one-interval pieces of a depth-1 3-AP search do.  An intersect that
    finds nothing stands in for that bug."""
    monkeypatch.setattr(gaplemma, "intersect", lambda k1, k2: None)
    if search == "find_3ap":
        run = lambda: find_3ap(middle_alpha_family(F(1, 3)), max_depth=1)
        argv = ["find-3ap", "--set-family", "middle-alpha:1/3", "--max-depth", "1"]
        message = ("^the framed pieces do not meet: empty stage intersection at depth 1, "
                   "where the gap-lemma hypotheses fail: thickness undefined")
    else:
        run = lambda: find_config(middle_alpha_family(F(1, 5)), GENTLE, SearchConfig(max_depth=4))
        argv = ["find-config", "--set-family", "middle-alpha:1/5", "--f", "1,1/10",
                "--max-depth", "4"]
        message = "^empty stage intersection at depth 8 although the gap-lemma hypotheses hold"
    with pytest.raises(InternalContradictionError, match=message) as err:
        run()
    assert not isinstance(err.value, HypothesisError)
    if search == "find_3ap":
        assert isinstance(err.value.__cause__, gaplemma.GapLemmaInapplicable)
    assert cli.main(argv) == 2
    assert "internal contradiction (please report)" in capsys.readouterr().err


_CONFIG_ORACLE_CASES = {
    "middle-fifth": (lambda: middle_alpha_family(F(1, 5)), False),
    "random-thick": (lambda: random_thick_family(RandomThickSpec(F(3, 2), 0, 7)), False),
    "affine-minus-one": (lambda: AffineFamily(right_heavy_family(), F(-1), F(0)), False),
    "affine-minus-two-thirds": (
        lambda: AffineFamily(random_thick_family(RandomThickSpec(F(2), 0, 1)), F(-2, 3), F(1)),
        True,
    ),
    "right-heavy": (right_heavy_family, True),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ORACLE_CASES))
def test_find_config_matches_the_per_level_chain(case, monkeypatch):
    make, reflected = _CONFIG_ORACLE_CASES[case]
    family, levels = make(), 8
    seen = {"extract": [], "frame": [], "deepest": [], "restrict": []}

    def spy(name, fn, pick=lambda result: result):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name].append(pick(result))
            return result
        monkeypatch.setattr(search, fn.__name__, wrapped)

    spy("extract", search.subset_extract)
    spy("frame", search.largest_gap_frame)
    spy("deepest", search.persistent_intersect, lambda result: result.chain[-1])
    real_restrict = search.restrict
    monkeypatch.setattr(search, "restrict",
                        lambda stage, window: seen["restrict"].append(window)
                        or real_restrict(stage, window))
    res = find_config(family, GENTLE, SearchConfig(max_depth=levels))
    monkeypatch.undo()

    assert res.reflected == reflected
    assert verify_witness(family, res.witness, GENTLE)["ok"]
    # One intersection and one restriction of the f(t) piece per attempt;
    # the t piece is mapped at every level for the image-thickness check.
    attempts = len(seen["frame"])
    assert len(seen["deepest"]) == attempts
    for frame in seen["frame"]:
        source, target = (frame.right, frame.left) if frame.reflected else (frame.left, frame.right)
        assert seen["restrict"].count(target.window) == 1
        assert seen["restrict"].count(source.window) == levels + 1
    assert len(seen["restrict"]) == attempts * (levels + 2)

    sub, frame = seen["extract"][-1], seen["frame"][-1]
    chain = _oracle_chain(frame, sub.stages(0, levels), GENTLE)
    assert seen["deepest"][-1] == chain[-1]
    assert res.witness.ft == _shrink_centered(chain[-1], WITNESS_WIDTH)


def test_search_config_rejects_a_nonpositive_delta():
    for delta in (-1, 0, F(-1, 3)):
        with pytest.raises(DomainError, match="^delta must be positive$"):
            SearchConfig(delta=delta)


# ---------------------------------------------------------------------------
# Witnesses: built once, checked by the constructor, replayed by verify_witness
# ---------------------------------------------------------------------------

def _gentle_witness():
    fam = middle_alpha_family(F(1, 5))
    return fam, find_config(fam, GENTLE, SearchConfig(max_depth=8)).witness


def _with_chain(w, index, chain):
    chains = list(w.chains)
    chains[index] = tuple(chain)
    return ConfigWitness(x=w.x, t=w.t, ft=w.ft, depth=w.depth, chains=tuple(chains))


def test_replay_names_ft_moved_off_f_of_t():
    fam, w = _gentle_witness()
    # Just past f(t.hi): every chain link still holds its point.
    move = GENTLE.polynomial()(w.t.hi) - w.ft.hi + F(1, 10 ** 30)
    ft = ClosedInterval(w.ft.lo + move, w.ft.hi + move)
    tampered = ConfigWitness(x=w.x, t=w.t, ft=ft, depth=w.depth, chains=w.chains)
    assert verify_witness(fam, tampered, GENTLE)["failures"] == [
        "ft enclosure is not within f(t enclosure)"
    ]


def test_replay_names_a_chain_without_its_deepest_link():
    fam, w = _gentle_witness()
    tampered = _with_chain(w, 0, w.chains[0][:-1])
    assert verify_witness(fam, tampered, GENTLE)["failures"] == [
        f"left chain has {w.depth} entries, expected {w.depth + 1}"
    ]


def test_witness_with_a_link_swapped_for_its_sibling_is_refused():
    fam, w = _gentle_witness()
    chain = list(w.chains[2])
    d = w.depth // 2
    (sibling,) = [iv for iv in fam.stage(d).intervals
                  if chain[d - 1].contains_interval(iv) and iv != chain[d]]
    chain[d] = sibling
    with pytest.raises(DomainError, match="witness chains must be nested"):
        _with_chain(w, 2, chain)


@pytest.mark.parametrize("depth, text", [
    (-1, "depth must be nonnegative"),
    (True, "depth must be an integer, got True"),
    (2.0, "depth must be an integer, got 2.0"),
])
def test_witness_depth_is_a_nonnegative_int(depth, text):
    # At depth -1 the empty chains would replay {4, 5, 6}, outside
    # AffineFamily(middle_alpha_family(1/3), 1, 0), as ok.
    one = ClosedInterval(F(1), F(1))
    with pytest.raises(DomainError) as exc:
        ConfigWitness(x=F(5), t=one, ft=one, depth=depth, chains=((), (), ()))
    assert str(exc.value) == text


def test_replay_names_a_widened_link_that_still_nests():
    fam, w = _gentle_witness()
    chain = list(w.chains[1])
    d = w.depth // 2
    parent, link = chain[d - 1], chain[d]
    chain[d] = (ClosedInterval(parent.lo, link.hi) if parent.lo < link.lo
                else ClosedInterval(link.lo, parent.hi))
    tampered = _with_chain(w, 1, chain)
    assert verify_witness(fam, tampered, GENTLE)["failures"] == [
        "middle chain does not match the family's stage intervals"
    ]


def test_find_config_refuses_an_inverse_off_ft(monkeypatch):
    inverse = search.monotone_inverse

    def shifted(*args):
        enc = inverse(*args)
        return ClosedInterval(enc.lo + F(1, 2 ** 60), enc.hi + F(1, 2 ** 60))

    monkeypatch.setattr(search, "monotone_inverse", shifted)
    with pytest.raises(InternalContradictionError,
                       match=r"ft enclosure is not within f\(t enclosure\)"):
        find_config(middle_alpha_family(F(1, 5)), GENTLE, SearchConfig(max_depth=8))


@pytest.mark.parametrize("make", [
    lambda: middle_alpha_family(F(1, 5)),
    lambda: random_thick_family(RandomThickSpec(F(2), 0, 1)),
    lambda: AffineFamily(random_thick_family(RandomThickSpec(F(2), 0, 1)), F(-2, 3), F(1)),
    right_heavy_family,
], ids=["middle-alpha", "random-thick", "affine-scale-minus-2/3", "user-refiner"])
def test_searches_walk_each_witness_chain_once_and_never_replay(make, monkeypatch):
    """Each chain is read once, down the stages the search already holds:
    neither search calls ``interval_chain`` on any family or calls
    ``verify_witness``, and every chain is the one ``interval_chain``
    walks."""
    def replay(*_args, **_kwargs):
        raise AssertionError("a search replayed its own witness")

    walks = []

    def counted(walk):
        def spy(self, *args):
            walks.append(args)
            return walk(self, *args)
        return spy

    monkeypatch.setattr(search, "verify_witness", replay)
    monkeypatch.setattr(StageFamily, "interval_chain", counted(StageFamily.interval_chain))
    for run in (lambda fam: find_3ap(fam, max_depth=6),
                lambda fam: find_config(fam, GENTLE, SearchConfig(max_depth=6)).witness):
        family = make()
        w = run(family)
        assert walks == []
        for chain, enc in zip(w.chains, w.point_enclosures()):
            assert list(chain) == family.interval_chain(enc, w.depth)
        walks.clear()


# ---------------------------------------------------------------------------
# Exact gates at their equality cases, with the other side of each
# ---------------------------------------------------------------------------

def test_a_witness_with_t_zero_is_refused_and_one_just_above_passes_the_gate():
    zero, tiny = ClosedInterval(F(0), F(0)), ClosedInterval(F(1, 10 ** 30), F(1, 10 ** 30))
    with pytest.raises(DomainError, match="^nondegeneracy requires t > 0, got enclosure 0$"):
        ConfigWitness(x=F(1, 2), t=zero, ft=zero, depth=0, chains=())
    # Past the t > 0 gate, the next check refuses the empty chains.
    with pytest.raises(DomainError, match="^a witness carries exactly three chains$"):
        ConfigWitness(x=F(1, 2), t=tiny, ft=tiny, depth=0, chains=())


def test_find_config_accepts_rho_at_one_over_tau_and_refuses_just_below():
    fam = middle_alpha_family(F(1, 5))  # thickness 2
    identity = FunctionSpec((F(1),))
    res = find_config(fam, identity, SearchConfig(rho=F(1, 2), max_depth=6))
    assert res.rho_tau == 1
    assert verify_witness(fam, res.witness, identity)["ok"]
    with pytest.raises(DomainError, match=r"rho\*tau >= 1$"):
        find_config(fam, identity, SearchConfig(rho=F(1, 2) - F(1, 10 ** 9), max_depth=6))


@pytest.mark.parametrize("slope, lower, upper", [
    (F(1, 2), False, True),  # g' = 1/tau
    (F(1, 2) + F(1, 10 ** 9), True, True),
    (F(3, 2) - F(1, 10 ** 9), True, True),
    (F(3, 2), True, False),  # g' = 1 + 1/tau
], ids=["at-lower", "above-lower", "below-upper", "at-upper"])
def test_mvt_derivative_window_is_open_at_both_ends(slope, lower, upper):
    report = verify_mvt_bounds(F(1, 10), 1, F(3, 10), 2, FunctionSpec((slope,)))
    assert report.hypotheses["derivative_window_lower"] is lower
    assert report.hypotheses["derivative_window_upper"] is upper


# f = s*t + c*t**2 on the box of radius tau*delta = 1/4 (tau = 2, delta = 1/8):
# f' runs over [m, M] = [s - c/2, s + c/2], the slope window is (2/3, 3/2)
# and both deviation budgets are eps/4.  Each pair puts one gate at its
# equality case, with every other gate passing, then a hair past it.
_HAIR = F(1, 10 ** 9)


@pytest.mark.parametrize("slope, c, eps, expected", [
    (F(2, 3) + F(1, 100), F(1, 50), F(1, 2), False),  # m = 2/3, the window's lower end
    (F(2, 3) + F(1, 100) + _HAIR, F(1, 50), F(1, 2), True),
    (F(3, 2) - F(1, 100), F(1, 50), F(1, 2), False),  # M = 3/2, its upper end
    (F(3, 2) - F(1, 100) - _HAIR, F(1, 50), F(1, 2), True),
    # M - s = s - m = 1/10 = eps/4; the inverse deviation is 8/115.
    (F(5, 4), F(1, 5), F(2, 5), False),
    (F(5, 4), F(1, 5), F(2, 5) + _HAIR, True),
    # 1/m - 1/s = 10/153 = eps/4; the derivative deviation is 1/20.
    (F(9, 10), F(1, 10), F(40, 153), False),
    (F(9, 10), F(1, 10), F(40, 153) + _HAIR, True),
], ids=["m-at-lower", "m-above-lower", "M-at-upper", "M-below-upper",
        "derivative-deviation-at-budget", "derivative-deviation-below-budget",
        "inverse-deviation-at-budget", "inverse-deviation-below-budget"])
def test_validate_delta_gates_are_exact_at_their_equality_cases(slope, c, eps, expected):
    f = FunctionSpec((slope, c))
    assert _validate_delta(f, F(2), F(1, 8), eps) is expected
    assert _four_condition_rule(f, F(2), F(1, 8), eps) is expected


def tied_gaps_family() -> RefinableFamily:
    """Each interval keeps its 3/10, 2/10 and 3/10 with two equal gaps of
    1/10 between: thickness 3 at every depth.  The bridge between the tied
    gaps is 2/10 long, so any map that stretches the farther gap more cuts
    the t piece's image thickness to about 2."""
    def refine(iv, _depth):
        w = iv.hi - iv.lo
        return [ClosedInterval(iv.lo, iv.lo + 3 * w / 10),
                ClosedInterval(iv.lo + 4 * w / 10, iv.lo + 6 * w / 10),
                ClosedInterval(iv.lo + 7 * w / 10, iv.hi)]
    return RefinableFamily(make_stage([(0, 1)]), refine, name="tied-gaps")


def test_image_thickness_gate_refuses_rho_tau_equal_to_it_and_accepts_just_below():
    family, f = tied_gaps_family(), FunctionSpec((F(1), F(1, 100)))
    res = find_config(family, f, SearchConfig(max_depth=2))
    tau, tv, delta = res.tau, res.image_thickness_min, res.delta
    assert tau == 3 and 2 < tv < 3
    # rho*tau = tv exactly, at a delta the derivative gates still pass.
    rho = tv / tau
    eps = (1 - rho) / (2 * rho)
    assert _validate_delta(f, tau, delta, eps)
    with pytest.raises(_RetryDelta, match=rf"^image stage thickness {tv} at level 2 "
                       rf"is not above rho\*tau = {tv}$"):
        _attempt_config(family, f, 2, tau, rho, eps, delta)
    below = find_config(family, f, SearchConfig(rho=rho - F(1, 10 ** 30), delta=delta,
                                                max_depth=2))
    assert below.delta == delta and below.image_thickness_min == tv
    assert verify_witness(family, below.witness, f)["ok"]
