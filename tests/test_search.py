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
    DomainError,
    FunctionSpec,
    HypothesisError,
    RandomThickSpec,
    RefinableFamily,
    SearchConfig,
    counterexample_calibrate,
    counterexample_parts,
    derivative_ratio_bound,
    derivative_window,
    find_3ap,
    find_config,
    largest_gap_frame,
    make_counterexample_params,
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
from thickset.errors import InsufficientDepthError
from thickset.functions import range_bounds
from thickset.search import _validate_delta, avoidance_checks, config_gate_thickness
from conftest import in_middle_thirds, thin_below_family

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
    assert frame.left_bridge == ClosedInterval(F(0), F(1, 3))
    assert frame.right_bridge == ClosedInterval(F(2, 3), F(1))
    assert frame.left_at_least_right  # tie counts as left-dominant


def test_frame_counterexample_set():
    params = make_counterexample_params(F(101, 100), F(1, 1000), F(99, 100))
    frame = largest_gap_frame(
        CantorStage(tuple(counterexample_parts(params)[k] for k in ("I1", "I2", "I3", "I4", "I5")))
    )
    assert (frame.gap.lo, frame.gap.hi) == (-F(1, 1000), F(0))


def test_frame_two_interval_set():
    frame = largest_gap_frame(make_stage([(0, 1), (3, 4)]))
    assert (frame.gap.lo, frame.gap.hi) == (F(1), F(3))
    assert frame.left_bridge == ClosedInterval(F(0), F(1))
    assert frame.right_bridge == ClosedInterval(F(3), F(4))


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
    eps/(2 tau), and the certified derivative ratio bound below eps."""
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
    try:
        return derivative_ratio_bound(f, box) < eps
    except DomainError:
        return False


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


def test_find_config_family_thin_below_the_gate_is_a_hypothesis_violation():
    family = thin_below_family(5)
    assert [thickness(family.stage(d)).value for d in range(1, 7)] == [2] * 5 + [F(1, 3)]
    with pytest.raises(HypothesisError, match="thickness 1/3 at depth 6 is below the floor 2"):
        find_config(family, FunctionSpec((F(1),)), SearchConfig(max_depth=8))


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
    params = make_counterexample_params(F(11, 5), F(21, 100), F(99, 100))
    report = verify_counterexample(params)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "max_point_square_below_largest_gap" in failed


def test_verify_counterexample_eps_half_is_a_construction_error():
    with pytest.raises(ConstructionError):
        verify_counterexample(make_counterexample_params(F(101, 100), F(1, 2), F(99, 100)))


def test_avoidance_checks_catch_tampered_parts():
    params = counterexample_calibrate(F(101, 100), F(1, 1000), F(1, 10 ** 6))
    parts = counterexample_parts(params)
    # Shift I4 so it swallows part of the squared reflection of I2.
    sq_lo = parts["I2"].hi ** 2
    width = parts["I4"].length
    parts["I4"] = ClosedInterval(sq_lo, sq_lo + width)
    parts["G3"] = type(parts["G3"])(parts["I3"].hi, sq_lo)
    parts["G4"] = type(parts["G4"])(sq_lo + width, parts["I5"].lo)
    checks = {name: ok for name, ok, _ in avoidance_checks(parts, params.tau, params.eps)}
    assert not checks["squares_of_I2_reflection_inside_G3"]
