"""Generators: middle-alpha, random thick sets, and the avoidance set."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickset import (
    CalibrationError,
    ClosedInterval,
    ConstructionError,
    DomainError,
    RandomThickSpec,
    RestrictedFamily,
    counterexample_calibrate,
    counterexample_limit_ratio,
    counterexample_parts,
    counterexample_set,
    make_counterexample_params,
    middle_alpha,
    middle_alpha_family,
    random_thick,
    random_thick_family,
    restrict,
    thickness,
)
from conftest import (
    brute_thickness,
    naive_middle_alpha_children,
    naive_random_thick_children,
    probe_points,
    thin_below_family,
)

EPS = F(1, 1000)

# Exact lengths of the c-dependent pieces at tau = 1, eps = 1/1000, frozen
# from the defining interval formulas evaluated by hand:
#   |G3| = ((1 + beta)^2/c - c) eps^2, |G4| = ((1 + tau)^2/c - (1 + beta + alpha)^2 c) eps^2,
#   |I5| = tau eps - (1 + tau)^2 eps^2 / c, with alpha = beta = 1/3.
FROZEN_TAU1 = {
    F(9, 10): {
        "G3": F(871, 810000000),
        "G4": F(7, 3600000),
        "I5": F(28, 28125),
    },
    F(99, 100): {
        "G3": F(71791, 89100000000),
        "G4": F(511, 396000000),
        "I5": F(493, 495000),
    },
    F(999, 1000): {
        "G3": F(7017991, 8991000000000),
        "G4": F(49111, 39960000000),
        "I5": F(199, 199800),
    },
}
LIMITS_TAU1 = {"G3": F(7, 9) * EPS ** 2, "G4": F(11, 9) * EPS ** 2, "I5": EPS - 4 * EPS ** 2}


def part_length(parts: dict, name: str) -> F:
    piece = parts[name]
    return piece.length


# ---------------------------------------------------------------------------
# middle-alpha
# ---------------------------------------------------------------------------

def test_middle_thirds_first_stage():
    stage = middle_alpha(F(1, 3), 1)
    assert [(iv.lo, iv.hi) for iv in stage.intervals] == [(F(0), F(1, 3)), (F(2, 3), F(1))]
    assert thickness(stage).value == 1


def test_middle_thirds_second_stage():
    stage = middle_alpha(F(1, 3), 2)
    assert stage.count == 4
    assert all(iv.length == F(1, 9) for iv in stage.intervals)


def test_middle_alpha_thickness_depth_invariant():
    for alpha, expected in ((F(1, 3), F(1)), (F(1, 5), F(2)), (F(2, 5), F(3, 4)), (F(1, 2), F(1, 2))):
        for depth in range(1, 5):
            assert thickness(middle_alpha(alpha, depth)).value == expected


def test_middle_alpha_validates_input():
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(DomainError):
            middle_alpha(bad, 2)
    with pytest.raises(DomainError):
        middle_alpha(F(1, 3), -1)


# ---------------------------------------------------------------------------
# counterexample set
# ---------------------------------------------------------------------------

def test_counterexample_five_intervals_and_largest_gap():
    params = make_counterexample_params(F(101, 100), EPS, F(99, 100))
    stage = counterexample_set(params)
    assert stage.count == 5
    parts = counterexample_parts(params)
    g2 = parts["G2"]
    assert (g2.lo, g2.hi) == (-EPS, F(0))
    # G2 is strictly the longest bounded gap.
    for name in ("G1", "G3", "G4"):
        assert parts[name].length < g2.length


def test_counterexample_constant_rows_are_exact():
    # The eps-scale pieces do not depend on c at all: both flanks and the
    # first gap have length tau*beta*eps = tau*alpha*eps = eps/3 at tau = 1.
    for c in FROZEN_TAU1:
        parts = counterexample_parts(make_counterexample_params(F(1), EPS, c))
        assert part_length(parts, "I1") == EPS / 3
        assert part_length(parts, "G1") == EPS / 3
        assert part_length(parts, "I2") == EPS / 3
        assert part_length(parts, "G2") == EPS


def test_counterexample_c_dependent_rows_match_frozen_values():
    for c, expected in FROZEN_TAU1.items():
        parts = counterexample_parts(make_counterexample_params(F(1), EPS, c))
        for name, value in expected.items():
            assert part_length(parts, name) == value


def test_counterexample_lengths_approach_limits_monotonically():
    errors = {name: [] for name in LIMITS_TAU1}
    for c in (F(9, 10), F(99, 100), F(999, 1000)):
        parts = counterexample_parts(make_counterexample_params(F(1), EPS, c))
        for name, limit in LIMITS_TAU1.items():
            errors[name].append(abs(part_length(parts, name) - limit))
    for name, errs in errors.items():
        assert errs[0] > errs[1] > errs[2], name


def test_counterexample_order_violations_named():
    # c below (1 + beta*tau)/(1 + beta*tau + alpha*tau) empties I4.
    with pytest.raises(ConstructionError, match="I4"):
        counterexample_set(make_counterexample_params(F(1), EPS, F(1, 2)))
    # eps = 1/2 empties I5 for every admissible c.
    with pytest.raises(ConstructionError, match="I5"):
        counterexample_set(make_counterexample_params(F(101, 100), F(1, 2), F(99, 100)))


def test_counterexample_params_validation():
    with pytest.raises(DomainError):
        make_counterexample_params(F(9, 10), EPS, F(99, 100))  # tau < 1
    with pytest.raises(DomainError, match="tau must be at least 1"):
        make_counterexample_params(F(-1, 2), EPS, F(1, 2))  # 2 tau + 1 = 0
    with pytest.raises(DomainError):
        make_counterexample_params(F(101, 100), F(0), F(99, 100))
    with pytest.raises(DomainError):
        make_counterexample_params(F(101, 100), EPS, F(1))


def test_counterexample_right_bridge_of_largest_gap_spans_all_small_pieces():
    # The right bridge at 0 crosses every eps^2-scale gap and reaches the
    # far end of the set: [0, tau*eps].
    from thickset import bridge_at

    params = make_counterexample_params(F(101, 100), EPS, F(99, 100))
    stage = counterexample_set(params)
    parts = counterexample_parts(params)
    report = bridge_at(stage, F(0), "right")
    assert report.bridge.lo == parts["I3"].lo == 0
    assert report.bridge.hi == parts["I5"].hi == params.tau * EPS
    # And the left bridge at -eps spans I1 through I2.
    left = bridge_at(stage, -EPS, "left")
    assert left.bridge.lo == parts["I1"].lo
    assert left.bridge.hi == parts["I2"].hi


def test_counterexample_square_avoidance_endpoints():
    for tau, c in ((F(1), F(99, 100)), (F(101, 100), F(999, 1000))):
        parts = counterexample_parts(make_counterexample_params(tau, EPS, c))
        i1, i2, g3, g4 = parts["I1"], parts["I2"], parts["G3"], parts["G4"]
        # Reflect through zero and square; monotone on positives.
        assert g4.lo < i1.hi ** 2 and i1.lo ** 2 < g4.hi
        assert g3.lo < i2.hi ** 2 and i2.lo ** 2 < g3.hi
        assert parts["I5"].hi ** 2 < EPS  # left-anchor avoidance for small eps


def test_calibrate_hits_target_thickness():
    params = counterexample_calibrate(F(101, 100), EPS, F(1, 10 ** 6))
    value = thickness(counterexample_set(params)).value
    assert F(101, 100) - F(1, 10 ** 6) <= value <= F(101, 100)
    assert value == F(101, 100)  # calibration lands on the cap exactly


def test_calibrate_rejects_tau_one():
    with pytest.raises(DomainError):
        counterexample_calibrate(F(1), EPS, F(1, 10 ** 6))


def test_calibrate_fails_for_large_tau():
    with pytest.raises(CalibrationError, match="limiting bridge ratio"):
        counterexample_calibrate(F(10), EPS, F(1, 10 ** 6))
    # The reachable range is tiny: the limiting ratio already dips below tau
    # somewhere between 1.1 and 1.2.
    assert counterexample_limit_ratio(F(11, 10)) >= F(11, 10)
    assert counterexample_limit_ratio(F(6, 5)) < F(6, 5)


# ---------------------------------------------------------------------------
# random thick sets
# ---------------------------------------------------------------------------

def test_random_thick_deterministic_in_seed():
    spec = RandomThickSpec(target_tau=F(3, 2), depth=6, seed=42)
    assert random_thick(spec) == random_thick(spec)
    other = RandomThickSpec(target_tau=F(3, 2), depth=6, seed=43)
    assert random_thick(other) != random_thick(spec)


def test_random_thick_depth_zero_is_unit_interval():
    stage = random_thick(RandomThickSpec(target_tau=F(2), depth=0, seed=0))
    assert [(iv.lo, iv.hi) for iv in stage.intervals] == [(F(0), F(1))]


def test_random_thick_meets_target_thickness():
    spec = RandomThickSpec(target_tau=F(3, 2), depth=6, seed=42)
    assert thickness(random_thick(spec)).value >= F(3, 2)
    for seed in range(15):
        for tau in (F(1), F(3, 2), F(2), F(3)):
            stage = random_thick(RandomThickSpec(target_tau=tau, depth=4, seed=seed))
            value = thickness(stage).value
            assert value >= tau
            assert value == brute_thickness(stage)


def test_random_thick_fixed_gap_placement():
    spec = RandomThickSpec(target_tau=F(2), depth=3, seed=5, gap_placement=F(1, 2))
    again = RandomThickSpec(target_tau=F(2), depth=3, seed=99, gap_placement=F(1, 2))
    # With a pinned placement the only seed influence left is the gap length.
    a, b = random_thick(spec), random_thick(again)
    assert a != b
    assert thickness(a).value >= 2 and thickness(b).value >= 2


_bases = st.tuples(
    st.builds(F, st.integers(-50, 50), st.integers(1, 60)),
    st.builds(F, st.integers(1, 50), st.integers(1, 60)),
).map(lambda p: ClosedInterval(p[0], p[0] + p[1]))


def _refines_like(family, naive, depth):
    """Each stage of ``family`` down to ``depth`` is ``naive`` applied to
    every interval of the stage above it."""
    for d in range(depth):
        expected = [c for iv in family.stage(d).intervals for c in naive(iv.lo, iv.hi, d)]
        assert [(iv.lo, iv.hi) for iv in family.stage(d + 1).intervals] == expected


@settings(max_examples=150, deadline=None)
@given(
    st.builds(F, st.integers(1, 12), st.integers(1, 5)),
    st.integers(0, 2 ** 64 - 1),
    st.one_of(st.none(), st.builds(F, st.integers(0, 7), st.just(7))),
    _bases,
)
def test_random_thick_refiner_matches_naive_arithmetic(tau, seed, placement, base):
    spec = RandomThickSpec(target_tau=tau, depth=0, seed=seed, gap_placement=placement)
    family = random_thick_family(spec, base)
    _refines_like(family, lambda lo, hi, d: naive_random_thick_children(lo, hi, d, spec), 3)


@settings(max_examples=150, deadline=None)
@given(st.builds(F, st.integers(1, 29), st.just(30)), _bases)
def test_middle_alpha_refiner_matches_naive_arithmetic(alpha, base):
    family = middle_alpha_family(alpha, base)
    _refines_like(family, lambda lo, hi, d: naive_middle_alpha_children(lo, hi, alpha), 3)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_restricted_family_localization_matches_delegation():
    fam = middle_alpha_family(F(1, 3))
    window = ClosedInterval(F(2, 3), F(1))  # spans a whole depth-1 interval
    local = RestrictedFamily(fam, window, depth_offset=1)
    assert local._local is not None
    for level in range(5):
        direct = restrict(fam.stage(1 + level), window)
        assert local.stage(level).intervals == direct.intervals


_restricted_families = st.one_of(
    st.builds(lambda a, base: middle_alpha_family(a, base),
              st.builds(F, st.integers(1, 9), st.just(10)), _bases),
    st.builds(lambda tau, seed, base: random_thick_family(RandomThickSpec(tau, 0, seed), base),
              st.sampled_from([F(1), F(3, 2), F(3)]), st.integers(0, 2 ** 32), _bases),
    st.builds(thin_below_family, st.integers(1, 3)),
)


@settings(max_examples=200, deadline=None)
@given(_restricted_families, st.integers(0, 3), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_restricted_family_goes_local_exactly_when_the_window_spans_whole_intervals(
        family, offset, i, j):
    """Window ends at the offset stage's endpoints, inside its gaps and
    intervals, beyond its hull, and at an interval's far end, where the
    restriction clips that interval to a point."""
    host_stage = family.stage(offset)
    points = probe_points(host_stage)
    a, b = sorted((points[i % len(points)], points[j % len(points)]))
    clipped = [(max(iv.lo, a), min(iv.hi, b)) for iv in host_stage.intervals
               if iv.lo <= b and a <= iv.hi]
    assume(clipped)
    hosts = [next((iv.lo, iv.hi) for iv in host_stage.intervals if iv.lo <= lo and hi <= iv.hi)
             for lo, hi in clipped]
    window = ClosedInterval(a, b)
    sub = RestrictedFamily(family, window, depth_offset=offset)
    assert (sub._local is not None) == (clipped == hosts)
    for level in range(3):
        try:
            direct = restrict(family.stage(offset + level), window)
        except DomainError:  # a point window that a deeper gap swallows
            with pytest.raises(DomainError):
                sub.stage(level)
            continue
        assert sub.stage(level).intervals == direct.intervals


def test_interval_chain_walkdown_matches_stages():
    fam = middle_alpha_family(F(1, 5))
    enc = ClosedInterval(F(1), F(1))
    chain = fam.interval_chain(enc, 6)
    for depth, host in enumerate(chain):
        assert fam.stage(depth).interval_containing(enc) == host
