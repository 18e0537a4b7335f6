"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Tolerances are pinned here, not configurable; every comparison
that can be exact is exact.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from thickset import (
    AffineFamily,
    ClosedInterval,
    FunctionSpec,
    HypothesisError,
    RandomThickSpec,
    SearchConfig,
    all_bridge_reports,
    counterexample_calibrate,
    counterexample_parts,
    counterexample_set,
    derivative_window,
    find_3ap,
    find_config,
    make_counterexample_params,
    middle_alpha_family,
    persistent_intersect,
    random_thick,
    random_thick_family,
    restrict,
    thickness,
    verify_counterexample,
    verify_mvt_bounds,
    verify_witness,
)
from conftest import in_middle_thirds

GENTLE = FunctionSpec((F(1), F(1, 10)))


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({label}) [{elapsed:.2f}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_thickness_exactness():
    with criterion(1, "middle-thirds thickness 1 at depths 1..12; window drop to 1/3", 1.0):
        fam = middle_alpha_family(F(1, 3))
        for depth in range(1, 13):
            assert thickness(fam.stage(depth)).value == 1
        window = ClosedInterval(F(2, 9), F(7, 9))
        for depth in (2, 5, 8):
            assert thickness(restrict(fam.stage(depth), window)).value == F(1, 3)


def test_criterion_2_bridge_restriction_300_stages():
    with criterion(2, "thickness survives every bridge restriction, 300 stages", 30.0):
        taus = [F(1), F(3, 2), F(2), F(3)]
        depth_cycle = [2, 3, 3, 4, 4, 5, 5, 6, 6, 7]
        stages_checked = bridges_checked = 0
        for i in range(300):
            tau = taus[i % 4]
            depth = 8 if i % 30 == 0 else depth_cycle[i % len(depth_cycle)]
            stage = random_thick(RandomThickSpec(target_tau=tau, depth=depth, seed=i))
            base = thickness(stage).value
            assert base >= tau
            for report in all_bridge_reports(stage):
                piece = restrict(stage, report.bridge)
                if piece.count >= 2:
                    assert thickness(piece).value >= base
                    bridges_checked += 1
            stages_checked += 1
        assert stages_checked == 300 and bridges_checked > 5000


def test_criterion_3_gap_lemma_persistence_500_pairs():
    with criterion(3, "persistent nested chains for 500 hypothesis-satisfying pairs", 120.0):
        taus = [F(1), F(3, 2), F(2), F(3)]
        for i in range(500):
            t1, t2 = taus[i % 4], taus[(i // 4) % 4]
            f1 = random_thick_family(RandomThickSpec(target_tau=t1, depth=0, seed=2 * i))
            f2 = AffineFamily(
                random_thick_family(RandomThickSpec(target_tau=t2, depth=0, seed=2 * i + 1)),
                F(1),
                F(1 + (37 * i) % 200, 1024),
            )
            # check=True asserts the exact thickness product and mutual
            # non-containment at every depth before intersecting.
            witness = persistent_intersect(f1.stages(1, 8), f2.stages(1, 8), check=True)
            assert len(witness.chain) == 8
            for deeper, coarser in zip(witness.chain[1:], witness.chain):
                assert coarser.contains_interval(deeper)


def test_criterion_4_three_ap_with_independent_ternary_oracle():
    with criterion(4, "3-AP on middle-thirds verified by ternary digits", 10.0):
        fam = middle_alpha_family(F(1, 3))
        witness = find_3ap(fam, max_depth=12)
        assert witness.x == F(2, 3) and witness.t.lo == witness.t.hi and witness.t.lo == F(1, 3)
        for point in (F(1, 3), F(2, 3), F(1)):
            assert in_middle_thirds(point, 12)
        # The oracle must also confirm the witness's own enclosures.
        for enc in witness.point_enclosures():
            assert in_middle_thirds(enc.lo, witness.depth)
            assert in_middle_thirds(enc.hi, witness.depth)
        assert verify_witness(fam, witness)["ok"]


def test_criterion_5_nonlinear_configuration():
    with criterion(5, "certified {x-t, x, x+t+t^2/10} in the middle-fifth family", 60.0):
        fam = middle_alpha_family(F(1, 5))
        result = find_config(fam, GENTLE, SearchConfig(max_depth=12))
        witness = result.witness
        certified_levels = witness.depth - result.extraction_offset
        assert certified_levels >= 10 and witness.depth >= 10
        assert witness.t.length <= F(1, 2 ** 40)
        assert witness.ft.length <= F(1, 2 ** 40)
        assert verify_witness(fam, witness, GENTLE)["ok"]
        # Independent replay: direct membership of every enclosure in fully
        # materialized stages (no chain bookkeeping involved).
        check_depth = min(witness.depth, 13)
        for d in range(check_depth + 1):
            stage = fam.stage(d)
            for enc in witness.point_enclosures():
                assert any(iv.contains_interval(enc) for iv in stage.intervals), d
        # Offset coupling: ft sits inside the exact polynomial image of t.
        flo = GENTLE.polynomial()(witness.t.lo)
        fhi = GENTLE.polynomial()(witness.t.hi)
        assert flo <= witness.ft.lo and witness.ft.hi <= fhi


def test_criterion_6_derivative_window():
    with criterion(6, "window values, 1 inside 50 windows, squaring rejected", 30.0):
        w = derivative_window(F(2))
        assert (w.lower, w.upper) == (F(2, 3), F(3, 2))
        for k in range(1, 51):
            tau = 1 + F(k, 7)
            win = derivative_window(tau)
            assert win.lower < 1 < win.upper
        square = FunctionSpec((F(0), F(1)))
        for alpha in (F(1, 5), F(1, 7), F(2, 7), F(1, 4), F(1, 9)):
            fam = middle_alpha_family(alpha)
            with pytest.raises(HypothesisError):
                find_config(fam, square, SearchConfig(max_depth=4))


def test_criterion_7_counterexample():
    with criterion(7, "calibration, avoidance inequalities, length table", 30.0):
        eps = F(1, 1000)
        params = counterexample_calibrate(F(101, 100), eps, F(1, 10 ** 6))
        value = thickness(counterexample_set(params)).value
        assert abs(value - F(101, 100)) <= F(1, 10 ** 6)
        report = verify_counterexample(params, thickness_tol=F(1, 10 ** 6))
        assert report.all_passed, report.to_json()

        # Length table at tau = 1: the eps-scale rows are exact for every c;
        # the eps^2-scale rows converge monotonically to their limits, with
        # the two rows whose relative error at c = 999/1000 can sit under
        # 1e-3 (I3 and I5) pinned to that tolerance.
        limits = {
            "I3": eps ** 2,
            "G3": F(7, 9) * eps ** 2,
            "I4": eps ** 2,
            "G4": F(11, 9) * eps ** 2,
            "I5": eps - 4 * eps ** 2,
        }
        rel_errors = {name: [] for name in limits}
        for c in (F(9, 10), F(99, 100), F(999, 1000)):
            parts = counterexample_parts(make_counterexample_params(F(1), eps, c))
            assert parts["I1"].length == eps / 3
            assert parts["G1"].length == eps / 3
            assert parts["I2"].length == eps / 3
            assert parts["G2"].length == eps
            for name, limit in limits.items():
                measured = parts[name].length
                rel_errors[name].append(abs(measured - limit) / limit)
        for name, errs in rel_errors.items():
            assert errs[0] > errs[1] > errs[2], f"{name} not monotone toward its limit"
        assert rel_errors["I3"][-1] <= F(1, 1000)
        assert rel_errors["I5"][-1] <= F(1, 1000)


def test_criterion_8_mvt_bounds_randomized():
    with criterion(8, "200 mean-value frame instances plus flagged violations", 30.0):
        import random

        rng = random.Random(2024)
        passed = 0
        for _ in range(200):
            tau = 1 + F(rng.randint(1, 24), 12)
            gap = F(rng.randint(1, 9), rng.randint(1, 9))
            right = tau * gap * F(rng.randint(100, 160), 100)
            left = gap + max(right, tau * gap) * F(rng.randint(100, 150), 100)
            lo, hi = 1 / tau, 1 + 1 / tau
            margin = (hi - lo) / 4
            slope = lo + margin + (hi - lo - 2 * margin) * F(rng.randint(0, 100), 100)
            quad = margin / (4 * right)
            g = FunctionSpec((slope, quad))
            report = verify_mvt_bounds(gap, left, right, tau, g)
            assert report.hypotheses_ok, report.to_json()
            assert report.conclusion_ok, report.to_json()
            passed += 1
        assert passed == 200
        # Constructed violation: slope 1/(2 tau) breaks the window floor and
        # drags the image below the gap width.
        bad = verify_mvt_bounds(1, 3, 2, F(2), FunctionSpec((F(1, 4),)))
        assert not bad.hypotheses["derivative_window_lower"]
        assert not bad.lower_ok


def test_criterion_9_image_stage_thickness_exceeds_rho_tau():
    with criterion(9, "exact image-stage thickness > rho*tau in every accepted run", 60.0):
        runs = [
            (middle_alpha_family(F(1, 5)), GENTLE),
            (middle_alpha_family(F(1, 5)), FunctionSpec((F(1),))),
            (middle_alpha_family(F(1, 7)), FunctionSpec((F(1), F(1, 20)))),
        ]
        for fam, f in runs:
            result = find_config(fam, f, SearchConfig(max_depth=8))
            assert result.image_thickness_min > result.rho_tau
            assert result.rho * result.tau >= 1
