"""The benchmark's own checks: every oracle rejects a corrupted output, and
every workload runs a few operations on two seeds without a failure.

    python3 -m pytest -q perfbench
"""

import json
import tempfile
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import run

assert run.add_src_path(), "thickset sources not found"

import layers  # noqa: E402
import oracles  # noqa: E402
import thickset  # noqa: E402
import workloads  # noqa: E402


def pairs(stage):
    return [(iv.lo, iv.hi) for iv in stage.intervals]


def test_host_interval_rejects_a_shifted_endpoint():
    stage = pairs(thickset.middle_alpha(F(1, 3), 3))
    lo, hi = stage[5]
    assert oracles.host_interval(stage, lo, hi) == (lo, hi)
    assert oracles.host_interval(stage, lo - F(1, 10 ** 9), hi) is None
    assert oracles.all_inside(stage, stage[2:4])
    assert not oracles.all_inside(stage, [stage[2], (stage[3][0], stage[3][1] + F(1, 10 ** 9))])


def test_digit_path_matches_the_family_and_rejects_a_gap_point():
    for left, right in ((F(1, 3), F(1, 3)), (F(3, 8), F(1, 2))):
        family = workloads.two_ratio_family(left, right)
        stage = pairs(family.stage(6))
        lo, hi = stage[37]
        path = oracles.digit_path(left, right, lo, hi, 6)
        assert path == [(iv.lo, iv.hi) for iv in family.interval_chain(
            thickset.ClosedInterval(lo, hi), 6)]
        gap_point = (stage[37][1] + stage[38][0]) / 2
        assert oracles.digit_path(left, right, gap_point, gap_point, 6) is None


def test_horner_is_exact():
    assert oracles.horner((F(1), F(1, 10)), F(1, 2)) == F(1, 2) + F(1, 40)
    f = thickset.FunctionSpec((F(6, 5), F(-1, 20), F(1, 7)))
    for t in (F(0), F(1, 3), F(-5, 11)):
        assert oracles.horner(f.coefficients, t) == thickset.eval_function(f, t)


def test_bridge_and_thickness_scan_referee_the_library():
    for seed in range(6):
        stage = thickset.random_thick(thickset.RandomThickSpec(F(3, 2), 4, seed))
        ivs = pairs(stage)
        assert oracles.thickness(ivs) == thickset.thickness(stage).value
        for i, report in enumerate(thickset.all_bridge_reports(stage)):
            bridge = (report.bridge.lo, report.bridge.hi)
            assert oracles.bridge(ivs, i // 2, report.side) == bridge
            shifted = (bridge[0], bridge[1] + F(1, 10 ** 6))
            assert oracles.bridge(ivs, i // 2, report.side) != shifted


def test_avoidance_rejects_a_tampered_piece():
    params = thickset.counterexample_calibrate(F(101, 100), F(1, 1000), F(1, 10 ** 6))
    raw = thickset.counterexample_parts(params)
    parts = {k: (v.lo, v.hi) for k, v in raw.items() if k[0] in "IG"}
    parts["eps"] = params.eps
    assert all(oracles.avoidance(parts).values())
    # Moving I1's right end toward 0 pulls its reflected square below G4.
    parts["I1"] = (parts["I1"][0], parts["I1"][0] / 2)
    assert not oracles.avoidance(parts)["squares_of_I1_reflection_inside_G4"]


def test_gap_lemma_check_rejects_a_link_from_the_wrong_interval():
    workload = workloads.GapLemma(seed=3, workdir="")
    inp = workload.inputs(5)
    k1, k2, witness = workload.run(inp)
    assert workload.check(inp, (k1, k2, witness)) == []
    chain = list(witness.chain)
    wrong = next(iv for iv in k1[-1].intervals if not iv.contains_interval(chain[-1]))
    chain[-1] = wrong
    forged = types.SimpleNamespace(chain=tuple(chain), sample_point=witness.sample_point)
    assert workload.check(inp, (k1, k2, forged))


def test_config_check_rejects_ft_outside_f_of_t():
    workload = workloads.ConfigSearch(seed=3, workdir="")
    inp = workload.inputs(1)
    witness = workload.run(inp)
    assert workload.check(inp, witness) == []
    shift = witness.ft.hi - witness.ft.lo + F(1, 10 ** 30)
    ft = thickset.CertifiedValue(witness.ft.lo + shift, witness.ft.hi + shift)
    forged = types.SimpleNamespace(**{**vars(witness), "ft": ft})
    assert any("ft" in p for p in workload.check(inp, forged))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 7])
def test_workload_operations_pass_their_checks(name, seed):
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[name](seed, workdir)
        for index in range(2):
            inp = workload.inputs(index)
            assert inp == workload.inputs(index)
            assert workload.check(inp, workload.run(inp)) == []


def test_traced_layers_add_up_and_name_every_per_layer_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for name in ("gap-lemma", "config-search"):
        workload = workloads.WORKLOADS[name](seed=2, workdir="")
        tracer = layers.Tracer()
        tracer.install()
        try:
            tracer.run_op(0, workload.run, workload.inputs(0))
        finally:
            tracer.uninstall()
        metrics = {k: v for k, (v, _) in layers.layer_metrics(tracer, [1.0], 0).items()}
        assert set(metrics) == names
        # The certified inverse runs only on the configuration search.
        assert (metrics["functions.monotone_inverse.calls"] > 0) == (name == "config-search")
        parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        total = parts + metrics["trace.other_s"] + metrics["trace.unattributed_s"]
        assert total == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    assert not hasattr(thickset.core.thickness, "__wrapped__")
    assert not hasattr(thickset.RefinableFamily.stage, "__wrapped__")
