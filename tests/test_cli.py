"""Command-line behavior: round trips, reports, exit codes, rendering."""

import concurrent.futures
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from thickset import cli
from thickset.cli import main
from conftest import thin_below_family


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_thickness_round_trip(tmp_path, capsys):
    stage_file = tmp_path / "k.json"
    code, _, _ = run(
        ["construct", "--middle-alpha", "1/5", "--depth", "8", "--out", str(stage_file)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["thickness", str(stage_file)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert "argmin endpoint" in out


def test_construct_serialize_parse_identity(tmp_path, capsys):
    stage_file = tmp_path / "k.json"
    run(["construct", "--random-thick", "3/2", "--depth", "5", "--seed", "9",
         "--out", str(stage_file)], capsys)
    first = json.loads(stage_file.read_text())
    run(["construct", "--random-thick", "3/2", "--depth", "5", "--seed", "9",
         "--out", str(stage_file)], capsys)
    assert json.loads(stage_file.read_text()) == first


def test_thickness_json_report(tmp_path, capsys):
    stage_file = tmp_path / "k.json"
    run(["construct", "--middle-alpha", "1/3", "--depth", "3", "--out", str(stage_file)], capsys)
    code, out, _ = run(["thickness", str(stage_file), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["thickness"] == "1"
    assert data["argmin"]["side"] in ("left", "right")


def test_bridges_report(tmp_path, capsys):
    stage_file = tmp_path / "k.json"
    run(["construct", "--middle-alpha", "1/3", "--depth", "2", "--out", str(stage_file)], capsys)
    code, out, _ = run(["bridges", str(stage_file)], capsys)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 2 * 3  # four intervals, three bounded gaps
    assert all(r["local_thickness"] == "1" for r in reports)


def test_check_gap_lemma_report(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["construct", "--middle-alpha", "1/3", "--depth", "3", "--out", str(a)], capsys)
    run(["construct", "--middle-alpha", "1/5", "--depth", "3", "--out", str(b)], capsys)
    code, out, _ = run(["check-gap-lemma", str(a), str(b)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["applies"] is True
    assert data["intersection"] is not None


def test_find_3ap_witness_json(capsys):
    code, out, _ = run(
        ["find-3ap", "--set-family", "middle-alpha:1/3", "--max-depth", "10"], capsys
    )
    assert code == 0
    witness = json.loads(out)
    assert witness["x"] == "2/3"
    assert witness["t"] == ["1/3", "1/3"]
    assert len(witness["chains"]) == 3
    assert all(len(chain) == witness["depth"] + 1 for chain in witness["chains"])


def test_find_config_witness_json(capsys):
    code, out, err = run(
        ["find-config", "--set-family", "middle-alpha:1/5", "--f", "1,1/10",
         "--max-depth", "10"],
        capsys,
    )
    assert code == 0
    witness = json.loads(out)
    assert set(witness) == {"x", "t", "ft", "depth", "chains"}
    assert witness["depth"] >= 10
    t_lo, t_hi = F(witness["t"][0]), F(witness["t"][1])
    assert 0 < t_lo <= t_hi
    assert "min image thickness" in err


def test_find_config_random_thick_witness_json(capsys):
    # The family certifies thickness 2, the tau find-config gates on.
    code, out, err = run(
        ["find-config", "--set-family", "random-thick:2:1", "--f", "1", "--max-depth", "8"],
        capsys,
    )
    assert code == 0
    assert err.startswith("thickness 2, rho*tau 3/2, min image thickness 8561466953/4279926784")
    witness = json.loads(out)
    assert witness["x"] == ("86629765844792419022722056528721239027399255493689/"
                            "142724769270595988105828596944949513638274662400000")
    digest = hashlib.sha256(json.dumps(witness).encode()).hexdigest()
    assert digest == "e44c3c8c1ed138ba5edef71c84899b174b54d19953114cb672bbc737fe36f7a0"


def test_find_config_thin_below_the_gate_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parse_family", lambda spec: thin_below_family(5))
    code, _, err = run(["find-config", "--set-family", "thin", "--f", "1", "--max-depth", "8"],
                       capsys)
    assert code == 1
    assert "hypothesis violated" in err and "at depth 6 is below the floor 2" in err


def test_find_config_hypothesis_exit_code(capsys):
    code, _, err = run(
        ["find-config", "--set-family", "middle-alpha:1/5", "--f", "0,1",
         "--max-depth", "6"],
        capsys,
    )
    assert code == 1
    assert "hypothesis violated" in err and "slope window" in err


def test_find_3ap_thin_family_exit_code(capsys):
    code, _, err = run(
        ["find-3ap", "--set-family", "middle-alpha:1/2", "--max-depth", "6"], capsys
    )
    assert code == 1
    assert "hypothesis violated" in err


def test_counterexample_with_parts_sidecar(tmp_path, capsys):
    stage_file = tmp_path / "cx.json"
    parts_file = tmp_path / "parts.json"
    code, _, _ = run(
        ["counterexample", "--tau", "101/100", "--eps", "1/1000",
         "--out", str(stage_file), "--parts", str(parts_file)],
        capsys,
    )
    assert code == 0
    stage = json.loads(stage_file.read_text())
    assert len(stage["intervals"]) == 5
    parts = json.loads(parts_file.read_text())
    assert set(parts) >= {"I1", "I2", "I3", "I4", "I5", "G1", "G2", "G3", "G4",
                          "alpha", "beta"}
    assert parts["G2"] == ["-1/1000", "0"]


def test_verify_counterexample_all_pass(capsys):
    code, out, _ = run(
        ["verify-counterexample", "--tau", "101/100", "--eps", "1/1000"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["thickness"] == "101/100"


def test_render_svg_structure(tmp_path, capsys):
    stage_file = tmp_path / "k.json"
    run(["construct", "--middle-alpha", "1/3", "--depth", "3", "--out", str(stage_file)], capsys)
    svg_file = tmp_path / "k.svg"
    code, _, _ = run(["render", str(stage_file), "--out", str(svg_file)], capsys)
    assert code == 0
    root = ET.fromstring(svg_file.read_text())  # valid XML
    ns = "{http://www.w3.org/2000/svg}"
    intervals = [e for e in root.iter(f"{ns}line") if e.get("class") == "interval"]
    bridges = [e for e in root.iter(f"{ns}path") if e.get("class") == "bridge"]
    assert len(intervals) == 8
    assert len(bridges) == 2 * 7  # two bridges per bounded gap


def test_render_log_scale_counterexample(tmp_path, capsys):
    stage_file = tmp_path / "cx.json"
    run(["counterexample", "--tau", "101/100", "--eps", "1/1000",
         "--out", str(stage_file)], capsys)
    svg_file = tmp_path / "cx.svg"
    code, _, _ = run(["render", str(stage_file), "--out", str(svg_file), "--log-x"], capsys)
    assert code == 0
    root = ET.fromstring(svg_file.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    intervals = [e for e in root.iter(f"{ns}line") if e.get("class") == "interval"]
    assert len(intervals) == 5


def test_sweep_reports_probe_outcomes(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    code, _, _ = run(
        ["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "1/2",
         "--slope-max", "3/2", "--steps", "5", "--max-depth", "5",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert "experimental" in data["mode"]
    assert data["window"] == ["2/3", "3/2"]
    assert len(data["results"]) == 5
    statuses = {r["slope"]: r["status"] for r in data["results"]}
    assert statuses["1"] == "ok"  # slope 1 is inside the window
    inside = {r["slope"]: r["in_window"] for r in data["results"]}
    assert inside["1/2"] is False and inside["1"] is True
    assert inside["3/2"] is False  # the window is open at its edge


def test_sweep_reports_the_tau_find_config_gates_on(tmp_path, capsys):
    # find-config names its tau when it rejects a slope outside the window:
    # the family's certified bound, which sweep reports too.
    family = "random-thick:3/2:0"
    code, _, err = run(["find-config", "--set-family", family, "--f", "10"], capsys)
    assert code == 1
    gated_tau = err.strip().rsplit("for thickness ", 1)[1]
    out_file = tmp_path / "sweep.json"
    code, _, _ = run(
        ["sweep", "--set-family", family, "--slope-min", "1", "--slope-max", "2",
         "--steps", "2", "--max-depth", "2", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_file.read_text())["tau"] == gated_tau == "3/2"


def test_sweep_parallel_matches_sequential(tmp_path, capsys):
    args = ["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "3/4",
            "--slope-max", "5/4", "--steps", "3", "--max-depth", "4"]
    seq_file = tmp_path / "seq.json"
    par_file = tmp_path / "par.json"
    assert run(args + ["--out", str(seq_file)], capsys)[0] == 0
    assert run(args + ["--jobs", "2", "--out", str(par_file)], capsys)[0] == 0
    assert json.loads(seq_file.read_text()) == json.loads(par_file.read_text())


def test_sweep_jobs_clamped_to_probes_and_cpus(tmp_path, capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """In-process stand-in that records the worker count it was given."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "3/4",
            "--slope-max", "5/4", "--steps", "3", "--max-depth", "4"]
    seq_file = tmp_path / "seq.json"
    assert run(args + ["--out", str(seq_file)], capsys)[0] == 0
    for cpus, expected in ((64, [3]), (2, [3, 2]), (None, [3, 2]), (1, [3, 2])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out_file = tmp_path / "clamped.json"
        assert run(args + ["--jobs", "100000", "--out", str(out_file)], capsys)[0] == 0
        assert sizes == expected
        assert json.loads(out_file.read_text()) == json.loads(seq_file.read_text())


def test_render_single_interval_stage(tmp_path, capsys):
    stage_file = tmp_path / "one.json"
    stage_file.write_text('{"depth": 0, "intervals": [["0", "1"]]}')
    svg_file = tmp_path / "one.svg"
    code, _, _ = run(["render", str(stage_file), "--out", str(svg_file)], capsys)
    assert code == 0
    root = ET.fromstring(svg_file.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len([e for e in root.iter(f"{ns}line") if e.get("class") == "interval"]) == 1


def test_malformed_json_reports_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"depth": 1, "intervals": [["0", "1/3"],')
    code, _, err = run(["thickness", str(bad)], capsys)
    assert code == 3
    assert "JSON parse error at byte" in err


def test_coerced_stage_json_is_a_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"depth": true, "intervals": [[0.1, "1/3"], ["2/3", 1]]}')
    code, out, err = run(["thickness", str(bad)], capsys)
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_unknown_verb_prints_usage(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 3
    assert "usage" in err.lower()


def test_missing_file_is_usage_class_error(capsys):
    code, _, err = run(["thickness", "/nonexistent/path.json"], capsys)
    assert code == 3
    assert "not found" in err


def test_find_config_has_no_precision_option(capsys):
    # The search maps offsets forward exactly, so there is no inverse
    # precision to set.
    code, _, err = run(
        ["find-config", "--set-family", "middle-alpha:1/5", "--f", "1",
         "--max-depth", "6", "--precision", "1/2"],
        capsys,
    )
    assert code == 3
    assert "--precision" in err


def test_depth_over_the_interval_budget_is_refused_before_refining(monkeypatch, capsys):
    """Only depths over the budget are asked for; a refinement would fail
    the test instead of building a huge stage."""

    def refuse(*_):
        raise AssertionError("refined a stage for a depth over the budget")

    monkeypatch.setattr("thickset.constructions.RefinableFamily.stage", refuse)
    limit = cli.INTERVAL_BUDGET.bit_length() - 1
    assert 2 ** limit <= cli.INTERVAL_BUDGET < 2 ** (limit + 1)
    family = ["--set-family", "middle-alpha:1/5"]
    for depth in (limit + 1, 10 ** 12):
        for flag, argv in (
            ("--depth", ["construct", "--random-thick", "2", "--depth", str(depth)]),
            ("--depth", ["construct", "--middle-alpha", "1/3", "--depth", str(depth)]),
            ("--max-depth", ["find-3ap", *family, "--max-depth", str(depth)]),
            ("--max-depth", ["find-config", *family, "--f", "1", "--max-depth", str(depth)]),
            ("--max-depth", ["sweep", *family, "--slope-min", "1", "--slope-max", "2",
                             "--max-depth", str(depth)]),
        ):
            code, out, err = run(argv, capsys)
            assert code == 3 and out == ""
            assert err == (f"error: {flag} {depth} asks for 2**{depth} intervals, over the "
                           f"budget of {cli.INTERVAL_BUDGET} (retry with {flag} {limit} or "
                           f"less)\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing, or only flushing, raises."""

    def __init__(self, on):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on", ["write", "flush"])
def test_output_closed_early_is_exit_3(tmp_path, capsys, monkeypatch, on):
    """Long output meets the closed pipe in a write, output that fits the
    buffer only in the flush."""
    stage_file = tmp_path / "k.json"
    run(["construct", "--middle-alpha", "1/3", "--depth", "4", "--out", str(stage_file)], capsys)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(on))
    code = main(["bridges", str(stage_file)])
    assert code == 3
    assert capsys.readouterr().err == "error: output closed early (broken pipe)\n"


@pytest.mark.parametrize("verb", [["bridges"], ["thickness", "--json"]])
def test_output_closed_early_through_a_real_pipe(tmp_path, capsys, verb):
    """A pipe whose reader is gone before the command starts: the ~450 kB
    bridge report meets it in a write, the short thickness report in the
    flush, and neither prints a traceback, not even from the exit flush."""
    stage_file = tmp_path / "k.json"
    run(["construct", "--random-thick", "2", "--depth", "8", "--seed", "1",
         "--out", str(stage_file)], capsys)
    # Buffered stdout, the default: short output reaches the pipe only in the flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "thickset.cli", *verb, str(stage_file)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.decode() == "error: output closed early (broken pipe)\n"


@pytest.mark.parametrize("argv", [["--help"], ["thickness", "--help"]])
def test_help_into_a_closed_pipe_is_exit_3(argv):
    """argparse prints the help into stdout's buffer and exits; the parser
    flushes it first, so the closed pipe is met inside main."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "thickset.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert "Exception ignored" not in proc.stderr.decode()
    assert proc.stderr.decode() == "error: output closed early (broken pipe)\n"


def test_help_is_printed_by_the_cached_parser(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: thickset")
    assert cli._build_parser() is cli._build_parser()


def test_bridges_json_bytes_are_pinned(tmp_path, capsys):
    """sha256 of the bridges verb's output on a depth-9 random-thick stage,
    taken from the checked-constructor reports the bridge rows replaced."""
    stage_file = tmp_path / "a.json"
    out_file = tmp_path / "bridges.json"
    run(["construct", "--random-thick", "3/2", "--depth", "9", "--seed", "1",
         "--out", str(stage_file)], capsys)
    assert run(["bridges", str(stage_file), "--out", str(out_file)], capsys)[0] == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "7a10bc48268cf10a74779177d356448540103f2baa6e3515a721e878a822cd82"


def test_find_config_tiny_delta_stops_at_the_scan_limit(capsys):
    """subset_extract scans as deep as the interval budget allows, then
    gives up (a scan to depth 23 would not finish); the hint names the
    option a user can change."""
    limit = cli.INTERVAL_BUDGET.bit_length() - 1
    code, out, err = run(["find-config", "--set-family", "middle-alpha:1/5", "--f", "1",
                          "--delta", "1/1000000000", "--max-depth", "4"], capsys)
    assert code == 3 and out == ""
    assert err == (f"error: no gap suitable for extraction within 1/1000000000 of the largest "
                   f"gap up to depth {limit} (retry with a larger --delta)\n")
