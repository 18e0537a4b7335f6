"""Command-line behavior: round trips, reports, exit codes, rendering."""

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


def test_negative_rational_option_values_parse(capsys):
    """argparse's own negative-number pattern misses -p/q, which it would
    read as an option and leave the flag without its value."""
    sweep = ["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "1/2",
             "--slope-max", "3/2", "--steps", "3", "--max-depth", "5"]
    separate = run([*sweep, "--quadratic", "-1/10"], capsys)
    joined = run([*sweep, "--quadratic=-1/10"], capsys)
    assert separate == joined and separate[0] == 0
    assert separate != run(sweep, capsys)  # the quadratic term was read
    code, _, err = run(["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "-1/2",
                        "--slope-max", "1", "--steps", "2", "--max-depth", "3"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("c", [[], ["--c", "99/100"]], ids=["calibrated", "explicit-c"])
def test_verify_counterexample_refuses_a_negative_tol(c, capsys):
    code, out, err = run(["verify-counterexample", "--tau", "101/100", "--eps", "1/1000",
                          *c, "--tol", "-1"], capsys)
    assert (code, out) == (3, "")
    assert "tol must be nonnegative" in err


@pytest.mark.parametrize("c", [[], ["--c", "99/100"]], ids=["calibrated", "explicit-c"])
def test_counterexample_refuses_a_negative_tol(c, tmp_path, capsys):
    """With --c the tolerance is never read, and is refused all the same."""
    parts = tmp_path / "parts.json"
    code, out, err = run(["counterexample", "--tau", "101/100", "--eps", "1/1000",
                          *c, "--tol", "-1", "--parts", str(parts)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: tol must be nonnegative\n"
    assert not parts.exists()


def test_sweep_records_its_quadratic_term(capsys):
    sweep = ["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "3/4",
             "--slope-max", "5/4", "--steps", "2", "--max-depth", "3"]
    quadratics = []
    for extra in (["--quadratic", "-1/10"], ["--quadratic", "1/10"], []):
        code, out, _ = run([*sweep, *extra], capsys)
        assert code == 0
        quadratics.append(json.loads(out)["quadratic"])
    assert quadratics == ["-1/10", "1/10", None]


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


@pytest.mark.parametrize("argv, digest", [
    (["middle-alpha:1/5", "--slope-min", "1/2", "--slope-max", "3/2", "--steps", "3",
      "--quadratic", "-1/10"],
     "15bfde4dbd59567d5de5b8a0701475cd0914825a80ce8b2480842b9e696b383b"),
    (["random-thick:3/2:7", "--slope-min", "1/2", "--slope-max", "3/2", "--steps", "5",
      "--max-depth", "6", "--strict-window"],
     "549bb6fa9d8742f0d4a645bb618815dd3f6bba94f4ff784abc6495e3497beb71"),
    (["middle-alpha:1/3", "--slope-min", "1/2", "--slope-max", "3/2", "--steps", "3",
      "--max-depth", "6"],
     "485fce4e392cf0d1d8bd5f4fc57f203e1d5bd9fbcc7430cd733fcbe6f2174f16"),
], ids=["ci-quadratic", "random-thick-strict", "middle-third-no-window"])
def test_sweep_payload_bytes_are_pinned(argv, digest, capsys):
    """sha256 of sweep's stdout, taken while each probe still parsed the
    family and f from their texts in a worker-ready form: ok, failed and
    rejected probes, and a family with no slope window."""
    code, out, err = run(["sweep", "--set-family", *argv], capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("depth", ["0", "-5"])
def test_sweep_refuses_a_max_depth_below_1_like_find_config(capsys, depth):
    """The search config is built before any probe, so the bad depth is the
    command's exit 3, not a "failed" entry in every probe."""
    family = ["--set-family", "middle-alpha:1/5", "--max-depth", depth]
    for argv in (["find-config", "--f", "1"], ["sweep", "--slope-min", "1", "--slope-max", "2"]):
        code, out, err = run([*argv, *family], capsys)
        assert (code, out, err) == (3, "", "error: max_depth must be at least 1\n")


def test_sweep_has_no_jobs_option(capsys):
    code, out, err = run(["sweep", "--set-family", "middle-alpha:1/5", "--slope-min", "1",
                          "--slope-max", "2", "--jobs", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: unrecognized arguments: --jobs 2\n")


@pytest.mark.parametrize("coefficients", ["1,,1/10", ",1", "1,1/10,", "1, ,1/10"])
def test_find_config_refuses_an_empty_coefficient(capsys, coefficients):
    """An empty entry is never dropped: 1,,1/10 would run as t + t**2/10."""
    code, out, err = run(["find-config", "--set-family", "middle-alpha:1/5",
                          "--f", coefficients, "--max-depth", "4"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: empty entry in coefficient list {coefficients!r}\n"


@pytest.mark.parametrize("extra", [["--seed", "9"], ["--gap-placement", "1/2"],
                                   ["--seed", "0"], ["--seed", "9", "--gap-placement", "1/2"]])
def test_construct_middle_alpha_refuses_random_thick_options(capsys, extra):
    code, out, err = run(["construct", "--middle-alpha", "1/3", "--depth", "2", *extra], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(
        "usage error: --seed and --gap-placement apply only to --random-thick\nusage: thickset")


def test_construct_random_thick_seed_defaults_to_0(capsys):
    base = ["construct", "--random-thick", "3/2", "--depth", "4"]
    assert run(base, capsys) == run([*base, "--seed", "0"], capsys)
    assert run(base, capsys) != run([*base, "--seed", "1"], capsys)


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


def test_json_parse_error_offset_counts_bytes(tmp_path, capsys):
    """The decoder's position counts characters; the report gives the
    file's byte offset, which a two-byte character before it moves."""
    text = '{"depth": 1, "note": "\u00e9", "intervals": [["0", "1/3"],'
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(["thickness", str(bad)], capsys)
    assert code == 3
    assert len(text.encode("utf-8")) == len(text) + 1
    assert err.startswith(f"JSON parse error at byte {len(text) + 1}: ")


def test_coerced_stage_json_is_a_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"depth": true, "intervals": [[0.1, "1/3"], ["2/3", 1]]}')
    code, out, err = run(["thickness", str(bad)], capsys)
    assert code == 3
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("contents, message", [
    (b"\xff\xfe{", "error: bad.json is not UTF-8 text: invalid start byte at byte 0"),
    (None, "cannot open bad.json: Is a directory"),
], ids=["not-utf8", "directory"])
def test_unreadable_stage_file_is_exit_3(tmp_path, capsys, monkeypatch, contents, message):
    monkeypatch.chdir(tmp_path)
    if contents is None:
        os.mkdir("bad.json")
    else:
        (tmp_path / "bad.json").write_bytes(contents)
    for verb in (["thickness"], ["render"], ["check-gap-lemma", "bad.json"]):
        code, out, err = run([*verb, "bad.json"], capsys)
        assert (code, out, err) == (3, "", message + "\n")


def test_stage_file_without_read_permission_is_exit_3(tmp_path, capsys, monkeypatch):
    """Faked: a process that may read every file meets no PermissionError."""

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run(["thickness", str(tmp_path / "k.json")], capsys)
    assert (code, out) == (3, "")
    assert err == f"cannot open {tmp_path / 'k.json'}: Permission denied\n"


def test_deeply_nested_stage_file_is_exit_3(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for verb in (["thickness"], ["render"], ["check-gap-lemma", str(deep)]):
        code, out, err = run([*verb, str(deep)], capsys)
        assert (code, out, err) == (3, "", "error: stage JSON is nested too deeply\n")


@pytest.mark.parametrize("text, message", [
    ('{"depth": 1, "intervals": [["0", "1"]], "depth": 2}',
     "error: duplicate key in stage JSON: 'depth'\n"),
    ('{"depth": 1, "intervals": [["0", "0/-1"]]}',
     "error: malformed stage object: Invalid literal for Fraction: '0/-1'\n"),
], ids=["duplicate-key", "negative-denominator"])
def test_refused_stage_files_are_exit_3(tmp_path, capsys, text, message):
    """A key written twice is refused, never resolved by its last copy."""
    stage = tmp_path / "k.json"
    stage.write_text(text)
    for verb in (["thickness", "--json"], ["bridges"], ["render"], ["check-gap-lemma", str(stage)]):
        code, out, err = run([*verb, str(stage)], capsys)
        assert (code, out, err) == (3, "", message)


@pytest.mark.parametrize("token, code, message", [
    ("0", 0, ""), ("true", 3, "error: booleans are not accepted as coordinates: True\n"),
], ids=["json-int", "json-true"])
def test_a_construct_file_with_a_json_literal_first_endpoint(tmp_path, capsys, token, code, message):
    """The JSON int 0 loads as the string "0" did; true is refused."""
    written = tmp_path / "k.json"
    assert run(["construct", "--random-thick", "3/2", "--depth", "9", "--seed", "7",
                "--out", str(written)], capsys)[0] == 0
    text = written.read_text()
    assert '"0"' in text.split(",")[1]
    edited = tmp_path / "edited.json"
    edited.write_text(text.replace('"0"', token, 1))
    expected = run(["thickness", str(written)], capsys)
    got = run(["thickness", str(edited)], capsys)
    assert got == ((0, expected[1], "") if code == 0 else (3, "", message))


_LONG = "1" + "0" * 5000


@pytest.mark.parametrize("text, message", [
    ('{"depth": 1, "intervals": [[0, %s]]}' % _LONG, "error: malformed stage JSON: "),
    ('{"depth": %s, "intervals": [[0, 1]]}' % _LONG, "error: malformed stage JSON: "),
    ('{"depth": 1, "intervals": [["0", "%s"]]}' % _LONG, "error: malformed stage object: "),
    ('{"depth": 1, "intervals": [["0", "1e1000000000"]]}',
     "error: decimal exponent out of range: its magnitude may be at most 4300\n"),
], ids=["integer-coordinate", "integer-depth", "string-coordinate", "huge-exponent"])
def test_stage_files_past_the_digit_limit_are_exit_3(tmp_path, capsys, text, message):
    big = tmp_path / "big.json"
    big.write_text(text)
    code, out, err = run(["thickness", str(big)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert "4300" in err


@pytest.mark.parametrize("verb", ["counterexample", "verify-counterexample"])
def test_counterexample_too_long_to_write_is_exit_3(capsys, verb):
    """eps**2 has 4,401 digits, over the limit for integer text."""
    code, out, err = run([verb, "--tau", "101/100", "--eps", "1/1" + "0" * 2200,
                          "--c", "999/1000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: rational too long to write: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def _too_long_local_thickness(tmp_path):
    """A stage whose endpoints write, with 2,201-digit denominators, but
    whose local thicknesses are ratios of two such gaps: over 4,300 digits."""
    a, b, c = 4 * 10 ** 2200 + 1, 3 * 10 ** 2200 + 7, 2 * 10 ** 2200 + 9
    stage_file = tmp_path / "long.json"
    stage_file.write_text(json.dumps(
        {"depth": 1, "intervals": [["0", f"1/{a}"], [f"1/{b}", f"1/{c}"], ["1/7", "1"]]}))
    return str(stage_file)


@pytest.mark.parametrize("verb", ["render", "bridges"])
def test_a_label_too_long_to_write_is_exit_3(tmp_path, capsys, verb):
    code, out, err = run([verb, _too_long_local_thickness(tmp_path)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: rational too long to write: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["render", "bridges"])
def test_a_failed_write_leaves_the_out_file_untouched(tmp_path, capsys, verb):
    """Every text is written before --out is opened."""
    out = tmp_path / "out.json"
    out.write_bytes(b"kept\n")
    code, _, err = run([verb, _too_long_local_thickness(tmp_path), "--out", str(out)], capsys)
    assert code == 3 and err.startswith("error: rational too long to write: ")
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--middle-alpha", "1e1000000000", "--depth", "2"],
    ["find-config", "--set-family", "random-thick:1e-1000000000", "--f", "1"],
    ["find-config", "--set-family", "middle-alpha:1/5", "--f", "1,1e1000000000"],
], ids=["flag", "family-spec", "function"])
def test_a_huge_decimal_exponent_in_an_option_is_exit_3(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (
        3, "", "error: decimal exponent out of range: its magnitude may be at most 4300\n")


@pytest.mark.parametrize("delta", ["-1", "0"])
def test_find_config_nonpositive_delta_is_exit_3(capsys, delta):
    code, out, err = run(["find-config", "--set-family", "middle-alpha:1/5", "--f", "1",
                          "--delta", delta], capsys)
    assert (code, out, err) == (3, "", "error: delta must be positive\n")


@pytest.mark.parametrize("family", ["random-thick:2:abc", "random-thick:2:", "random-thick:2:1.5"])
def test_bad_family_seed_is_a_usage_error(capsys, family):
    for argv in (["find-3ap"], ["find-config", "--f", "1"],
                 ["sweep", "--slope-min", "1", "--slope-max", "2"]):
        code, out, err = run([*argv, "--set-family", family, "--max-depth", "4"], capsys)
        assert (code, out) == (3, "")
        seed = family.split(":")[2]
        assert err.startswith(f"usage error: not an integer seed: {seed!r}\nusage: thickset")
        assert "Traceback" not in err


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


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["thickness", "--help"]])
def test_help_into_a_closed_pipe_is_exit_3(argv, unbuffered):
    """The parser writes and flushes the help itself: argparse would swallow
    an unbuffered write's error and leave a buffered one to the exit flush.
    Either way the closed pipe is met inside main."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
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


@pytest.mark.parametrize("pair, digest", [
    ("thick", "23ef41dcacff0941e93aa83ddc90882283a0c2876c48dbedd487f7f1292e39da"),
    ("points", "8268a8b876c2ad89c702c20ae4629dcdd3fa87ad713638eadcce2f4e45a8b944"),
], ids=["random-thick", "point-intervals"])
def test_check_gap_lemma_payload_is_pinned(tmp_path, capsys, pair, digest):
    """sha256 of the check-gap-lemma output, taken while ``common`` was
    written from one Fraction per endpoint: on two depth-9 random-thick
    files, and on a depth-6 random-thick stage against the closures of its
    own gaps, whose intersection is the 126 touching points, each a point
    interval."""
    a, b, out_file = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
    construct = ["construct", "--random-thick", "5/2", "--seed", "3", "--out", str(a)]
    if pair == "thick":
        assert run([*construct, "--depth", "9"], capsys)[0] == 0
        assert run(["construct", "--random-thick", "3", "--depth", "9", "--seed", "4",
                    "--gap-placement", "1/3", "--out", str(b)], capsys)[0] == 0
    else:
        assert run([*construct, "--depth", "6"], capsys)[0] == 0
        pairs = json.loads(a.read_text())["intervals"]
        gaps = [[x[1], y[0]] for x, y in zip(pairs, pairs[1:])]
        b.write_text(json.dumps({"depth": 6, "intervals": gaps}))
    assert run(["check-gap-lemma", str(a), str(b), "--out", str(out_file)], capsys)[0] == 0
    if pair == "points":
        common = json.loads(out_file.read_text())["intersection"]["common"]
        assert len(common) == 126 and all(lo == hi for lo, hi in common)
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("verb, digest", [
    (["bridges"], "927a0a5e755073df699d427130e5276120b944e9ba3b842b8491506b46cf591c"),
    (["thickness", "--json"], "da120ad5a54d680e73413c1b63f46d019d75ae5cdc7a4f2e0883ba4ed9e5df07"),
], ids=["bridges", "thickness"])
def test_middle_thirds_bridge_outputs_are_pinned(tmp_path, capsys, verb, digest):
    """sha256 of the bridges payload and the thickness report on middle
    thirds at depth 8, taken from the two-pass bridge scan with a Fraction
    per row.  Every gap of one level has the same length, so its bridges
    chain through ties.  The same two outputs on a depth-9 random-thick
    stage are pinned above and in the session digests."""
    stage_file, out_file = tmp_path / "k.json", tmp_path / "out.json"
    argv = ["construct", "--middle-alpha", "1/3", "--depth", "8", "--out", str(stage_file)]
    assert run(argv, capsys)[0] == 0
    assert run([*verb, str(stage_file), "--out", str(out_file)], capsys)[0] == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("extra", [[], ["--log-x"]], ids=["linear", "log"])
def test_render_refuses_coordinates_past_the_float_range(tmp_path, capsys, extra):
    """A stage beyond the float range is valid and has a thickness, but has
    no pixel column: render refuses it with exit 3."""
    stage_file = tmp_path / "huge.json"
    stage_file.write_text('{"depth": 0, "intervals": [["1e400", "2e400"], ["3e400", "4e400"]]}')
    assert run(["thickness", str(stage_file)], capsys)[0] == 0
    code, out, err = run(["render", str(stage_file), *extra], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: coordinates too large to render: "
                   "integer division result too large for a float\n")


def test_render_refuses_a_hull_wider_than_a_float(tmp_path, capsys):
    """Each coordinate fits a float but the hull width does not: the linear
    map has no finite span and exits 3; the log map compresses the hull and
    renders every column."""
    stage_file = tmp_path / "wide.json"
    stage_file.write_text('{"depth": 0, "intervals": [["-1e308", "-9e307"], ["9e307", "1e308"]]}')
    code, out, err = run(["render", str(stage_file)], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: coordinates too large to render: "
                   "the hull is wider than a float holds\n")
    code, out, err = run(["render", str(stage_file), "--log-x"], capsys)
    assert (code, err) == (0, "")
    assert out.count('class="interval"') == 2 and "nan" not in out and "inf" not in out


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


# sha256 of every JSON file of a CLI session, taken before the indented
# writer replaced json.dumps(indent=2): stage files, reports and the sidecar.
_SESSION_DIGESTS = {
    "a.json": "0b6bdaabee7f1b3ace8200cad561bdeb0b3b7fedcceea4261fc04d2daccb2e4c",
    "thickness.json": "8aec989ffabe97639972662fbaa2a3e9296d7df6418bdc677f49f2ae72c00d1a",
    "gap-lemma.json": "a46fbc8f7ca694138d91b5646f78d3758eba23bb2d9ef15a984c12c5fac22c20",
    "3ap.json": "72f19a513894cbe32f638866a8f8b88f5e7af8d92929335d80937b491ec377c1",
    "cx.json": "7b54961575ccb725771944dccb62d9ce897c12cd2596e043bb30305c74582d87",
    "cx-parts.json": "35dbd22941d46e80db8495607e5e77b5d8d218f349f0248d20793082bf3ecc42",
    "cx-verify.json": "0abcc70ff6ee389ed24e55002ec70bc832e2f17ef4494a400712e9a1205e2059",
}


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("session")
    cx = ["--tau", "101/100", "--eps", "1/400"]
    for argv in (
        ["construct", "--random-thick", "3/2", "--depth", "9", "--seed", "1", "--out", "a.json"],
        ["construct", "--random-thick", "2", "--depth", "9", "--seed", "2", "--out", "b.json"],
        ["thickness", "--json", "a.json", "--out", "thickness.json"],
        ["check-gap-lemma", "a.json", "b.json", "--out", "gap-lemma.json"],
        ["find-3ap", "--set-family", "random-thick:3/2:1", "--max-depth", "9",
         "--out", "3ap.json"],
        ["counterexample", *cx, "--out", "cx.json", "--parts", "cx-parts.json"],
        ["verify-counterexample", *cx, "--out", "cx-verify.json"],
    ):
        paths = [str(d / a) if a.endswith(".json") else a for a in argv]
        assert main(paths) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(_SESSION_DIGESTS))
def test_session_json_bytes_are_pinned(session_dir, name):
    text = (session_dir / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _SESSION_DIGESTS[name]
