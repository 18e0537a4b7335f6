"""The benchmark's three workloads.

A workload turns (seed, operation index) into the inputs of one operation,
runs the operation through thickset's public API or ``thickset.cli.main``,
and checks the output against ``oracles``.  Operations come in rounds: a
round holds one operation of every kind the workload mixes, and a run
attempts whole rounds only, so any kind that fails takes the same share of
every run.  Every operation builds fresh families, so no stage cached by one
operation makes a later one cheaper.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import oracles
import thickset
from thickset import cli

TAUS = (F(1), F(3, 2), F(2), F(3))


def _pairs(stage) -> list[oracles.Pair]:
    return [(iv.lo, iv.hi) for iv in stage.intervals]


def _json_pairs(rows) -> list[oracles.Pair]:
    return [(F(lo), F(hi)) for lo, hi in rows]


class OperationFailed(Exception):
    """The operation ended without a result, e.g. a CLI verb exited nonzero."""


class Workload:
    name = ""
    round_size = 1
    tail_percentile = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.bytes_written = 0

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def inputs(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems found in the operation's output; empty when correct."""
        raise NotImplementedError


class GapLemma(Workload):
    """``persistent_intersect(check=True)`` over depths 1..8 on two fresh
    random-thick families, the second shifted right by a small offset."""

    name = "gap-lemma"
    round_size = len(TAUS) ** 2
    tail_percentile = 90
    DEPTH = 8

    def inputs(self, index):
        rng = self.rng(index)
        tau1 = TAUS[index % 4]
        tau2 = TAUS[(index // 4) % 4]
        return (tau1, rng.randrange(2 ** 32), tau2, rng.randrange(2 ** 32),
                F(1 + rng.randrange(200), 1024))

    def run(self, inp):
        tau1, seed1, tau2, seed2, shift = inp
        f1 = thickset.random_thick_family(thickset.RandomThickSpec(tau1, 0, seed1))
        f2 = thickset.AffineFamily(
            thickset.random_thick_family(thickset.RandomThickSpec(tau2, 0, seed2)),
            F(1), shift)
        k1 = f1.stages(1, self.DEPTH)
        k2 = f2.stages(1, self.DEPTH)
        return k1, k2, thickset.persistent_intersect(k1, k2, check=True)

    def check(self, inp, out):
        shift = inp[4]
        k1, k2, witness = out
        chain = [(iv.lo, iv.hi) for iv in witness.chain]
        problems = []
        if len(chain) != self.DEPTH:
            problems.append(f"chain has {len(chain)} links, expected {self.DEPTH}")
        if not oracles.is_nested_chain(chain):
            problems.append("chain links are not nested")
        for depth, link, s1, s2 in zip(range(1, self.DEPTH + 1), chain, k1, k2):
            p1, p2 = _pairs(s1), _pairs(s2)
            if len(p1) != 2 ** depth or len(p2) != 2 ** depth:
                problems.append(f"depth {depth} stages do not have {2 ** depth} intervals")
            if not (p2[0][0] == shift and p2[-1][1] == 1 + shift):
                problems.append(f"second stage at depth {depth} is not shifted by {shift}")
            if oracles.host_interval(p1, *link) is None:
                problems.append(f"link at depth {depth} is outside the first stage")
            if oracles.host_interval(p2, *link) is None:
                problems.append(f"link at depth {depth} is outside the second stage")
        if chain and not chain[-1][0] <= witness.sample_point <= chain[-1][1]:
            problems.append("sample point is outside the deepest link")
        return problems


def two_ratio_family(left: F, right: F) -> thickset.RefinableFamily:
    """Family on [0, 1] that keeps the leftmost ``left`` and the rightmost
    ``right`` share of every interval."""

    def refine(iv, _depth):
        width = iv.hi - iv.lo
        return [thickset.ClosedInterval(iv.lo, iv.lo + left * width),
                thickset.ClosedInterval(iv.hi - right * width, iv.hi)]

    root = thickset.CantorStage((thickset.ClosedInterval(F(0), F(1)),), depth=0)
    return thickset.RefinableFamily(root, refine, name=f"two-ratio:{left}:{right}")


class ConfigSearch(Workload):
    """``find_config`` at max_depth 10 on middle-alpha families (unreflected
    path, one certified inverse per right-piece endpoint) and on asymmetric
    two-ratio families (reflected path, two inverses)."""

    name = "config-search"
    ALPHAS = (F(1, 5), F(1, 6), F(1, 7), F(2, 11))
    # (left share, right share); the right bridge is the longer one, so
    # the search reflects.  Thickness is 3 or 4.
    SHAPES = ((F(3, 8), F(1, 2)), (F(2, 5), F(1, 2)), (F(1, 3), F(5, 9)), (F(3, 10), F(3, 5)))
    # f'(0) lies inside (4/5, 5/4), the slope window of the thickest family.
    POLYS = ((F(1),), (F(1), F(1, 10)), (F(9, 10), F(1, 20)), (F(11, 10), F(-1, 10)),
             (F(1), F(0), F(1, 10)), (F(21, 20), F(1, 8)), (F(17, 20),), (F(6, 5), F(-1, 20)))
    round_size = len(ALPHAS) + len(SHAPES)
    tail_percentile = 75
    MAX_DEPTH = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.offset = self.rng("offset").randrange(len(self.POLYS))

    def inputs(self, index):
        # Polynomials rotate against families, so any eight consecutive
        # rounds pair every family with every f once.  A seeded draw per
        # operation left each run a different cost mix, and the median of
        # a mix of two cost clusters moved by 12% between seeds.
        slot, rnd = index % self.round_size, index // self.round_size
        coeffs = self.POLYS[(slot + rnd + self.offset) % len(self.POLYS)]
        if slot % 2 == 0:
            alpha = self.ALPHAS[slot // 2]
            left = right = (1 - alpha) / 2
        else:
            alpha = None
            left, right = self.SHAPES[slot // 2]
        return alpha, left, right, coeffs

    def run(self, inp):
        alpha, left, right, coeffs = inp
        if alpha is not None:
            family = thickset.middle_alpha_family(alpha)
        else:
            family = two_ratio_family(left, right)
        cfg = thickset.SearchConfig(max_depth=self.MAX_DEPTH)
        return thickset.find_config(family, thickset.FunctionSpec(coeffs), cfg).witness

    def check(self, inp, witness):
        _, left, right, coeffs = inp
        t, ft, x = witness.t, witness.ft, witness.x
        problems = []
        if witness.depth < self.MAX_DEPTH:
            problems.append(f"witness depth {witness.depth} is below {self.MAX_DEPTH}")
        if not t.lo > 0:
            problems.append(f"t.lo = {t.lo} is not positive")
        if not (oracles.horner(coeffs, t.lo) <= ft.lo <= ft.hi
                <= oracles.horner(coeffs, t.hi)):
            problems.append("ft is not inside [f(t.lo), f(t.hi)]")
        points = ((x - t.hi, x - t.lo), (x, x), (x + ft.lo, x + ft.hi))
        for name, (lo, hi), chain in zip(("left", "middle", "right"), points, witness.chains):
            path = oracles.digit_path(left, right, lo, hi, witness.depth)
            if path is None:
                problems.append(f"{name} point leaves the family above depth {witness.depth}")
            elif path != [(iv.lo, iv.hi) for iv in chain]:
                problems.append(f"{name} chain differs from the digit path")
        return problems


class CliSession(Workload):
    """One scripted session through ``thickset.cli.main`` on files in a
    fresh directory: construct, inspect, intersect, search, render, and the
    counterexample with its verification."""

    name = "cli-session"
    round_size = len(TAUS)
    tail_percentile = 70
    DEPTH = 9
    CX_TAUS = (F(101, 100), F(51, 50), F(21, 20))
    CX_EPS = (F(1, 1000), F(1, 400), F(1, 100))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sessions = 0
        self.offset = self.rng("offset").randrange(len(TAUS))

    def inputs(self, index):
        # The second target rotates against the first round by round, so
        # every (tau_a, tau_b) pair recurs evenly in every run.
        rng = self.rng(index)
        tau_b = TAUS[(index // self.round_size + self.offset) % len(TAUS)]
        return (TAUS[index % 4], rng.randrange(2 ** 32), tau_b,
                rng.randrange(2 ** 32), rng.choice(self.CX_TAUS), rng.choice(self.CX_EPS))

    def script(self, inp, d):
        tau_a, seed_a, tau_b, seed_b, cx_tau, cx_eps = inp
        a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
        depth = str(self.DEPTH)
        cx = ["--tau", str(cx_tau), "--eps", str(cx_eps)]
        return [
            ["construct", "--random-thick", str(tau_a), "--depth", depth,
             "--seed", str(seed_a), "--out", a],
            ["construct", "--random-thick", str(tau_b), "--depth", depth,
             "--seed", str(seed_b), "--out", b],
            ["thickness", "--json", a, "--out", os.path.join(d, "thickness.json")],
            ["bridges", a, "--out", os.path.join(d, "bridges.json")],
            ["check-gap-lemma", a, b, "--out", os.path.join(d, "gap-lemma.json")],
            ["find-3ap", "--set-family", f"random-thick:{tau_a}:{seed_a}",
             "--max-depth", depth, "--out", os.path.join(d, "3ap.json")],
            ["render", a, "--out", os.path.join(d, "a.svg")],
            ["counterexample", *cx, "--out", os.path.join(d, "cx.json"),
             "--parts", os.path.join(d, "cx-parts.json")],
            ["verify-counterexample", *cx, "--out", os.path.join(d, "cx-verify.json")],
        ]

    def run(self, inp):
        d = os.path.join(self.workdir, f"session-{self.sessions}")
        self.sessions += 1
        os.makedirs(d)
        codes = [cli.main(argv) for argv in self.script(inp, d)]
        if any(codes):
            shutil.rmtree(d)
            raise OperationFailed(f"exit codes {codes}")
        return d

    def check(self, inp, d):
        try:
            self.bytes_written += sum(os.path.getsize(os.path.join(d, n)) for n in os.listdir(d))
            return self._check_files(inp, d)
        finally:
            shutil.rmtree(d)

    def _check_files(self, inp, d):
        tau_a, _, _, _, cx_tau, cx_eps = inp

        def load(name):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                return json.load(fh)

        problems = []
        stage_a, stage_b = load("a.json"), load("b.json")
        a, b = _json_pairs(stage_a["intervals"]), _json_pairs(stage_b["intervals"])
        if stage_a["depth"] != self.DEPTH or len(a) != 2 ** self.DEPTH:
            problems.append("stage a is not a full depth-9 stage")

        report = load("thickness.json")
        value = F(report["thickness"])
        if value < tau_a:
            problems.append(f"thickness {value} is below the target {tau_a}")
        argmin = report["argmin"]
        gap_lo = F(argmin["gap"][0])
        index = next((i for i, (_, hi) in enumerate(a[:-1]) if hi == gap_lo), None)
        if index is None:
            problems.append("argmin gap is not a gap of stage a")
        elif (oracles.bridge(a, index, argmin["side"]) != tuple(map(F, argmin["bridge"]))
              or oracles.local_thickness(a, index, argmin["side"]) != value):
            problems.append("argmin bridge differs from the oracle's bridge")

        reports = load("bridges.json")["reports"]
        if len(reports) != 2 * (len(a) - 1):
            problems.append(f"{len(reports)} bridge reports for {len(a)} intervals")
        elif min(F(r["local_thickness"]) for r in reports) != value:
            problems.append("smallest local thickness differs from the thickness verb")

        common = load("gap-lemma.json")["intersection"]
        if common is None:
            problems.append("empty intersection although both thicknesses are at least 1")
        else:
            pieces = _json_pairs(common["common"])
            if not (oracles.all_inside(a, pieces) and oracles.all_inside(b, pieces)):
                problems.append("a common interval is outside one of the stage files")

        ap = load("3ap.json")
        x, t, ft = F(ap["x"]), _json_pairs([ap["t"]])[0], _json_pairs([ap["ft"]])[0]
        if not (t == ft and t[0] > 0):
            problems.append("3-AP witness has t != f(t) or t <= 0")
        for lo, hi in ((x - t[1], x - t[0]), (x, x), (x + t[0], x + t[1])):
            if oracles.host_interval(a, lo, hi) is None:
                problems.append(f"3-AP point [{lo}, {hi}] is outside stage a")

        svg = ET.parse(os.path.join(d, "a.svg")).getroot()
        segments = [e for e in svg.iter() if e.get("class") == "interval"]
        if len(segments) != len(a):
            problems.append(f"SVG has {len(segments)} segments for {len(a)} intervals")

        parts = {k: (F(v) if isinstance(v, str) else tuple(map(F, v)))
                 for k, v in load("cx-parts.json").items()}
        pieces = [parts[f"I{k}"] for k in range(1, 6)]
        if _json_pairs(load("cx.json")["intervals"]) != pieces:
            problems.append("counterexample stage differs from its parts")
        if any(parts[f"G{k}"] != (pieces[k - 1][1], pieces[k][0]) for k in range(1, 5)):
            problems.append("counterexample gaps differ from the spaces between its pieces")
        if (parts["tau"], parts["eps"]) != (cx_tau, cx_eps):
            problems.append("counterexample parts carry other tau or eps")
        verdict = load("cx-verify.json")
        expected = oracles.avoidance(parts)
        reported = {c["name"]: c["passed"] for c in verdict["checks"]}
        if not all(expected.values()) or any(reported.get(k) != v for k, v in expected.items()):
            problems.append(f"avoidance checks {reported} differ from the oracle's {expected}")
        cx_value = oracles.thickness(pieces)
        if F(verdict["thickness"]) != cx_value or abs(cx_value - cx_tau) > F(1, 10 ** 6):
            problems.append(f"counterexample thickness {verdict['thickness']} is not {cx_value}")
        if not verdict["all_passed"]:
            problems.append("verify-counterexample did not pass")
        return problems


WORKLOADS = {w.name: w for w in (GapLemma, ConfigSearch, CliSession)}
