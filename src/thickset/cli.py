"""Command-line front end.

Verbs: construct, thickness, bridges, check-gap-lemma, find-3ap,
find-config, counterexample, verify-counterexample, render, sweep.

Exit codes: 0 success, 1 hypothesis violations (the named mathematical
condition the inputs fail), 2 internal contradictions (certified facts that
cannot fail under validated preconditions; report these as bugs), 3 usage,
parse, and domain errors, and output closed early (a broken pipe).

Rationals cross the CLI boundary as lowest-terms 'p/q' strings, never
floats.

A depth N builds stages of up to 2**N intervals.  ``construct --depth`` and
the ``--max-depth`` of find-3ap, find-config and sweep are checked against
``INTERVAL_BUDGET`` before any refinement; a depth over it is a domain error
(exit 3) that names the deepest depth within the budget.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import render as render_mod
from .constructions import (
    RandomThickSpec,
    StageFamily,
    counterexample_calibrate,
    counterexample_parts,
    counterexample_set,
    make_counterexample_params,
    middle_alpha_family,
    random_thick_family,
)
from .core import (
    all_bridge_reports,
    dumps_stage,
    loads_stage,
    rational_str,
    thickness,
)
from .errors import (
    DomainError,
    HypothesisError,
    InsufficientDepthError,
    InternalContradictionError,
    ThicksetError,
)
from .functions import FunctionSpec, derivative_window
from .gaplemma import check_hypotheses, intersect
from .search import (
    SearchConfig,
    config_gate_thickness,
    find_3ap,
    find_config,
    verify_counterexample,
)

USAGE_EXIT = 3
# The most intervals a requested depth may ask one stage for.  At 2**16,
# `construct --random-thick 2 --depth 16` peaks at about 250 MB of memory
# and writes 39 MiB of JSON (Python 3.11 on a 2-core x86-64 host).
INTERVAL_BUDGET = 2 ** 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # --help has printed into stdout's buffer: flush it here, inside
        # main, where a closed pipe is exit 3 like every other verb.
        sys.stdout.flush()
        super().exit(status, message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational number: {text!r} ({exc})") from exc


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_stage_file(path: str):
    return loads_stage(_read_text(path))


def _check_budget(flag: str, depth: int) -> None:
    """Raise DomainError when 2**depth intervals exceed INTERVAL_BUDGET
    (compared by bit length, so a huge depth costs nothing)."""
    limit = INTERVAL_BUDGET.bit_length() - 1
    if depth > limit:
        raise DomainError(
            f"{flag} {depth} asks for 2**{depth} intervals, over the budget of "
            f"{INTERVAL_BUDGET} (retry with {flag} {limit} or less)"
        )


def _parse_family(spec: str) -> StageFamily:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "middle-alpha" and len(parts) == 2:
        return middle_alpha_family(_fraction(parts[1]))
    if kind == "random-thick" and len(parts) in (2, 3):
        seed = int(parts[2]) if len(parts) == 3 else 0
        return random_thick_family(
            RandomThickSpec(target_tau=_fraction(parts[1]), depth=0, seed=seed)
        )
    raise _UsageError(
        f"unknown family spec {spec!r}; use middle-alpha:ALPHA or random-thick:TAU[:SEED]"
    )


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="thickset", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="VERB")

    p = sub.add_parser("construct", help="build a stage and emit its JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--middle-alpha", type=_fraction, metavar="ALPHA")
    group.add_argument("--random-thick", type=_fraction, metavar="TAU")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap-placement", type=_fraction, default=None)
    p.add_argument("--out")

    p = sub.add_parser("thickness", help="exact thickness of a stage file")
    p.add_argument("stage")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--out")

    p = sub.add_parser("bridges", help="all gap/bridge reports of a stage file")
    p.add_argument("stage")
    p.add_argument("--out")

    p = sub.add_parser("check-gap-lemma", help="hypothesis verdict and exact intersection")
    p.add_argument("stage1")
    p.add_argument("stage2")
    p.add_argument("--out")

    p = sub.add_parser("find-3ap", help="certified 3-term arithmetic progression")
    p.add_argument("--set-family", required=True)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--out")

    p = sub.add_parser("find-config", help="certified configuration {x-t, x, x+f(t)}")
    p.add_argument("--set-family", required=True)
    p.add_argument("--f", required=True, metavar="C1,C2,...",
                   help="polynomial coefficients, no constant term")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--rho", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--out")

    p = sub.add_parser("counterexample", help="build the five-interval avoidance set")
    p.add_argument("--tau", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, default=None,
                   help="explicit c; omit to calibrate to thickness tau")
    p.add_argument("--tol", type=_fraction, default=Fraction(1, 10 ** 6))
    p.add_argument("--out")
    p.add_argument("--parts", help="sidecar JSON of named pieces")

    p = sub.add_parser("verify-counterexample", help="exact avoidance verification")
    p.add_argument("--tau", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, default=None)
    p.add_argument("--tol", type=_fraction, default=Fraction(1, 10 ** 6))
    p.add_argument("--out")

    p = sub.add_parser("render", help="SVG with interval segments and bridge braces")
    p.add_argument("stage")
    p.add_argument("--out")
    p.add_argument("--log-x", action="store_true")

    p = sub.add_parser(
        "sweep",
        help="EXPERIMENTAL: grid over f'(0) around the slope window, recording "
             "find-config outcomes",
    )
    p.add_argument("--set-family", required=True)
    p.add_argument("--slope-min", type=_fraction, required=True)
    p.add_argument("--slope-max", type=_fraction, required=True)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--quadratic", type=_fraction, default=None,
                   help="optional fixed quadratic coefficient")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--strict-window", action="store_true",
                   help="reject slopes outside the window instead of probing them")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the probe grid (searches are pure)")
    p.add_argument("--out")
    return parser


def _cmd_construct(args) -> int:
    _check_budget("--depth", args.depth)
    if args.middle_alpha is not None:
        stage = middle_alpha_family(args.middle_alpha).stage(args.depth)
    else:
        spec = RandomThickSpec(
            target_tau=args.random_thick,
            depth=args.depth,
            seed=args.seed,
            gap_placement=args.gap_placement,
        )
        stage = random_thick_family(spec).stage(args.depth)
    _write_out(dumps_stage(stage, indent=2), args.out)
    return 0


def _cmd_thickness(args) -> int:
    stage = _load_stage_file(args.stage)
    value, argmin = thickness(stage)
    if args.as_json:
        payload = {"thickness": rational_str(value), "argmin": argmin.to_json()}
        _write_out(json.dumps(payload, indent=2), args.out)
    else:
        text = (
            f"{rational_str(value)}\n"
            f"argmin endpoint {rational_str(argmin.endpoint)} ({argmin.side} side): "
            f"gap {argmin.gap}, bridge {argmin.bridge}"
        )
        _write_out(text, args.out)
    return 0


def _cmd_bridges(args) -> int:
    stage = _load_stage_file(args.stage)
    reports = [r.to_json() for r in all_bridge_reports(stage)]
    _write_out(json.dumps({"reports": reports}, indent=2), args.out)
    return 0


def _cmd_check_gap_lemma(args) -> int:
    k1 = _load_stage_file(args.stage1)
    k2 = _load_stage_file(args.stage2)
    verdict = check_hypotheses(k1, k2)
    witness = intersect(k1, k2)
    payload = {
        "verdict": verdict.to_json(),
        "intersection": None if witness is None else witness.to_json(),
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_find_3ap(args) -> int:
    _check_budget("--max-depth", args.max_depth)
    family = _parse_family(args.set_family)
    witness = find_3ap(family, max_depth=args.max_depth)
    _write_out(json.dumps(witness.to_json(), indent=2), args.out)
    return 0


def _cmd_find_config(args) -> int:
    _check_budget("--max-depth", args.max_depth)
    family = _parse_family(args.set_family)
    f = FunctionSpec.parse(args.f)
    cfg = SearchConfig(rho=args.rho, delta=args.delta, max_depth=args.max_depth)
    try:
        result = find_config(family, f, cfg)
    except InsufficientDepthError as exc:
        # The scan already stops at the interval budget: the lever left is delta.
        raise DomainError(f"{exc.reason} (retry with a larger --delta)") from exc
    print(
        f"thickness {rational_str(result.tau)}, rho*tau {rational_str(result.rho_tau)}, "
        f"min image thickness {rational_str(result.image_thickness_min)}, "
        f"delta {rational_str(result.delta)}, reflected {result.reflected}",
        file=sys.stderr,
    )
    _write_out(json.dumps(result.witness.to_json(), indent=2), args.out)
    return 0


def _counterexample_params(args):
    if args.c is not None:
        return make_counterexample_params(args.tau, args.eps, args.c)
    return counterexample_calibrate(args.tau, args.eps, args.tol)


def _cmd_counterexample(args) -> int:
    params = _counterexample_params(args)
    stage = counterexample_set(params)
    _write_out(dumps_stage(stage, indent=2), args.out)
    if args.parts:
        parts = counterexample_parts(params)
        payload = {}
        for name in ("I1", "I2", "I3", "I4", "I5"):
            payload[name] = parts[name].to_json()
        for name in ("G1", "G2", "G3", "G4"):
            g = parts[name]
            payload[name] = [rational_str(g.lo), rational_str(g.hi)]
        payload["alpha"] = rational_str(parts["alpha"])
        payload["beta"] = rational_str(parts["beta"])
        payload["tau"] = rational_str(params.tau)
        payload["eps"] = rational_str(params.eps)
        payload["c"] = rational_str(params.c)
        with open(args.parts, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_verify_counterexample(args) -> int:
    params = _counterexample_params(args)
    report = verify_counterexample(params, thickness_tol=args.tol)
    _write_out(json.dumps(report.to_json(), indent=2), args.out)
    return 0 if report.all_passed else 1


def _cmd_render(args) -> int:
    stage = _load_stage_file(args.stage)
    svg = render_mod.render_stage_svg(stage, log_scale=args.log_x)
    _write_out(svg, args.out)
    return 0


def _sweep_probe(family_spec: str, slope_str: str, quad_str: Optional[str],
                 max_depth: int, strict: bool) -> dict:
    """One slope probe; argument types kept picklable so the sweep can fan
    out across worker processes (the search pipeline is pure)."""
    slope = Fraction(slope_str)
    coeffs = (slope,) if quad_str is None else (slope, Fraction(quad_str))
    entry: dict = {"slope": slope_str}
    try:
        family = _parse_family(family_spec)
        f = FunctionSpec(coeffs)
        result = find_config(
            family,
            f,
            SearchConfig(max_depth=max_depth),
            enforce_window=strict,
        )
        entry["status"] = "ok"
        entry["witness"] = result.witness.to_json()
    except HypothesisError as exc:
        entry["status"] = "hypothesis_rejected"
        entry["error"] = str(exc)
    except InternalContradictionError as exc:
        entry["status"] = "contradiction"
        entry["error"] = str(exc)
    except ThicksetError as exc:
        entry["status"] = "failed"
        entry["error"] = str(exc)
    return entry


def _cmd_sweep(args) -> int:
    _check_budget("--max-depth", args.max_depth)
    family = _parse_family(args.set_family)
    # The floor find_config gates on, so in_window agrees with --strict-window.
    tau = config_gate_thickness(family)
    window = derivative_window(tau) if tau > 1 else None
    if args.steps < 2:
        raise _UsageError("sweep needs at least 2 steps")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    step = (args.slope_max - args.slope_min) / (args.steps - 1)
    slopes = [args.slope_min + i * step for i in range(args.steps)]
    quad = None if args.quadratic is None else rational_str(args.quadratic)
    tasks = [
        (args.set_family, rational_str(s), quad, args.max_depth, args.strict_window)
        for s in slopes
    ]
    # The pool starts all its workers at once: never more than there are
    # probes to run or CPUs to run them on.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [_sweep_probe(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_probe, *zip(*tasks)))
    for slope, entry in zip(slopes, results):
        entry["in_window"] = bool(window and window.contains(slope))
    payload = {
        "mode": "experimental slope probe; outcomes outside the window are "
                "observations, not guarantees",
        "family": args.set_family,
        "tau": rational_str(tau),
        "window": None if window is None else [rational_str(window.lower),
                                               rational_str(window.upper)],
        "results": results,
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "thickness": _cmd_thickness,
    "bridges": _cmd_bridges,
    "check-gap-lemma": _cmd_check_gap_lemma,
    "find-3ap": _cmd_find_3ap,
    "find-config": _cmd_find_config,
    "counterexample": _cmd_counterexample,
    "verify-counterexample": _cmd_verify_counterexample,
    "render": _cmd_render,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.verb:
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        code = _COMMANDS[args.verb](args)
        # Output that fits the buffer meets a closed pipe only here.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at the null device, or the flush at interpreter exit
        # meets the closed pipe again (a stdout with no descriptor has none).
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print("error: output closed early (broken pipe)", file=sys.stderr)
        return USAGE_EXIT
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except json.JSONDecodeError as exc:
        print(f"JSON parse error at byte {exc.pos}: {exc.msg}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return USAGE_EXIT
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except InternalContradictionError as exc:
        print(f"internal contradiction (please report): {exc}", file=sys.stderr)
        return 2
    except ThicksetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
