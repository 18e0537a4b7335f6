"""Per-layer tracing, installed from outside the program.

``Tracer.install`` rebinds every public thickset function in every thickset
module namespace that binds it (``search.thickness`` as well as
``core.thickness``), so calls between modules are seen, and wraps
``RefinableFamily.stage`` as the refinement layer.  Each call records a span
``(parent, operation, name, start, end)``; spans stay in memory until the run
ends.  A function's self time is its span minus its child spans, so the self
times of one operation add up to its traced wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

import thickset

# Called once per endpoint: a span there would cost more than the work it
# measures and would swamp every other layer's self time.
UNTRACED = {"to_rational", "rational_str"}

OP = "bench.op"

# Per-layer self times that sum several functions: the bridge scans behind
# thickness, the Sturm sequence behind root counting, and the four halves of
# the JSON edge.  Every other metric name is one function.
GROUPS = {
    "core.thickness": ("core.thickness", "core.all_bridge_reports", "core.bridge_at"),
    "functions.count_roots": ("functions.count_roots", "functions.square_free_part",
                              "functions.sturm_sequence"),
    "core.stage_io": ("core.loads_stage", "core.dumps_stage", "core.stage_from_json",
                      "core.stage_to_json"),
}
SELF_TIMES = (
    "core.thickness", "core.restrict", "core.affine_image", "core.stage_io",
    "constructions.refine", "functions.monotone_inverse", "functions.count_roots",
    "functions.range_bounds", "gaplemma.check_hypotheses", "gaplemma.intersect",
    "gaplemma.persistent_intersect", "search.find_config", "search.find_3ap",
    "search.largest_gap_frame", "search.verify_witness", "cli.main",
    "render.render_stage_svg",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list = [None]
        self._op = -1
        self._undo: list[tuple] = []
        self._refined = weakref.WeakKeyDictionary()

    def _wrap(self, fn, name, measure=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, self._op, name, start, end)
            if measure is not None:
                counts[name] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        measures = {
            "core.thickness": lambda args, kw, result: args[0].count,
            "core.dumps_stage": lambda args, kw, result: len(result),
            "core.loads_stage": lambda args, kw, result: len(args[0]),
        }
        wrapped = {}
        for modname, module in list(sys.modules.items()):
            if modname != "thickset" and not modname.startswith("thickset."):
                continue
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("thickset.")
                        and value.__name__ not in UNTRACED):
                    if value not in wrapped:
                        name = f"{value.__module__[len('thickset.'):]}.{value.__name__}"
                        wrapped[value] = self._wrap(value, name, measures.get(name))
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        family = thickset.RefinableFamily
        stage = family.stage
        self._undo.append((family, "stage", stage))
        family.stage = self._wrap(stage, "constructions.refine",
                                  functools.partial(self._new_intervals, stage))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _new_intervals(self, stage, args, kwargs, result) -> int:
        """Intervals the call had to refine: those of every depth between the
        family's deepest stage so far and the one asked for."""
        family = args[0]
        depth = args[1] if len(args) > 1 else kwargs["depth"]
        known = self._refined.get(family, 0)
        if depth <= known:
            return 0
        self._refined[family] = depth
        return sum(stage(family, d).count for d in range(known + 1, depth + 1))

    def run_op(self, index: int, fn, *args):
        """Run one operation under a root span of its own."""
        self._op = index
        try:
            return self._wrap(fn, OP)(*args)
        finally:
            self._op = -1

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self time per operation and span name."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (_, op, name, start, end) in enumerate(self.spans):
            if op >= 0:
                out[op][name] += end - start - child[sid]
        return out

    def calls(self) -> Counter:
        return Counter(name for _, op, name, _, _ in self.spans if op >= 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, (parent, op, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}"
                         f"\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracer: Tracer, scale: list[float], bytes_written: int) -> dict:
    """Per-operation means of the per-layer metrics, times in reference
    seconds: each operation's self times are multiplied by its ``scale``.

    ``trace.other_s`` is the self time of every traced function no listed
    metric names and ``trace.unattributed_s`` the operation's own time
    outside thickset, so the listed self times, ``trace.other_s`` and
    ``trace.unattributed_s`` add up to ``trace.op_s``.
    """
    n = len(scale)
    selfs: Counter = Counter()
    op_times = []
    for op, by_name in tracer.self_times().items():
        for name, value in by_name.items():
            selfs[name] += value * scale[op] / n
        op_times.append(sum(by_name.values()) * scale[op])
    calls = tracer.calls()
    counts = tracer.counts

    metrics = {}
    listed = {OP}
    for metric in SELF_TIMES:
        names = GROUPS.get(metric, (metric,))
        listed.update(names)
        metrics[f"{metric}.self_s"] = (sum(selfs[name] for name in names), "s")
    attempts = calls["search.subset_extract"]
    metrics.update({
        "core.thickness.calls": (calls["core.thickness"] / n, "count"),
        "core.thickness.intervals": (counts["core.thickness"] / n, "count"),
        "core.stage_io.bytes": ((counts["core.dumps_stage"] + counts["core.loads_stage"]) / n, "B"),
        "constructions.refine.intervals": (counts["constructions.refine"] / n, "count"),
        "functions.monotone_inverse.calls": (calls["functions.monotone_inverse"] / n, "count"),
        "functions.count_roots.calls": (calls["functions.count_roots"] / n, "count"),
        "search.subset_extract.calls": (attempts / n, "count"),
        "search.configs_per_attempt": (
            calls["search.find_config"] / attempts if attempts else 0.0, "ratio"),
        "cli.bytes_written": (bytes_written / n, "B"),
        "trace.op_s": (sum(op_times) / n, "s"),
        "trace.op_p50_s": (statistics.median(op_times), "s"),
        "trace.other_s": (sum(v for k, v in selfs.items() if k not in listed), "s"),
        "trace.unattributed_s": (selfs[OP], "s"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    })
    return metrics
