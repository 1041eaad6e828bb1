"""Outside-in tracing of the zonal layers, with no edit to the package.

A ``Tracer`` replaces each traced public function at every module attribute
through which callers resolve it (``zonal.quadric.fiber_rule`` as well as
``zonal.quadrature.fiber_rule``; ``sphere_rule`` recursion goes through the
module global, so inner calls are traced too) and, for methods, on the
class.  Each call becomes a span (name, start, end, parent, task id, work
count) kept in memory; ``uninstall`` puts every original back.

Self time is a span's duration minus the durations of its direct child
spans.  Inclusive time per name counts only spans with no enclosing span of
the same name, so a recursive function is not counted twice.
"""
from __future__ import annotations

import gzip
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# legendre batches up to this many angles are point evaluations (what
# `zonal eval` does); larger ones are window sweeps (compare, scaling, bench)
POINT_MAX = 64


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same list, -1 at top level
    task: int
    work: int  # layer-specific count: degree steps, evaluations, samples, rows, blocks
    outer: bool  # no enclosing span of the same name


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _legendre(args, kwargs):
    idx = _arg(args, kwargs, 0, "idx")
    size = int(np.size(_arg(args, kwargs, 1, "t")))
    kind = "point" if size <= POINT_MAX else "window"
    return f"special.legendre_normalized.{kind}", size * max(int(idx.k), 1)


def _leading(args, kwargs):
    return "asymptotics.legendre_leading", int(np.size(_arg(args, kwargs, 1, "theta")))


def _evaluate(args, kwargs):
    z = np.asarray(_arg(args, kwargs, 1, "z"))
    return "quadric.ConeBasis.evaluate", int(z.shape[0]) if z.ndim == 2 else 1


def _build(args, kwargs):
    return "quadric.build_cone_basis", int(_arg(args, kwargs, 2, "samples"))


def _map_blocks(args, kwargs):
    return "rng.map_blocks", int(_arg(args, kwargs, 1, "nblocks"))


# (module under zonal, attribute path, probe returning (span name, work))
TARGETS = (
    ("special", "legendre_normalized", _legendre),
    ("special", "projector_kernel", None),
    ("asymptotics", "legendre_leading", _leading),
    ("quadrature", "sphere_rule", None),
    ("quadrature", "fiber_rule", None),
    ("rng", "substream", None),
    ("rng", "map_blocks", _map_blocks),
    ("quadric", "build_cone_basis", _build),
    ("quadric", "ConeBasis.evaluate", _evaluate),
    ("quadric", "c_constant_numeric", None),
    ("quadric", "pushforward_kernel", None),
    ("quadric", "offdiagonal_decay_probe", None),
    ("harness", "bracket_errors_on_grid", None),
    ("harness", "geometric_oracle", None),
    ("cli", "main", None),
)


class Tracer:
    """Records spans around the traced zonal functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, probe):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            label, work = (name, 0) if probe is None else probe(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[label] == 0
            active[label] += 1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[label] -= 1
                spans[index] = Span(label, start, end, parent, self.task, work, outer)

        return traced

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        if self._restore:
            raise RuntimeError("Tracer.install: already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "zonal" or key.startswith("zonal."))]
        for module_name, path, probe in TARGETS:
            owner = sys.modules[f"zonal.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, name, probe))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(fn, name, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            owner, key, fn = self._restore.pop()
            setattr(owner, key, fn)

    def write(self, path) -> None:
        """Spans as gzipped CSV, one line per span, in call order."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("name,start_ns,end_ns,parent,task,work\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.task},{s.work}\n")


class Stat(NamedTuple):
    calls: int
    inclusive_ns: int
    self_ns: int
    work: int


def summarize(spans) -> dict[int, dict[str, Stat]]:
    """Per task, per span name: calls, inclusive time, self time, work."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    acc: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
    for i, s in enumerate(spans):
        dur = s.end_ns - s.start_ns
        row = acc[s.task][s.name]
        row[0] += 1
        if s.outer:
            row[1] += dur
        row[2] += dur - child_ns[i]
        row[3] += s.work
    return {task: {name: Stat(*row) for name, row in names.items()} for task, names in acc.items()}


# per-layer metric name -> unit; every traced run reports all of them
LAYER_UNITS = {
    "special.legendre_normalized.point.ns_per_step": "ns",
    "special.legendre_normalized.window.ns_per_step": "ns",
    "special.projector_kernel.s": "s",
    "asymptotics.legendre_leading.ns_per_eval": "ns",
    "quadrature.fiber_rule.calls": "count",
    "quadrature.fiber_rule.s": "s",
    "quadrature.sphere_rule.calls": "count",
    "quadrature.sphere_rule.s": "s",
    "quadric.build_cone_basis.s_per_1e6_samples": "s",
    "rng.map_blocks.s": "s",
    "rng.map_blocks.blocks": "count",
    "rng.substream.calls": "count",
    "quadric.ConeBasis.evaluate.rows": "count",
    "quadric.ConeBasis.evaluate.s": "s",
    "quadric.c_constant_numeric.self_s": "s",
    "quadric.pushforward_kernel.s_per_pair": "s",
    "quadric.offdiagonal_decay_probe.s": "s",
    "harness.geometric_oracle.self_s": "s",
    "harness.bracket_errors_on_grid.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def task_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """Per-layer metrics of one traced task; a layer the task never enters reads 0."""
    zero = Stat(0, 0, 0, 0)

    def get(name):
        return stats.get(name, zero)

    def per(num, den):
        return num / den if den else 0.0

    point = get("special.legendre_normalized.point")
    window = get("special.legendre_normalized.window")
    leading = get("asymptotics.legendre_leading")
    build = get("quadric.build_cone_basis")
    push = get("quadric.pushforward_kernel")
    return {
        "special.legendre_normalized.point.ns_per_step": per(point.inclusive_ns, point.work),
        "special.legendre_normalized.window.ns_per_step": per(window.inclusive_ns, window.work),
        "special.projector_kernel.s": get("special.projector_kernel").inclusive_ns / 1e9,
        "asymptotics.legendre_leading.ns_per_eval": per(leading.inclusive_ns, leading.work),
        "quadrature.fiber_rule.calls": get("quadrature.fiber_rule").calls,
        "quadrature.fiber_rule.s": get("quadrature.fiber_rule").inclusive_ns / 1e9,
        "quadrature.sphere_rule.calls": get("quadrature.sphere_rule").calls,
        "quadrature.sphere_rule.s": get("quadrature.sphere_rule").inclusive_ns / 1e9,
        "quadric.build_cone_basis.s_per_1e6_samples": per(build.inclusive_ns / 1e9, build.work / 1e6),
        "rng.map_blocks.s": get("rng.map_blocks").inclusive_ns / 1e9,
        "rng.map_blocks.blocks": get("rng.map_blocks").work,
        "rng.substream.calls": get("rng.substream").calls,
        "quadric.ConeBasis.evaluate.rows": get("quadric.ConeBasis.evaluate").work,
        "quadric.ConeBasis.evaluate.s": get("quadric.ConeBasis.evaluate").inclusive_ns / 1e9,
        "quadric.c_constant_numeric.self_s": get("quadric.c_constant_numeric").self_ns / 1e9,
        "quadric.pushforward_kernel.s_per_pair": per(push.inclusive_ns / 1e9, push.calls),
        "quadric.offdiagonal_decay_probe.s": get("quadric.offdiagonal_decay_probe").inclusive_ns / 1e9,
        "harness.geometric_oracle.self_s": get("harness.geometric_oracle").self_ns / 1e9,
        "harness.bracket_errors_on_grid.self_s": get("harness.bracket_errors_on_grid").self_ns / 1e9,
        "cli.main.self_s": get("cli.main").self_ns / 1e9,
    }


def layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    """Median over traced tasks of each per-task metric, plus the overhead ratio."""
    per_task = [task_metrics(stats) for _, stats in sorted(summarize(spans).items())]
    per_task = per_task or [task_metrics({})]
    out = {name: statistics.median(m[name] for m in per_task) for name in per_task[0]}
    out["trace.overhead_ratio"] = overhead_ratio
    return out
