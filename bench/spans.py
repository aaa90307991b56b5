"""Spans around the public calls into each treebelief layer, and the
per-layer metrics computed from them.

The tracer wraps module attributes from outside the package: ``cli`` and
``propagation`` look these names up at call time, so nothing under ``src/``
changes.  A span is ``(name, start, end, parent, op, extra)``; ``parent`` is
the index of the enclosing span (-1 for none) and ``op`` the index of the
benchmark op that caused it (-1 for set-up).  If a later change stops
calling one of the wrapped names, its counters read 0.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List


def _combine_extra(args, kwargs, result):
    return len(args[0] if args else kwargs["messages"])


def _load_extra(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _validate_extra(args, kwargs, result):
    return sum(len(node.row_moments) for node in result.nodes.values())


def _oracle_extra(args, kwargs, result):
    """(mode, samples x nodes); enumeration takes no sample count."""
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "prior")
    net = args[0] if args else kwargs["net"]
    return mode, kwargs.get("n", 0) * len(net)


# (module name, attribute, span name, extra-data function)
TARGETS = (
    ("netfile", "load_network", "netfile.load_network", _load_extra),
    ("cli", "load_network", "netfile.load_network", _load_extra),
    ("model", "validate_network", "model.validate_network", _validate_extra),
    ("cli", "validate_network", "model.validate_network", _validate_extra),
    ("propagation", "propagate", "propagation.propagate", None),
    ("cli", "propagate", "propagation.propagate", None),
    ("propagation", "posterior_report", "propagation.posterior_report", None),
    ("cli", "posterior_report", "propagation.posterior_report", None),
    ("propagation", "combine_children", "propagation.combine_children", _combine_extra),
    ("propagation", "child_to_parent", "propagation.child_to_parent", None),
    ("propagation", "parent_to_child", "propagation.parent_to_child", None),
    ("oracle", "enumerate_uncertainty", "oracle.enumerate_uncertainty", _oracle_extra),
    ("cli", "enumerate_uncertainty", "oracle.enumerate_uncertainty", _oracle_extra),
    ("oracle", "mc_uncertainty", "oracle.mc_uncertainty", _oracle_extra),
    ("cli", "mc_uncertainty", "oracle.mc_uncertainty", _oracle_extra),
)


class Tracer:
    """Records spans in memory while installed.

    A target the package no longer has (renamed, or no longer imported by
    ``cli``) is skipped, so its spans and counters read 0.
    """

    def __init__(self, modules: Dict[str, object]):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1
        self.targets = []  # (module, attribute, original, wrapper)
        for m, attr, name, extra in TARGETS:
            fn = getattr(modules[m], attr, None)
            if fn is not None:
                self.targets.append((modules[m], attr, fn, self._wrap(name, fn, extra)))

    def _wrap(self, name: str, fn: Callable, extra) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans[index] = (
                name, start, end, parent, self.op,
                None if extra is None else extra(args, kwargs, result),
            )
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span of its own (the op-level span)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self) -> None:
        for module, attr, _, wrapper in self.targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self.targets:
            setattr(module, attr, fn)

    def dump(self, path: str) -> None:
        """Write every recorded span, columnar and gzip-compressed."""
        names = sorted({s[0] for s in self.spans if s is not None})
        code = {name: i for i, name in enumerate(names)}
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        doc = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "op", "extra"],
            "spans": [
                [code[s[0]], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1),
                 s[3], s[4], s[5]]
                for s in self.spans
                if s is not None
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _scaling_exponent(points: Dict[int, Dict[int, float]]) -> float:
    """Mean over k of the least-squares slope of log time on log n."""
    slopes = []
    for by_n in points.values():
        if len(by_n) < 2:
            continue
        xs = [math.log(n) for n in by_n]
        ys = [math.log(t) for t in by_n.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes.append(
            sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs)
        )
    return statistics.fmean(slopes) if slopes else 0.0


def layer_metrics(spans: List[tuple], ops: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the spans of traced ops and of set-up.

    Only layers the spans show are keyed; the caller reports the rest as 0.

    ``ops[i]`` describes op ``i`` (``shape``, ``k``, ``n``).  Times are in
    milliseconds per call of the named function; propagation breakdowns are
    per ``propagate`` call, so ``combine_ms + child_to_parent_ms +
    parent_to_child_ms + self_ms`` adds up to ``propagate_ms``.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    by_name = defaultdict(list)
    for index, s in enumerate(spans):
        by_name[s[0]].append((index, s))

    def durations(name):
        return [s[2] - s[1] for _, s in by_name[name]]

    def mean_ms(name):
        d = durations(name)
        return 1e3 * statistics.fmean(d) if d else 0.0

    out = {}
    out["netfile.load_ms"] = mean_ms("netfile.load_network")
    loads = by_name["netfile.load_network"]
    if loads:
        out["netfile.load_mb_per_s"] = (
            sum(s[5] for _, s in loads) / 1e6 / sum(s[2] - s[1] for _, s in loads)
        )
    out["model.validate_ms"] = mean_ms("model.validate_network")
    validations = by_name["model.validate_network"]
    if validations:
        out["model.validate_us_per_row"] = (
            1e6 * sum(s[2] - s[1] for _, s in validations) / sum(s[5] for _, s in validations)
        )
    out["propagation.propagate_ms"] = mean_ms("propagation.propagate")
    out["propagation.report_ms"] = mean_ms("propagation.posterior_report")

    propagations = by_name["propagation.propagate"]
    n_prop = len(propagations)
    if n_prop:
        prop_index = {index for index, _ in propagations}
        for name, key in (
            ("propagation.combine_children", "propagation.combine_ms"),
            ("propagation.child_to_parent", "propagation.child_to_parent_ms"),
            ("propagation.parent_to_child", "propagation.parent_to_child_ms"),
        ):
            inside = [s for _, s in by_name[name] if s[3] in prop_index]
            out[key] = 1e3 * sum(s[2] - s[1] for s in inside) / n_prop
        combines = [s for _, s in by_name["propagation.combine_children"] if s[3] in prop_index]
        out["propagation.combine_calls"] = len(combines) / n_prop
        out["propagation.combine_inputs"] = sum(s[5] for s in combines) / n_prop
        out["propagation.self_ms"] = 1e3 * statistics.fmean(
            s[2] - s[1] - child_time[index] for index, s in propagations
        )

        inputs_by_prop = defaultdict(int)
        for s in combines:
            inputs_by_prop[s[3]] += s[5]
        by_shape_n = defaultdict(list)
        times = defaultdict(list)
        for index, s in propagations:
            if s[4] < 0:
                continue
            op = ops[s[4]]
            by_shape_n[(op["shape"], op["n"])].append(inputs_by_prop[index])
            times[(op["shape"], op["k"], op["n"])].append(s[2] - s[1])
        for (shape, n), counts in by_shape_n.items():
            out[f"propagation.combine_inputs.{shape}-n{n}"] = statistics.fmean(counts)
        medians = {key: statistics.median(t) for key, t in times.items()}
        by_shape = defaultdict(lambda: defaultdict(dict))
        for (shape, k, n), t in medians.items():
            by_shape[shape][k][n] = t
        for shape, points in by_shape.items():
            out[f"propagation.scaling_exponent.{shape}"] = _scaling_exponent(points)
            for k, by_n in points.items():
                n = max(by_n)
                out[f"propagation.us_per_node.{shape}-k{k}"] = 1e6 * by_n[n] / n

    for name, prefix in (
        ("oracle.enumerate_uncertainty", "oracle.enum_ms."),
        ("oracle.mc_uncertainty", "oracle.mc_ms."),
    ):
        by_mode = defaultdict(list)
        for _, s in by_name[name]:
            by_mode[s[5][0]].append(s[2] - s[1])
        for mode, d in by_mode.items():
            out[prefix + mode] = 1e3 * statistics.fmean(d)
    mc = by_name["oracle.mc_uncertainty"]
    if mc:
        out["oracle.mc_ns_per_sample_node"] = (
            1e9 * sum(s[2] - s[1] for _, s in mc) / sum(s[5][1] for _, s in mc)
        )
    mains = by_name["cli.main"]
    if mains:
        out["cli.self_ms"] = 1e3 * statistics.fmean(
            s[2] - s[1] - child_time[index] for index, s in mains
        )
    return out
