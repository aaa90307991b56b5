"""One benchmark worker process: set up, replay the op mix, check every output.

Run by ``run.py`` as ``python worker.py PLAN RESULT [--setup-only]``.  The
worker records ``time.monotonic()`` as soon as it is ready for its first op;
the parent subtracts the moment it started the process, so ``setup_s``
includes interpreter start, the ``treebelief`` import and, for
``engine_sweep``, loading and validating the networks.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import sys
import time
import traceback

import numpy as np

import treebelief
from treebelief import cli, model, netfile, oracle, propagation

from spans import Tracer, layer_metrics

MEAN_TOL = 1e-8


def _check_moments(means, second, variances, ref) -> str:
    """'' if the reported moments pass, else why not."""
    for name, arr in (("mean", means), ("second", second), ("variance", variances)):
        if not np.all(np.isfinite(arr)):
            return f"non-finite {name}"
    if np.any(variances < 0.0):
        return "negative variance"
    if means.shape != ref.shape:
        return f"means have shape {means.shape}, expected {ref.shape}"
    gap = float(np.max(np.abs(means - ref)))
    if gap > MEAN_TOL:
        return f"means differ from the reference by {gap:.3g}"
    return ""


def reference_kernel() -> float:
    """A fixed piece of work that shares no code with treebelief: Python
    dict, list and arithmetic work plus small numpy products, the mix the
    package's own ops are made of.  Timed beside every op, it measures how
    fast the host runs at that moment."""
    table = {}
    for i in range(2500):
        table[f"n{i}"] = [i, float(i), (i, i + 1)]
    total = 0.0
    for key, row in table.items():
        total += row[1] * len(key)
    for i in range(20000):
        total += i * i
    matrix = np.full((4, 4), 0.25)
    vector = np.ones(4)
    for _ in range(250):
        vector = matrix @ vector
        vector = vector / vector.sum()
    return total + float(vector[0])


def time_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Runner:
    def __init__(self, plan: dict, tracer: Tracer):
        self.plan = plan
        self.tracer = tracer
        self.nets = {}
        self.refs = {}

    def setup(self) -> None:
        for name, path in self.plan["networks"].items():
            self.nets[name] = model.validate_network(netfile.load_network(path))

    def reference(self, op: dict) -> np.ndarray:
        path = op["reference"]
        if path not in self.refs:
            self.refs[path] = np.load(path)
        return self.refs[path]

    def run_op(self, op: dict, traced: bool):
        """Time one op; return (seconds, nodes, output bytes, error).

        An op that raises counts as failed, with its traceback as the error.
        """
        gc.collect()
        start = time.perf_counter()
        try:
            return self._run_op(op, traced)
        except Exception:  # the run goes on; the failure is reported
            return time.perf_counter() - start, 0, 0, traceback.format_exc()

    def _run_op(self, op: dict, traced: bool):
        if op["kind"] == "engine":
            net = self.nets[op["network"]]
            evidence = {node: value for node, value in op["evidence"]}
            if traced:
                self.tracer.install()
            try:
                start = time.perf_counter()
                reports = propagation.posterior_report(propagation.propagate(net, evidence))
                elapsed = time.perf_counter() - start
            finally:
                self.tracer.uninstall()
            return elapsed, len(reports), 0, self._check_engine(op, net, reports)

        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    code = self.tracer.call("cli.main", cli.main, op["argv"])
                else:
                    code = cli.main(op["argv"])
            elapsed = time.perf_counter() - start
        except SystemExit as exc:  # argparse rejected the arguments
            elapsed = time.perf_counter() - start
            return elapsed, 0, 0, f"exited with {exc.code}: {err.getvalue().strip()}"
        finally:
            self.tracer.uninstall()
        text = out.getvalue()
        size = len(text.encode("utf-8"))
        if code not in op["exit_codes"]:
            return elapsed, 0, size, f"exit code {code}: {err.getvalue().strip()}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return elapsed, 0, size, f"output is not JSON: {exc}"
        if op["kind"] == "query":
            error = self._check_query(op, doc)
        else:
            error = self._check_compare(op, doc, code)
        return elapsed, len(doc.get("nodes", ())), size, error

    def _check_engine(self, op, net, reports) -> str:
        ids = list(net.order)
        if sorted(reports) != sorted(ids):
            return "report does not cover every node"
        order = [f"n{i}" for i in range(len(ids))]
        return _check_moments(
            np.array([reports[i].mean for i in order]),
            np.array([reports[i].second for i in order]),
            np.array([reports[i].variance for i in order]),
            self.reference(op),
        )

    def _check_query(self, op, doc) -> str:
        nodes = doc.get("nodes", {})
        order = [f"n{i}" for i in range(op["n"])]
        if sorted(nodes) != sorted(order):
            return "query output does not cover every node"
        try:
            return _check_moments(
                np.array([nodes[i]["mean"] for i in order], dtype=float),
                np.array([nodes[i]["second"] for i in order], dtype=float),
                np.array([nodes[i]["variance"] for i in order], dtype=float),
                self.reference(op),
            )
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed query output: {exc!r}"

    def _check_compare(self, op, doc, code) -> str:
        nodes = doc.get("nodes", {})
        if len(nodes) != op["n"]:
            return f"compare reported {len(nodes)} nodes, expected {op['n']}"
        if doc.get("pass") is not (code == 0):
            return "compare verdict disagrees with its exit code"
        for entry in nodes.values():
            if not all(math.isfinite(v) for v in entry["diff"].values()):
                return "non-finite difference in compare output"
        return ""


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = Tracer(
        {"cli": cli, "model": model, "netfile": netfile, "oracle": oracle,
         "propagation": propagation}
    )
    runner = Runner(plan, tracer)
    if plan["trace"]:
        tracer.install()
    try:
        runner.setup()
    finally:
        tracer.uninstall()
    ready = time.monotonic()
    result = {"ready": ready, "ready_reference": time_reference()}
    if "--setup-only" not in sys.argv:
        result.update(run(plan, runner, tracer))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run(plan: dict, runner: Runner, tracer: Tracer) -> dict:
    """Replay the op order, or stop at the deadline and count the planned
    ops left as skipped.  A traced run traces every op, and times every
    other op once more untraced right beside it (alternating which goes
    first) to measure the tracing cost.  The reference kernel runs between
    ops; an op's reference time is the mean of the runs before and after it.
    A record is ``[op index, seconds, nodes, output bytes, error, traced,
    reference seconds]``."""
    ops, order = plan["ops"], plan["order"]
    records = []
    paired = {True: 0.0, False: 0.0}
    skipped = 0
    before = time_reference()
    for position, index in enumerate(order):
        if time.monotonic() > plan["deadline"]:
            skipped += 1
            continue
        tracer.op = index
        modes = [False]
        if plan["trace"]:
            modes = [True]
            if position % 2 == 0:
                modes = [True, False] if position % 4 == 0 else [False, True]
        for traced in modes:
            record = [index, *runner.run_op(ops[index], traced), traced]
            after = time_reference()
            records.append(record + [0.5 * (before + after)])
            before = after
            if len(modes) == 2:  # in reference-kernel units, as the host's speed drifts
                paired[traced] += records[-1][1] / records[-1][6]
    result = {
        "records": records,
        "skipped": skipped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "treebelief": treebelief.__version__,
    }
    if plan["trace"]:
        result["layers"] = layer_metrics([s for s in tracer.spans if s is not None], ops)
        if paired[False] > 0.0:
            result["layers"]["trace.overhead_pct"] = 100.0 * (paired[True] / paired[False] - 1.0)
        tracer.dump(plan["spans_path"])
    return result


if __name__ == "__main__":
    sys.exit(main())
