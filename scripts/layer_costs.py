"""Per-layer cost of a ``treebelief query``, in µs per node, on fixed tree shapes.

Writes chain, star and balanced binary trees of Dirichlet rows with ``--k``
alternatives (default 3) at the given sizes, then times each layer of a
query with the deepest leaf observed: ``json.load``, ``parse_network``,
``validate_network``, ``propagate``, ``posterior_report``, and "emit":
``cli.cmd_query`` writing into a ``StringIO`` while its ``load_network``,
``validate_network``, ``propagate`` and ``posterior_report`` return the
results just timed, so everything ``query`` does after
``posterior_report``.  A seventh layer, "validate (hand-built)", runs
``validate_network`` on the ``NetworkSpec`` of row objects that the file was
written from; "propagate (prior)" runs ``propagate`` with no evidence, which
sweeps downward only, and "propagate (mid)" with a mid-tree node observed:
the first node at half the tree's height (the hub of a star), as in the
benchmark's mid-tree queries.  Each of the three is the first query on its
network, as in one ``treebelief query``: "propagate" runs on the network
just validated, the other two on networks validated outside the timer.
Validation sweeps the prior messages of the nodes hanging one per depth
from the root and keeps them on the network (``LevelPlan.prior``), so
"validate" carries that sweep, and all three read the kept copy, as every
query on a validated network does.
"propagate (repeat)" runs the deepest-leaf query again on the first
network, as a library user's repeated queries do.  "report (mid)" runs
``posterior_report`` on the state of the mid-tree query, where the check
of every evidence island's top costs most: on a star, the hub's children
are all tops.  "upward sweep" is the part of a deepest-leaf ``propagate``
spent in ``propagation._sweep_up``, timed in a run of its own so that its
timer stays out of the ``propagate`` layer (``-`` for a version without
that function).  ``posterior_report``
is called with no node list, as ``query --nodes all`` and the
``engine_sweep`` benchmark call it.  Each round times every layer as the best of at least
:data:`REPEATS` runs, repeated until every layer of every version has spent
:data:`BUDGET` seconds in the round, so a layer of a millisecond gets dozens
of runs, and each layer reads as the best of its rounds.  The layers of a
tree (or the modes of an oracle) run together, so once one of them takes
more than :data:`LONG` seconds in a run, as at 10^5 nodes, they all run
once per round.  The upward sweep, a part of a ``propagate`` layer, counts
toward no budget.  The collector runs
before each run, as in the benchmark worker.  Each run is made twice, with
the collector on during it and with it off (only off with ``--gc-off``).
With it on, a collection lands in whichever layer crosses the threshold, so
a layer that allocates fewer tracked objects can move a collection, and its
cost, into another layer; the collector-off figures show where the time of
the code itself goes.

An "enumerate" row times ``enumerate_uncertainty`` in ``approx-posterior``
and ``exact-posterior`` mode on the trees of the benchmark's
``oracle_check`` enumeration, whatever ``--sizes`` and ``--k`` say: 8 nodes
of two alternatives as a chain, a star and a binary tree, a certain root
row and every other row a two-point support (2^14 combinations), the
deepest leaf observed.  An "mc" row times ``mc_uncertainty`` in all three
modes on the trees of the benchmark's Monte Carlo compares: 10 nodes of two
alternatives as a chain, a star and a binary tree, every row a Dirichlet,
n = 2000 samples at a fixed seed, the deepest leaf observed in the posterior
modes.  An "islands" row times ``enumerate_uncertainty`` in
``exact-posterior`` mode on a 24-node chain of two alternatives whose every
row, the root's included, is a two-point support (2^47 combinations over the
whole tree), with every sixth node observed: four evidence islands of 2^11
combinations each.  Each reads in ms per call, best of the rounds, with the
same repeats, budget and collector runs as the layers; a version that raises
``CapExceeded`` on a call, as one that enumerates the whole tree in
``exact-posterior`` mode does on the chain, reads ``-``, and its runs count
as having spent their budget.

An end-to-end row then runs ``python -m treebelief.cli query FILE --evidence
LEAF=s1`` once per round, per tree and version, each in a fresh child
process with its report written to a file, and records the child's own
peak resident memory in kB per node: ``VmHWM`` from ``/proc/self/status``,
read inside the child as the command returns (``ru_maxrss`` of a child
would include this process's peak, which the spawn inherits; ``None`` where
``/proc`` is absent).  Beside it, per tree and round, another child runs
``validate_network(load_network(FILE))``, keeps the network, runs the
collector and reads its own ``VmRSS``: the memory a library user pays to
hold a loaded network, in kB per node.  Each reads as the best of its
rounds, and can show a change of a percent.  The children's wall time is
not recorded: it varies from one child to the next by a tenth and more
(on a 2-vCPU Xeon VM shared with other tenants, this checkout against
itself read ratios of 0.70-1.52), so time is read from the in-process
layers.

With ``--base SRC`` a second source tree (the ``src`` directory of another
checkout) is loaded into the same process and timed on the same files,
interleaved with this checkout run by run, alternating which goes first.
Each version validates its own hand-built spec, built from the same seed,
since one version's row classes are not valid input to the other's; the
specs are built again for each tree in each round, so that only the tree
being timed holds them.  Then
the median over rounds of the per-round ratio (this checkout over the base)
is printed per tree, collector on and off side by side, for: parse plus
validate, ``propagate``, ``posterior_report``, the sum of the four layers
from ``parse_network`` to ``posterior_report``, ``propagate`` with no
evidence, with the mid-tree node observed and repeated, ``posterior_report``
after the mid-tree query, and hand-built validation;
then ``enumerate_uncertainty`` and ``mc_uncertainty`` per tree and mode, the islands chain, and
the end-to-end ``VmHWM`` and held ``VmRSS``.  The per-round minimum over
repeats keeps one slow run on a shared host out of the ratio.  The two
versions' ``query`` reports must be the same bytes apart from the
``generated_at`` line, or the script names the trees whose reports differ,
prints each one's largest absolute difference over the reported means,
second moments and variances, and exits 1; so it does, naming the tree and
mode, if the two versions' ``enumerate_uncertainty`` or ``mc_uncertainty``
reports differ in any bit of an entry, a standard error or the effective
sample size, or if this checkout raises ``CapExceeded`` where the base does
not (a base that raises it is not compared).  The last line is one JSON
object with every number printed (``null`` for ``-``), under
``collector_on``, ``collector_off`` and ``end_to_end``; with ``--base``,
``enumerate_identical``, ``mc_identical`` and ``islands_identical`` say
whether the oracles' reports matched.

Run from the repository root::

    python scripts/layer_costs.py --sizes 1000 10000 --rounds 5
    python scripts/layer_costs.py --sizes 1000 --rounds 7 --base ../parent/src
    python scripts/layer_costs.py --k 8 --sizes 1250 --rounds 15 --base ../parent/src
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ("chain", "star", "binary")
PARENT = {"chain": lambda i: i - 1, "star": lambda i: 0, "binary": lambda i: (i - 1) // 2}
ENUM_MODES = ("approx-posterior", "exact-posterior")
MC_MODES, MC_SAMPLES, MC_SEED = ("prior", "approx-posterior", "exact-posterior"), 2000, 31
LAYERS = ("json.load", "parse_network", "validate_network", "propagate", "posterior_report", "emit",
          "validate (hand-built)", "propagate (prior)", "propagate (mid)", "propagate (repeat)",
          "report (mid)", "upward sweep")
REPEATS = 3  # fewest runs of each layer per round; the fastest counts
BUDGET = 0.05  # seconds each layer of each version spends per round, at least
LONG = 1.0  # seconds of one layer's run past which its tree or oracle runs once per round
#: run as ``python -c CHILD query ...``: ``python -m treebelief.cli``, then the peak resident
#: memory of this process alone, as the last line of standard error
CHILD = """
import runpy, sys
try:
    runpy.run_module("treebelief.cli", run_name="__main__", alter_sys=True)
finally:
    try:
        with open("/proc/self/status") as status:
            sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
    except OSError:
        pass
"""
#: run as ``python -c HELD FILE``: hold the validated network of ``FILE``, run the collector,
#: then write the resident memory of this process as the last line of standard output
HELD = """
import gc, sys
from treebelief import load_network, validate_network
net = validate_network(load_network(sys.argv[1]))
gc.collect()
try:
    with open("/proc/self/status") as status:
        sys.stdout.write(next(line for line in status if line.startswith("VmRSS:")))
except OSError:
    pass
"""


def load_package(src: Path, name: str):
    """Import the ``treebelief`` package under ``src`` as ``name``."""
    package = src / "treebelief"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def build_tree(tb, shape: str, n: int, k: int):
    """A ``shape`` tree of ``n`` nodes of ``k`` alternatives and ``tb``'s row
    classes, its deepest leaf's id and its mid-tree node's: the first node
    at half the height."""
    rng = np.random.default_rng(n)
    labels = tuple(f"s{j}" for j in range(k))
    parent = PARENT[shape]
    nodes = [
        tb.NodeSpec(
            f"n{i}", labels, None if i == 0 else f"n{parent(i)}",
            tuple(tb.Dirichlet(rng.uniform(0.5, 5.0, k)) for _ in range(1 if i == 0 else k)),
        )
        for i in range(n)
    ]
    depth = [0]
    for i in range(1, n):
        depth.append(depth[parent(i)] + 1)
    # parents come first, so the last node is a deepest leaf
    return tb.NetworkSpec(nodes), f"n{n - 1}", f"n{depth.index(depth[-1] // 2)}"


def build_enum_tree(tb, shape: str):
    """The ``oracle_check`` enumeration tree of ``shape``, validated by
    ``tb``: 8 nodes of two alternatives, a certain root row and every other
    row a two-point support; node ``n7`` is a deepest leaf."""
    rng, labels = np.random.default_rng(8), ("s0", "s1")
    nodes = [tb.NodeSpec("n0", labels, None, (tb.PointMass(rng.dirichlet([2.0, 2.0])),))]
    nodes += [
        tb.NodeSpec(f"n{i}", labels, f"n{PARENT[shape](i)}", tuple(
            tb.DiscreteSupport(rng.dirichlet([2.0, 2.0], 2), rng.dirichlet([2.0, 2.0])) for _ in labels
        ))
        for i in range(1, 8)
    ]
    return tb.validate_network(tb.NetworkSpec(tuple(nodes)))


def build_mc_tree(tb, shape: str):
    """The ``oracle_check`` Monte Carlo tree of ``shape``, validated by
    ``tb``: 10 nodes of two alternatives, every row a Dirichlet; node ``n9``
    is a deepest leaf."""
    rng, labels = np.random.default_rng(10), ("s0", "s1")
    return tb.validate_network(tb.NetworkSpec(tuple(
        tb.NodeSpec(f"n{i}", labels, None if i == 0 else f"n{PARENT[shape](i)}", tuple(
            tb.Dirichlet(rng.uniform(0.5, 5.0, 2)) for _ in range(1 if i == 0 else 2)
        ))
        for i in range(10)
    )))


def build_island_chain(tb, shape: str):
    """The 24-node chain ``n0 .. n23`` of two alternatives whose every row,
    the root's included, is a two-point support, validated by ``tb``;
    ``shape`` is ``"chain"``."""
    rng, labels = np.random.default_rng(24), ("a", "b")
    two_point = lambda: tb.DiscreteSupport(rng.dirichlet([2.0, 2.0], 2), rng.dirichlet([2.0, 2.0]))
    return tb.validate_network(tb.NetworkSpec(tuple(
        tb.NodeSpec(f"n{i}", labels, None if i == 0 else f"n{i - 1}",
                    tuple(two_point() for _ in range(1 if i == 0 else 2)))
        for i in range(24)
    )))


def run_enumerate(tb, net, mode: str):
    return tb.enumerate_uncertainty(net, {"n7": 1}, mode)


def run_islands(tb, net, mode: str):
    return tb.enumerate_uncertainty(net, {"n5": 0, "n11": 1, "n17": 0, "n23": 1}, mode)


def run_mc(tb, net, mode: str):
    return tb.mc_uncertainty(net, {} if mode == "prior" else {"n9": 1}, mode, n=MC_SAMPLES, seed=MC_SEED)


#: per oracle row: its tree builder, its shapes, its modes, one call, and what the call is
ORACLES = {
    "enumerate": (build_enum_tree, SHAPES, ENUM_MODES, run_enumerate,
                  "enumerate_uncertainty call on oracle_check's 8-node two-point trees"),
    "mc": (build_mc_tree, SHAPES, MC_MODES, run_mc,
           f"mc_uncertainty call (n = {MC_SAMPLES}) on oracle_check's 10-node Dirichlet trees"),
    "islands": (build_island_chain, ("chain",), ("exact-posterior",), run_islands,
                "enumerate_uncertainty call on a 24-node two-point chain with four observed nodes"),
}


def capped(tb, call, net, mode: str):
    """``call``'s report, or ``None`` where ``tb`` raises ``CapExceeded``."""
    try:
        return call(tb, net, mode)
    except sys.modules[f"{tb.__name__}.errors"].CapExceeded:
        return None


def time_oracle(tb, net, modes, call) -> list:
    """Seconds of one ``call`` of the oracle on ``net`` in each of ``modes``,
    NaN where it raises ``CapExceeded``."""
    spent = []
    for mode in modes:
        start = time.perf_counter()
        done = capped(tb, call, net, mode) is not None
        spent.append(time.perf_counter() - start if done else float("nan"))
    return spent


def same_entries(a, b) -> bool:
    """Whether two oracle reports hold the same entries, standard errors and
    effective sample size, bit for bit."""
    fields = ("mean", "second", "variance", "se_mean", "se_second", "se_variance")
    return (list(a.entries) == list(b.entries) and a.effective_sample_size == b.effective_sample_size
            and all((u is None) == (v is None) and (u is None or u.tobytes() == v.tobytes())
                    for node_id, x in a.entries.items() for f in fields
                    for u, v in [(getattr(x, f), getattr(b.entries[node_id], f))]))


def best_of(order, measure, counted: int) -> dict:
    """Per run ``(version, collector)`` of ``order``, the element-wise best
    of ``measure(version)``'s seconds over at least :data:`REPEATS` runs,
    repeated until each of the first ``counted`` entries of every run has
    spent :data:`BUDGET`, or over one run if one such entry took more than
    :data:`LONG`; the collector runs before each run and is off during it
    where the run says so.  A NaN entry, a call that could not run, counts
    as having spent the budget."""
    best, spent = {}, {run: np.zeros(counted) for run in order}
    for repeat in itertools.count():
        if repeat >= REPEATS and min(x.min() for x in spent.values()) >= BUDGET:
            return best
        if repeat == 1 and max(x.max() for x in spent.values()) > LONG:  # spent in one run
            return best
        for run in order:
            v, c = run
            gc.collect()
            if c == "off":
                gc.disable()
            try:
                seconds = np.asarray(measure(v))
            finally:
                gc.enable()
            best[run] = np.minimum(best.get(run, seconds), seconds)
            spent[run] += np.nan_to_num(seconds[:counted], nan=BUDGET)


def time_query(tb, path: str, leaf: str, mid: str, built) -> list:
    """Seconds spent in each of :data:`LAYERS` by one query, by validating
    the hand-built spec ``built``, by first queries with no evidence and
    with ``mid`` observed, by the query repeated, by ``posterior_report`` on
    the state of the ``mid`` query and by the upward sweep of another query."""
    cli = sys.modules[f"{tb.__name__}.cli"]
    clock = [time.perf_counter()]
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    clock.append(time.perf_counter())
    spec = tb.parse_network(doc)
    clock.append(time.perf_counter())
    net = tb.validate_network(spec)
    clock.append(time.perf_counter())
    state = tb.propagate(net, {leaf: 1})
    clock.append(time.perf_counter())
    reports = tb.posterior_report(state)
    clock.append(time.perf_counter())
    done = {"load_network": spec, "validate_network": net, "propagate": state,
            "posterior_report": reports}
    stubs = {name: mock.Mock(return_value=value) for name, value in done.items()}
    with mock.patch.multiple(cli, **stubs), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        cli.cmd_query(SimpleNamespace(path=path, evidence=[f"{leaf}=s1"], nodes="all"))
        emit = time.perf_counter() - start
    start = time.perf_counter()
    tb.validate_network(built)
    hand_built = time.perf_counter() - start
    first = []
    for evidence in ({}, {mid: 1}):
        fresh = tb.validate_network(spec)
        start = time.perf_counter()
        mid_state = tb.propagate(fresh, evidence)
        first.append(time.perf_counter() - start)
    start = time.perf_counter()
    tb.propagate(net, {leaf: 1})
    repeat = time.perf_counter() - start
    start = time.perf_counter()
    tb.posterior_report(mid_state)
    mid_report = time.perf_counter() - start
    upward = time_sweep_up(tb, net, leaf)
    return [b - a for a, b in zip(clock, clock[1:])] + [emit, hand_built, *first, repeat, mid_report, upward]


def time_sweep_up(tb, net, leaf: str) -> float:
    """Seconds spent in ``propagation._sweep_up`` by a query with ``leaf``
    observed; NaN if ``tb`` has no such function."""
    propagation = sys.modules[f"{tb.__name__}.propagation"]
    sweep_up, spent = getattr(propagation, "_sweep_up", None), []
    if sweep_up is None:
        return float("nan")

    def timed(*args):
        start = time.perf_counter()
        sweep_up(*args)
        spent.append(time.perf_counter() - start)

    with mock.patch.object(propagation, "_sweep_up", timed):
        tb.propagate(net, {leaf: 1})
    return sum(spent)


def cli_memory(src: Path, path: str, leaf: str, out: str):
    """``VmHWM`` in kB of one ``query`` of ``path`` in a child process
    running the package under ``src``, with its report written to ``out``,
    then the ``VmRSS`` in kB of another child that holds the validated
    network of ``path`` (:data:`HELD`); each ``None`` without ``/proc``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", CHILD, "query", path, "--evidence", f"{leaf}=s1"]
    with open(out, "wb") as handle:
        child = subprocess.run(argv, stdout=handle, stderr=subprocess.PIPE, env=env, text=True)
    lines = child.stderr.splitlines()
    if child.returncode != 0:
        raise RuntimeError(f"query of {path} exited {child.returncode}: {child.stderr.strip()}")
    hwm = lines[-1].split()[1] if lines and lines[-1].startswith("VmHWM:") else None
    held = subprocess.run([sys.executable, "-c", HELD, path], capture_output=True, env=env, text=True,
                          check=True).stdout.split()
    return None if hwm is None else int(hwm), int(held[1]) if held else None


def largest_difference(a: str, b: str) -> float:
    """The largest absolute difference between the means, second moments and
    variances of two ``query`` reports; infinite if their nodes or lists differ."""
    with open(a, encoding="utf-8") as x, open(b, encoding="utf-8") as y:
        nodes_a, nodes_b = json.load(x)["nodes"], json.load(y)["nodes"]
    if list(nodes_a) != list(nodes_b):
        return float("inf")
    largest = 0.0
    for node_id, rep_a in nodes_a.items():
        for field in ("mean", "second", "variance"):
            u, v = rep_a[field], nodes_b[node_id][field]
            if len(u) != len(v):
                return float("inf")
            largest = max(largest, float(np.abs(np.subtract(u, v)).max()))
    return largest


def same_report(a: str, b: str) -> bool:
    """Whether two ``query`` report files hold the same bytes apart from the ``generated_at`` line."""
    with open(a, "rb") as x, open(b, "rb") as y:
        for p, q in itertools.zip_longest(x, y):
            if p != q and not (p and q and p.lstrip().startswith(b'"generated_at"')
                               and q.lstrip().startswith(b'"generated_at"')):
                return False
    return True


#: (title, JSON key, indices into LAYERS summed) of each ratio printed with ``--base``
RATIOS = (("parse + validate", "parse_validate_ratio", [1, 2]),
          ("propagate", "propagate_ratio", [3]),
          ("posterior_report", "report_ratio", [4]),
          ("parse to report", "parse_to_report_ratio", [1, 2, 3, 4]),
          ("propagate (prior)", "prior_propagate_ratio", [7]),
          ("propagate (mid)", "mid_propagate_ratio", [8]),
          ("propagate (repeat)", "repeat_propagate_ratio", [9]),
          ("report (mid)", "mid_report_ratio", [10]),
          ("validate (hand-built)", "hand_built_validate_ratio", [6]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--k", type=int, default=3, help="alternatives per node")
    parser.add_argument("--base", type=Path, help="src directory of a checkout to compare against")
    parser.add_argument("--gc-off", action="store_true", help="time only with the collector off")
    args = parser.parse_args(argv)
    if args.rounds < 1 or min(args.sizes) < 2 or args.k < 2:
        parser.error("--rounds must be at least 1, every size and --k at least 2")

    srcs = {"this": ROOT / "src"}
    if args.base is not None:
        srcs["base"] = args.base.resolve()
    versions = {v: load_package(src, "treebelief" if v == "this" else "treebelief_base")
                for v, src in srcs.items()}
    collector = ("off",) if args.gc_off else ("on", "off")
    runs = [(v, c) for c in collector for v in versions]
    times = {run: {} for run in runs}  # (version, collector) -> tree -> [per-round layer seconds]
    cli_runs = {v: {} for v in versions}  # version -> tree -> [per-round (VmHWM kB, held VmRSS kB)]
    differ = {}  # tree -> largest absolute difference between the two reports
    # oracle -> (version, collector) -> shape -> [per-round seconds per mode]
    oracle_times = {name: {run: {} for run in runs} for name in ORACLES}
    oracle_differ = {name: [] for name in ORACLES}  # oracle -> shape/mode whose reports differ
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}  # tree -> (file, deepest leaf, mid-tree node, shape, n)
        for shape in SHAPES:
            for n in args.sizes:
                tree, path = f"{shape}-{n}", Path(tmp) / f"{shape}-k{args.k}-n{n}.json"
                spec, leaf, mid = build_tree(versions["this"], shape, n, args.k)
                versions["this"].save_network(spec, str(path))
                trees[tree] = (str(path), leaf, mid, shape, n)
                del spec
        oracle_nets = {name: {shape: {v: build(tb, shape) for v, tb in versions.items()} for shape in shapes}
                       for name, (build, shapes, *_) in ORACLES.items()}
        for name, (_, _, modes, call, _) in ORACLES.items():
            for shape, nets in oracle_nets[name].items():
                for mode in modes if "base" in versions else ():
                    got, want = (capped(versions[v], call, nets[v], mode) for v in ("this", "base"))
                    if want is not None and (got is None or not same_entries(got, want)):
                        oracle_differ[name].append(f"{shape}/{mode}")
        for r in range(args.rounds):
            order = runs if r % 2 == 0 else runs[::-1]
            for tree, (path, leaf, mid, shape, n) in trees.items():
                built = {v: build_tree(tb, shape, n, args.k)[0] for v, tb in versions.items()}
                query = lambda v: time_query(versions[v], path, leaf, mid, built[v])
                best = best_of(order, query, len(LAYERS) - 1)  # all but the upward sweep count
                del built
                for run in order:
                    times[run].setdefault(tree, []).append(best[run].tolist())
                outs = {v: str(Path(tmp) / f"query-{v}.json") for v in versions}
                for v in (versions if r % 2 == 0 else list(versions)[::-1]):
                    cli_runs[v].setdefault(tree, []).append(cli_memory(srcs[v], path, leaf, outs[v]))
                if r == 0 and "base" in versions and not same_report(outs["this"], outs["base"]):
                    differ[tree] = largest_difference(outs["this"], outs["base"])
            for name, (_, _, modes, call, _) in ORACLES.items():
                for shape, nets in oracle_nets[name].items():
                    best = best_of(order, lambda v: time_oracle(versions[v], nets[v], modes, call), len(modes))
                    for run in order:
                        oracle_times[name][run].setdefault(shape, []).append(best[run].tolist())

    result = {"sizes": args.sizes, "rounds": args.rounds, "repeats": REPEATS, "budget_s": BUDGET, "k": args.k}
    for c in collector:
        out = result[f"collector_{c}"] = {"us_per_node": {}}
        for v in versions:
            print(f"{v}, collector {c}: µs per node, best of {args.rounds} rounds of at least {REPEATS} runs "
                  f"and {BUDGET} s a layer")
            print(f"  {'tree':<14}" + "".join(f"{layer:>22}" for layer in LAYERS))
            out["us_per_node"][v] = {}
            for tree, (*_, n) in trees.items():
                best = np.min(times[v, c][tree], axis=0) / n * 1e6
                out["us_per_node"][v][tree] = {layer: None if np.isnan(x) else round(x, 3)
                                               for layer, x in zip(LAYERS, best.tolist())}
                print(f"  {tree:<14}" + "".join(f"{'-' if np.isnan(x) else f'{x:.2f}':>22}" for x in best))
        for name, (_, shapes, modes, _, what) in ORACLES.items():
            out[f"{name}_ms"] = {}
            for v in versions:
                print(f"{v}, collector {c}: {name}, ms per {what}, best of {args.rounds} rounds")
                print(f"  {'tree':<14}" + "".join(f"{mode:>22}" for mode in modes))
                out[f"{name}_ms"][v] = {}
                for shape in shapes:
                    best = np.min(oracle_times[name][v, c][shape], axis=0) * 1e3
                    out[f"{name}_ms"][v][shape] = {mode: None if np.isnan(x) else round(x, 4)
                                                   for mode, x in zip(modes, best.tolist())}
                    print(f"  {shape:<14}" + "".join(f"{'-' if np.isnan(x) else f'{x:.3f}':>22}" for x in best))
    out = result["end_to_end"] = {"vmhwm_kb_per_node": {}, "held_vmrss_kb_per_node": {}}
    for v in versions:
        print(f"{v}: `python -m treebelief.cli query FILE --evidence LEAF=s1` in a child process, "
              f"and a held validated network's VmRSS in another, best of {args.rounds} rounds")
        print(f"  {'tree':<14}{'VmHWM kB per node':>22}{'held VmRSS kB per node':>24}")
        for key in out:
            out[key][v] = {}
        for tree, (*_, n) in trees.items():
            hwm, held = (None if runs[0] is None else min(runs) / n for runs in zip(*cli_runs[v][tree]))
            out["vmhwm_kb_per_node"][v][tree] = None if hwm is None else round(hwm, 3)
            out["held_vmrss_kb_per_node"][v][tree] = None if held is None else round(held, 3)
            print(f"  {tree:<14}{'-' if hwm is None else f'{hwm:.3f}':>22}"
                  f"{'-' if held is None else f'{held:.3f}':>24}")
    if "base" in versions:
        for title, key, layers in RATIOS:
            print(f"{title}, this / base: median of per-round ratios [min, max], collector "
                  + " | ".join(collector))
            for tree in trees:
                cells = []
                for c in collector:
                    ratios = [
                        sum(a[i] for i in layers) / sum(b[i] for i in layers)
                        for a, b in zip(times["this", c][tree], times["base", c][tree])
                    ]
                    result[f"collector_{c}"].setdefault(key, {})[tree] = round(statistics.median(ratios), 4)
                    cells.append(f"{statistics.median(ratios):8.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")
                print(f"  {tree:<14}" + " |".join(cells))
        for name, (_, shapes, modes, _, _) in ORACLES.items():
            print(f"{name}, this / base: median of per-round ratios [min, max], collector " + " | ".join(collector))
            spent = oracle_times[name]
            for shape in shapes:
                for i, mode in enumerate(modes):
                    cells = []
                    for c in collector:
                        ratios = [a[i] / b[i] for a, b in zip(spent["this", c][shape], spent["base", c][shape])]
                        median = statistics.median(ratios)
                        result[f"collector_{c}"].setdefault(f"{name}_ratio", {})[f"{shape}/{mode}"] = (
                            None if np.isnan(median) else round(median, 4))
                        cells.append(f"{'-':>8}" if np.isnan(median) else
                                     f"{median:8.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")
                    print(f"  {f'{shape}/{mode}':<24}" + " |".join(cells))
            result[f"{name}_identical"] = not oracle_differ[name]
        print("query and held network in child processes, this / base: median of per-round ratios "
              "[min, max], VmHWM | held VmRSS")
        for tree in trees:
            cells = []
            for i, key in enumerate(("vmhwm_ratio", "held_vmrss_ratio")):
                pairs = zip(cli_runs["this"][tree], cli_runs["base"][tree])
                ratios = [a[i] / b[i] for a, b in pairs if a[i] is not None and b[i] is not None]
                out.setdefault(key, {})[tree] = round(statistics.median(ratios), 4) if ratios else None
                cells.append(f"{statistics.median(ratios):8.3f} [{min(ratios):.3f}, {max(ratios):.3f}]"
                             if ratios else f"{'-':>8}")
            print(f"  {tree:<14}" + " |".join(cells))
        out["reports_identical"] = not differ
        out["report_largest_difference"] = differ
    print(json.dumps(result))
    if differ:
        print("query reports differ apart from generated_at on: " + ", ".join(differ), file=sys.stderr)
        for tree, largest in differ.items():
            print(f"  {tree}: largest absolute difference {largest:.3g}", file=sys.stderr)
    for name, shapes in oracle_differ.items():
        if shapes:
            print(f"{name} reports differ from the base's on: " + ", ".join(shapes), file=sys.stderr)
    return 1 if differ or any(oracle_differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
