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
written from, and an eighth, "propagate (prior)", runs ``propagate`` with no
evidence, which sweeps downward only.  Each round times every layer as the
best of :data:`REPEATS` runs, and each layer reads as the best of its
rounds; the collector runs before each run, as in the benchmark worker, and
during it unless ``--gc-off``.

With ``--base SRC`` a second source tree (the ``src`` directory of another
checkout) is loaded into the same process and timed on the same files,
interleaved with this checkout run by run, alternating which goes first.
Each version validates its own hand-built spec, built from the same seed,
since one version's row classes are not valid input to the other's.  Then
the median over rounds of the per-round ratio (this checkout over the base)
of parse plus validate, of ``propagate``, of ``posterior_report``, of
``propagate`` with no evidence and of hand-built validation is printed per
tree as well; the per-round minimum over repeats keeps one slow
run on a shared host out of the ratio.  The last line is one JSON object
with every number printed.

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
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ("chain", "star", "binary")
LAYERS = ("json.load", "parse_network", "validate_network", "propagate", "posterior_report", "emit",
          "validate (hand-built)", "propagate (prior)")
REPEATS = 3  # runs of each layer per round; the fastest counts


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
    classes, and its deepest leaf's id."""
    rng = np.random.default_rng(n)
    labels = tuple(f"s{j}" for j in range(k))
    parent = {"chain": lambda i: i - 1, "star": lambda i: 0, "binary": lambda i: (i - 1) // 2}[shape]
    nodes = [
        tb.NodeSpec(
            f"n{i}", labels, None if i == 0 else f"n{parent(i)}",
            tuple(tb.Dirichlet(rng.uniform(0.5, 5.0, k)) for _ in range(1 if i == 0 else k)),
        )
        for i in range(n)
    ]
    return tb.NetworkSpec(nodes), f"n{n - 1}"  # parents come first, so the last node is a deepest leaf


def time_query(tb, path: str, leaf: str, built) -> list:
    """Seconds spent in each of :data:`LAYERS` by one query, by validating
    the hand-built spec ``built``, and by a query with no evidence."""
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
    reports = tb.posterior_report(state, list(net.order))
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
    start = time.perf_counter()
    tb.propagate(net, {})
    prior = time.perf_counter() - start
    return [b - a for a, b in zip(clock, clock[1:])] + [emit, hand_built, prior]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--k", type=int, default=3, help="alternatives per node")
    parser.add_argument("--base", type=Path, help="src directory of a checkout to compare against")
    parser.add_argument("--gc-off", action="store_true", help="keep the collector off while timing")
    args = parser.parse_args(argv)
    if args.rounds < 1 or min(args.sizes) < 2 or args.k < 2:
        parser.error("--rounds must be at least 1, every size and --k at least 2")

    versions = {"this": load_package(ROOT / "src", "treebelief")}
    if args.base is not None:
        versions["base"] = load_package(args.base.resolve(), "treebelief_base")
    times = {v: {} for v in versions}  # version -> tree -> [per-round layer seconds]
    with tempfile.TemporaryDirectory() as tmp:
        trees, built = {}, {v: {} for v in versions}  # built: version -> tree -> spec
        for shape in SHAPES:
            for n in args.sizes:
                tree, path = f"{shape}-{n}", Path(tmp) / f"{shape}-k{args.k}-n{n}.json"
                for v, tb in versions.items():
                    built[v][tree], leaf = build_tree(tb, shape, n, args.k)
                versions["this"].save_network(built["this"][tree], str(path))
                trees[tree] = (str(path), leaf, n)
        for r in range(args.rounds):
            for tree, (path, leaf, _) in trees.items():
                names = list(versions) if r % 2 == 0 else list(versions)[::-1]
                best = {}
                for _ in range(REPEATS):
                    for v in names:
                        gc.collect()
                        if args.gc_off:
                            gc.disable()
                        try:
                            seconds = time_query(versions[v], path, leaf, built[v][tree])
                        finally:
                            gc.enable()
                        best[v] = np.minimum(best.get(v, seconds), seconds)
                for v in names:
                    times[v].setdefault(tree, []).append(best[v].tolist())

    result = {"sizes": args.sizes, "rounds": args.rounds, "repeats": REPEATS, "k": args.k,
              "gc_off": args.gc_off, "us_per_node": {}, "parse_validate_ratio": {},
              "propagate_ratio": {}, "report_ratio": {}, "prior_propagate_ratio": {},
              "hand_built_validate_ratio": {}}
    for v in versions:
        print(f"{v}: µs per node, best of {args.rounds} rounds of {REPEATS}")
        print(f"  {'tree':<14}" + "".join(f"{layer:>22}" for layer in LAYERS))
        result["us_per_node"][v] = {}
        for tree, (_, _, n) in trees.items():
            best = np.min(times[v][tree], axis=0) / n * 1e6
            result["us_per_node"][v][tree] = dict(zip(LAYERS, np.round(best, 3).tolist()))
            print(f"  {tree:<14}" + "".join(f"{x:>22.2f}" for x in best))
    if "base" in versions:
        for title, key, layers in (("parse + validate", "parse_validate_ratio", [1, 2]),
                                   ("propagate", "propagate_ratio", [3]),
                                   ("posterior_report", "report_ratio", [4]),
                                   ("propagate (prior)", "prior_propagate_ratio", [7]),
                                   ("validate (hand-built)", "hand_built_validate_ratio", [6])):
            print(f"{title}, this / base: median of per-round ratios [min, max]")
            for tree in trees:
                ratios = [
                    sum(a[i] for i in layers) / sum(b[i] for i in layers)
                    for a, b in zip(times["this"][tree], times["base"][tree])
                ]
                result[key][tree] = round(statistics.median(ratios), 4)
                print(f"  {tree:<14}{statistics.median(ratios):8.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
