"""Build each workload's seeded op mix and write its input files.

Files go through ``treebelief.save_network`` before any timing starts, with
one ``.npy`` of reference means per query.  The seed sets Dirichlet
parameters, observed alternatives, Monte Carlo seeds and the replay order;
shapes, sizes, alternative counts and evidence picks are fixed.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from treebelief import save_network

from inputs import (
    SHAPES,
    deepest_leaf,
    dirichlet_network,
    discrete_network,
    mid_node,
    reference_means,
)

# The evidence kind of each 10^3-node query, by shape and k: a Latin square,
# so every shape meets every kind once.  All three kinds for every (shape, k)
# would make a pass of about 30 s; these nine take about 10 s, so a run fits
# three passes and each query's mean is taken over replays spread across the
# run.  The 10^2-node queries run with every evidence kind.
LARGE_EVIDENCE = {
    "chain": {2: "none", 3: "leaf", 8: "mid"},
    "binary": {2: "leaf", 3: "mid", 8: "none"},
    "star": {2: "mid", 3: "none", 8: "leaf"},
}
# (shape, k, nodes).  Sizes are around 10^3 rather than 10^4 nodes: at 10^4
# one op takes about 2 s and set-up about 15 s, so a run of a few tens of
# seconds could replay each op only once.
ENGINE_NETWORKS = (("chain", 2, 500), ("binary", 8, 800), ("chain", 8, 1250), ("binary", 2, 2000))
MC_NODES, MC_SAMPLES = 10, 2000
# Each Monte Carlo compare makes about 60 sigma tests (3 moments per
# alternative per node).  At the CLI's default 4 sigmas about 0.3% of
# compares fail by chance; at 6 a chance failure is below 1e-6 per compare.
MC_SIGMAS = 6
ENUM_NODES, ENUM_POINTS = 8, 2
ORACLE_MODES = ("prior", "approx-posterior", "exact-posterior")
# exact-posterior measures the approximation gap, so exit 4 (gap above the
# tolerance) is a valid outcome there; the other modes must agree.
EXIT_CODES = {"prior": [0], "approx-posterior": [0], "exact-posterior": [0, 4]}


def _evidence_picks(rng, parents, k):
    """The fixed evidence kinds: none, the deepest leaf, a mid-tree node."""
    return {
        "none": {},
        "leaf": {deepest_leaf(parents): int(rng.integers(k))},
        "mid": {mid_node(parents): int(rng.integers(k))},
    }


def _evidence_argv(evidence):
    argv = []
    for node, value in evidence.items():
        argv += ["--evidence", f"n{node}=s{value}"]
    return argv


def _save_reference(work: Path, key: str, parents, tables, evidence) -> str:
    path = work / (key.replace("/", "_") + ".npy")
    np.save(path, reference_means(parents, tables, evidence))
    return str(path)


def cli_oneshot(rng, work: Path) -> dict:
    ops = []
    for shape in SHAPES:
        for k in (2, 3, 8):
            for n in (100, 1000):
                spec, parents, tables = dirichlet_network(rng, shape, n, k)
                path = work / f"{shape}-k{k}-n{n}.json"
                save_network(spec, str(path))
                for kind, evidence in _evidence_picks(rng, parents, k).items():
                    if n == 1000 and kind != LARGE_EVIDENCE[shape][k]:
                        continue
                    key = f"{shape}-k{k}-n{n}/{kind}"
                    ops.append({
                        "kind": "query", "key": key, "shape": shape, "k": k, "n": n,
                        "argv": ["query", str(path)] + _evidence_argv(evidence),
                        "exit_codes": [0],
                        "reference": _save_reference(work, key, parents, tables, evidence),
                    })
    return {"ops": ops}


def engine_sweep(rng, work: Path) -> dict:
    ops, networks = [], {}
    for shape, k, n in ENGINE_NETWORKS:
        spec, parents, tables = dirichlet_network(rng, shape, n, k)
        name = f"{shape}-k{k}-n{n}"
        networks[name] = str(work / f"{name}.json")
        save_network(spec, networks[name])
        picks = _evidence_picks(rng, parents, k)
        chosen = rng.choice(n, size=n // 100, replace=False)
        picks["1pct"] = {int(i): int(rng.integers(k)) for i in chosen}
        for kind, evidence in picks.items():
            key = f"{name}/{kind}"
            ops.append({
                "kind": "engine", "key": key, "shape": shape, "k": k, "n": n,
                "network": name,
                "evidence": [[f"n{i}", v] for i, v in evidence.items()],
                "reference": _save_reference(work, key, parents, tables, evidence),
            })
    return {"ops": ops, "networks": networks}


def oracle_check(rng, work: Path) -> dict:
    ops = []

    def add(key, shape, n, path, mode, argv, evidence):
        ops.append({
            "kind": "compare", "key": key, "shape": shape, "k": 2, "n": n,
            "argv": ["compare", str(path)] + argv + ["--oracle-mode", mode]
            + _evidence_argv({} if mode == "prior" else evidence),
            "exit_codes": EXIT_CODES[mode],
        })

    for shape in SHAPES:
        spec, parents, _ = dirichlet_network(rng, shape, MC_NODES, 2)
        path = work / f"mc-{shape}.json"
        save_network(spec, str(path))
        leaf = {deepest_leaf(parents): int(rng.integers(2))}
        seed = int(rng.integers(2**31))
        for mode in ORACLE_MODES:
            argv = ["--mode", "mc", "--samples", str(MC_SAMPLES), "--seed", str(seed),
                    "--sigmas", str(MC_SIGMAS)]
            add(f"mc-{shape}/{mode}", shape, MC_NODES, path, mode, argv, leaf)

        spec, parents = discrete_network(rng, shape, ENUM_NODES, 2, ENUM_POINTS)
        path = work / f"enum-{shape}.json"
        save_network(spec, str(path))
        leaf = {deepest_leaf(parents): int(rng.integers(2))}
        for mode in ORACLE_MODES[1:]:
            add(f"enum-{shape}/{mode}", shape, ENUM_NODES, path, mode, ["--mode", "enum"], leaf)
    return {"ops": ops}


BUILDERS = {"cli_oneshot": cli_oneshot, "engine_sweep": engine_sweep, "oracle_check": oracle_check}


def build(workload: str, seed: int, work: Path, passes: int) -> dict:
    """The plan for one run: ops, their replay order, and set-up networks.

    The order is ``passes`` passes over the ops, each in its own seeded
    order, so the replays of one op fall at different points of the run.
    """
    rng = np.random.default_rng(seed)
    plan = BUILDERS[workload](rng, work)
    plan["order"] = [int(i) for _ in range(passes) for i in rng.permutation(len(plan["ops"]))]
    plan.setdefault("networks", {})
    return plan
