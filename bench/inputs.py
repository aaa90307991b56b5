"""Seeded benchmark inputs and the reference means that check query output.

Every workload draws its networks from fixed shapes (chain, balanced binary
tree, star) at fixed sizes and alternative counts; the seed only moves the
Dirichlet parameters, the observed alternatives and the replay order, so
runs with different seeds do the same amount of work.  Node ``i`` is named
``n<i>`` and its parent always has a smaller index.
"""
from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from treebelief import Dirichlet, DiscreteSupport, NetworkSpec, NodeSpec, PointMass

SHAPES = ("chain", "binary", "star")
ALPHA_LOW, ALPHA_HIGH = 0.5, 50.0


def parents_of(shape: str, n: int) -> List[Optional[int]]:
    if shape == "chain":
        return [None] + list(range(n - 1))
    if shape == "binary":
        return [None] + [(i - 1) // 2 for i in range(1, n)]
    if shape == "star":
        return [None] + [0] * (n - 1)
    raise ValueError(f"unknown shape {shape!r}")


def depths_of(parents: List[Optional[int]]) -> List[int]:
    depths = [0] * len(parents)
    for i, p in enumerate(parents):
        if p is not None:
            depths[i] = depths[p] + 1
    return depths


def deepest_leaf(parents: List[Optional[int]]) -> int:
    depths = depths_of(parents)
    return max(range(len(parents)), key=lambda i: (depths[i], i))


def mid_node(parents: List[Optional[int]]) -> int:
    """First node at half the tree height (the hub, for a star)."""
    depths = depths_of(parents)
    return depths.index(max(depths) // 2)


def _alpha(rng: np.random.Generator, k: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(ALPHA_LOW), np.log(ALPHA_HIGH), size=k))


def dirichlet_network(rng: np.random.Generator, shape: str, n: int, k: int):
    """A network with Dirichlet rows, and its row-mean tables for the reference."""
    parents = parents_of(shape, n)
    labels = tuple(f"s{j}" for j in range(k))
    nodes, tables = [], []
    for i, p in enumerate(parents):
        alphas = [_alpha(rng, k) for _ in range(1 if p is None else k)]
        tables.append(np.stack([a / a.sum() for a in alphas]))
        rows = tuple(Dirichlet(a) for a in alphas)
        nodes.append(NodeSpec(f"n{i}", labels, None if p is None else f"n{p}", rows))
    return NetworkSpec(tuple(nodes)), parents, tables


def discrete_network(rng: np.random.Generator, shape: str, n: int, k: int, points: int):
    """A network for exhaustive enumeration: a known root row, and every other
    row a ``points``-point support drawn from a Dirichlet, so the uncertainty
    product has ``points ** (k * (n - 1))`` combinations whatever the seed."""
    parents = parents_of(shape, n)
    labels = tuple(f"s{j}" for j in range(k))
    nodes = []
    for i, p in enumerate(parents):
        if p is None:
            rows = (PointMass(rng.dirichlet(_alpha(rng, k))),)
        else:
            rows = tuple(
                DiscreteSupport(
                    rng.dirichlet(_alpha(rng, k), size=points),
                    rng.dirichlet(np.full(points, 2.0)),
                )
                for _ in range(k)
            )
        nodes.append(NodeSpec(f"n{i}", labels, None if p is None else f"n{p}", rows))
    return NetworkSpec(tuple(nodes)), parents


def reference_means(
    parents: List[Optional[int]], tables: List[np.ndarray], evidence: Dict[int, int]
) -> np.ndarray:
    """Exact posterior marginals under the row-mean tables, shape (n, k).

    Plain scalar sum-product (Pearl's lambda/pi messages), rescaled at every
    step and with leave-one-out sibling products from prefix and suffix
    products, so it is linear in the node count for every shape.  It shares
    no code with the moment engine, whose means it must reproduce.
    """
    n = len(parents)
    children: List[List[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    k = tables[0].shape[1]
    own = np.ones((n, k))
    for i, v in evidence.items():
        own[i] = 0.0
        own[i, v] = 1.0
    lam = own.copy()
    up = np.ones((n, k))
    for i in reversed(range(n)):
        for c in children[i]:
            lam[i] *= up[c]
        lam[i] /= lam[i].max()
        if parents[i] is not None:
            msg = tables[i] @ lam[i]
            up[i] = msg / msg.max()
    pi = np.empty((n, k))
    pi[0] = tables[0][0]
    for p in range(n):
        kids = children[p]
        if not kids:
            continue
        msgs = up[kids]
        prefix = np.ones_like(msgs)
        prefix[1:] = np.cumprod(msgs[:-1], axis=0)
        suffix = np.ones_like(msgs)
        suffix[:-1] = np.cumprod(msgs[::-1], axis=0)[::-1][1:]
        base = pi[p] * own[p]
        for j, c in enumerate(kids):
            v = (base * prefix[j] * suffix[j]) @ tables[c]
            pi[c] = v / v.sum()
    post = pi * lam
    return post / post.sum(axis=1, keepdims=True)
