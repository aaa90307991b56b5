"""Random network generators used by the test suites and the command line."""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .model import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    ValidatedNetwork,
)


# Support points per random_tree_spec row; children per random_beta_tree node.
_MAX_POINTS, _MAX_CHILDREN = 3, 2
_ALPHA_RANGE, _MIN_ALPHA_SUM = (0.5, 50.0), 2.0


def _labels(k: int) -> Tuple[str, ...]:
    return tuple(f"s{j + 1}" for j in range(k))


def random_tree_spec(
    rng: np.random.Generator,
    max_nodes: int = 6,
    max_alternatives: int = 3,
    max_combinations: int = 300,
) -> NetworkSpec:
    """Random tree with discrete-support / point-mass rows.

    ``max_combinations`` bounds the product of support sizes so exhaustive
    enumeration of the result stays cheap.  Support vectors are strictly
    positive, which keeps every evidence assignment possible.
    """
    n_nodes = int(rng.integers(2, max_nodes + 1))
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, n_nodes)]
    dims = [int(rng.integers(2, max_alternatives + 1)) for _ in range(n_nodes)]

    budget = max_combinations
    nodes = []
    for i in range(n_nodes):
        k = dims[i]
        n_rows = 1 if parents[i] is None else dims[parents[i]]
        rows = []
        for _ in range(n_rows):
            n_points = int(rng.integers(1, _MAX_POINTS + 1))
            if n_points > 1 and budget // n_points >= 1:
                budget //= n_points
                points = rng.dirichlet(np.ones(k) * 2.0, size=n_points)
                weights = rng.dirichlet(np.ones(n_points) * 2.0)
                rows.append(DiscreteSupport(points, weights))
            else:
                rows.append(PointMass(rng.dirichlet(np.ones(k) * 2.0)))
        parent = None if parents[i] is None else f"n{parents[i]}"
        nodes.append(NodeSpec(f"n{i}", _labels(k), parent, tuple(rows)))
    return NetworkSpec(tuple(nodes))


def random_evidence(
    rng: np.random.Generator,
    net: ValidatedNetwork,
    max_instantiated: int = 2,
) -> Dict[str, int]:
    """Instantiate up to ``max_instantiated`` random nodes at random values."""
    count = int(rng.integers(0, min(max_instantiated, len(net)) + 1))
    chosen = rng.choice(len(net.order), size=count, replace=False)
    evidence = {}
    for i in chosen:
        node_id = net.order[int(i)]
        evidence[node_id] = int(rng.integers(net.nodes[node_id].dim))
    return evidence


def random_beta_tree(
    rng: np.random.Generator,
    max_depth: int = 5,
) -> NetworkSpec:
    """Random binary tree whose rows are beta (two-dimensional Dirichlet).

    Alphas are log-uniform in ``_ALPHA_RANGE``, resampled until the row's
    alpha sum reaches ``_MIN_ALPHA_SUM``.
    """

    def beta_row() -> Dirichlet:
        while True:
            alpha = np.exp(rng.uniform(*np.log(_ALPHA_RANGE), size=2))
            if alpha.sum() >= _MIN_ALPHA_SUM:
                return Dirichlet(alpha)

    labels = _labels(2)
    nodes = [NodeSpec("n0", labels, None, (beta_row(),))]
    frontier = [("n0", 0)]
    counter = 1
    while frontier:
        parent, depth = frontier.pop(0)
        if depth >= max_depth:
            continue
        n_children = int(rng.integers(0, _MAX_CHILDREN + 1))
        if parent == "n0" and n_children == 0:
            n_children = 1  # at least one non-root node
        for _ in range(n_children):
            node_id = f"n{counter}"
            counter += 1
            nodes.append(NodeSpec(node_id, labels, parent, (beta_row(), beta_row())))
            frontier.append((node_id, depth + 1))
    return NetworkSpec(tuple(nodes))
