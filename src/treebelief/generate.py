"""Random network generator used by the command line."""
from __future__ import annotations

import numpy as np

from .model import Dirichlet, NetworkSpec, NodeSpec


# Children per random_beta_tree node.
_MAX_CHILDREN = 2
_ALPHA_RANGE, _MIN_ALPHA_SUM = (0.5, 50.0), 2.0


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

    labels = ("s1", "s2")
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
