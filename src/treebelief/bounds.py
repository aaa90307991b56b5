"""Prior-variance bound checks for binary beta trees.

The candidate bound checked here: a node's prior variance should not exceed
the largest variance among its own stored conditional entries.  This module
holds a whole-network checker that compares propagated prior variances
against the bound (:func:`check_variance_bound`) and the random binary beta
trees that ``treebelief boundcheck --gen`` draws from its domain
(:func:`random_beta_tree`).

The bound does not always hold.  By the law of total variance, a parent's
variance reaches its child scaled by the squared separation of the child's
row means, so a high-variance parent feeding a child whose rows are
confident but far apart produces child variances well above every row
variance (``tests/test_bounds.py`` pins such cases, inside the checker's
domain and beyond it); :func:`check_variance_bound` reports honestly either
way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import PreconditionViolated
from .model import Dirichlet, NetworkSpec, NodeSpec, ValidatedNetwork
from .propagation import posterior_report, propagate

#: Numerical slack for the bound check.
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BoundEntry:
    node: str
    variance: float
    bound: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    entries: Tuple[BoundEntry, ...]
    passed: bool

    def entry(self, node_id: str) -> BoundEntry:
        for e in self.entries:
            if e.node == node_id:
                return e
        raise KeyError(node_id)


def _require_binary_beta(net: ValidatedNetwork) -> None:
    for node_id in net.order:
        node = net.nodes[node_id]
        if node.dim != 2:
            raise PreconditionViolated(f"node {node_id!r} is not binary")
        for dist in node.rows:
            if not isinstance(dist, Dirichlet):
                raise PreconditionViolated(
                    f"node {node_id!r} stores a non-beta distribution"
                )


def check_variance_bound(net: ValidatedNetwork) -> BoundReport:
    """Check every non-root node's prior variance against its row variances.

    Requires a binary tree whose rows are all two-dimensional Dirichlet
    (beta) distributions.  For each non-root node the bound is the maximum
    over parent alternatives of the variance of the stored conditional entry;
    by the binary symmetry of variances only the first alternative is
    reported.  ``passed`` tolerates slack down to ``-BOUND_TOL``.  The bound
    can genuinely fail (see the module docstring); the report says so rather
    than erroring.
    """
    _require_binary_beta(net)
    reports = posterior_report(propagate(net, {}))
    entries: List[BoundEntry] = []
    for node_id in net.order:
        node = net.nodes[node_id]
        if node.parent is None:
            continue
        variance = float(reports[node_id].variance[0])
        bound = float(np.max(node.second_rows[:, 0, 0] - node.mean_rows[:, 0] ** 2))
        slack = bound - variance
        entries.append(BoundEntry(node_id, variance, bound, slack, slack >= -BOUND_TOL))
    return BoundReport(tuple(entries), all(e.passed for e in entries))


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
