"""Prior-variance bound checks for binary beta trees.

The candidate bound checked here: a node's prior variance should not exceed
the largest variance among its own stored conditional entries.  This module
holds the closed-form two-node variance (:func:`chain_child_variance`) and a
whole-network checker that compares propagated prior variances against the
bound (:func:`check_variance_bound`).

The bound does not always hold.  A parent's variance reaches its child scaled
by the squared separation of the child's row means (see
:func:`chain_child_variance`), so a high-variance parent feeding a child
whose rows are confident but far apart produces child variances well above
every row variance (``tests/test_bounds.py`` pins such cases, inside the
checker's domain and beyond it); :func:`check_variance_bound` reports
honestly either way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, PreconditionViolated
from .model import Dirichlet, ValidatedNetwork
from .propagation import posterior_report, propagate

#: Numerical slack for the bound check.
BOUND_TOL = 1e-12


def chain_child_variance(
    e: float, v: float, e1: float, v1: float, e2: float, v2: float
) -> float:
    """Closed-form prior variance of a binary child's first alternative.

    ``e, v`` are the mean and variance of the binary parent's first
    alternative; ``e1, v1`` and ``e2, v2`` are means and variances of the
    child's first alternative conditional on each parent alternative.  This
    must match the propagation engine's prior variance on the corresponding
    two-node network.
    """
    if not (0.0 <= e <= 1.0 and 0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0):
        raise DomainError("means must lie in [0, 1]")
    if not all(0.0 <= x < np.inf for x in (v, v1, v2)):
        raise DomainError("variances must be finite and >= 0")
    return v * (v1 + v2 + (e1 - e2) ** 2) + v2 * (1.0 - e) ** 2 + v1 * e**2


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
