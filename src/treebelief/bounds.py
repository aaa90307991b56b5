"""Beta-moment identities and prior-variance bound checks for binary beta trees.

The candidate bound checked here: a node's prior variance should not exceed
the largest variance among its own stored conditional entries.  This module
exposes the closed forms and inequalities around that bound as callable
checks, and a whole-network checker that compares propagated prior
variances against it.

The bound does not always hold.  A parent's variance reaches its child scaled
by the squared separation of the child's row means (see
:func:`chain_child_variance`), so a high-variance parent feeding a child
whose rows are confident but far apart produces child variances well above
every row variance.  ``scripts/probe_bounds.py`` finds such cases
routinely; :func:`check_variance_bound` reports honestly either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, PreconditionViolated
from .model import Dirichlet, MomentSet, ValidatedNetwork
from .propagation import posterior_report, propagate

#: Numerical slack for the inequality checks.
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class BetaParams:
    """Beta density exponents: density proportional to ``p**a * (1-p)**b``.

    Conventional shape parameters are ``a + 1`` and ``b + 1``; both exponents
    must exceed -1.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1.0 and self.b > -1.0):
            raise DomainError(f"beta exponents must exceed -1, got a={self.a}, b={self.b}")

    def to_dirichlet(self) -> Dirichlet:
        return Dirichlet(np.array([self.a + 1.0, self.b + 1.0]))


def beta_moments(params: BetaParams) -> Tuple[float, float, float]:
    """Mean, second moment and cross moment ``E(p (1-p))`` of a beta variable.

    ::

        E        = (a + 1) / (a + b + 2)
        E(p^2)   = (a + 2) / (a + b + 3) * E
        E(p(1-p)) = (b + 1) / (a + b + 3) * E
    """
    a, b = params.a, params.b
    mean = (a + 1.0) / (a + b + 2.0)
    second = (a + 2.0) / (a + b + 3.0) * mean
    cross = (b + 1.0) / (a + b + 3.0) * mean
    return mean, second, cross


def check_moment_condition(moments: MomentSet) -> bool:
    """True when the binary moments satisfy ``E(p^2) <= (E + E^2) / 2``.

    Every beta-distributed probability with exponents summing to at least
    zero satisfies this, and the property is preserved from a parent's prior
    moments to its child's, so holding at the root buys it at every node.
    """
    if moments.dim != 2:
        raise PreconditionViolated("the moment condition is defined for binary vectors")
    mean = float(moments.mean[0])
    second = float(moments.second[0, 0])
    return second <= (mean + mean * mean) / 2.0 + BOUND_TOL


def beta_mean_upper_bound(variance: float) -> float:
    """Largest mean a beta-distributed probability can have at this variance.

    Solves ``E**2 - E + 3V <= 0`` for the admissible mean:
    ``(1 + sqrt(1 - 12 V)) / 2``.  Beta variances never exceed 1/12.
    """
    if variance < 0.0 or variance > 1.0 / 12.0 + BOUND_TOL:
        raise DomainError(f"beta variances lie in [0, 1/12], got {variance}")
    return (1.0 + math.sqrt(max(0.0, 1.0 - 12.0 * variance))) / 2.0


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
    if v < 0.0 or v1 < 0.0 or v2 < 0.0:
        raise DomainError("variances must be >= 0")
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
            if not isinstance(dist, Dirichlet) or dist.dim != 2:
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
        bound = max(
            float(m.second[0, 0] - m.mean[0] ** 2) for m in node.row_moments
        )
        slack = bound - variance
        entries.append(BoundEntry(node_id, variance, bound, slack, slack >= -BOUND_TOL))
    return BoundReport(tuple(entries), all(e.passed for e in entries))
