import itertools

import numpy as np
import pytest

from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    validate_network,
)
from treebelief.errors import InconsistentEvidence


def brute_force_joint(net, tables, evidence):
    """Posterior marginals and P(evidence) by summing the full joint.

    The reference for the oracles' sum-product.  ``tables[node]`` has shape
    (n_rows, dim); every joint configuration is visited, so the cost is the
    product of all node dimensions: use it on trees of at most 8 nodes.
    Raises :class:`InconsistentEvidence` when the evidence has probability 0.
    """
    order = list(net.order)
    dims = [net.nodes[n].dim for n in order]
    idx = {n: i for i, n in enumerate(order)}
    acc = {n: np.zeros(net.nodes[n].dim) for n in order}
    total = 0.0
    for cfg in itertools.product(*(range(d) for d in dims)):
        consistent = all(cfg[idx[n]] == v for n, v in evidence.items())
        if not consistent:
            continue
        p = 1.0
        for i, node_id in enumerate(order):
            parent = net.nodes[node_id].parent
            row = 0 if parent is None else cfg[idx[parent]]
            p *= tables[node_id][row, cfg[i]]
        total += p
        for i, node_id in enumerate(order):
            acc[node_id][cfg[i]] += p
    if total == 0.0:
        raise InconsistentEvidence("the evidence has probability zero under these tables")
    return {n: acc[n] / total for n in order}, total


def two_node_mixed_spec() -> NetworkSpec:
    """Root with a two-point uncertain prior, child with known columns.

    The child's first alternative has prior mean 0.48, second moment 0.25 and
    variance 0.0196 -- the standing worked example throughout the tests.
    """
    return NetworkSpec(
        (
            NodeSpec(
                "A",
                ("a1", "a2"),
                None,
                (
                    DiscreteSupport(
                        np.array([[0.2, 0.8], [0.6, 0.4]]), np.array([0.5, 0.5])
                    ),
                ),
            ),
            NodeSpec(
                "B",
                ("b1", "b2"),
                "A",
                (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8]))),
            ),
        )
    )


def uniform_chain_spec() -> NetworkSpec:
    """Two binary nodes, every distribution the uniform beta."""
    flat = lambda: Dirichlet(np.array([1.0, 1.0]))
    return NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (flat(),)),
            NodeSpec("B", ("b1", "b2"), "A", (flat(), flat())),
        )
    )


def impossible_evidence_spec() -> NetworkSpec:
    """Deterministic tables under which B=b2 has probability zero."""
    return NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (PointMass(np.array([1.0, 0.0])),)),
            NodeSpec(
                "B",
                ("b1", "b2"),
                "A",
                (PointMass(np.array([1.0, 0.0])), PointMass(np.array([0.0, 1.0]))),
            ),
        )
    )


@pytest.fixture
def two_node_mixed():
    return validate_network(two_node_mixed_spec())


@pytest.fixture
def uniform_chain():
    return validate_network(uniform_chain_spec())
