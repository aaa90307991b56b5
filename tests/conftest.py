import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    validate_network,
)
from treebelief import model, oracle
from treebelief.errors import CapExceeded, InconsistentEvidence, ParseError
from treebelief.model import check_observed_entries
from treebelief.netfile import parse_distribution


class Moments(NamedTuple):
    """``mean[i] = E(p_i)`` and ``second[i, j] = E(p_i p_j)`` of one row."""

    mean: np.ndarray
    second: np.ndarray


def moments_of(dist) -> Moments:
    """The moments of one row object, by the formula and the checks that
    :func:`~treebelief.validate_network` runs on every row
    (``model._stacked_moments`` and ``model._check_moments``).  Moments that
    overflow to a non-finite value raise :class:`BadDistribution`."""
    discrete = [(0, dist)] if isinstance(dist, DiscreteSupport) else []
    vectors = np.zeros((1, dist.dim))
    if not discrete:
        vectors[0] = dist.alpha if isinstance(dist, Dirichlet) else dist.p
    with np.errstate(over="ignore", invalid="ignore"):
        mean, second = model._stacked_moments(vectors, np.array([isinstance(dist, Dirichlet)]), discrete)
    model._check_moments(mean, second, "moment set")
    return Moments(mean[0], second[0])


def moments_of_beta(a: float, b: float):
    """``moments_of`` for the beta density proportional to ``p**a * (1-p)**b``,
    in the paper's exponents (Dirichlet parameters ``a + 1`` and ``b + 1``)."""
    return moments_of(Dirichlet(np.array([a + 1.0, b + 1.0])))


def beta_mean_cap(variance: float) -> float:
    """The largest mean a beta variable can have at this variance: the root
    ``(1 + sqrt(1 - 12 V)) / 2`` of ``E**2 - E + 3V <= 0``."""
    return (1.0 + np.sqrt(max(0.0, 1.0 - 12.0 * variance))) / 2.0


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


def exact_means(net, evidence, tables=None):
    """Exact posterior means under one realization of every table.

    ``tables[node]`` has shape (n_rows, dim), by default the node's
    ``mean_rows``.  Enumeration's ``exact-posterior`` mode runs on the
    point-mass twin of the tables, which has one combination; instantiated
    nodes report their indicator.  Raises :class:`InconsistentEvidence`
    when the evidence has probability 0.
    """
    tables = {n: net.nodes[n].mean_rows for n in net.order} if tables is None else tables
    twin = validate_network(NetworkSpec(tuple(
        NodeSpec(n, net.nodes[n].alternatives, net.nodes[n].parent, tuple(map(PointMass, tables[n])))
        for n in net.order
    )))
    return {n: e.mean for n, e in enumerate_uncertainty(twin, evidence, "exact-posterior").entries.items()}


def whole_tree_posterior(net, evidence):
    """Exact-posterior enumeration as one block over every row of the tree.

    The reference for the oracle's per-island form.  Every row is
    enumerated, and each realization is weighted by the evidence probability
    of the whole tree: the product of the island totals and of the table
    entries of observed nodes whose parent is observed or absent.  A node's
    value is its island's joint over the island's total, 0 where that total
    is 0.  Returns the uninstantiated nodes' entries and the combination
    count; raises :class:`CapExceeded` above ``oracle.DEFAULT_CAP``
    combinations.
    """
    check_observed_entries(net, evidence)
    islands = oracle._islands(net, evidence)

    def terms(tabs):
        p_evidence = np.ones(tabs[net.root].shape[-1])
        for node_id, observed in evidence.items():
            parent = net.nodes[node_id].parent
            if parent is None or parent in evidence:
                p_evidence = p_evidence * tabs[node_id][0 if parent is None else evidence[parent], observed]
        conditionals = {}
        for island in islands:
            values, total = oracle._island_sums(net, island, False, tabs)
            p_evidence = p_evidence * total
            safe = np.where(total > 0.0, total, 1.0)
            conditionals.update({m: v / safe for m, v in values.items()})
        return conditionals, p_evidence

    free = [node_id for node_id in net.order if node_id not in evidence]
    rows = [(z, r) for z in net.order for r in range(len(net.nodes[z].rows))]
    count, chunks = oracle._grid_chunks(net, net.order, rows)
    if count > oracle.DEFAULT_CAP:
        raise CapExceeded(f"{count} uncertainty combinations exceed the cap {oracle.DEFAULT_CAP}")
    entries, _ = oracle._moments(net, free, terms, 1, chunks, None)
    return entries, count


def two_point_chain_spec(n: int = 24, seed: int = 24) -> NetworkSpec:
    """A chain ``n0 .. n<n-1>`` of two alternatives in which every row, the
    root's included, is a random two-point support: 2 ** (2 n - 1)
    combinations over the whole tree."""
    rng, labels = np.random.default_rng(seed), ("a", "b")
    two_point = lambda: DiscreteSupport(rng.dirichlet([2.0, 2.0], 2), rng.dirichlet([2.0, 2.0]))
    return NetworkSpec(tuple(
        NodeSpec(f"n{i}", labels, None if i == 0 else f"n{i - 1}",
                 tuple(two_point() for _ in range(1 if i == 0 else 2)))
        for i in range(n)
    ))


#: Every sixth node of the 24-node :func:`two_point_chain_spec` observed:
#: four islands of five nodes, each with 2 ** 11 combinations.
TWO_POINT_CHAIN_EVIDENCE = {"n5": 0, "n11": 1, "n17": 0, "n23": 1}


def three_island_spec() -> NetworkSpec:
    """A point-mass root ``r`` above three chains ``c<i> -> d<i>`` of two
    alternatives whose rows are two-point supports.  With ``r`` observed,
    each chain is an evidence island that reads ``c<i>``'s row under the
    observed alternative and both rows of ``d<i>``: 8 combinations each, 24
    in all."""
    two_point = DiscreteSupport(np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([0.4, 0.6]))
    labels = ("a", "b")
    nodes = [NodeSpec("r", labels, None, (PointMass(np.array([0.5, 0.5])),))]
    for i in range(3):
        nodes += [NodeSpec(f"c{i}", labels, "r", (two_point, two_point)),
                  NodeSpec(f"d{i}", labels, f"c{i}", (two_point, two_point))]
    return NetworkSpec(tuple(nodes))


def random_tree_spec(rng, max_nodes: int = 6, max_alternatives: int = 3, max_combinations: int = 300):
    """Random tree with discrete-support / point-mass rows.

    ``max_combinations`` bounds the product of support sizes so exhaustive
    enumeration of the result stays cheap; a row has at most three support
    points.  Support vectors are strictly positive, which keeps every
    evidence assignment possible.
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
            n_points = int(rng.integers(1, 4))
            if n_points > 1 and budget // n_points >= 1:
                budget //= n_points
                points = rng.dirichlet(np.ones(k) * 2.0, size=n_points)
                weights = rng.dirichlet(np.ones(n_points) * 2.0)
                rows.append(DiscreteSupport(points, weights))
            else:
                rows.append(PointMass(rng.dirichlet(np.ones(k) * 2.0)))
        parent = None if parents[i] is None else f"n{parents[i]}"
        nodes.append(NodeSpec(f"n{i}", tuple(f"s{j + 1}" for j in range(k)), parent, tuple(rows)))
    return NetworkSpec(tuple(nodes))


def random_evidence(rng, net, max_instantiated: int = 2):
    """Instantiate up to ``max_instantiated`` random nodes at random values."""
    count = int(rng.integers(0, min(max_instantiated, len(net)) + 1))
    chosen = rng.choice(len(net.order), size=count, replace=False)
    evidence = {}
    for i in chosen:
        node_id = net.order[int(i)]
        evidence[node_id] = int(rng.integers(net.nodes[node_id].dim))
    return evidence


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


def tiny_evidence_chain_spec(root_row, n: int) -> NetworkSpec:
    """A binary root ``n0`` and a chain ``n1 .. n<n-1>`` in which every node
    takes ``a`` with probability 1e-3; observed all at ``a``, the chain has
    evidence probability 1e-3 ** (n - 1)."""
    rare = PointMass(np.array([1e-3, 1.0 - 1e-3]))
    return NetworkSpec(
        (NodeSpec("n0", ("a", "b"), None, (root_row,)),)
        + tuple(NodeSpec(f"n{i}", ("a", "b"), f"n{i - 1}", (rare, rare)) for i in range(1, n))
    )


def underflow_star_spec(n: int) -> NetworkSpec:
    """A two-point root ``r`` with ``n`` children ``c0 .. c<n-1>`` that take
    ``a`` with probability 1e-3 or 2e-3 by the root's value.  Observed all at
    ``a``, the evidence probability is about 1e-3 ** n, so at 60 children its
    square underflows to 0 while the probability itself does not."""
    root = DiscreteSupport(np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([0.5, 0.5]))
    rows = (PointMass(np.array([1e-3, 1.0 - 1e-3])), PointMass(np.array([2e-3, 1.0 - 2e-3])))
    return NetworkSpec(
        (NodeSpec("r", ("a", "b"), None, (root,)),)
        + tuple(NodeSpec(f"c{i}", ("a", "b"), "r", rows) for i in range(n))
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


def binary_dirichlet_spec(n: int = 1000, seed: int = 1) -> NetworkSpec:
    """A balanced binary tree ``n0 .. n<n-1>`` (node ``i`` below ``(i - 1) // 2``)
    with three alternatives ``s0 .. s2`` and a random Dirichlet per row."""
    rng, labels = np.random.default_rng(seed), ("s0", "s1", "s2")
    return NetworkSpec(tuple(
        NodeSpec(f"n{i}", labels, None if i == 0 else f"n{(i - 1) // 2}",
                 tuple(Dirichlet(rng.uniform(0.5, 5.0, 3)) for _ in range(1 if i == 0 else 3)))
        for i in range(n)
    ))


ROW_KINDS = ("dirichlet", "discrete", "point")


def random_row(rng: np.random.Generator, kind: str, k: int):
    """One uncertain row of dimension ``k`` of the given kind."""
    if kind == "dirichlet":
        return Dirichlet(np.exp(rng.uniform(np.log(0.05), np.log(80.0), size=k)))
    if kind == "discrete":
        m = int(rng.integers(1, 4))
        return DiscreteSupport(rng.dirichlet(np.ones(k), size=m), rng.dirichlet(np.ones(m)))
    return PointMass(rng.dirichlet(np.ones(k)))


@st.composite
def mixed_trees(draw, max_nodes: int = 10) -> NetworkSpec:
    """Random trees with k in {2, 3, 8} and Dirichlet, discrete and point rows.

    Nodes are listed in a random file order, so parents may follow their
    children and nodes of different k interleave.
    """
    n = draw(st.integers(1, max_nodes))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    ks = draw(st.lists(st.sampled_from((2, 3, 8)), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = []
    for i, p in enumerate(parents):
        n_rows = 1 if p is None else ks[p]
        kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n_rows, max_size=n_rows))
        rows = tuple(random_row(rng, kind, ks[i]) for kind in kinds)
        labels = tuple(f"s{j}" for j in range(ks[i]))
        nodes.append(NodeSpec(f"n{i}", labels, None if p is None else f"n{p}", rows))
    return NetworkSpec(tuple(draw(st.permutations(nodes))))


def reference_parse(doc):
    """``parse_network`` row by row: one :func:`parse_distribution` per row,
    every check in file order.  The reference for the columnar parse."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    nodes_doc = doc.get("nodes")
    if not (isinstance(nodes_doc, list) and nodes_doc):
        raise ParseError("top-level 'nodes' list required")
    alternatives_of = {}
    for entry in nodes_doc:
        if not isinstance(entry, dict):
            raise ParseError("each node must be an object")
        if not isinstance(entry.get("id"), str):
            raise ParseError("node 'id' must be a string")
        alts = entry.get("alternatives")
        if not (isinstance(alts, list) and all(isinstance(a, str) for a in alts)):
            raise ParseError(f"node {entry.get('id')!r}: 'alternatives' must be a list of strings")
        alternatives_of[entry["id"]] = alts
    nodes = []
    for entry in nodes_doc:
        node_id, parent, cpt = entry["id"], entry.get("parent"), entry.get("cpt")
        if not (parent is None or isinstance(parent, str)):
            raise ParseError(f"node {node_id!r}: 'parent' must be a string or null")
        if not (isinstance(cpt, list) and cpt):
            raise ParseError(f"node {node_id!r}: 'cpt' rows required")
        if parent is None:
            expected_given = [None]
        elif parent in alternatives_of:
            expected_given = list(alternatives_of[parent])
        else:
            expected_given = [row.get("given") for row in cpt if isinstance(row, dict)]
        rows = []
        for j, row in enumerate(cpt):
            if not isinstance(row, dict):
                raise ParseError(f"node {node_id!r}: cpt row {j} must be an object")
            if j < len(expected_given) and row.get("given") != expected_given[j]:
                raise ParseError(
                    f"node {node_id!r}: cpt row {j} is for {row.get('given')!r}, "
                    f"expected {expected_given[j]!r}"
                )
            rows.append(parse_distribution(row.get("dist"), f"node {node_id!r}, row {j}"))
        nodes.append(NodeSpec(node_id, tuple(alternatives_of[node_id]), parent, tuple(rows)))
    return NetworkSpec(tuple(nodes))


def row_arrays(dist):
    if isinstance(dist, DiscreteSupport):
        return dist.points, dist.weights
    return (dist.alpha,) if isinstance(dist, Dirichlet) else (dist.p,)


@pytest.fixture
def two_node_mixed():
    return validate_network(two_node_mixed_spec())


@pytest.fixture
def uniform_chain():
    return validate_network(uniform_chain_spec())
