import copy
import pickle
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ROW_KINDS,
    exact_means,
    impossible_evidence_spec,
    mixed_trees,
    random_evidence,
    random_row,
    random_tree_spec,
)
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief import propagation
from treebelief.errors import InconsistentEvidence, NegativeVariance, UnknownNode
from treebelief.model import ChainSegment, ValidatedNetwork
from treebelief.propagation import NodeReport, _segment_products


class TestInitState:
    def test_root_message_is_root_moments(self, two_node_mixed):
        state = propagate(two_node_mixed, {})
        root = two_node_mixed.nodes["A"]
        mean, second = state.parent("A")
        np.testing.assert_array_equal(mean, root.mean_rows[0])
        np.testing.assert_array_equal(second, root.second_rows[0])

    def test_child_slots_are_unit(self, two_node_mixed):
        # with no evidence every subtree sends the unit message, exactly; B's
        # is A's combined message, and a chain has no sibling products
        state = propagate(two_node_mixed, {})
        for node_id in two_node_mixed.order:
            mean, second = state.combined(node_id)
            assert np.all(mean == 1.0) and np.all(second == 1.0)
        assert state._others == {}

    def test_single_node_flat_root(self):
        spec = NetworkSpec(
            (NodeSpec("R", ("x", "y"), None, (Dirichlet(np.array([1.0, 1.0])),)),)
        )
        rep = posterior_report(propagate(validate_network(spec), {}), ["R"])["R"]
        assert rep.mean == pytest.approx([0.5, 0.5])
        assert rep.second == pytest.approx([1 / 3, 1 / 3])
        assert rep.variance == pytest.approx([1 / 12, 1 / 12])


def _two_leaf_spec() -> NetworkSpec:
    """Root A with point-mass children B and C."""
    point = lambda *p: PointMass(np.array(p))
    return NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (point(0.3, 0.7),)),
            NodeSpec("B", ("b1", "b2"), "A", (point(0.9, 0.1), point(0.2, 0.8))),
            NodeSpec("C", ("c1", "c2"), "A", (point(0.5, 0.5), point(0.5, 0.5))),
        )
    )


def _siblings(messages, dim):
    """``_segment_products`` on one segment of ``(mean, second)`` messages:
    the product and, for each message, the product of the others."""
    out = []
    for j, shape in ((0, (dim,)), (1, (dim, dim))):
        x = np.array([msg[j] for msg in messages]).reshape((1, len(messages)) + shape)
        out.append((_segment_products(x)[0], x[0]))
    (mean, rest_mean), (second, rest_second) = out
    return (mean, second), list(zip(rest_mean, rest_second))


class TestCombineChildren:
    def test_single_is_identity(self, two_node_mixed):
        # a lone child's message is its parent's combined message, bit for bit
        state = propagate(two_node_mixed, {"B": 0})
        up, _, _ = _messages(two_node_mixed, {"B": 0})
        for got, sent in zip(state.combined("A"), up["B"]):
            assert got.tobytes() == sent.tobytes()
        (mean, second), [(rest_mean, rest_second)] = _siblings([up["B"]], 2)
        assert mean.tobytes() == up["B"][0].tobytes() and second.tobytes() == up["B"][1].tobytes()
        assert np.all(rest_mean == 1.0) and np.all(rest_second == 1.0)

    def test_elementwise_product(self):
        a = (np.array([0.9, 0.2]), np.array([[0.85, 0.2], [0.2, 0.1]]))
        b = (np.array([0.5, 0.5]), np.array([[0.3, 0.25], [0.25, 0.3]]))
        (mean, second), (not_a, not_b) = _siblings([a, b], 2)
        assert mean == pytest.approx([0.45, 0.10])
        assert second == pytest.approx(a[1] * b[1])
        np.testing.assert_array_equal(not_a[0], b[0])
        np.testing.assert_array_equal(not_b[1], a[1])
        net, evidence = validate_network(_two_leaf_spec()), {"B": 0, "C": 1}
        up, _, _ = _messages(net, evidence)
        (b_mean, b_second), (c_mean, c_second) = up["B"], up["C"]
        mean, second = propagate(net, evidence).combined("A")
        np.testing.assert_array_equal(mean, b_mean * c_mean)
        np.testing.assert_array_equal(second, b_second * c_second)

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, 0.7]), min_size=6, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_leave_one_out_matches_direct_products(self, raw):
        # zero entries included: the sibling products must not divide
        msgs = [(np.array(r[:2]), np.array(r[2:]).reshape(2, 2)) for r in raw]
        (product, _), others = _siblings(msgs, 2)
        assert len(others) == len(msgs)
        direct = np.prod([m[0] for m in msgs], axis=0)
        np.testing.assert_allclose(product, direct, rtol=1e-14, atol=0)
        for i, rest in enumerate(others):
            kept = msgs[:i] + msgs[i + 1 :]
            for j in (0, 1):
                # a lone message's siblings multiply to the unit message
                direct = np.prod([m[j] for m in kept], axis=0) if kept else np.ones_like(msgs[i][j])
                np.testing.assert_allclose(rest[j], direct, rtol=1e-14, atol=0)

    def test_segments_are_independent(self):
        # several parents with m children each, in one batch
        rng = np.random.default_rng(4)
        x = rng.choice([0.0, 0.5, 0.9, 1.0], size=(5, 4, 3))
        others = x.copy()
        product = _segment_products(others)  # in place
        for p in range(5):
            np.testing.assert_array_equal(product[p], x[p, 0] * x[p, 1] * x[p, 2] * x[p, 3])
            for i in range(4):
                rest = np.prod(np.delete(x[p], i, axis=0), axis=0)
                np.testing.assert_allclose(others[p, i], rest, rtol=1e-15, atol=0)


class TestChildToParent:
    def test_instantiated_point_columns(self, two_node_mixed):
        # B's message is its lone parent's combined message
        mean, second = propagate(two_node_mixed, {"B": 0}).combined("A")
        assert mean == pytest.approx([0.9, 0.2])
        assert second == pytest.approx(np.array([[0.81, 0.18], [0.18, 0.04]]))

    def test_unit_message_through_any_rows(self):
        # A subtree with no evidence sends the unit message, exactly: under a
        # prior query and with the sibling branch's leaf x observed, deeper
        # than g, g bears no evidence and its message keeps the unit fill.
        # g and h own sibling positions 0 and 1, so h's sibling product, at
        # position 1 of ``_others``, is g's message, and f's combined message
        # is h's, bit for bit.
        rng = np.random.default_rng(3)
        labels = lambda k: tuple(map(str, range(k)))
        rows = lambda k, r: tuple(Dirichlet(rng.uniform(0.2, 8.0, size=k)) for _ in range(r))
        for _ in range(50):
            k_child, k_parent = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            spec = NetworkSpec(
                (
                    NodeSpec("f", labels(k_parent), None, (Dirichlet(np.ones(k_parent)),)),
                    NodeSpec("g", labels(k_child), "f", rows(k_child, k_parent)),
                    NodeSpec("h", labels(2), "f", rows(2, k_parent)),
                    NodeSpec("x", labels(2), "h", rows(2, 2)),
                )
            )
            net = validate_network(spec)
            for evidence in ({}, {"x": 1}):
                state, (up, _, _) = propagate(net, evidence), _messages(net, evidence)
                for j in (0, 1):
                    assert np.all(state._others[k_parent][j][1] == 1.0)
                    assert state.combined("f")[j].tobytes() == up["h"][j].tobytes()


class TestParentToChild:
    def test_instantiated_parent_sends_row_moments(self, two_node_mixed):
        node = two_node_mixed.nodes["B"]
        mean, second = propagate(two_node_mixed, {"A": 1}).parent("B")
        np.testing.assert_array_equal(mean, node.mean_rows[1])
        np.testing.assert_array_equal(second, node.second_rows[1])

    def test_no_evidence_gives_child_prior(self, two_node_mixed):
        mean, second = propagate(two_node_mixed, {}).parent("B")
        assert mean == pytest.approx([0.48, 0.52])
        assert np.diag(second) == pytest.approx([0.25, 0.29])


class TestWorkedExample:
    def test_prior_child_report(self, two_node_mixed):
        rep = posterior_report(propagate(two_node_mixed, {}))["B"]
        assert rep.mean == pytest.approx([0.48, 0.52])
        assert rep.second == pytest.approx([0.25, 0.29])
        assert rep.variance == pytest.approx([0.0196, 0.0196])

    def test_posterior_root_mean_is_exact(self, two_node_mixed):
        rep = posterior_report(propagate(two_node_mixed, {"B": 0}), ["A"])["A"]
        # ratio of mean joints: 0.36 / 0.48
        assert rep.mean == pytest.approx([0.75, 0.25])


class TestInstantiatedNodes:
    def test_indicator_report(self, two_node_mixed):
        rep = posterior_report(propagate(two_node_mixed, {"B": 1}), ["B"])["B"]
        assert rep.mean == pytest.approx([0.0, 1.0])
        assert rep.variance == pytest.approx([0.0, 0.0])

    def test_evidence_on_root_reaches_children_via_rows(self, two_node_mixed):
        rep = posterior_report(propagate(two_node_mixed, {"A": 0}), ["B"])["B"]
        node = two_node_mixed.nodes["B"]
        np.testing.assert_allclose(rep.mean, node.mean_rows[0])
        np.testing.assert_allclose(rep.second, np.diag(node.second_rows[0]))


class TestDegenerateNetworks:
    def test_point_mass_networks_have_zero_variance(self):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(20):
            spec = random_tree_spec(rng, max_combinations=1)  # all point rows
            net = validate_network(spec)
            evidence = random_evidence(rng, net)
            try:
                reports = posterior_report(propagate(net, evidence))
                marginals = exact_means(net, evidence)
            except InconsistentEvidence:
                continue
            checked += 1
            for node_id, rep in reports.items():
                assert np.max(rep.variance) <= 1e-12
                np.testing.assert_allclose(rep.mean, marginals[node_id], atol=1e-12)
        assert checked >= 15

    def test_impossible_evidence(self):
        net = validate_network(impossible_evidence_spec())
        with pytest.raises(InconsistentEvidence):
            posterior_report(propagate(net, {"B": 1}), ["A"])

    def test_zero_message_above_a_chain_is_swapped_out(self):
        # Y=y2 is impossible, so observed X gets a zero parent message; X's
        # only child Z, alone on its level, must not divide by that zero
        a, b = impossible_evidence_spec().nodes
        x = NodeSpec("X", ("x1", "x2"), "A", (Dirichlet([2.0, 3.0]), Dirichlet([1.0, 1.0])))
        z_rows = (Dirichlet([1.0, 2.0, 3.0]), PointMass([0.2, 0.3, 0.5]))
        z = NodeSpec("Z", ("z1", "z2", "z3"), "X", z_rows)
        net = validate_network(NetworkSpec((a, NodeSpec("Y", b.alternatives, "A", b.rows), x, z)))
        state = propagate(net, {"X": 0, "Y": 1})
        assert not state.parent("X")[0].any()
        assert state.parent("Z")[0].tobytes() == net.nodes["Z"].mean_rows[0].tobytes()
        with pytest.raises(InconsistentEvidence):
            posterior_report(state)

    @pytest.mark.parametrize("nodes", [None, ["A"], ["B"], []], ids=["all", "A", "B", "none"])
    def test_impossible_evidence_fails_every_report(self, nodes):
        # B=b2 has mean probability 0; B itself is observed, so only the
        # island {A} above it carries the zero
        state = propagate(validate_network(impossible_evidence_spec()), {"B": 1})
        with pytest.raises(InconsistentEvidence, match="^evidence at node 'A' has zero mean probability$"):
            posterior_report(state, nodes)
        with pytest.raises(InconsistentEvidence):
            posterior_report(state, ["B"])

    @pytest.mark.parametrize(
        "evidence, named", [({"A": 1}, "A"), ({"A": 0, "B": 1}, "B"), ({"B": 1, "A": 0}, "B")],
        ids=["root at a zero entry", "observed child of an observed parent", "child listed first"],
    )
    def test_zero_entry_outside_every_island_fails_every_report(self, evidence, named):
        # no island is left to carry the zero: it sits in an observed row entry
        net = validate_network(impossible_evidence_spec())
        state = propagate(net, evidence)
        message = f"^evidence at node '{named}' has zero mean probability$"
        for nodes in (None, ["A"], ["B"], []):
            with pytest.raises(InconsistentEvidence, match=message):
                posterior_report(state, nodes)
        for node_id in net.order:
            with pytest.raises(InconsistentEvidence, match=message):
                posterior_report(state, [node_id])
        assert set(posterior_report(propagate(net, {"A": 0, "B": 0}))) == {"A", "B"}

    def test_island_below_an_observed_node_is_checked(self):
        # X=x1 and Z=z3 are observed; the island {Y} between them has D = 0
        rows = (PointMass([1.0, 0.0]), PointMass([0.5, 0.5]))
        net = validate_network(NetworkSpec((
            NodeSpec("X", ("x1", "x2"), None, (PointMass([0.5, 0.5]),)),
            NodeSpec("Y", ("y1", "y2"), "X", rows),
            NodeSpec("Z", ("z1", "z2", "z3"), "Y", (PointMass([1.0, 0.0, 0.0]), PointMass([0.2, 0.3, 0.5]))),
            NodeSpec("W", ("w1", "w2"), "X", rows),
        )))
        state = propagate(net, {"X": 0, "Z": 2})
        for nodes in (None, ["X"], ["Z"], ["W"]):
            with pytest.raises(InconsistentEvidence, match="^evidence at node 'Y' has zero"):
                posterior_report(state, nodes)
        assert set(posterior_report(propagate(net, {"X": 1, "Z": 2}), ["W"])) == {"W"}

    @pytest.mark.parametrize("mixed", [False, True], ids=["one run of slots", "mixed k"])
    def test_hub_observed_star_names_the_first_dead_island(self, mixed):
        # H=h1 is observed; c2 and c4 each carry an observed leaf that their row
        # under h1 cannot produce, so the islands {c2} and {c4} both have D = 0;
        # c1 is observed too.  The first in child order, c2, is named.
        dead = (PointMass([1.0, 0.0]), PointMass([0.0, 1.0]))
        leaf = (PointMass([1.0, 0.0]), PointMass([0.5, 0.5]))
        kids = [NodeSpec(f"c{i}", ("x1", "x2"), "H", (PointMass([0.3, 0.7]), PointMass([0.6, 0.4])))
                for i in range(8)]
        if mixed:
            kids[5] = NodeSpec("c5", ("y1", "y2", "y3"), "H", (PointMass([0.2, 0.3, 0.5]),) * 2)
        for i in (2, 4):
            kids[i] = NodeSpec(f"c{i}", ("x1", "x2"), "H", dead)
        net = validate_network(NetworkSpec(
            (NodeSpec("H", ("h1", "h2"), None, (PointMass([0.5, 0.5]),)),) + tuple(kids)
            + tuple(NodeSpec(f"g{i}", ("z1", "z2"), f"c{i}", leaf) for i in (2, 4))
        ))
        evidence = {"H": 0, "c1": 1, "g4": 1, "g2": 1}
        state = propagate(net, evidence)
        for nodes in (None, ["H"], ["c0"], ["g2"]):
            with pytest.raises(InconsistentEvidence, match="^evidence at node 'c2' has zero mean probability$"):
                posterior_report(state, nodes)
        assert set(posterior_report(propagate(net, {**evidence, "g2": 0, "g4": 0}), ["c4"])) == {"c4"}

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_report_fails_if_and_only_if_every_report_fails(self, seed, data):
        """On point-mass trees with zero entries, whether a report raises does
        not depend on the nodes asked for."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        parents = [None] + [int(rng.integers(i)) for i in range(1, n)]
        ks = rng.choice([2, 3], size=n).tolist()

        def row(k):  # each entry 0 with probability 0.7 before normalizing, one entry 1
            p = (rng.random(k) < 0.3).astype(float)
            p[rng.integers(k)] = 1.0
            return PointMass(p / p.sum())

        net = validate_network(NetworkSpec(tuple(
            NodeSpec(f"n{i}", tuple(f"s{j}" for j in range(ks[i])), None if p is None else f"n{p}",
                     tuple(row(ks[i]) for _ in range(1 if p is None else ks[p])))
            for i, p in enumerate(parents)
        )))
        observed = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False).tolist()
        evidence = {f"n{i}": int(rng.integers(ks[i])) for i in observed}
        try:
            state = propagate(net, evidence)
        except InconsistentEvidence:
            assume(False)

        def fails(nodes):
            try:
                posterior_report(state, nodes)
            except InconsistentEvidence:
                return True
            return False

        every = fails(None)
        for node_id in net.order:
            assert fails([node_id]) == every
        assert fails(data.draw(st.lists(st.sampled_from(net.order), unique=True))) == every

    def test_variance_below_the_floor_raises(self, monkeypatch, two_node_mixed):
        state = propagate(two_node_mixed, {})
        monkeypatch.setattr(propagation, "VARIANCE_FLOOR", 1.0)  # every variance is below it
        with pytest.raises(NegativeVariance, match=r"^node 'B': variance 0\.019\d* below 1\.0$"):
            posterior_report(state, ["B", "A"])

    def test_impossible_evidence_stops_the_downward_pass(self):
        # C's parent message conditions A on B=b2, which has probability 0
        a, b = impossible_evidence_spec().nodes
        net = validate_network(NetworkSpec((a, b, NodeSpec("C", ("c1", "c2"), "A", b.rows))))
        with pytest.raises(InconsistentEvidence, match="reaching 'C' through 'A'"):
            propagate(net, {"B": 1})

    def test_impossible_star_takes_its_stand_ins_in_linear_time(self):
        # c0=b2 is impossible under both values of the observed hub, so each
        # of the 7999 siblings has D = 0 and takes a stand-in, whose lookup
        # must not scan every node
        b = ("b1", "b2")
        net = validate_network(NetworkSpec(
            (NodeSpec("r", ("a1", "a2"), None, (PointMass([0.5, 0.5]),)),
             NodeSpec("c0", b, "r", (PointMass([1.0, 0.0]),) * 2))
            + tuple(NodeSpec(f"c{i}", b, "r", (Dirichlet([2.0, 3.0]), Dirichlet([1.0, 1.0])))
                    for i in range(1, 8000))
        ))
        start = time.perf_counter()
        with pytest.raises(InconsistentEvidence, match="^evidence at node 'c0' has zero mean probability$"):
            posterior_report(propagate(net, {"r": 0, "c0": 1}))
        assert time.perf_counter() - start < 2.0


class TestStructuralInvariants:
    def test_means_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            net = validate_network(random_tree_spec(rng))
            evidence = random_evidence(rng, net)
            for rep in posterior_report(propagate(net, evidence)).values():
                assert rep.mean.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(rep.variance >= 0.0)

    def test_binary_prior_variance_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            net = validate_network(random_tree_spec(rng, max_alternatives=2))
            for rep in posterior_report(propagate(net, {})).values():
                assert rep.variance[0] == pytest.approx(rep.variance[1], abs=1e-12)

    def test_child_message_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            net = validate_network(random_tree_spec(rng))
            evidence = random_evidence(rng, net)
            state = propagate(net, evidence)
            # a lone child's message is its parent's combined message; a
            # level's are read as its leave-one-out products
            combined = [state.combined(n) for n in net.order if n not in evidence]
            products = [(m, s) for means, seconds in state._others.values() for m, s in zip(means, seconds)]
            for m, s in combined + products:
                assert np.all(m >= -1e-9) and np.all(m <= 1 + 1e-9)
                assert np.all(np.diag(s) <= m + 1e-9)
                assert np.all(np.diag(s) >= m**2 - 1e-9)
                np.testing.assert_allclose(s, s.T, atol=1e-12)
                outer = np.outer(np.diag(s), np.diag(s))
                assert np.all(s**2 <= outer + 1e-12)

    def test_parent_messages_are_moment_sets_without_evidence(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            net = validate_network(random_tree_spec(rng))
            state = propagate(net, {})
            for q, t in map(state.parent, net.order):
                assert q.sum() == pytest.approx(1.0, abs=1e-9)
                np.testing.assert_allclose(t.sum(axis=1), q, atol=1e-9)
                assert np.all(np.diag(t) <= q + 1e-9)
                assert np.all(np.diag(t) >= q**2 - 1e-9)

    def test_propagate_is_deterministic(self, two_node_mixed):
        a = posterior_report(propagate(two_node_mixed, {"B": 0}), ["A"])["A"]
        b = posterior_report(propagate(two_node_mixed, {"B": 0}), ["A"])["A"]
        np.testing.assert_array_equal(a.second, b.second)


class TestOracleSpotChecks:
    def test_matches_enumeration_with_evidence(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            net = validate_network(random_tree_spec(rng))
            evidence = random_evidence(rng, net)
            reports = posterior_report(propagate(net, evidence))
            oracle = enumerate_uncertainty(net, evidence, "approx-posterior")
            for node_id, rep in reports.items():
                entry = oracle.entries[node_id]
                np.testing.assert_allclose(rep.mean, entry.mean, atol=1e-10)
                np.testing.assert_allclose(rep.second, entry.second, atol=1e-10)
                np.testing.assert_allclose(rep.variance, entry.variance, atol=1e-10)


@st.composite
def _stars(draw):
    """A hub with 3-8 children, k in {2, 3}, point rows plus up to three
    two-point supports (so enumeration stays small), and evidence on nothing,
    on the hub, or on one or two leaves."""
    n_children = draw(st.integers(3, 8))
    k = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_ids = [("hub", 0)] + [(f"c{i}", r) for i in range(n_children) for r in range(k)]
    uncertain = set(draw(st.lists(st.sampled_from(row_ids), max_size=3, unique=True)))
    labels = tuple(f"s{j}" for j in range(k))

    def row(row_id):
        if row_id in uncertain:
            return DiscreteSupport(rng.dirichlet(np.full(k, 2.0), size=2), rng.dirichlet([2.0, 2.0]))
        return PointMass(rng.dirichlet(np.full(k, 2.0)))

    hub = NodeSpec("hub", labels, None, (row(("hub", 0)),))
    children = [
        NodeSpec(f"c{i}", labels, "hub", tuple(row((f"c{i}", r)) for r in range(k)))
        for i in range(n_children)
    ]
    where = draw(st.sampled_from(["none", "hub", "leaves"]))
    if where == "none":
        evidence = {}
    elif where == "hub":
        evidence = {"hub": draw(st.integers(0, k - 1))}
    else:
        leaves = draw(st.lists(st.integers(0, n_children - 1), min_size=1, max_size=2, unique=True))
        evidence = {f"c{i}": draw(st.integers(0, k - 1)) for i in leaves}
    order = draw(st.permutations(range(n_children)))
    return hub, children, evidence, order


class TestStarSiblings:
    @given(_stars())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, star):
        hub, children, evidence, _ = star
        net = validate_network(NetworkSpec((hub, *children)))
        reports = posterior_report(propagate(net, evidence))
        oracle = enumerate_uncertainty(net, evidence, "approx-posterior")
        for node_id, rep in reports.items():
            entry = oracle.entries[node_id]
            np.testing.assert_allclose(rep.mean, entry.mean, atol=1e-10)
            np.testing.assert_allclose(rep.second, entry.second, atol=1e-10)
            np.testing.assert_allclose(rep.variance, entry.variance, atol=1e-10)

    @given(_stars())
    @settings(max_examples=60, deadline=None)
    def test_child_order_is_irrelevant(self, star):
        hub, children, evidence, order = star
        base = posterior_report(propagate(validate_network(NetworkSpec((hub, *children))), evidence))
        permuted = NetworkSpec((hub, *(children[i] for i in order)))
        moved = posterior_report(propagate(validate_network(permuted), evidence))
        for node_id, rep in base.items():
            np.testing.assert_allclose(moved[node_id].mean, rep.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(moved[node_id].second, rep.second, rtol=0, atol=1e-12)
            np.testing.assert_allclose(moved[node_id].variance, rep.variance, rtol=0, atol=1e-12)


def _assert_reports_close(base, moved, rename):
    assert set(moved) == {rename[node_id] for node_id in base}
    for node_id, rep in base.items():
        other = moved[rename[node_id]]
        for field in ("mean", "second", "variance"):
            np.testing.assert_allclose(
                getattr(other, field), getattr(rep, field), rtol=0, atol=1e-12
            )


class TestSiblingOrder:
    """File order fixes every node's child order, so shuffling it reorders
    the sibling products of every node; neither that nor renaming the nodes
    may move a report beyond rounding."""

    @pytest.mark.parametrize("max_observed", [0, 3])
    @given(mixed_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_and_renamed_trees_agree(self, max_observed, spec, data):
        observed = data.draw(
            st.lists(
                st.sampled_from(spec.nodes),
                min_size=min(1, max_observed),
                max_size=max_observed,
                unique_by=lambda ns: ns.id,
            )
        )
        evidence = {
            ns.id: data.draw(st.integers(0, len(ns.alternatives) - 1)) for ns in observed
        }
        _check_shuffled_and_renamed(spec, evidence, data)


def _check_shuffled_and_renamed(spec, evidence, data):
    base = posterior_report(propagate(validate_network(spec), evidence))

    shuffled = NetworkSpec(tuple(data.draw(st.permutations(spec.nodes))))
    moved = posterior_report(propagate(validate_network(shuffled), evidence))
    _assert_reports_close(base, moved, {node_id: node_id for node_id in base})

    names = data.draw(st.permutations(range(len(spec.nodes))))
    rename = {ns.id: f"r{names[i]}" for i, ns in enumerate(spec.nodes)}
    renamed = NetworkSpec(
        tuple(
            NodeSpec(
                rename[ns.id],
                ns.alternatives,
                None if ns.parent is None else rename[ns.parent],
                ns.rows,
            )
            for ns in shuffled.nodes
        )
    )
    evidence = {rename[node_id]: alt for node_id, alt in evidence.items()}
    moved = posterior_report(propagate(validate_network(renamed), evidence))
    _assert_reports_close(base, moved, rename)


def _parents_of(shape, n, rng):
    if shape == "star":
        return [None] + [0] * (n - 1)
    if shape == "chain":
        return [None] + list(range(n - 1))
    if shape == "binary":
        return [None] + [(i - 1) // 2 for i in range(1, n)]
    return [None] + [int(rng.integers(0, i)) for i in range(1, n)]


def _tree_spec(parents, ks, row):
    """Node ``n<i>`` with ``ks[i]`` alternatives and rows ``row(i, j, k)``."""
    return NetworkSpec(
        tuple(
            NodeSpec(
                f"n{i}",
                tuple(f"s{j}" for j in range(ks[i])),
                None if p is None else f"n{p}",
                tuple(row(i, j, ks[i]) for j in range(1 if p is None else ks[p])),
            )
            for i, p in enumerate(parents)
        )
    )


def _depths(parents):
    depths = [0] * len(parents)
    for i, p in enumerate(parents):
        if p is not None:
            depths[i] = depths[p] + 1
    return depths


@st.composite
def _large_trees(draw):
    """Stars, chains, binary trees and mixed-k random trees of 10^2-10^3
    nodes: point rows plus up to three two-point rows, so enumeration stays
    small; evidence on nothing, on one leaf, or on 3-6 nodes spread over
    distinct depths."""
    shape = draw(st.sampled_from(["star", "chain", "binary", "mixed"]))
    n = draw(st.integers(100, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents = _parents_of(shape, n, rng)
    if shape == "mixed":
        ks = rng.choice([2, 3, 8], size=n).tolist()
    else:
        ks = [draw(st.sampled_from([2, 3]))] * n
    uncertain = set(rng.choice(n, size=draw(st.integers(0, 3)), replace=False).tolist())

    def row(i, j, k):
        if i in uncertain and j == 0:
            return DiscreteSupport(rng.dirichlet(np.full(k, 2.0), size=2), rng.dirichlet([2.0, 2.0]))
        return PointMass(rng.dirichlet(np.full(k, 2.0)))

    depths = _depths(parents)
    where = draw(st.sampled_from(["none", "leaf", "levels"]))
    if where == "none":
        observed = []
    elif where == "leaf":
        observed = [int(rng.choice(sorted(set(range(n)) - set(parents))))]
    else:
        levels = rng.permutation(max(depths) + 1)[: draw(st.integers(3, 6))]
        observed = [int(rng.choice(np.flatnonzero(np.array(depths) == d))) for d in levels]
    evidence = {f"n{i}": int(rng.integers(ks[i])) for i in observed}
    return _tree_spec(parents, ks, row), evidence


CATERPILLAR_EVIDENCE = ("none", "spine ends", "adjacent", "parent observed", "every 10th")


def _caterpillar(rng, spine, where, branching=0.2):
    """A spine ``n0 .. n<spine-1>`` with side branches of one to three nodes
    on a ``branching`` share of its nodes, so one-node levels and batched
    levels alternate.  ``k`` changes along the spine (2, 3 or 8), so a link
    can join unequal ``k``; rows are Dirichlet or point masses.  ``where``
    names the evidence: nothing, both spine ends, two adjacent spine nodes,
    an inner spine node (whose children see an observed parent) or every
    10th node."""
    parents = [None] + list(range(spine - 1))
    for i in rng.choice(spine, size=int(spine * branching), replace=False).tolist():
        for j in range(int(rng.integers(1, 4))):
            parents.append(i if j == 0 else len(parents) - 1)
    ks = [2]
    for _ in parents[1:]:
        ks.append(ks[-1] if rng.random() < 0.7 else int(rng.choice([2, 3, 8])))

    def row(i, j, k):
        if rng.random() < 0.5:
            return Dirichlet(rng.uniform(0.3, 30.0, size=k))
        return PointMass(rng.dirichlet(np.ones(k)))

    inner = int(rng.integers(1, spine - 2))
    observed = {
        "none": [],
        "spine ends": [0, spine - 1],
        "adjacent": [inner, inner + 1],
        "parent observed": [inner],
        "every 10th": list(range(0, len(parents), 10)),
    }[where]
    evidence = {f"n{i}": int(rng.integers(ks[i])) for i in observed}
    return _tree_spec(parents, ks, row), evidence


@st.composite
def _caterpillars(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spine, where = draw(st.integers(50, 400)), draw(st.sampled_from(CATERPILLAR_EVIDENCE))
    return _caterpillar(rng, spine, where)


class TestLargeTrees:
    """The oracle agreement and the order invariance above, at 10^2-10^3
    nodes, where levels hold many groups and long sibling segments."""

    @given(_large_trees())
    @settings(max_examples=16, deadline=None)
    def test_matches_enumeration(self, tree):
        spec, evidence = tree
        net = validate_network(spec)
        reports = posterior_report(propagate(net, evidence))
        oracle = enumerate_uncertainty(net, evidence, "approx-posterior")
        for node_id, rep in reports.items():
            entry = oracle.entries[node_id]
            np.testing.assert_allclose(rep.mean, entry.mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(rep.second, entry.second, rtol=0, atol=1e-8)

    @given(_large_trees(), st.data())
    @settings(max_examples=8, deadline=None)
    def test_shuffled_and_renamed_trees_agree(self, tree, data):
        _check_shuffled_and_renamed(*tree, data)


class TestQueryMatchesReport:
    """A one-node report equals that node's entry in the full report, bit for bit."""

    @staticmethod
    def _assert_query_is_report(net, evidence):
        state = propagate(net, evidence)
        for node_id, rep in posterior_report(state).items():
            one = posterior_report(state, [node_id])[node_id]
            for field in ("mean", "second", "variance"):
                assert getattr(one, field).tobytes() == getattr(rep, field).tobytes()
            assert one.clamped == rep.clamped

    @pytest.mark.parametrize("where", ["none", "root", "leaves", "level", "parent of other k"])
    def test_mixed_tree(self, where):
        rng = np.random.default_rng(61)
        parents = _parents_of("mixed", 80, rng)
        ks = rng.choice([2, 3, 8], size=80).tolist()
        net = validate_network(_tree_spec(parents, ks, lambda i, j, k: random_row(
            rng, ROW_KINDS[(i + j) % 3], k)))
        depths = _depths(parents)
        chosen = {
            "none": [],
            "root": [0],
            "leaves": sorted(set(range(80)) - set(parents)),
            "level": [i for i in range(80) if depths[i] == 2],
            "parent of other k": [next(p for i, p in enumerate(parents) if p and ks[p] != ks[i])],
        }[where]
        assert where == "none" or chosen
        self._assert_query_is_report(net, {f"n{i}": int(rng.integers(ks[i])) for i in chosen})

    @pytest.mark.parametrize("branching", [0.0, 0.2])
    @pytest.mark.parametrize("where", CATERPILLAR_EVIDENCE)
    def test_chain(self, where, branching):
        spec, evidence = _caterpillar(np.random.default_rng(71), 120, where, branching)
        self._assert_query_is_report(validate_network(spec), evidence)

    def test_one_node_network(self):
        net = validate_network(_tree_spec([None], [3], lambda i, j, k: Dirichlet(np.ones(k))))
        self._assert_query_is_report(net, {})
        self._assert_query_is_report(net, {"n0": 2})

    def test_unknown_node_is_named(self, two_node_mixed):
        state = propagate(two_node_mixed, {})
        for node_id in ("nope", 3, None, ["A"]):  # unhashable ids too
            message = f"^{re.escape(f'node {node_id!r} is not part of the network')}$"
            with pytest.raises(UnknownNode, match=message):
                posterior_report(state, ["A", node_id])
            with pytest.raises(UnknownNode, match=message):
                posterior_report(state, [node_id])

    @pytest.mark.parametrize("message", ["parent", "combined"])
    def test_unknown_node_message_is_named(self, two_node_mixed, message):
        state = propagate(two_node_mixed, {})
        with pytest.raises(UnknownNode, match="^node 'Z' is not part of the network$"):
            getattr(state, message)("Z")
        with pytest.raises(UnknownNode, match=r"^node \['A'\] is not part of the network$"):
            getattr(state, message)(["A"])


@pytest.mark.parametrize("shape, n", [("chain", 20_000), ("star", 10_001)])
def test_large_chain_and_star_match_exact_inference(shape, n):
    rng = np.random.default_rng(67)
    parents = _parents_of(shape, n, rng)
    net = validate_network(
        _tree_spec(parents, [3] * n, lambda i, j, k: Dirichlet(rng.uniform(0.5, 50.0, size=k)))
    )
    evidence = {f"n{n - 1}": 1, f"n{n // 2}": 0, "n1": 2}
    reports = posterior_report(propagate(net, evidence))
    marginals = exact_means(net, evidence)
    for node_id, rep in reports.items():
        np.testing.assert_allclose(rep.mean, marginals[node_id], rtol=0, atol=1e-8)


@pytest.mark.parametrize("shape, bound", [("chain", 1.25), ("binary", 2.8)])
def test_query_peak_memory(shape, bound):
    """A query's peak allocation on a 10³-node tree of k = 8, its deepest
    leaf observed, in units of its combined and parent stacks, ``2 n (k +
    k**2)`` floats.  A chain has no sibling stack, and a level writes its
    children's messages where their leave-one-out products go, so a chain
    peaks near one unit; one more stack of messages would double that."""
    n, k, rng = 1000, 8, np.random.default_rng(13)
    net = validate_network(_tree_spec(_parents_of(shape, n, rng), [k] * n,
                                      lambda i, j, k: Dirichlet(rng.uniform(0.5, 5.0, size=k))))
    evidence = {f"n{n - 1}": 1}
    propagate(net, evidence)
    tracemalloc.start()
    try:
        propagate(net, evidence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2 * n * (k + k * k) * 8


def _dot_diagonal(lam2, second_rows):
    """The engine's diagonal of an upward second moment: one ``dot`` with the
    rows' second moments viewed flat."""
    return second_rows.reshape(len(second_rows), -1) @ lam2.reshape(-1)


def _dot_second(t2, rows, second_rows):
    """The engine's downward second moment: ``T'`` with its diagonal zeroed
    through the row means, plus its diagonal, a contiguous copy as in the
    engine, through the flat row second moments."""
    off, diag, k = t2.copy(), t2.diagonal().copy(), rows.shape[1]
    np.fill_diagonal(off, 0.0)
    return rows.T @ off @ rows + (diag @ second_rows.reshape(len(rows), k * k)).reshape(k, k)


def _einsum_diagonal(lam2, second_rows):
    """The earlier diagonal of an upward second moment, an ``einsum``."""
    return np.einsum("kr,ikr->i", lam2, second_rows)


def _einsum_second(t2, rows, second_rows):
    """The earlier downward second moment: all of ``T'`` through the row
    means, plus its diagonal through the row second moments, minus that
    diagonal through the row means again."""
    diag = np.diag(t2)
    return (
        rows.T @ t2 @ rows
        + np.einsum("j,jab->ab", diag, second_rows)
        - rows.T @ (diag[:, None] * rows)
    )


def _messages(net, evidence, diagonal=_dot_diagonal, downward=_dot_second, keep_d=False):
    """The recurrences evaluated one node at a time, in ``net.order``: the
    reference whose every sum and product the sweep must reproduce.
    ``diagonal`` and ``downward`` give the two second-moment steps; the
    defaults are the engine's.  A node with no instantiated node at or below
    it sends the unit message, exactly.  A node alone at its depth takes
    ``D = 1`` instead of the sum of its parent message, as the engine's
    chain segments do, unless ``keep_d``.  Returns
    the ``(mean, second)`` messages by node id: upward (below the root),
    parent (at uninstantiated nodes) and combined (at uninstantiated
    nodes)."""
    nodes, up, down, combined, others = net.nodes, {}, {}, {}, {}
    depth = {node_id: net.plan.slot[node_id][0] for node_id in net.order}
    width, bearing = Counter(depth.values()), _bearing(net, evidence)
    for node_id in reversed(net.order):
        node = nodes[node_id]
        if node_id in evidence:
            e = np.eye(node.dim)[evidence[node_id]]
            lam = (e, np.outer(e, e))
        else:
            msgs = [up[c] for c in node.children]
            prefix = [(np.ones(node.dim), np.ones((node.dim, node.dim)))]
            for m, s in msgs:
                prefix.append((prefix[-1][0] * m, prefix[-1][1] * s))
            suffix, others[node_id] = prefix[0], [None] * len(msgs)
            for i in range(len(msgs) - 1, -1, -1):
                others[node_id][i] = (prefix[i][0] * suffix[0], prefix[i][1] * suffix[1])
                suffix = (msgs[i][0] * suffix[0], msgs[i][1] * suffix[1])
            lam = combined[node_id] = prefix[-1]
        if node.parent is not None and node_id not in bearing:
            r = nodes[node.parent].dim
            up[node_id] = (np.ones(r), np.ones((r, r)))
        elif node.parent is not None:
            rows, second_rows = node.mean_rows, node.second_rows
            second = rows @ lam[1] @ rows.T
            np.fill_diagonal(second, diagonal(lam[1], second_rows))
            up[node_id] = (rows @ lam[0], second)
    root = nodes[net.root]
    down[net.root] = (root.mean_rows[0], root.second_rows[0])
    for node_id in net.order:
        for i, c in enumerate(nodes[node_id].children):
            rows, second_rows = nodes[c].mean_rows, nodes[c].second_rows
            if c in evidence:
                continue
            if node_id in evidence:
                down[c] = (rows[evidence[node_id]], second_rows[evidence[node_id]])
                continue
            (m, s), (q, t) = others[node_id][i], down[node_id]
            d = 1.0 if width[depth[c]] == 1 and not keep_d else float(m @ q)
            q2, t2 = m * q / d, s * t / (d * d)
            down[c] = (q2 @ rows, downward(t2, rows, second_rows))
    return up, down, combined


def _node_by_node(net, evidence, **steps):
    """Reports from :func:`_messages`: ``{id: (mean, second, variance)}``
    before clamping."""
    _, down, combined = _messages(net, evidence, **steps)
    reports = {}
    for node_id in net.order:
        if node_id in evidence:
            mean = np.eye(net.nodes[node_id].dim)[evidence[node_id]]
            reports[node_id] = (mean, mean, np.zeros_like(mean))
            continue
        (m, s), (q, t) = combined[node_id], down[node_id]
        d = float(m @ q)
        mean, second = m * q / d, (s * t / (d * d)).diagonal()
        reports[node_id] = (mean, second, second - mean**2)
    return reports


def _assert_bitwise(spec, evidence):
    """Reports equal the node-by-node reference bit for bit.  Against the
    ``einsum`` recurrences (``einsum`` diagonals, and the downward second
    moment as all of ``T'`` through the row means plus its diagonal through
    the row second moments minus that diagonal through the row means), means
    keep every bit and each node's second moments move by at most 1e-13 of
    its largest one."""
    net = validate_network(spec)
    reports = posterior_report(propagate(net, evidence))
    for node_id, (mean, second, variance) in _node_by_node(net, evidence).items():
        rep = reports[node_id]
        assert rep.mean.tobytes() == mean.tobytes()
        assert rep.second.tobytes() == second.tobytes()
        assert rep.variance.tobytes() == np.maximum(variance, 0.0).tobytes()
        assert rep.clamped == bool(variance.min() < 0.0)
    einsum = _node_by_node(net, evidence, diagonal=_einsum_diagonal, downward=_einsum_second)
    for node_id, (mean, second, _) in einsum.items():
        rep = reports[node_id]
        assert rep.mean.tobytes() == mean.tobytes()
        np.testing.assert_allclose(rep.second, second, rtol=0, atol=1e-13 * np.abs(second).max())


def _observed_subsets(spec, draw, max_size):
    observed = draw(st.lists(st.sampled_from(spec.nodes), max_size=max_size, unique_by=lambda ns: ns.id))
    return {ns.id: draw(st.integers(0, len(ns.alternatives) - 1)) for ns in observed}


@st.composite
def _observed_trees(draw):
    spec = draw(mixed_trees(max_nodes=30))
    return spec, _observed_subsets(spec, draw, 4)


def _bearing(net, evidence):
    """The nodes with an instantiated node at or below them."""
    bearing = set()
    for node_id in reversed(net.order):
        if node_id in evidence or any(c in bearing for c in net.nodes[node_id].children):
            bearing.add(node_id)
    return bearing


class TestBatchedSweepIsNodeByNode:
    """Batching changes the order in which nodes are visited, not the terms
    or the order of any sum or product, so reports equal the node-by-node
    reference bit for bit, ``clamped`` flags included; second moments stay
    within 1e-13 of the ``einsum`` recurrences (:func:`_assert_bitwise`)."""

    @given(mixed_trees(max_nodes=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_trees(self, spec, data):
        _assert_bitwise(spec, _observed_subsets(spec, data.draw, 4))

    @given(_large_trees())
    @settings(max_examples=8, deadline=None)
    def test_large_trees(self, tree):
        _assert_bitwise(*tree)

    @given(_caterpillars())
    @settings(max_examples=30, deadline=None)
    def test_caterpillars(self, tree):
        """Chains with side branches: one-node levels are swept as chain
        segments and the others batched, and the two hand messages to each
        other."""
        _assert_bitwise(*tree)


class TestEvidenceFreeSubtrees:
    """A node with no instantiated node at or below it keeps the unit fill of
    its combined message, exactly, wherever it sits, and sends the unit
    message: the sweep computes neither, even at or above the deepest
    observed depth.  Its message is read through its parent's product."""

    # n2, n4 and n5 bear no evidence; n2 is above n3's depth, n4 and n5 at it
    @given(_observed_trees())
    @example((
        _tree_spec([None, 0, 0, 1, 2, 2], [2, 3, 8, 3, 2, 2], lambda i, j, k: PointMass(np.ones(k) / k)),
        {"n3": 1},
    ))
    @settings(max_examples=60, deadline=None)
    def test_unit_messages_exactly(self, case):
        spec, evidence = case
        net = validate_network(spec)
        _assert_unit_messages(net, evidence, propagate(net, evidence))


def _segments_spec():
    """``n0`` over ``n1`` and ``n2``; below ``n1`` the chain segment ``n3 ..
    n5``, which feeds the level ``n6 .. n8``; below ``n6`` the segment ``n9,
    n10``.  ``k`` changes along the chains."""
    parents = [None, 0, 0, 1, 3, 4, 5, 5, 5, 6, 9]
    ks = [2, 3, 2, 8, 3, 2, 3, 2, 8, 2, 3]
    rng = np.random.default_rng(83)
    return _tree_spec(parents, ks, lambda i, j, k: random_row(rng, ROW_KINDS[(i + j) % 3], k))


@pytest.fixture(scope="module")
def long_chain():
    """A 2·10⁴-node chain, k = 3, whose nodes alternate between Dirichlet
    rows and point-mass rows summing to ``1 + 0.9e-9``, inside ``PROB_TOL``."""
    n, rng = 20_000, np.random.default_rng(97)

    def row(i, j, k):
        if i % 2 == 0:
            return Dirichlet(rng.uniform(0.5, 50.0, size=k))
        p = rng.dirichlet(np.ones(k))
        p[0] += 0.9e-9
        return PointMass(p)

    return validate_network(_tree_spec(_parents_of("chain", n, rng), [3] * n, row))


def _assert_unit_messages(net, evidence, state):
    """A node with no instantiated node at or below it has the unit combined
    message, exactly, and sends the unit message: an uninstantiated parent's
    product of its children's messages is that of the evidence-bearing ones'
    reference messages alone, bit for bit."""
    (up, _, _), bearing = _messages(net, evidence), _bearing(net, evidence)
    for node_id in net.order:
        if node_id not in bearing:
            for got in state.combined(node_id):
                assert np.all(got == 1.0), node_id
        elif node_id not in evidence:
            sent = [up[c] for c in net.nodes[node_id].children if c in bearing]
            for j, got in enumerate(state.combined(node_id)):
                assert got.tobytes() == np.prod([m[j] for m in sent], axis=0).tobytes(), node_id


def _assert_segment_messages(spec, observed, checked):
    """Reports, and the messages of nodes ``n<i>`` for ``i`` in ``checked``,
    equal the node-by-node reference bit for bit with nodes ``n<i>`` for
    ``i`` in ``observed`` instantiated; at a node with none of them at or
    below it, every message is the unit message.  A node's message to its
    parent is checked through the parent's product (a lone child's is its
    parent's combined message), except into an observed parent, whose
    indicator replaces it."""
    ks = [len(ns.alternatives) for ns in spec.nodes]
    evidence = {f"n{i}": (i + 1) % ks[i] for i in observed}
    _assert_bitwise(spec, evidence)
    net = validate_network(spec)
    state = propagate(net, evidence)
    up, down, combined = _messages(net, evidence)
    _assert_unit_messages(net, evidence, state)
    for i in checked:
        node_id = f"n{i}"
        parent = net.nodes[node_id].parent
        if parent is not None and parent not in evidence:
            for got, want in zip(state.combined(parent), combined[parent]):
                assert got.tobytes() == want.tobytes()
        if node_id in evidence:
            e = np.eye(ks[i])[evidence[node_id]]
            want_combined = (e, np.outer(e, e))
        else:
            want_combined = combined[node_id]
            for got, want in zip(state.parent(node_id), down[node_id]):
                assert got.tobytes() == want.tobytes()
        for got, want in zip(state.combined(node_id), want_combined):
            assert got.tobytes() == want.tobytes()
    return state


def _chain_under_level_spec():
    """``n0`` over the level ``n1, n2`` (k = 2); below ``n1`` a 60-node chain
    ``n3 .. n62`` of k = 3, so its top link has r = 2 and the other 59 r = 3."""
    parents, ks = [None, 0, 0, 1, *range(3, 62)], [2, 2, 2] + [3] * 60
    rng = np.random.default_rng(61)
    return _tree_spec(parents, ks, lambda i, j, k: random_row(rng, ROW_KINDS[(i + j) % 3], k))


def _plain_chain_spec():
    """A 40-node chain ``n0 .. n39`` of k = 3: the root and one segment below it."""
    parents, ks = [None, *range(39)], [3] * 40
    rng = np.random.default_rng(40)
    return _tree_spec(parents, ks, lambda i, j, k: random_row(rng, ROW_KINDS[(i + j) % 3], k))


def _segments(net):
    return [(s.depth, s.n, s.k, s.r) for s in net.plan.steps if isinstance(s, ChainSegment)]


class TestChainSegments:
    """Segment edge cases against the node-by-node reference, bit for bit."""

    def test_segments_are_where_the_spec_says(self):
        # one-node depths 2-4 and 6-7, split again where k or r changes, here at every link
        net = validate_network(_segments_spec())
        assert _segments(net) == [(2, 1, 8, 3), (3, 1, 3, 8), (4, 1, 2, 3), (6, 1, 2, 3), (7, 1, 3, 2)]
        assert _segments(validate_network(_chain_under_level_spec())) == [(2, 1, 3, 2), (3, 59, 3, 3)]

    @given(_caterpillars())
    @settings(max_examples=30, deadline=None)
    def test_segment_fields_locate_every_node(self, tree):
        """A segment's slots and first rows count up from its first node's,
        and each node below the top hangs on the one above."""
        net = validate_network(tree[0])
        by_depth = {net.plan.slot[node_id][0]: node_id for node_id in net.order}
        for seg in (s for s in net.plan.steps if isinstance(s, ChainSegment)):
            assert seg.r == seg.k or seg.n == 1
            for j in range(seg.n):
                node_id = by_depth[seg.depth + j]
                row = net.plan.row_start[seg.k][seg.slot + j]
                assert net.plan.slot[node_id] == (seg.depth + j, seg.k, seg.slot + j)
                assert row == seg.row + j * seg.r
                parent = net.plan.slot[net.nodes[node_id].parent]
                assert parent[2] == (seg.parent if j == 0 else seg.slot + j - 1)

    @pytest.mark.parametrize(
        "observed",
        [[], [3], [4], [30], [62], [20, 40], [4, 5], [1, 30]],
        ids=["none", "top link", "head of the run", "middle", "bottom", "two in the run", "adjacent",
             "above the top"],
    )
    def test_chain_under_a_level(self, observed):
        """The top link has r != k, and observed nodes split the run."""
        spec = _chain_under_level_spec()
        state = _assert_segment_messages(spec, observed, (3, 4, 5, 19, 20, 21, 30, 31, 39, 40, 41, 61, 62))
        by_default, in_order = posterior_report(state), posterior_report(state, list(state.net.order))
        assert list(by_default) == list(in_order) == list(state.net.order)
        for node_id, rep in by_default.items():
            one = posterior_report(state, [node_id])[node_id]
            for got in (in_order[node_id], one):
                assert type(got) is type(rep) is NodeReport
                assert (got.node, got.clamped) == (rep.node, rep.clamped)
                for field in ("mean", "second", "variance"):
                    assert getattr(got, field).tobytes() == getattr(rep, field).tobytes()

    @pytest.mark.parametrize(
        "observed",
        [[], [3], [5], [3, 4, 5], [9, 10], [1, 3], [5, 6], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]],
        ids=["none", "head", "tail", "whole segment", "lower segment", "above the head",
             "tail and below", "every node"],
    )
    def test_reports_and_messages(self, observed):
        _assert_segment_messages(_segments_spec(), observed, (3, 4, 5, 9, 10))

    @pytest.mark.parametrize(
        "observed",
        [[], [0], [1], [39], [20, 21], [0, 1, 39]],
        ids=["none", "first", "second", "last", "adjacent", "first, second and last"],
    )
    def test_plain_chain_every_message(self, observed):
        """Every message of every node of a plain chain, bit for bit, but
        that of the link into an observed node, which its indicator
        overwrites.  A chain owns no sibling positions."""
        spec = _plain_chain_spec()
        net = validate_network(spec)
        assert _segments(net) == [(1, 39, 3, 3)] and net.plan.sib_counts == {}
        _assert_segment_messages(spec, observed, range(40))

    @pytest.mark.parametrize("observed", [[], [19_999], [10_000]], ids=["none", "last", "middle"])
    def test_long_chain_without_denominators(self, long_chain, observed):
        """A segment divides by no ``D``, so its messages carry the product of
        its rows' sums; point-mass rows summing to ``1 + 0.9e-9`` make that
        drift measurable.  Reports still match the reference that divides at
        every node, and every message stays finite."""
        net, evidence = long_chain, {f"n{i}": i % 3 for i in observed}
        state = propagate(net, evidence)
        for stack in (state._combined, state._parent):
            for mean, second in stack.values():
                assert np.isfinite(mean).all() and np.isfinite(second).all()
        if not evidence:  # the parent messages are distributions only up to scale
            assert abs(state.parent(net.order[-1])[0].sum() - 1.0) > 1e-6
        reports = posterior_report(state)
        ref = _node_by_node(net, evidence, keep_d=True)
        got = np.array([reports[node_id][1:3] for node_id in net.order])  # (n, mean/second, k)
        want = np.array([ref[node_id][:2] for node_id in net.order])
        assert np.abs(got[:, 0] - want[:, 0]).max() <= 1e-15
        scale = np.abs(want[:, 1]).max(axis=1, keepdims=True)
        assert np.all(np.abs(got[:, 1] - want[:, 1]) <= 1e-12 * scale)

    def test_zero_denominator_above_a_segment_is_named(self):
        # A lone child's D is its parent message's sum, never zero (and not
        # divided by), so a zero stops the pass above a segment.  B=b2 is
        # impossible, so the sibling product at H is zero; below H hangs
        # the segment X, Y.
        a, b = impossible_evidence_spec().nodes
        rows = (Dirichlet([1.0, 2.0]), PointMass([0.2, 0.8]))
        chain = [NodeSpec(c, ("u", "v"), above, rows) for c, above in (("H", "A"), ("X", "H"), ("Y", "X"))]
        net = validate_network(NetworkSpec((a, b, *chain)))
        assert [(s.depth, s.n) for s in net.plan.steps if isinstance(s, ChainSegment)] == [(2, 2)]
        with pytest.raises(InconsistentEvidence, match="^evidence reaching 'H' through 'A' has zero"):
            propagate(net, {"B": 1})
        # observed, H takes the stand-in and its child the observed row
        state = propagate(net, {"B": 1, "H": 1})
        assert not state.parent("H")[0].any()
        assert state.parent("X")[0].tobytes() == net.nodes["X"].mean_rows[1].tobytes()
        assert state.parent("X")[1].tobytes() == net.nodes["X"].second_rows[1].tobytes()


def _report_bytes(reports):
    return [(r.node, r.clamped, r.mean.tobytes(), r.second.tobytes(), r.variance.tobytes())
            for r in reports.values()]


def _path_depth(net):
    """How many depths below the root the leading path covers."""
    return sum(len(q) for q, _ in net.plan.prior)


def _swept_afresh(net):
    """``net`` without its kept leading path, so every query sweeps the path."""
    return ValidatedNetwork(net.nodes, net.order, net.root, net.plan._replace(prior=()))


def _snapshot(x, seen=None):
    """Everything reachable from ``x`` through containers and object fields:
    arrays as their dtype, shape, flags and bytes, numbers, strings and
    slices as they are, containers by their contents, and each other
    object, once, by identity with its fields."""
    if isinstance(x, np.ndarray):
        return np.ndarray, x.dtype.str, x.shape, x.flags.writeable, x.tobytes()
    if x is None or isinstance(x, (int, float, str, slice, type)):
        return x
    seen = set() if seen is None else seen
    if id(x) in seen:
        return "seen", id(x)
    seen.add(id(x))
    if isinstance(x, Mapping):
        return type(x), [(key, _snapshot(value, seen)) for key, value in x.items()]
    if isinstance(x, (tuple, list)):
        return type(x), [_snapshot(value, seen) for value in x]
    fields = {name: getattr(x, name) for name in getattr(type(x), "__slots__", ()) if hasattr(x, name)}
    fields.update(getattr(x, "__dict__", {}))
    return type(x), id(x), [(name, _snapshot(value, seen)) for name, value in fields.items()]


def _run_threads(target, n):
    """Run ``target(t)`` for ``t`` in ``range(n)``, one thread each, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(t,)) for t in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@st.composite
def _led_trees(draw):
    """A leading path ``n0 .. n<lead>`` whose ``k`` changes along it with
    probability 0.4 per link, so that it may be several chain segments, and
    up to 20 nodes hung at or below its last node."""
    lead, extra = draw(st.integers(0, 25)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents = [None, *range(lead)]
    parents += [int(rng.integers(lead, lead + 1 + i)) for i in range(extra)]
    ks = [int(rng.choice((2, 3, 8)))]
    for _ in parents[1:]:
        ks.append(ks[-1] if rng.random() < 0.6 else int(rng.choice((2, 3, 8))))
    spec = _tree_spec(parents, ks, lambda i, j, k: random_row(rng, ROW_KINDS[int(rng.integers(3))], k))
    return spec, ks


class TestPriorPath:
    """Validation keeps the prior parent messages of the leading path, the
    nodes hanging one per depth from the root; no query may read
    differently for them, and no query changes them."""

    @given(_led_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reports_do_not_depend_on_earlier_queries(self, tree, data):
        """A sequence of queries on one network, in a drawn order, reports
        what each query reports on the same network without its kept path,
        which sweeps the path afresh, byte for byte.  It has no evidence, the
        root observed, the top of the path observed, evidence only below the
        path, and drawn evidence anywhere."""
        spec, ks = tree
        net = validate_network(spec)
        fresh = _swept_afresh(net)
        depth = {node_id: net.plan.slot[node_id][0] for node_id in net.order}
        lead = _path_depth(net)
        alt = lambda node_id: data.draw(st.integers(0, ks[int(node_id[1:])] - 1))
        queries = [{}, {net.root: alt(net.root)}]
        queries += [{node_id: alt(node_id)} for node_id in net.order if depth[node_id] == 1 and lead]
        deeper = [node_id for node_id in net.order if depth[node_id] > lead]
        if deeper:
            picked = data.draw(st.lists(st.sampled_from(deeper), min_size=1, max_size=3, unique=True))
            queries.append({node_id: alt(node_id) for node_id in picked})
        for _ in range(data.draw(st.integers(0, 3))):
            picked = data.draw(st.lists(st.sampled_from(net.order), max_size=3, unique=True))
            queries.append({node_id: alt(node_id) for node_id in picked})
        for evidence in data.draw(st.permutations(queries)):
            got = _report_bytes(posterior_report(propagate(net, evidence)))
            assert got == _report_bytes(posterior_report(propagate(fresh, evidence)))

    def test_kept_path_has_a_pair_per_segment(self):
        """The kept path has one ``(q, T)`` pair per leading chain segment,
        shaped like the segment's messages, and none where the root has
        several children.  A state's messages are its own writable arrays,
        equal to the kept ones above its evidence."""
        net = validate_network(_chain_under_level_spec())
        assert net.plan.prior == () and _path_depth(net) == 0
        net = validate_network(_tree_spec([None, *range(40)], [3] * 20 + [2] * 21,
                                          lambda i, j, k: PointMass(np.arange(1, k + 1) / (k * (k + 1) / 2))))
        lead = net.plan.steps[: len(net.plan.prior)]
        assert [(s.depth, s.n, s.k, s.r) for s in lead] == [(1, 19, 3, 3), (20, 1, 2, 3), (21, 20, 2, 2)]
        assert [x.shape for x in chain.from_iterable(net.plan.prior)] == [
            (19, 3), (19, 3, 3), (1, 2), (1, 2, 2), (20, 2), (20, 2, 2)]
        state = propagate(net, {"n25": 1})
        for seg, (hq, ht) in zip(lead, net.plan.prior):
            q, t = state._parent[seg.k]
            for kept, own in ((hq, q), (ht, t)):
                assert own.flags.writeable and not np.shares_memory(kept, own)
                part = own[seg.slot : seg.slot + seg.n][: 25 - seg.depth + 1]
                assert part.tobytes() == kept[: len(part)].tobytes()

    def test_snapshot_is_read_only_and_written_once(self):
        """Validation writes the kept path as read-only arrays that cannot be
        made writable.  Queries with the root, a path node, a path node and a
        node below, or a node below the path observed, or none, report what
        the network without its kept path reports, leave the same arrays
        with the same bytes, and share no memory with them."""
        rng = np.random.default_rng(11)
        parents, ks = [None, *range(20), 20, 20, 21, 22], [3] * 10 + [2] * 15
        net = validate_network(_tree_spec(parents, ks, lambda i, j, k: Dirichlet(rng.uniform(0.5, 5.0, size=k))))
        assert _path_depth(net) == 20
        kept = net.plan.prior
        arrays = list(chain.from_iterable(kept))
        saved = [x.tobytes() for x in arrays]
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x.flags.writeable = True
        states = []
        for evidence in ({"n0": 1}, {"n7": 2}, {"n19": 0, "n23": 1}, {"n24": 1}, {}):
            states.append(propagate(net, evidence))
            got = _report_bytes(posterior_report(states[-1]))
            assert got == _report_bytes(posterior_report(propagate(_swept_afresh(net), evidence)))
            assert net.plan.prior is kept
            assert [x.tobytes() for x in arrays] == saved
        for state in states:
            for messages in (state._combined, state._parent, state._others):
                for own in chain.from_iterable(messages.values()):
                    assert not any(np.shares_memory(x, own) for x in arrays)

    def test_concurrent_first_queries(self):
        """Threads that query one freshly validated 10³-node chain at once
        report what the queries report one after another: each reads the
        kept path and writes only its own state."""
        n, rng = 1000, np.random.default_rng(7)
        spec = _tree_spec(_parents_of("chain", n, rng), [3] * n,
                          lambda i, j, k: Dirichlet(rng.uniform(0.5, 5.0, size=k)))
        queries = [{}, {"n999": 1}, {"n500": 2}, {"n0": 0}, {"n250": 1, "n750": 0}, {}, {"n999": 2}, {"n10": 1}]
        want = [_report_bytes(posterior_report(propagate(validate_network(spec), ev))) for ev in queries]
        net = validate_network(spec)
        results = [None] * len(queries)

        def query(t):
            results[t] = _report_bytes(posterior_report(propagate(net, queries[t])))

        _run_threads(query, len(queries))
        assert results == want
        assert _path_depth(net) == n - 1

    def test_validated_network_is_a_pure_value(self):
        """No query writes to a validated network: every array, mapping,
        tuple and list reachable from its fields keeps its bytes and flags
        through queries with no evidence, the root, a path node, a node below
        the path or several nodes observed, and through concurrent ones.
        Copies and pickles validate again and keep an equal path in arrays
        of their own."""
        rng = np.random.default_rng(17)
        parents, ks = [None, *range(12), 12, 12, 13, 13, 14, 15], [3] * 6 + [2] * 7 + [8] * 6
        net = validate_network(_tree_spec(parents, ks, lambda i, j, k: random_row(rng, ROW_KINDS[(i + j) % 3], k)))
        assert _path_depth(net) == 12 and len(net.plan.steps) > len(net.plan.prior)
        before = _snapshot(vars(net))
        queries = [{}, {"n0": 2}, {"n5": 1}, {"n17": 7}, {"n3": 0, "n12": 1, "n16": 4}, {"n8": 1, "n18": 0}]
        for evidence in queries:
            posterior_report(propagate(net, evidence))
        _run_threads(lambda t: posterior_report(propagate(net, queries[t % len(queries)])), 2 * len(queries))
        assert _snapshot(vars(net)) == before
        for again in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert _snapshot(again.plan.prior) == _snapshot(net.plan.prior)
            mine, theirs = (list(chain.from_iterable(x.plan.prior)) for x in (again, net))
            assert not any(np.shares_memory(x, y) for x in mine for y in theirs)
