import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import impossible_evidence_spec
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    exact_inference,
    posterior_report,
    propagate,
    query_node,
    validate_network,
)
from treebelief.errors import InconsistentEvidence
from treebelief.generate import random_evidence, random_tree_spec
from treebelief.oracle import point_tables
from treebelief.propagation import Message, _leave_one_out, _product


class TestInitState:
    def test_root_message_is_root_moments(self, two_node_mixed):
        state = propagate(two_node_mixed, {})
        root = two_node_mixed.nodes["A"].row_moments[0]
        np.testing.assert_array_equal(state.parent["A"].mean, root.mean)
        np.testing.assert_array_equal(state.parent["A"].second, root.second)

    def test_child_slots_are_unit(self, two_node_mixed):
        state = propagate(two_node_mixed, {})
        for node_id in two_node_mixed.order:
            if not two_node_mixed.nodes[node_id].children:
                assert np.all(state.combined[node_id].mean == 1.0)
                assert np.all(state.combined[node_id].second == 1.0)

    def test_single_node_flat_root(self):
        spec = NetworkSpec(
            (NodeSpec("R", ("x", "y"), None, (Dirichlet(np.array([1.0, 1.0])),)),)
        )
        rep = query_node("R", propagate(validate_network(spec), {}))
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


class TestCombineChildren:
    def test_empty_is_unit(self):
        msg = _product([], 3)
        assert np.all(msg.mean == 1.0) and np.all(msg.second == 1.0)

    def test_single_is_identity(self, two_node_mixed):
        state = propagate(two_node_mixed, {"B": 0})
        np.testing.assert_array_equal(state.combined["A"].mean, state.upward["B"].mean)
        np.testing.assert_array_equal(state.combined["A"].second, state.upward["B"].second)

    def test_elementwise_product(self):
        a = Message(np.array([0.9, 0.2]), np.array([[0.85, 0.2], [0.2, 0.1]]))
        b = Message(np.array([0.5, 0.5]), np.array([[0.3, 0.25], [0.25, 0.3]]))
        out = _product([a, b], 2)
        assert out.mean == pytest.approx([0.45, 0.10])
        assert out.second == pytest.approx(a.second * b.second)
        state = propagate(validate_network(_two_leaf_spec()), {"B": 0, "C": 1})
        b, c = state.upward["B"], state.upward["C"]
        np.testing.assert_array_equal(state.combined["A"].mean, b.mean * c.mean)
        np.testing.assert_array_equal(state.combined["A"].second, b.second * c.second)

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
        msgs = [Message(np.array(r[:2]), np.array(r[2:]).reshape(2, 2)) for r in raw]
        for i, rest in enumerate(_leave_one_out(msgs, 2)):
            direct = _product(msgs[:i] + msgs[i + 1 :], 2)
            np.testing.assert_allclose(rest.mean, direct.mean, rtol=1e-14, atol=0)
            np.testing.assert_allclose(rest.second, direct.second, rtol=1e-14, atol=0)


class TestChildToParent:
    def test_instantiated_point_columns(self, two_node_mixed):
        msg = propagate(two_node_mixed, {"B": 0}).upward["B"]
        assert msg.mean == pytest.approx([0.9, 0.2])
        assert msg.second == pytest.approx(np.array([[0.81, 0.18], [0.18, 0.04]]))

    def test_unit_message_through_any_rows(self):
        # a subtree with no evidence must emit the unit message
        rng = np.random.default_rng(3)
        for _ in range(50):
            k_child, k_parent = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            spec = NetworkSpec(
                (
                    NodeSpec("f", tuple(range(k_parent)), None, (Dirichlet(np.ones(k_parent)),)),
                    NodeSpec(
                        "g",
                        tuple(range(k_child)),
                        "f",
                        tuple(
                            Dirichlet(rng.uniform(0.2, 8.0, size=k_child))
                            for _ in range(k_parent)
                        ),
                    ),
                )
            )
            msg = propagate(validate_network(spec), {}).upward["g"]
            assert msg.mean == pytest.approx(np.ones(k_parent), abs=1e-12)
            assert msg.second == pytest.approx(np.ones((k_parent, k_parent)), abs=1e-12)


class TestParentToChild:
    def test_instantiated_parent_sends_row_moments(self, two_node_mixed):
        rows = two_node_mixed.nodes["B"].row_moments
        msg = propagate(two_node_mixed, {"A": 1}).parent["B"]
        np.testing.assert_array_equal(msg.mean, rows[1].mean)
        np.testing.assert_array_equal(msg.second, rows[1].second)

    def test_no_evidence_gives_child_prior(self, two_node_mixed):
        msg = propagate(two_node_mixed, {}).parent["B"]
        assert msg.mean == pytest.approx([0.48, 0.52])
        assert np.diag(msg.second) == pytest.approx([0.25, 0.29])


class TestWorkedExample:
    def test_prior_child_report(self, two_node_mixed):
        rep = posterior_report(propagate(two_node_mixed, {}))["B"]
        assert rep.mean == pytest.approx([0.48, 0.52])
        assert rep.second == pytest.approx([0.25, 0.29])
        assert rep.variance == pytest.approx([0.0196, 0.0196])

    def test_posterior_root_mean_is_exact(self, two_node_mixed):
        rep = query_node("A", propagate(two_node_mixed, {"B": 0}))
        # ratio of mean joints: 0.36 / 0.48
        assert rep.mean == pytest.approx([0.75, 0.25])


class TestInstantiatedNodes:
    def test_indicator_report(self, two_node_mixed):
        rep = query_node("B", propagate(two_node_mixed, {"B": 1}))
        assert rep.mean == pytest.approx([0.0, 1.0])
        assert rep.variance == pytest.approx([0.0, 0.0])

    def test_evidence_on_root_reaches_children_via_rows(self, two_node_mixed):
        rep = query_node("B", propagate(two_node_mixed, {"A": 0}))
        row = two_node_mixed.nodes["B"].row_moments[0]
        np.testing.assert_allclose(rep.mean, row.mean)
        np.testing.assert_allclose(rep.second, np.diag(row.second))


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
                marginals, _ = exact_inference(net, point_tables(net), evidence)
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
            query_node("A", propagate(net, {"B": 1}))


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
            for msg in list(state.upward.values()) + list(state.combined.values()):
                m, s = msg.mean, msg.second
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
            for msg in state.parent.values():
                q, t = msg.mean, msg.second
                assert q.sum() == pytest.approx(1.0, abs=1e-9)
                np.testing.assert_allclose(t.sum(axis=1), q, atol=1e-9)
                assert np.all(np.diag(t) <= q + 1e-9)
                assert np.all(np.diag(t) >= q**2 - 1e-9)

    def test_propagate_is_deterministic(self, two_node_mixed):
        a = query_node("A", propagate(two_node_mixed, {"B": 0}))
        b = query_node("A", propagate(two_node_mixed, {"B": 0}))
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
