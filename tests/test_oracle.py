import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_joint, impossible_evidence_spec
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    exact_inference,
    mc_uncertainty,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief.errors import CapExceeded, InconsistentEvidence, PreconditionViolated
from treebelief.generate import random_tree_spec
from treebelief.oracle import _dirichlet_draws, point_tables


class TestExactInference:
    def test_total_probability(self, two_node_mixed):
        tables = {
            "A": np.array([[0.4, 0.6]]),
            "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
        }
        marginals, p_evidence = exact_inference(two_node_mixed, tables, {})
        assert marginals["B"][0] == pytest.approx(0.48)
        assert p_evidence == pytest.approx(1.0)

    def test_bayes_update(self, two_node_mixed):
        tables = {
            "A": np.array([[0.4, 0.6]]),
            "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
        }
        marginals, p_evidence = exact_inference(two_node_mixed, tables, {"B": 0})
        assert marginals["A"][0] == pytest.approx(0.36 / 0.48)
        assert p_evidence == pytest.approx(0.48)

    def test_point_networks_match_propagation(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            net = validate_network(random_tree_spec(rng, max_combinations=1))
            marginals, _ = exact_inference(net, point_tables(net), {})
            reports = posterior_report(propagate(net, {}))
            for node_id in net.order:
                assert marginals[node_id].sum() == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(
                    marginals[node_id], reports[node_id].mean, atol=1e-12
                )

    def test_zero_probability_evidence(self):
        net = validate_network(impossible_evidence_spec())
        with pytest.raises(InconsistentEvidence):
            exact_inference(net, point_tables(net), {"B": 1})


class TestEnumerate:
    def test_worked_prior(self, two_node_mixed):
        report = enumerate_uncertainty(two_node_mixed, {}, "prior")
        entry = report.entries["B"]
        assert entry.mean[0] == pytest.approx(0.48)
        assert entry.second[0] == pytest.approx(0.25)
        assert entry.variance[0] == pytest.approx(0.0196)
        assert report.size == 2  # one two-point row, the rest certain

    def test_point_network_single_combination(self):
        rng = np.random.default_rng(5)
        net = validate_network(random_tree_spec(rng, max_combinations=1))
        report = enumerate_uncertainty(net, {}, "prior")
        assert report.size == 1
        for entry in report.entries.values():
            assert np.max(entry.variance) <= 1e-15

    def test_prior_mode_rejects_evidence(self, two_node_mixed):
        with pytest.raises(PreconditionViolated):
            enumerate_uncertainty(two_node_mixed, {"B": 0}, "prior")

    def test_dirichlet_rows_rejected(self, uniform_chain):
        with pytest.raises(PreconditionViolated):
            enumerate_uncertainty(uniform_chain, {}, "prior")

    def test_cap(self, two_node_mixed):
        with pytest.raises(CapExceeded):
            enumerate_uncertainty(two_node_mixed, {}, "prior", cap=1)

    def test_unknown_mode(self, two_node_mixed):
        with pytest.raises(PreconditionViolated):
            enumerate_uncertainty(two_node_mixed, {}, "posterior")

    def test_inconsistent_evidence(self):
        net = validate_network(impossible_evidence_spec())
        with pytest.raises(InconsistentEvidence):
            enumerate_uncertainty(net, {"B": 1}, "approx-posterior")

    def test_instantiated_nodes_cut_the_tree(self):
        # evidence below an instantiated node must not change anything above
        row = DiscreteSupport(np.array([[0.7, 0.3], [0.35, 0.65]]), np.array([0.5, 0.5]))
        chain = lambda extra: NetworkSpec(
            (
                NodeSpec("A", ("s1", "s2"), None, (row,)),
                NodeSpec("B", ("s1", "s2"), "A", (row, row)),
            )
            + extra
        )
        with_c = validate_network(
            chain((NodeSpec("C", ("s1", "s2"), "B", (row, row)),))
        )
        without_c = validate_network(chain(()))
        got = enumerate_uncertainty(with_c, {"B": 0, "C": 1}, "approx-posterior")
        want = enumerate_uncertainty(without_c, {"B": 0}, "approx-posterior")
        np.testing.assert_allclose(got.entries["A"].mean, want.entries["A"].mean, atol=1e-14)
        np.testing.assert_allclose(
            got.entries["A"].second, want.entries["A"].second, atol=1e-14
        )

    def test_posterior_modes_differ_then_agree_on_means(self, two_node_mixed):
        approx = enumerate_uncertainty(two_node_mixed, {"B": 0}, "approx-posterior")
        exact = enumerate_uncertainty(two_node_mixed, {"B": 0}, "exact-posterior")
        np.testing.assert_allclose(
            approx.entries["A"].mean, exact.entries["A"].mean, atol=1e-12
        )
        # second moments genuinely differ: that gap is the approximation error
        assert not np.allclose(
            approx.entries["A"].second, exact.entries["A"].second, atol=1e-6
        )


class TestMonteCarlo:
    def test_flat_root_against_closed_form(self):
        spec = NetworkSpec(
            (NodeSpec("R", ("x", "y"), None, (Dirichlet(np.array([1.0, 1.0])),)),)
        )
        net = validate_network(spec)
        report = mc_uncertainty(net, {}, "prior", n=100_000, seed=424242)
        entry = report.entries["R"]
        assert abs(entry.mean[0] - 0.5) < 3 * entry.se_mean[0]
        assert abs(entry.second[0] - 1 / 3) < 3 * entry.se_second[0]
        assert abs(entry.variance[0] - 1 / 12) < 3 * entry.se_variance[0]

    def test_point_network_zero_variance(self):
        # constant samples: nothing left but accumulation dust
        rng = np.random.default_rng(9)
        net = validate_network(random_tree_spec(rng, max_combinations=1))
        for seed in (0, 1):
            report = mc_uncertainty(net, {}, "prior", n=500, seed=seed)
            for entry in report.entries.values():
                assert np.max(entry.variance) <= 1e-13
                assert np.max(entry.se_mean) <= 1e-13

    def test_same_seed_bit_identical(self, two_node_mixed):
        a = mc_uncertainty(two_node_mixed, {"B": 0}, "approx-posterior", n=2000, seed=8)
        b = mc_uncertainty(two_node_mixed, {"B": 0}, "approx-posterior", n=2000, seed=8)
        for node_id in a.entries:
            for attr in ("mean", "second", "variance", "se_mean", "se_second", "se_variance"):
                np.testing.assert_array_equal(
                    getattr(a.entries[node_id], attr), getattr(b.entries[node_id], attr)
                )

    def test_different_seed_differs(self, two_node_mixed):
        a = mc_uncertainty(two_node_mixed, {}, "prior", n=2000, seed=8)
        b = mc_uncertainty(two_node_mixed, {}, "prior", n=2000, seed=9)
        assert not np.array_equal(a.entries["B"].mean, b.entries["B"].mean)

    def test_tiny_alphas_stay_finite(self):
        # every gamma of about a quarter of the draws underflows to 0
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.array([0.001, 0.001])),)),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "A",
                    (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8]))),
                ),
            )
        )
        net = validate_network(spec)
        report = mc_uncertainty(net, {}, "prior", n=2000, seed=1)
        engine = posterior_report(propagate(net, {}))
        np.testing.assert_allclose(engine["A"].mean, 0.5)
        np.testing.assert_allclose(engine["A"].variance, 0.25 / 1.002)
        for node_id, rep in engine.items():
            entry = report.entries[node_id]
            for attr in ("mean", "second", "variance"):
                got, se = getattr(entry, attr), getattr(entry, "se_" + attr)
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(se))
                assert np.all(np.abs(got - getattr(rep, attr)) <= 4 * se)

    def test_tiny_alpha_redraw_keeps_other_draws(self):
        alpha = np.array([0.001, 0.003])
        draws = _dirichlet_draws(np.random.default_rng(5), alpha, 20_000)
        gammas = np.random.default_rng(5).gamma(alpha, size=(20_000, 2))
        sums = gammas.sum(axis=1)
        kept = sums > 0.0
        np.testing.assert_array_equal(draws[kept], gammas[kept] / sums[kept, None])
        redrawn = draws[~kept]
        assert len(redrawn) > 500
        assert np.all(np.isfinite(redrawn)) and np.allclose(redrawn.sum(axis=1), 1.0)
        # normalized draws do not depend on the gamma sum: E[p_1] = 0.25 still
        se = np.sqrt(0.25 * 0.75 / len(redrawn))
        assert abs(redrawn[:, 0].mean() - 0.25) < 4 * se

    def test_preconditions(self, two_node_mixed):
        with pytest.raises(PreconditionViolated):
            mc_uncertainty(two_node_mixed, {}, "prior", n=1)
        with pytest.raises(PreconditionViolated):
            mc_uncertainty(two_node_mixed, {}, "prior", n=100, seed=-1)
        with pytest.raises(PreconditionViolated):
            mc_uncertainty(two_node_mixed, {"B": 0}, "prior", n=100)

    def test_degenerate_weights_flagged(self):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.array([0.5, 0.5])),)),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "A",
                    (PointMass(np.array([1.0, 0.0])), PointMass(np.array([0.0, 1.0]))),
                ),
            )
        )
        net = validate_network(spec)
        report = mc_uncertainty(net, {"B": 0}, "exact-posterior", n=5, seed=2)
        assert report.degenerate_weights
        assert report.effective_sample_size < 10

    def test_convergence_toward_enumeration(self, two_node_mixed):
        exact = enumerate_uncertainty(two_node_mixed, {}, "prior")
        errors = {}
        for n in (3_000, 27_000):
            mc = mc_uncertainty(two_node_mixed, {}, "prior", n=n, seed=77)
            entry, truth = mc.entries["B"], exact.entries["B"]
            # sampled values stay inside 3-sigma bands of the exact answer
            assert np.all(np.abs(entry.mean - truth.mean) <= 3 * entry.se_mean + 1e-12)
            assert np.all(
                np.abs(entry.second - truth.second) <= 3 * entry.se_second + 1e-12
            )
            errors[n] = float(np.max(np.abs(entry.mean - truth.mean)))
        # nine times the samples shrinks the standard error about threefold
        a = mc_uncertainty(two_node_mixed, {}, "prior", n=3_000, seed=77)
        b = mc_uncertainty(two_node_mixed, {}, "prior", n=27_000, seed=77)
        ratio = a.entries["B"].se_mean[0] / b.entries["B"].se_mean[0]
        assert 2.4 < ratio < 3.8


_EVIDENCE_KINDS = ["none", "root", "pair", "all", "leaves", "subset", "impossible"]


@st.composite
def _small_trees(draw, where):
    """Stars with 3-8 children, spiders with 2-4 two-node legs, or random
    trees of 2-8 nodes; k in {2, 3}.

    Rows are point masses, one in four of them deterministic so that some
    evidence has probability zero, plus up to three two-point supports.
    ``where`` puts evidence on nothing, the root, a parent-child pair, every
    node, every leaf, a random subset, or one node whose rows all rule its
    observed value out.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["star", "spider", "tree"]))
    if shape == "star":
        parents = [None] + [0] * draw(st.integers(3, 8))
    elif shape == "spider":
        legs = draw(st.integers(2, 4))
        parents = [None] + [0] * legs + list(range(1, legs + 1))
    else:
        parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, draw(st.integers(2, 8)))]
    n_nodes = len(parents)
    dims, configs = [], 1
    for _ in range(n_nodes):
        k = draw(st.sampled_from([2, 3])) if configs * 3 <= 1024 else 2
        dims.append(k)
        configs *= k
    if where == "none":
        observed = []
    elif where == "root":
        observed = [0]
    elif where in ("pair", "impossible"):
        child = draw(st.integers(1, n_nodes - 1))
        observed = [parents[child], child] if where == "pair" else [child]
    elif where == "all":
        observed = list(range(n_nodes))
    elif where == "leaves":
        observed = [i for i in range(1, n_nodes) if i not in parents]
    else:
        observed = draw(st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=3, unique=True))
    values = {i: draw(st.integers(0, dims[i] - 1)) for i in observed}
    row_ids = [(i, r) for i, p in enumerate(parents) for r in range(1 if p is None else dims[p])]
    if where == "impossible":
        # every row of the observed node rules its observed value out
        row_ids = [(i, r) for i, r in row_ids if i != child]
    uncertain = set(draw(st.lists(st.sampled_from(row_ids), max_size=3, unique=True)))

    def row(i, r):
        k = dims[i]
        if where == "impossible" and i == child:
            return PointMass(np.eye(k)[(values[i] + 1) % k])
        if (i, r) in uncertain:
            return DiscreteSupport(rng.dirichlet(np.full(k, 2.0), size=2), rng.dirichlet([2.0, 2.0]))
        if rng.random() < 0.25:
            return PointMass(np.eye(k)[rng.integers(k)])
        return PointMass(rng.dirichlet(np.full(k, 2.0)))

    spec = NetworkSpec(
        tuple(
            NodeSpec(
                f"n{i}",
                tuple(f"s{j}" for j in range(dims[i])),
                None if p is None else f"n{p}",
                tuple(row(i, r) for r in range(1 if p is None else dims[p])),
            )
            for i, p in enumerate(parents)
        )
    )
    evidence = {f"n{i}": v for i, v in values.items()}
    return validate_network(spec), evidence


def _realizations(net):
    """Every (weight, tables) combination of the network's row supports."""
    rows = [
        (node_id, r, dist)
        for node_id in net.order
        for r, dist in enumerate(net.nodes[node_id].rows)
        if isinstance(dist, DiscreteSupport)
    ]
    for choice in itertools.product(*(range(len(d.weights)) for _, _, d in rows)):
        tables = {n: np.array(net.nodes[n].mean_rows) for n in net.order}
        weight = 1.0
        for (node_id, r, dist), c in zip(rows, choice):
            tables[node_id][r] = dist.points[c]
            weight *= dist.weights[c]
        yield weight, tables


def _islands_of(net, evidence):
    """Each evidence island as (top, members, rim evidence), found by walking the tree."""
    islands = []
    for top in net.order:
        parent = net.nodes[top].parent
        if top in evidence or (parent is not None and parent not in evidence):
            continue
        members, stack = [], [top]
        while stack:
            node_id = stack.pop()
            members.append(node_id)
            stack += [c for c in net.nodes[node_id].children if c not in evidence]
        rim = {z: v for z, v in evidence.items() if net.nodes[z].parent in members}
        islands.append((top, members, rim))
    return islands


def _joint_or_zero(net, tables, evidence):
    try:
        return brute_force_joint(net, tables, evidence)
    except InconsistentEvidence:
        return None, 0.0


def _reference(net, evidence, mode):
    """Brute-force moments per uninstantiated node, or None where the oracle must raise."""
    realizations = list(_realizations(net))
    out = {}
    if mode == "exact-posterior":
        joints = [(w, *_joint_or_zero(net, t, evidence)) for w, t in realizations]
        joints = [(w * p_evidence, marginals) for w, marginals, p_evidence in joints]
        norm = sum(w for w, _ in joints)
        if norm == 0.0:
            return None
        for node_id in net.order:
            if node_id not in evidence:
                out[node_id] = tuple(
                    sum(w * marginals[node_id] ** power for w, marginals in joints if w > 0.0) / norm
                    for power in (1, 2)
                )
        return out
    for top, members, rim in _islands_of(net, evidence):
        parent = net.nodes[top].parent
        top_row = 0 if parent is None else evidence[parent]
        z_bar, acc1, acc2 = 0.0, {}, {}
        for w, t in realizations:
            # with the top's table pinned to its row, everything outside the
            # island and its rim sums to 1
            t = dict(t, **{top: np.broadcast_to(t[top][top_row], t[top].shape)})
            marginals, z = _joint_or_zero(net, t, rim)
            z_bar += w * z
            for m in members:
                values = marginals[m] * z if z > 0.0 else 0.0
                acc1[m] = acc1.get(m, 0.0) + w * values
                acc2[m] = acc2.get(m, 0.0) + w * values**2
        if z_bar == 0.0:
            return None
        for m in members:
            out[m] = (acc1[m] / z_bar, acc2[m] / z_bar**2)
    return out


class TestSumProductAgainstBruteForce:
    @pytest.mark.parametrize("where", _EVIDENCE_KINDS)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_exact_inference(self, where, data):
        net, evidence = data.draw(_small_trees(where))
        for _, tables in _realizations(net):
            marginals, total = _joint_or_zero(net, tables, evidence)
            if total == 0.0:
                with pytest.raises(InconsistentEvidence):
                    exact_inference(net, tables, evidence)
                continue
            got, got_total = exact_inference(net, tables, evidence)
            assert got_total == pytest.approx(total, rel=1e-12, abs=1e-12)
            for node_id in net.order:
                np.testing.assert_allclose(got[node_id], marginals[node_id], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("where", _EVIDENCE_KINDS)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_enumeration_modes(self, where, data):
        net, evidence = data.draw(_small_trees(where))
        modes = ["approx-posterior", "exact-posterior"] + ([] if evidence else ["prior"])
        for mode in modes:
            want = _reference(net, evidence, mode)
            if want is None:
                with pytest.raises(InconsistentEvidence):
                    enumerate_uncertainty(net, evidence, mode)
                continue
            report = enumerate_uncertainty(net, evidence, mode)
            for node_id, (mean, second) in want.items():
                entry = report.entries[node_id]
                np.testing.assert_allclose(entry.mean, mean, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(entry.second, second, rtol=1e-12, atol=1e-12)
            for node_id, value in evidence.items():
                assert report.entries[node_id].mean[value] == 1.0


def _large_point_network(shape, n, seed):
    """Binary chain or star: point-mass rows and one two-point row."""
    rng = np.random.default_rng(seed)
    labels = ("s0", "s1")
    nodes = []
    for i in range(n):
        parent = None if i == 0 else (f"n{i - 1}" if shape == "chain" else "n0")
        rows = [PointMass(rng.dirichlet([2.0, 2.0])) for _ in range(1 if i == 0 else 2)]
        if i == 1:
            rows[0] = DiscreteSupport(rng.dirichlet([2.0, 2.0], size=2), np.array([0.3, 0.7]))
        nodes.append(NodeSpec(f"n{i}", labels, parent, tuple(rows)))
    return validate_network(NetworkSpec(tuple(nodes)))


class TestLargeTrees:
    """Trees far beyond what enumerating joint configurations could reach."""

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_enumeration_on_1000_nodes(self, shape):
        net = _large_point_network(shape, 1000, seed=31)
        mid = "n500" if shape == "chain" else "n0"
        evidence = {"n999": 1, mid: 0}
        reports = posterior_report(propagate(net, evidence))
        approx = enumerate_uncertainty(net, evidence, "approx-posterior")
        exact = enumerate_uncertainty(net, evidence, "exact-posterior")
        assert exact.size == 2
        for node_id, rep in reports.items():
            for entry in (approx.entries[node_id], exact.entries[node_id]):
                np.testing.assert_allclose(entry.mean, rep.mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(approx.entries[node_id].second, rep.second, rtol=0, atol=1e-8)
            np.testing.assert_allclose(approx.entries[node_id].variance, rep.variance, rtol=0, atol=1e-8)

    def test_monte_carlo_prior_on_40_node_star(self):
        rng = np.random.default_rng(47)
        nodes = [NodeSpec("hub", ("s0", "s1"), None, (Dirichlet(rng.uniform(0.5, 20.0, 2)),))]
        nodes += [
            NodeSpec(
                f"c{i}",
                ("s0", "s1"),
                "hub",
                tuple(Dirichlet(rng.uniform(0.5, 20.0, 2)) for _ in range(2)),
            )
            for i in range(39)
        ]
        net = validate_network(NetworkSpec(tuple(nodes)))
        reports = posterior_report(propagate(net, {}))
        mc = mc_uncertainty(net, {}, "prior", n=500, seed=3)
        for node_id, rep in reports.items():
            entry = mc.entries[node_id]
            assert np.all(np.abs(entry.mean - rep.mean) <= 4 * entry.se_mean)
            assert np.all(np.abs(entry.second - rep.second) <= 4 * entry.se_second)
            assert np.all(np.abs(entry.variance - rep.variance) <= 4 * entry.se_variance)
