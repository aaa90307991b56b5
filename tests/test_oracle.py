import itertools
import tracemalloc
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_joint,
    impossible_evidence_spec,
    tiny_evidence_chain_spec,
    underflow_star_spec,
)
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
from treebelief import oracle
from treebelief.errors import (
    CapExceeded,
    InconsistentEvidence,
    NonFiniteResult,
    PreconditionViolated,
)
from treebelief.generate import random_beta_tree, random_evidence, random_tree_spec
from treebelief.oracle import OracleEntry, _dirichlet_draws, point_tables


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

    def test_point_tables_need_point_rows(self, uniform_chain):
        with pytest.raises(PreconditionViolated, match="^node 'A' is not a point-mass node$"):
            point_tables(uniform_chain)


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
        for cap in (1, np.int64(1), np.int32(1)):
            with pytest.raises(CapExceeded):
                enumerate_uncertainty(two_node_mixed, {}, "prior", cap=cap)

    @pytest.mark.parametrize("cap", ["10", True, False, 2.5, 0, -1, None])
    def test_cap_must_be_a_positive_integer(self, two_node_mixed, cap):
        with pytest.raises(PreconditionViolated, match="^cap must be"):
            enumerate_uncertainty(two_node_mixed, {}, "prior", cap=cap)

    def test_unknown_mode(self, two_node_mixed):
        with pytest.raises(PreconditionViolated):
            enumerate_uncertainty(two_node_mixed, {}, "posterior")

    def test_inconsistent_evidence(self):
        net = validate_network(impossible_evidence_spec())
        with pytest.raises(InconsistentEvidence):
            enumerate_uncertainty(net, {"B": 1}, "approx-posterior")

    @pytest.mark.parametrize("mode", ["approx-posterior", "exact-posterior"])
    @pytest.mark.parametrize(
        "evidence, named", [({"A": 1}, "A"), ({"A": 0, "B": 1}, "B")],
        ids=["root at a zero entry", "observed child of an observed parent"],
    )
    def test_zero_entry_outside_every_island(self, mode, evidence, named):
        net = validate_network(impossible_evidence_spec())
        message = f"^evidence at node '{named}' has zero mean probability$"
        with pytest.raises(InconsistentEvidence, match=message):
            enumerate_uncertainty(net, evidence, mode)
        with pytest.raises(InconsistentEvidence, match=message):
            mc_uncertainty(net, evidence, mode, n=100)
        assert set(enumerate_uncertainty(net, {"A": 0, "B": 0}, mode).entries) == {"A", "B"}

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

    def test_underflowing_second_moment_raises(self):
        # P(e) = 6e-163: sum w z is finite, (sum w z)^2 is 0, and the
        # approx-posterior second moments would be NaN
        net = validate_network(underflow_star_spec(60))
        evidence = {f"c{i}": 0 for i in range(60)}
        with pytest.raises(NonFiniteResult, match="evidence probability 6.3"):
            enumerate_uncertainty(net, evidence, "approx-posterior")
        exact = enumerate_uncertainty(net, evidence, "exact-posterior")
        for entry in exact.entries.values():
            assert all(np.isfinite(getattr(entry, attr)).all() for attr in MOMENTS)


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

    @pytest.mark.parametrize("alpha", [[0.001, 0.003], [1e-4, 2e-4, 1e-3], [300.0, 1000.0]])
    def test_draws_and_stream_match_numpy_gamma(self, alpha):
        # _dirichlet_draws as written with rng.gamma(shape=...), the reference:
        # standard_gamma must give the same draws and leave the stream where it was.
        def reference(rng, alpha, n):
            gammas = rng.gamma(shape=alpha, size=(n, len(alpha)))
            sums = gammas.sum(axis=1, keepdims=True)
            if not sums.all():
                lost = sums[:, 0] == 0.0
                size = (int(lost.sum()), len(alpha))
                logs = np.log(rng.gamma(shape=alpha + 1.0, size=size))
                logs += np.log(1.0 - rng.random(size)) / alpha
                gammas[lost] = np.exp(logs - logs.max(axis=1, keepdims=True))
                sums = gammas.sum(axis=1, keepdims=True)
            return gammas / sums

        alpha = np.array(alpha)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        for n in (1, 777, 5000):
            np.testing.assert_array_equal(_dirichlet_draws(ours, alpha, n), reference(theirs, alpha, n))
            assert ours.random() == theirs.random()

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
        with pytest.raises(PreconditionViolated, match="MAX_SAMPLES"):
            mc_uncertainty(two_node_mixed, {}, "prior", n=oracle.MAX_SAMPLES + 1)
        with pytest.raises(PreconditionViolated):
            mc_uncertainty(two_node_mixed, {}, "prior", n=100, seed=-1)
        with pytest.raises(PreconditionViolated):
            mc_uncertainty(two_node_mixed, {"B": 0}, "prior", n=100)
        with pytest.raises(PreconditionViolated, match="^unknown oracle mode 'posterior'$"):
            mc_uncertainty(two_node_mixed, {}, "posterior", n=100)
        for kwargs in ({"n": 2.5}, {"n": True}, {"seed": 1.5}, {"seed": False}, {"seed": "1"}):
            name = next(iter(kwargs))
            with pytest.raises(PreconditionViolated, match=f"^{name} must be an integer"):
                mc_uncertainty(two_node_mixed, {}, "prior", **{"n": 100, **kwargs})
        report = mc_uncertainty(two_node_mixed, {}, "prior", n=np.int64(100), seed=np.int32(1))
        assert report.size == 100

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

    def test_tiny_evidence_probability(self):
        # P(e) = 1e-177: each (w z)^2 underflows to 0 while w z does not
        evidence = {f"n{i}": 0 for i in range(1, 60)}
        net = validate_network(tiny_evidence_chain_spec(PointMass([0.5, 0.5]), 60))
        assert enumerate_uncertainty(net, evidence, "exact-posterior").effective_sample_size == 1.0
        net = validate_network(tiny_evidence_chain_spec(Dirichlet([2.0, 2.0]), 60))
        with pytest.raises(NonFiniteResult, match="standard errors"):  # z**3 underflows
            mc_uncertainty(net, evidence, "exact-posterior", n=2000, seed=1)

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
    for node_id, value in evidence.items():  # an observed entry outside every island
        parent = net.nodes[node_id].parent
        if parent is None or parent in evidence:
            row = 0 if parent is None else evidence[parent]
            if sum(w * t[node_id][row, value] for w, t in realizations) == 0.0:
                return None
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


# Per-alternative delta-method standard errors, one sample covariance each: the
# reference for the batched, streamed standard errors of ``oracle._moments``.

def _se_of(columns: Sequence[np.ndarray], grads: Sequence[np.ndarray], n: int) -> List[float]:
    """Delta-method standard errors of smooth functions of the columns'
    sample means, one per gradient, all from one sample covariance."""
    stacked = np.stack(columns, axis=1)
    cov = np.atleast_2d(np.cov(stacked, rowvar=False, ddof=1))
    return [float(np.sqrt(max(0.0, grad @ cov @ grad / n))) for grad in grads]


def _ratio_entry(r: np.ndarray, z: np.ndarray) -> OracleEntry:
    """Moments of the form E[r]/E[z] and E[r^2]/E[z]^2 from paired samples."""
    n, dim = r.shape
    s1 = r.mean(axis=0)
    s2 = (r**2).mean(axis=0)
    s3 = float(z.mean())
    mean = s1 / s3
    second = s2 / (s3 * s3)
    variance = np.maximum(second - mean**2, 0.0)
    se_mean = np.empty(dim)
    se_second = np.empty(dim)
    se_variance = np.empty(dim)
    for v in range(dim):
        grads = (
            np.array([1 / s3, 0.0, -s1[v] / s3**2]),
            np.array([0.0, 1 / s3**2, -2 * s2[v] / s3**3]),
            np.array([-2 * s1[v] / s3**2, 1 / s3**2, -2 * (s2[v] - s1[v] ** 2) / s3**3]),
        )
        se_mean[v], se_second[v], se_variance[v] = _se_of([r[:, v], r[:, v] ** 2, z], grads, n)
    return OracleEntry(mean, second, variance, se_mean, se_second, se_variance)


def _weighted_entry(values: np.ndarray, weights: np.ndarray) -> OracleEntry:
    """Self-normalized weighted moments of per-sample values."""
    n, dim = values.shape
    w0 = float(weights.mean())
    mean = np.empty(dim)
    second = np.empty(dim)
    se_mean = np.empty(dim)
    se_second = np.empty(dim)
    se_variance = np.empty(dim)
    for v in range(dim):
        wv = weights * values[:, v]
        wv2 = weights * values[:, v] ** 2
        w1 = float(wv.mean())
        w2 = float(wv2.mean())
        mean[v] = w1 / w0
        second[v] = w2 / w0
        grads = (
            np.array([1 / w0, 0.0, -w1 / w0**2]),
            np.array([0.0, 1 / w0, -w2 / w0**2]),
            np.array([-2 * w1 / w0**2, 1 / w0, -w2 / w0**2 + 2 * w1**2 / w0**3]),
        )
        se_mean[v], se_second[v], se_variance[v] = _se_of([wv, wv2, weights], grads, n)
    variance = np.maximum(second - mean**2, 0.0)
    return OracleEntry(mean, second, variance, se_mean, se_second, se_variance)


MOMENTS = ("mean", "second", "variance")
STANDARD_ERRORS = ("se_mean", "se_second", "se_variance")


def _cases(net, rng):
    """(mode, evidence) pairs: every mode, the posterior ones with and without evidence."""
    evidence = random_evidence(rng, net, 3) or {net.order[-1]: 0}
    return [("prior", {})] + [
        (mode, ev) for mode in ("approx-posterior", "exact-posterior") for ev in ({}, evidence)
    ]


def _assert_same_report(got, want):
    assert (got.size, got.degenerate_weights) == (want.size, want.degenerate_weights)
    if want.effective_sample_size is None:
        assert got.effective_sample_size is None
    else:
        assert got.effective_sample_size == pytest.approx(want.effective_sample_size, rel=1e-12)
    assert list(got.entries) == list(want.entries)
    for node_id, entry in want.entries.items():
        for attr in MOMENTS + STANDARD_ERRORS:
            if getattr(entry, attr) is None:
                assert getattr(got.entries[node_id], attr) is None
            else:
                np.testing.assert_allclose(
                    getattr(got.entries[node_id], attr), getattr(entry, attr), rtol=0, atol=1e-12
                )


class TestChunkedRealizations:
    """Both oracles stream realizations in chunks of at most ``_CHUNK_REALIZATIONS``
    realizations and ``_CHUNK_CELLS`` table cells."""

    def test_enumeration_chunks_hold_at_most_the_cap(self):
        # A star of nine three-point rows: 3**9 combinations, 38 table cells each.
        three = DiscreteSupport(np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]]),
                                np.array([0.2, 0.3, 0.5]))
        one = DiscreteSupport(np.array([[0.45, 0.55]]), np.array([1.0]))
        net = validate_network(NetworkSpec(
            (NodeSpec("r", ("x", "y"), None, (one,)),)
            + tuple(NodeSpec(f"c{i}", ("x", "y"), "r", (three, one)) for i in range(9))
        ))
        cap = oracle._CHUNK_REALIZATIONS
        rows = [(z, r) for z in net.order for r in range(len(net.nodes[z].rows))]
        count, chunks = oracle._grid_chunks(net, 3**9, net.order, rows)
        lengths = [len(w) for _, w in chunks]
        assert count == 3**9 > cap
        assert len(lengths) == -(-count // cap) and max(lengths) == cap and sum(lengths) == count

    def test_wide_trees_keep_the_cell_budget_step(self):
        # 2 + 4 * 122 = 490 table cells per realization: the cell budget binds before the cap.
        certain = PointMass(np.array([0.3, 0.7]))
        net = validate_network(NetworkSpec(
            (NodeSpec("r", ("x", "y"), None, (certain,)),)
            + tuple(NodeSpec(f"c{i}", ("x", "y"), "r", (certain, certain)) for i in range(122))
        ))
        cells = sum(net.nodes[z].mean_rows.size for z in net.order)
        assert cells > oracle._CHUNK_CELLS // oracle._CHUNK_REALIZATIONS
        index = {z: i for i, z in enumerate(net.order)}
        _, chunks = oracle._sample_chunks(net, 10_000, 0, index, net.order, [])
        step = oracle._CHUNK_CELLS // cells
        assert [len(w) for _, w in chunks] == [step, step, 10_000 - 2 * step]

    def test_monte_carlo_peak_memory_is_small(self, uniform_chain):
        tracemalloc.start()
        try:
            mc_uncertainty(uniform_chain, {}, "prior", n=200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("mode, evidence", [("prior", {}), ("exact-posterior", {"B": 0})])
    def test_monte_carlo_memory_does_not_grow_with_n(
        self, uniform_chain, monkeypatch, mode, evidence
    ):
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", 60_000)
        peaks = {}
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                mc_uncertainty(uniform_chain, evidence, mode, n=n, seed=3)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200_000] < 2 * peaks[20_000]

    def test_enumeration_memory_does_not_grow_with_the_count(self, monkeypatch):
        # The same 17-node star each time; only how many rows have two points changes.
        two = DiscreteSupport(np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([0.4, 0.6]))
        one = DiscreteSupport(np.array([[0.45, 0.55]]), np.array([1.0]))
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", 5_000)
        peaks = {}
        for uncertain in (10, 16):
            net = validate_network(NetworkSpec(
                (NodeSpec("r", ("x", "y"), None, (one,)),)
                + tuple(NodeSpec(f"c{i}", ("x", "y"), "r", (two if i < uncertain else one, one))
                        for i in range(16))
            ))
            tracemalloc.start()
            try:
                report = enumerate_uncertainty(net, {}, "exact-posterior")
                peaks[uncertain] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.size == 2**uncertain
        assert peaks[16] < 2 * peaks[10]

    def test_enumeration_is_chunk_invariant(self, monkeypatch):
        rng = np.random.default_rng(61)
        for _ in range(12):
            net = validate_network(random_tree_spec(rng))
            for mode, evidence in _cases(net, rng):
                want = enumerate_uncertainty(net, evidence, mode)
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_CHUNK_CELLS", 100)
                    got = enumerate_uncertainty(net, evidence, mode)
                _assert_same_report(got, want)

    def test_monte_carlo_is_chunk_invariant(self, monkeypatch):
        rng = np.random.default_rng(62)
        for seed in range(6):
            net = validate_network(random_beta_tree(rng, max_depth=3))
            for mode, evidence in _cases(net, rng):
                want = mc_uncertainty(net, evidence, mode, n=200, seed=seed)
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_CHUNK_CELLS", 100)
                    got = mc_uncertainty(net, evidence, mode, n=200, seed=seed)
                _assert_same_report(got, want)

    @pytest.mark.parametrize("cells", [None, 100])
    def test_grid_lists_every_combination_once_in_product_order(self, monkeypatch, cells):
        a = DiscreteSupport(np.array([[0.2, 0.8], [0.6, 0.4]]), np.array([0.3, 0.7]))
        b = DiscreteSupport(np.random.default_rng(4).dirichlet(np.ones(8), 3),
                            np.array([0.5, 0.25, 0.25]))
        one = DiscreteSupport(np.full((1, 8), 0.125), np.array([1.0]))
        net = validate_network(NetworkSpec((
            NodeSpec("A", ("a1", "a2"), None, (a,)),
            NodeSpec("B", tuple(f"b{i}" for i in range(8)), "A", (b, one)),
            NodeSpec("C", tuple(f"c{i}" for i in range(8)), "A", (PointMass(one.points[0]),) * 2),
        )))
        if cells is not None:  # 34 table cells: chunks of 2, some splitting A's runs of 3
            monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
        rows = [("A", 0), ("B", 0), ("B", 1)]
        count, chunks = oracle._grid_chunks(net, 10, net.order, rows)
        chunks = list(chunks)
        assert count == 6 and len(chunks) == (1 if cells is None else 3)
        got = [
            (tabs["A"][0, :, r], tabs["B"][0, :, r], tabs["B"][1, :, r], w[r])
            for tabs, w in chunks for r in range(len(w))
        ]
        combinations = list(itertools.product(range(2), range(3)))
        assert len(got) == len(combinations)
        for (i, j), (row_a, row_b, row_one, weight) in zip(combinations, got):
            assert np.array_equal(row_a, a.points[i])
            assert np.array_equal(row_b, b.points[j])
            assert np.array_equal(row_one, one.points[0])
            assert weight == a.weights[i] * b.weights[j]

    def test_standard_errors_match_the_per_alternative_reference(self):
        rng = np.random.default_rng(63)
        n = 2000
        for seed in range(12):
            net = validate_network(random_beta_tree(rng, max_depth=4))
            rows = [(z, r) for z in net.order for r in range(len(net.nodes[z].rows))]
            index = {z: i for i, z in enumerate(net.order)}
            _, chunks = oracle._sample_chunks(net, n, seed, index, net.order, rows)
            (tabs, _), = list(chunks)  # one chunk: the whole sample
            for mode, evidence in _cases(net, rng):
                report = mc_uncertainty(net, evidence, mode, n=n, seed=seed)
                if mode == "exact-posterior":
                    conditionals, p_evidence = oracle._posterior_sums(net, tabs, evidence)
                    want = {m: _weighted_entry(c.T, p_evidence) for m, c in conditionals.items()}
                else:
                    want = {}
                    for island in oracle._islands(net, evidence):
                        values, total = oracle._island_sums(net, island, tabs)
                        want.update({m: _ratio_entry(values[m].T, total) for m in island.members})
                for node_id, entry in want.items():
                    got = report.entries[node_id]
                    for attr in MOMENTS:
                        np.testing.assert_allclose(
                            getattr(got, attr), getattr(entry, attr), rtol=0, atol=1e-12
                        )
                    for attr in STANDARD_ERRORS:
                        ours, ref = getattr(got, attr), getattr(entry, attr)
                        big = ref > 1e-6
                        # In exact-posterior mode the variance's gradient nearly cancels
                        # against the covariance of p x, p x^2 and p, so both sides keep
                        # about eight digits: reversing the sample order moves the
                        # reference by up to 1e-9 relative on these trees.
                        rtol = 1e-8 if (mode, attr) == ("exact-posterior", "se_variance") else 1e-9
                        np.testing.assert_allclose(ours[big], ref[big], rtol=rtol, atol=0)
                        assert np.all(ours[~big] < 1e-8) and np.all(ref[~big] < 1e-8)
