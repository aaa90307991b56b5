import itertools
import math
import tracemalloc
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    TWO_POINT_CHAIN_EVIDENCE,
    brute_force_joint,
    exact_means,
    impossible_evidence_spec,
    random_evidence,
    random_tree_spec,
    three_island_spec,
    tiny_evidence_chain_spec,
    two_point_chain_spec,
    underflow_star_spec,
    whole_tree_posterior,
)
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    mc_uncertainty,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief import oracle
from treebelief.bounds import random_beta_tree
from treebelief.errors import (
    CapExceeded,
    InconsistentEvidence,
    NonFiniteResult,
    PreconditionViolated,
)
from treebelief.oracle import OracleEntry, _dirichlet_draws


class TestExactInference:
    def test_total_probability(self, two_node_mixed):
        tables = {
            "A": np.array([[0.4, 0.6]]),
            "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
        }
        marginals = exact_means(two_node_mixed, {}, tables)
        assert marginals["B"][0] == pytest.approx(0.48)

    def test_bayes_update(self, two_node_mixed):
        tables = {
            "A": np.array([[0.4, 0.6]]),
            "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
        }
        marginals = exact_means(two_node_mixed, {"B": 0}, tables)
        assert marginals["A"][0] == pytest.approx(0.36 / 0.48)

    def test_point_networks_match_propagation(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            net = validate_network(random_tree_spec(rng, max_combinations=1))
            marginals = exact_means(net, {})
            reports = posterior_report(propagate(net, {}))
            for node_id in net.order:
                assert marginals[node_id].sum() == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(
                    marginals[node_id], reports[node_id].mean, atol=1e-12
                )

    def test_zero_probability_evidence(self):
        net = validate_network(impossible_evidence_spec())
        with pytest.raises(InconsistentEvidence):
            exact_means(net, {"B": 1})


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

    @pytest.mark.parametrize("mode", oracle.MODES[1:])
    def test_cap_bounds_the_sum_over_islands(self, mode):
        net = validate_network(three_island_spec())
        assert [len(island.members) for island in oracle._islands(net, {"r": 0})] == [2, 2, 2]
        for cap, total in ((8, 16), (23, 24)):  # raised once the running sum passes the cap
            with pytest.raises(CapExceeded) as info:
                enumerate_uncertainty(net, {"r": 0}, mode, cap=cap)
            assert str(info.value) == f"{total} uncertainty combinations exceed the cap {cap}"
        assert enumerate_uncertainty(net, {"r": 0}, mode, cap=24).size == 24

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

    @pytest.mark.parametrize("alpha", [
        [0.001, 0.003], [1e-4, 2e-4, 1e-3], [300.0, 1000.0],
        # seven and eight alternatives: numpy sums eight or more numbers pairwise
        [0.3, 0.7, 1.1, 2.0, 3.5, 5.0, 9.0], [0.3, 0.7, 1.1, 2.0, 3.5, 5.0, 9.0, 0.002],
    ])
    def test_draws_and_stream_match_numpy_gamma(self, alpha):
        # standard_gamma and the draws' own row sums, written in place, must give
        # the draws of the reference and leave the stream where it was.
        alpha = np.array(alpha)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        for n in (1, 777, 5000):
            out = np.empty((len(alpha), n))
            _dirichlet_draws(ours, alpha, n, out)
            np.testing.assert_array_equal(out.T, _numpy_dirichlet(theirs, alpha, n))
            assert ours.random() == theirs.random()

    def test_tiny_alpha_redraw_keeps_other_draws(self):
        alpha = np.array([0.001, 0.003])
        out = np.empty((2, 20_000))
        _dirichlet_draws(np.random.default_rng(5), alpha, 20_000, out)
        draws = out.T
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
        # The chain's P(e) = 1e-177 is a product of factors outside n0's island,
        # which cancel: the island's total is 1e-3 under every draw, and n0's
        # posterior is its Dirichlet(2, 2) prior.
        evidence = {f"n{i}": 0 for i in range(1, 60)}
        net = validate_network(tiny_evidence_chain_spec(PointMass([0.5, 0.5]), 60))
        assert enumerate_uncertainty(net, evidence, "exact-posterior").effective_sample_size == 1.0
        net = validate_network(tiny_evidence_chain_spec(Dirichlet([2.0, 2.0]), 60))
        report = mc_uncertainty(net, evidence, "exact-posterior", n=2000, seed=1)
        assert report.effective_sample_size == pytest.approx(2000.0, rel=1e-12)
        entry = report.entries["n0"]
        for attr, truth in (("mean", 0.5), ("second", 0.3), ("variance", 0.05)):
            assert np.all(np.abs(getattr(entry, attr) - truth) <= 4 * getattr(entry, "se_" + attr))
        # One island of P(e) = 6e-163: each (w z)^2 underflows to 0 while w z
        # does not, and so does the z**3 of the standard errors.
        evidence = {f"c{i}": 0 for i in range(60)}
        net = validate_network(underflow_star_spec(60))
        ess = enumerate_uncertainty(net, evidence, "exact-posterior").effective_sample_size
        assert ess == pytest.approx((0.7 + 0.4) ** 2 / (0.7**2 + 0.4**2), rel=1e-12)
        with pytest.raises(NonFiniteResult, match="standard errors overflow"):
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
                    exact_means(net, evidence, tables)
                continue
            got = exact_means(net, evidence, tables)
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
        # one two-point row, in n1's island; the other islands add 1 each
        assert exact.size == approx.size == (3 if shape == "chain" else 999)
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


class TestExactPosteriorIslands:
    """``exact-posterior`` mode runs one block per evidence island: a node's
    exact conditional reads only its island's rows, so every factor of the
    evidence probability outside the island cancels."""

    @given(seed=st.integers(0, 2**32 - 1), observed=st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_islands_match_the_whole_tree(self, seed, observed):
        rng = np.random.default_rng(seed)
        net = validate_network(random_tree_spec(rng, max_nodes=8))
        assume(len(net.order) > observed)
        picks = rng.choice(len(net.order), size=observed, replace=False)
        evidence = {net.order[i]: int(rng.integers(net.nodes[net.order[i]].dim)) for i in picks}
        assume(len(oracle._islands(net, evidence)) >= 2)
        got = enumerate_uncertainty(net, evidence, "exact-posterior")
        want, _ = whole_tree_posterior(net, evidence)
        for node_id, entry in want.items():
            for attr in MOMENTS:
                np.testing.assert_allclose(
                    getattr(got.entries[node_id], attr), getattr(entry, attr), rtol=0, atol=1e-14
                )

    def test_24_node_chain_enumerates_under_the_default_cap(self):
        net = validate_network(two_point_chain_spec(24))
        with pytest.raises(CapExceeded, match="^140737488355328 uncertainty combinations"):
            whole_tree_posterior(net, TWO_POINT_CHAIN_EVIDENCE)  # 2**47
        exact = enumerate_uncertainty(net, TWO_POINT_CHAIN_EVIDENCE, "exact-posterior")
        approx = enumerate_uncertainty(net, TWO_POINT_CHAIN_EVIDENCE, "approx-posterior")
        assert exact.size == approx.size == 4 * 2**11
        reports = posterior_report(propagate(net, TWO_POINT_CHAIN_EVIDENCE))
        for node_id, rep in reports.items():
            np.testing.assert_allclose(exact.entries[node_id].mean, rep.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(approx.entries[node_id].second, rep.second, rtol=0, atol=1e-12)
        # The first island, n0 .. n4 under n5, is the whole of the 6-node chain
        # drawn from the same seed, which the whole-tree form can enumerate.
        prefix = validate_network(two_point_chain_spec(6))
        want, count = whole_tree_posterior(prefix, {"n5": TWO_POINT_CHAIN_EVIDENCE["n5"]})
        assert count == 2**11
        for node_id, entry in want.items():
            for attr in MOMENTS:
                np.testing.assert_allclose(
                    getattr(exact.entries[node_id], attr), getattr(entry, attr), rtol=0, atol=1e-14
                )

    @pytest.mark.parametrize("n", [2000, 5])
    def test_monte_carlo_effective_sample_size_is_the_smaller_islands(self, n):
        # A's island weighs each draw by A's chance of a0 (B's rows are certain
        # and opposite); C's island by 0.5 under every draw, so its effective
        # sample size is n and A's, about 2n/3, is the smaller.
        a = NodeSpec("A", ("a0", "a1"), None, (Dirichlet([0.5, 0.5]),))
        b = NodeSpec("B", ("b0", "b1"), "A", (PointMass([1.0, 0.0]), PointMass([0.0, 1.0])))
        c = NodeSpec("C", ("c0", "c1"), "B", (Dirichlet([2.0, 3.0]), Dirichlet([1.0, 1.0])))
        d = NodeSpec("D", ("d0", "d1"), "C", (PointMass([0.5, 0.5]), PointMass([0.5, 0.5])))
        net = validate_network(NetworkSpec((a, b, c, d)))
        evidence = {"B": 0, "D": 1}
        assert [island.members for island in oracle._islands(net, evidence)] == [["A"], ["C"]]
        report = mc_uncertainty(net, evidence, "exact-posterior", n=n, seed=3)
        # A's island alone, drawn from the same stream
        alone = mc_uncertainty(validate_network(NetworkSpec((a, b))), {"B": 0}, "exact-posterior", n=n, seed=3)
        assert report.effective_sample_size == pytest.approx(alone.effective_sample_size, rel=1e-12)
        assert report.effective_sample_size < n
        assert report.degenerate_weights == (report.effective_sample_size < 10.0) == (n == 5)


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


def _numpy_dirichlet(rng, alpha, n):
    """:func:`oracle._dirichlet_draws` as written with ``rng.gamma(shape=...)``
    and numpy's own row sums, returning the (n, k) quotient: the reference."""
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


def _copied_chunks(net, node_ids, row_ids, count, fill):
    """The reference for :func:`oracle._chunks`' tables: the mean rows
    broadcast, every table with a listed row a copy of them, and then each
    listed row written over its copy."""
    step = oracle._step(net, node_ids)
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        tabs = {}
        for node_id in node_ids:
            rows = net.nodes[node_id].mean_rows
            tabs[node_id] = np.broadcast_to(rows[..., None], rows.shape + (hi - lo,))
        for node_id in {z for z, _ in row_ids}:
            tabs[node_id] = tabs[node_id].copy()
        weights = fill(lo, hi, [tabs[z][r] for z, r in row_ids])
        yield tabs, weights


def _reference_sample_chunks(net, n, seed, index, node_ids, row_ids):
    """The reference for :func:`oracle._sample_chunks`: each row's own stream,
    Dirichlet rows drawn by :func:`_numpy_dirichlet`, and copied tables."""
    listed = [(z, r) for z, r in row_ids if not isinstance(net.nodes[z].rows[r], PointMass)]
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, index[z], r))) for z, r in listed]

    def fill(lo, hi, rows):
        for row, (z, r), rng in zip(rows, listed, rngs):
            dist = net.nodes[z].rows[r]
            if isinstance(dist, Dirichlet):
                row[...] = _numpy_dirichlet(rng, dist.alpha, hi - lo).T
            else:
                row[...] = dist.points[rng.choice(len(dist.weights), hi - lo, p=dist.weights)].T
        return np.full(hi - lo, 1.0 / n)

    return n, _copied_chunks(net, node_ids, listed, n, fill)


def _index_grid_chunks(net, node_ids, row_ids, chunks=None):
    """The reference for :func:`oracle._grid_chunks`, plain index arithmetic:
    each chunk recomputes every listed row's support index of each
    realization ``i`` as ``(i // stride) % size``.  ``chunks`` builds the
    tables, :func:`oracle._chunks` by default."""
    listed = [(n, r) for n, r in row_ids if len(oracle._support_of(net.nodes[n].rows[r])[1]) > 1]
    supports = [oracle._support_of(net.nodes[n].rows[r]) for n, r in listed]
    sizes = [len(w) for _, w in supports]
    count = math.prod(sizes)
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]

    def fill(lo, hi, rows):
        i = np.arange(lo, hi)
        choices = [(i // stride) % size for stride, size in zip(strides, sizes)]
        weights = np.ones(hi - lo)
        for (_, w), choice in zip(supports, choices):
            weights *= np.take(w, choice)
        for row, (pts, _), c in zip(rows, supports, choices):
            row[...] = np.take(pts.T, c, axis=1)
        return weights

    return count, (chunks or oracle._chunks)(net, node_ids, listed, count, fill)


class _Written:
    """Stands in for a table row and keeps the array a source assigns to it."""

    def __setitem__(self, key, value):
        self.value = value


def _support_star(rng, sizes, ks):
    """A root of one certain row and a child per support size: its row 0 a
    support of that many points, its row 1 a one-point support."""
    one = lambda k: DiscreteSupport(rng.dirichlet(np.ones(k), 1), np.array([1.0]))
    return validate_network(NetworkSpec(
        (NodeSpec("r", ("x", "y"), None, (one(2),)),)
        + tuple(
            NodeSpec(f"c{i}", tuple(f"a{j}" for j in range(k)), "r",
                     (DiscreteSupport(rng.dirichlet(np.ones(k), size), rng.dirichlet(np.ones(size))), one(k)))
            for i, (size, k) in enumerate(zip(sizes, ks))
        )
    ))


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
        count, chunks = oracle._grid_chunks(net, net.order, rows)
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
        count, chunks = oracle._grid_chunks(net, net.order, rows)
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

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.lists(st.integers(1, 3), max_size=4),
        st.integers(1, 7),
        st.integers(3, 100),
        st.one_of(st.integers(1, 400), st.just(10**9)),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_the_index_arithmetic(self, seed, front, middle, back, realizations, cells):
        # A large support in front of small ones and one behind them, under
        # small chunk caps, so that chunks start at every offset of a period.
        rng = np.random.default_rng(seed)
        sizes = [front] + middle + [back]
        net = _support_star(rng, sizes, rng.integers(2, 4, len(sizes)).tolist())
        rows = [(z, r) for z in net.order for r in range(len(net.nodes[z].rows))]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "_CHUNK_REALIZATIONS", realizations)
            m.setattr(oracle, "_CHUNK_CELLS", cells)
            want_count, want = _index_grid_chunks(net, net.order, rows)
            want = list(want)
            real, seen = oracle._chunks, []  # seen: the arguments _grid_chunks hands to _chunks
            m.setattr(oracle, "_chunks", lambda *args: seen.append(args) or real(*args))
            count, got = oracle._grid_chunks(net, net.order, rows)
            got = list(got)
            step = oracle._step(net, net.order)
            values = []  # what the source assigns to each listed row of each chunk
            for lo in range(0, count, step):
                written = [_Written() for _ in seen[0][2]]
                seen[0][-1](lo, min(count, lo + step), written)
                values.append([w.value for w in written])
        assert count == want_count == math.prod(sizes)
        assert [len(w) for _, w in got] == [len(w) for _, w in want]
        for (tabs, weights), (want_tabs, want_weights) in zip(got, want):
            assert np.array_equal(weights, want_weights) and list(tabs) == list(want_tabs)
            for node_id, table in want_tabs.items():
                assert np.array_equal(tabs[node_id], table)
        # the last rows, whose sub-grid repeats in fewer realizations than a chunk
        # holds, are slices of arrays shared by every chunk, and read-only
        listed = [s for s in sizes if s > 1]
        shared = sum(math.prod(listed[i:]) < step for i in range(len(listed)))
        for chunk in values:
            assert [v.flags.writeable for v in chunk] == [True] * (len(listed) - shared) + [False] * shared

    @pytest.mark.parametrize("cells", [40, 10**9])
    def test_tables_match_the_copied_construction(self, monkeypatch, cells):
        # Every table of every chunk either oracle builds, bit for bit against
        # the mean rows copied and the listed rows written over them.  Small
        # cell budgets split the chunks inside the grid's periods.
        rng = np.random.default_rng(64)
        cases = [(validate_network(random_tree_spec(rng)), ("enum", "mc")) for _ in range(8)]
        cases += [(validate_network(random_beta_tree(rng, max_depth=3)), ("mc",)) for _ in range(3)]
        cases = [(net, _cases(net, rng), oracles) for net, oracles in cases]
        # Islands whose top hangs on row 2 of three, so its rows 0 and 1 are
        # unlisted; under Monte Carlo a tiny-alpha row takes the redraw path.
        two = DiscreteSupport(np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([0.4, 0.6]))
        three = DiscreteSupport(rng.dirichlet(np.ones(3), 2), np.array([0.5, 0.5]))
        beta, tiny, flat = (Dirichlet(np.array(a)) for a in ([2.0, 3.0], [0.001, 0.003], [1.0, 1.0, 1.0]))
        labels = {"A": ("a0", "a1"), "B": ("b0", "b1", "b2"), "C": ("c0", "c1"), "D": ("d0", "d1")}
        parents = {"A": None, "B": "A", "C": "B", "D": "C"}
        for which, rows in (("enum", [(two,), (three,) * 2, (two,) * 3, (two,) * 2]),
                            ("mc", [(beta,), (flat,) * 2, (beta, tiny, tiny), (tiny, beta)])):
            net = validate_network(NetworkSpec(tuple(
                NodeSpec(z, labels[z], parents[z], r) for z, r in zip(labels, rows))))
            assert [island.top_row for island in oracle._islands(net, {"B": 2})] == [0, 2]
            cases.append((net, [(mode, {"B": 2}) for mode in oracle.MODES[1:]], (which,)))
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
        sources = {"enum": ("_grid_chunks", lambda *args: _index_grid_chunks(*args, chunks=_copied_chunks)),
                   "mc": ("_sample_chunks", _reference_sample_chunks)}
        mixed = 0  # tables with both listed and unlisted rows
        for net, pairs, oracles in cases:
            for (mode, evidence), which in itertools.product(pairs, oracles):
                name, reference = sources[which]
                real, calls = getattr(oracle, name), []  # calls: the arguments of each block's source
                with monkeypatch.context() as m:
                    m.setattr(oracle, name, lambda *args: calls.append(args) or real(*args))
                    if which == "enum":
                        enumerate_uncertainty(net, evidence, mode)
                    else:
                        mc_uncertainty(net, evidence, mode, n=100, seed=5)
                for args in calls:
                    (count, got), (want_count, want) = real(*args), reference(*args)
                    got, want = list(got), list(want)
                    assert count == want_count and len(got) == len(want)
                    node_ids, row_ids = args[-2:]
                    for (tabs, weights), (want_tabs, want_weights) in zip(got, want):
                        assert weights.tobytes() == want_weights.tobytes() and list(tabs) == list(want_tabs)
                        for node_id, table in want_tabs.items():
                            assert tabs[node_id].shape == table.shape
                            assert tabs[node_id].tobytes() == table.tobytes(), (which, mode, node_id)
                            assert tabs[node_id].flags.writeable == table.flags.writeable
                        mixed += sum(0 < sum(z == node_id for z, _ in row_ids) < len(net.nodes[node_id].rows)
                                     for node_id in node_ids)
        assert mixed > 0

    def test_grid_memory_stays_near_the_index_arithmetic(self, monkeypatch):
        # one 1000-point row in front of ten two-point rows: 1000 periods of 1024
        rng = np.random.default_rng(5)
        big = DiscreteSupport(rng.dirichlet([1.0, 1.0], 1000), rng.dirichlet(np.ones(1000)))
        two = DiscreteSupport(np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([0.4, 0.6]))
        one = DiscreteSupport(np.array([[0.45, 0.55]]), np.array([1.0]))
        net = validate_network(NetworkSpec(
            (NodeSpec("r", ("x", "y"), None, (big,)),)
            + tuple(NodeSpec(f"c{i}", ("x", "y"), "r", (two, one)) for i in range(10))
        ))
        peaks, reports = {}, {}
        for name, source in (("want", _index_grid_chunks), ("got", oracle._grid_chunks)):
            monkeypatch.setattr(oracle, "_grid_chunks", source)
            tracemalloc.start()
            try:
                reports[name] = enumerate_uncertainty(net, {}, "prior")
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert reports["got"].size == 1000 * 2**10
        for node_id, entry in reports["want"].entries.items():
            for attr in MOMENTS:
                assert np.array_equal(getattr(reports["got"].entries[node_id], attr), getattr(entry, attr))
        assert peaks["got"] < 1.25 * peaks["want"]

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
                exact = mode == "exact-posterior"
                want = {}
                for island in oracle._islands(net, evidence):
                    values, total = oracle._island_sums(net, island, exact, tabs)
                    entry = _weighted_entry if exact else _ratio_entry
                    want.update({m: entry(values[m].T, total) for m in island.members})
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
