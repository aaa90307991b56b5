import numpy as np
import pytest

from conftest import beta_mean_cap, chain_child_variance, moments_of, moments_of_beta, uniform_chain_spec
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    check_variance_bound,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief.errors import PreconditionViolated
from treebelief.model import _check_moments


class TestBetaMoments:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0.0, 0.0, (1 / 2, 1 / 3, 1 / 6)),
            (2.0, 0.0, (3 / 4, 3 / 5, 3 / 20)),
            (8.0, 2.0, (0.75, 10 / 13 * 0.75, 3 / 13 * 0.75)),
        ],
    )
    def test_worked_values(self, a, b, expected):
        # the mean, second moment and cross moment E(p (1-p))
        m = moments_of_beta(a, b)
        assert (m.mean[0], m.second[0, 0], m.second[0, 1]) == pytest.approx(expected, abs=1e-15)

    def test_cross_moment_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2)) - 1.0
            m = moments_of_beta(a, b)
            assert m.second[0, 1] == pytest.approx(m.mean[0] - m.second[0, 0], abs=1e-14)

    def test_matches_dirichlet_moments(self):
        # the paper's closed forms, in the exponents a, b = alpha - 1
        rng = np.random.default_rng(2)
        for _ in range(500):
            alpha = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2))
            a, b = alpha[0] - 1.0, alpha[1] - 1.0
            e = (a + 1.0) / (a + b + 2.0)
            m = moments_of(Dirichlet(alpha))
            assert m.mean[0] == pytest.approx(e, abs=1e-12)
            assert m.second[0, 0] == pytest.approx((a + 2.0) / (a + b + 3.0) * e, abs=1e-12)
            assert m.second[0, 1] == pytest.approx((b + 1.0) / (a + b + 3.0) * e, abs=1e-12)


class TestMomentCondition:
    def test_examples(self):
        # the condition E(p^2) <= (E + E^2) / 2 on a binary vector's first entry
        cases = (
            (moments_of(Dirichlet(np.array([1.0, 1.0]))), True),  # uniform: S = 1/3 <= 0.375
            ((np.array([0.5, 0.5]), np.array([[0.4, 0.1], [0.1, 0.4]])), False),
            (moments_of(PointMass(np.array([0.0, 1.0]))), True),  # boundary: E = 0, S = 0
        )
        for (mean, second), holds in cases:
            _check_moments(mean, second, "case")  # each case is a valid moment pair
            e, s = float(mean[0]), float(second[0, 0])
            assert (s <= (e + e * e) / 2.0 + 1e-12) == holds


class TestMeanUpperBound:
    def test_examples(self):
        # a beta variable whose alphas sum to 2 sits on the cap, and so
        # does its point-mass limit
        for dist, variance, mean in (
            (PointMass(np.array([1.0, 0.0])), 0.0, 1.0),
            (Dirichlet(np.array([1.0, 1.0])), 1 / 12, 0.5),
            (Dirichlet(np.array([1.5, 0.5])), 1 / 16, 0.75),
        ):
            m = moments_of(dist)
            v = float(m.second[0, 0] - m.mean[0] ** 2)
            assert v == pytest.approx(variance)
            assert beta_mean_cap(v) == pytest.approx(mean)


class TestChainChildVariance:
    def test_all_certain(self):
        assert chain_child_variance(0.3, 0.0, 0.9, 0.0, 0.2, 0.0) == 0.0

    def test_certain_parent_at_first_alternative(self):
        assert chain_child_variance(1.0, 0.0, 0.7, 0.05, 0.2, 0.9 / 12) == pytest.approx(0.05)

    def test_uniform_chain_value(self):
        v = chain_child_variance(0.5, 1 / 12, 0.5, 1 / 12, 0.5, 1 / 12)
        assert v == pytest.approx(1 / 18, abs=1e-15)

    def test_matches_engine_on_two_point_networks(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            e, e1, e2 = rng.uniform(0.15, 0.85, size=3)
            deltas = [
                rng.uniform(0.0, 0.95 * min(x, 1 - x)) for x in (e, e1, e2)
            ]
            two_point = lambda mean, d: DiscreteSupport(
                np.array([[mean + d, 1 - mean - d], [mean - d, 1 - mean + d]]),
                np.array([0.5, 0.5]),
            )
            spec = NetworkSpec(
                (
                    NodeSpec("A", ("a1", "a2"), None, (two_point(e, deltas[0]),)),
                    NodeSpec(
                        "B",
                        ("b1", "b2"),
                        "A",
                        (two_point(e1, deltas[1]), two_point(e2, deltas[2])),
                    ),
                )
            )
            net = validate_network(spec)
            rep = posterior_report(propagate(net, {}))["B"]
            closed = chain_child_variance(
                e, deltas[0] ** 2, e1, deltas[1] ** 2, e2, deltas[2] ** 2
            )
            assert rep.variance[0] == pytest.approx(closed, abs=1e-12)


def _flat_root_k3():
    """A flat Dirichlet(1, 1, 1) root whose child has rows Dirichlet(45, 2.5,
    2.5) and its rotations, with the child's prior variances.

    By the law of total variance over the root's ``p``, with ``E(p_i^2) = 1/6``
    and ``Cov(p) = (1 + I)/12 - 1/9``, every alternative has the variance
    ``sum_i v_i / 6 + e' Cov(p) e`` for row means ``e`` and variances ``v``.
    """
    labels = ("x1", "x2", "x3")
    spec = NetworkSpec(
        (
            NodeSpec("r", labels, None, (Dirichlet(np.ones(3)),)),
            NodeSpec(
                "c",
                labels,
                "r",
                tuple(Dirichlet(np.roll([45.0, 2.5, 2.5], i)) for i in range(3)),
            ),
        )
    )
    e = np.array([0.9, 0.05, 0.05])
    variance = (e * (1 - e) / 51).sum() / 6 + e @ ((1 + np.eye(3)) / 12 - 1 / 9) @ e
    return spec, {}, "c", np.full(3, variance)


def _observed_chain():
    """A -> B -> C from a flat beta root, each child with rows Beta(45, 5) and
    Beta(5, 45), C observed, with the paper's approximate posterior variances
    at B.  The first also exceeds mean (1 - mean) = 0.09."""
    rows = lambda: (Dirichlet(np.array([45.0, 5.0])), Dirichlet(np.array([5.0, 45.0])))
    spec = NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.ones(2)),)),
            NodeSpec("B", ("b1", "b2"), "A", rows()),
            NodeSpec("C", ("c1", "c2"), "B", rows()),
        )
    )
    return spec, {"C": 0}, "B", np.array([0.17876124567474028, 0.004329873125720871])


class TestVarianceBoundChecker:
    def test_uniform_chain_passes_with_documented_slack(self):
        report = check_variance_bound(validate_network(uniform_chain_spec()))
        assert report.passed
        entry = report.entry("B")
        assert entry.variance == pytest.approx(1 / 18, abs=1e-14)
        assert entry.bound == pytest.approx(1 / 12, abs=1e-15)
        assert entry.slack == pytest.approx(1 / 36, abs=1e-13)

    def test_entry_of_an_unknown_node_raises_key_error(self):
        report = check_variance_bound(validate_network(uniform_chain_spec()))
        with pytest.raises(KeyError, match="'Z'"):
            report.entry("Z")

    def test_five_node_chain_with_shared_rows(self):
        # equal row means leave nothing for parent variance to amplify,
        # so the bound holds at every node of this chain
        row = lambda: Dirichlet(np.array([9.0, 3.0]))
        nodes = [NodeSpec("n0", ("s1", "s2"), None, (Dirichlet(np.array([1.0, 1.0])),))]
        for i in range(1, 5):
            nodes.append(NodeSpec(f"n{i}", ("s1", "s2"), f"n{i-1}", (row(), row())))
        report = check_variance_bound(validate_network(NetworkSpec(tuple(nodes))))
        assert report.passed
        assert len(report.entries) == 4

    def test_bound_can_fail_and_is_reported(self):
        # high-variance root, confident but widely separated child rows:
        # the child's prior variance exceeds both row variances
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.array([1.0, 1.0])),)),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "A",
                    (Dirichlet(np.array([45.0, 5.0])), Dirichlet(np.array([5.0, 45.0]))),
                ),
            )
        )
        report = check_variance_bound(validate_network(spec))
        assert not report.passed
        entry = report.entry("B")
        assert entry.slack < -0.05
        # law of total variance, computed from the stored moments directly
        node = validate_network(spec).nodes["B"]
        e1, e2 = node.mean_rows[:, 0]
        v1, v2 = node.second_rows[:, 0, 0] - node.mean_rows[:, 0] ** 2
        expected = chain_child_variance(0.5, 1 / 12, e1, v1, e2, v2)
        assert entry.variance == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "spec,evidence,node_id,variance",
        [
            pytest.param(*_flat_root_k3(), id="prior-k3"),
            pytest.param(*_observed_chain(), id="posterior"),
        ],
    )
    def test_bound_fails_beyond_its_domain(self, spec, evidence, node_id, variance):
        # beyond check_variance_bound's domain (binary rows, no evidence) the
        # same max-row bound fails, computed per alternative from the rows
        net = validate_network(spec)
        node = net.nodes[node_id]
        alts = range(node.dim)
        bound = np.max(node.second_rows[:, alts, alts] - node.mean_rows**2, axis=0)
        # the largest row variance: mean 0.9 at Dirichlet strength 50
        assert bound == pytest.approx(np.full(node.dim, 0.9 * 0.1 / 51), abs=1e-15)
        rep = posterior_report(propagate(net, evidence))[node_id]
        assert rep.variance == pytest.approx(variance, rel=1e-9)
        assert np.all(rep.variance > bound)

    def test_preconditions(self):
        three_alt = NetworkSpec(
            (NodeSpec("A", ("x", "y", "z"), None, (Dirichlet(np.ones(3)),)),)
        )
        with pytest.raises(PreconditionViolated):
            check_variance_bound(validate_network(three_alt))
        point = NetworkSpec(
            (NodeSpec("A", ("x", "y"), None, (PointMass(np.array([0.4, 0.6])),)),)
        )
        with pytest.raises(PreconditionViolated):
            check_variance_bound(validate_network(point))


class TestInequalitySuites:
    def _sample_params(self, rng, size):
        alpha = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=(size, 2)))
        return alpha[alpha.sum(axis=1) >= 2.0] - 1.0

    def test_second_moment_cap(self):
        rng = np.random.default_rng(6)
        for a, b in self._sample_params(rng, 2000):
            m = moments_of_beta(a, b)
            e, s = m.mean[0], m.second[0, 0]
            assert s <= (e + 2 * e * e) / 3 + 1e-12

    def test_mean_cap(self):
        rng = np.random.default_rng(8)
        for a, b in self._sample_params(rng, 2000):
            m = moments_of_beta(a, b)
            e, s = m.mean[0], m.second[0, 0]
            assert e <= beta_mean_cap(s - e * e) + 1e-12

    def test_condition_implies_variance_cap(self):
        # for any binary moments, not only beta ones
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(2000):
            n_pts = int(rng.integers(1, 5))
            m = moments_of(
                DiscreteSupport(
                    rng.dirichlet(np.ones(2), size=n_pts), rng.dirichlet(np.ones(n_pts))
                )
            )
            e, s = float(m.mean[0]), float(m.second[0, 0])
            if s <= (e + e * e) / 2:
                checked += 1
                assert s - e * e <= e - s + 1e-12
        assert checked > 1000

    def test_variance_below_bernoulli_cap(self):
        # small or large probabilities force small variances
        rng = np.random.default_rng(12)
        for _ in range(1000):
            m = moments_of(Dirichlet(np.exp(rng.uniform(np.log(0.05), np.log(80), 2))))
            e = float(m.mean[0])
            v = float(m.second[0, 0]) - e * e
            assert v <= e * (1 - e) + 1e-12

    def test_moment_condition_closure(self):
        # the condition survives one propagation step from parent to child
        rng = np.random.default_rng(14)
        beta_row = lambda: Dirichlet(
            np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2)) + np.array([0.5, 0.5])
        )
        for _ in range(300):
            spec = NetworkSpec(
                (
                    NodeSpec("A", ("s1", "s2"), None, (beta_row(),)),
                    NodeSpec("B", ("s1", "s2"), "A", (beta_row(), beta_row())),
                )
            )
            net = validate_network(spec)
            e = np.concatenate([net.nodes[n].mean_rows[:, 0] for n in "AB"])
            s = np.concatenate([net.nodes[n].second_rows[:, 0, 0] for n in "AB"])
            if not np.all(s <= (e + e * e) / 2 + 1e-12):
                continue
            rep = posterior_report(propagate(net, {}))["B"]
            e, s = float(rep.mean[0]), float(rep.second[0])
            assert s <= (e + e * e) / 2 + 1e-12

