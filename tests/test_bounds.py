import numpy as np
import pytest

from conftest import uniform_chain_spec
from treebelief import (
    BetaParams,
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    beta_mean_upper_bound,
    beta_moments,
    chain_child_variance,
    check_moment_condition,
    check_variance_bound,
    moments_of,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief.errors import DomainError, PreconditionViolated


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
        assert beta_moments(BetaParams(a, b)) == pytest.approx(expected, abs=1e-15)

    def test_cross_moment_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2)) - 1.0
            e, s, p = beta_moments(BetaParams(a, b))
            assert p == pytest.approx(e - s, abs=1e-14)

    def test_matches_dirichlet_moments(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            alpha = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2))
            e, s, p = beta_moments(BetaParams(alpha[0] - 1.0, alpha[1] - 1.0))
            m = moments_of(Dirichlet(alpha))
            assert m.mean[0] == pytest.approx(e, abs=1e-12)
            assert m.second[0, 0] == pytest.approx(s, abs=1e-12)
            assert m.second[0, 1] == pytest.approx(p, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            BetaParams(-1.0, 0.0)


class TestMomentCondition:
    def test_examples(self):
        from treebelief import MomentSet

        # uniform beta: S = 1/3 <= 0.375
        assert check_moment_condition(moments_of(Dirichlet(np.array([1.0, 1.0]))))
        # E = 0.5 with S = 0.4 > 0.375
        heavy = MomentSet(np.array([0.5, 0.5]), np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert not check_moment_condition(heavy)
        # degenerate boundary: E = 0, S = 0
        boundary = moments_of(PointMass(np.array([0.0, 1.0])))
        assert check_moment_condition(boundary)

    def test_requires_binary(self):
        with pytest.raises(PreconditionViolated):
            check_moment_condition(moments_of(Dirichlet(np.array([1.0, 1.0, 1.0]))))


class TestMeanUpperBound:
    def test_examples(self):
        assert beta_mean_upper_bound(0.0) == pytest.approx(1.0)
        assert beta_mean_upper_bound(1 / 12) == pytest.approx(0.5)
        assert beta_mean_upper_bound(1 / 16) == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_mean_upper_bound(1 / 12 + 1e-6)
        with pytest.raises(DomainError):
            beta_mean_upper_bound(-0.1)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            chain_child_variance(1.2, 0.0, 0.5, 0.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            chain_child_variance(0.5, -0.1, 0.5, 0.0, 0.5, 0.0)


class TestVarianceBoundChecker:
    def test_uniform_chain_passes_with_documented_slack(self):
        report = check_variance_bound(validate_network(uniform_chain_spec()))
        assert report.passed
        entry = report.entry("B")
        assert entry.variance == pytest.approx(1 / 18, abs=1e-14)
        assert entry.bound == pytest.approx(1 / 12, abs=1e-15)
        assert entry.slack == pytest.approx(1 / 36, abs=1e-13)

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
        rows = validate_network(spec).nodes["B"].row_moments
        v1 = rows[0].second[0, 0] - rows[0].mean[0] ** 2
        v2 = rows[1].second[0, 0] - rows[1].mean[0] ** 2
        expected = chain_child_variance(0.5, 1 / 12, rows[0].mean[0], v1, rows[1].mean[0], v2)
        assert entry.variance == pytest.approx(expected, abs=1e-12)

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
            e, s, _ = beta_moments(BetaParams(a, b))
            assert s <= (e + 2 * e * e) / 3 + 1e-12

    def test_mean_cap(self):
        rng = np.random.default_rng(8)
        for a, b in self._sample_params(rng, 2000):
            e, s, _ = beta_moments(BetaParams(a, b))
            assert e <= beta_mean_upper_bound(s - e * e) + 1e-12

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
            parts = [net.nodes["A"].row_moments[0]] + list(net.nodes["B"].row_moments)
            if not all(check_moment_condition(m) for m in parts):
                continue
            rep = posterior_report(propagate(net, {}))["B"]
            e, s = float(rep.mean[0]), float(rep.second[0])
            assert s <= (e + e * e) / 2 + 1e-12

