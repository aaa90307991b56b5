"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
variance-bound sweep (criterion 5) is expected to fail: the bound it states
does not hold in general.  See that test's assertion message and
test_bounds.py::TestVarianceBoundChecker::test_bound_can_fail_and_is_reported
for a minimal counterexample; everything else must pass.
"""
import numpy as np
import pytest

from conftest import (
    beta_mean_cap,
    chain_child_variance,
    exact_means,
    impossible_evidence_spec,
    moments_of_beta,
    random_evidence,
    random_tree_spec,
    uniform_chain_spec,
)
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    check_variance_bound,
    enumerate_uncertainty,
    mc_uncertainty,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief.bounds import random_beta_tree
from treebelief.errors import InconsistentEvidence


def _gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _corpus(count: int = 200):
    """Seeded tree corpus shared by the oracle-equivalence criteria."""
    for t in range(count):
        rng = np.random.default_rng(10_000 + t)
        net = validate_network(random_tree_spec(rng))
        evidence = random_evidence(rng, net)
        yield net, evidence


def _report_gap(net, evidence, oracle) -> float:
    gap = 0.0
    for node_id, rep in posterior_report(propagate(net, evidence)).items():
        entry = oracle.entries[node_id]
        gap = max(
            gap,
            float(np.max(np.abs(rep.mean - entry.mean))),
            float(np.max(np.abs(rep.second - entry.second))),
            float(np.max(np.abs(rep.variance - entry.variance))),
        )
    return gap


def test_c1_oracle_equivalence():
    worst = 0.0
    for net, evidence in _corpus():
        oracle = enumerate_uncertainty(net, evidence, "approx-posterior")
        worst = max(worst, _report_gap(net, evidence, oracle))
    _gate(
        "criterion 1: propagation equals enumeration (approx-posterior) on 200 trees",
        worst <= 1e-10,
        f"max abs gap {worst:.3e}",
    )


def test_c2_prior_exactness():
    worst = 0.0
    for net, _ in _corpus():
        oracle = enumerate_uncertainty(net, {}, "prior")
        worst = max(worst, _report_gap(net, {}, oracle))
    _gate(
        "criterion 2: prior propagation equals prior enumeration on 200 trees",
        worst <= 1e-10,
        f"max abs gap {worst:.3e}",
    )


def test_c3_beta_identities():
    rng = np.random.default_rng(30_000)
    worst_closed = worst_cross = worst_complement = 0.0
    for _ in range(10_000):
        a, b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2)) - 1.0
        m = moments_of_beta(float(a), float(b))
        e, s, p = float(m.mean[0]), float(m.second[0, 0]), float(m.second[0, 1])
        # the paper's closed forms E, E(p^2) and E(p(1-p))
        closed_e = (a + 1.0) / (a + b + 2.0)
        worst_closed = max(
            worst_closed,
            abs(e - closed_e),
            abs(s - (a + 2.0) / (a + b + 3.0) * closed_e),
            abs(p - (b + 1.0) / (a + b + 3.0) * closed_e),
        )
        worst_cross = max(worst_cross, abs(p - (e - s)))
        worst_complement = max(
            worst_complement,
            abs(float(m.second[1, 1]) - (1.0 - 2.0 * e + s)),
        )
    _gate(
        "criterion 3: beta closed forms and cross/complement moment identities over 10^4 draws",
        worst_closed <= 1e-14 and worst_cross <= 1e-14 and worst_complement <= 1e-14,
        f"max closed-form gap {worst_closed:.2e}, max |P-(E-S)| {worst_cross:.2e}, "
        f"max complement gap {worst_complement:.2e}",
    )


def _two_point(mean: float, delta: float) -> DiscreteSupport:
    return DiscreteSupport(
        np.array([[mean + delta, 1 - mean - delta], [mean - delta, 1 - mean + delta]]),
        np.array([0.5, 0.5]),
    )


def test_c4_chain_closed_form():
    rng = np.random.default_rng(40_000)
    worst = 0.0
    for _ in range(1000):
        e, e1, e2 = rng.uniform(0.1, 0.9, size=3)
        d, d1, d2 = (rng.uniform(0.0, 0.95 * min(x, 1 - x)) for x in (e, e1, e2))
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (_two_point(e, d),)),
                NodeSpec("B", ("b1", "b2"), "A", (_two_point(e1, d1), _two_point(e2, d2))),
            )
        )
        rep = posterior_report(propagate(validate_network(spec), {}))["B"]
        closed = chain_child_variance(e, d * d, e1, d1 * d1, e2, d2 * d2)
        worst = max(worst, abs(float(rep.variance[0]) - closed))
    # the documented worked value
    documented = chain_child_variance(0.4, 0.04, 0.9, 0.0, 0.2, 0.0)
    _gate(
        "criterion 4: closed-form two-node variance matches propagation (10^3 draws)",
        worst <= 1e-12 and abs(documented - 0.0196) <= 1e-15,
        f"max gap {worst:.3e}, documented value {documented!r}",
    )


def test_c5_variance_bound():
    # worked instance: child variance 1/18 against bound 1/12
    report = check_variance_bound(validate_network(uniform_chain_spec()))
    entry = report.entry("B")
    assert entry.variance == pytest.approx(1 / 18, abs=1e-14)
    assert entry.bound == pytest.approx(1 / 12, abs=1e-15)
    assert report.passed

    violations = []
    total = 0
    for t in range(1000):
        rng = np.random.default_rng(50_000 + t)
        net = validate_network(random_beta_tree(rng))
        result = check_variance_bound(net)
        total += len(result.entries)
        violations.extend(
            (t, e.node, e.slack) for e in result.entries if not e.passed
        )
    worst = min((v[2] for v in violations), default=0.0)
    _gate(
        "criterion 5: prior variance <= max row variance on 1000 beta trees",
        not violations,
        f"{len(violations)}/{total} nodes violate the bound (worst slack {worst:.3e}); "
        "the bound is false in general: a high-variance parent feeding rows with "
        "separated means and small variances yields child variance ~ (mean gap)^2 "
        "* parent variance, e.g. flat root with rows Beta(45,5)/Beta(5,45) gives "
        "0.0545 against bound 0.00176; kept red deliberately, see notes",
    )


def test_c6_inequality_suites():
    rng = np.random.default_rng(60_000)
    checked = 0
    worst = {"second_cap": 0.0, "mean_cap": 0.0, "variance_cap": 0.0}
    while checked < 10_000:
        a, b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=2)) - 1.0
        if a + b < 0.0:
            continue
        checked += 1
        m = moments_of_beta(float(a), float(b))
        e, s = float(m.mean[0]), float(m.second[0, 0])
        v = s - e * e
        worst["second_cap"] = max(worst["second_cap"], s - (e + 2 * e * e) / 3)
        worst["mean_cap"] = max(worst["mean_cap"], e - beta_mean_cap(v))
        if s <= (e + e * e) / 2:
            worst["variance_cap"] = max(worst["variance_cap"], v - (e - s))
    _gate(
        "criterion 6: beta inequality suites over 10^4 draws with a+b >= 0",
        all(x <= 1e-12 for x in worst.values()),
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


def _fixed_dirichlet_tree() -> NetworkSpec:
    return NetworkSpec(
        (
            NodeSpec("A", ("s1", "s2"), None, (Dirichlet(np.array([2.0, 3.0])),)),
            NodeSpec(
                "B",
                ("s1", "s2", "s3"),
                "A",
                (Dirichlet(np.array([1.0, 2.0, 1.5])), Dirichlet(np.array([4.0, 1.0, 1.0]))),
            ),
            NodeSpec(
                "C",
                ("s1", "s2"),
                "A",
                (Dirichlet(np.array([6.0, 2.0])), Dirichlet(np.array([0.7, 0.9]))),
            ),
            NodeSpec(
                "D",
                ("s1", "s2"),
                "C",
                (Dirichlet(np.array([3.0, 3.0])), Dirichlet(np.array([10.0, 2.0]))),
            ),
        )
    )


def test_c7_monte_carlo_consistency():
    net = validate_network(_fixed_dirichlet_tree())
    reports = posterior_report(propagate(net, {}))
    mc = mc_uncertainty(net, {}, "prior", n=100_000, seed=20260809)
    worst_sigma = 0.0
    for node_id, rep in reports.items():
        entry = mc.entries[node_id]
        for attr, se in (
            ("mean", entry.se_mean),
            ("second", entry.se_second),
            ("variance", entry.se_variance),
        ):
            diff = np.abs(getattr(rep, attr) - getattr(entry, attr))
            worst_sigma = max(worst_sigma, float(np.max(diff / (se + 1e-12))))
    rerun = mc_uncertainty(net, {}, "prior", n=100_000, seed=20260809)
    identical = all(
        np.array_equal(getattr(mc.entries[n], f), getattr(rerun.entries[n], f))
        for n in net.order
        for f in ("mean", "second", "variance", "se_mean", "se_second", "se_variance")
    )
    _gate(
        "criterion 7: Monte Carlo prior within 4 standard errors, reruns bit-identical",
        worst_sigma <= 4.0 and identical,
        f"worst deviation {worst_sigma:.2f} sigma, bit-identical={identical}",
    )


def _scaled_family(scale: float) -> NetworkSpec:
    """Fixed tree whose two-point rows keep their means but shrink their
    spread by sqrt(scale): discrete stand-ins for increasingly confident
    uncertainty."""
    rng = np.random.default_rng(777)

    def row(k: int) -> DiscreteSupport:
        mean = rng.dirichlet(np.ones(k) * 4.0)
        room = min(mean[0], 1 - mean[0], mean[-1], 1 - mean[-1])
        eps = 0.8 * room / np.sqrt(scale)
        d = np.zeros(k)
        d[0], d[-1] = 1.0, -1.0
        return DiscreteSupport(np.stack([mean + eps * d, mean - eps * d]), np.array([0.5, 0.5]))

    return NetworkSpec(
        (
            NodeSpec("A", ("s1", "s2"), None, (row(2),)),
            NodeSpec("B", ("s1", "s2"), "A", (row(2), row(2))),
            NodeSpec("C", ("s1", "s2"), "A", (row(2), row(2))),
            NodeSpec("D", ("s1", "s2"), "C", (row(2), row(2))),
        )
    )


def test_c8_approximation_quality_trend():
    trends_ok = True
    details = []
    for evidence in ({"D": 0}, {"B": 1, "D": 0}):
        gaps = []
        for scale in (1.0, 10.0, 100.0):
            net = validate_network(_scaled_family(scale))
            approx = enumerate_uncertainty(net, evidence, "approx-posterior")
            exact = enumerate_uncertainty(net, evidence, "exact-posterior")
            gaps.append(
                max(
                    float(np.max(np.abs(approx.entries[n].variance - exact.entries[n].variance)))
                    for n in net.order
                )
            )
        trends_ok = trends_ok and gaps[0] >= gaps[1] - 1e-15 and gaps[1] >= gaps[2] - 1e-15
        details.append("->".join(f"{g:.2e}" for g in gaps))
    _gate(
        "criterion 8: approx-vs-exact variance gap non-increasing in confidence",
        trends_ok,
        "; ".join(details),
    )


def test_c9_degeneracy_suite():
    worst_var = worst_mean = 0.0
    checked = 0
    for t in range(20):
        rng = np.random.default_rng(90_000 + t)
        net = validate_network(random_tree_spec(rng, max_combinations=1))
        evidence = random_evidence(rng, net)
        try:
            reports = posterior_report(propagate(net, evidence))
            marginals = exact_means(net, evidence)
        except InconsistentEvidence:
            continue
        checked += 1
        for node_id, rep in reports.items():
            worst_var = max(worst_var, float(np.max(rep.variance)))
            worst_mean = max(
                worst_mean, float(np.max(np.abs(rep.mean - marginals[node_id])))
            )
            if node_id in evidence:
                assert rep.mean[evidence[node_id]] == 1.0
                assert np.all(rep.variance == 0.0)

    impossible = validate_network(impossible_evidence_spec())
    raised = 0
    for call in (
        lambda: posterior_report(propagate(impossible, {"B": 1}), ["A"]),
        lambda: enumerate_uncertainty(impossible, {"B": 1}, "approx-posterior"),
        lambda: enumerate_uncertainty(impossible, {"B": 1}, "exact-posterior"),
    ):
        with pytest.raises(InconsistentEvidence):
            call()
        raised += 1
    _gate(
        "criterion 9: point-mass degeneracy, indicators, impossible evidence",
        checked >= 15 and worst_var <= 1e-12 and worst_mean <= 1e-12 and raised == 3,
        f"{checked} nets, max variance {worst_var:.1e}, max mean gap {worst_mean:.1e}",
    )
