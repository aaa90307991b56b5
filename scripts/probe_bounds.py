"""Randomized probe of where the row-variance bound holds and breaks.

The bound checked by :func:`treebelief.check_variance_bound` says a node's
prior variance should not exceed the largest variance among its own stored
conditional entries.  This script searches that domain and beyond it, and
prints what it finds; it asserts nothing.

Run from the repository root::

    python scripts/probe_bounds.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treebelief import (  # noqa: E402
    Dirichlet,
    NetworkSpec,
    NodeSpec,
    check_variance_bound,
    posterior_report,
    propagate,
    validate_network,
)
from treebelief.bounds import BOUND_TOL  # noqa: E402
from treebelief.generate import random_beta_tree  # noqa: E402


def search_bound_extensions(seed: int = 0, trials: int = 200) -> Dict[str, list]:
    """Search three families of networks for variances above the bound.

    (a) three-alternative Dirichlet chains, checking the bound analog per
    alternative, (b) binary beta trees with an instantiated leaf, checking
    ancestor posterior variances against the same per-node bound, and
    (c) the bound's own domain, binary beta trees with no evidence.
    """
    rng = np.random.default_rng(seed)
    findings: Dict[str, list] = {
        "multi_alternative": [],
        "upward_from_evidence": [],
        "binary_prior": [],
    }

    def rnd_dirichlet(k: int) -> Dirichlet:
        return Dirichlet(np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=k)))

    for trial in range(trials):
        # (a) chain of 3-alternative nodes with random Dirichlet rows
        labels = ("x1", "x2", "x3")
        spec = NetworkSpec(
            (
                NodeSpec("r", labels, None, (rnd_dirichlet(3),)),
                NodeSpec("c", labels, "r", tuple(rnd_dirichlet(3) for _ in range(3))),
            )
        )
        net = validate_network(spec)
        rep = posterior_report(propagate(net, {}))["c"]
        node = net.nodes["c"]
        for alt in range(3):
            bound = max(
                float(m.second[alt, alt] - m.mean[alt] ** 2) for m in node.row_moments
            )
            excess = float(rep.variance[alt]) - bound
            if excess > BOUND_TOL:
                findings["multi_alternative"].append(
                    {"trial": trial, "alternative": alt, "excess": excess}
                )

        # (b) posterior variances above an instantiated leaf in a beta tree
        tree = validate_network(random_beta_tree(rng, max_depth=3))
        leaves = [n for n in tree.order if not tree.nodes[n].children]
        leaf = leaves[int(rng.integers(len(leaves)))]
        if leaf == tree.root:
            continue
        reports = posterior_report(propagate(tree, {leaf: int(rng.integers(2))}))
        for node_id in tree.order:
            node = tree.nodes[node_id]
            if node.parent is None or node_id == leaf:
                continue
            bound = max(
                float(m.second[0, 0] - m.mean[0] ** 2) for m in node.row_moments
            )
            excess = float(reports[node_id].variance[0]) - bound
            if excess > BOUND_TOL:
                findings["upward_from_evidence"].append(
                    {"trial": trial, "node": node_id, "excess": excess}
                )

        # (c) the bound's own domain: binary beta tree, empty evidence
        report = check_variance_bound(tree)
        for entry in report.entries:
            if not entry.passed:
                findings["binary_prior"].append(
                    {"trial": trial, "node": entry.node, "excess": -entry.slack}
                )
    return findings


def main() -> None:
    findings = search_bound_extensions()
    for key, cases in findings.items():
        print(f"{key}: {len(cases)} violation(s) found")
        if cases:
            worst = max(cases, key=lambda c: c["excess"])
            print(f"  worst excess {worst['excess']:.3g} at {worst}")


if __name__ == "__main__":
    main()
