"""Command-line interface: validate, query, compare and boundcheck.

Reports go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 2 parse or validation failure, 3 inconsistent
evidence, 4 tolerance or bound exceeded, 5 precondition or cap violated,
6 a non-finite number in the report (nothing is written to standard output).
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .bounds import check_variance_bound
from .errors import (
    BeliefNetworkError,
    CapExceeded,
    InconsistentEvidence,
    NetworkValidationError,
    NonFiniteResult,
    ParseError,
    PreconditionViolated,
    UnknownAlternative,
    UnknownNode,
)
from .generate import random_beta_tree
from .model import ValidatedNetwork, validate_network
from .netfile import load_network
from .oracle import DEFAULT_CAP, MODES, OracleReport, enumerate_uncertainty, mc_uncertainty
from .propagation import posterior_report, propagate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3
EXIT_TOLERANCE = 4
EXIT_PRECONDITION = 5
EXIT_NONFINITE = 6


def _meta(command: str, args: argparse.Namespace, **extra) -> Dict:
    meta = {
        "command": command,
        "network": getattr(args, "path", None),
        "evidence": {},
        "tool": "treebelief",
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    meta.update(extra)
    return meta


def _parse_evidence_args(pairs: Optional[List[str]]) -> Dict[str, str]:
    evidence: Dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ParseError(f"evidence {pair!r} is not of the form NODE=ALTERNATIVE")
        node, label = pair.split("=", 1)
        evidence[node] = label
    return evidence


def _resolve_evidence(net: ValidatedNetwork, labels: Dict[str, str]) -> Dict[str, int]:
    return {node: net.alt_index(node, label) for node, label in labels.items()}


def _resolve_nodes(net: ValidatedNetwork, spec: str) -> List[str]:
    if spec == "all":
        return list(net.order)
    nodes = [n.strip() for n in spec.split(",") if n.strip()]
    for node in nodes:
        net.node(node)
    return nodes


def _emit(doc: Dict) -> None:
    """Write ``doc`` as strict JSON, or nothing if it holds a NaN or infinity."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"the report holds a non-finite number ({exc})") from None
    sys.stdout.write(text)
    sys.stdout.write("\n")


def cmd_validate(args: argparse.Namespace) -> int:
    validate_network(load_network(args.path))
    print("OK")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    net = validate_network(load_network(args.path))
    labels = _parse_evidence_args(args.evidence)
    evidence = _resolve_evidence(net, labels)
    nodes = _resolve_nodes(net, args.nodes)
    reports = posterior_report(propagate(net, evidence), nodes)
    doc = {
        "meta": _meta("query", args, evidence=labels, nodes=nodes),
        "nodes": {
            node_id: {
                "alternatives": list(net.nodes[node_id].alternatives),
                "mean": rep.mean.tolist(),
                "second": rep.second.tolist(),
                "variance": rep.variance.tolist(),
                "clamped": rep.clamped,
                "instantiated": node_id in evidence,
            }
            for node_id, rep in reports.items()
        },
    }
    _emit(doc)
    return EXIT_OK


def _compare_doc(net, reports, oracle: OracleReport, tol, sigmas):
    per_node = {}
    worst = {"mean": 0.0, "second": 0.0, "variance": 0.0}
    ok = True
    for node_id, rep in reports.items():
        entry = oracle.entries[node_id]
        diffs = {
            "mean": float(np.max(np.abs(rep.mean - entry.mean))),
            "second": float(np.max(np.abs(rep.second - entry.second))),
            "variance": float(np.max(np.abs(rep.variance - entry.variance))),
        }
        if tol is not None:
            allowed = {key: tol for key in diffs}
        else:
            allowed = {
                "mean": float(sigmas * np.max(entry.se_mean) + 1e-12),
                "second": float(sigmas * np.max(entry.se_second) + 1e-12),
                "variance": float(sigmas * np.max(entry.se_variance) + 1e-12),
            }
        node_ok = all(diffs[k] <= allowed[k] for k in diffs)
        ok = ok and node_ok
        per_node[node_id] = {"diff": diffs, "allowed": allowed, "pass": node_ok}
        for key in worst:
            worst[key] = max(worst[key], diffs[key])
    return per_node, worst, ok


def cmd_compare(args: argparse.Namespace) -> int:
    net = validate_network(load_network(args.path))
    labels = _parse_evidence_args(args.evidence)
    evidence = _resolve_evidence(net, labels)
    reports = posterior_report(propagate(net, evidence))
    if args.mode == "enum":
        oracle = enumerate_uncertainty(net, evidence, args.oracle_mode, cap=args.cap)
        tol = args.tol if args.tol is not None else 1e-8
    else:
        oracle = mc_uncertainty(net, evidence, args.oracle_mode, n=args.samples, seed=args.seed)
        tol = args.tol  # None means the per-quantity sigma rule
    if oracle.degenerate_weights:
        print(
            f"warning: degenerate weights (effective sample size "
            f"{oracle.effective_sample_size:.1f})",
            file=sys.stderr,
        )
    per_node, worst, ok = _compare_doc(net, reports, oracle, tol, args.sigmas)
    doc = {
        "meta": _meta(
            "compare",
            args,
            evidence=labels,
            mode=args.mode,
            oracle_mode=args.oracle_mode,
            samples=args.samples if args.mode == "mc" else None,
            seed=args.seed if args.mode == "mc" else None,
            tol=tol,
            sigmas=None if tol is not None else args.sigmas,
        ),
        "oracle": {
            "size": oracle.size,
            "effective_sample_size": oracle.effective_sample_size,
            "degenerate_weights": oracle.degenerate_weights,
        },
        "nodes": per_node,
        "max_abs_diff": worst,
        "pass": ok,
    }
    _emit(doc)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_boundcheck(args: argparse.Namespace) -> int:
    if args.gen is not None:
        spec = random_beta_tree(np.random.default_rng(args.gen), max_depth=args.depth)
    elif args.path is not None:
        spec = load_network(args.path)
    else:
        raise ParseError("boundcheck needs a network file or --gen SEED")
    net = validate_network(spec)
    report = check_variance_bound(net)
    doc = {
        "meta": _meta("boundcheck", args, generated=args.gen),
        "nodes": {
            e.node: {
                "variance": e.variance,
                "bound": e.bound,
                "slack": e.slack,
                "pass": e.passed,
            }
            for e in report.entries
        },
        "pass": report.passed,
    }
    _emit(doc)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebelief",
        description="Probability and variance propagation in tree belief networks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_validate = sub.add_parser("validate", help="check a network file")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)

    p_query = sub.add_parser("query", help="propagate and report moments")
    p_query.add_argument("path")
    p_query.add_argument(
        "--evidence", action="append", metavar="NODE=ALT", help="instantiate a node"
    )
    p_query.add_argument("--nodes", default="all", help="'all' or a comma-separated list")
    p_query.set_defaults(func=cmd_query)

    p_compare = sub.add_parser("compare", help="compare propagation against an oracle")
    p_compare.add_argument("path")
    p_compare.add_argument("--evidence", action="append", metavar="NODE=ALT")
    p_compare.add_argument("--mode", choices=("enum", "mc"), default="enum")
    p_compare.add_argument("--oracle-mode", choices=MODES, default="approx-posterior")
    p_compare.add_argument("--samples", type=int, default=10_000)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_compare.add_argument(
        "--tol",
        type=float,
        default=None,
        help="absolute tolerance (default 1e-8 for enum, per-quantity sigma rule for mc)",
    )
    p_compare.add_argument("--sigmas", type=float, default=4.0)
    p_compare.set_defaults(func=cmd_compare)

    p_bound = sub.add_parser("boundcheck", help="check prior variances against row variances")
    p_bound.add_argument("path", nargs="?")
    p_bound.add_argument("--gen", type=int, default=None, metavar="SEED")
    p_bound.add_argument("--depth", type=int, default=5)
    p_bound.set_defaults(func=cmd_boundcheck)
    return parser


_EXIT_CODES = (
    (InconsistentEvidence, EXIT_INCONSISTENT),
    (NonFiniteResult, EXIT_NONFINITE),
    ((CapExceeded, PreconditionViolated), EXIT_PRECONDITION),
    ((ParseError, NetworkValidationError, UnknownNode, UnknownAlternative), EXIT_VALIDATION),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BeliefNetworkError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
