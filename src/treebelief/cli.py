"""Command-line interface: validate, query, compare and boundcheck.

Reports go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 2 parse or validation failure (and any other error
of the package), 3 inconsistent evidence, 4 tolerance or bound exceeded,
5 precondition or cap violated, or memory refused to a network under the
cap (one line names the allocation), 6 a report that cannot be given: a
non-finite number in it, or a variance below the engine's numerical floor
(nothing is written to standard output), 74 standard output refused a
write (a full disk, say), 141 standard output closed by its reader before
the report was written.

:func:`main` pauses the cyclic garbage collector while the command runs and
then restores the caller's setting: a command builds no reference cycles,
and full collections would otherwise rescan the decoded document and the
report each time the command allocates.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import gc
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .bounds import check_variance_bound, random_beta_tree
from .errors import (
    BeliefNetworkError,
    CapExceeded,
    InconsistentEvidence,
    NegativeVariance,
    NonFiniteResult,
    ParseError,
    PreconditionViolated,
)
from .model import ValidatedNetwork, validate_network
from .netfile import load_network
from .oracle import DEFAULT_CAP, MODES, OracleReport, enumerate_uncertainty, mc_uncertainty
from .propagation import NodeReport, posterior_report, propagate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3
EXIT_TOLERANCE = 4
EXIT_PRECONDITION = 5
EXIT_NONFINITE = 6
EXIT_IO = 74  # EX_IOERR of sysexits.h
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

QUERY_CHUNK = 4096  # nodes of a ``query`` report formatted and written at a time


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


def _parse_evidence_args(net: ValidatedNetwork, pairs: Optional[List[str]]):
    """``(labels, indices)``: each NODE=ALTERNATIVE pair split at its first ``=``
    whose left part is a node id, and resolved to the alternative's index.

    So an id may hold ``=``.  Where no ``=`` qualifies, the split is at the
    first one, and resolving the pair names the unknown node.  A node may be
    named again only with the same alternative.
    """
    evidence: Dict[str, str] = {}
    for pair in pairs or []:
        cuts = [i for i, c in enumerate(pair) if c == "="]
        if not cuts:
            raise ParseError(f"evidence {pair!r} is not of the form NODE=ALTERNATIVE")
        cut = next((i for i in cuts if pair[:i] in net.nodes), cuts[0])
        node, label = pair[:cut], pair[cut + 1:]
        if evidence.setdefault(node, label) != label:
            raise ParseError(f"evidence names node {node!r} as {evidence[node]!r} and {label!r}")
    return evidence, {node: net.alt_index(node, label) for node, label in evidence.items()}


def _resolve_nodes(net: ValidatedNetwork, spec: str) -> List[str]:
    """``all``, else the node whose id is ``spec``, else a comma-separated list, each id once."""
    if spec == "all":
        return list(net.order)
    if spec in net.nodes:
        return [spec]
    nodes = list(dict.fromkeys(n.strip() for n in spec.split(",") if n.strip()))
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


def _emit_query(meta: Dict, reports: Dict[str, NodeReport], alternatives, evidence) -> None:
    """Write a ``query`` report with the bytes of :func:`_emit` on its document.

    ``alternatives`` maps each reported node id to its labels (a tuple); a
    node is instantiated when its id is in ``evidence``.  Every float is checked
    finite before anything is written.  Then :data:`QUERY_CHUNK` nodes at a
    time have their floats placed as ``float.__repr__`` (the text of either JSON
    encoder) in the node layout of ``json.dumps(doc, indent=2)`` and written, so
    the strings held at once do not grow with the report.  That layout needs at
    least one label and one float in each list.
    """
    head = json.dumps({"meta": meta, "nodes": {}}, indent=2)
    if not reports:
        sys.stdout.write(head + "\n")
        return
    arrays = [x for rep in reports.values() for x in (rep.mean, rep.second, rep.variance)]
    values = np.concatenate(arrays)
    if not np.isfinite(values).all():
        raise NonFiniteResult("the report holds a non-finite number")
    ends = np.cumsum([0, *map(len, arrays)])  # where each list starts in ``values``, then the end
    del arrays
    pad, items = ",\n        ", iter(reports.items())
    # head ends '"nodes": {}\n}'; keep it up to the opening brace
    sys.stdout.write(head[:-3])
    for first in range(0, len(reports), QUERY_CHUNK):
        cuts = ends[3 * first:3 * (first + QUERY_CHUNK) + 1]
        floats = list(map(float.__repr__, values[cuts[0]:cuts[-1]].tolist()))
        cuts = (cuts - cuts[0]).tolist()
        lists = iter([pad.join(floats[i:j]) for i, j in zip(cuts, cuts[1:])])
        parts = []
        for node_id, rep in itertools.islice(items, QUERY_CHUNK):
            labels = pad.join(map(encode_basestring_ascii, alternatives[node_id]))
            parts.append(
                f'    {encode_basestring_ascii(node_id)}: {{\n'
                f'      "alternatives": [\n        {labels}\n      ],\n'
                f'      "mean": [\n        {next(lists)}\n      ],\n'
                f'      "second": [\n        {next(lists)}\n      ],\n'
                f'      "variance": [\n        {next(lists)}\n      ],\n'
                f'      "clamped": {"true" if rep.clamped else "false"},\n'
                f'      "instantiated": {"true" if node_id in evidence else "false"}\n'
                "    }"
            )
        sys.stdout.write(("\n" if first == 0 else ",\n") + ",\n".join(parts))
    sys.stdout.write("\n  }\n}\n")


def cmd_validate(args: argparse.Namespace) -> int:
    validate_network(load_network(args.path))
    print("OK")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    net = validate_network(load_network(args.path))
    labels, evidence = _parse_evidence_args(net, args.evidence)
    nodes = _resolve_nodes(net, args.nodes)
    reports = posterior_report(propagate(net, evidence), None if args.nodes == "all" else nodes)
    meta = _meta("query", args, evidence=labels, nodes=nodes)
    _emit_query(meta, reports, {n: net.nodes[n].alternatives for n in reports}, evidence)
    return EXIT_OK


def _compare_doc(reports, oracle: OracleReport, tol, sigmas):
    per_node = {}
    worst = {"mean": 0.0, "second": 0.0, "variance": 0.0}
    ok = True
    for node_id, rep in reports.items():
        entry = oracle.entries[node_id]
        diffs, allowed = {}, {}
        for key in worst:
            diffs[key] = float(np.max(np.abs(getattr(rep, key) - getattr(entry, key))))
            if tol is not None:
                allowed[key] = tol
            else:
                allowed[key] = float(sigmas * np.max(getattr(entry, "se_" + key)) + 1e-12)
            worst[key] = max(worst[key], diffs[key])
        node_ok = all(diffs[k] <= allowed[k] for k in diffs)
        ok = ok and node_ok
        per_node[node_id] = {"diff": diffs, "allowed": allowed, "pass": node_ok}
    return per_node, worst, ok


def cmd_compare(args: argparse.Namespace) -> int:
    for name, value in (("tol", args.tol), ("sigmas", args.sigmas)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ParseError(f"--{name} must be a finite number >= 0, not {value!r}")
    net = validate_network(load_network(args.path))
    labels, evidence = _parse_evidence_args(net, args.evidence)
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
    per_node, worst, ok = _compare_doc(reports, oracle, tol, args.sigmas)
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
    if (args.gen is not None and args.gen < 0) or args.depth < 1:
        raise ParseError(f"--gen must be >= 0 and --depth >= 1, not {args.gen} and {args.depth}")
    if (args.gen is None) == (args.path is None):
        raise ParseError("boundcheck needs either a network file or --gen SEED")
    if args.gen is None:
        spec = load_network(args.path)
    else:
        spec = random_beta_tree(np.random.default_rng(args.gen), max_depth=args.depth)
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
    p_query.add_argument(
        "--nodes", default="all", help="'all', one node id, or a comma-separated list"
    )
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
    ((NonFiniteResult, NegativeVariance), EXIT_NONFINITE),
    ((CapExceeded, PreconditionViolated), EXIT_PRECONDITION),
)


_parser = functools.lru_cache(maxsize=1)(build_parser)  # one parser per process


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    collector = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collector:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BeliefNetworkError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"MemoryError: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # the network file's own errors are ParseError; this is the report's write
        _detach_stdout()
        print(f"OSError: cannot write to standard output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO


def _detach_stdout() -> None:
    """Point a failed standard output at devnull, so the flush at exit cannot raise again."""
    if sys.stdout is sys.__stdout__:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
