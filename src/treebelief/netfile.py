"""JSON interchange formats for networks and reports.

A network file is a JSON document::

    {"nodes": [
        {"id": "A",
         "alternatives": ["a1", "a2"],
         "parent": null,
         "cpt": [{"given": null, "dist": {"type": "dirichlet", "alpha": [1, 1]}}]},
        {"id": "B",
         "alternatives": ["b1", "b2"],
         "parent": "A",
         "cpt": [{"given": "a1", "dist": {"type": "point", "p": [0.9, 0.1]}},
                 {"given": "a2", "dist": {"type": "point", "p": [0.2, 0.8]}}]}
    ]}

Distribution objects are one of::

    {"type": "dirichlet", "alpha": [number, ...]}
    {"type": "discrete", "points": [{"p": [number, ...], "w": number}, ...]}
    {"type": "point", "p": [number, ...]}

Conditional rows must appear in the parent's alternative order; their
``given`` labels are checked against it.  Report serialization keeps the full
float precision (shortest round-trip repr, at least 15 significant digits).

:func:`parse_network` checks a document in two steps.  A structural pass
runs, in file order, every check on the objects, ids, alternatives, parents
and ``given`` labels, and gathers each Dirichlet ``alpha`` and point ``p``
list into one group per (type, length); discrete rows, which are rare, go
through :func:`parse_distribution` on the spot.  Then each group becomes one
stacked float array with one type check of all its numbers (JSON numbers
only, so no bool or string), and one reduction for the Dirichlet (finite,
> 0) or point (finite, >= 0, summing to 1) invariants.  Its rows are
read-only row views of that array.  If any check fails, the document is
parsed again row by row, which raises the first fault in file order, with
the error type and message of :func:`parse_distribution`.
"""
from __future__ import annotations

import json
from itertools import chain, islice
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .errors import BadDistribution, ParseError
from .model import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    UncertainDistribution,
    _alpha_ok,
    _prob_rows_ok,
)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


_NUMBER_TYPES = {int, float}  # what json decodes numbers to; bool is not one


def _is_number_list(value: Any) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= _NUMBER_TYPES


def parse_distribution(obj: Any, where: str) -> UncertainDistribution:
    _expect(isinstance(obj, dict), f"{where}: distribution must be an object")
    kind = obj.get("type")
    try:
        if kind == "dirichlet":
            alpha = obj.get("alpha")
            _expect(_is_number_list(alpha), f"{where}: dirichlet needs an alpha list of numbers")
            return Dirichlet(np.asarray(alpha, dtype=float))
        if kind == "discrete":
            points = obj.get("points")
            _expect(isinstance(points, list) and points, f"{where}: discrete needs points")
            vectors, weights = [], []
            for entry in points:
                _expect(
                    isinstance(entry, dict) and "p" in entry and "w" in entry,
                    f"{where}: discrete point needs 'p' and 'w'",
                )
                vectors.append(entry["p"])
                weights.append(entry["w"])
            _expect(
                all(map(_is_number_list, vectors)) and _is_number_list(weights),
                f"{where}: discrete point 'p' must be a list of numbers and 'w' a number",
            )
            return DiscreteSupport(np.asarray(vectors, dtype=float), np.asarray(weights, dtype=float))
        if kind == "point":
            p = obj.get("p")
            _expect(_is_number_list(p), f"{where}: point needs a p list of numbers")
            return PointMass(np.asarray(p, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed numbers ({exc})") from exc
    except BadDistribution as exc:
        raise BadDistribution(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown distribution type {kind!r}")


def _parse_row(obj: Any, node_id: str, j: int) -> UncertainDistribution:
    return parse_distribution(obj, f"node {node_id!r}, row {j}")


def _walk(doc: Any, parse_row: Callable[[Any, str, int], None]) -> List[tuple]:
    """Run the structural checks of a network document in file order.

    ``parse_row(dist, node_id, j)`` is called on the distribution object of
    each node's cpt row ``j``.  Returns ``(id, alternatives, parent, row
    count)`` per node.
    """
    _expect(isinstance(doc, dict), "top level must be an object")
    nodes_doc = doc.get("nodes")
    _expect(isinstance(nodes_doc, list) and nodes_doc, "top-level 'nodes' list required")

    alternatives_of: Dict[str, List[str]] = {}
    for entry in nodes_doc:
        _expect(isinstance(entry, dict), "each node must be an object")
        _expect(isinstance(entry.get("id"), str), "node 'id' must be a string")
        alts = entry.get("alternatives")
        _expect(
            isinstance(alts, list) and all(isinstance(a, str) for a in alts),
            f"node {entry.get('id')!r}: 'alternatives' must be a list of strings",
        )
        alternatives_of[entry["id"]] = alts

    nodes = []
    for entry in nodes_doc:
        node_id = entry["id"]
        parent = entry.get("parent")
        _expect(
            parent is None or isinstance(parent, str),
            f"node {node_id!r}: 'parent' must be a string or null",
        )
        cpt = entry.get("cpt")
        _expect(isinstance(cpt, list) and cpt, f"node {node_id!r}: 'cpt' rows required")
        expected_given: List[Optional[str]]
        if parent is None:
            expected_given = [None]
        elif parent in alternatives_of:
            expected_given = alternatives_of[parent]
        else:
            expected_given = [row.get("given") for row in cpt if isinstance(row, dict)]
        for j, row in enumerate(cpt):
            _expect(isinstance(row, dict), f"node {node_id!r}: cpt row {j} must be an object")
            if j < len(expected_given) and row.get("given") != expected_given[j]:
                raise ParseError(
                    f"node {node_id!r}: cpt row {j} is for {row.get('given')!r}, "
                    f"expected {expected_given[j]!r}"
                )
            parse_row(row.get("dist"), node_id, j)
        nodes.append((node_id, tuple(alternatives_of[node_id]), parent, len(cpt)))
    return nodes


class _StackedRows:
    """Rows gathered by the structural pass and checked one stack at a time.

    Dirichlet and point rows are grouped by kind and length; every other row
    goes through :func:`parse_distribution` at once.  :meth:`build` returns
    every row in file order, or ``None`` when some group fails its check.
    """

    def __init__(self):
        self.rows: List[Optional[UncertainDistribution]] = []
        self.groups: Dict[tuple, tuple] = {}  # (kind, length) -> (vectors, positions)

    def add(self, obj: Any, node_id: str, j: int) -> None:
        kind = obj.get("type") if type(obj) is dict else None
        if kind == "dirichlet" or kind == "point":
            values = obj.get("alpha" if kind == "dirichlet" else "p")
            if type(values) is list:
                vectors, positions = self.groups.setdefault((kind, len(values)), ([], []))
                vectors.append(values)
                positions.append(len(self.rows))
                self.rows.append(None)
                return
        self.rows.append(_parse_row(obj, node_id, j))

    def build(self) -> Optional[List[UncertainDistribution]]:
        rows = self.rows
        for (kind, length), (vectors, positions) in self.groups.items():
            if length < 1 or not set(map(type, chain.from_iterable(vectors))) <= _NUMBER_TYPES:
                return None
            try:
                stack = np.array(vectors, dtype=float)
            except (TypeError, ValueError, OverflowError):
                return None
            if kind == "point":
                ok, cls = _prob_rows_ok(stack), PointMass
            else:
                ok, cls = _alpha_ok(stack), Dirichlet
            if not ok:
                return None
            stack.flags.writeable = False
            for i, row in zip(positions, map(cls._checked, stack)):
                rows[i] = row
        return rows


def parse_network(doc: Any) -> NetworkSpec:
    """Parse a network document (see the module docstring) into a spec.

    Raises :class:`ParseError` or :class:`BadDistribution` for the first
    fault in file order.
    """
    stacked = _StackedRows()
    try:
        nodes = _walk(doc, stacked.add)
        rows = stacked.build()
    except (ParseError, BadDistribution):
        rows = None
    if rows is None:  # some row is bad: parsing row by row names the first fault
        rows = []
        nodes = _walk(doc, lambda obj, node_id, j: rows.append(_parse_row(obj, node_id, j)))
    it = iter(rows)
    return NetworkSpec(
        tuple(NodeSpec(i, alts, parent, tuple(islice(it, n))) for i, alts, parent, n in nodes)
    )


def load_network(path: str) -> NetworkSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to parse") from exc
    return parse_network(doc)


def distribution_to_json(dist: UncertainDistribution) -> Dict[str, Any]:
    if isinstance(dist, Dirichlet):
        return {"type": "dirichlet", "alpha": dist.alpha.tolist()}
    if isinstance(dist, DiscreteSupport):
        return {
            "type": "discrete",
            "points": [
                {"p": p.tolist(), "w": float(w)}
                for p, w in zip(dist.points, dist.weights)
            ],
        }
    if isinstance(dist, PointMass):
        return {"type": "point", "p": dist.p.tolist()}
    raise BadDistribution(f"unsupported distribution type {type(dist).__name__}")


def network_to_json(spec: NetworkSpec) -> Dict[str, Any]:
    by_id = {ns.id: ns for ns in spec.nodes}
    doc = []
    for ns in spec.nodes:
        if ns.parent is None or ns.parent not in by_id:
            given: List[Optional[str]] = [None] * len(ns.rows)
        else:
            given = list(by_id[ns.parent].alternatives)
        doc.append(
            {
                "id": ns.id,
                "alternatives": list(ns.alternatives),
                "parent": ns.parent,
                "cpt": [
                    {"given": g, "dist": distribution_to_json(d)}
                    for g, d in zip(given, ns.rows)
                ],
            }
        )
    return {"nodes": doc}


def save_network(spec: NetworkSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(network_to_json(spec), handle, indent=2)
        handle.write("\n")
