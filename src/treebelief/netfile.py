"""The JSON network file format.

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
``given`` labels are checked against it.  :func:`save_network` writes each
number as its shortest round-trip repr, so a saved network loads back bit
for bit.

:func:`parse_network` turns a document into columns, with no object per row
(:func:`_columns`), and :func:`validate_network` checks the columns.  The
returned :class:`NetworkSpec` builds its row objects, read-only views of the
columns' stacks, in one pass the first time its ``nodes`` or a validated
node's ``rows`` is read.  If any check fails, the document is parsed again
row by row (:func:`_walk`), which raises the first fault in file order, with
the error type and message of :func:`parse_distribution`.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any, Dict, List, Optional

import numpy as np

from .errors import BadDistribution, ParseError
from .model import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    UncertainDistribution,
    _Columns,
    _DIRICHLET,
    _DISCRETE,
    _POINT,
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


def _walk(doc: Any) -> NetworkSpec:
    """Parse a network document row by row, running every check in file
    order, so that the first fault is the one raised."""
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
        rows = []
        for j, row in enumerate(cpt):
            _expect(isinstance(row, dict), f"node {node_id!r}: cpt row {j} must be an object")
            if j < len(expected_given) and row.get("given") != expected_given[j]:
                raise ParseError(
                    f"node {node_id!r}: cpt row {j} is for {row.get('given')!r}, "
                    f"expected {expected_given[j]!r}"
                )
            rows.append(parse_distribution(row.get("dist"), f"node {node_id!r}, row {j}"))
        nodes.append(NodeSpec(node_id, alternatives_of[node_id], parent, rows))
    return NetworkSpec(nodes)


_KIND_CODES = {"dirichlet": _DIRICHLET, "discrete": _DISCRETE, "point": _POINT}
_VALUE_KEYS = {"dirichlet": "alpha", "discrete": "points", "point": "p"}


def _columns(doc: Any) -> Optional[_Columns]:
    """The columns of a document that passes every check, else ``None``.

    Each JSON-shape check of :func:`_walk` and :func:`parse_distribution`
    runs as one C-level pass over all nodes or all rows (``map``, ``set``,
    list equality); numbers must be int or float, so no bool or string.  The
    :class:`_Columns` constructor stacks and checks them.  Some checks are
    stricter: a duplicate id, an unknown parent, a row count that does not
    match the parent, or a ``str`` or ``dict`` subclass also give ``None``,
    and the walk then decides.  Discrete rows, which are rare, go through
    :func:`parse_distribution` one by one.
    """
    if type(doc) is not dict:
        return None
    entries = doc.get("nodes")
    if type(entries) is not list or not entries or set(map(type, entries)) != {dict}:
        return None
    ids, alternatives, parents, cpts = (
        list(map(dict.get, entries, repeat(key))) for key in ("id", "alternatives", "parent", "cpt")
    )
    if (
        set(map(type, ids)) != {str}
        or len(set(ids)) < len(ids)
        or set(map(type, alternatives)) != {list}
        or not set(map(type, chain.from_iterable(alternatives))) <= {str}
        or not set(map(type, parents)) <= {str, type(None)}
        or set(map(type, cpts)) != {list}
        or not all(cpts)
    ):
        return None
    alternatives_of = dict(zip(ids, alternatives))
    alternatives_of[None] = [None]  # the given of the root's one row
    given = list(map(alternatives_of.get, parents))
    counts = list(map(len, cpts))
    if None in given or list(map(len, given)) != counts:
        return None
    rows = list(chain.from_iterable(cpts))
    if set(map(type, rows)) != {dict}:
        return None
    if list(map(dict.get, rows, repeat("given"))) != list(chain.from_iterable(given)):
        return None
    dists = list(map(dict.get, rows, repeat("dist")))
    if set(map(type, dists)) != {dict}:
        return None
    kinds = list(map(dict.get, dists, repeat("type")))
    if set(map(type, kinds)) != {str} or not set(kinds) <= _KIND_CODES.keys():
        return None
    values = list(map(dict.get, dists, map(_VALUE_KEYS.__getitem__, kinds)))
    kinds = np.array(list(map(_KIND_CODES.__getitem__, kinds)), dtype=np.intp)
    discrete = [dists[g] for g in np.flatnonzero(kinds == _DISCRETE).tolist()]
    if discrete:
        values = [value for value, kind in zip(values, kinds.tolist()) if kind != _DISCRETE]
    if set(map(type, values)) - {list} or set(map(type, chain.from_iterable(values))) - _NUMBER_TYPES:
        return None
    try:  # on a fault the walk raises it again, naming the row
        discrete = list(map(parse_distribution, discrete, repeat("row")))
        return _Columns(ids, list(map(tuple, alternatives)), parents, counts, kinds, values, discrete)
    except (ParseError, BadDistribution, ValueError, OverflowError):  # OverflowError: an int too big
        return None


def parse_network(doc: Any) -> NetworkSpec:
    """Parse a network document (see the module docstring) into a spec.

    Raises :class:`ParseError` or :class:`BadDistribution` for the first
    fault in file order.
    """
    columns = _columns(doc)
    if columns is None:  # some check failed: the row-by-row walk names the first fault
        return _walk(doc)
    return NetworkSpec._of_columns(columns)


def load_network(path: str) -> NetworkSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
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
    """Write ``spec`` to ``path``; a row that cannot be written leaves the file as it was."""
    doc = network_to_json(spec)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
