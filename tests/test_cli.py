import contextlib
import copy
import dataclasses
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    binary_dirichlet_spec,
    impossible_evidence_spec,
    mixed_trees,
    reference_parse,
    row_arrays,
    three_island_spec,
    tiny_evidence_chain_spec,
    two_node_mixed_spec,
    underflow_star_spec,
    uniform_chain_spec,
)
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeReport,
    NodeSpec,
    PointMass,
    load_network,
    parse_network,
    posterior_report,
    propagate,
    save_network,
    validate_network,
)
from treebelief import cli, propagation
from treebelief.bounds import random_beta_tree
from treebelief.cli import main
from treebelief.errors import BadDistribution, BeliefNetworkError, DimensionMismatch, NonFiniteResult, ParseError
from treebelief.netfile import network_to_json
from treebelief.oracle import MAX_SAMPLES


@pytest.fixture
def two_node_file(tmp_path):
    path = tmp_path / "net.json"
    save_network(two_node_mixed_spec(), str(path))
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    save_network(uniform_chain_spec(), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNetworkFiles:
    def test_round_trip(self, two_node_file):
        spec = load_network(two_node_file)
        again = parse_network(network_to_json(spec))
        assert network_to_json(again) == network_to_json(spec)

    def test_row_order_checked(self):
        doc = network_to_json(two_node_mixed_spec())
        doc["nodes"][1]["cpt"].reverse()
        with pytest.raises(ParseError, match="row 0"):
            parse_network(doc)

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            parse_network({"nodes": [{"id": "A"}]})

    def test_unknown_distribution(self):
        doc = network_to_json(two_node_mixed_spec())
        doc["nodes"][0]["cpt"][0]["dist"] = {"type": "gaussian"}
        with pytest.raises(ParseError):
            parse_network(doc)

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(two_node_mixed_spec(), str(path))
        before = path.read_bytes()
        bad = NetworkSpec((NodeSpec("A", ("a1", "a2"), None, (object(),)),))
        with pytest.raises(BadDistribution):
            save_network(bad, str(path))
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "command, content, message",
        [
            pytest.param("query", b'{"nodes": "\xff"}', "not valid UTF-8", id="query"),
            pytest.param("validate", b'{"nodes": "\xff"}', "not valid UTF-8", id="validate"),
            pytest.param("query", None, "cannot read", id="query-missing"),
            pytest.param("validate", b'{"nodes": [', "not valid JSON", id="validate-not-json"),
        ],
    )
    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, command, content, message):
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("ParseError: ") and message in err

    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_saved_network_keeps_every_row(self, tmp_path, n_rows):
        spec = two_node_mixed_spec()
        a, b = spec.nodes
        rows = (b.rows * 2)[:n_rows]
        spec = NetworkSpec((a, NodeSpec(b.id, b.alternatives, b.parent, rows)))
        path = str(tmp_path / "net.json")
        save_network(spec, path)
        loaded = load_network(path)
        assert len(loaded.nodes[1].rows) == n_rows
        if n_rows == 2:
            validate_network(loaded)
            return
        for candidate in (spec, loaded):
            with pytest.raises(DimensionMismatch, match=f"^node 'B': {n_rows} rows, expected 2$"):
                validate_network(candidate)

    @given(mixed_trees())
    @settings(max_examples=60, deadline=None)
    def test_saved_network_reproduces_moments(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            save_network(spec, path)
            loaded = validate_network(load_network(path))
        net = validate_network(spec)
        for node_id in net.order:
            for attr in ("mean_rows", "second_rows"):
                got = getattr(loaded.nodes[node_id], attr)
                assert got.tobytes() == getattr(net.nodes[node_id], attr).tobytes()


def _fuzz_base_doc():
    """A valid document with every distribution type and a three-level chain."""
    spec = NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.array([2.0, 3.0])),)),
            NodeSpec(
                "B",
                ("b1", "b2", "b3"),
                "A",
                (
                    DiscreteSupport(
                        np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]), np.array([0.4, 0.6])
                    ),
                    PointMass(np.array([0.1, 0.2, 0.7])),
                ),
            ),
            NodeSpec(
                "C",
                ("c1", "c2"),
                "B",
                (
                    PointMass(np.array([0.5, 0.5])),
                    Dirichlet(np.array([1.0, 4.0])),
                    Dirichlet(np.array([2.5, 0.5])),
                ),
            ),
        )
    )
    return network_to_json(spec)


def _paths(obj, path=()):
    """Every path into a JSON value, the value itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _json_type(value):
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value)
    return float  # int and float are both JSON numbers


_ODD_VALUES = (None, True, False, 0, -2, 0.5, "", "1.0", "a1", [], [1, 2], ["a1"], {}, {"type": "point"})
_BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e200)


@st.composite
def malformed_queries(draw):
    """``(document, evidence arguments)`` with exactly one fault."""
    doc = _fuzz_base_doc()
    paths = list(_paths(doc))
    fault = draw(st.sampled_from(("wrong type", "bad number", "missing key", "bad given", "bad evidence")))
    evidence = []
    if fault == "wrong type":
        path = draw(st.sampled_from(paths))
        old = _at(doc, path)
        value = draw(st.sampled_from([v for v in _ODD_VALUES if _json_type(v) != _json_type(old)]))
        if not path:
            return value, evidence
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    elif fault == "bad number":
        path = draw(st.sampled_from([p for p in paths if p and _json_type(_at(doc, p)) is float]))
        # a huge alpha is a valid, very confident row; 1e200 is bad everywhere else
        bad = [x for x in _BAD_NUMBERS if not (x == 1e200 and path[-2] == "alpha")]
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(bad))
    elif fault == "missing key":
        keys = [p for p in paths if p and isinstance(p[-1], str) and _at(doc, p) is not None]
        path = draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
    elif fault == "bad given":
        node = draw(st.sampled_from((1, 2)))
        row = _at(doc, ("nodes", node, "cpt", draw(st.integers(0, node))))
        row["given"] = draw(st.sampled_from([g for g in ("a1", "a2", "b1", "b2", "b3", "zz") if g != row["given"]]))
    else:
        evidence = ["--evidence", draw(st.sampled_from(("B=zz", "Z=b1", "B", "=b1", "C=c1=c2", "B=")))]
    return doc, evidence


class TestMalformedDocuments:
    @given(malformed_queries())
    @settings(max_examples=300, deadline=None)
    def test_query_exits_2_with_one_line(self, case):
        doc, evidence = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["query", path] + evidence)
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert "Traceback" not in err.getvalue()

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "query", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "ParseError" in err

    def test_numbers_must_be_json_numbers(self):
        doc = _fuzz_base_doc()
        for value in ("2.0", True):
            doc["nodes"][0]["cpt"][0]["dist"]["alpha"][0] = value
            with pytest.raises(ParseError, match="numbers"):
                parse_network(doc)

    def test_oversized_integer(self):
        doc = _fuzz_base_doc()
        doc["nodes"][0]["cpt"][0]["dist"]["alpha"][0] = 10**400
        with pytest.raises(ParseError):
            parse_network(doc)


def _outcome(parse, doc):
    """``("ok", spec)``, or ``(exception type, message)`` of a failed parse."""
    try:
        return "ok", parse(doc)
    except (ParseError, BadDistribution) as exc:
        return type(exc), str(exc)


def _assert_same_parse(doc):
    got, want = _outcome(parse_network, doc), _outcome(reference_parse, doc)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    assert [(n.id, n.alternatives, n.parent) for n in got[1].nodes] == [
        (n.id, n.alternatives, n.parent) for n in want[1].nodes
    ]
    for node, ref in zip(got[1].nodes, want[1].nodes):
        assert len(node.rows) == len(ref.rows)
        for row, ref_row in zip(node.rows, ref.rows):
            assert type(row) is type(ref_row)
            for arr, ref_arr in zip(row_arrays(row), row_arrays(ref_row)):
                assert arr.dtype == ref_arr.dtype and arr.shape == ref_arr.shape
                assert arr.tobytes() == ref_arr.tobytes()
                assert not arr.flags.writeable


_BIG_INTS = st.integers(2**53 + 1, 2**70) | st.integers(2**53 + 1, 10**300)


@st.composite
def _number_docs(draw):
    """Documents of ``mixed_trees`` whose numbers are JSON ints or floats:
    Dirichlet alphas rounded to ints or holding ints above 2**53, and point
    and support vectors given as ints where they are one-hot."""
    doc = network_to_json(draw(mixed_trees()))
    for node in doc["nodes"]:
        for row in node["cpt"]:
            dist = row["dist"]
            style = draw(st.sampled_from(("float", "int", "big", "one-hot")))
            if dist["type"] == "dirichlet" and style == "int":
                dist["alpha"] = [max(1, round(a)) for a in dist["alpha"]]
            elif dist["type"] == "dirichlet" and style == "big":
                dist["alpha"][draw(st.integers(0, len(dist["alpha"]) - 1))] = draw(_BIG_INTS)
            elif style == "one-hot":
                vectors = [dist] if dist["type"] == "point" else dist.get("points", [])
                for vector in vectors:
                    hot = draw(st.integers(0, len(vector["p"]) - 1))
                    vector["p"] = [int(i == hot) for i in range(len(vector["p"]))]
    return doc


def _row_slots(doc):
    """``(node index, row index)`` of every cpt row, in file order."""
    return [(i, j) for i, node in enumerate(doc["nodes"]) for j in range(len(node["cpt"]))]


def _put_bad_number(doc, slot, value):
    dist = doc["nodes"][slot[0]]["cpt"][slot[1]]["dist"]
    vector = dist.get("alpha") or dist.get("p") or dist["points"][0]["p"]
    vector[-1] = value


def _put_structural_fault(doc, slot, fault):
    cpt = doc["nodes"][slot[0]]["cpt"]
    if fault == "row":
        cpt[slot[1]] = 7
    elif fault == "given":
        cpt[slot[1]]["given"] = "zz"
    else:
        cpt[slot[1]]["dist"] = {"type": "gaussian"}


# Each is a fault in any vector: 0.0 is not, in a point vector.
_BAD_ROW_NUMBERS = (float("nan"), float("inf"), -1.0, True, None, "1.0", 10**400, [1.0])
# The faults put into a document, in file order; the first must be named.
_FAULT_ORDERS = (
    ("number",), ("number", "structure"), ("structure", "number"), ("number", "number")
)


class TestStackedParse:
    """``parse_network`` checks Dirichlet and point rows as stacked arrays; it
    must give the per-row reference's rows, bit for bit, and its errors."""

    @given(_number_docs())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_per_row_parse(self, doc):
        _assert_same_parse(doc)

    @given(malformed_queries())
    @settings(max_examples=300, deadline=None)
    def test_malformed_documents_fail_alike(self, case):
        _assert_same_parse(case[0])

    @given(_number_docs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_fault_in_file_order_is_named(self, doc, data):
        slots = _row_slots(doc)
        assume(len(slots) >= 2)
        pair = st.lists(st.sampled_from(slots), min_size=2, max_size=2, unique=True)
        first, second = sorted(data.draw(pair))
        kinds = data.draw(st.sampled_from(_FAULT_ORDERS))
        for slot, kind in zip((first, second), kinds):
            if kind == "number":
                _put_bad_number(doc, slot, data.draw(st.sampled_from(_BAD_ROW_NUMBERS)))
            else:
                fault = data.draw(st.sampled_from(("row", "given", "type")))
                _put_structural_fault(doc, slot, fault)
        got = _outcome(parse_network, doc)
        assert got == _outcome(reference_parse, doc)
        assert f"node {doc['nodes'][first[0]]['id']!r}" in got[1]


class TestLazyRows:
    """A parsed network keeps its rows as stacked arrays: a query builds no
    row object, and reading ``rows`` builds them once, shared by the spec
    and the validated network."""

    @pytest.fixture
    def binary_file(self, tmp_path):
        rng, labels = np.random.default_rng(16), ("s0", "s1", "s2")
        nodes = [
            NodeSpec(f"n{i}", labels, None if i == 0 else f"n{(i - 1) // 2}",
                     tuple(Dirichlet(rng.uniform(0.5, 5.0, 3)) for _ in range(1 if i == 0 else 3)))
            for i in range(1000)
        ]
        path = tmp_path / "binary-k3-n1000.json"
        save_network(NetworkSpec(nodes), str(path))
        return str(path)

    def test_query_builds_no_row_objects(self, capsys, monkeypatch, binary_file):
        built = []

        def counting(original):
            def wrapper(*args, **kwargs):
                built.append(args[0])
                return original(*args, **kwargs)
            return wrapper

        for cls in (Dirichlet, PointMass):
            monkeypatch.setattr(cls, "_checked", classmethod(counting(cls.__dict__["_checked"].__func__)))
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
        spec = load_network(binary_file)
        net = validate_network(spec)
        posterior_report(propagate(net, {"n999": 1}))
        code, out, _ = run_cli(capsys, "query", binary_file, "--evidence", "n999=s1")
        assert code == 0 and out
        assert built == []

        with open(binary_file, encoding="utf-8") as handle:
            reference = reference_parse(json.load(handle))
        del built[:]
        for i, ref in enumerate(reference.nodes):
            rows = net.nodes[ref.id].rows
            assert [type(row) for row in rows] == [type(row) for row in ref.rows]
            for row, ref_row in zip(rows, ref.rows):
                assert row_arrays(row)[0].tobytes() == row_arrays(ref_row)[0].tobytes()
                assert not row_arrays(row)[0].flags.writeable
            assert spec.nodes[i].rows is rows
        assert len(built) == sum(len(ref.rows) for ref in reference.nodes)  # each row once

    def test_concurrent_first_reads_get_the_same_rows(self, binary_file):
        spec = load_network(binary_file)
        net = validate_network(spec)
        results = [None] * 4

        def read(t):
            rows = [net.nodes[node_id].rows for node_id in net.order]
            results[t] = rows, spec.nodes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(t,)) for t in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        rows, nodes = results[0]
        for other_rows, other_nodes in results[1:]:
            assert other_nodes is nodes
            assert all(a is b for a, b in zip(other_rows, rows))
        assert all(node.rows is net.nodes[node.id].rows for node in nodes)

    def test_first_read_builds_every_row_once(self, monkeypatch, binary_file):
        spec = load_network(binary_file)
        net = validate_network(spec)
        built = []

        def counting(original):
            def wrapper(cls, vector):
                built.append(vector)
                return original(cls, vector)
            return classmethod(wrapper)

        for cls in (Dirichlet, PointMass):
            monkeypatch.setattr(cls, "_checked", counting(cls.__dict__["_checked"].__func__))
        assert len(net.nodes["n500"].rows) == 3
        assert "nodes" in vars(spec)
        assert len(built) == sum(len(node.mean_rows) for node in net.nodes.values())
        first = list(built)
        del built[:]
        rows = [row for node_id in net.order for row in net.nodes[node_id].rows]
        rows += [row for ns in spec.nodes for row in ns.rows]
        assert built == []
        assert {id(row.alpha) for row in rows} == {id(vector) for vector in first}


def _objects(doc) -> set:
    """The ``id`` of every dict, list, key and value of a decoded document."""
    found, stack = set(), [doc]
    while stack:
        obj = stack.pop()
        found.add(id(obj))
        if isinstance(obj, dict):
            found.update(map(id, obj))
            stack += obj.values()
        elif isinstance(obj, list):
            stack += obj
    return found


class TestDocumentNotKept:
    """A parsed network holds no object of its document: ids, parents,
    children and labels are new strings, so the decoded document can be
    freed whole once the network is built."""

    @staticmethod
    def _spec():
        rng = np.random.default_rng(36)
        yes_no, levels, odd = ("yes", "no"), ("low", "mid", "high"), ("\ud800", "yes")
        shape = [("root", levels, None), ("left", yes_no, "root"), ("right", yes_no, "root"),
                 ("\ud800", odd, "left"), ("deep", levels, "\ud800"), ("leaf", yes_no, "deep"),
                 ("other", levels, "right")]
        k = {node_id: len(labels) for node_id, labels, _ in shape}
        return NetworkSpec(tuple(
            NodeSpec(node_id, labels, parent, tuple(
                Dirichlet(rng.uniform(0.5, 5.0, len(labels))) for _ in range(k.get(parent, 1))))
            for node_id, labels, parent in shape
        ))

    def test_no_string_of_the_document_is_kept(self):
        doc = json.loads(json.dumps(network_to_json(self._spec())))
        spec = parse_network(doc)
        net = validate_network(spec)
        kept = [net.root, *net.order, *net.plan.slot]
        for node_id, node in net.nodes.items():
            kept += [node_id, node.id, node.alternatives, *node.alternatives, *node.children]
            kept += [] if node.parent is None else [node.parent]
            assert node.parent is None or node.parent is net.nodes[node.parent].id
            assert all(child is net.nodes[child].id for child in node.children)
        for ns in spec.nodes:
            kept += [ns.id, ns.alternatives, *ns.alternatives] + ([] if ns.parent is None else [ns.parent])
        assert len(kept) > 60
        in_doc = _objects(doc)
        assert [x for x in kept if id(x) in in_doc] == []
        assert all(node_id is net.nodes[node_id].id for node_id in net.order)
        assert net.root is net.nodes["root"].id

    def test_equal_label_lists_share_one_tuple(self):
        net = validate_network(parse_network(json.loads(json.dumps(network_to_json(self._spec())))))
        by_labels = {}
        for node in net.nodes.values():
            by_labels.setdefault(node.alternatives, set()).add(id(node.alternatives))
        assert sorted(map(len, by_labels)) == [2, 2, 3]
        assert all(len(tuples) == 1 for tuples in by_labels.values())
        assert net.nodes["\ud800"].alternatives[1] is net.nodes["left"].alternatives[0]  # "yes"
        assert net.nodes["\ud800"].alternatives[0] is net.nodes["\ud800"].id

    def test_lone_surrogates_round_trip(self, tmp_path):
        spec = self._spec()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_network(spec, str(first))
        loaded = load_network(str(first))
        save_network(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        net = validate_network(load_network(str(second)))
        assert net.nodes["\ud800"].alternatives == ("\ud800", "yes")
        assert net.nodes["deep"].parent == "\ud800" and net.nodes["left"].children == ("\ud800",)
        assert [(ns.id, ns.alternatives, ns.parent) for ns in loaded.nodes] == [
            (ns.id, ns.alternatives, ns.parent) for ns in spec.nodes]


class TestValidateCommand:
    def test_ok(self, capsys, two_node_file):
        code, out, _ = run_cli(capsys, "validate", two_node_file)
        assert code == 0
        assert out.strip() == "OK"

    def test_bad_alpha(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        doc = network_to_json(uniform_chain_spec())
        doc["nodes"][0]["cpt"][0]["dist"]["alpha"] = [1.0, 0.0]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "BadDistribution" in err

    def test_cycle(self, capsys, tmp_path):
        doc = network_to_json(two_node_mixed_spec())
        doc["nodes"][0]["parent"] = "B"
        doc["nodes"][0]["cpt"] = [
            {"given": "b1", "dist": {"type": "point", "p": [0.4, 0.6]}},
            {"given": "b2", "dist": {"type": "point", "p": [0.4, 0.6]}},
        ]
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "CycleDetected" in err


class TestQueryCommand:
    def test_prior_report(self, capsys, two_node_file):
        code, out, _ = run_cli(capsys, "query", two_node_file)
        assert code == 0
        doc = json.loads(out)
        b = doc["nodes"]["B"]
        assert b["mean"][0] == pytest.approx(0.48)
        assert b["variance"][0] == pytest.approx(0.0196)

    def test_flat_root_variance(self, capsys, tmp_path):
        spec = NetworkSpec(
            (NodeSpec("R", ("x", "y"), None, (Dirichlet(np.array([1.0, 1.0])),)),)
        )
        path = tmp_path / "root.json"
        save_network(spec, str(path))
        code, out, _ = run_cli(capsys, "query", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"]["R"]["variance"][0] == pytest.approx(1 / 12)

    def test_evidence_on_queried_node(self, capsys, two_node_file):
        code, out, _ = run_cli(
            capsys, "query", two_node_file, "--evidence", "B=b2", "--nodes", "B"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"]["B"]["mean"] == [0.0, 1.0]
        assert doc["nodes"]["B"]["variance"] == [0.0, 0.0]
        assert list(doc["nodes"]) == ["B"]

    def test_unknown_node_and_alternative(self, capsys, two_node_file):
        code, _, err = run_cli(capsys, "query", two_node_file, "--evidence", "Z=b1")
        assert code == 2 and "UnknownNode" in err
        code, _, err = run_cli(capsys, "query", two_node_file, "--evidence", "B=zap")
        assert code == 2 and "UnknownAlternative" in err

    @pytest.mark.parametrize("command", ["query", "compare"])
    def test_conflicting_evidence_exits_2(self, capsys, two_node_file, command):
        argv = [command, two_node_file, "--evidence", "B=b1", "--evidence", "B=b2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("ParseError: ") and "'B'" in err

    def test_repeated_evidence_is_accepted(self, capsys, two_node_file):
        argv = ["--evidence", "B=b1", "--evidence", "B=b1"]
        code, out, _ = run_cli(capsys, "query", two_node_file, *argv)
        assert code == 0
        assert json.loads(out)["meta"]["evidence"] == {"B": "b1"}

    def test_repeated_nodes_are_reported_once(self, capsys, two_node_file):
        code, out, _ = run_cli(capsys, "query", two_node_file, "--nodes", "B,A,B")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["nodes"] == ["B", "A"] and list(doc["nodes"]) == ["B", "A"]

    def test_overflowing_alpha(self, capsys, tmp_path):
        # An alpha sum that overflows has no moments: exit 2 in one line.
        path = tmp_path / "huge.json"
        doc = network_to_json(uniform_chain_spec())
        doc["nodes"][1]["cpt"][0]["dist"]["alpha"] = [1e308, 1e308]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "query", str(path))
        assert code == 2
        assert out == ""
        assert "BadDistribution" in err and "finite" in err
        assert "Traceback" not in err
        # A finite sum whose a0 (a0 + 1) overflows is a very confident row.
        doc["nodes"][1]["cpt"][0]["dist"]["alpha"] = [1e200, 1e200]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "query", str(path), "--evidence", "A=a1")
        assert (code, err) == (0, "")
        b = json.loads(out)["nodes"]["B"]
        assert (b["mean"], b["second"], b["variance"]) == ([0.5, 0.5], [0.25, 0.25], [0.0, 0.0])

    def test_inconsistent_evidence_exit_code(self, capsys, tmp_path):
        path = tmp_path / "impossible.json"
        save_network(impossible_evidence_spec(), str(path))
        code, _, err = run_cli(capsys, "query", str(path), "--evidence", "B=b2")
        assert code == 3
        assert "InconsistentEvidence" in err

    @pytest.mark.parametrize("nodes", ["A", "B"])
    def test_inconsistent_evidence_exits_3_whatever_nodes_are_asked_for(self, capsys, tmp_path, nodes):
        path = tmp_path / "impossible.json"
        save_network(impossible_evidence_spec(), str(path))
        code, out, err = run_cli(capsys, "query", str(path), "--evidence", "B=b2", "--nodes", nodes)
        assert (code, out) == (3, "")
        assert err == "InconsistentEvidence: evidence at node 'A' has zero mean probability\n"

    @pytest.mark.parametrize(
        "evidence, named",
        [(["A=a2"], "A"), (["A=a1", "B=b2"], "B")],
        ids=["root at a zero entry", "observed child of an observed parent"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["query"], ["query", "--nodes", "B"], ["compare", "--mode", "enum"],
         ["compare", "--mode", "enum", "--oracle-mode", "exact-posterior"],
         ["compare", "--mode", "mc", "--samples", "100"]],
        ids=["query", "query one node", "enum", "enum exact", "mc"],
    )
    def test_zero_entry_outside_every_island_exits_3(self, capsys, tmp_path, evidence, named, argv):
        path = tmp_path / "impossible.json"
        save_network(impossible_evidence_spec(), str(path))
        pairs = [arg for e in evidence for arg in ("--evidence", e)]
        code, out, err = run_cli(capsys, argv[0], str(path), *pairs, *argv[1:])
        assert (code, out) == (3, "")
        assert err == f"InconsistentEvidence: evidence at node '{named}' has zero mean probability\n"

    def test_variance_below_the_floor_exits_6(self, capsys, monkeypatch, uniform_file):
        monkeypatch.setattr(propagation, "VARIANCE_FLOOR", 1.0)  # every variance is below it
        code, out, err = run_cli(capsys, "query", uniform_file)
        assert (code, out) == (6, "")
        assert len(err.splitlines()) == 1 and err.startswith("NegativeVariance: node 'A': variance ")

    def test_any_other_package_error_exits_2(self, capsys, monkeypatch, uniform_file):
        def fails(*args, **kwargs):
            raise BeliefNetworkError("out of its domain")

        monkeypatch.setattr(cli, "propagate", fails)
        code, out, err = run_cli(capsys, "query", uniform_file)
        assert (code, out, err) == (2, "", "BeliefNetworkError: out of its domain\n")

    def test_report_round_trip_and_determinism(self, capsys, two_node_file):
        _, out1, _ = run_cli(capsys, "query", two_node_file, "--evidence", "B=b1")
        _, out2, _ = run_cli(capsys, "query", two_node_file, "--evidence", "B=b1")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        # floats survive the round trip bit for bit
        redumped = json.loads(json.dumps(doc1))
        assert redumped == doc1
        # identical invocations differ only in the timestamp
        doc1["meta"].pop("generated_at")
        doc2["meta"].pop("generated_at")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    @pytest.mark.parametrize("field, value", [("second", np.nan), ("variance", np.inf)])
    def test_non_finite_report_exits_6(self, capsys, monkeypatch, uniform_file, field, value):
        real = cli.posterior_report

        def poisoned(*args, **kwargs):
            reports = real(*args, **kwargs)
            bad = getattr(reports["B"], field).copy()
            bad[1] = value
            reports["B"] = reports["B"]._replace(**{field: bad})
            return reports

        monkeypatch.setattr(cli, "posterior_report", poisoned)
        code, out, err = run_cli(capsys, "query", uniform_file)
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("NonFiniteResult")

    def test_network_beyond_the_cell_cap_exits_5_before_allocating(self, tmp_path):
        # Two nodes of 1000 alternatives would stack 7.5 GiB of row second
        # moments.  The child runs under a 3 GiB address-space cap, so a
        # guard that failed could not take the memory.
        resource = pytest.importorskip("resource")
        labels = [f"a{i}" for i in range(1000)]
        row = {"type": "dirichlet", "alpha": [1.0] * 1000}
        doc = {"nodes": [
            {"id": "root", "alternatives": labels, "parent": None, "cpt": [{"given": None, "dist": row}]},
            {"id": "child", "alternatives": labels, "parent": "root",
             "cpt": [{"given": label, "dist": row} for label in labels]},
        ]}
        path = tmp_path / "k1000.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cap = 3 << 30
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "treebelief.cli", "query", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == cli.EXIT_PRECONDITION == 5
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("CapExceeded: ") and "node 'child' (1000 alternatives" in proc.stderr

    def test_memory_refused_under_the_cap_exits_5_in_one_line(self, tmp_path):
        # Two nodes of 500 alternatives pass the cell cap, but the child's
        # row second moments take 956 MiB, more than the child's 1 GiB
        # address-space cap leaves after the interpreter and numpy.
        resource = pytest.importorskip("resource")
        labels = [f"a{i}" for i in range(500)]
        row = {"type": "dirichlet", "alpha": [1.0] * 500}
        doc = {"nodes": [
            {"id": "root", "alternatives": labels, "parent": None, "cpt": [{"given": None, "dist": row}]},
            {"id": "child", "alternatives": labels, "parent": "root",
             "cpt": [{"given": label, "dist": row} for label in labels]},
        ]}
        path = tmp_path / "k500.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cap = 1 << 30
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "treebelief.cli", "query", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == cli.EXIT_PRECONDITION == 5
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("MemoryError: ")


_ODD_TEXT = ('"', '"],["', "a,b", "[x]", "{}", "\\", "\x00\x1f\n\t\x7f", "\u00e9", "\u65e5\u672c",
             "\U0001f600", "\u2028")
_TEXTS = st.text(max_size=6) | st.sampled_from(_ODD_TEXT)
_FLOATS = st.sampled_from((-0.0, 5e-324, 1e-300, 1.0, 0.1)) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def query_docs(draw):
    """Documents in the ``query`` layout: zero to four nodes, each with its
    own k in 1..8, odd ids and labels, and any finite floats."""
    ids = draw(st.lists(_TEXTS, max_size=4, unique=True))
    nodes = {}
    for node_id in ids:
        k = draw(st.integers(1, 8))
        floats = st.lists(_FLOATS, min_size=k, max_size=k)
        nodes[node_id] = {
            "alternatives": draw(st.lists(_TEXTS, min_size=k, max_size=k)),
            "mean": draw(floats),
            "second": draw(floats),
            "variance": draw(floats),
            "clamped": draw(st.booleans()),
            "instantiated": draw(st.booleans()),
        }
    meta = {
        "command": "query",
        "network": draw(_TEXTS),
        "evidence": draw(st.dictionaries(_TEXTS, _TEXTS, max_size=2)),
        "nodes": ids,
    }
    return {"meta": meta, "nodes": nodes}


def _write(doc):
    """Write ``doc``, a document in the ``query`` layout, from node reports."""
    nodes = doc["nodes"]
    reports = {
        node_id: NodeReport(node_id, *(np.array(e[key], dtype=float) for key in
                                       ("mean", "second", "variance")), e["clamped"])
        for node_id, e in nodes.items()
    }
    alternatives = {node_id: tuple(e["alternatives"]) for node_id, e in nodes.items()}
    evidence = {node_id for node_id, e in nodes.items() if e["instantiated"]}
    cli._emit_query(doc["meta"], reports, alternatives, evidence)


def _written(doc):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write(doc)
    return out.getvalue()


def _odd_ids_spec():
    return NetworkSpec(
        (
            NodeSpec('r"],["', ("a,b", "\\"), None, (Dirichlet(np.array([1.0, 2.0])),)),
            NodeSpec(
                "\u65e5\n[x]",
                ("\u00e9", '"', "\x01"),
                'r"],["',
                (Dirichlet(np.array([1.0, 2.0, 3.0])), PointMass(np.array([0.2, 0.3, 0.5]))),
            ),
        )
    )


class TestQueryWriter:
    """``query`` writes straight from the node reports; the bytes must stay
    those of ``json.dumps(doc, indent=2)`` plus a newline."""

    @given(query_docs())
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, doc):
        assert _written(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def test_fixed_cases(self):
        floats = [-0.0, 5e-324, 1e-300, 1.0, 0.1]
        doc = {"meta": {"nodes": []}, "nodes": {}}
        assert _written(doc) == json.dumps(doc, indent=2) + "\n"
        assert '"nodes": {}' in _written(doc)
        for n, (clamped, instantiated) in enumerate(
            [(False, False), (False, True), (True, False), (True, True)]
        ):
            doc["nodes"][f"n{n}"] = {
                "alternatives": ["x"] * (n + 1),
                "mean": floats[: n + 1],
                "second": floats[n:],
                "variance": floats,
                "clamped": clamped,
                "instantiated": instantiated,
            }
            assert _written(doc) == json.dumps(doc, indent=2) + "\n"

    @given(query_docs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_non_finite_writes_nothing(self, doc, data):
        assume(doc["nodes"])
        entry = doc["nodes"][data.draw(st.sampled_from(sorted(doc["nodes"])))]
        values = entry[data.draw(st.sampled_from(("mean", "second", "variance")))]
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.sampled_from((float("nan"), float("inf"), float("-inf")))
        )
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with pytest.raises(NonFiniteResult):
                _write(doc)
        assert out.getvalue() == ""

    @given(query_docs(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps_at_any_chunk_size(self, doc, chunk):
        with mock.patch.object(cli, "QUERY_CHUNK", chunk):
            assert _written(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_the_last_chunk_writes_nothing(self, value):
        doc = {"meta": {"nodes": []}, "nodes": {}}
        for n in range(7):  # chunks of 3, 3 and 1 nodes
            doc["nodes"][f"n{n}"] = {"alternatives": ["x", "y"], "mean": [0.5, 0.5], "second": [0.3, 0.3],
                                     "variance": [0.05, 0.05], "clamped": False, "instantiated": False}
        with mock.patch.object(cli, "QUERY_CHUNK", 3):
            assert _written(doc) == json.dumps(doc, indent=2) + "\n"
            doc["nodes"]["n6"]["variance"][1] = value
            with contextlib.redirect_stdout(io.StringIO()) as out:
                with pytest.raises(NonFiniteResult):
                    _write(doc)
        assert out.getvalue() == ""

    def test_query_over_more_nodes_than_a_chunk(self, capsys, tmp_path):
        n = cli.QUERY_CHUNK + 904
        path = tmp_path / f"binary-k3-n{n}.json"
        save_network(binary_dirichlet_spec(n), str(path))
        code, out, _ = run_cli(capsys, "query", str(path), "--evidence", f"n{n - 1}=s1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == n
        assert out == json.dumps(doc, indent=2) + "\n"

    @given(mixed_trees(max_nodes=12), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_mixed_k_query_at_any_chunk_size(self, spec, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            save_network(spec, path)
            with mock.patch.object(cli, "QUERY_CHUNK", chunk), \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["query", path]) == 0
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"

    @pytest.mark.parametrize(
        "spec, argv",
        [
            (two_node_mixed_spec(), []),
            (two_node_mixed_spec(), ["--evidence", "B=b1", "--nodes", "B"]),
            (two_node_mixed_spec(), ["--nodes", ","]),
            (uniform_chain_spec(), ["--evidence", "A=a2"]),
            (_odd_ids_spec(), []),
            (random_beta_tree(np.random.default_rng(12), max_depth=4), []),
            (binary_dirichlet_spec(), []),
            (binary_dirichlet_spec(), ["--evidence", "n999=s1"]),
        ],
    )
    def test_query_output_is_indented_json_dumps(self, capsys, tmp_path, spec, argv):
        path = tmp_path / "net.json"
        save_network(spec, str(path))
        code, out, _ = run_cli(capsys, "query", str(path), *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_module_entry_point_output_is_indented_json_dumps(self, tmp_path):
        path = tmp_path / "binary-k3-n1000.json"
        save_network(binary_dirichlet_spec(), str(path))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "treebelief.cli", "query", str(path), "--evidence", "n999=s1"]
        out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_closed_standard_output_exits_141_without_traceback(self, tmp_path):
        # the report is far larger than a pipe's buffer, so the reader's
        # close arrives while the writer is blocked in the pipe
        path = tmp_path / "binary-k3-n1000.json"
        save_network(binary_dirichlet_spec(), str(path))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "treebelief.cli", "query", str(path)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert err == b""
        assert code == cli.EXIT_BROKEN_PIPE == 141

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize(
        "command, spec",
        [("validate", two_node_mixed_spec()), ("query", two_node_mixed_spec()),
         ("query", binary_dirichlet_spec())],
        ids=["validate", "query, one buffer", "query, many buffers"],
    )
    def test_full_standard_output_exits_74_with_one_line(self, tmp_path, command, spec):
        path = tmp_path / "net.json"
        save_network(spec, str(path))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "treebelief.cli", command, str(path)]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_IO == 74
        assert proc.stderr == "OSError: cannot write to standard output: No space left on device\n"


class _FailingStdout(io.StringIO):
    """A standard output whose every write raises ``exc``."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


class TestCollector:
    """``main`` pauses the cyclic collector while the command runs and leaves
    ``gc.isenabled()`` as it found it, whatever the exit."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, spec in (("two", two_node_mixed_spec()), ("impossible", impossible_evidence_spec())):
            paths[name] = str(tmp_path / f"{name}.json")
            save_network(spec, paths[name])
        return paths

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller's collector on", "caller's collector off"])
    @pytest.mark.parametrize(
        "code, argv, stdout",
        [
            (0, ["query", "{two}"], None),
            (0, ["validate", "{two}"], None),
            (2, ["query", "{two}", "--evidence", "Z=z1"], None),
            (3, ["query", "{impossible}", "--evidence", "B=b2"], None),
            (4, ["compare", "{two}", "--evidence", "B=b1", "--oracle-mode", "exact-posterior"], None),
            (5, ["compare", "{two}", "--cap", "1", "--oracle-mode", "prior"], None),
            (6, ["query", "{two}"], "floor"),
            (74, ["query", "{two}"], OSError(errno.ENOSPC, "No space left on device")),
            (141, ["query", "{two}"], BrokenPipeError(errno.EPIPE, "Broken pipe")),
            (SystemExit, ["query"], None),
        ],
        ids=["query", "validate", "exit 2", "exit 3", "exit 4", "exit 5", "exit 6", "exit 74", "exit 141",
             "argparse exit"],
    )
    def test_collector_is_restored(self, capsys, monkeypatch, files, code, argv, stdout, enabled):
        argv = [arg.format(**files) for arg in argv]
        if stdout == "floor":
            monkeypatch.setattr(propagation, "VARIANCE_FLOOR", 1.0)  # every variance is below it
        elif stdout is not None:
            monkeypatch.setattr(sys, "stdout", _FailingStdout(stdout))
        seen, real = [], cli.validate_network

        def validate(spec):
            seen.append(gc.isenabled())
            return real(spec)

        monkeypatch.setattr(cli, "validate_network", validate)
        (gc.enable if enabled else gc.disable)()
        try:
            if code is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == ([] if code is SystemExit else [False])  # paused while the command ran


class TestCompareCommand:
    def test_enum_agrees(self, capsys, two_node_file):
        code, out, _ = run_cli(
            capsys, "compare", two_node_file, "--evidence", "B=b1", "--mode", "enum"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"]
        assert max(doc["max_abs_diff"].values()) <= 1e-10

    def test_mc_on_point_network_is_exact(self, capsys, tmp_path):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (two_node_mixed_spec().nodes[1].rows[0],)),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "A",
                    two_node_mixed_spec().nodes[1].rows,
                ),
            )
        )
        path = tmp_path / "pt.json"
        save_network(spec, str(path))
        code, out, _ = run_cli(
            capsys, "compare", str(path), "--mode", "mc", "--samples", "200",
            "--oracle-mode", "prior", "--seed", "11",
        )
        assert code == 0
        doc = json.loads(out)
        # no randomness anywhere: only accumulation dust can remain
        assert max(doc["max_abs_diff"].values()) <= 1e-12

    def test_tiny_alphas_give_strict_json(self, capsys, tmp_path):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (Dirichlet(np.array([0.001, 0.001])),)),
                two_node_mixed_spec().nodes[1],
            )
        )
        path = tmp_path / "tiny.json"
        save_network(spec, str(path))
        code, out, err = run_cli(
            capsys, "compare", str(path), "--mode", "mc", "--oracle-mode", "prior",
            "--samples", "2000", "--seed", "1",
        )
        assert code == 0 and err == ""

        def reject(token):
            raise ValueError(token)

        assert json.loads(out, parse_constant=reject)["pass"]

    def test_non_finite_report_exits_6(self, capsys, monkeypatch, uniform_file):
        real = cli.mc_uncertainty

        def nan_oracle(*args, **kwargs):
            report = real(*args, **kwargs)
            entry = report.entries["B"]
            report.entries["B"] = dataclasses.replace(entry, mean=entry.mean * np.nan)
            return report

        monkeypatch.setattr(cli, "mc_uncertainty", nan_oracle)
        code, out, err = run_cli(
            capsys, "compare", uniform_file, "--mode", "mc", "--oracle-mode", "prior",
            "--samples", "200",
        )
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("NonFiniteResult")

    def test_tiny_evidence_probability_exits_6(self, capsys, tmp_path):
        # One island of P(e) = 6e-163 underflows the squares behind the
        # effective sample size and the z**3 of the standard errors, not P(e)
        # itself.  The engine's D^2 underflows too (a RuntimeWarning, ignored
        # here), and the oracle's message shows which one stopped it.
        path = tmp_path / "star60.json"
        save_network(underflow_star_spec(60), str(path))
        evidence = [arg for i in range(60) for arg in ("--evidence", f"c{i}=a")]
        mc = ("--mode", "mc", "--oracle-mode", "exact-posterior", "--samples", "2000", "--seed", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, "compare", str(path), *mc, *evidence)
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("NonFiniteResult")
        assert "standard errors overflow at evidence probability" in err
        # The chain's P(e) = 1e-177 is a product of factors outside n0's
        # island, which cancel: its island's total is 1e-3.
        path = tmp_path / "tiny.json"
        save_network(tiny_evidence_chain_spec(Dirichlet([2.0, 2.0]), 60), str(path))
        evidence = [arg for i in range(1, 60) for arg in ("--evidence", f"n{i}=a")]
        code, out, err = run_cli(capsys, "compare", str(path), *mc, *evidence)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["pass"] and doc["oracle"]["effective_sample_size"] == pytest.approx(2000.0, rel=1e-12)

    def test_underflowing_oracle_second_moment_exits_6(self, capsys, tmp_path):
        # The enumeration's (sum w z)^2 underflows at P(e) = 6e-163, so its
        # second moments would be NaN; the oracle raises before anything is
        # written.  The engine's own D^2 underflows too (a RuntimeWarning,
        # ignored here): the oracle's message shows which one stopped it.
        path = tmp_path / "star60.json"
        save_network(underflow_star_spec(60), str(path))
        evidence = [arg for i in range(60) for arg in ("--evidence", f"c{i}=a")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "compare", str(path), "--mode", "enum",
                "--oracle-mode", "approx-posterior", *evidence,
            )
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("NonFiniteResult")
        assert "moments are not finite at evidence probability" in err

    def test_samples_above_ceiling_exit_5(self, capsys, two_node_file):
        assert MAX_SAMPLES + 1 == 1_000_000_001
        code, out, err = run_cli(
            capsys, "compare", two_node_file, "--mode", "mc", "--oracle-mode", "prior",
            "--samples", "1000000001",
        )
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("PreconditionViolated")

    def test_enum_rejects_dirichlet(self, capsys, uniform_file):
        code, _, err = run_cli(capsys, "compare", uniform_file, "--mode", "enum")
        assert code == 5
        assert "PreconditionViolated" in err

    def test_cap_exceeded(self, capsys, two_node_file):
        code, _, err = run_cli(
            capsys, "compare", two_node_file, "--mode", "enum", "--cap", "1",
            "--oracle-mode", "prior",
        )
        assert code == 5
        assert "CapExceeded" in err

    def test_cap_bounds_the_sum_over_islands(self, capsys, tmp_path):
        # three islands of 8 combinations each pass a cap of 8 together
        path = str(tmp_path / "islands.json")
        save_network(three_island_spec(), path)
        code, out, err = run_cli(
            capsys, "compare", path, "--evidence", "r=a", "--mode", "enum", "--cap", "8",
            "--oracle-mode", "exact-posterior",
        )
        assert code == 5 and out == ""
        assert err == "CapExceeded: 16 uncertainty combinations exceed the cap 8\n"

    def test_cap_below_one_exit_5(self, capsys, two_node_file):
        code, out, err = run_cli(
            capsys, "compare", two_node_file, "--mode", "enum", "--cap", "0",
            "--oracle-mode", "prior",
        )
        assert code == 5 and out == ""
        assert err == "PreconditionViolated: cap must be at least 1, got 0\n"

    def test_tolerance_exceeded_exit_code(self, capsys, two_node_file):
        # comparing against the wrong oracle mode must trip the gate
        code, out, _ = run_cli(
            capsys, "compare", two_node_file, "--evidence", "B=b1",
            "--mode", "enum", "--oracle-mode", "exact-posterior", "--tol", "1e-8",
        )
        assert code == 4
        assert not json.loads(out)["pass"]


class TestOddNodeIds:
    """Ids holding ``,`` or ``=``, or starting with a space, can be named on the command line."""

    @pytest.fixture
    def odd_file(self, tmp_path):
        two = DiscreteSupport(np.array([[0.2, 0.8], [0.7, 0.3]]), np.array([0.4, 0.6]))
        spec = NetworkSpec((
            NodeSpec("a,b", ("u", "v"), None, (two,)),
            NodeSpec("c=d", ("u", "v"), "a,b", (PointMass([0.9, 0.1]), two)),
            NodeSpec(" x", ("u", "v"), "a,b", (two, PointMass([0.3, 0.7]))),
        ))
        path = tmp_path / "odd.json"
        save_network(spec, str(path))
        return str(path)

    @pytest.mark.parametrize("node", ["a,b", "c=d", " x"])
    def test_nodes_names_one_odd_id(self, capsys, odd_file, node):
        code, out, _ = run_cli(capsys, "query", odd_file, "--nodes", node)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["nodes"]) == [node] and doc["meta"]["nodes"] == [node]

    def test_nodes_list_and_all_keep_their_meaning(self, capsys, odd_file):
        code, out, _ = run_cli(capsys, "query", odd_file, "--nodes", "c=d, all")
        assert code == 2 and out == ""
        code, out, _ = run_cli(capsys, "query", odd_file, "--nodes", "all")
        assert code == 0 and list(json.loads(out)["nodes"]) == ["a,b", "c=d", " x"]

    def test_evidence_on_odd_ids(self, capsys, odd_file):
        argv = ["--evidence", "c=d=u", "--evidence", " x=v"]
        code, out, _ = run_cli(capsys, "query", odd_file, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["evidence"] == {"c=d": "u", " x": "v"}
        assert doc["nodes"]["c=d"]["mean"] == [1.0, 0.0]
        assert doc["nodes"][" x"]["mean"] == [0.0, 1.0]
        code, out, _ = run_cli(capsys, "compare", odd_file, "--mode", "enum", *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] and doc["meta"]["evidence"] == {"c=d": "u", " x": "v"}

    def test_evidence_errors_on_odd_ids(self, capsys, odd_file):
        code, out, err = run_cli(capsys, "query", odd_file, "--evidence", "c=u")
        assert code == 2 and out == "" and err.startswith("UnknownNode: node 'c'")
        code, out, err = run_cli(capsys, "compare", odd_file, "--evidence", "a,b")
        assert code == 2 and out == "" and err.startswith("ParseError")
        code, out, err = run_cli(capsys, "query", odd_file, "--evidence", "c=d=w")
        assert code == 2 and out == "" and err.startswith("UnknownAlternative")


class TestBoundcheckCommand:
    def test_uniform_chain(self, capsys, uniform_file):
        code, out, _ = run_cli(capsys, "boundcheck", uniform_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"]
        assert doc["nodes"]["B"]["slack"] == pytest.approx(1 / 36)

    def test_generated_tree(self, capsys):
        code, out, _ = run_cli(capsys, "boundcheck", "--gen", "12", "--depth", "3")
        doc = json.loads(out)
        # report and exit code agree; every entry internally consistent
        assert (code == 0) == doc["pass"]
        for entry in doc["nodes"].values():
            assert entry["pass"] == (entry["slack"] >= -1e-12)
            assert entry["slack"] == pytest.approx(entry["bound"] - entry["variance"])

    def test_three_alternatives_rejected(self, capsys, tmp_path):
        spec = NetworkSpec(
            (NodeSpec("A", ("x", "y", "z"), None, (Dirichlet(np.ones(3)),)),)
        )
        path = tmp_path / "three.json"
        save_network(spec, str(path))
        code, _, err = run_cli(capsys, "boundcheck", str(path))
        assert code == 5
        assert "PreconditionViolated" in err

    def test_needs_input(self, capsys):
        code, _, err = run_cli(capsys, "boundcheck")
        assert code == 2

    def test_file_and_gen_together_exit_2(self, capsys, uniform_file):
        code, out, err = run_cli(capsys, "boundcheck", uniform_file, "--gen", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("ParseError: ")


class TestArgumentRanges:
    """Arguments that argparse's ``type=float``/``int`` accepts but the
    commands cannot use exit 2 with empty stdout and one stderr line, as a
    malformed ``--evidence`` does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "{net}", "--tol", "nan"],
            ["compare", "{net}", "--tol", "inf"],
            ["compare", "{net}", "--tol", "-1"],
            ["compare", "{net}", "--mode", "mc", "--samples", "50", "--sigmas", "nan"],
            ["compare", "{net}", "--mode", "mc", "--samples", "50", "--sigmas", "inf"],
            ["compare", "{net}", "--mode", "mc", "--samples", "50", "--sigmas", "-1"],
            ["boundcheck", "--gen", "-1"],
            ["boundcheck", "--gen", "1", "--depth", "-3"],
            ["boundcheck", "--gen", "1", "--depth", "0"],
        ],
    )
    def test_out_of_range_arguments_exit_2(self, capsys, two_node_file, argv):
        code, out, err = run_cli(capsys, *(a.format(net=two_node_file) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("ParseError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--tol", "0"], ["--mode", "mc", "--sigmas", "0"]])
    def test_zero_is_in_range(self, capsys, two_node_file, argv):
        code, out, _ = run_cli(capsys, "compare", two_node_file, "--samples", "50", *argv)
        assert code in (0, 4) and json.loads(out)["nodes"]
