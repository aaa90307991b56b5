import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import impossible_evidence_spec, mixed_trees, two_node_mixed_spec, uniform_chain_spec
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    load_network,
    network_to_json,
    parse_network,
    save_network,
    validate_network,
)
from treebelief import cli
from treebelief.cli import main
from treebelief.errors import ParseError


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
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(_BAD_NUMBERS))
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

    def test_overflowing_alpha(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        doc = network_to_json(uniform_chain_spec())
        doc["nodes"][1]["cpt"][0]["dist"]["alpha"] = [1e200, 1e200]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "query", str(path))
        assert code == 2
        assert out == ""
        assert "BadDistribution" in err and "finite" in err
        assert "Traceback" not in err

    def test_inconsistent_evidence_exit_code(self, capsys, tmp_path):
        path = tmp_path / "impossible.json"
        save_network(impossible_evidence_spec(), str(path))
        code, _, err = run_cli(capsys, "query", str(path), "--evidence", "B=b2")
        assert code == 3
        assert "InconsistentEvidence" in err

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

    def test_tolerance_exceeded_exit_code(self, capsys, two_node_file):
        # comparing against the wrong oracle mode must trip the gate
        code, out, _ = run_cli(
            capsys, "compare", two_node_file, "--evidence", "B=b1",
            "--mode", "enum", "--oracle-mode", "exact-posterior", "--tol", "1e-8",
        )
        assert code == 4
        assert not json.loads(out)["pass"]


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
