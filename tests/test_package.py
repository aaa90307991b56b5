import json
import re
from pathlib import Path

import treebelief
from treebelief.cli import main

PUBLIC = {
    "__version__",
    "errors",
    "BoundEntry",
    "BoundReport",
    "chain_child_variance",
    "check_variance_bound",
    "Dirichlet",
    "DiscreteSupport",
    "NetworkSpec",
    "NodeSpec",
    "PointMass",
    "ValidatedNetwork",
    "validate_network",
    "load_network",
    "parse_network",
    "save_network",
    "MODES",
    "OracleEntry",
    "OracleReport",
    "enumerate_uncertainty",
    "mc_uncertainty",
    "MessageState",
    "NodeReport",
    "posterior_report",
    "propagate",
}


def test_public_names_are_pinned_and_resolve():
    assert len(treebelief.__all__) == len(set(treebelief.__all__)) == len(PUBLIC) == 25
    assert set(treebelief.__all__) == PUBLIC
    for name in treebelief.__all__:
        assert getattr(treebelief, name) is not None


def _readme_block(heading, language):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    found = re.search(rf"^## {heading}\n\n```{language}\n(.*?)^```$", text, re.M | re.S)
    assert found, f"README has no {language} block under {heading!r}"
    return found.group(1)


def test_readme_examples_run(capsys, tmp_path):
    exec(_readme_block("Library quick start", "python"), {})
    path = tmp_path / "net.json"
    path.write_text(_readme_block("Network files", "json"), encoding="utf-8")
    assert main(["query", str(path)]) == 0
    b = json.loads(capsys.readouterr().out)["nodes"]["B"]
    assert b["alternatives"][0] == "b1"
    for field, stated in (("mean", 0.48), ("second", 0.25), ("variance", 0.0196)):
        assert abs(b[field][0] - stated) < 1e-12
