import treebelief

PUBLIC = {
    "__version__",
    "errors",
    "BetaParams",
    "BoundEntry",
    "BoundReport",
    "beta_mean_upper_bound",
    "beta_moments",
    "chain_child_variance",
    "check_moment_condition",
    "check_variance_bound",
    "Dirichlet",
    "DiscreteSupport",
    "MomentSet",
    "NetworkSpec",
    "NodeSpec",
    "PointMass",
    "ValidatedNetwork",
    "check_evidence",
    "moments_of",
    "validate_network",
    "load_network",
    "network_to_json",
    "parse_network",
    "save_network",
    "MODES",
    "OracleEntry",
    "OracleReport",
    "enumerate_uncertainty",
    "exact_inference",
    "mc_uncertainty",
    "point_tables",
    "MessageState",
    "NodeReport",
    "posterior_report",
    "propagate",
    "query_node",
}


def test_public_names_are_pinned_and_resolve():
    assert len(treebelief.__all__) == len(set(treebelief.__all__))
    assert set(treebelief.__all__) == PUBLIC
    for name in treebelief.__all__:
        assert getattr(treebelief, name) is not None
