"""Probability and variance propagation in tree belief networks.

The conditional probabilities stored in a network are treated as uncertain
quantities (Dirichlet, finite-support, or known exactly).  This package
propagates both the probabilities and the variance that the stored
uncertainty induces in every inferred probability, ships brute-force oracles
for validating the engine, and checks the paper's prior-variance upper bound
on binary beta trees.
"""

__version__ = "0.1.0"

from . import errors
from .bounds import (
    BoundEntry,
    BoundReport,
    check_variance_bound,
)
from .model import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    ValidatedNetwork,
    validate_network,
)
from .netfile import load_network, parse_network, save_network
from .oracle import (
    MODES,
    OracleEntry,
    OracleReport,
    enumerate_uncertainty,
    mc_uncertainty,
)
from .propagation import (
    MessageState,
    NodeReport,
    posterior_report,
    propagate,
)

__all__ = [
    "__version__",
    "errors",
    "BoundEntry",
    "BoundReport",
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
]
