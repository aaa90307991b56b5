"""Exception types shared across the package."""


class BeliefNetworkError(Exception):
    """Base class for every error raised by this package."""


class NetworkValidationError(BeliefNetworkError):
    """A network definition violates a structural invariant."""


class CycleDetected(NetworkValidationError):
    pass


class MultipleRoots(NetworkValidationError):
    pass


class DimensionMismatch(NetworkValidationError):
    pass


class BadDistribution(NetworkValidationError):
    pass


class InvalidNetwork(NetworkValidationError):
    """Structural problems not covered by the more specific classes."""


class UnknownNode(BeliefNetworkError):
    pass


class UnknownAlternative(BeliefNetworkError):
    pass


class InconsistentEvidence(BeliefNetworkError):
    """The evidence has probability zero under the mean conditional tables."""


class NonFiniteResult(BeliefNetworkError):
    """A report holds a NaN or an infinity, which strict JSON cannot carry."""


class NegativeVariance(BeliefNetworkError):
    """A reported variance fell below the hard numerical floor."""


class CapExceeded(BeliefNetworkError):
    """An exhaustive computation would exceed its configured size cap."""


class PreconditionViolated(BeliefNetworkError):
    pass


class ParseError(BeliefNetworkError):
    pass
