"""Exception types raised across the package.

Every error message names the offending element (vertex, edge, flag,
size) so failures are actionable without a debugger.
"""


class GraphDivisorsError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateVertexError(GraphDivisorsError):
    pass


class LoopEdgeError(GraphDivisorsError):
    pass


class DuplicateEdgeError(GraphDivisorsError):
    pass


class UnknownEndpointError(GraphDivisorsError):
    pass


class DisconnectedError(GraphDivisorsError):
    pass


class ParameterOutOfRangeError(GraphDivisorsError):
    pass


class UnknownVertexError(GraphDivisorsError):
    pass


class MissingVertexValueError(GraphDivisorsError):
    pass


class GraphMismatchError(GraphDivisorsError):
    pass


class _CapExceededError(GraphDivisorsError):
    """A step would need more than its limit allows; nothing was computed.

    Every refusal reads "<what> needs <required> <unit> (cap <cap>)" and
    keeps `required`, the least size known to be needed, and `cap`.  The
    four parts are its args, so a copy or a pickle rebuilds it.
    """

    def __init__(self, what: str, required: int, unit: str, cap: int):
        super().__init__(what, required, unit, cap)
        self.required = required
        self.cap = cap

    def __str__(self) -> str:
        what, required, unit, cap = self.args
        return f"{what} needs {required} {unit} (cap {cap})"


class EnumerationCapExceededError(_CapExceededError):
    """An enumeration would exceed the configured cap."""


class SizeCapExceededError(_CapExceededError):
    """An input or a group is larger than a module limit."""


class InvalidMorphismError(GraphDivisorsError):
    pass


class RankPreconditionError(GraphDivisorsError):
    """Raised when an operation requires a divisor of rank 2."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class NotTwoEdgeConnectedError(GraphDivisorsError):
    pass
