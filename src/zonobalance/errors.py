"""Exception hierarchy shared by all zonobalance modules."""


class ZonobalanceError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ZonobalanceError):
    """Invalid or rejected input: bad files, contract violations, bad flags.

    CLI maps this to exit code 1.
    """


class ParseError(InputError):
    """Malformed instance file; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SpanError(InputError):
    """A vector lies outside the linear span of the generators."""


class MembershipError(InputError):
    """A vector lies outside the zonotope; carries the offending index."""

    def __init__(self, index: int, norm_value: float):
        super().__init__(
            f"vector {index} lies outside the zonotope "
            f"(norm {norm_value:.6g} > 1); rescale or fix the instance"
        )
        self.index = index
        self.norm_value = norm_value


class NumericalError(ZonobalanceError):
    """A solver failed to converge or hit a numerically singular state.

    CLI maps this to exit code 2.
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual
