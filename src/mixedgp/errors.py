"""Exception types shared across the package."""


class MixedGpError(Exception):
    """Base class for all package errors."""


class OutOfBounds(MixedGpError):
    """A continuous or integer coordinate violates its variable bounds."""

    message = "coordinate {index} = {value!r} outside [{lower}, {upper}]"

    def __init__(self, index, value, lower, upper):
        self.index = index
        self.value = value
        self.lower = lower
        self.upper = upper
        super().__init__(self.message.format(index=index, value=value, lower=lower, upper=upper))


class NotIntegral(OutOfBounds):
    """An integer coordinate is not a whole number."""

    message = "integer coordinate {index} = {value!r} is not a whole number"


class LevelOutOfRange(MixedGpError):
    """A categorical coordinate is not a valid 1-based level index."""

    def __init__(self, index, level, n_levels):
        self.index = index
        self.level = level
        self.n_levels = n_levels
        super().__init__(
            f"categorical coordinate {index}: level {level!r} not in 1..{n_levels}"
        )


class DimensionMismatch(MixedGpError):
    """Vectors or matrices do not have compatible shapes."""


class ShapeMismatch(MixedGpError):
    """Hyperparameter container does not match the requested kernel kind."""


class NotRepresentable(MixedGpError):
    """A correlation matrix lies outside the invertible range of the kernel map."""


class NumericalFailure(MixedGpError):
    """Linear algebra failed even after jitter escalation."""


class ObjectiveFailure(MixedGpError):
    """The objective raised during a derivative-free search.

    The offending input is attached as ``point``.
    """

    def __init__(self, point, message="objective evaluation failed"):
        self.point = point
        super().__init__(f"{message} at {point!r}")


class SizeOverflow(MixedGpError):
    """A requested full-factorial grid exceeds the configured size cap."""


class ParseError(MixedGpError):
    """A space, dataset or model file could not be parsed."""
