"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, and training divergence exits 4.
"""


class LatentRecError(Exception):
    """Base class for all package errors."""


class ShapeError(LatentRecError, ValueError):
    """Operands have incompatible dimensions."""


class IndexRangeError(LatentRecError, IndexError, ValueError):
    """A user or item index lies outside a model's tables."""


class ZeroNormError(LatentRecError, ValueError):
    """Cosine similarity requested for a zero-norm vector."""


class DegenerateSpectrumError(LatentRecError, ValueError):
    """Rank selection on an all-zero singular spectrum."""


class ConvergenceError(LatentRecError, RuntimeError):
    """Iterative decomposition failed to converge.

    Attributes:
        off_diagonal: largest relative off-diagonal Gram entry remaining.
    """

    def __init__(self, message, off_diagonal=None):
        super().__init__(message)
        self.off_diagonal = off_diagonal


class DataError(LatentRecError, ValueError):
    """Base class for dataset construction and validation problems."""


class ParseError(DataError):
    """Malformed input line.

    Attributes:
        line_number: 1-based number of the offending line, when known.
    """

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ValidationError(DataError):
    """A record violates a declared constraint (scale, duplicates, kind)."""


class NoDataError(DataError):
    """An operation that needs at least one record received none."""


class CapacityError(DataError):
    """A dense matrix or factor table would exceed the configured cell cap."""


class MagnitudeError(DataError):
    """Values whose singular values or reconstruction overflow float64."""


class DivergenceError(LatentRecError, RuntimeError):
    """Training loss became non-finite.

    Attributes:
        epoch: 0-based index of the epoch in which divergence was
            detected; sequential funk counts epochs across features, so
            feature k's first epoch is k * epochs.
    """

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class GradientError(LatentRecError, ValueError):
    """A gradient passed to optim.step, or a training prediction, is non-finite."""


class EncodingError(LatentRecError, ValueError):
    """A feature vector is unusable (missing field ids, bad indices)."""


class ConditioningError(LatentRecError, ValueError):
    """A least-squares system stayed unsolvable even after ridge damping."""


class PersistenceError(LatentRecError, ValueError):
    """A model file is unreadable or has an unsupported format version."""


class ConfigError(LatentRecError, ValueError):
    """A config file contains an unknown or malformed key."""
