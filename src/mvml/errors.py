"""Exception types shared across the package."""


class MvmlError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(MvmlError, ValueError):
    """An argument violates a documented precondition."""


class SingularSystem(MvmlError):
    """A symmetric positive-definite factorization failed even after ridging."""


class GenerationFailure(MvmlError):
    """Synthetic data generation could not meet its post-conditions."""


class NonFiniteObjective(MvmlError):
    """The solver objective became NaN or infinite."""

    def __init__(self, iteration, value):
        super().__init__(f"objective became non-finite ({value!r}) at iteration {iteration}")
        self.iteration = iteration
        self.value = value


class AllViewsMissing(MvmlError):
    """A sample is absent from every view, so no prediction exists for it."""

    def __init__(self, sample):
        super().__init__(f"sample {sample} is missing in every view")
        self.sample = sample


class UndefinedMetric(MvmlError):
    """A metric has no qualifying samples or labels to average over."""


class DatasetFormatError(MvmlError):
    """Base class for violations of the on-disk dataset format."""


class MissingFile(DatasetFormatError, FileNotFoundError):
    """A file referenced by the dataset manifest does not exist."""


class SchemaViolation(DatasetFormatError):
    """The manifest or a data file does not match the documented schema."""


class NonFiniteEntry(DatasetFormatError, InvalidInput):
    """A view's features contain a NaN or infinite entry."""


class LabelDomainViolation(DatasetFormatError, InvalidInput):
    """A view's labels contain a value outside {-1, 0, +1}."""


class IoError(MvmlError):
    """Writing a report or output file failed."""
