"""Exception types shared across the package, and the one check of each kind of argument
(type, integer, real, seed, list, matrix, row selection), which raises ``InvalidInput``
naming it."""

import copyreg
import math
import numbers

import numpy as np


class MvmlError(Exception):
    """Base class for every error raised by this package.

    It pickles as its ``args`` and attributes and unpickles without calling
    ``__init__``, so a subclass whose ``__init__`` builds the message from other
    arguments, and a message rewritten in ``args`` (``repeat r: ...``), survive
    the trip to another process.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidInput(MvmlError, ValueError):
    """An argument violates a documented precondition."""


class SingularSystem(MvmlError):
    """A symmetric positive-definite factorization failed even after ridging."""


class GenerationFailure(MvmlError):
    """Synthetic data generation could not meet its post-conditions."""


class NonFiniteObjective(MvmlError):
    """The solver objective became NaN or infinite.

    ``trace``, when given, is the fit's ``SolverTrace`` up to and including
    the failing sweep, so a diverging fit can be inspected.
    """

    def __init__(self, iteration, value, trace=None):
        super().__init__(f"objective became non-finite ({value!r}) at iteration {iteration}")
        self.iteration = iteration
        self.value = value
        self.trace = trace


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
    """A matrix, such as a view's features, holds a NaN or infinite entry."""


class LabelDomainViolation(DatasetFormatError, InvalidInput):
    """A view's labels contain a value outside {-1, 0, +1}."""


class IoError(MvmlError):
    """Writing a report or output file failed."""


# The conditions ``_check_real`` can state besides being finite.
_REAL_BOUNDS = {
    "nonnegative": lambda x: x >= 0,
    "positive": lambda x: x > 0,
    "in [0, 1)": lambda x: 0 <= x < 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
}


def _check_type(value, name, kind):
    """``value``, which must be an instance of the class ``kind``."""
    if not isinstance(value, kind):
        raise InvalidInput(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _check_int(value, name, low=None):
    """``value`` as an int of at least ``low``; ``range`` would fail on floats or take bools."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidInput(f"{name} must be at least {low}, got {value!r}")
    return int(value)


def _check_real(value, name, bound=None):
    """``value`` as a finite float meeting ``bound``, a key of ``_REAL_BOUNDS``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise InvalidInput(f"{name} is too large for a float") from None
    if not math.isfinite(x) or (bound is not None and not _REAL_BOUNDS[bound](x)):
        condition = "finite" if bound is None else f"finite and {bound}"
        raise InvalidInput(f"{name} must be {condition}, got {value!r}")
    return x


def _check_seed(seed, name="seed"):
    if not 0 <= _check_int(seed, name) < 2**64:
        raise InvalidInput(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _set_checked(spec, check, *names, **bounds):
    """Store each named field of a frozen dataclass as ``check`` returns it."""
    for name in names:
        object.__setattr__(spec, name, check(getattr(spec, name), name, **bounds))


def _check_list(value, name):
    """``value`` as a list; a string, a scalar or a mapping is rejected, not iterated."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"{name} must be a list, got {type(value).__name__}")
    return list(value)


def _check_matrix(a, name, ndims=(2,)):
    """``a`` as a float array of ``ndims`` dimensions with finite entries.

    Complex and text input is rejected, not cast: no imaginary part is dropped.
    A NaN or infinity raises ``NonFiniteEntry`` naming its row (and column).
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged nested list
        raise InvalidInput(f"{name} must be a real matrix: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise InvalidInput(f"{name} must hold real numbers, got dtype {a.dtype}")
    if a.ndim not in ndims:
        shapes = " or ".join(f"{k}-D" for k in ndims)
        raise InvalidInput(f"{name} must be {shapes}, got shape {a.shape}")
    a = a.astype(float, copy=False)
    finite = np.isfinite(a)
    if not finite.all():
        first = np.argwhere(~finite)[0]
        where = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), first))
        raise NonFiniteEntry(f"{name} {where} is not finite")
    return a


def _check_rows(rows, n, name):
    """``rows`` as a 1-D array of integer indices in ``[0, n)``; an empty one may have any dtype.
    Floats and boolean masks are rejected, not truncated or read as indices."""
    try:
        rows = np.asarray(rows)
    except ValueError:  # a ragged nested list
        raise InvalidInput(f"{name} must be 1-D integer row indices, got a ragged list") from None
    if rows.size == 0:
        return np.zeros(0, dtype=int)
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
        raise InvalidInput(f"{name} must be 1-D integer row indices in [0, {n}), got {rows!r}")
    return rows
