"""Exception hierarchy.

Everything raised deliberately by this package derives from MofnError, so
callers can catch one type at the boundary.  The subclasses map onto the
stages of the pipeline: loading data, fitting encoders, growing the
network, reading or writing model files, evaluating rules, and building
diagnostic tables.
"""


class MofnError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(MofnError, LookupError):
    """A logic function id is not present in the active catalog."""


class DataError(MofnError):
    """A dataset is malformed: bad labels, ragged rows, missing values."""


class ColumnChoiceError(DataError):
    """The caller's choice of columns does not fit the data: the label
    column or a kind override names no column, or an override no kind."""


class EncodingError(MofnError):
    """An encoder cannot be fitted or applied to a value.  When typing
    columns refuses some, `features` names each refused one."""

    features: tuple[str, ...] = ()


class TrainingError(MofnError):
    """Network construction failed, e.g. no unit survives selection."""


class ModelFormatError(MofnError):
    """A formula table cannot be parsed or refers to undefined units."""


class EvaluationError(MofnError):
    """A rule cannot be evaluated, e.g. a feature bit is missing."""


class TableError(MofnError):
    """A diagnostic table request is inconsistent with the rule set."""


class ValidationError(MofnError):
    """A reference file of `mofn validate` cannot be read or parsed."""
