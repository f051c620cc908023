"""Exception types shared across the toolkit."""


class SvBackendError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SvBackendError):
    """A text file does not conform to its documented format."""


class DuplicateIdError(SvBackendError):
    """An utterance id occurs more than once in one embedding set."""


class InvalidIdError(SvBackendError):
    """An utterance or speaker id is not one whitespace-free token."""


class MissingReferenceError(SvBackendError):
    """A trial or score refers to an utterance id that does not exist."""


class ShapeError(SvBackendError):
    """Array dimensions are inconsistent with the operation."""


class InsufficientClassesError(SvBackendError):
    """Fewer than two speakers where a between-class statistic is needed."""


class DegenerateScatterError(SvBackendError):
    """Scatter matrices carry no usable signal (e.g. identical vectors)."""


class ZeroVectorError(SvBackendError):
    """A vector with (near-)zero norm cannot be length normalized."""


class UnidentifiableModelError(SvBackendError):
    """The data cannot separate speaker and noise covariances."""


class IllConditionedError(SvBackendError):
    """A matrix that must be positive definite is not, even after jitter."""


class NotNegativeSemidefiniteError(SvBackendError):
    """A matrix handed to the NSD factorizer has a positive eigenvalue."""


class DegenerateBatchError(SvBackendError):
    """A training batch is missing a label class the objective needs."""


class DegenerateCorpusError(SvBackendError):
    """The corpus cannot supply the requested pair composition."""


class DegenerateLabelsError(SvBackendError):
    """A score set lacks labels, or all labels are one class."""


class InvalidCostError(SvBackendError):
    """Detection costs are invalid (e.g. both costs zero)."""


class ConfigError(SvBackendError):
    """A configuration value is out of its documented range."""


class NumericError(SvBackendError):
    """A numeric value is non-finite or violates a numeric contract."""
