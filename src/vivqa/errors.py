"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, data-shaped errors
(DataError, ParseError, FormatError) -> 3, anything else -> 4.
"""


class VivqaError(Exception):
    """Base class for package errors."""


class ShapeError(VivqaError):
    """Tensor shapes incompatible with the requested operation."""


class UsageError(VivqaError):
    """API misuse, e.g. backward called twice on the same graph."""


class ConfigError(VivqaError):
    """Inconsistent or invalid run configuration."""


class DataError(VivqaError):
    """Corpus-level problem: duplicate ids, empty ground truth, OOV train answer."""


class ParseError(DataError):
    """Malformed input file; carries a line number when known."""


class FormatError(VivqaError):
    """Binary container violation: a VVQF file with bad magic, version,
    checksum or truncation, or a checkpoint that is not a readable npz, has
    no meta entry, has a layout other than the model's, or whose `params` is
    not that layout's float64 arena, holds a non-finite value or fails its CRC."""


class NumericalError(VivqaError):
    """Non-finite value where a run needs a finite one: the loss, or logits."""


class StatisticsError(VivqaError):
    """Degenerate statistical input, e.g. zero-variance t-test samples."""
