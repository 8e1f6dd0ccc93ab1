"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""


class VibdictError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VibdictError):
    """Invalid or inconsistent configuration (bad key, bad value, bad flag)."""


class DataError(VibdictError):
    """Unreadable, malformed, or semantically unusable input data."""


class AtomFitError(DataError, ValueError):
    """An atom is longer than the segment it should code.

    The segment, not the configuration, is too short, so the CLI reports
    it as a data error; it stays a ValueError for library callers.
    """


class ContentError(DataError, ValueError):
    """A file's rows parse but break an invariant, such as overlapping windows.

    The CLI reports it as a data error naming the file; it stays the
    ValueError that the same check raises on in-memory data.
    """


class NumericError(VibdictError):
    """A computation could not produce a meaningful numeric result."""
