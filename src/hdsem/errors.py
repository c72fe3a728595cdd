"""Exception hierarchy shared across the package.

Anything raised for bad input data derives from DataError so the CLI can
map it to one exit code; genuine I/O problems stay OSError.
"""


class DataError(Exception):
    """Invalid input data (bad corpus layout, unknown word, empty query, ...)."""


class UnknownWordError(DataError):
    """A token is not present in the vocabulary that was supposed to cover it."""


class EmptyContextError(DataError):
    """A context vector with no accumulated mass was used where a norm is needed."""


class EmptyQueryError(DataError):
    """A query reduced to zero usable tokens."""


class EmptyIndexError(DataError):
    """A sentence index with no sentences was queried."""


class EmptyClassError(DataError):
    """A training split is missing one of the two classes."""


class CorpusFormatError(DataError):
    """A corpus directory or serialized model file does not have the expected shape."""
