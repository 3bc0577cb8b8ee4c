"""Exception types raised by the critex pipeline.

Every data-level failure derives from :class:`CritexError` so callers (and
the CLI, which maps them to exit code 2) can catch one base class.
"""

from __future__ import annotations


class CritexError(Exception):
    """Base class for all critex data errors."""


class MalformedKb(CritexError):
    """A knowledge-base file violates the expected schema."""


class DuplicateConceptId(MalformedKb):
    """Two knowledge-base entries share a concept id; ``first`` and
    ``second`` are their indexes in the entries."""

    def __init__(self, first: int, second: int, message: str):
        super().__init__(message)
        self.first, self.second = first, second


class ParseMismatch(CritexError):
    """An external dependency parse does not align with the tokenized sentence."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class CycleDetected(CritexError):
    """A dependency head graph is not a tree."""


class SpanMismatch(CritexError):
    """A standoff span's surface text disagrees with its offsets."""

    def __init__(self, ref: str, message: str):
        super().__init__(message)
        self.ref = ref


class DanglingRef(CritexError):
    """A standoff relation references an undeclared span."""

    def __init__(self, ref: str, message: str):
        super().__init__(message)
        self.ref = ref


class MalformedAnn(CritexError):
    """A standoff annotation line cannot be parsed."""


class MalformedText(CritexError):
    """An input file is not valid UTF-8 text."""


class MalformedJsonl(CritexError):
    """A JSON-lines corpus record cannot be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


class RecordMismatch(CritexError):
    """Prediction and gold record ids cannot be aligned."""


class MalformedPrediction(CritexError):
    """A prediction record's extended payload cannot be evaluated."""
