"""Exception types raised by the library."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input file content. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NodeRangeError(ParseError):
    """A node or label id has more than 18 digits, or falls outside the
    range the labels file, or the label names file, defines."""


class InsufficientPopulationError(ValueError):
    """A baseline was asked for a size that no hyperedge has, so its null
    has no nodes to draw a group from."""


class EmptyAnalysisError(ValueError):
    """No hyperedges eligible for scoring."""


class DegenerateMixingError(ValueError):
    """Pairwise mixing matrix has no off-diagonal contrast (denominator zero)."""
