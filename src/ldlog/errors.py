"""Shared error hierarchy for the engine."""


class LdlogError(Exception):
    """Base class for every error raised by this package."""


class SourceError(LdlogError):
    """An error at a known line/column position in source text."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class BuiltinNotUnifiable(LdlogError):
    """Comparison atoms are evaluated, never unified."""
