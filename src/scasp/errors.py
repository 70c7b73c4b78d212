"""Exceptions shared across the package.

The text of each is the whole message the CLI prints for it.
"""

__all__ = ["ScaspError", "ParseError", "CompileError", "SolverError"]


class ScaspError(Exception):
    """Base class for errors raised while processing a program."""


class _SourceError(ScaspError):
    """An error at a source position: file:line:col: message.  args keeps
    the constructor's own order, so a copy (pickle) rebuilds the same error."""

    def __str__(self):
        return f"{self.filename}:{self.line}:{self.col}: {self.message}"


class ParseError(_SourceError):
    """A program or query text is not well formed."""

    def __init__(self, message, filename="<program>", line=0, col=0):
        self.message, self.filename, self.line, self.col = message, filename, line, col
        super().__init__(message, filename, line, col)


class CompileError(_SourceError):
    """A program cannot be compiled (e.g. it uses a reserved name)."""

    def __init__(self, message, line=0, col=0, filename="<program>"):
        self.message, self.filename, self.line, self.col = message, filename, line, col
        super().__init__(message, line, col, filename)


class SolverError(ScaspError):
    """The evaluation hit a documented solver restriction.

    code is a stable identifier such as 'nonground_disequality' or
    'nonlinear_constraint'; the message carries the offending terms.
    """

    def __init__(self, code, message):
        self.code = code
        super().__init__(f"{code}: {message}")
