"""Errors raised by the PHP substrate.

Both the lexer and the parser raise structured errors carrying the file
name and line number.  The analyzers catch :class:`PhpSyntaxError` (the
common base) to implement the *robustness* behaviour studied in
Section V.E of the paper: a tool that cannot process a file records a
per-file failure instead of aborting the whole run.
"""

from __future__ import annotations


class PhpSyntaxError(Exception):
    """Base class for lexing/parsing failures in PHP source."""

    #: pipeline stage for the incident taxonomy ("lex" or "parse");
    #: lets the model builder classify failures without isinstance
    #: ladders when mapping them to :class:`repro.incidents.Incident`.
    stage = "parse"

    def __init__(self, message: str, filename: str = "<string>", line: int = 0) -> None:
        super().__init__(f"{filename}:{line}: {message}")
        self.message = message
        self.filename = filename
        self.line = line

    def __reduce__(self):
        # default Exception pickling would re-call __init__ with the
        # pre-formatted args, losing filename/line; rebuild from the
        # structured fields so cached failures round-trip through disk
        return (self.__class__, (self.message, self.filename, self.line))


class PhpLexError(PhpSyntaxError):
    """The scanner could not tokenize the source."""

    stage = "lex"


class PhpParseError(PhpSyntaxError):
    """The parser could not build an AST from the token stream."""


class AnalysisBudgetExceeded(Exception):
    """Analysis of a file exceeded its resource budget.

    Reproduces the paper's observation that phpSAFE "was unable to analyze
    one file in the 2012 version and three files in the 2014 version"
    because those files "had many includes and required a lot of memory".
    """

    def __init__(self, filename: str, budget: int, used: int) -> None:
        super().__init__(
            f"analysis budget exceeded for {filename}: used {used} units of {budget}"
        )
        self.filename = filename
        self.budget = budget
        self.used = used

    def __reduce__(self):
        return (self.__class__, (self.filename, self.budget, self.used))
