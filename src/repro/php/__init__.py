"""PHP language substrate: lexer, parser, AST and printer.

This package is the reproduction's stand-in for the PHP interpreter
services phpSAFE relies on (``token_get_all`` / ``token_name``) plus the
AST layer the paper's model-construction stage builds on top of them.
"""

from .errors import (
    AnalysisBudgetExceeded,
    PhpLexError,
    PhpParseError,
    PhpSyntaxError,
)
from .cfg import ControlFlowGraph, build_cfg, build_file_cfgs
from .interp import Interpreter, PhpArray, PhpObject, PhpRuntimeError
from .lexer import count_loc, tokenize, tokenize_significant
from .parser import parse_source
from .printer import print_expr, print_file
from .tokens import Token, TokenType

__all__ = [
    "AnalysisBudgetExceeded",
    "PhpLexError",
    "PhpParseError",
    "PhpSyntaxError",
    "ControlFlowGraph",
    "Interpreter",
    "PhpArray",
    "PhpObject",
    "PhpRuntimeError",
    "Token",
    "TokenType",
    "build_cfg",
    "build_file_cfgs",
    "count_loc",
    "parse_source",
    "print_expr",
    "print_file",
    "tokenize",
    "tokenize_significant",
]
