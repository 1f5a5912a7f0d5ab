"""A .cat-style model language, compiled into the relational-algebra IR.

The paper's companion artifact ships its models in herd's ``.cat``
format; this package provides the same for the reproduction: a lexer
and parser for a cat dialect, a lowering of parsed models into
:mod:`repro.ir` (:class:`CatModel`, run by the same executor as the
native models), plus the five models of the paper as ``.cat`` files
under ``repro/cat/models/``.

The test suite checks that every bundled ``.cat`` model agrees with its
native-Python twin on every catalog execution and on exhaustively
enumerated executions -- two independent encodings of Figs. 4-9
validating each other.

Dialect deviations from herd (documented design choices):

* Cartesian product is ``cross(S1, S2)`` -- herd overloads ``*``, which
  this dialect reserves for reflexive-transitive closure;
* inverse is ``^-1`` (as in herd); lifting operators ``weaklift`` /
  ``stronglift`` and ``domain`` / ``range`` are builtin functions;
* ``;`` binds tighter than ``&``, which binds tighter than ``\\`` and
  ``|`` (each model file parenthesises where it matters).
"""

from .ast import Check, Expr, Let, Model
from .errors import CatError, CatNameError, CatSyntaxError, CatTypeError
from .eval import CatModel
from .lexer import Token, tokenize
from .loader import available_cat_models, load_cat_file, load_cat_model
from .parser import parse

__all__ = [
    "CatError",
    "CatModel",
    "CatNameError",
    "CatSyntaxError",
    "CatTypeError",
    "Check",
    "Expr",
    "Let",
    "Model",
    "Token",
    "available_cat_models",
    "load_cat_file",
    "load_cat_model",
    "parse",
    "tokenize",
]
