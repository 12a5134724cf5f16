"""Certifying rule engine: depth-bounded backward chaining over a Datalog
dialect, emitting proof certificates an independent checker can validate,
with a forward-chaining fixpoint evaluator as a second opinion.

The package exports what a library user needs; every other name is
importable from its own module (ldlog.terms, ldlog.parser, ...). The
check that decides each verdict, the certificate types and the term classes
live in ldlog.kernel, the trusted base, whose imports reach only
ldlog.errors. `check_proof`, which words a failed check, and the render and
JSON output live in ldlog.proof, outside it."""

from .errors import LdlogError, SourceError
from .parser import parse_program
from .elaborator import elaborate, elaborate_library
from .solver import Solution, SolverConfig, solve
from .kernel import CheckError, ProofTree
from .proof import check_proof, render_proof, serialize_proof
from .oracle import oracle_answers, saturate

__version__ = "0.1.0"

__all__ = [
    "LdlogError",
    "SourceError",
    "parse_program",
    "elaborate",
    "elaborate_library",
    "solve",
    "SolverConfig",
    "Solution",
    "check_proof",
    "CheckError",
    "ProofTree",
    "render_proof",
    "serialize_proof",
    "saturate",
    "oracle_answers",
    "__version__",
]
