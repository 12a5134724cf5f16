"""What the evaluators, the elaborator and the printers need around the terms.

The term and atom classes, the ground tests and the truth of a comparison
live in `ldlog.kernel`, the trusted base; nothing here is trusted. This
module holds clauses, queries, declarations and the knowledge base,
substitution, variable sets, the worded errors of a comparison, and the
concrete syntax of terms and atoms. Substitutions are plain dicts from
Var/Meta keys to terms and are kept idempotent by the operations that build
them. The variable sets (`free_vars` to `loose_vars`) read terms with the
kernel's `scan`, on a stack, and refuse malformed terms as it does.

A literal keeps its text once `term_text` has made it, so a literal the lexer
shares is quoted once; a term built by hand prints like its shared twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set

from .errors import LdlogError
from .kernel import App, Atom, Builtin, IntLit, Key, Meta, Pred, StrLit, Substitution, Term, Var
from .kernel import atom_is_ground, holds, is_ground, scan

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

OP_TEXT = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=", "ne": "!="}
TEXT_OP = {text: op for op, text in OP_TEXT.items()}


@dataclass(frozen=True)
class Clause:
    """Named Horn clause: head holds if every body atom holds."""

    name: str
    head: Pred
    body: tuple = ()


@dataclass
class Query:
    """Named goal whose placeholders became Meta variables."""

    name: str
    goal: Atom
    placeholder_map: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Constructor:
    """Declared constructor: arity, plus field names when struct-declared."""

    arity: int
    fields: Optional[tuple] = None


@dataclass(frozen=True)
class KnowledgeBase:
    """Clauses keyed by name, in declaration order, plus the declaration environment.

    `clauses` is a read-only copy of the mapping the KB was built from, so
    what an evaluator derives from it never goes stale: `compiled` keeps
    those forms, built on first use (`solve`'s head index, clause
    templates and completed calls' tables under "solver", `saturate`'s
    fixpoint and its fact index under "oracle"). A KB with other clauses
    is a new KB, `dataclasses.replace(kb, clauses=...)`, with an empty
    `compiled`.

    `loose_clause`, derived from `clauses`, is the first clause with a
    variable in no predicate premise (`loose_vars`), or None: `saturate`
    refuses a KB that has one, and `solve` keeps every derivation on it.
    """

    clauses: Mapping[str, Clause] = field(default_factory=dict)
    constructors: Dict[str, Constructor] = field(default_factory=dict)
    defs: Dict[str, Term] = field(default_factory=dict)
    loose_clause: Optional[Clause] = field(default=None, init=False, repr=False, compare=False)
    compiled: Dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        clauses = MappingProxyType(dict(self.clauses))
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "loose_clause", _first_loose(clauses.values()))


def _first_loose(clauses) -> Optional[Clause]:
    """The first of clauses with a variable in no predicate premise, or None."""
    for c in clauses:
        if c.body:
            if loose_vars(c):
                return c
        elif not atom_is_ground(c.head):  # a fact is loose unless ground
            return c
    return None


class NonGroundBuiltin(LdlogError):
    """Raised by eval_builtin when an operand still has variables."""


class TypeMismatch(LdlogError):
    """Raised by eval_builtin on operands the comparison does not cover."""


def eval_builtin(a: Builtin) -> bool:
    """Decide a comparison atom once its operands are ground, as the kernel does (`holds`).

    Integers support all six operators; strings only equality and
    inequality. Anything else is a TypeMismatch.
    """
    truth = holds(a)
    if truth is not None:
        return truth
    if isinstance(a.lhs, StrLit) and isinstance(a.rhs, StrLit):
        raise TypeMismatch(f"ordered comparison on strings: {atom_text(a)}")
    if not (is_ground(a.lhs) and is_ground(a.rhs)):
        raise NonGroundBuiltin(f"comparison on non-ground operands: {atom_text(a)}")
    raise TypeMismatch(f"comparison on mixed or structured operands: {atom_text(a)}")


def apply_subst(t: Term, s: Substitution) -> Term:
    """Replace every bound Var/Meta leaf in t by its binding.

    A stack holds each open constructor with its argument iterator and the
    arguments rebuilt so far, so Python's recursion limit does not bound the
    term's depth."""
    kind = type(t)
    if kind is Var or kind is Meta:
        return s.get(t, t)
    if kind is not App or not t.args:
        return t
    stack = [(t.constructor, iter(t.args), [])]
    while True:
        constructor, args, done = stack[-1]
        for a in args:
            kind = type(a)
            if kind is App and a.args:
                stack.append((a.constructor, iter(a.args), []))
                break
            done.append(s.get(a, a) if kind is Var or kind is Meta else a)
        else:
            stack.pop()
            t = App(constructor, tuple(done))
            if not stack:
                return t
            stack[-1][2].append(t)


def apply_subst_atom(a: Atom, s: Substitution) -> Atom:
    """Apply a substitution to every argument of an atom."""
    if isinstance(a, Pred):
        return Pred(a.symbol, tuple(apply_subst(t, s) for t in a.args))
    return Builtin(a.op, apply_subst(a.lhs, s), apply_subst(a.rhs, s))


def free_vars(t: Term) -> Set[Key]:
    """Set of Var and Meta leaves occurring in t."""
    out: Set[Key] = set()
    scan((t,), out)
    return out


def atom_free_vars(a: Atom) -> Set[Key]:
    out: Set[Key] = set()
    scan(a.args if isinstance(a, Pred) else (a.lhs, a.rhs), out)
    return out


def clause_vars(c: Clause) -> Set[Key]:
    out = atom_free_vars(c.head)
    for a in c.body:
        out |= atom_free_vars(a)
    return out


def loose_vars(c: Clause) -> Set[Key]:
    """The variables of c that occur in no predicate premise: none if c is range-restricted."""
    positive: Set[Key] = set()
    for a in c.body:
        if isinstance(a, Pred):
            scan(a.args, positive)
    return clause_vars(c) - positive


_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"})


def quote_string(value: str) -> str:
    """Render a string value as a quoted literal."""
    return '"' + value.translate(_ESCAPES) + '"'


def _int_text(value) -> str:
    """The decimal text of an integer payload. No parsed literal leaves int64, but a hand-built one may
    have more digits than `str` converts (`sys.get_int_max_str_digits`): that one prints its size instead."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def _leaf_text(t: Term) -> str:
    """Concrete syntax of a term that is not a constructor application with args."""
    kind = type(t)
    if kind is StrLit or kind is IntLit:
        text = t._text
        if text is None:
            text = quote_string(t.value) if kind is StrLit else _int_text(t.value)
            object.__setattr__(t, "_text", text)
        return text
    if kind is Var:
        return t.name
    if kind is Meta:
        return t.source_name
    return t.constructor


def term_text(t: Term) -> str:
    """Concrete syntax of a term; a literal keeps its text once computed."""
    if type(t) is not App or not t.args:
        return _leaf_text(t)
    # a stack holds, for each open parenthesis, the arguments still to write,
    # so Python's recursion limit does not bound the term's depth
    out, stack, sep = [t.constructor, "("], [iter(t.args)], ""
    while stack:
        for a in stack[-1]:
            if type(a) is App and a.args:
                out += (sep, a.constructor, "(")
                stack.append(iter(a.args))
                sep = ""
                break
            out += (sep, _leaf_text(a))
            sep = ", "
        else:
            stack.pop()
            out.append(")")
    return "".join(out)


def atom_text(a: Atom) -> str:
    """Concrete syntax of an atom."""
    if isinstance(a, Pred):
        return f"{a.symbol}({', '.join(map(term_text, a.args))})"
    return f"{term_text(a.lhs)} {OP_TEXT[a.op]} {term_text(a.rhs)}"
