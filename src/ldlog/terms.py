"""Core term language: terms, atoms, clauses, queries, substitutions.

Terms are immutable trees. Variables come in two flavors that unify the
same way: Var (from rule statements) and Meta (query placeholders, carrying
a numeric id and the surface name they came from). Substitutions are plain
dicts from Var/Meta keys to terms and are kept idempotent by the operations
that build them.

Literals and variables compute their hash once, and a literal keeps its
text once `term_text` has made it. The elaborator interns literals and rule
variables per program, so equal ones of one program are one object, and
the evaluators and the checker compare by identity before they compare by
value. Equality stays by value: a term built by hand equals its interned
twin, hashes like it and prints like it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set, Union

from .errors import LdlogError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class IntLit:
    """Signed 64-bit integer literal."""

    value: int

    _text = None  # its concrete syntax, set by term_text on first use

    # The generated hash's value, computed once: every index bucket and answer
    # set hashes its terms. Pickling rebuilds it, as string hashes vary by
    # process, and leaves the text out.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return IntLit, (self.value,)


@dataclass(frozen=True)
class StrLit:
    """String literal."""

    value: str

    _text = None  # as in IntLit

    # as in IntLit
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return StrLit, (self.value,)


@dataclass(frozen=True)
class Var:
    """Named logic variable (scoped to a single clause)."""

    name: str

    # as in IntLit: every instantiation lookup hashes its key
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Var, (self.name,)


@dataclass(frozen=True)
class Meta:
    """Query placeholder; id is unique within one elaborated program."""

    id: int
    source_name: str

    # as in IntLit
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.id, self.source_name)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Meta, (self.id, self.source_name)


@dataclass(frozen=True)
class App:
    """Constructor application; a constant is an App with no args."""

    constructor: str
    args: tuple = ()


Term = Union[IntLit, StrLit, Var, Meta, App]
Key = Union[Var, Meta]
Substitution = Dict[Key, Term]


@dataclass(frozen=True)
class Pred:
    """Predicate atom p(t1, ..., tn)."""

    symbol: str
    args: tuple = ()


OP_TEXT = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=", "ne": "!="}
TEXT_OP = {text: op for op, text in OP_TEXT.items()}

_OP_FUNC = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


@dataclass(frozen=True)
class Builtin:
    """Comparison atom between two terms; op is one of the keys of OP_TEXT."""

    op: str
    lhs: Term
    rhs: Term


Atom = Union[Pred, Builtin]

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
    """

    clauses: Mapping[str, Clause] = field(default_factory=dict)
    constructors: Dict[str, Constructor] = field(default_factory=dict)
    defs: Dict[str, Term] = field(default_factory=dict)
    compiled: Dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "clauses", MappingProxyType(dict(self.clauses)))


class NonGroundBuiltin(LdlogError):
    """Raised by eval_builtin when an operand still has variables."""


class TypeMismatch(LdlogError):
    """Raised by eval_builtin on operands the comparison does not cover."""


def apply_subst(t: Term, s: Substitution) -> Term:
    """Replace every bound Var/Meta leaf in t by its binding."""
    if isinstance(t, (Var, Meta)):
        return s.get(t, t)
    if isinstance(t, App) and t.args:
        return App(t.constructor, tuple(apply_subst(a, s) for a in t.args))
    return t


def apply_subst_atom(a: Atom, s: Substitution) -> Atom:
    """Apply a substitution to every argument of an atom."""
    if isinstance(a, Pred):
        return Pred(a.symbol, tuple(apply_subst(t, s) for t in a.args))
    return Builtin(a.op, apply_subst(a.lhs, s), apply_subst(a.rhs, s))


def free_vars(t: Term) -> Set[Key]:
    """Set of Var and Meta leaves occurring in t."""
    out: Set[Key] = set()
    _collect_vars(t, out)
    return out


def _collect_vars(t: Term, out: Set[Key]) -> None:
    if isinstance(t, (Var, Meta)):
        out.add(t)
    elif isinstance(t, App):
        for a in t.args:
            _collect_vars(a, out)


def atom_free_vars(a: Atom) -> Set[Key]:
    out: Set[Key] = set()
    if isinstance(a, Pred):
        for t in a.args:
            _collect_vars(t, out)
    else:
        _collect_vars(a.lhs, out)
        _collect_vars(a.rhs, out)
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
            for t in a.args:
                _collect_vars(t, positive)
    return clause_vars(c) - positive


def is_ground(t: Term) -> bool:
    if isinstance(t, (Var, Meta)):
        return False
    if isinstance(t, App):
        return all(map(is_ground, t.args))
    return True


def atom_is_ground(a: Atom) -> bool:
    if isinstance(a, Pred):
        return all(map(is_ground, a.args))
    return is_ground(a.lhs) and is_ground(a.rhs)


def eval_builtin(a: Builtin) -> bool:
    """Decide a comparison atom once its operands are ground.

    Integers support all six operators; strings only equality and
    inequality. Anything else is a TypeMismatch.
    """
    lhs, rhs = a.lhs, a.rhs
    if not (is_ground(lhs) and is_ground(rhs)):
        raise NonGroundBuiltin(f"comparison on non-ground operands: {atom_text(a)}")
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return _OP_FUNC[a.op](lhs.value, rhs.value)
    if isinstance(lhs, StrLit) and isinstance(rhs, StrLit):
        if a.op == "eq":
            return lhs.value == rhs.value
        if a.op == "ne":
            return lhs.value != rhs.value
        raise TypeMismatch(f"ordered comparison on strings: {atom_text(a)}")
    raise TypeMismatch(f"comparison on mixed or structured operands: {atom_text(a)}")


_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"})


def quote_string(value: str) -> str:
    """Render a string value as a quoted literal."""
    return '"' + value.translate(_ESCAPES) + '"'


def term_text(t: Term) -> str:
    """Concrete syntax of a term; a literal keeps its text once computed."""
    kind = type(t)
    if kind is StrLit or kind is IntLit:
        text = t._text
        if text is None:
            text = quote_string(t.value) if kind is StrLit else str(t.value)
            object.__setattr__(t, "_text", text)
        return text
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Meta):
        return t.source_name
    if not t.args:
        return t.constructor
    return f"{t.constructor}({', '.join(map(term_text, t.args))})"


def atom_text(a: Atom) -> str:
    """Concrete syntax of an atom."""
    if isinstance(a, Pred):
        return f"{a.symbol}({', '.join(map(term_text, a.args))})"
    return f"{term_text(a.lhs)} {OP_TEXT[a.op]} {term_text(a.rhs)}"
