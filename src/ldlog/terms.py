"""Core term language: terms, atoms, clauses, queries, substitutions.

Terms are immutable trees. Variables come in two flavors that unify the
same way: Var (from rule statements) and Meta (query placeholders, carrying
a numeric id and the surface name they came from). Substitutions are plain
dicts from Var/Meta keys to terms and are kept idempotent by the operations
that build them. One walk on a stack, `_scan`, serves the ground tests and
variable sets (`is_ground` to `loose_vars`) and refuses malformed terms.

Literals and variables compute their hash once, and a literal keeps its
text once `term_text` has made it. The lexer makes equal literals of one
parsed text one object, and the elaborator does the same for the rule
variables of one program; the evaluators and the checker compare by
identity before they compare by value. Equality stays by value: a term
built by hand equals its shared twin, hashes like it and prints like it.
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


class MalformedTerm(TypeError):
    """Raised by the term scan on a term whose field has the wrong type."""


def _scan(terms, out: Optional[Set[Key]] = None) -> bool:
    """Whether terms, and the terms they nest, hold no Var or Meta, read left to right in
    pre-order; given a set out, each Var and Meta met is added to it and the scan reads on.
    A non-term met raises TypeError, and a term with a field of the wrong type MalformedTerm:
    an IntLit's payload not exactly an int, a StrLit's not a str, or a Var's, Meta's or App's
    name not a str. A stack of argument iterators, not recursion, holds the open constructors."""
    stack, ground, args = [], True, iter(terms)
    while True:
        for t in args:
            kind = type(t)
            if kind is StrLit or kind is IntLit:
                if type(t.value) is not (str if kind is StrLit else int):
                    raise MalformedTerm(kind.__name__)
            elif kind is Var or kind is Meta:
                if type(t.name if kind is Var else t.source_name) is not str:
                    raise MalformedTerm(kind.__name__)
                if out is None:
                    return False
                out.add(t)
                ground = False
            elif kind is App:
                if type(t.constructor) is not str:
                    raise MalformedTerm(kind.__name__)
                stack.append(args)
                args = iter(t.args)
                break
            else:
                raise TypeError(f"not a term: {kind.__name__}")
        else:
            if not stack:
                return ground
            args = stack.pop()


def is_ground(t: Term) -> bool:
    kind = type(t)
    return kind is StrLit or kind is IntLit or _scan((t,))


def atom_is_ground(a: Atom) -> bool:
    return _scan(a.args if isinstance(a, Pred) else (a.lhs, a.rhs))


def free_vars(t: Term) -> Set[Key]:
    """Set of Var and Meta leaves occurring in t."""
    out: Set[Key] = set()
    _scan((t,), out)
    return out


def atom_free_vars(a: Atom) -> Set[Key]:
    out: Set[Key] = set()
    _scan(a.args if isinstance(a, Pred) else (a.lhs, a.rhs), out)
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
            _scan(a.args, positive)
    return clause_vars(c) - positive


def eval_builtin(a: Builtin) -> bool:
    """Decide a comparison atom once its operands are ground.

    Integers support all six operators; strings only equality and
    inequality. Anything else is a TypeMismatch.
    """
    lhs, rhs = a.lhs, a.rhs
    # two literals are ground: only other operands need the ground test
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return _OP_FUNC[a.op](lhs.value, rhs.value)
    if isinstance(lhs, StrLit) and isinstance(rhs, StrLit):
        if a.op == "eq":
            return lhs.value == rhs.value
        if a.op == "ne":
            return lhs.value != rhs.value
        raise TypeMismatch(f"ordered comparison on strings: {atom_text(a)}")
    if not (is_ground(lhs) and is_ground(rhs)):
        raise NonGroundBuiltin(f"comparison on non-ground operands: {atom_text(a)}")
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
            out += (sep, term_text(a))
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
