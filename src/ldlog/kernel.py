"""The certificate checker and the terms it reads: the trusted base of ldlog.

A ProofTree records, for one clause application, the clause name, the
substitution that instantiates the clause, the ground conclusion, and one
child per body atom (a BuiltinLeaf for comparison premises). `check`
re-derives validity from those pieces alone: it never runs unification or
search, so it stays a small trusted core independent of the solver. One
reader, `_read`, decides every atom it evaluates, and it is the one place
where a malformed term becomes a CheckError: the ground scan it runs, `scan`,
refuses a non-term and a term whose literal payload or name has the wrong type
(`IntLit(True)`, `StrLit(5)`, `Var(None)`). Fields of the wrong type and
unknown comparison operators fail as a CheckError too, and terms of any depth
are compared on an explicit stack. Out of scope: objects whose own `__eq__` or
`__hash__` raise, which no reader builds.

Everything an answer's verdict rests on is in this module's import closure:
this module and `ldlog.errors`, which `test_the_kernel_imports_only_errors`
in tests/test_api.py pins. The term and atom classes live here, with the
ground tests and the truth of a comparison. The check prints no term: a
CheckError carries the atoms its detail names, and `ldlog.proof.check_proof`,
the public entry point, words that detail. Printing, substitution, variable
sets, clauses and the knowledge base (`ldlog.terms`) and the certificate
output (`ldlog.proof`) are outside the closure.

Literals and variables compute their hash once, and a constructor term on its
first hash. The lexer makes equal literals of one parsed text one object, and
the elaborator does the same for the rule variables of one program; the
evaluators and the checker compare by identity before they compare by value.
Equality stays by value: a term built by hand equals its shared twin and
hashes like it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from .errors import LdlogError


@dataclass(frozen=True)
class IntLit:
    """Signed 64-bit integer literal."""

    value: int

    _text = None  # its concrete syntax, set by `terms.term_text` on first use

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

    _hash = None  # the generated hash's value, set on first use

    # The generated hash's value, computed on first use and bottom-up on a
    # stack, so a term nested past the recursion limit hashes: each App's
    # tuple hash then reads its args' kept values. Args that are not a tuple
    # hash as the generated hash would, so a list raises. Pickling leaves the
    # value out, as in IntLit.
    def __hash__(self):
        if self._hash is None:
            todo = [self]
            while todo:
                t = todo[-1]
                below = [a for a in t.args if type(a) is App and a._hash is None] if type(t.args) is tuple else None
                if below:
                    todo += below
                else:
                    todo.pop()
                    object.__setattr__(t, "_hash", hash((t.constructor, t.args)))
        return self._hash

    def __reduce__(self):
        return App, (self.constructor, self.args)


Term = Union[IntLit, StrLit, Var, Meta, App]
Key = Union[Var, Meta]
Substitution = Dict[Key, Term]


@dataclass(frozen=True)
class Pred:
    """Predicate atom p(t1, ..., tn)."""

    symbol: str
    args: tuple = ()


@dataclass(frozen=True)
class Builtin:
    """Comparison atom between two terms; op is one of lt, le, gt, ge, eq and ne."""

    op: str
    lhs: Term
    rhs: Term


Atom = Union[Pred, Builtin]

_OPS = {"lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge, "eq": operator.eq, "ne": operator.ne}


def holds(a: Builtin) -> Optional[bool]:
    """The truth of a comparison between two integers, under any of the six
    operators, or two strings, under `eq` and `ne`; None for any other operands.
    `terms.eval_builtin` words the error for those."""
    lhs, rhs = a.lhs, a.rhs
    kind = type(lhs)
    if kind is type(rhs) and (kind is IntLit or kind is StrLit and (a.op == "eq" or a.op == "ne")):
        return _OPS[a.op](lhs.value, rhs.value)
    return None


class MalformedTerm(TypeError):
    """Raised by the term scan on a term whose field has the wrong type."""


def scan(terms, out: Optional[Set[Key]] = None) -> bool:
    """Whether terms, and the terms they nest, hold no Var or Meta, read to the end left to
    right in pre-order; given a set out, each Var and Meta met is added to it. A non-term met
    raises TypeError, and a term with a field of the wrong type MalformedTerm: an IntLit's
    payload not exactly an int, a StrLit's not a str, or a Var's, Meta's or App's name not a
    str. A stack of argument iterators, not recursion, holds the open constructors."""
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
                if out is not None:
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
    return kind is StrLit or kind is IntLit or scan((t,))


def atom_is_ground(a: Atom) -> bool:
    return scan(a.args if isinstance(a, Pred) else (a.lhs, a.rhs))


@dataclass(frozen=True)
class BuiltinLeaf:
    """A ground comparison premise, true by evaluation."""

    atom: Builtin

    _json = None  # as in ProofTree


@dataclass(frozen=True)
class ProofTree:
    """One clause application; children prove the instantiated body.

    `_json` is not a field: it is the node's own piece of the `tree`
    document, set by `ldlog.proof.serialize_proof` the first time it writes
    the node and reused whenever the solver shares the node across answers.
    The checker never reads it.
    """

    clause_name: str
    instantiation: Mapping
    conclusion: Pred
    children: tuple = ()

    _json = None  # '{"clause": ..., "conclusion": ..., "children": [' once written


ProofNode = Union[ProofTree, BuiltinLeaf]


class CheckReason(Enum):
    UNKNOWN_CLAUSE = "UnknownClause"
    HEAD_MISMATCH = "HeadMismatch"
    PREMISE_MISMATCH = "PremiseMismatch"
    BUILTIN_FALSE = "BuiltinFalse"
    NON_GROUND_CONCLUSION = "NonGroundConclusion"


class CheckError(LdlogError):
    """A proof node failed checking; path locates it by child indices.

    `parts` are the pieces of the detail, the text after the reason and the
    path. `check` leaves the terms of a detail unprinted: such a piece is an
    atom, or a (premise, substitution) pair that stands for the premise's
    instance, and `ldlog.proof.check_proof` raises the error again with each
    piece printed. `detail` joins the parts once all are text, and is empty
    until then.
    """

    def __init__(self, path: Tuple[int, ...], reason: CheckReason, *parts):
        self.path, self.reason, self.parts = tuple(path), reason, parts
        self.detail = "".join(parts) if all(type(p) is str for p in parts) else ""
        where = "/".join(str(i) for i in path) if path else "root"
        super().__init__(f"{reason.value} at {where}: {self.detail}" if self.detail else f"{reason.value} at {where}")


def check(kb, proof: ProofTree) -> None:
    """Validate a certificate against the clauses of kb, a `terms.KnowledgeBase`; raises CheckError.

    Nodes are checked in pre-order, children left to right, so the error
    raised is the first one met in that order. An explicit stack walks the
    tree, so Python's recursion limit does not bound its height.
    """
    # one frame per ProofTree from the root down: [node, its clause, index of its next child]
    spine: List[list] = []
    if type(proof) is not ProofTree:
        raise CheckError((), CheckReason.PREMISE_MISMATCH, "the root is not a subproof")
    spine.append([proof, _check_node(kb, proof, None, None, spine), 0])
    while spine:
        frame = spine[-1]
        node, clause, i = frame
        if i == len(clause.body):
            spine.pop()
            continue
        frame[2] = i + 1
        premise, child, s = clause.body[i], node.children[i], node.instantiation
        if type(premise) is Builtin:
            if not isinstance(child, BuiltinLeaf) or type(child.atom) is not Builtin:
                raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "comparison premise needs a builtin leaf")
            leaf = child.atom
            # truth first: a falsified leaf is a BuiltinFalse, not a mismatch against the premise
            if not _read(leaf, spine, "leaf"):
                raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, leaf)
            if not holds(leaf):
                raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, leaf)
            if not instantiates(premise, s, leaf):
                raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "leaf ", leaf, " is not the instantiated premise ", (premise, s))
        elif not isinstance(child, ProofTree):
            raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "predicate premise needs a subproof")
        else:
            spine.append([child, _check_node(kb, child, premise, s, spine), 0])


def _path(spine: List[list]) -> Tuple[int, ...]:
    """Child indices from the root to the node being checked."""
    return tuple(frame[2] - 1 for frame in spine)


def _read(atom, spine: List[list], what: str) -> bool:
    """Whether atom, the node's `what`, is ground. It must be a Pred named by a str, or a Builtin whose op is a
    comparison operator, holding only terms that `scan` finds well formed; otherwise it raises a CheckError (a
    HeadMismatch for the conclusion, a PremiseMismatch for a leaf)."""
    kind = type(atom)
    try:
        if kind is Pred and type(atom.symbol) is str or kind is Builtin and type(atom.op) is str and atom.op in _OPS:
            return atom_is_ground(atom)
        defect = "is not an atom"
    except MalformedTerm:
        defect = "holds a malformed literal or name"
    except TypeError:
        defect = "holds a non-term"
    reason = CheckReason.HEAD_MISMATCH if what == "conclusion" else CheckReason.PREMISE_MISMATCH
    raise CheckError(_path(spine), reason, f"the {what} {defect}")


def _check_node(kb, node: ProofTree, premise, s: Substitution, spine: List[list]):
    """The clause node applies, once its conclusion reads and matches premise (None at the root), and its fields check."""
    name, conclusion, inst, children = node.clause_name, node.conclusion, node.instantiation, node.children
    ground = _read(conclusion, spine, "conclusion")
    if premise is not None and not instantiates(premise, s, conclusion):
        raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "child concludes ", conclusion, ", premise needs ", (premise, s))
    if type(name) is not str:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, "the clause name is not a string")
    clause = kb.clauses.get(name)
    if clause is None:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, name)
    if not ground:
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, conclusion)
    if type(inst) is not MappingProxyType and type(inst) is not dict:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the instantiation is not a substitution")
    # a ground conclusion that is the head itself is its own instance
    if conclusion is not clause.head and not instantiates(clause.head, inst, conclusion):
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, f"instantiated head of '{clause.name}' is not ", conclusion)
    if type(children) is not tuple:
        raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "the children are not a tuple")
    if len(children) != len(clause.body):
        raise CheckError(
            _path(spine),
            CheckReason.PREMISE_MISMATCH,
            f"'{clause.name}' has {len(clause.body)} premises, proof supplies {len(children)}",
        )
    return clause


def instantiates(pattern, s: Substitution, atom) -> bool:
    """Whether `terms.apply_subst_atom(pattern, s) == atom`, decided without building that instance.

    An explicit stack takes the arguments of nested constructors, so the
    term's depth is not bounded by Python's recursion limit. A variable's
    binding is compared by identity before equality, and a bound constructor
    term on `_same`'s own stack.
    """
    if type(atom) is not type(pattern):
        return False
    if type(pattern) is Pred:
        if atom.symbol != pattern.symbol or type(atom.args) is not tuple or len(atom.args) != len(pattern.args):
            return False
        pairs = zip(pattern.args, atom.args)
    else:
        if atom.op != pattern.op:
            return False
        pairs = ((pattern.lhs, atom.lhs), (pattern.rhs, atom.rhs))
    todo = None
    while True:
        for p, t in pairs:
            kind = type(p)
            if kind is Var or kind is Meta:
                p = s.get(p, p)
                if p is not t and (p != t if type(p) is not App else not _same(p, t)):
                    return False
            elif kind is App and p.args:
                if (
                    type(t) is not App
                    or t.constructor != p.constructor
                    or type(t.args) is not tuple
                    or len(t.args) != len(p.args)
                ):
                    return False
                if todo is None:
                    todo = []
                todo.append(zip(p.args, t.args))
            elif p is not t and p != t:
                return False
        if not todo:
            return True
        pairs = todo.pop()


def _same(a: App, b) -> bool:
    """a == b with no substitution inside either, read on an explicit stack wherever both
    sides are App whose args are both tuples or both lists; other pairs are compared by !=."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is App and type(b) is App and type(a.args) is type(b.args) and type(a.args) in (tuple, list):
            if a.constructor != b.constructor or len(a.args) != len(b.args):
                return False
            todo.extend(zip(a.args, b.args))
        elif a != b:
            return False
    return True
