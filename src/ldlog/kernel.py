"""The certificate checker: the trusted base of ldlog.

A ProofTree records, for one clause application, the clause name, the
substitution that instantiates the clause, the ground conclusion, and one
child per body atom (a BuiltinLeaf for comparison premises). check_proof
re-derives validity from those pieces alone: it never runs unification or
search, so it stays a small trusted core independent of the solver. One
reader, `_read`, decides every atom it evaluates or prints, and it is the one
place where a malformed term becomes a CheckError: the ground scan it runs,
`terms._scan`, refuses a non-term and a term whose literal payload or name has
the wrong type (`IntLit(True)`, `StrLit(5)`, `Var(None)`). Fields of the wrong
type and unknown comparison operators fail as a CheckError too, and terms of
any depth are compared on an explicit stack. Out of scope: objects whose own
`__eq__` or `__hash__` raise, which no reader builds.

Everything an answer's validity rests on is in this module's import
closure: this module, `ldlog.terms` and `ldlog.errors`, which
`test_the_kernel_imports_only_terms_and_errors` in tests/test_api.py pins.
Rendering and JSON output (`ldlog.proof`) are outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import List, Mapping, Tuple, Union

from .errors import LdlogError
from .terms import (
    OP_TEXT,
    App,
    Builtin,
    Clause,
    KnowledgeBase,
    MalformedTerm,
    Meta,
    Pred,
    Substitution,
    TypeMismatch,
    Var,
    apply_subst_atom,
    atom_free_vars,
    atom_is_ground,
    atom_text,
    eval_builtin,
)


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
    """A proof node failed checking; path locates it by child indices."""

    def __init__(self, path: Tuple[int, ...], reason: CheckReason, detail: str = ""):
        where = "/".join(str(i) for i in path) if path else "root"
        message = f"{reason.value} at {where}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.path = tuple(path)
        self.reason = reason
        self.detail = detail


def check_proof(kb: KnowledgeBase, proof: ProofTree) -> None:
    """Validate a certificate against kb's clauses; raises CheckError.

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
                raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(leaf))
            try:
                holds = eval_builtin(leaf)
            except TypeMismatch as exc:
                raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, str(exc)) from None
            if not holds:
                raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, atom_text(leaf))
            if not instantiates(premise, s, leaf):
                raise _mismatch(premise, s, spine, f"leaf {atom_text(leaf)} is not the instantiated premise ")
        elif not isinstance(child, ProofTree):
            raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "predicate premise needs a subproof")
        else:
            spine.append([child, _check_node(kb, child, premise, s, spine), 0])


def _path(spine: List[list]) -> Tuple[int, ...]:
    """Child indices from the root to the node being checked."""
    return tuple(frame[2] - 1 for frame in spine)


def _read(atom, spine: List[list], what: str) -> bool:
    """Whether atom, the node's `what`, is ground. It must be a Pred named by a str, or a Builtin whose op is a key of
    OP_TEXT, holding only terms that `terms._scan` finds well formed; otherwise it raises a CheckError (a
    HeadMismatch for the conclusion, a PremiseMismatch for anything else). A non-ground atom is read to the end."""
    kind = type(atom)
    try:
        if kind is Pred and type(atom.symbol) is str or kind is Builtin and type(atom.op) is str and atom.op in OP_TEXT:
            return atom_is_ground(atom) or not atom_free_vars(atom)
        defect = "is not an atom"
    except MalformedTerm:
        defect = "holds a malformed literal or name"
    except TypeError:
        defect = "holds a non-term"
    reason = CheckReason.HEAD_MISMATCH if what == "conclusion" else CheckReason.PREMISE_MISMATCH
    raise CheckError(_path(spine), reason, f"the {what} {defect}")


def _mismatch(premise, s: Substitution, spine: List[list], lead: str) -> CheckError:
    """The PremiseMismatch whose detail is lead followed by the instantiated premise, once that reads."""
    want = apply_subst_atom(premise, s)
    _read(want, spine, "instantiated premise")
    return CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, lead + atom_text(want))


def _check_node(kb: KnowledgeBase, node: ProofTree, premise, s: Substitution, spine: List[list]) -> Clause:
    """The clause node applies, once its conclusion reads and matches premise (None at the root), and its fields check."""
    name, conclusion, inst, children = node.clause_name, node.conclusion, node.instantiation, node.children
    ground = _read(conclusion, spine, "conclusion")
    if premise is not None and not instantiates(premise, s, conclusion):
        raise _mismatch(premise, s, spine, f"child concludes {atom_text(conclusion)}, premise needs ")
    if type(name) is not str:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, "the clause name is not a string")
    clause = kb.clauses.get(name)
    if clause is None:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, name)
    if not ground:
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(conclusion))
    if type(inst) is not MappingProxyType and type(inst) is not dict:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the instantiation is not a substitution")
    # a ground conclusion that is the head itself is its own instance
    if conclusion is not clause.head and not instantiates(clause.head, inst, conclusion):
        raise CheckError(
            _path(spine),
            CheckReason.HEAD_MISMATCH,
            f"instantiated head of '{clause.name}' is not {atom_text(conclusion)}",
        )
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
    """Whether apply_subst_atom(pattern, s) == atom, decided without building that instance.

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
