"""The certificate checker: the trusted base of ldlog.

A ProofTree records, for one clause application, the clause name, the
substitution that instantiates the clause, the ground conclusion, and one
child per body atom (a BuiltinLeaf for comparison premises). check_proof
re-derives validity from those pieces alone: it never runs unification or
search, so it stays a small trusted core independent of the solver. Its
ground test is `terms.atom_is_ground`, the terms module's one scan. A node
whose fields, or terms, have the wrong types fails as a CheckError too.

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
    App,
    Builtin,
    Clause,
    KnowledgeBase,
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
    _check_atom(proof, spine)
    spine.append([proof, _check_node(kb, proof, spine), 0])
    while spine:
        frame = spine[-1]
        node, clause, i = frame
        if i == len(clause.body):
            spine.pop()
            continue
        frame[2] = i + 1
        premise, child = clause.body[i], node.children[i]
        if isinstance(premise, Builtin):
            _check_leaf(child, premise, node.instantiation, spine)
        elif not isinstance(child, ProofTree):
            raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "predicate premise needs a subproof")
        elif not instantiates(premise, node.instantiation, child.conclusion):
            _check_atom(child, spine)
            want = apply_subst_atom(premise, node.instantiation)
            raise CheckError(
                _path(spine),
                CheckReason.PREMISE_MISMATCH,
                f"child concludes {atom_text(child.conclusion)}, premise needs {atom_text(want)}",
            )
        else:
            spine.append([child, _check_node(kb, child, spine), 0])


def _path(spine: List[list]) -> Tuple[int, ...]:
    """Child indices from the root to the node being checked."""
    return tuple(frame[2] - 1 for frame in spine)


def _check_node(kb: KnowledgeBase, node: ProofTree, spine: List[list]) -> Clause:
    """The clause that node applies, once its field types, conclusion, head and premise count check."""
    # `_check_atom` tested that the root's conclusion is an atom; a child's matched its premise
    name, conclusion, s, children = node.clause_name, node.conclusion, node.instantiation, node.children
    if type(name) is not str:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, "the clause name is not a string")
    clause = kb.clauses.get(name)
    if clause is None:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, name)
    try:  # a non-ground conclusion is read to its end, so no non-term past a variable reaches atom_text
        ground = atom_is_ground(conclusion) or not atom_free_vars(conclusion)
    except TypeError:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the conclusion holds a non-term") from None
    if not ground:
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(conclusion))
    if type(s) is not MappingProxyType and type(s) is not dict:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the instantiation is not a substitution")
    # a ground conclusion that is the head itself is its own instance
    if conclusion is not clause.head and not instantiates(clause.head, s, conclusion):
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


def _check_atom(node: ProofTree, spine: List[list]) -> None:
    """A conclusion that is not an atom of terms is a HeadMismatch, decided before anything prints it."""
    if type(node.conclusion) is not Pred and type(node.conclusion) is not Builtin:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the conclusion is not an atom")
    try:
        atom_free_vars(node.conclusion)  # reads every leaf, where a ground test stops at the first variable
    except TypeError:
        raise CheckError(_path(spine), CheckReason.HEAD_MISMATCH, "the conclusion holds a non-term") from None


def instantiates(pattern, s: Substitution, atom) -> bool:
    """Whether apply_subst_atom(pattern, s) == atom, decided without building that instance.

    An explicit stack takes the arguments of nested constructors, so the
    term's depth is not bounded by Python's recursion limit. A variable's
    binding is compared by identity before equality.
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
                if p is not t and p != t:
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


def _check_leaf(child: ProofNode, premise: Builtin, s: Substitution, spine: List[list]) -> None:
    """A comparison premise needs a true leaf equal to its instance under s."""
    if not isinstance(child, BuiltinLeaf) or type(child.atom) is not Builtin:
        raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "comparison premise needs a builtin leaf")
    try:
        ground = atom_is_ground(child.atom) or not atom_free_vars(child.atom)
    except TypeError:
        raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "the leaf holds a non-term") from None
    # truth first: a falsified leaf is a BuiltinFalse, not a mismatch against the premise
    if not ground:
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(child.atom))
    try:
        holds = eval_builtin(child.atom)
    except TypeMismatch as exc:
        raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, str(exc)) from None
    if not holds:
        raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, atom_text(child.atom))
    if not instantiates(premise, s, child.atom):
        want = apply_subst_atom(premise, s)
        raise CheckError(
            _path(spine),
            CheckReason.PREMISE_MISMATCH,
            f"leaf {atom_text(child.atom)} is not the instantiated premise {atom_text(want)}",
        )
