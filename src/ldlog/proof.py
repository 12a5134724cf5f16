"""Proof certificates: clause-application trees and their checker.

A ProofTree records, for one clause application, the clause name, the
substitution that instantiates the clause, the ground conclusion, and one
child per body atom (a BuiltinLeaf for comparison premises). check_proof
re-derives validity from those pieces alone: it never runs unification or
search, so it stays a small trusted core independent of the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import List, Mapping, Tuple, Union

from .errors import LdlogError
from .terms import (
    App,
    Builtin,
    Clause,
    KnowledgeBase,
    Meta,
    NonGroundBuiltin,
    Pred,
    Query,
    Substitution,
    TypeMismatch,
    Var,
    apply_subst_atom,
    atom_is_ground,
    atom_text,
    eval_builtin,
    term_text,
)
from .unify import match_atoms


@dataclass(frozen=True)
class BuiltinLeaf:
    """A ground comparison premise, true by evaluation."""

    atom: Builtin


@dataclass(frozen=True)
class ProofTree:
    """One clause application; children prove the instantiated body."""

    clause_name: str
    instantiation: Mapping
    conclusion: Pred
    children: tuple = ()


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
        elif not _instantiates(premise, node.instantiation, child.conclusion):
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
    """The clause that node applies, once its conclusion, head and premise count check."""
    clause = kb.clauses.get(node.clause_name)
    if clause is None:
        raise CheckError(_path(spine), CheckReason.UNKNOWN_CLAUSE, node.clause_name)
    if not atom_is_ground(node.conclusion):
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(node.conclusion))
    # a ground conclusion that is the head itself is its own instance
    if node.conclusion is not clause.head and not _instantiates(clause.head, node.instantiation, node.conclusion):
        raise CheckError(
            _path(spine),
            CheckReason.HEAD_MISMATCH,
            f"instantiated head of '{clause.name}' is not {atom_text(node.conclusion)}",
        )
    if len(node.children) != len(clause.body):
        raise CheckError(
            _path(spine),
            CheckReason.PREMISE_MISMATCH,
            f"'{clause.name}' has {len(clause.body)} premises, proof supplies {len(node.children)}",
        )
    return clause


def _instantiates(pattern, s: Substitution, atom) -> bool:
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
    # truth first, so a falsified leaf reports BuiltinFalse rather
    # than a mismatch against the instantiated premise
    try:
        holds = eval_builtin(child.atom)
    except NonGroundBuiltin:
        raise CheckError(_path(spine), CheckReason.NON_GROUND_CONCLUSION, atom_text(child.atom)) from None
    except TypeMismatch as exc:
        raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, str(exc)) from None
    if not holds:
        raise CheckError(_path(spine), CheckReason.BUILTIN_FALSE, atom_text(child.atom))
    if not _instantiates(premise, s, child.atom):
        want = apply_subst_atom(premise, s)
        raise CheckError(
            _path(spine),
            CheckReason.PREMISE_MISMATCH,
            f"leaf {atom_text(child.atom)} is not the instantiated premise {atom_text(want)}",
        )


def render_proof(node: ProofNode) -> str:
    """Compact clause-application form, e.g. r2 (r1 f1) f2.

    A stack holds, for each open parenthesis, the children still to render,
    so Python's recursion limit does not bound the proof's height.
    """
    if isinstance(node, BuiltinLeaf):
        return f"({atom_text(node.atom)})"
    out = [node.clause_name]
    stack = [iter(node.children)]
    while stack:
        for child in stack[-1]:
            if isinstance(child, BuiltinLeaf):
                out.append(f" ({atom_text(child.atom)})")
            elif child.children:
                out.append(f" ({child.clause_name}")
                stack.append(iter(child.children))
                break
            else:
                out.append(f" {child.clause_name}")
        else:
            stack.pop()
            if stack:
                out.append(")")
    return "".join(out)


def proof_bindings(proof: ProofTree, q: Query) -> Substitution:
    """Placeholder bindings read off a proof of q's goal."""
    bindings = match_atoms(q.goal, proof.conclusion)
    if bindings is None:
        raise LdlogError(f"proof concludes {atom_text(proof.conclusion)}, not an instance of {atom_text(q.goal)}")
    return bindings


def serialize_proof(proof: ProofTree, q: Query) -> str:
    """One-line JSON document for a checked proof of q.

    The `tree` is written as text by an explicit stack, so Python's
    recursion limit does not bound the proof's height. Its bytes are those
    `json.dumps` gives for the nested document (a node is `{"clause",
    "conclusion", "children"}`, a builtin leaf `{"builtin"}`). Each
    conclusion is written with `atom_text`; a literal keeps its text once
    made, and the elaborator makes equal literals of a program one object,
    so each distinct literal of a program is quoted once.
    """
    bindings = proof_bindings(proof, q)
    by_id = sorted(bindings.items(), key=lambda kv: kv[0].id)
    head = json.dumps(
        {
            "query": q.name,
            "goal": atom_text(q.goal),
            "bindings": {meta.source_name: term_text(value) for meta, value in by_id},
            "render": render_proof(proof),
        }
    )
    out = [head[:-1], ', "tree": ']
    _write_tree(proof, out)
    out.append("}")
    return "".join(out)


def _write_tree(proof: ProofNode, out: List[str]) -> None:
    """Append proof's `tree` document to out, one piece per node."""
    stack = [enumerate((proof,))]
    while stack:
        for i, node in stack[-1]:
            if i:
                out.append(", ")
            if isinstance(node, BuiltinLeaf):
                out.append(f'{{"builtin": {_json_str(atom_text(node.atom))}}}')
                continue
            conclusion = _json_str(atom_text(node.conclusion))
            out.append(f'{{"clause": {_json_str(node.clause_name)}, "conclusion": {conclusion}, "children": [')
            if node.children:
                stack.append(enumerate(node.children))
                break
            out.append("]}")
        else:
            stack.pop()
            if stack:
                out.append("]}")
