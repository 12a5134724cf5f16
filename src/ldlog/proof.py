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
from typing import Dict, List, Tuple, Union

from .errors import LdlogError
from .terms import (
    Builtin,
    Clause,
    KnowledgeBase,
    NonGroundBuiltin,
    Pred,
    Query,
    Substitution,
    TypeMismatch,
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
    instantiation: Dict
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
        want = apply_subst_atom(premise, node.instantiation)
        if isinstance(premise, Builtin):
            _check_leaf(child, want, spine)
        elif not isinstance(child, ProofTree):
            raise CheckError(_path(spine), CheckReason.PREMISE_MISMATCH, "predicate premise needs a subproof")
        elif child.conclusion != want:
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
    if apply_subst_atom(clause.head, node.instantiation) != node.conclusion:
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


def _check_leaf(child: ProofNode, want: Builtin, spine: List[list]) -> None:
    """A comparison premise, instantiated as want, needs a true leaf equal to it."""
    if not isinstance(child, BuiltinLeaf):
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
    if child.atom != want:
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
    """One-line JSON document for a checked proof of q."""
    bindings = proof_bindings(proof, q)
    by_id = sorted(bindings.items(), key=lambda kv: kv[0].id)
    doc = {
        "query": q.name,
        "goal": atom_text(q.goal),
        "bindings": {meta.source_name: term_text(value) for meta, value in by_id},
        "render": render_proof(proof),
        "tree": _tree_doc(proof),
    }
    return json.dumps(doc)


def _tree_doc(node: ProofNode):
    if isinstance(node, BuiltinLeaf):
        return {"builtin": atom_text(node.atom)}
    return {
        "clause": node.clause_name,
        "conclusion": atom_text(node.conclusion),
        "children": [_tree_doc(c) for c in node.children],
    }
