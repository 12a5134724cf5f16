"""Depth-bounded backward chaining over a knowledge base's clauses.

The search is a depth-first traversal with chronological backtracking,
body atoms left to right. A goal tries only the clauses whose head can
match its ground arguments (an `ldlog.index.ArgIndex` over the heads,
built per call), still in knowledge-base order. The
depth budget counts clause applications along a path, so it bounds proof
height; facts prove at budget 1. Comparison premises consume no budget:
a ground one is evaluated in place, a non-ground one is delayed behind the
remaining predicate premises of its conjunction, and the query flounders
with an error if none remain to bind it.

Solutions arrive in discovery order, deduplicated by placeholder bindings,
each carrying a ground proof tree built from the final substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import LdlogError
from .index import ArgIndex
from .proof import BuiltinLeaf, ProofTree
from .terms import (
    Builtin,
    Clause,
    KnowledgeBase,
    Meta,
    Pred,
    Query,
    Substitution,
    Var,
    apply_subst,
    apply_subst_atom,
    atom_free_vars,
    atom_is_ground,
    atom_text,
    clause_vars,
    eval_builtin,
    is_ground,
)
from .unify import BuiltinNotUnifiable, unify_atoms


class FlounderedBuiltin(LdlogError):
    """A comparison premise could not be grounded by its conjunction."""

    def __init__(self, atom: Builtin):
        super().__init__(f"comparison never became ground: {atom_text(atom)}")
        self.atom = atom


@dataclass(frozen=True)
class SolverConfig:
    max_depth: int = 6
    solution_limit: Optional[int] = 1  # None means unbounded

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.solution_limit is not None and self.solution_limit < 1:
            raise ValueError("solution_limit must be positive or None")


@dataclass
class Solution:
    """Ground bindings for the query's placeholders plus their certificate."""

    bindings: Substitution
    proof: ProofTree


def _rename(c: Clause, tick: int) -> Tuple[Clause, Dict[str, Var]]:
    """Rename every clause variable x to x#tick; also return the renaming."""
    varmap = {v.name: Var(f"{v.name}#{tick}") for v in clause_vars(c)}
    renaming: Substitution = {Var(name): fresh for name, fresh in varmap.items()}
    head = apply_subst_atom(c.head, renaming)
    body = tuple(apply_subst_atom(a, renaming) for a in c.body)
    return Clause(c.name, head, body, c.origin), varmap


@dataclass
class _OpenNode:
    """Clause application whose terms still mention search variables."""

    clause_name: str
    head: Pred  # standardized-apart head instance
    varmap: Dict[str, Var]
    children: tuple  # _OpenNode | BuiltinLeaf, in body order


def solve(kb: KnowledgeBase, q: Query, cfg: Optional[SolverConfig] = None) -> List[Solution]:
    """Answer a query against the clauses of kb."""
    cfg = cfg or SolverConfig()
    if isinstance(q.goal, Builtin):
        raise BuiltinNotUnifiable("a comparison cannot be a query goal")

    # built per call: kb.clauses is a plain dict its owner may edit between calls
    index: ArgIndex[Clause] = ArgIndex()
    for c in kb.clauses.values():
        index.add(c.head, c)

    metas = sorted((v for v in atom_free_vars(q.goal) if isinstance(v, Meta)), key=lambda m: m.id)
    ticks = itertools.count(1)
    solutions: List[Solution] = []
    seen = set()
    for s, node in _solve_goal(q.goal, {}, cfg.max_depth, index, ticks):
        proof = _freeze(node, s)
        if proof is None:
            continue  # derivation left a variable free; no ground certificate
        bindings = {m: apply_subst(m, s) for m in metas}
        if not all(is_ground(v) for v in bindings.values()):
            continue
        key = tuple(bindings[m] for m in metas)
        if key in seen:
            continue
        seen.add(key)
        solutions.append(Solution(bindings, proof))
        if cfg.solution_limit is not None and len(solutions) >= cfg.solution_limit:
            break
    return solutions


def _solve_goal(goal: Pred, s: Substitution, budget: int, index, ticks) -> Iterator[Tuple[Substitution, _OpenNode]]:
    if budget < 1:
        return
    keys = [(pos, arg) for pos, arg in enumerate(goal.args) if is_ground(arg)]
    for clause in index.candidates(goal.symbol, keys):
        renamed, varmap = _rename(clause, next(ticks))
        s1 = unify_atoms(goal, renamed.head, s)
        if s1 is None:
            continue
        for s2, by_index in _solve_items(list(enumerate(renamed.body)), s1, budget - 1, index, ticks):
            children = tuple(by_index[i] for i in range(len(renamed.body)))
            yield s2, _OpenNode(clause.name, renamed.head, varmap, children)


def _solve_items(items, s: Substitution, budget: int, index, ticks):
    """Solve an indexed conjunction; yields (subst, {index: child})."""
    if not items:
        yield s, {}
        return
    (idx, atom), rest = items[0], items[1:]
    if isinstance(atom, Builtin):
        now = apply_subst_atom(atom, s)
        if atom_is_ground(now):
            if eval_builtin(now):
                leaf = BuiltinLeaf(now)
                for s2, children in _solve_items(rest, s, budget, index, ticks):
                    yield s2, {idx: leaf, **children}
            return
        if any(isinstance(a, Pred) for _, a in rest):
            yield from _solve_items(rest + [(idx, atom)], s, budget, index, ticks)
            return
        raise FlounderedBuiltin(now)
    goal = apply_subst_atom(atom, s)
    for s2, node in _solve_goal(goal, s, budget, index, ticks):
        for s3, children in _solve_items(rest, s2, budget, index, ticks):
            yield s3, {idx: node, **children}


def _freeze(node, s: Substitution):
    """Close an open derivation into a ground ProofTree, or None."""
    if isinstance(node, BuiltinLeaf):
        return node
    conclusion = apply_subst_atom(node.head, s)
    if not atom_is_ground(conclusion):
        return None
    instantiation: Substitution = {}
    for name, fresh in node.varmap.items():
        value = apply_subst(fresh, s)
        if not is_ground(value):
            return None
        instantiation[Var(name)] = value
    children = []
    for child in node.children:
        closed = _freeze(child, s)
        if closed is None:
            return None
        children.append(closed)
    return ProofTree(node.clause_name, instantiation, conclusion, tuple(children))
