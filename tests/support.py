"""Shared helpers, reference evaluators and random generators for the test suite.

Generators take an explicit random.Random so every suite is seeded and
reproducible. The program generator only emits range-restricted,
comparison-free rules, which both evaluation strategies must agree on.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import ldlog
from ldlog.elaborator import elaborate, elaborate_library
from ldlog.errors import LdlogError
from ldlog.index import ArgIndex
from ldlog.kernel import BuiltinLeaf, CheckError, CheckReason, ProofTree
from ldlog.oracle import UnsafeRule
from ldlog.parser import (
    KEYWORDS,
    AppAst,
    Application,
    CmpAst,
    DefStmt,
    FactStmt,
    IdentAst,
    LexError,
    ParenTerm,
    ProjAst,
    QueryStmt,
    RuleStmt,
    StructStmt,
    UseStmt,
    parse_program,
)
from ldlog.proof import render_proof
from ldlog.solver import FlounderedBuiltin, Solution, SolverConfig
from ldlog.terms import (
    INT64_MAX,
    INT64_MIN,
    OP_TEXT,
    App,
    Query,
    Builtin,
    Clause,
    IntLit,
    Meta,
    NonGroundBuiltin,
    Pred,
    StrLit,
    Substitution,
    TypeMismatch,
    Var,
    apply_subst,
    apply_subst_atom,
    atom_free_vars,
    atom_text,
    clause_vars,
    eval_builtin,
    free_vars,
    quote_string,
    term_text,
)
from ldlog.unify import BuiltinNotUnifiable, match_atoms, unify_atoms


def compile_text(text: str, lib_text: Optional[str] = None):
    """Parse and elaborate a program, optionally against a library."""
    library = elaborate_library(parse_program(lib_text)) if lib_text else None
    return elaborate(parse_program(text), library)


def naive_saturate(kb) -> Set[Pred]:
    """Reference fixpoint: naive bottom-up saturation.

    Each pass instantiates every rule against all facts derived so
    far, unifying two ways, and adds the new heads until nothing changes.
    `ldlog.oracle.saturate` must return the same set and raise in the same
    cases.
    """
    for c in kb.clauses.values():
        _check_safe(c)
    rules = [c for c in kb.clauses.values() if c.body]
    derived: Set[Pred] = {c.head for c in kb.clauses.values() if not c.body}
    while True:
        snapshot = list(derived)
        new: Set[Pred] = set()
        for c in rules:
            for s in _body_matches(c.body, snapshot):
                head = apply_subst_atom(c.head, s)
                if head not in derived:
                    new.add(head)
        if not new:
            return derived
        derived |= new


def _check_safe(c) -> None:
    """Raise UnsafeRule if a head or comparison variable is in no premise.

    Kept apart from the check in `ldlog.oracle` so that the reference
    judges safety on its own.
    """
    in_premises = set()
    elsewhere = free_vars(App(c.head.symbol, c.head.args))
    for a in c.body:
        if isinstance(a, Builtin):
            elsewhere |= free_vars(a.lhs) | free_vars(a.rhs)
        else:
            in_premises |= free_vars(App(a.symbol, a.args))
    if elsewhere - in_premises:
        raise UnsafeRule(c, elsewhere - in_premises)


def _body_matches(body, facts: List[Pred]) -> Iterator[Substitution]:
    """Substitutions grounding every premise against the given facts."""
    premises = [a for a in body if isinstance(a, Pred)]
    comparisons = [a for a in body if isinstance(a, Builtin)]

    def walk(i: int, s: Substitution) -> Iterator[Substitution]:
        if i == len(premises):
            if all(eval_builtin(apply_subst_atom(c, s)) for c in comparisons):
                yield s
            return
        pattern = apply_subst_atom(premises[i], s)
        for fact in facts:
            s2 = unify_atoms(pattern, fact, s)
            if s2 is not None:
                yield from walk(i + 1, s2)

    yield from walk(0, {})


def reference_answers(facts, goal: Pred) -> List[Substitution]:
    """Every placeholder binding whose goal instance is one of the ground facts.

    Matches the goal against every fact. `ldlog.oracle.oracle_answers`,
    which looks candidates up in the fixpoint's index, must return the same
    list, in the same order: sorted by the rendered binding values.
    """
    metas = sorted((v for v in atom_free_vars(goal) if isinstance(v, Meta)), key=lambda m: m.id)
    answers: Dict[tuple, Substitution] = {}
    for fact in facts:
        bindings = match_atoms(goal, fact)
        if bindings is None:
            continue
        key = tuple(term_text(bindings[m]) for m in metas)
        answers.setdefault(key, bindings)
    return [answers[key] for key in sorted(answers)]


# ---------------------------------------------------------------------------
# Reference certificate checker (for the checker differential)
# ---------------------------------------------------------------------------


def reference_check(kb, proof: ProofTree) -> None:
    """Recursive checker, one call per proof level: `ldlog.kernel.check_proof` must agree.

    It must accept the same certificates and raise the same CheckError,
    with the same path, reason and detail. The recursion caps proof height
    near 1,000.
    """
    _ref_check(kb, proof, ())


def _ref_check(kb, node: ProofTree, path: Tuple[int, ...]) -> None:
    clause = kb.clauses.get(node.clause_name)
    if clause is None:
        raise CheckError(path, CheckReason.UNKNOWN_CLAUSE, node.clause_name)
    if not reference_atom_is_ground(node.conclusion):
        raise CheckError(path, CheckReason.NON_GROUND_CONCLUSION, atom_text(node.conclusion))
    if apply_subst_atom(clause.head, node.instantiation) != node.conclusion:
        raise CheckError(
            path,
            CheckReason.HEAD_MISMATCH,
            f"instantiated head of '{clause.name}' is not {atom_text(node.conclusion)}",
        )
    if len(node.children) != len(clause.body):
        raise CheckError(
            path,
            CheckReason.PREMISE_MISMATCH,
            f"'{clause.name}' has {len(clause.body)} premises, proof supplies {len(node.children)}",
        )
    for i, (premise, child) in enumerate(zip(clause.body, node.children)):
        want = apply_subst_atom(premise, node.instantiation)
        if isinstance(premise, Builtin):
            if not isinstance(child, BuiltinLeaf):
                raise CheckError(path + (i,), CheckReason.PREMISE_MISMATCH, "comparison premise needs a builtin leaf")
            try:
                holds = eval_builtin(child.atom)
            except NonGroundBuiltin:
                raise CheckError(path + (i,), CheckReason.NON_GROUND_CONCLUSION, atom_text(child.atom)) from None
            except TypeMismatch as exc:
                raise CheckError(path + (i,), CheckReason.BUILTIN_FALSE, str(exc)) from None
            if not holds:
                raise CheckError(path + (i,), CheckReason.BUILTIN_FALSE, atom_text(child.atom))
            if child.atom != want:
                raise CheckError(
                    path + (i,),
                    CheckReason.PREMISE_MISMATCH,
                    f"leaf {atom_text(child.atom)} is not the instantiated premise {atom_text(want)}",
                )
        else:
            if not isinstance(child, ProofTree):
                raise CheckError(path + (i,), CheckReason.PREMISE_MISMATCH, "predicate premise needs a subproof")
            if child.conclusion != want:
                raise CheckError(
                    path + (i,),
                    CheckReason.PREMISE_MISMATCH,
                    f"child concludes {atom_text(child.conclusion)}, premise needs {atom_text(want)}",
                )
            _ref_check(kb, child, path + (i,))


# ---------------------------------------------------------------------------
# Reference serializer (for the serializer differential)
# ---------------------------------------------------------------------------


def reference_serialize(proof: ProofTree, q: Query) -> str:
    """`json.dumps` of the nested document: `ldlog.proof.serialize_proof` must give the same bytes.

    The bindings come from the reference matcher, `match_atoms`, not from
    `ldlog.proof.proof_bindings`, so the differential also checks the
    bindings that serialize_proof reads. The `tree` recurses once per proof
    level here and again in the JSON encoder, so this caps proof height near 500.
    """
    bindings = match_atoms(q.goal, proof.conclusion)
    assert bindings is not None, f"{atom_text(proof.conclusion)} is not an instance of {atom_text(q.goal)}"
    by_id = sorted(bindings.items(), key=lambda kv: kv[0].id)
    doc = {
        "query": q.name,
        "goal": atom_text(q.goal),
        "bindings": {meta.source_name: term_text(value) for meta, value in by_id},
        "render": render_proof(proof),
        "tree": reference_tree_doc(proof),
    }
    return json.dumps(doc)


def reference_tree_doc(node):
    if isinstance(node, BuiltinLeaf):
        return {"builtin": atom_text(node.atom)}
    return {
        "clause": node.clause_name,
        "conclusion": atom_text(node.conclusion),
        "children": [reference_tree_doc(c) for c in node.children],
    }


# ---------------------------------------------------------------------------
# Reference backward chaining (for the solver differential)
# ---------------------------------------------------------------------------


def reference_solve(kb, q, cfg: Optional[SolverConfig] = None) -> List[Solution]:
    """Recursive, substitution-based search: `ldlog.solver.solve` must agree.

    Each clause try renames the clause's variables x to x#tick through
    strings, unification keeps one idempotent substitution, and a pair of
    generators recurses per proof level. The same solutions must come back
    in the same order, with equal proofs, and the same errors with the same
    messages. The recursion caps proof height near 500.
    """
    cfg = cfg or SolverConfig()
    if isinstance(q.goal, Builtin):
        raise BuiltinNotUnifiable("a comparison cannot be a query goal")
    index: ArgIndex[Clause] = ArgIndex()
    for c in kb.clauses.values():
        index.add(c.head, c)
    metas = sorted((v for v in atom_free_vars(q.goal) if isinstance(v, Meta)), key=lambda m: m.id)
    ticks = itertools.count(1)
    solutions: List[Solution] = []
    seen = set()
    for s, node in _ref_goal(q.goal, {}, cfg.max_depth, index, ticks):
        proof = _ref_freeze(node, s)
        if proof is None:
            continue
        bindings = {m: apply_subst(m, s) for m in metas}
        if not all(map(reference_is_ground, bindings.values())):
            continue
        key = tuple(bindings[m] for m in metas)
        if key in seen:
            continue
        seen.add(key)
        solutions.append(Solution(bindings, proof))
        if cfg.solution_limit is not None and len(solutions) >= cfg.solution_limit:
            break
    return solutions


@dataclass
class _RefNode:
    clause_name: str
    head: Pred  # the renamed head
    varmap: Dict[str, Var]  # clause variable name -> its renamed variable
    children: tuple  # _RefNode | BuiltinLeaf, in body order


def _ref_rename(c: Clause, tick: int):
    varmap = {v.name: Var(f"{v.name}#{tick}") for v in clause_vars(c)}
    renaming: Substitution = {Var(name): fresh for name, fresh in varmap.items()}
    head = apply_subst_atom(c.head, renaming)
    body = tuple(apply_subst_atom(a, renaming) for a in c.body)
    return Clause(c.name, head, body), varmap


def _ref_goal(goal: Pred, s: Substitution, budget: int, index, ticks):
    if budget < 1:
        return
    keys = [(pos, arg) for pos, arg in enumerate(goal.args) if reference_is_ground(arg)]
    for clause in index.candidates(goal.symbol, keys):
        renamed, varmap = _ref_rename(clause, next(ticks))
        s1 = unify_atoms(goal, renamed.head, s)
        if s1 is None:
            continue
        for s2, by_index in _ref_items(list(enumerate(renamed.body)), s1, budget - 1, index, ticks):
            children = tuple(by_index[i] for i in range(len(renamed.body)))
            yield s2, _RefNode(clause.name, renamed.head, varmap, children)


def _ref_items(items, s: Substitution, budget: int, index, ticks):
    if not items:
        yield s, {}
        return
    (idx, atom), rest = items[0], items[1:]
    if isinstance(atom, Builtin):
        now = apply_subst_atom(atom, s)
        if reference_atom_is_ground(now):
            if eval_builtin(now):
                leaf = BuiltinLeaf(now)
                for s2, children in _ref_items(rest, s, budget, index, ticks):
                    yield s2, {idx: leaf, **children}
            return
        if any(isinstance(a, Pred) for _, a in rest):
            yield from _ref_items(rest + [(idx, atom)], s, budget, index, ticks)
            return
        raise FlounderedBuiltin(now)
    goal = apply_subst_atom(atom, s)
    for s2, node in _ref_goal(goal, s, budget, index, ticks):
        for s3, children in _ref_items(rest, s2, budget, index, ticks):
            yield s3, {idx: node, **children}


def _ref_freeze(node, s: Substitution):
    if isinstance(node, BuiltinLeaf):
        return node
    conclusion = apply_subst_atom(node.head, s)
    if not reference_atom_is_ground(conclusion):
        return None
    instantiation: Substitution = {}
    for name, fresh in node.varmap.items():
        value = apply_subst(fresh, s)
        if not reference_is_ground(value):
            return None
        instantiation[Var(name)] = value
    children = []
    for child in node.children:
        closed = _ref_freeze(child, s)
        if closed is None:
            return None
        children.append(closed)
    return ProofTree(node.clause_name, instantiation, conclusion, tuple(children))


# ---------------------------------------------------------------------------
# Random terms (for unification properties)
# ---------------------------------------------------------------------------

TERM_VARS = (Var("x"), Var("y"), Var("z"))
TERM_CONSTS = (StrLit("a"), StrLit("b"), StrLit("c"))
TERM_CTORS = (("f", 1), ("g", 2), ("h", 0))
UNIVERSE = TERM_CONSTS


def ground_unifiers(t1, t2):
    """All assignments over the constant universe making t1 equal t2."""
    vars_ = sorted(free_vars(t1) | free_vars(t2), key=str)
    found = []
    for values in itertools.product(UNIVERSE, repeat=len(vars_)):
        sigma = dict(zip(vars_, values))
        if apply_subst(t1, sigma) == apply_subst(t2, sigma):
            found.append(sigma)
    return found


def random_term(rng: random.Random, depth: int = 3):
    """Random term over three variables, three constants, three constructors."""
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        if rng.random() < 0.5:
            return rng.choice(TERM_VARS)
        return rng.choice(TERM_CONSTS)
    if roll < 0.40:
        return IntLit(rng.randint(0, 2))
    name, arity = rng.choice(TERM_CTORS)
    return App(name, tuple(random_term(rng, depth - 1) for _ in range(arity)))


def reference_term_text(t) -> str:
    """Recursive concrete syntax, one call per nesting level: `ldlog.terms.term_text` must agree."""
    if isinstance(t, App):
        return f"{t.constructor}({', '.join(map(reference_term_text, t.args))})" if t.args else t.constructor
    if isinstance(t, (Var, Meta)):
        return t.name if isinstance(t, Var) else t.source_name
    return quote_string(t.value) if isinstance(t, StrLit) else str(t.value)


def reference_is_ground(t) -> bool:
    """Recursive ground test, one call per nesting level: `ldlog.terms.is_ground` must agree."""
    if isinstance(t, (Var, Meta)):
        return False
    if isinstance(t, App):
        return all(map(reference_is_ground, t.args))
    return True


def reference_atom_is_ground(a) -> bool:
    """`ldlog.terms.atom_is_ground` must agree on every atom of terms."""
    if isinstance(a, Pred):
        return all(map(reference_is_ground, a.args))
    return reference_is_ground(a.lhs) and reference_is_ground(a.rhs)


def reference_free_vars(t) -> Set:
    """Recursive variable set: `ldlog.terms.free_vars` must agree."""
    if isinstance(t, (Var, Meta)):
        return {t}
    return set().union(*map(reference_free_vars, t.args)) if isinstance(t, App) else set()


def reference_well_formed(atom) -> bool:
    """Recursive well-formedness, one call per nesting level: `ldlog.terms._scan` must
    refuse a term of an atom this calls malformed, and `ldlog.kernel` reads only atoms
    it calls well formed. Those are a Pred named by a str, or a Builtin whose op is a
    key of OP_TEXT, whose terms are IntLits holding exactly an int, StrLits holding a
    str, and Vars, Metas and Apps named by a str, each App's args an iterable of such terms."""
    if type(atom) is Pred and type(atom.symbol) is str:
        terms = atom.args
    elif type(atom) is Builtin and type(atom.op) is str and atom.op in OP_TEXT:
        terms = (atom.lhs, atom.rhs)
    else:
        return False
    return _reference_terms_well_formed(terms)


def _reference_terms_well_formed(terms) -> bool:
    try:
        terms = tuple(terms)
    except TypeError:  # not iterable
        return False
    return all(map(_reference_term_well_formed, terms))


def _reference_term_well_formed(t) -> bool:
    kind = type(t)
    if kind is IntLit:
        return type(t.value) is int
    if kind is StrLit:
        return type(t.value) is str
    if kind is Var:
        return type(t.name) is str
    if kind is Meta:
        return type(t.source_name) is str
    return kind is App and type(t.constructor) is str and _reference_terms_well_formed(t.args)


def random_ground_term(rng: random.Random, depth: int = 2):
    t = random_term(rng, depth)
    return t if reference_is_ground(t) else rng.choice(TERM_CONSTS)


# ---------------------------------------------------------------------------
# Random statement ASTs (for parser round-trips)
# ---------------------------------------------------------------------------

_IDENTS = ("p", "q", "r", "edge", "path", "node_1", "Big", "_u")
_FIELDS = ("x1", "y1", "x2", "y2", "tag")
_STRINGS = ("a", "b", "left edge", 'quo"te', "back\\slash", "tab\there", "")


def random_term_ast(rng: random.Random, depth: int = 2, query: bool = False):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if query and rng.random() < 0.4:
            return IdentAst(rng.choice(("m?", "h?", "out?")))
        return IdentAst(rng.choice(_IDENTS))
    if roll < 0.55:
        return IntLit(rng.randint(-2**40, 2**40))
    if roll < 0.70:
        return StrLit(rng.choice(_STRINGS))
    if roll < 0.85:
        n = rng.randint(0, 3)
        return AppAst(rng.choice(_IDENTS), tuple(random_term_ast(rng, depth - 1, query) for _ in range(n)))
    return ProjAst(random_term_ast(rng, depth - 1, query), rng.choice(_FIELDS))


def random_atom_ast(rng: random.Random, query: bool = False, allow_cmp: bool = True):
    if allow_cmp and rng.random() < 0.25:
        op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
        return ParenTerm(CmpAst(op, random_term_ast(rng, 1, query), random_term_ast(rng, 1, query)))
    n = rng.randint(0, 3)
    return Application(rng.choice(_IDENTS), tuple(random_term_ast(rng, 2, query) for _ in range(n)))


def random_statement_ast(rng: random.Random):
    roll = rng.random()
    label = rng.choice((None, "s1", "lemma_2", "f10"))
    if roll < 0.30:
        return FactStmt(label, random_atom_ast(rng))
    if roll < 0.55:
        body = tuple(random_atom_ast(rng) for _ in range(rng.randint(1, 3)))
        return RuleStmt(label, random_atom_ast(rng, allow_cmp=False), body)
    if roll < 0.70:
        return QueryStmt(label, random_atom_ast(rng, query=True))
    if roll < 0.80:
        return UseStmt(tuple(rng.choice(_IDENTS) for _ in range(rng.randint(1, 3))))
    if roll < 0.90:
        n = rng.randint(1, 4)
        return StructStmt(rng.choice(("Rect", "Pair", "T_0")), tuple(_FIELDS[:n]))
    return DefStmt(rng.choice(("c1", "origin", "unit")), random_term_ast(rng, 2))


def random_program_ast(rng: random.Random, max_statements: int = 6) -> List:
    return [random_statement_ast(rng) for _ in range(rng.randint(0, max_statements))]


# ---------------------------------------------------------------------------
# Random safe programs (for solver/oracle differential runs)
# ---------------------------------------------------------------------------


def random_safe_program(rng: random.Random) -> Tuple[str, List[str], List[str]]:
    """Comparison-free program with range-restricted rules.

    Stays within: 6 constants, 4 binary predicates, 10 facts, 6 rules.
    Returns (text, predicate names, constant literals).
    """
    consts = [f'"c{i}"' for i in range(rng.randint(2, 5))]
    preds = [f"p{i}" for i in range(rng.randint(1, 3))]
    lines = []
    for _ in range(rng.randint(1, 8)):
        lines.append(f"{rng.choice(preds)}({rng.choice(consts)}, {rng.choice(consts)}).")
    rule_count = rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6))
    var_pool = ("x", "y", "z", "w")
    for _ in range(rule_count):
        body = []
        body_vars: List[str] = []
        for _ in range(rng.randint(1, 2)):
            args = []
            for _ in range(2):
                if rng.random() < 0.75:
                    v = rng.choice(var_pool)
                    body_vars.append(v)
                    args.append(v)
                else:
                    args.append(rng.choice(consts))
            body.append(f"{rng.choice(preds)}({args[0]}, {args[1]})")
        if body_vars:
            head_args = [rng.choice(body_vars) if rng.random() < 0.8 else rng.choice(consts) for _ in range(2)]
        else:
            head_args = [rng.choice(consts), rng.choice(consts)]
        lines.append(f"{rng.choice(preds)}({head_args[0]}, {head_args[1]}) :- {', '.join(body)}.")
    return "\n".join(lines) + "\n", preds, consts


def random_term_program(rng: random.Random, strings: Tuple[str, ...] = ('"a"',)) -> str:
    """Program with constructor terms, repeated variables and comparisons, plus two queries.

    Rules need not be range-restricted, so derivations may leave head
    variables unbound, comparisons may flounder or compare mixed types, and
    unification meets variables on both sides inside constructors. Constants
    are drawn from 0, 1, 2, h and the string literals in `strings`, given as
    source text.
    """
    arity = {f"p{i}": rng.randint(0, 2) for i in range(rng.randint(1, 3))}
    preds = list(arity)

    def term(depth: int, variables) -> str:
        roll = rng.random()
        if variables and roll < 0.45:
            return rng.choice(variables)
        if depth <= 0 or roll < 0.7:
            return rng.choice(("0", "1", "2", *strings, "h"))
        if rng.random() < 0.5:
            return f"f({term(depth - 1, variables)})"
        return f"g({term(depth - 1, variables)}, {term(depth - 1, variables)})"

    def atom(p: str, variables) -> str:
        return f"{p}({', '.join(term(2, variables) for _ in range(arity[p]))})"

    rule_vars = ("x", "y", "z")
    lines = [atom(rng.choice(preds), ()) + "." for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 4)):
        body = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
                body.append(f"({term(1, rule_vars)} {op} {term(1, rule_vars)})")
            else:
                body.append(atom(rng.choice(preds), rule_vars))
        lines.append(f"{atom(rng.choice(preds), rule_vars)} :- {', '.join(body)}.")
    rng.shuffle(lines)
    for i in range(2):
        lines.append(f"q{i}: {atom(rng.choice(preds), ('a?', 'b?'))}?")
    return "\n".join(lines) + "\n"


UNARY_PREDICATES = ("p0", "p1", "p2", "p3")


def random_unary_program(rng: random.Random) -> str:
    """Facts and rules over the four unary UNARY_PREDICATES and the integers 1 and 2.

    Each predicate has a fact with even odds. Each of three to five rules
    has one of three shapes: a head variable that no premise binds,
    p(x) :- q(y); a copy, p(x) :- q(x); or a join of two premises on one
    variable, p(x) :- q(x), r(x). Loose heads make the search keep every
    derivation. A join whose first premise is proved through a loose head
    binds that head's variable into the frame of the clause that proves the
    second premise, a later sibling, whose frame `_freeze` must read first.
    """
    lines = [f"{p}({rng.randint(1, 2)})." for p in UNARY_PREDICATES if rng.random() < 0.5]
    for _ in range(rng.randint(3, 5)):
        x, y = rng.sample("xyz", 2)
        p, q, r = (rng.choice(UNARY_PREDICATES) for _ in range(3))
        lines.append(rng.choice((f"{p}({x}) :- {q}({y}).", f"{p}({x}) :- {q}({x}).", f"{p}({x}) :- {q}({x}), {r}({x}).")))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def shuffled_safe_programs(rng: random.Random, count: int = 200, depth: int = 5, cap: int = 20_000):
    """(text, kb, queries) for `count` shuffled random_safe_programs.

    Programs of more than `cap` derivations at `depth` are skipped. The
    generator lists every fact before every rule; shuffled, rules with loose
    head arguments land between facts of their symbol. Each program gets two
    queries on its first predicate: p(a?, b?) and p(<a constant>, b?).
    """
    accepted = 0
    while accepted < count:
        text, preds, consts = random_safe_program(rng)
        lines = text.splitlines()
        rng.shuffle(lines)
        text = "\n".join(lines)
        kb, _ = compile_text(text)
        if enumeration_bound(kb, depth) > cap:
            continue
        accepted += 1
        queries = [
            Query("probe", Pred(preds[0], (first, Meta(1, "b?"))), {"a?": 0, "b?": 1})
            for first in (Meta(0, "a?"), StrLit(rng.choice(consts).strip('"')))
        ]
        yield text, kb, queries


def term_programs(rng: random.Random, count: int):
    """(text, kb, queries, depth) for `count` random_term_programs that elaborate.

    Each gets a depth bound from 1 to 4; programs of more than 2,000
    derivations at that depth are skipped.
    """
    accepted = 0
    while accepted < count:
        text = random_term_program(rng)
        try:
            kb, queries = compile_text(text)
        except LdlogError:
            continue
        depth = rng.randint(1, 4)
        if enumeration_bound(kb, depth) > 2_000:
            continue
        accepted += 1
        yield text, kb, queries, depth


def diamond_ladder(rungs: int, left: bool = True) -> str:
    """Reachability over the ladder r_i -> a_i, b_i -> r_{i+1}, with a query path(r_s, m?)? per rung s.

    There are 2 ** k paths from r_s to r_{s+k}, one proof shape each, but
    only 3 answers per rung. The recursive rule is left- or right-recursive.
    """
    step = "path(x, z), edge(z, y)" if left else "edge(x, z), path(z, y)"
    lines = ["r1: path(x, y) :- edge(x, y).", f"r2: path(x, y) :- {step}."]
    for i in range(rungs):
        for src, dst in ((f"r{i}", f"a{i}"), (f"r{i}", f"b{i}"), (f"a{i}", f"r{i + 1}"), (f"b{i}", f"r{i + 1}")):
            lines.append(f'edge("{src}", "{dst}").')
    lines += [f'q{s}: path("r{s}", m?)?' for s in range(rungs + 1)]
    return "\n".join(lines) + "\n"


def ground_probe(symbol: str, left: str, right: str) -> Pred:
    return Pred(symbol, (StrLit(left), StrLit(right)))


def enumeration_bound(kb, depth: int) -> int:
    """Upper bound on derivations the depth-bounded search can visit.

    Backward search enumerates every proof shape, so recursive rule sets
    can blow up combinatorially even when the set of distinct answers is
    tiny. proofs(sym, b) over-approximates the number of derivations of
    any goal on sym within budget b; tests reject programs whose bound is
    too large instead of timing out on them.
    """
    by_symbol: dict = {}
    for c in kb.clauses.values():
        by_symbol.setdefault(c.head.symbol, []).append(c)
    cap = 10**9
    memo: dict = {}

    def proofs(sym: str, budget: int) -> int:
        if budget < 1:
            return 0
        key = (sym, budget)
        if key in memo:
            return memo[key]
        total = 0
        for clause in by_symbol.get(sym, ()):
            branch = 1
            for atom in clause.body:
                if isinstance(atom, Builtin):
                    continue  # evaluated in place: one way through
                branch *= proofs(atom.symbol, budget - 1)
                if branch >= cap:
                    break
            total += branch
            if total >= cap:
                total = cap
                break
        memo[key] = total
        return total

    return max((proofs(s, depth) for s in by_symbol), default=0)


# ---------------------------------------------------------------------------
# The checker's import closure (tests/test_api.py pins it and the recursion
# in it; CI counts its lines and lists that recursion)
# ---------------------------------------------------------------------------


def kernel_closure(root: str = "kernel") -> List[Path]:
    """The source files of the ldlog modules that root (`kernel.py` by
    default) reaches through the package's own imports, itself included,
    sorted by name."""
    package = Path(ldlog.__file__).resolve().parent
    closure, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("ldlog")):
                module = (node.module or "").removeprefix("ldlog").lstrip(".")
                todo.extend([module] if module else [a.name for a in node.names])
    return sorted(package / f"{name}.py" for name in closure)


def self_referring_functions(root: str = "kernel") -> List[str]:
    """`module.function` for each function in root's import closure whose body
    names the function itself: the recursion left in the trusted base."""
    found = []
    for path in kernel_closure(root):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == node.name for stmt in node.body for n in ast.walk(stmt)
            ):
                found.append(f"{path.stem}.{node.name}")
    return sorted(found)


# ---------------------------------------------------------------------------
# Reference lexer: `parser._lex` as it was while it kept every token's start
# offset, one `re.Match` per token, copied with its helpers. The lexer tests
# compare `parser._lex`, its re-read offsets and every LexError with it.
# ---------------------------------------------------------------------------

_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)")
_STRING_BODY = r'[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'
_STRING_PREFIX = re.compile(_STRING_BODY)

# Skipped text, then one group per token kind; "bad" catches every character
# the others refuse, and "\Z" ends the input after trailing skipped text. The
# skip is greedy and some alternative always matches after it, so every
# token takes one match and no match backtracks into its skip.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*)*(?:"
    + "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("int", r"-?[0-9]+"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*\??"),
            ("punct", r":-|<=|>=|!=|[(),.?:<>=]"),
            ("str", f'"{_STRING_BODY}"'),
            ("bad", r"."),
        )
    )
    + r"|\Z)"
)
_INT, _IDENT, _PUNCT, _STR = (_TOKEN.groupindex[k] for k in ("int", "ident", "punct", "str"))
_KEYWORDS = frozenset(KEYWORDS)
_INT64_DIGITS = 18  # every literal of at most this many characters fits in int64


def reference_lex(source: str) -> Tuple[List[str], list, List[int]]:
    """Parallel lists of the tokens' kinds, values and start offsets.

    A punctuation token's kind is its own text. A literal token's value is
    read from `literals`, keyed by its text, so each spelling is converted
    once; a new spelling is keyed by (class, value) to the literal already
    made. The lists end with an "eof" entry just past the last token.
    """
    kinds: List[str] = []
    values: list = []
    starts: List[int] = []
    literals: dict = {}
    for m in _TOKEN.finditer(source):
        i = m.lastindex
        if i == _PUNCT:
            kind = value = m.group(i)
        elif i == _IDENT:
            value = m.group(i)
            kind = "kw" if value in _KEYWORDS else "ident"
        elif i == _INT:
            kind, text = "int", m.group(i)
            value = literals.get(text)
            if value is None:
                n = int(text) if len(text) <= _INT64_DIGITS else _int_value(text, source, m.start(i))
                value = literals[text] = literals.setdefault((IntLit, n), IntLit(n))
        elif i == _STR:
            kind, text = "str", m.group(i)
            value = literals.get(text)
            if value is None:
                body = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)], text[1:-1]) if "\\" in text else text[1:-1]
                value = literals[text] = literals.setdefault((StrLit, body), StrLit(body))
        elif i is None:  # the end of input, after any trailing skipped text
            break
        else:
            raise _bad_token(source, m.start(i))
        kinds.append(kind)
        values.append(value)
        starts.append(m.start(i))
    kinds.append("eof")
    values.append(None)
    starts.append(m.start())
    return kinds, values, starts


def _position(source: str, pos: int) -> Tuple[int, int]:
    """Line and column, both from 1, of offset pos; only skipped text holds newlines."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


_QUOTE_LIMIT = 24  # characters of an out-of-range literal that its error message quotes


def _int_value(text: str, source: str, pos: int) -> int:
    # int() refuses strings of more than 4,300 digits, and an int64 has at
    # most 19 significant digits: decide from those before converting
    digits = text.lstrip("-").lstrip("0")
    if len(digits) <= 19:
        value = int(digits or "0")
        value = -value if text[0] == "-" else value
        if INT64_MIN <= value <= INT64_MAX:
            return value
    if len(text) > _QUOTE_LIMIT:
        text = f"{text[:_QUOTE_LIMIT]}... ({len(text.lstrip('-'))} digits)"
    raise LexError(*_position(source, pos), f"integer literal out of range: {text}")


def _bad_token(source: str, pos: int) -> LexError:
    line, col = _position(source, pos)
    if source[pos] != '"':
        return LexError(line, col, f"illegal character {source[pos]!r}")
    # escapes are validated left to right before the closing quote is sought
    end = _STRING_PREFIX.match(source, pos + 1).end()
    if source.startswith("\\", end) and end + 1 < len(source):
        return LexError(line, col + end - pos, f"invalid escape sequence '\\{source[end + 1]}'")
    return LexError(line, col, "unterminated string literal")
