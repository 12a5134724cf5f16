"""Forward-chaining fixpoint evaluation, used as a testing oracle.

Semi-naive bottom-up saturation (Bancilhon & Ramakrishnan 1986). Round 0
joins every rule against the facts. Each later round joins a rule
once per predicate premise whose symbol gained facts in the round before:
that premise ranges over those new facts only, the premises before it over
facts of still earlier rounds, and the premises after it over all facts,
so each match of a rule body is found in exactly one round. Facts sit in
an `ldlog.index.ArgIndex`; a lookup takes the shortest list among the
arguments that earlier premises made ground. Facts are ground, so
premises are matched one way.

Rules must be range-restricted (every head or comparison variable occurs
in some predicate premise), which guarantees every derived atom is ground
and the fixpoint is finite over the program's constants.

A knowledge base is frozen, so its fixpoint is a function of it: the first
`saturate` keeps the facts and their index in `kb.compiled`, and every
later `saturate` or `oracle_answers` on that KB reads them from there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .errors import LdlogError
from .index import ArgIndex
from .terms import (
    Atom,
    Builtin,
    Clause,
    KnowledgeBase,
    Meta,
    Pred,
    Substitution,
    apply_subst,
    apply_subst_atom,
    atom_free_vars,
    eval_builtin,
    free_vars,
    is_ground,
    term_text,
)
from .unify import BuiltinNotUnifiable, match_atoms

# Not called here: traced benchmark runs (bench/run.py) wrap the name
# `ldlog.oracle.unify_atoms`, so it must stay importable from this module.
from .unify import unify_atoms  # noqa: F401

# An index entry: the round a fact was derived in, and the fact.
_Entry = Tuple[int, Pred]


class UnsafeRule(LdlogError):
    """A rule variable occurs only in its head or in comparisons."""

    def __init__(self, name: str, variables):
        names = sorted(v.name for v in variables)
        verb = "occurs" if len(names) == 1 else "occur"
        super().__init__(f"rule '{name}' is not range-restricted: {', '.join(names)} never {verb} in a predicate premise")
        self.name = name


class _Fixpoint(NamedTuple):
    facts: FrozenSet[Pred]
    index: ArgIndex[_Entry]  # every fact, filed with the round it was derived in


def saturate(kb: KnowledgeBase) -> FrozenSet[Pred]:
    """All ground atoms derivable from the clauses of kb, computed once per KB.

    Raises UnsafeRule (or TypeMismatch from a comparison) on every call, and
    keeps nothing, if the KB has no fixpoint to keep.
    """
    return _fixpoint(kb).facts


def _fixpoint(kb: KnowledgeBase) -> _Fixpoint:
    """kb's fixpoint and fact index, saturated on the KB's first call."""
    fixpoint = kb.compiled.get("oracle")
    if fixpoint is None:
        fixpoint = kb.compiled["oracle"] = _saturate(kb)
    return fixpoint


def _saturate(kb: KnowledgeBase) -> _Fixpoint:
    rules = [c for c in kb.clauses.values() if c.body]
    for c in rules:
        _check_range_restricted(c)
    facts: Set[Pred] = set()
    index: ArgIndex[_Entry] = ArgIndex()
    _add_round(index, facts, [c.head for c in kb.clauses.values() if not c.body], 0)
    new: Dict[Pred, None] = {}  # an ordered set: the next round's facts, in derivation order
    for c in rules:
        _join(_Plan.of(c, None), index, facts, {}, 0, new)
    # premise symbol -> the plans that a round with new facts on it runs
    triggered: Dict[str, List[_Plan]] = {}
    for c in rules:
        premises = [a for a in c.body if isinstance(a, Pred)]
        for i, a in enumerate(premises):
            triggered.setdefault(a.symbol, []).append(_Plan.of(c, i))
    rnd = 0
    while new:
        rnd += 1
        delta = _add_round(index, facts, new, rnd)
        new = {}
        for symbol in delta:
            for plan in triggered.get(symbol, ()):
                _join(plan, index, facts, delta, rnd, new)
    return _Fixpoint(frozenset(facts), index)


def _add_round(index: ArgIndex[_Entry], facts: Set[Pred], new, rnd: int) -> Dict[str, List[_Entry]]:
    """Index the facts not yet known as derived in round rnd; return the added entries by symbol."""
    added: Dict[str, List[_Entry]] = {}
    for fact in new:
        if fact in facts:
            continue
        facts.add(fact)
        entry = (rnd, fact)
        added.setdefault(fact.symbol, []).append(entry)
        index.add(fact, entry)
    return added


_DELTA, _OLD, _ALL = "delta", "old", "all"


class _Step(NamedTuple):
    premise: Pred
    scope: str  # _DELTA, _OLD or _ALL
    bound: tuple  # (position, argument) pairs ground once the earlier steps matched


class _Plan(NamedTuple):
    """One join of a rule body: premises in match order, then comparisons."""

    head: Pred
    steps: List[_Step]
    comparisons: List[Builtin]

    @staticmethod
    def of(c: Clause, first: Optional[int]) -> "_Plan":
        """All premises over all facts, or premise `first` over the delta first."""
        premises = [a for a in c.body if isinstance(a, Pred)]
        order = list(range(len(premises)))
        if first is not None:
            order.remove(first)
            order.insert(0, first)
        steps, seen = [], set()
        for i in order:
            a = premises[i]
            scope = _ALL if first is None or i > first else _DELTA if i == first else _OLD
            bound = tuple((pos, arg) for pos, arg in enumerate(a.args) if free_vars(arg) <= seen)
            steps.append(_Step(a, scope, bound))
            seen |= atom_free_vars(a)
        return _Plan(c.head, steps, [a for a in c.body if isinstance(a, Builtin)])


def _join(
    plan: _Plan,
    index: ArgIndex[_Entry],
    facts: Set[Pred],
    delta: Dict[str, List[_Entry]],
    rnd: int,
    new: Dict[Pred, None],
) -> None:
    """Add to `new` every unknown head instance the plan derives in round rnd.

    Comparisons are evaluated only once every premise has matched.
    """
    steps = plan.steps

    def walk(k: int, s: Substitution) -> None:
        if k == len(steps):
            if all(eval_builtin(c, s) for c in plan.comparisons):
                head = apply_subst_atom(plan.head, s)
                if head not in facts:
                    new[head] = None
            return
        premise, scope, bound = steps[k]
        if scope == _DELTA:
            entries = delta.get(premise.symbol, [])
        else:
            entries = index.candidates(premise.symbol, [(pos, apply_subst(arg, s)) for pos, arg in bound])
        limit = rnd if scope == _OLD else rnd + 1
        for born, fact in entries:
            if born >= limit:
                break
            s2 = match_atoms(premise, fact, s)
            if s2 is not None:
                walk(k + 1, s2)

    walk(0, {})


def _check_range_restricted(c: Clause) -> None:
    positive = set()
    for a in c.body:
        if isinstance(a, Pred):
            positive |= atom_free_vars(a)
    loose = (atom_free_vars(c.head) | _comparison_vars(c.body)) - positive
    if loose:
        raise UnsafeRule(c.name, loose)


def _comparison_vars(body) -> set:
    out = set()
    for a in body:
        if isinstance(a, Builtin):
            out |= atom_free_vars(a)
    return out


def oracle_answers(kb: KnowledgeBase, goal: Atom) -> List[Substitution]:
    """Every placeholder binding whose goal instance is in the fixpoint.

    Deterministic order: sorted by the rendered binding values.
    """
    if isinstance(goal, Builtin):
        raise BuiltinNotUnifiable("a comparison cannot be an oracle goal")
    saturate(kb)  # through the module name, so traced runs see every request for the fixpoint
    ground = [(pos, arg) for pos, arg in enumerate(goal.args) if is_ground(arg)]
    metas = sorted((v for v in atom_free_vars(goal) if isinstance(v, Meta)), key=lambda m: m.id)
    answers: Dict[tuple, Substitution] = {}
    for _, fact in _fixpoint(kb).index.candidates(goal.symbol, ground):
        bindings = match_atoms(goal, fact)
        if bindings is None:
            continue
        key = tuple(term_text(bindings[m]) for m in metas)
        answers.setdefault(key, bindings)
    return [answers[key] for key in sorted(answers)]
