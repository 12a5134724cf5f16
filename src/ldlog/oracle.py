"""Forward-chaining fixpoint evaluation, used as a testing oracle.

Semi-naive bottom-up saturation (Bancilhon & Ramakrishnan 1986). Round 0
joins every rule against the facts. Each later round joins a rule
once per predicate premise whose symbol gained facts in the round before:
that premise ranges over those new facts only, the premises before it over
facts of still earlier rounds, and the premises after it over all facts,
so each match of a rule body is found in exactly one round. Facts sit in
an `ldlog.index.ArgIndex`; a lookup takes the shortest list among the
arguments that earlier premises made ground.

Joins share the solver's matcher: each rule is compiled into an
`ldlog.solver` slot template, a premise is unified with a candidate fact's
arguments by the solver's `_unify` in one frame of cells, and the trail is
undone before the next candidate. The join walks the premises with an
explicit stack, so Python's recursion limit does not bound a rule body's
length.

Rules must be range-restricted (every head or comparison variable occurs
in some predicate premise), which guarantees every derived atom is ground.
It does not make the fixpoint finite: a recursive rule that wraps a premise
variable in a constructor, such as `s: nat(f(x)) :- nat(x).`, derives ever
deeper terms, and `saturate` then runs until Python's recursion limit stops
it with a RecursionError, or without end.

A knowledge base is frozen, so its fixpoint is a function of it: the first
`saturate` keeps the facts and their index in `kb.compiled`, and every
later `saturate` or `oracle_answers` on that KB reads them from there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import LdlogError
from .index import ArgIndex
from .solver import _Call, _ground_args, _Template, _Test, _unify, _value
from .terms import (
    Atom,
    Builtin,
    KnowledgeBase,
    Meta,
    Pred,
    Substitution,
    atom_free_vars,
    eval_builtin,
    is_ground,
    loose_vars,
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
        loose = loose_vars(c)
        if loose:
            raise UnsafeRule(c.name, loose)
    plans = [_Plan.of(_Template(c), None) for c in rules]  # premises in body order
    facts: Set[Pred] = set()
    index: ArgIndex[_Entry] = ArgIndex()
    _add_round(index, facts, [c.head for c in kb.clauses.values() if not c.body], 0)
    new: Dict[Pred, None] = {}  # an ordered set: the next round's facts, in derivation order
    for plan in plans:
        _join(plan, index, facts, {}, 0, new)
    # premise symbol -> the plans that a round with new facts on it runs, built
    # when the symbol first gains facts (a rule of n premises has n such plans)
    triggered: Dict[str, List[_Plan]] = {}
    rnd = 0
    while new:
        rnd += 1
        delta = _add_round(index, facts, new, rnd)
        new = {}
        for symbol in delta:
            if symbol not in triggered:
                triggered[symbol] = [
                    _Plan.of(plan.template, i) for plan in plans for i, (call, _) in enumerate(plan.calls) if call.symbol == symbol
                ]
            for plan in triggered[symbol]:
                # a premise over earlier rounds matches nothing if its symbol had no
                # fact then; a symbol's list is in round order, so its first entry decides
                olds = (index.candidates(call.symbol, ()) for call, scope in plan.calls if scope == _OLD)
                if all(entries and entries[0][0] < rnd for entries in olds):
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


class _Plan(NamedTuple):
    """One join of a rule body: premises in match order, then comparisons in body order."""

    template: _Template
    calls: List[Tuple[_Call, str]]  # each premise with the facts it ranges over: _DELTA, _OLD or _ALL
    tests: List[_Test]

    @staticmethod
    def of(template: _Template, first: Optional[int]) -> "_Plan":
        """All premises over all facts, or premise `first` over the delta first."""
        premises = [a for _, a in template.body if type(a) is _Call]
        calls = [(a, _ALL if first is None or i > first else _OLD) for i, a in enumerate(premises) if i != first]
        if first is not None:
            calls.insert(0, (premises[first], _DELTA))
        return _Plan(template, calls, [a for _, a in template.body if type(a) is _Test])


def _join(
    plan: _Plan,
    index: ArgIndex[_Entry],
    facts: Set[Pred],
    delta: Dict[str, List[_Entry]],
    rnd: int,
    new: Dict[Pred, None],
) -> None:
    """Add to `new` every unknown head instance the plan derives in round rnd.

    Comparisons are evaluated once every premise has matched, up to the first false one.
    """
    template, calls, tests = plan
    symbol = template.clause.head.symbol
    cells = list(template.blank)  # the rule's one frame, at base 0
    trail: List[int] = []
    # depth-first over the premises with an explicit stack: for each premise
    # matched so far, or just opened, its remaining candidates, the trail
    # length before its match, its arguments and their count, and the round
    # its candidates must precede
    stack: List[Tuple[Iterator[_Entry], int, tuple, int, int]] = []
    k = 0  # the premise to open next
    while True:
        if k < len(calls):
            call, scope = calls[k]
            if scope == _DELTA:
                entries = delta.get(call.symbol, [])
            else:
                entries = index.candidates(call.symbol, _ground_args(cells, call, 0))
            stack.append((iter(entries), len(trail), call.args, len(call.args), rnd if scope == _OLD else rnd + 1))
        else:
            for t in tests:
                if not eval_builtin(Builtin(t.op, _value(cells, t.lhs, 0), _value(cells, t.rhs, 0))):
                    break
            else:
                head = Pred(symbol, tuple([_value(cells, a, 0) for a in template.head]))
                if head not in facts:
                    new[head] = None
        # move the innermost open premise to its next matching candidate,
        # closing each premise whose candidates run out; a premise undoes the
        # trail to its mark before each candidate, which also undoes every
        # binding made after it by premises closed since
        while stack:
            candidates, mark, args, n, limit = stack[-1]
            matched = False
            for born, fact in candidates:
                if len(trail) > mark:
                    for j in trail[mark:]:
                        cells[j] = None
                    del trail[mark:]
                if born >= limit:
                    break
                if len(fact.args) == n:
                    for a, f in zip(args, fact.args):
                        if not _unify(cells, trail, a, 0, f, 0):
                            break
                    else:
                        matched = True
                        break
            if matched:
                k = len(stack)
                break
            stack.pop()
        else:  # every premise is closed
            return


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
