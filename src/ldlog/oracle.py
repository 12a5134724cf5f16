"""Forward-chaining fixpoint evaluation, used as a testing oracle.

Semi-naive bottom-up saturation (Bancilhon & Ramakrishnan 1986). A join
is named by a rule and the position of its delta premise. Round 0 joins
every rule against the facts, with no delta premise. Each later round
joins a rule once per predicate premise whose symbol gained facts in the
round before: that premise ranges over those new facts only, the premises
before it over facts of still earlier rounds, and the premises after it
over all facts, so each match of a rule body is found in exactly one
round. Facts sit in an `ldlog.index.ArgIndex`; a lookup takes the
shortest list among the arguments that earlier premises made ground.

Joins share the solver's matcher: each rule is compiled into an
`ldlog.solver` slot template, a premise is unified with a candidate fact's
arguments by one `_unify` call in one frame of cells, and the trail is
undone before the next candidate. The join walks the premises with an
explicit stack, so Python's recursion limit does not bound a rule body's
length.

Answer lookups share the same matcher: `oracle_answers` compiles its goal
into one `_Call`, takes its index keys from `_call_keys`, and unifies the
goal with each candidate fact in a fresh frame of cells. Every fixpoint
fact is ground, so a successful match binds each goal cell directly to
`(its subterm of the fact, 0)`, and `cells[j][0]` is slot j's binding.

Rules must be range-restricted (every head or comparison variable occurs
in some predicate premise) and facts ground, which guarantees every derived
atom is ground; `saturate` raises UnsafeRule on `kb.loose_clause` otherwise.
It does not make the fixpoint finite: a recursive rule that wraps a premise
variable in a constructor, such as `s: nat(f(x)) :- nat(x).`, derives ever
deeper terms, and `saturate` then runs without end, its memory growing with
each round.

A knowledge base is frozen, so its fixpoint is a function of it: the first
`saturate` keeps the facts and their index in `kb.compiled`, and every
later `saturate` or `oracle_answers` on that KB reads them from there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import BuiltinNotUnifiable, LdlogError
from .index import ArgIndex
from .kernel import Atom, Builtin, Meta, Pred, Substitution
from .solver import _Call, _call_keys, _Template, _Test, _unify, _value
from .terms import Clause, KnowledgeBase, eval_builtin, loose_vars, term_text

# Not called here: traced benchmark runs (bench/run.py) wrap the name
# `ldlog.oracle.unify_atoms`, so it must stay importable from this module.
from .unify import unify_atoms  # noqa: F401

# An index entry: the round a fact was derived in, and the fact.
_Entry = Tuple[int, Pred]
# A rule compiled for joins: its template, its premises and its comparisons, in body order.
_Rule = Tuple[_Template, List[_Call], List[_Test]]


class UnsafeRule(LdlogError):
    """A clause variable occurs only in its head or in comparisons: for a fact, anywhere."""

    def __init__(self, clause: Clause, variables):
        names = sorted(v.name for v in variables)
        listed = ", ".join(names)
        if clause.body:
            verb = "occurs" if len(names) == 1 else "occur"
            message = f"rule '{clause.name}' is not range-restricted: {listed} never {verb} in a predicate premise"
        else:
            message = f"fact '{clause.name}' is not ground: {listed}"
        super().__init__(message)
        self.name = clause.name


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
    if kb.loose_clause is not None:
        raise UnsafeRule(kb.loose_clause, loose_vars(kb.loose_clause))
    rules = [c for c in kb.clauses.values() if c.body]
    compiled: List[_Rule] = []
    premises: Dict[str, List[Tuple[_Rule, int]]] = {}  # symbol -> (rule, position) of each premise on it
    for c in rules:
        template = _Template(c)
        calls = [a for _, a in template.body if type(a) is _Call]
        rule = (template, calls, [a for _, a in template.body if type(a) is _Test])
        compiled.append(rule)
        for i, call in enumerate(calls):
            premises.setdefault(call.symbol, []).append((rule, i))
    facts: Set[Pred] = set()
    index: ArgIndex[_Entry] = ArgIndex()
    _add_round(index, facts, [c.head for c in kb.clauses.values() if not c.body], 0)
    new: Dict[Pred, None] = {}  # an ordered set: the next round's facts, in derivation order
    for rule in compiled:
        _join(rule, None, index, facts, {}, 0, new)
    rnd = 0
    while new:
        rnd += 1
        delta = _add_round(index, facts, new, rnd)
        new = {}
        for symbol in delta:
            for rule, first in premises.get(symbol, ()):
                # a premise over earlier rounds matches nothing if its symbol had no
                # fact then; a symbol's list is in round order, so its first entry decides
                olds = (index.candidates(call.symbol, ()) for call in rule[1][:first])
                if all(entries and entries[0][0] < rnd for entries in olds):
                    _join(rule, first, index, facts, delta, rnd, new)
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


def _join(
    rule: _Rule,
    first: Optional[int],
    index: ArgIndex[_Entry],
    facts: Set[Pred],
    delta: Dict[str, List[_Entry]],
    rnd: int,
    new: Dict[Pred, None],
) -> None:
    """Add to `new` every unknown head instance the rule derives in round rnd.

    Premise `first` ranges over the delta (the facts of round rnd) and is
    matched first; the others follow in body order, those before it over
    earlier rounds and those after it over all facts. In round 0 `first` is
    None and every premise ranges over all facts. Comparisons are evaluated
    once every premise has matched, up to the first false one.
    """
    template, calls, tests = rule
    symbol = template.clause.head.symbol
    cells = list(template.blank)  # the rule's one frame, at base 0
    trail: List[int] = []
    # depth-first over the premises with an explicit stack: for each premise
    # matched so far, or just opened, its remaining candidates, the trail
    # length before its match, its arguments, and the round its candidates
    # must precede
    stack: List[Tuple[Iterator[_Entry], int, tuple, int]] = []
    k = 0  # the premise to open next, counted in match order
    while True:
        if k < len(calls):
            if first is None or k > first:
                i, limit = k, rnd + 1  # over all facts
            elif k:
                i, limit = k - 1, rnd  # before the delta premise: over earlier rounds
            else:
                i, limit = first, rnd + 1  # the delta premise
            call = calls[i]
            entries = delta[call.symbol] if i == first else index.candidates(call.symbol, _call_keys(cells, call, 0)[0])
            stack.append((iter(entries), len(trail), call.args, limit))
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
            candidates, mark, args, limit = stack[-1]
            matched = False
            for born, fact in candidates:
                if len(trail) > mark:
                    for j in trail[mark:]:
                        cells[j] = None
                    del trail[mark:]
                if born >= limit:
                    break
                if _unify(cells, trail, args, 0, fact.args, 0):
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
    slots: dict = {}  # each goal variable's slot
    call = _Call(goal, slots)
    blank = [None] * len(slots)
    metas = [slots[m] for m in sorted((v for v in slots if isinstance(v, Meta)), key=lambda m: m.id)]
    answers: Dict[tuple, Substitution] = {}
    for _, fact in _fixpoint(kb).index.candidates(goal.symbol, _call_keys(blank, call, 0)[0]):
        cells = blank[:]
        if not _unify(cells, [], call.args, 0, fact.args, 0):
            continue
        # a fact is ground, so each goal cell holds (its subterm of the fact, 0)
        key = tuple([term_text(cells[j][0]) for j in metas])
        if key not in answers:
            answers[key] = {v: cells[j][0] for v, j in slots.items()}
    return [answers[key] for key in sorted(answers)]
