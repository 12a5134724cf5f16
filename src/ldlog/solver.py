"""Depth-bounded backward chaining over a knowledge base's clauses.

The search is a depth-first traversal with chronological backtracking,
body atoms left to right. A goal tries only the clauses whose head can
match its ground arguments (an `ldlog.index.ArgIndex` over the heads),
still in knowledge-base order. The depth budget counts clause applications
along a path, so it bounds proof height; facts prove at budget 1.
Comparison premises consume no budget: a ground one is evaluated in
place, a non-ground one is delayed behind the remaining predicate premises
of its conjunction, and the query flounders with an error if none remain
to bind it.

Solutions arrive in discovery order, deduplicated by placeholder bindings,
each carrying a ground proof tree. Every derivation through a ground fact
shares that fact's one ProofTree.

Repeated answers (the duplicate-answer half of tabling: Tamaki & Sato,
1986; Chen & Warren, 1996). Each call activation, a goal with its
candidate clauses, keeps the answers its clause applications have
produced. When one finishes its body with an answer already in that set,
the search backtracks instead of running the continuation again: depth-first
search ran the continuation to the end after the first derivation of that
answer, and a later one hands it the same bindings and the same budget,
so it could only re-derive solutions already found. Search cost then grows
with answers times depth rather than with proof shapes, and solutions,
their order, their certificates and every error stay as without it.

- Gate. This needs every finished clause application to be ground and no
  comparison to flounder, which holds when every clause of the KB is
  range-restricted: `kb.loose_clause` is None, the check `saturate` makes
  (the elaborator makes every fact ground). A KB with a loose clause keeps
  every derivation on every query, since dropping derivations would
  renumber the clause tries that name a floundered variable.
- Certificates. A comparison that holds gets its BuiltinLeaf as it is
  evaluated. `_tree` builds each clause application's ProofTree, with a
  read-only instantiation, from the values `_slot_values` reads and its
  children's certificates. When deduplicating, it runs as the application
  finishes, and later derivations through it share the tree. Otherwise
  `_freeze` runs it once a derivation of the goal is complete: a finished
  application may still be non-ground.

Completed calls (the completed-table half of tabling). While repeated
answers are dropped, a KB also keeps the table of every tabled call that
has finished, and a later call of the same variant, in the same query or
any later query on the KB, replays that table instead of searching again.
A lemma proved for one query serves the next, as a lemma does in Lean.

- Stored. A call is tabled if every clause of its predicate is a rule and
  each argument is ground or an unbound cell that no other argument is,
  unless a call of its variant (the symbol, the arity and the ground
  arguments) is still open, as in left recursion. Its choice point stays
  on the choice stack after its last candidate is taken, so backtracking
  pops it, and stores its table, once the search above it is exhausted.
  The table holds the ProofTree of each answer, whose conclusion gives the
  answer's arguments, in the order the call gave them: the positions in a
  list of the query's tabled answers that the call's own answers map each
  to. A call left open by a solution limit or an error is not stored.
- Budget range. With B the call's budget, L the lowest budget of any call
  with candidates inside it, and `cut` whether a call inside it had
  candidates at budget 0, the table replays at a budget B' if B' ≥ B - L + 1
  and, when `cut`, B' ≤ B. Shifting every budget inside by B' - B leaves
  each call with candidates at budget 1 or more and each cut call cut, so
  the search inside is the same. A replay passes the table's L, shifted,
  and its `cut` on to the call around it. Calls in a continuation run
  while the call is open and count for it too; their budgets are at least
  B, so they only narrow its range.
- Replay. Each answer is a fact-like candidate: one `_unify` binds the
  call's free cells to its conclusion's arguments, and from there it takes
  the path of a matched ground fact: its shared ProofTree proves the call,
  and the continuation runs.
- Exact. Under the gate, a call's answers, their order and their
  certificates depend only on the KB, the variant and the budget range:
  the search inside a call never sees its continuation's bindings, which
  backtracking undoes, and every derivation it gives is ground. So every
  answer, order, certificate and error stays as without tables.

The machine follows the WAM's split between compiled clauses and a
binding store (Ait-Kaci, "Warren's Abstract Machine: A Tutorial
Reconstruction", 1991):

- Slots. On its first try a clause is compiled into a template whose
  variables are integer slots, numbered by first occurrence (head, then
  body). A try allocates a frame of cells for them at the end of one store,
  so renaming the clause apart is an offset. A cell is None while unbound,
  else a (template term, frame base) pair: bindings share the clause's
  structure instead of copying it. A ground fact has no variables, so it
  needs no frame and nothing compiled: its template's head is its own.
- Trail. Every binding is recorded on a trail. Backtracking undoes the
  trail down to the choice point's mark and cuts the store back to its
  length.
- Explicit stack. One loop drives the search over a continuation (the
  unsolved premises of each open clause application, innermost first) and
  a stack of choice points (a goal with its untried candidate clauses).
  Nothing recurses per proof level, so only the depth budget limits proof
  height.
- Per knowledge base. The head index is built on a KB's first `solve` and
  each clause's template on its first try; both are kept in `kb.compiled`,
  with the completed calls' tables. A KB's clauses never change, so every
  later query reuses them.

`ldlog.oracle.saturate` joins rule bodies on these templates, with `_unify`
and the index keys of `_call_keys`.

Unification agrees with `ldlog.unify.unify_atoms`: the occurs check is on,
arguments are unified left to right (a constructor's own arguments right
to left, as unify's stack takes them), and where two unbound variables
meet, the goal's is bound to the head's. Clause variables get names only
to report a floundered comparison: x#k for clause variable x in the k-th
clause try.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from .errors import BuiltinNotUnifiable, LdlogError
from .index import ArgIndex
from .kernel import (
    App,
    Builtin,
    BuiltinLeaf,
    Meta,
    Pred,
    ProofTree,
    Substitution,
    Var,
    atom_is_ground,
    is_ground,
)
from .terms import Clause, KnowledgeBase, Query, atom_text, eval_builtin

# Not called here: traced benchmark runs (bench/run.py) wrap the name
# `ldlog.solver.unify_atoms`, so it must stay importable from this module.
from .unify import unify_atoms  # noqa: F401


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


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------
#
# A template term is an int (a slot of the frame), a _Struct (a constructor
# application holding slots), or a ground Term, kept as it is.


class _Struct:
    """Constructor application whose arguments hold slots; fields as in App."""

    __slots__ = ("constructor", "args")

    def __init__(self, constructor: str, args: tuple):
        self.constructor = constructor
        self.args = args


class _Call:
    """Predicate premise (or query goal) over template terms."""

    __slots__ = ("symbol", "args")

    def __init__(self, atom: Pred, slots: dict):
        self.symbol = atom.symbol
        self.args = tuple(_compile(t, slots) for t in atom.args)


class _Test:
    """Comparison premise over template terms."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, atom: Builtin, slots: dict):
        self.op = atom.op
        self.lhs = _compile(atom.lhs, slots)
        self.rhs = _compile(atom.rhs, slots)


def _compile(t, slots: dict):
    if isinstance(t, (Var, Meta)):
        return slots.setdefault(t, len(slots))
    if isinstance(t, App) and not is_ground(t):
        return _Struct(t.constructor, tuple(_compile(a, slots) for a in t.args))
    return t


# The instantiation of every shared fact certificate: read-only, so that no
# answer's certificate can be changed through another's.
_NO_BINDINGS = MappingProxyType({})


class _Template:
    """A clause compiled against one frame: its variables are slots 0..n-1.

    A ground fact has no slots and nothing to compile: its template's head
    is the fact's own head arguments, ground terms being template terms as
    they are. It proves the same way in every derivation, so its template
    holds the one ProofTree that all of them share (`fact`, else None).
    """

    __slots__ = ("clause", "head", "body", "keys", "blank", "fact")

    def __init__(self, clause: Clause):
        self.clause = clause
        if not clause.body and atom_is_ground(clause.head):
            self.head, self.body, self.keys, self.blank = clause.head.args, (), (), ()
            self.fact = ProofTree(clause.name, _NO_BINDINGS, clause.head)
            return
        slots: dict = {}
        self.head = _Call(clause.head, slots).args
        self.body = tuple((i, (_Call if isinstance(a, Pred) else _Test)(a, slots)) for i, a in enumerate(clause.body))
        self.keys = tuple(slots)  # the clause variable of each slot
        self.blank = (None,) * len(slots)
        self.fact = None


def _compiled(kb: KnowledgeBase) -> Tuple[ArgIndex, Dict[str, _Template], bool, frozenset, dict]:
    """kb's head index, its templates by clause name (each made on its clause's
    first try; a ground fact's template is its own head, with its shared
    ProofTree), whether repeated answers may be dropped (kb has no loose
    clause), the symbols whose every clause is a rule, and the tables of
    finished calls by variant: each the lowest budget it replays at, the
    highest (None: no limit), the `_Search.proven` list of the query that
    stored it and the positions of its answers there, in the call's order."""
    compiled = kb.compiled.get("solver")
    if compiled is None:
        index: ArgIndex[Clause] = ArgIndex()
        for c in kb.clauses.values():
            index.add(c.head, c)
        facts = {c.head.symbol for c in kb.clauses.values() if not c.body}
        rule_only = frozenset(c.head.symbol for c in kb.clauses.values() if c.head.symbol not in facts)
        compiled = kb.compiled["solver"] = (index, {}, kb.loose_clause is None, rule_only, {})
    return compiled


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


def _value(cells: list, t, b: int, names: Optional[dict] = None):
    """The Term that template term t in the frame at b stands for.

    None if it is not ground, unless names gives a variable for each unbound cell.
    """
    while type(t) is int:
        v = cells[b + t]
        if v is None:
            return None if names is None else names[b + t]
        t, b = v
    if type(t) is _Struct:
        args = []
        for a in t.args:
            a = _value(cells, a, b, names)
            if a is None:
                return None
            args.append(a)
        return App(t.constructor, tuple(args))
    return t


def _call_keys(cells: list, call: _Call, b: int, tabled=()) -> Tuple[list, Optional[tuple]]:
    """(position, value) for each argument of call that is ground in the
    frame at b, its index keys; and its variant, the key of its table: its
    symbol, its arity and those keys, if the symbol is in tabled and every
    other argument is an unbound cell that no other argument is (else None)."""
    keys = []
    free: list = []
    variant = True
    for pos, a in enumerate(call.args):
        s = b
        while type(a) is int:
            v = cells[s + a]
            if v is None:
                break
            a, s = v
        if type(a) is int:
            if s + a in free:
                variant = False
            free.append(s + a)
            continue
        if type(a) is _Struct:
            a = _value(cells, a, s)
            if a is None:
                variant = False
                continue
        keys.append((pos, a))
    return keys, (call.symbol, len(call.args), tuple(keys)) if variant and call.symbol in tabled else None


def _fill(t, values: list):
    """The Term that template term t stands for, given the value of each slot."""
    if type(t) is int:
        return values[t]
    if type(t) is _Struct:
        return App(t.constructor, tuple(_fill(a, values) for a in t.args))
    return t


def _slot_values(cells: list, known: dict, node: "_Node") -> Optional[list]:
    """The value of each slot of node's frame, also written to `known`; None if one is unbound.

    `known` must hold every cell past node's frame, all from later tries:
    `_complete` reads node once its descendants have finished, `_freeze` reads
    the latest try first. A cell at or below the frame is read afresh: `known`
    may hold a stale value there, written by a frame since cut away.
    """
    base = node.base
    end = base + len(node.template.keys)
    values = []
    for j in range(base, end):
        cell = cells[j]
        if cell is None:
            return None
        t, b = cell  # a ground term t is the value as it is
        if type(t) is int:
            k = b + t
            t = known[k] if k >= end else _value(cells, t, b)
        elif type(t) is _Struct:
            t = _value(cells, t, b)
        if t is None:
            return None
        known[j] = t
        values.append(t)
    return values


def _tree(template: _Template, values: list, args: tuple, children) -> ProofTree:
    """A clause application as a ProofTree, given its slot values, its
    conclusion's arguments and its children's certificates."""
    clause = template.clause
    conclusion = Pred(clause.head.symbol, args) if values else clause.head
    return ProofTree(clause.name, MappingProxyType(dict(zip(template.keys, values))), conclusion, tuple(children))


def _occurs(cells: list, j: int, t: _Struct, b: int) -> bool:
    """Whether the unbound cell j occurs in t, read in the frame at b."""
    todo = [(t, b)]
    while todo:
        t, b = todo.pop()
        for a in t.args:
            ab = b
            while type(a) is int:
                k = ab + a
                v = cells[k]
                if v is None:
                    if k == j:
                        return True
                    break
                a, ab = v
            if type(a) is _Struct:
                todo.append((a, ab))
    return False


def _unify(cells: list, trail: list, args1: tuple, b1: int, args2: tuple, b2: int) -> bool:
    """Bind cells so that args1 (goal side, frame b1) equals args2 (head side, frame b2).

    False if their lengths differ. Arguments go left to right, each to its end
    before the next; bindings made before a failure stay on the trail.
    """
    if len(args1) != len(args2):
        return False
    stack: list = []  # empty again after each argument
    for t1, t2 in zip(args1, args2):
        s1, s2 = b1, b2
        while True:
            while type(t1) is int:
                v = cells[s1 + t1]
                if v is None:
                    break
                t1, s1 = v
            while type(t2) is int:
                v = cells[s2 + t2]
                if v is None:
                    break
                t2, s2 = v
            if type(t1) is int:
                j = s1 + t1
                if type(t2) is int:
                    if s2 + t2 != j:
                        cells[j] = (t2, s2)
                        trail.append(j)
                elif type(t2) is _Struct and _occurs(cells, j, t2, s2):
                    return False
                else:
                    cells[j] = (t2, s2)
                    trail.append(j)
            elif type(t2) is int:
                j = s2 + t2
                if type(t1) is _Struct and _occurs(cells, j, t1, s1):
                    return False
                cells[j] = (t1, s1)
                trail.append(j)
            elif type(t1) is _Struct or type(t2) is _Struct:
                if (
                    (type(t1) is not _Struct and type(t1) is not App)
                    or (type(t2) is not _Struct and type(t2) is not App)
                    or t1.constructor != t2.constructor
                    or len(t1.args) != len(t2.args)
                ):
                    return False
                # popped last first: a constructor's arguments right to left, as in unify
                stack.extend(zip(t1.args, repeat(s1), t2.args, repeat(s2)))
            elif t1 is not t2 and t1 != t2:
                return False
            if not stack:
                break
            t1, s1, t2, s2 = stack.pop()
    return True


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


class _Node:
    """A clause application of the current derivation.

    children[i] is the _Node proving body atom i, the shared ProofTree of
    the ground fact that proves it, or the BuiltinLeaf of a comparison that
    held, made as it was evaluated.
    When deduplicating, it is instead the ProofTree of the finished clause
    application proving it. A slot is only current once its premise is
    solved on the present branch; backtracking leaves older entries behind.
    `call` is the choice point of the call that node proves, kept only
    while deduplicating (else None, as at the root).
    """

    __slots__ = ("template", "base", "tick", "children", "call")

    def __init__(self, template: Optional[_Template], base: int, tick: int, size: int, call: Optional[list] = None):
        self.template = template
        self.base = base
        self.tick = tick
        self.children = [None] * size
        self.call = call


class _Search:
    """One query's run: the store, the trail and the derivation being built."""

    def __init__(self, kb: KnowledgeBase, goal: Pred):
        slots: dict = {}
        self.index, self.templates, self.dedup, self.rule_only, self.tables = _compiled(kb)
        # the ProofTree of each answer of a tabled call, in the order they are
        # built. Tables hold positions here, not the trees: a full garbage
        # collection then reaches the trees about in their order in memory.
        # Lists of trees per call made the collections during a 385-node
        # chain query about twice as slow (Python 3.11).
        self.proven: List[ProofTree] = []
        self.known: Dict[int, object] = {}  # cell -> its value, written when its clause application finishes
        self.goal = _Call(goal, slots)
        self.query_keys = tuple(slots)  # the query frame sits at base 0
        self.cells: list = [None] * len(slots)
        self.trail: List[int] = []
        self.root = _Node(None, 0, 0, 1)  # root.children[0] proves the goal

    def run(self, budget: int):
        """Yield once per derivation of the goal, with the store holding its bindings.

        While deduplicating, a derivation whose finished clause application
        repeats an answer its call gave before is dropped there.
        """
        cells, trail = self.cells, self.trail
        candidates = self.index.candidates
        templates = self.templates
        dedup = self.dedup
        tables = self.tables
        tabled = self.rule_only if dedup else ()
        opened = set()  # the variants of the tabled calls not finished yet
        # a continuation is (items, node, base, budget, next): the unsolved
        # (index, premise) pairs of node's body, its frame, the budget for
        # their subgoals, and the continuation of node's parent
        cont = (((0, self.goal),), self.root, 0, budget, None)
        # a choice point is [candidates, next position, call, call's frame,
        # call's index, node, budget for the body, continuation, trail mark,
        # store length, the call's answers, the call's record if it is
        # tabled]. The answers (a dict made by the first finished clause
        # application, when deduplicating) map each conclusion's arguments to
        # the position of its ProofTree in `proven`, read only if the call is
        # tabled. The record is (variant, low, cut) of the search around the
        # call, as they stood when it began. A tabled call's choice point stays
        # after its last candidate is taken: popping it, once the search above
        # it is exhausted, stores the call's table. A replayed table's choice
        # point has its positions for candidates, None for the budget and its
        # `proven` list in place of the answers. A table's answer, once bound,
        # takes the path of a matched ground fact.
        choices: list = []
        low, cut = budget, False  # for the innermost open tabled call: the lowest budget with candidates, a cut at 0
        tick = 0
        while True:
            if cont is not None:
                items, node, base, budget, up = cont
                if not items:
                    if up is None or not dedup or self._complete(node):
                        cont = up
                        continue
                    cont = None  # an answer node's call gave before: nothing new follows
                else:
                    idx, item = items[0]
                    rest = items[1:]
                    if type(item) is _Test:
                        lhs = _value(cells, item.lhs, base)
                        rhs = _value(cells, item.rhs, base)
                        if lhs is None or rhs is None:
                            if any(type(later) is _Call for _, later in rest):
                                cont = (rest + (items[0],), node, base, budget, up)
                                continue
                            names = self._names()
                            now = Builtin(item.op, _value(cells, item.lhs, base, names), _value(cells, item.rhs, base, names))
                            raise FlounderedBuiltin(now)
                        now = Builtin(item.op, lhs, rhs)
                        if eval_builtin(now):
                            node.children[idx] = BuiltinLeaf(now)
                            cont = (rest, node, base, budget, up)
                            continue
                    elif budget >= 1:
                        keys, variant = _call_keys(cells, item, base, tabled)
                        table = tables.get(variant)
                        if table is not None and table[0] <= budget and (table[1] is None or budget <= table[1]):
                            found, body, answers, variant = table[3], None, table[2], None  # replayed, so not tabled again
                            if budget - table[0] + 1 < low:
                                low = budget - table[0] + 1
                            if table[1] is not None:
                                cut = True
                        else:
                            found, body, answers = candidates(item.symbol, keys), budget - 1, None
                        if found:
                            if budget < low:
                                low = budget
                            record = None
                            if variant is not None and variant not in opened:
                                opened.add(variant)
                                record = (variant, low, cut)
                                low, cut = budget, False
                            after = (rest, node, base, budget, up)
                            choices.append([found, 0, item, base, idx, node, body, after, len(trail), len(cells), answers, record])
                    elif not cut and opened and candidates(item.symbol, _call_keys(cells, item, base)[0]):
                        cut = True
                    cont = None
            else:
                yield
            # backtrack: resume the newest choice point with its next candidate
            while choices:
                cp = choices[-1]
                found, i, call, gbase, idx, node, budget, after, mark, top, answers, record = cp
                n = len(found)
                if budget is None:  # each answer of a finished call's table proves the call as a fact does
                    for j in trail[mark:]:
                        cells[j] = None
                    del trail[mark:]
                    del cells[top:]
                    fact = answers[found[i]]
                    i += 1
                    # binds the call's free cells: the conclusion is an instance of the call
                    _unify(cells, trail, call.args, gbase, fact.conclusion.args, 0)
                else:
                    while i < n:
                        for j in trail[mark:]:
                            cells[j] = None
                        del trail[mark:]
                        del cells[top:]
                        clause = found[i]
                        i += 1
                        tick += 1
                        template = templates.get(clause.name)
                        if template is None:
                            template = templates[clause.name] = _Template(clause)
                        cells.extend(template.blank)
                        if _unify(cells, trail, call.args, gbase, template.head, top):
                            break
                    else:
                        choices.pop()
                        if record is not None:  # the search above it is exhausted: its call has finished
                            variant, up_low, up_cut = record
                            # the call's budget is budget + 1
                            tables[variant] = (budget + 2 - low, budget + 1 if cut else None, self.proven, tuple(answers.values()) if answers else ())
                            opened.discard(variant)
                            low, cut = min(low, up_low), cut or up_cut
                        continue
                    fact = template.fact
                if i < n or record is not None:
                    cp[1] = i
                else:
                    choices.pop()  # the last candidate: nothing left to resume
                if fact is not None:
                    node.children[idx] = fact
                    cont = after
                    break
                if dedup:  # its ProofTree goes in node when it finishes
                    child = _Node(template, top, tick, len(template.body), cp)
                else:  # node holds child and cp holds node, so child holding cp would make a cycle
                    child = node.children[idx] = _Node(template, top, tick, len(template.body))
                cont = (template.body, child, top, budget, after)
                break
            else:
                return

    def _complete(self, node: "_Node") -> bool:
        """Put node's ProofTree in its parent, and in `proven` if node's call
        is tabled, unless node's call has given that answer before.

        Only while deduplicating, when every slot is ground by now.
        """
        template = node.template
        values = _slot_values(self.cells, self.known, node)
        args = template.clause.head.args
        if values:
            args = tuple([values[a] if type(a) is int else _fill(a, values) for a in template.head])
        cp = node.call
        answers = cp[10]  # keyed by each conclusion's arguments: the call fixes the symbol
        if answers is None:
            answers = cp[10] = {}
        seen = len(answers)
        answers.setdefault(args, len(self.proven))  # one hash, where `in` and a store would take two
        if len(answers) == seen:
            return False
        tree = cp[5].children[cp[4]] = _tree(template, values, args, node.children)
        if cp[11] is not None:
            self.proven.append(tree)
        return True

    def _freeze(self) -> Optional[ProofTree]:
        """The current derivation as a ground ProofTree, or None if a variable is unbound."""
        top = self.root.children[0]
        if type(top) is ProofTree:
            return top  # a ground fact, or built when the goal's clause application finished
        built: Dict[int, ProofTree] = {}
        known: Dict[int, object] = {}  # cell -> its value, for every frame frozen so far
        # the latest try first: each frame after every frame past it (a later
        # sibling's, say), each node after its children
        for node in reversed(self._nodes()):
            values = _slot_values(self.cells, known, node)
            if values is None:
                return None
            args = tuple([_fill(a, values) for a in node.template.head])
            children = [built[id(c)] if type(c) is _Node else c for c in node.children]
            built[id(node)] = _tree(node.template, values, args, children)
        return built[id(top)]

    def _nodes(self) -> List[_Node]:
        """Every _Node below the root, in the order of their clause tries."""
        nodes, todo = [], [self.root]
        while todo:
            node = todo.pop()
            nodes.append(node)
            todo.extend([c for c in node.children if type(c) is _Node])
        return sorted(nodes[1:], key=lambda n: n.tick)

    def _names(self) -> dict:
        """The variable each cell stands for: x#k for clause variable x of the k-th try.

        The walk also meets nodes that backtracking left behind. Where two
        cover a cell, the later try is current: a frame is only ever
        allocated past every cell in use.
        """
        names = dict(enumerate(self.query_keys))
        for node in self._nodes():
            for k, key in enumerate(node.template.keys):
                names[node.base + k] = Var(f"{key.name}#{node.tick}")
        return names


def solve(kb: KnowledgeBase, q: Query, cfg: Optional[SolverConfig] = None) -> List[Solution]:
    """Answer a query against the clauses of kb."""
    cfg = cfg or SolverConfig()
    if isinstance(q.goal, Builtin):
        raise BuiltinNotUnifiable("a comparison cannot be a query goal")
    search = _Search(kb, q.goal)
    metas = sorted((k for k in search.query_keys if isinstance(k, Meta)), key=lambda m: m.id)
    slots = [search.query_keys.index(m) for m in metas]
    cells = search.cells
    solutions: List[Solution] = []
    seen = set()
    for _ in search.run(cfg.max_depth):
        key = tuple(_value(cells, k, 0) for k in slots)
        if any(v is None for v in key) or key in seen:
            continue
        proof = search._freeze()
        if proof is None:
            continue  # derivation left a variable free; no ground certificate
        seen.add(key)
        solutions.append(Solution(dict(zip(metas, key)), proof))
        if cfg.solution_limit is not None and len(solutions) >= cfg.solution_limit:
            break
    return solutions
