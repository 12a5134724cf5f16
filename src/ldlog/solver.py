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
  comparison to flounder, which holds while every clause tried is
  range-restricted (`ldlog.terms.loose_vars`, the check `saturate` makes;
  the elaborator makes every fact ground): only a tried clause can finish
  non-ground or flounder. The first try of a clause with loose variables
  turns the KB's flag off for good, and the query starts again without it,
  since dropping derivations would renumber the clause tries that name a
  floundered variable.
- Certificates. `_tree` builds each clause application's ProofTree, with a
  read-only instantiation. When deduplicating, it runs as the application
  finishes, on its children's finished trees, and later derivations
  through it share the tree. Otherwise `_freeze` runs it once a derivation
  of the goal is complete: a finished application may still be non-ground.

The machine follows the WAM's split between compiled clauses and a
binding store (Ait-Kaci, "Warren's Abstract Machine: A Tutorial
Reconstruction", 1991):

- Slots. On its first try a clause is compiled into a template whose
  variables are integer slots, numbered by first occurrence (head, then
  body). A try allocates a frame of cells for them at the end of one store,
  so renaming the clause apart is an offset. A cell is None while unbound,
  else a (template term, frame base) pair: bindings share the clause's
  structure instead of copying it.
- Trail. Every binding is recorded on a trail. Backtracking undoes the
  trail down to the choice point's mark and cuts the store back to its
  length.
- Explicit stack. One loop drives the search over a continuation (the
  unsolved premises of each open clause application, innermost first) and
  a stack of choice points (a goal with its untried candidate clauses).
  Nothing recurses per proof level, so only the depth budget limits proof
  height.
- Per knowledge base. The head index and the templates are built on a
  KB's first `solve` and kept in `kb.compiled`; a KB's clauses never
  change, so every later query reuses them.

`ldlog.oracle.saturate` joins rule bodies on these templates, with `_unify`
and `_ground_args`.

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

from .errors import LdlogError
from .index import ArgIndex
from .proof import BuiltinLeaf, ProofTree
from .terms import (
    App,
    Builtin,
    Clause,
    KnowledgeBase,
    Meta,
    Pred,
    Query,
    Substitution,
    Var,
    atom_text,
    eval_builtin,
    is_ground,
    loose_vars,
)
from .unify import BuiltinNotUnifiable

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

    A ground fact proves the same way in every derivation, so its template
    holds the one ProofTree that all of them share (`fact`, else None).
    """

    __slots__ = ("clause", "head", "body", "keys", "blank", "fact")

    def __init__(self, clause: Clause):
        slots: dict = {}
        self.clause = clause
        self.head = _Call(clause.head, slots).args
        self.body = tuple((i, (_Call if isinstance(a, Pred) else _Test)(a, slots)) for i, a in enumerate(clause.body))
        self.keys = tuple(slots)  # the clause variable of each slot
        self.blank = (None,) * len(slots)
        self.fact = None if slots or clause.body else ProofTree(clause.name, _NO_BINDINGS, clause.head)


def _compiled(kb: KnowledgeBase) -> Tuple[ArgIndex, Dict[str, _Template], bool]:
    """kb's head index, its templates by clause name (each made on its clause's
    first try), and whether repeated answers may be dropped: no clause with
    loose variables has been tried yet."""
    compiled = kb.compiled.get("solver")
    if compiled is None:
        index: ArgIndex[Clause] = ArgIndex()
        for c in kb.clauses.values():
            index.add(c.head, c)
        compiled = kb.compiled["solver"] = (index, {}, True)
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


def _ground_args(cells: list, call: _Call, b: int) -> list:
    """(position, value) for each argument of call that is ground in the frame at b: an index key."""
    keys = []
    for pos, a in enumerate(call.args):
        if type(a) is int or type(a) is _Struct:
            a = _value(cells, a, b)
            if a is None:
                continue
        keys.append((pos, a))
    return keys


def _fill(t, values: list):
    """The Term that template term t stands for, given the value of each slot."""
    if type(t) is int:
        return values[t]
    if type(t) is _Struct:
        return App(t.constructor, tuple(_fill(a, values) for a in t.args))
    return t


def _tree(cells: list, node: "_Node", values: list, args: tuple, children) -> ProofTree:
    """node's clause application as a ProofTree, given its slot values, its
    conclusion's arguments and its children (a _Test becomes a leaf)."""
    template, base = node.template, node.base
    clause = template.clause
    conclusion = Pred(clause.head.symbol, args) if values else clause.head
    proofs = []
    for c in children:
        if type(c) is _Test:
            c = BuiltinLeaf(Builtin(c.op, _value(cells, c.lhs, base), _value(cells, c.rhs, base)))
        proofs.append(c)
    return ProofTree(clause.name, MappingProxyType(dict(zip(template.keys, values))), conclusion, tuple(proofs))


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


def _unify(cells: list, trail: list, t1, b1: int, t2, b2: int) -> bool:
    """Bind cells so that t1 (goal side, frame b1) equals t2 (head side, frame b2)."""
    stack = None
    while True:
        while type(t1) is int:
            v = cells[b1 + t1]
            if v is None:
                break
            t1, b1 = v
        while type(t2) is int:
            v = cells[b2 + t2]
            if v is None:
                break
            t2, b2 = v
        if type(t1) is int:
            j = b1 + t1
            if type(t2) is int:
                if b2 + t2 != j:
                    cells[j] = (t2, b2)
                    trail.append(j)
            elif type(t2) is _Struct and _occurs(cells, j, t2, b2):
                return False
            else:
                cells[j] = (t2, b2)
                trail.append(j)
        elif type(t2) is int:
            j = b2 + t2
            if type(t1) is _Struct and _occurs(cells, j, t1, b1):
                return False
            cells[j] = (t1, b1)
            trail.append(j)
        elif type(t1) is _Struct or type(t2) is _Struct:
            if (
                (type(t1) is not _Struct and type(t1) is not App)
                or (type(t2) is not _Struct and type(t2) is not App)
                or t1.constructor != t2.constructor
                or len(t1.args) != len(t2.args)
            ):
                return False
            if stack is None:
                stack = []
            # popped last first: a constructor's arguments right to left, as in unify
            stack.extend(zip(t1.args, repeat(b1), t2.args, repeat(b2)))
        elif t1 != t2:
            return False
        if not stack:
            return True
        t1, b1, t2, b2 = stack.pop()


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


class _Node:
    """A clause application of the current derivation.

    children[i] is the _Node proving body atom i, the shared ProofTree of
    the ground fact that proves it, or the _Test of a comparison that held.
    When deduplicating, it is instead the ProofTree of the finished clause
    application proving it. A slot is only current once its premise is
    solved on the present branch; backtracking leaves older entries behind.
    `call` is the choice point of the call that node proves (None at the root).
    """

    __slots__ = ("template", "base", "tick", "children", "call")

    def __init__(self, template: Optional[_Template], base: int, tick: int, size: int, call: Optional[list] = None):
        self.template = template
        self.base = base
        self.tick = tick
        self.children = [None] * size
        self.call = call


class _Restart(Exception):
    """The query must run again, on a search that keeps every derivation."""


class _Search:
    """One query's run: the store, the trail and the derivation being built."""

    def __init__(self, kb: KnowledgeBase, goal: Pred):
        slots: dict = {}
        self.kb = kb
        self.index, self.templates, self.dedup = _compiled(kb)
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
        # a continuation is (items, node, base, budget, next): the unsolved
        # (index, premise) pairs of node's body, its frame, the budget for
        # their subgoals, and the continuation of node's parent
        cont = (((0, self.goal),), self.root, 0, budget, None)
        # a choice point is [candidates, next position, call, call's frame,
        # call's index, node, budget for the body, continuation, trail mark,
        # store length, the arguments of the conclusions the call's finished
        # clause applications gave (a set made by the first, when deduplicating)]
        choices: list = []
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
                        if eval_builtin(Builtin(item.op, lhs, rhs)):
                            node.children[idx] = item
                            cont = (rest, node, base, budget, up)
                            continue
                    elif budget >= 1:
                        found = candidates(item.symbol, _ground_args(cells, item, base))
                        if found:
                            after = (rest, node, base, budget, up)
                            choices.append([found, 0, item, base, idx, node, budget - 1, after, len(trail), len(cells), None])
                    cont = None
            else:
                yield
            # backtrack: resume the newest choice point with its next candidate
            while choices:
                cp = choices[-1]
                found, i, call, gbase, idx, node, budget, after, mark, top, _ = cp
                n = len(found)
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
                        if dedup and template.keys and loose_vars(clause):
                            # the gate's one site: this KB now keeps every derivation
                            self.kb.compiled["solver"] = (self.index, templates, False)
                            raise _Restart
                    cells.extend(template.blank)
                    head = template.head
                    if len(head) != len(call.args):
                        continue
                    for g, h in zip(call.args, head):
                        if not _unify(cells, trail, g, gbase, h, top):
                            break
                    else:
                        break
                else:
                    choices.pop()
                    continue
                if i < n:
                    cp[1] = i
                else:
                    choices.pop()  # the last candidate: nothing left to resume
                if template.fact is not None:
                    node.children[idx] = template.fact
                    cont = after
                    break
                child = _Node(template, top, tick, len(template.body), cp)
                if not dedup:  # else its ProofTree goes there when it finishes
                    node.children[idx] = child
                cont = (template.body, child, top, budget, after)
                break
            else:
                return

    def _complete(self, node: "_Node") -> bool:
        """Put node's ProofTree in its parent, unless node's call has given that answer before.

        Only while deduplicating, when every slot is ground by now.
        A cell past node's frame belongs to a finished descendant, whose
        value `known` holds; a cell at or below the frame may have been
        filled by a frame since cut away, so its value is read afresh.
        """
        cells, known = self.cells, self.known
        template, base = node.template, node.base
        end = base + len(template.keys)
        values = []
        for j in range(base, end):
            t, b = cells[j]  # a ground term t is the value as it is
            if type(t) is int:
                k = b + t
                t = known[k] if k >= end else _value(cells, t, b)
            elif type(t) is _Struct:
                t = _value(cells, t, b)
            known[j] = t
            values.append(t)
        args = template.clause.head.args
        if values:
            args = tuple([values[a] if type(a) is int else _fill(a, values) for a in template.head])
        cp = node.call
        answers = cp[10]  # the arguments of each conclusion: the call fixes the symbol
        if answers is None:
            answers = cp[10] = set()
        seen = len(answers)
        answers.add(args)  # one hash, where `in` and add would take two
        if len(answers) == seen:
            return False
        cp[5].children[cp[4]] = _tree(cells, node, values, args, node.children)
        return True

    def _freeze(self) -> Optional[ProofTree]:
        """The current derivation as a ground ProofTree, or None if a variable is unbound."""
        cells = self.cells
        top = self.root.children[0]
        if type(top) is ProofTree:
            return top  # a ground fact, or built when the goal's clause application finished
        order = self._nodes()  # order[0] is top
        built: Dict[int, ProofTree] = {}
        known: Dict[int, object] = {}  # cell -> its value, for every frame frozen so far
        for node in reversed(order):  # every node after its children
            template, base = node.template, node.base
            values = []
            for j in range(base, base + len(template.keys)):
                cell = cells[j]
                if cell is None:
                    return None
                t, b = cell  # a ground term t is the value as it is
                if type(t) is int:
                    # bound to another cell, often of a child's frame, frozen already
                    v = known.get(b + t)
                    t = _value(cells, t, b) if v is None else v
                elif type(t) is _Struct:
                    t = _value(cells, t, b)
                if t is None:
                    return None
                known[j] = t
                values.append(t)
            args = tuple([_fill(a, values) for a in template.head])
            children = [built[id(c)] if type(c) is _Node else c for c in node.children]
            built[id(node)] = _tree(cells, node, values, args, children)
        return built[id(order[0])]

    def _nodes(self) -> List[_Node]:
        """Every _Node below the root, each before its children."""
        nodes, todo = [], [self.root]
        while todo:
            node = todo.pop()
            nodes.append(node)
            todo.extend([c for c in node.children if type(c) is _Node])
        return nodes[1:]

    def _names(self) -> dict:
        """The variable each cell stands for: x#k for clause variable x of the k-th try.

        The walk also meets nodes that backtracking left behind. Where two
        cover a cell, the later try is current: a frame is only ever
        allocated past every cell in use.
        """
        names = dict(enumerate(self.query_keys))
        for node in sorted(self._nodes(), key=lambda n: n.tick):
            for k, key in enumerate(node.template.keys):
                names[node.base + k] = Var(f"{key.name}#{node.tick}")
        return names


def solve(kb: KnowledgeBase, q: Query, cfg: Optional[SolverConfig] = None) -> List[Solution]:
    """Answer a query against the clauses of kb."""
    cfg = cfg or SolverConfig()
    if isinstance(q.goal, Builtin):
        raise BuiltinNotUnifiable("a comparison cannot be a query goal")
    try:
        return _solve(kb, q, cfg)
    except _Restart:
        return _solve(kb, q, cfg)


def _solve(kb: KnowledgeBase, q: Query, cfg: SolverConfig) -> List[Solution]:
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
