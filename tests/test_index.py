"""The argument index shared by the solver and the fixpoint."""

import dataclasses
import random

import pytest

from ldlog import index as index_module
from ldlog.index import ArgIndex
from ldlog.kernel import App, IntLit, Meta, Pred, StrLit, Var, is_ground
from ldlog.oracle import saturate
from ldlog.proof import check_proof, render_proof
from ldlog.solver import SolverConfig, solve
from ldlog.terms import Clause, KnowledgeBase, Query, term_text
from support import compile_text


def all_solutions(text, name):
    kb, queries = compile_text(text)
    q = next(q for q in queries if q.name == name)
    sols = solve(kb, q, SolverConfig(solution_limit=None))
    for sol in sols:
        check_proof(kb, sol.proof)
    return sols


def s(value):
    return StrLit(value)


class TestLookup:
    def test_loose_head_keeps_its_place_between_ground_facts(self):
        text = 'f1: p("k", "a").\nr: p(k, x) :- q(k, x).\nf2: p("k", "b").\nf3: p("z", "d").\ng: q("k", "c").\nqq: p("k", m?)?'
        sols = all_solutions(text, "qq")
        assert [render_proof(sol.proof) for sol in sols] == ["f1", "r g", "f2"]

    def test_loose_entries_sit_in_every_bucket_in_insertion_order(self):
        index = ArgIndex()
        index.add(Pred("p", (s("a"),)), "f1")
        index.add(Pred("p", (Var("x"),)), "r")
        index.add(Pred("p", (s("b"),)), "f2")
        index.add(Pred("p", (s("a"),)), "f3")
        assert index.candidates("p", [(0, s("a"))]) == ["f1", "r", "f3"]
        assert index.candidates("p", [(0, s("b"))]) == ["r", "f2"]
        assert index.candidates("p", [(0, s("z"))]) == ["r"]  # no bucket: the loose list
        assert index.candidates("p", []) == ["f1", "r", "f2", "f3"]
        assert index.candidates("nope", [(0, s("a"))]) == []

    def test_constructor_head_with_a_variable_is_found(self):
        text = 'r: p(f(x)) :- q(x).\nb: p(f("b")).\ng: q("a").\nq0: p(f("a"))?\nq1: p(f("b"))?\nq2: p(f("c"))?'
        assert [render_proof(sol.proof) for sol in all_solutions(text, "q0")] == ["r g"]
        assert [render_proof(sol.proof) for sol in all_solutions(text, "q1")] == ["b"]
        assert all_solutions(text, "q2") == []

    def test_literals_of_different_types_are_distinct_keys(self):
        text = 'a: p(1).\nb: p("1").\nc: p(one).\nq0: p(1)?\nq1: p("1")?\nq2: p(one)?'
        for name, clause in (("q0", "a"), ("q1", "b"), ("q2", "c")):
            assert [render_proof(sol.proof) for sol in all_solutions(text, name)] == [clause]
        index = ArgIndex()
        for item, arg in (("a", IntLit(1)), ("b", s("1")), ("c", App("one"))):
            index.add(Pred("p", (arg,)), item)
        assert index.candidates("p", [(0, IntLit(1))]) == ["a"]
        assert index.candidates("p", [(0, s("1"))]) == ["b"]
        assert index.candidates("p", [(0, App("one"))]) == ["c"]

    def test_goal_ground_in_two_positions_gets_every_answer(self):
        text = (
            't1: t("a", "b", 1).\nt2: t("a", "c", 2).\nt3: t("d", "b", 3).\nt4: t("a", "b", 4).\n'
            'r: t(x, "b", z) :- u(x, z).\nu1: u("a", 5).\nu2: u("d", 6).\n'
            'qq: t("a", "b", m?)?'
        )
        sols = all_solutions(text, "qq")
        assert [term_text(v) for sol in sols for v in sol.bindings.values()] == ["1", "4", "5"]

    def test_shortest_list_wins(self):
        index = ArgIndex()
        for i in range(5):
            index.add(Pred("e", (s("hub"), IntLit(i))), f"hub{i}")
        index.add(Pred("e", (s("leaf"), IntLit(0))), "leaf")
        assert index.candidates("e", [(0, s("hub")), (1, IntLit(0))]) == ["hub0", "leaf"]
        assert index.candidates("e", [(0, s("leaf")), (1, IntLit(0))]) == ["leaf"]


class TestGrowth:
    def test_table_built_early_is_kept_current(self):
        # the saturate pattern: (round, fact) entries, looked up between rounds
        index = ArgIndex()
        index.add(Pred("path", (s("a"), s("b"))), (0, "ab"))
        assert index.candidates("path", [(0, s("a"))]) == [(0, "ab")]  # builds the position-0 table
        index.add(Pred("path", (s("b"), s("c"))), (1, "bc"))
        index.add(Pred("path", (s("a"), s("c"))), (1, "ac"))
        index.add(Pred("path", (s("a"), s("d"))), (2, "ad"))
        assert index.candidates("path", [(0, s("a"))]) == [(0, "ab"), (1, "ac"), (2, "ad")]
        assert index.candidates("path", [(0, s("b"))]) == [(1, "bc")]
        # a table built late sees every earlier entry, still round by round
        assert index.candidates("path", [(1, s("c"))]) == [(1, "bc"), (1, "ac")]

    def test_saturate_sees_facts_added_after_a_table_was_built(self):
        # round 0 looks b up by position 0 (for a("s")) while b has no facts;
        # h("v") then needs b("v"), which only arrives in round 1
        text = 'a0: a("s").\ne0: e("v").\nra: a(x) :- e(x).\nrb: b(x) :- e(x).\nrh: h(x) :- a(x), b(x).\n'
        kb, _ = compile_text(text)
        assert Pred("h", (s("v"),)) in saturate(kb)


class TestArities:
    def kb(self):
        return KnowledgeBase(
            clauses={
                "one": Clause("one", Pred("p", (s("x"),))),
                "two": Clause("two", Pred("p", (s("x"), s("y")))),
            }
        )

    def names(self, kb, goal):
        q = Query("q", goal, {"m?": 0})
        return [sol.proof.clause_name for sol in solve(kb, q, SolverConfig(solution_limit=None))]

    def test_one_symbol_at_two_arities(self):
        kb = self.kb()
        m = Meta(0, "m?")
        assert self.names(kb, Pred("p", (s("x"),))) == ["one"]
        assert self.names(kb, Pred("p", (s("x"), m))) == ["two"]
        assert self.names(kb, Pred("p", (m, s("y")))) == ["two"]
        assert self.names(kb, Pred("p", (s("x"), s("y"), m))) == []
        assert saturate(kb) == {Pred("p", (s("x"),)), Pred("p", (s("x"), s("y")))}

    def test_short_atoms_sit_in_no_bucket_of_a_later_position(self):
        index = ArgIndex()
        index.add(Pred("p", (s("x"),)), "one")
        index.add(Pred("p", (s("x"), s("y"))), "two")
        assert index.candidates("p", [(1, s("y"))]) == ["two"]
        assert index.candidates("p", [(1, s("z"))]) == []


class TestNoStaleIndex:
    def test_deleting_a_clause_between_calls_drops_its_answer(self):
        kb, queries = compile_text('f: p("a", "b").\ng: p("a", "c").\nq: p("a", m?)?')
        q = queries[0]
        cfg = SolverConfig(solution_limit=None)
        assert [sol.proof.clause_name for sol in solve(kb, q, cfg)] == ["f", "g"]
        kb = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n != "f"})
        assert [sol.proof.clause_name for sol in solve(kb, q, cfg)] == ["g"]


# ground values (literals and constructor terms) and loose ones (a variable, a constructor holding one)
GROUND = [IntLit(0), IntLit(1), StrLit("0"), StrLit("a"), App("c"), App("f", (IntLit(0),)), App("f", (StrLit("a"),))]
LOOSE = [Var("x"), Meta(0, "m?"), App("f", (Var("x"),))]


def brute_candidates(filed, symbol, keys):
    """What `candidates` returns, by filtering the (atom, item) pairs in insertion order."""

    def matching(pos, value):
        return [
            item
            for atom, item in filed
            if atom.symbol == symbol
            and pos < len(atom.args)
            and (not is_ground(atom.args[pos]) or atom.args[pos] == value)
        ]

    best = [item for atom, item in filed if atom.symbol == symbol]
    for pos, value in keys:
        entries = matching(pos, value)
        if len(entries) < len(best):
            best = entries
    return best


class TestAgainstBruteForce:
    """Seeded streams of adds and lookups: each lookup, whether it builds a table
    or reads one that later adds kept current, returns the list a filter of the
    items in insertion order gives, in content and in order."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        index = ArgIndex()
        filed = []
        for step in range(300):
            symbol = rng.choice("pq")
            if rng.random() < 0.6:
                # up to 3 arguments, so a lookup at a later position meets atoms too short for it
                args = tuple(rng.choice(LOOSE if rng.random() < 0.2 else GROUND) for _ in range(rng.randint(0, 3)))
                atom = Pred(symbol, args)
                index.add(atom, step)
                filed.append((atom, step))
            else:
                keys = [(pos, rng.choice(GROUND)) for pos in rng.sample(range(4), rng.randint(0, 3))]
                assert index.candidates(symbol, keys) == brute_candidates(filed, symbol, keys)
        for symbol in "pqr":
            for pos in range(4):
                for value in GROUND:
                    keys = [(pos, value)]
                    assert index.candidates(symbol, keys) == brute_candidates(filed, symbol, keys)


def staff_program(depts=6, per=4):
    """A `facts`-style KB: department and employee tables, shallow rules, and
    a reporting chain per department that `over` closes in several rounds."""
    lines = [
        "senior: senior(e, d) :- emp(e, d, s, a), (a >= 60).",
        "peer: peer(e, p) :- emp(e, d, s, a), emp(p, d, t, b), (t > s).",
        "high: high(e, f) :- dept(d, n, f), emp(e, d, s, a), (s >= 9000).",
        "over1: over(e, b) :- mgr(e, b).",
        "over2: over(e, c) :- over(e, b), mgr(b, c).",
        "watch: watch(e, c) :- senior(e, d), over(e, c).",
    ]
    for d in range(depts):
        lines.append(f'dept({d}, "d{d}", {d % 3}).')
        for j in range(per):
            e = 100 * d + j
            lines.append(f"emp({e}, {d}, {3000 + 2000 * j}, {30 + 10 * j}).")
            if j:
                lines.append(f"mgr({e}, {e - 1}).")
    lines += ["q0: emp(201, d?, s?, a?)?", "q1: senior(e?, 2)?", "q2: peer(101, p?)?"]
    lines += ["q3: high(e?, 1)?", "q4: over(103, c?)?", "q5: watch(e?, c?)?", "q6: emp(7, d?, s?, a?)?"]
    return "\n".join(lines)


class TestFilingAtLookup:
    """Each (symbol, position) table files each item at most once, and only the
    items added before its last lookup. Filing an item is one `is_ground` call,
    so the calls are counted against what each table's last lookup could see."""

    def count(self, monkeypatch, evaluate):
        grounds = 0
        real_is_ground = index_module.is_ground

        def counted_is_ground(t):
            nonlocal grounds
            grounds += 1
            return real_is_ground(t)

        added = {}  # (index, symbol) -> the atoms added, in order
        last = {}  # (index, symbol, position) -> how many atoms the symbol had at the last lookup there
        real_add, real_candidates = ArgIndex.add, ArgIndex.candidates

        def counted_add(index, atom, item):
            added.setdefault((index, atom.symbol), []).append(atom)
            real_add(index, atom, item)

        def counted_candidates(index, symbol, keys):
            keys = list(keys)
            for pos, _ in keys:
                last[index, symbol, pos] = len(added.get((index, symbol), ()))
            return real_candidates(index, symbol, keys)

        with monkeypatch.context() as m:
            m.setattr(index_module, "is_ground", counted_is_ground)
            m.setattr(ArgIndex, "add", counted_add)
            m.setattr(ArgIndex, "candidates", counted_candidates)
            evaluate()

        def fileable(index, symbol, pos, n=None):
            return sum(pos < len(atom.args) for atom in added.get((index, symbol), [])[:n])

        at_last_lookup = sum(fileable(*table, n) for table, n in last.items())
        ever_added = sum(fileable(*table) for table in last)  # what filing at each add would file
        return grounds, at_last_lookup, ever_added

    def test_saturate_files_up_to_each_tables_last_lookup(self, monkeypatch):
        kb, _ = compile_text(staff_program())
        grounds, at_last_lookup, ever_added = self.count(monkeypatch, lambda: saturate(kb))
        assert grounds == at_last_lookup
        # `over`'s position-0 table is read for `watch` in round 1 only, and
        # the facts `over` gains in later rounds are never filed there
        assert at_last_lookup < ever_added
        assert Pred("watch", (IntLit(303), IntLit(300))) in saturate(kb)

    def test_solve_files_each_clause_once(self, monkeypatch):
        kb, queries = compile_text(staff_program())
        cfg = SolverConfig(max_depth=8, solution_limit=None)

        def evaluate():
            for q in queries:
                for sol in solve(kb, q, cfg):
                    check_proof(kb, sol.proof)

        grounds, at_last_lookup, ever_added = self.count(monkeypatch, evaluate)
        assert grounds == at_last_lookup == ever_added  # every clause is added before the first lookup
        assert grounds > 0
        answers = {q.name: len(solve(kb, q, cfg)) for q in queries}
        assert answers == {"q0": 1, "q1": 1, "q2": 2, "q3": 2, "q4": 3, "q5": 18, "q6": 0}
