"""The argument index shared by the solver and the fixpoint."""

import dataclasses

from ldlog.index import ArgIndex
from ldlog.kernel import check_proof
from ldlog.oracle import saturate
from ldlog.proof import render_proof
from ldlog.solver import SolverConfig, solve
from ldlog.terms import App, Clause, IntLit, KnowledgeBase, Meta, Pred, Query, StrLit, Var, term_text
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
