"""Backward-chaining search: order, depth, builtins, and certificates."""

import random

import pytest

from ldlog.proof import BuiltinLeaf, check_proof, render_proof
from ldlog.solver import FlounderedBuiltin, SolverConfig, solve
from ldlog.oracle import oracle_answers, saturate
from ldlog.terms import Builtin, IntLit, Meta, Pred, Query, StrLit, TypeMismatch, term_text
from support import compile_text, enumeration_bound, random_safe_program

REACH = """
r1: path(x, y) :- edge(x, y).
r2: path(x, y) :- path(x, z), edge(z, y).
f1: edge("a", "b").
f2: edge("b", "c").
f3: edge("b", "d").
q0: path("a", "c")?
q1: path("b", m?)?
q2: path("c", "d")?
"""


def solve_named(text, name, **cfg_kwargs):
    kb, queries = compile_text(text)
    q = next(q for q in queries if q.name == name)
    return kb, q, solve(kb, q, SolverConfig(**cfg_kwargs))


class TestSearchOrder:
    def test_first_proof_follows_clause_order(self):
        _, _, sols = solve_named(REACH, "q0")
        assert render_proof(sols[0].proof) == "r2 (r1 f1) f2"

    def test_all_solutions_in_discovery_order(self):
        _, q, sols = solve_named(REACH, "q1", solution_limit=None)
        m = Meta(q.placeholder_map["m?"], "m?")
        assert [s.bindings[m] for s in sols] == [StrLit("c"), StrLit("d")]
        assert [render_proof(s.proof) for s in sols] == ["r1 f2", "r1 f3"]

    def test_unprovable_goal_has_no_solutions(self):
        _, _, sols = solve_named(REACH, "q2", solution_limit=None)
        assert sols == []

    def test_default_limit_is_first_solution(self):
        _, _, sols = solve_named(REACH, "q1")
        assert len(sols) == 1

    def test_solution_limit_two(self):
        _, q, sols = solve_named(REACH, "q1", solution_limit=2)
        m = Meta(q.placeholder_map["m?"], "m?")
        assert {term_text(s.bindings[m]) for s in sols} == {'"c"', '"d"'}

    def test_duplicate_bindings_deduplicated(self):
        text = 'a: p(x) :- e(x).\nb: p(x) :- f(x).\ne1: e("v").\nf1: f("v").\nq: p(m?)?'
        _, _, sols = solve_named(text, "q", solution_limit=None)
        assert len(sols) == 1
        assert render_proof(sols[0].proof) == "a e1"


class TestDepthBudget:
    def chain(self, n):
        lines = ['p1("c").']
        for k in range(2, n + 1):
            lines.append(f"p{k}(x) :- p{k - 1}(x).")
        lines.append(f'q: p{n}("c")?')
        return "\n".join(lines)

    def test_fact_proves_at_depth_one(self):
        _, _, sols = solve_named('f: p("c").\nq: p("c")?', "q", max_depth=1)
        assert len(sols) == 1

    def test_height_six_inside_default_budget(self):
        _, _, sols = solve_named(self.chain(6), "q")
        assert len(sols) == 1

    def test_height_seven_needs_larger_budget(self):
        _, _, sols = solve_named(self.chain(7), "q")
        assert sols == []
        _, _, sols = solve_named(self.chain(7), "q", max_depth=7)
        assert len(sols) == 1

    def test_reach_goal_needs_height_three(self):
        _, _, sols = solve_named(REACH, "q0", max_depth=2)
        assert sols == []
        _, _, sols = solve_named(REACH, "q0", max_depth=3)
        assert len(sols) == 1

    def test_bindings_monotonic_in_depth(self):
        rng = random.Random(108)
        accepted = 0
        while accepted < 30:
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            if enumeration_bound(kb, 4) > 20_000:
                continue
            accepted += 1
            goal = Pred(preds[0], (Meta(0, "a?"), Meta(1, "b?")))
            q = Query("probe", goal, {"a?": 0, "b?": 1})
            previous = set()
            for depth in range(1, 5):
                sols = solve(kb, q, SolverConfig(max_depth=depth, solution_limit=None))
                current = {tuple(term_text(s.bindings[m]) for m in sorted(s.bindings, key=lambda m: m.id)) for s in sols}
                assert previous <= current
                previous = current

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_depth=0)
        with pytest.raises(ValueError):
            SolverConfig(solution_limit=0)


class TestBuiltins:
    def test_ground_comparison_prunes_branch(self):
        text = "f: num(1).\ng: num(5).\nr: big(x) :- num(x), (x > 2).\nq: big(m?)?"
        _, q, sols = solve_named(text, "q", solution_limit=None)
        m = Meta(q.placeholder_map["m?"], "m?")
        assert [s.bindings[m] for s in sols] == [IntLit(5)]

    def test_leading_comparison_is_delayed(self):
        text = "f: num(1).\ng: num(5).\nr: big(x) :- (x > 2), num(x).\nq: big(m?)?"
        _, q, sols = solve_named(text, "q", solution_limit=None)
        m = Meta(q.placeholder_map["m?"], "m?")
        assert [s.bindings[m] for s in sols] == [IntLit(5)]

    def test_flounders_when_nothing_can_bind(self):
        text = "r: big(x) :- (x > 2).\nq: big(m?)?"
        kb, queries = compile_text(text)
        with pytest.raises(FlounderedBuiltin):
            solve(kb, queries[0])

    def test_ground_query_through_comparison_rule(self):
        text = "r: big(x) :- (x > 2).\nq: big(5)?"
        _, _, sols = solve_named(text, "q")
        assert len(sols) == 1
        (leaf,) = sols[0].proof.children
        assert leaf == BuiltinLeaf(Builtin("gt", IntLit(5), IntLit(2)))

    def test_type_mismatch_is_an_error(self):
        text = 'f: num("s").\nr: big(x) :- num(x), (x > 2).\nq: big(m?)?'
        kb, queries = compile_text(text)
        with pytest.raises(TypeMismatch):
            solve(kb, queries[0])


class TestClauseHandling:
    def test_inactive_clauses_are_ignored(self):
        # search reads kb.clauses, so a clause removed after elaboration is gone
        kb, queries = compile_text('f: p("a").\nq: p("a")?')
        del kb.clauses["f"]
        assert solve(kb, queries[0]) == []

    def test_underivable_head_variable_yields_no_certificate(self):
        # y never gets a value, so no ground proof can be emitted
        text = 'f: q("a").\nr: p(x, y) :- q(x).\nqq: p("a", m?)?'
        _, _, sols = solve_named(text, "qq", solution_limit=None)
        assert sols == []

    def test_every_solution_passes_the_checker(self):
        rng = random.Random(109)
        accepted = 0
        while accepted < 40:
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            if enumeration_bound(kb, 5) > 20_000:
                continue
            accepted += 1
            goal = Pred(preds[0], (Meta(0, "a?"), Meta(1, "b?")))
            q = Query("probe", goal, {"a?": 0, "b?": 1})
            for sol in solve(kb, q, SolverConfig(max_depth=5, solution_limit=None)):
                check_proof(kb, sol.proof)
                assert sol.proof.conclusion.symbol == preds[0]

    def test_conclusion_is_the_instantiated_goal(self):
        kb, q, sols = solve_named(REACH, "q1")
        assert sols[0].proof.conclusion == Pred("path", (StrLit("b"), StrLit("c")))


class TestAgainstOracle:
    def test_matches_fixpoint_on_reachability(self):
        kb, queries = compile_text(REACH)
        fixpoint = saturate(kb)
        q1 = next(q for q in queries if q.name == "q1")
        m = Meta(q1.placeholder_map["m?"], "m?")
        sols = solve(kb, q1, SolverConfig(max_depth=len(fixpoint) + 1, solution_limit=None))
        got = {term_text(s.bindings[m]) for s in sols}
        want = {term_text(b[m]) for b in oracle_answers(kb, q1.goal)}
        assert got == want == {'"c"', '"d"'}
