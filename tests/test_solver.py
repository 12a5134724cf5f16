"""Backward-chaining search: order, depth, builtins, and certificates."""

import dataclasses
import random
from pathlib import Path

import pytest

from ldlog import solver
from ldlog.errors import LdlogError
from ldlog.index import ArgIndex
from ldlog.kernel import Builtin, BuiltinLeaf, IntLit, Meta, Pred, ProofTree, StrLit, Var
from ldlog.proof import check_proof, render_proof
from ldlog.solver import FlounderedBuiltin, SolverConfig, solve
from ldlog.oracle import oracle_answers, saturate
from ldlog.terms import Clause, Query, TypeMismatch, atom_text, term_text
from ldlog.unify import BuiltinNotUnifiable
from support import (
    UNARY_PREDICATES,
    compile_text,
    diamond_ladder,
    enumeration_bound,
    random_safe_program,
    random_unary_program,
    reference_solve,
    shuffled_safe_programs,
    term_programs,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

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

    def test_comparison_goal_rejected(self):
        kb, _ = compile_text(REACH)
        with pytest.raises(BuiltinNotUnifiable):
            solve(kb, Query("q", Builtin("gt", IntLit(3), IntLit(1)), {}))


class TestStringComparisons:
    """`=` and `!=` premises on strings, from the search through the checker,
    the renderer and the fixpoint."""

    TEXT = 'n("a").\nn("b").\nsame: same(x) :- n(x), (x = "a").\ndiff: diff(x) :- n(x), (x != "a").\nq1: same(m?)?\nq2: diff(m?)?'

    def test_solver_checker_and_oracle_agree(self):
        kb, queries = compile_text(self.TEXT)
        rendered = []
        for q, want in zip(queries, ("a", "b")):
            m = Meta(q.placeholder_map["m?"], "m?")
            sols = solve(kb, q, SolverConfig(solution_limit=None))
            assert [sol.bindings[m] for sol in sols] == [StrLit(want)]
            for sol in sols:
                check_proof(kb, sol.proof)
                rendered.append(render_proof(sol.proof))
            assert [b[m] for b in oracle_answers(kb, q.goal)] == [StrLit(want)]
        assert rendered == ['same _fact_1 ("a" = "a")', 'diff _fact_2 ("b" != "a")']


class TestOccursCheckEndToEnd:
    def test_goal_variable_met_twice_by_a_cyclic_head(self):
        # p(y, y) against the head p(x, F(x)): y is bound to x, which then meets F(x)
        text = "base(1).\nr1: p(x, F(x)) :- base(x).\nr2: loop(1) :- p(y, y).\nq0: loop(1)?"
        kb, queries = compile_text(text)
        assert solve(kb, queries[0], SolverConfig(solution_limit=None)) == []
        assert oracle_answers(kb, queries[0].goal) == []


class TestClauseHandling:
    def test_inactive_clauses_are_ignored(self):
        # search reads kb.clauses, so a KB derived without a clause never tries it
        kb, queries = compile_text('f: p("a").\nq: p("a")?')
        kb = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n != "f"})
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


class TestIndexOnVersusOff:
    """The argument index only drops clauses whose head cannot unify.

    The "off" run patches the lookup to ignore the goal's ground arguments,
    so every clause of the goal's symbol is tried, as before the index.
    """

    def both(self, monkeypatch, kb, q, cfg):
        indexed = solve(kb, q, cfg)
        lookup = ArgIndex.candidates
        with monkeypatch.context() as m:
            m.setattr(ArgIndex, "candidates", lambda index, symbol, keys: lookup(index, symbol, ()))
            unindexed = solve(kb, q, cfg)
        for sol in indexed:
            check_proof(kb, sol.proof)
        return indexed, unindexed

    def test_random_programs(self, monkeypatch):
        answered = 0
        for text, kb, queries in shuffled_safe_programs(random.Random(110)):
            for q in queries:
                indexed, unindexed = self.both(monkeypatch, kb, q, SolverConfig(max_depth=5, solution_limit=None))
                assert indexed == unindexed, f"{text}\n{atom_text(q.goal)}"
                answered += bool(indexed)
        assert answered > 200

    @pytest.mark.parametrize("main, lib", [("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")])
    def test_programs(self, monkeypatch, main, lib):
        lib_text = (PROGRAMS / lib).read_text() if lib else None
        kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
        assert queries
        for q in queries:
            indexed, unindexed = self.both(monkeypatch, kb, q, SolverConfig(solution_limit=None))
            assert indexed and indexed == unindexed


class TestFrozenKnowledgeBase:
    def test_clauses_are_read_only(self):
        kb, _ = compile_text('f: p("a").\nq: p("a")?')
        with pytest.raises(TypeError):
            kb.clauses["g"] = Clause("g", Pred("p", (StrLit("b"),)))
        with pytest.raises(TypeError):
            del kb.clauses["f"]
        assert list(kb.clauses) == ["f"]

    def test_second_solve_builds_no_index(self, monkeypatch):
        calls = []
        add = ArgIndex.add

        def counted(index, atom, item):
            calls.append(atom)
            add(index, atom, item)

        monkeypatch.setattr(ArgIndex, "add", counted)
        kb, queries = compile_text(REACH)
        cfg = SolverConfig(solution_limit=None)
        first = [solve(kb, q, cfg) for q in queries]
        assert len(calls) == len(kb.clauses)
        calls.clear()
        assert [solve(kb, q, cfg) for q in queries] == first
        assert calls == []
        # a derived KB is a new KB, compiled afresh
        derived = dataclasses.replace(kb, clauses=kb.clauses)
        assert [solve(derived, q, cfg) for q in queries] == first
        assert len(calls) == len(kb.clauses)


class TestGroundFacts:
    """A ground fact's template is its own head: trying it compiles nothing."""

    def test_calls_built_do_not_grow_with_the_facts(self, monkeypatch):
        built = []
        real = solver._Call.__init__
        monkeypatch.setattr(solver._Call, "__init__", lambda call, *args: built.append(call) or real(call, *args))
        counts = []
        for n in (10, 1_000):
            built.clear()
            facts = "".join(f"f{i}: e({i}, {i + 1}).\n" for i in range(n))
            kb, queries = compile_text(facts + "r: p(x, y) :- e(x, y).\nqe: e(m?, k?)?\nqp: p(m?, k?)?")
            for q in queries:  # each tries every fact
                assert len(solve(kb, q, SolverConfig(solution_limit=None))) == n
            counts.append(len(built))
        assert counts == [4, 4]  # the rule's head and premise, and the two goals


class TestProofHeight:
    def test_height_5000_chain(self):
        n = 5000
        lines = ["b0: p0()."] + [f"h{i}: p{i}() :- p{i - 1}()." for i in range(1, n + 1)] + [f"q: p{n}()?"]
        kb, queries = compile_text("\n".join(lines))
        assert solve(kb, queries[0], SolverConfig(max_depth=n)) == []
        sols = solve(kb, queries[0], SolverConfig(max_depth=n + 1, solution_limit=None))
        assert len(sols) == 1
        node, height = sols[0].proof, 0
        while isinstance(node, ProofTree):
            height += 1
            assert node.clause_name == (f"h{n + 1 - height}" if height <= n else "b0")
            node = node.children[0] if node.children else None
        assert height == n + 1


class TestRepeatedAnswers:
    """A call's repeated answers do not run its continuation again."""

    def unify_calls(self, monkeypatch, rungs):
        calls = 0
        real = solver._unify

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(solver, "_unify", counted)
        kb, queries = compile_text(diamond_ladder(rungs))
        for q in queries:
            solve(kb, q, SolverConfig(max_depth=2 * rungs + 1, solution_limit=None))
        return calls

    def test_ladder_work_grows_with_answers_not_paths(self, monkeypatch):
        # 2 ** 16 paths against 2 ** 8, but answers × depth grows about 7 times (408 × 33 against 108 × 17)
        assert self.unify_calls(monkeypatch, 16) < 10 * self.unify_calls(monkeypatch, 8)


def outcome(search, kb, q, cfg):
    """The solutions, or the type and message of the error raised."""
    try:
        return search(kb, q, cfg)
    except LdlogError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    """`solve` returns what the recursive, renaming solver returns.

    Equal means the same solutions in the same order, bindings and proof
    trees (instantiations included), or the same error with the same message.
    """

    def assert_same(self, kb, q, cfg, text=""):
        got = outcome(solve, kb, q, cfg)
        assert got == outcome(reference_solve, kb, q, cfg), f"{text}\n{atom_text(q.goal)}"
        return got

    def test_random_safe_programs(self):
        answered = 0
        for text, kb, queries in shuffled_safe_programs(random.Random(111), 400, depth=4, cap=2_000):
            for q in queries:
                for limit in (None, 1, 2):
                    answered += bool(self.assert_same(kb, q, SolverConfig(max_depth=4, solution_limit=limit), text))
        assert answered > 1000

    def test_random_term_programs(self):
        seen = set()
        for text, kb, queries, depth in term_programs(random.Random(112), 300):
            for q in queries:
                for limit in (None, 1):
                    got = self.assert_same(kb, q, SolverConfig(max_depth=depth, solution_limit=limit), text)
                    seen.add(got[0] if isinstance(got, tuple) else bool(got))
        assert seen == {True, False, FlounderedBuiltin, TypeMismatch}

    def test_random_unary_programs(self):
        # the stream that binds slots into later siblings' frames: see random_unary_program
        rng = random.Random(116)
        for _ in range(300):
            text = random_unary_program(rng)
            kb, _ = compile_text(text)
            for symbol in UNARY_PREDICATES:
                q = Query("probe", Pred(symbol, (Meta(0, "m?"),)), {"m?": 0})
                for depth in (2, 3, 4):
                    self.assert_same(kb, q, SolverConfig(max_depth=depth, solution_limit=None), text)

    @pytest.mark.parametrize("left", [True, False])
    def test_diamond_ladders(self, left):
        for rungs in range(1, 7):
            text = diamond_ladder(rungs, left)
            kb, queries = compile_text(text)
            queries.append(Query("all", Pred("path", (Meta(0, "a?"), Meta(1, "b?"))), {"a?": 0, "b?": 1}))
            for depth in range(1, 2 * rungs + 2):
                for q in queries:
                    for limit in (None, 1, 2):
                        self.assert_same(kb, q, SolverConfig(max_depth=depth, solution_limit=limit), text)

    # From shuffled_safe_programs(random.Random(110)). The goal p1(x, x) of
    # the second rule meets the head p1(y, z): y is bound to z, a later slot
    # of its own frame, whose cell an earlier frame may have filled before.
    SLOT_BOUND_LATER = """
p0("c2", "c2") :- p1("c2", "c0").
p0(x, x) :- p1(x, x).
p0("c2", "c2").
p0("c1", "c1").
p0("c2", y) :- p0(y, "c1").
p0(x, x) :- p1("c1", x).
p1(y, z) :- p0(y, z).
p0(z, x) :- p1(z, x).
p0("c1", "c0").
p1("c2", "c0").
"""

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_slot_bound_to_a_later_slot_of_its_frame(self, depth):
        kb, _ = compile_text(self.SLOT_BOUND_LATER)
        q = Query("probe", Pred("p0", (Meta(0, "a?"), Meta(1, "b?"))), {"a?": 0, "b?": 1})
        for limit in (None, 1, 2):
            for sol in self.assert_same(kb, q, SolverConfig(max_depth=depth, solution_limit=limit)):
                check_proof(kb, sol.proof)

    def test_fact_with_variables(self):
        # the elaborator never makes one: it is the KB's loose clause, so every
        # query keeps every derivation
        kb, queries = compile_text(
            'f1: e(1).\nf2: e(2).\nr: top(w) :- p(w), e(w).\nq0: e(m?)?\nq1: top(m?)?\nq2: top(m?)?'
        )
        loose = Clause("loose", Pred("p", (Var("x"),)))
        kb = dataclasses.replace(kb, clauses={**kb.clauses, "loose": loose})
        for q in queries:
            assert self.assert_same(kb, q, SolverConfig(solution_limit=None))

    def test_slot_bound_into_a_later_siblings_frame(self):
        # pz's z is loose, so the search keeps every derivation and freezes the
        # certificate once it is complete: z is bound to w, a cell of the frame
        # of the clause proving the next premise, q(y)
        kb, queries = compile_text("f: e(1).\npz: p(z) :- e(1).\nqw: q(w) :- e(w).\nr: a(y) :- p(y), q(y).\nqa: a(m?)?")
        (sol,) = self.assert_same(kb, queries[0], SolverConfig(solution_limit=None))
        assert render_proof(sol.proof) == "r (pz f) (qw f)"
        check_proof(kb, sol.proof)

    def test_loose_rule_first_tried_mid_query(self, monkeypatch):
        # reach("a", "d") is found through "b" and again through "c" before
        # late("f") first tries u, whose y no premise binds: u makes the KB keep
        # every derivation from its first query, so each query is one search
        kb, queries = compile_text(
            'e("a", "b").\ne("a", "c").\ne("b", "d").\ne("c", "d").\ne("a", "g").\ne("g", "f").\n'
            "r1: reach(x, y) :- e(x, y).\nr2: reach(x, y) :- e(x, z), reach(z, y).\n"
            'l1: late(x) :- e(x, "h").\nu: late("f") :- (1 > y).\nt: top(w) :- reach("a", w), late(w).\n'
            "q: top(m?)?"
        )
        runs = []
        real = solver._Search.run

        def counted(search, budget):
            runs.append(budget)
            return real(search, budget)

        monkeypatch.setattr(solver._Search, "run", counted)
        cfg = SolverConfig(max_depth=6, solution_limit=None)
        assert kb.loose_clause is kb.clauses["u"]
        for _ in range(2):
            runs.clear()
            got = self.assert_same(kb, queries[0], cfg)
            assert got == (FlounderedBuiltin, "comparison never became ground: 1 > y#30")
            assert runs == [6]

    # the reachability closure beside a rects-style rule, whose head variables
    # occur only in comparisons
    MIXED = (
        'e("a", "b").\ne("a", "c").\ne("b", "d").\ne("c", "d").\n'
        "r1: reach(x, y) :- e(x, y).\nr2: reach(x, y) :- e(x, z), reach(z, y).\n"
        "box: inbox(x, y) :- (x >= 0), (x <= 9), (y >= 0), (y <= 9).\n"
        'l1: late(x) :- e(x, "h").\nu: late("d") :- inbox(v, 1).\nt: top(w) :- reach("a", w), late(w).\n'
        'q0: reach("a", m?)?\nq1: inbox(1, 2)?\nq2: inbox(m?, 2)?\nq3: top(m?)?\nq4: reach(m?, "d")?'
    )

    def test_loose_query_first_or_last_on_a_mixed_program(self):
        cfg = SolverConfig(max_depth=6, solution_limit=None)
        results = []
        for first_or_last in ((2, 3, 0, 1, 4), (0, 4, 1, 3, 2)):
            kb, queries = compile_text(self.MIXED)
            assert kb.loose_clause is kb.clauses["box"]
            assert solver._compiled(kb)[2] is False  # the gate is off before any query
            results.append({i: self.assert_same(kb, queries[i], cfg) for i in first_or_last})
        assert results[0] == results[1]
        got = results[0]
        assert [term_text(s.bindings[Meta(0, "m?")]) for s in got[0]] == ['"b"', '"c"', '"d"']
        assert len(got[1]) == 1 and render_proof(got[1][0].proof) == "box (1 >= 0) (1 <= 9) (2 >= 0) (2 <= 9)"
        assert got[2] == (FlounderedBuiltin, "comparison never became ground: x#1 >= 0")
        assert got[3] == (FlounderedBuiltin, "comparison never became ground: x#13 >= 0")

    @pytest.mark.parametrize("main, lib", [("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")])
    def test_programs(self, main, lib):
        lib_text = (PROGRAMS / lib).read_text() if lib else None
        kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
        for q in queries:
            for limit in (None, 1):
                assert self.assert_same(kb, q, SolverConfig(solution_limit=limit))

    @pytest.mark.parametrize(
        "text, want",
        [
            # a leading comparison waits for the premise that binds x
            ("f: num(1).\ng: num(5).\nr: big(x) :- (x > 2), num(x).\nq: big(m?)?", 1),
            # nothing left to bind x
            ("r: big(x) :- (x > 2).\nq: big(m?)?", FlounderedBuiltin),
            # the goal's x meets the head's y and z inside g(...): the error names the variable x ends at
            ("f0: s(1).\nr: p(g(y, z)) :- s(1).\nc: top(w) :- p(g(x, x)), (x > 0).\nq: top(m?)?", FlounderedBuiltin),
            ('f: num("s").\nr: big(x) :- num(x), (x > 2).\nq: big(m?)?', TypeMismatch),
            # the occurs check, binding a goal variable and binding a head variable
            ("f0: s(1).\nr: p(y, f(y)) :- s(1).\nq: p(m?, m?)?", 0),
            ("f0: s(1).\nr: p(x, x) :- s(1).\nq: p(m?, f(m?))?", 0),
            # y never gets a value, so no ground certificate
            ('f: q("a").\nr: p(x, y) :- q(x).\nqq: p("a", m?)?', 0),
        ],
    )
    def test_hand_written(self, text, want):
        kb, queries = compile_text(text)
        got = self.assert_same(kb, queries[0], SolverConfig(solution_limit=None))
        assert got[0] is want if isinstance(got, tuple) else len(got) == want


def chain_queries(nodes, count):
    """path("n<pos>", m?) at count evenly spaced positions of a chain of nodes, the first and last included."""
    positions = [round(i * (nodes - 1) / (count - 1)) for i in range(count)]
    return [Query(f"q{pos}", Pred("path", (StrLit(f"n{pos}"), Meta(0, "m?"))), {"m?": 0}) for pos in positions]


def chain_text(nodes, recursive_first=False):
    """Right-recursive reachability over the chain n0 -> n1 -> ... -> n<nodes - 1>."""
    rules = ["r1: path(x, y) :- edge(x, y).", "r2: path(x, y) :- edge(x, z), path(z, y)."]
    if recursive_first:
        rules.reverse()
    return "\n".join(rules + [f'edge("n{i}", "n{i + 1}").' for i in range(nodes - 1)])


class TestCompletedTables:
    """A KB keeps each finished call's answers and certificates for later calls of its variant.

    Each query must still return what it returns on a KB of its own.
    """

    def test_chain_proves_each_lemma_once(self, monkeypatch):
        # 16 queries on a 32-node chain derive 31 * 32 / 2 = 496 distinct path
        # facts; solved on a KB each, they build 2,792 certificate nodes
        calls = 0
        real = solver._tree

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        cfg = SolverConfig(max_depth=32, solution_limit=None)
        queries = chain_queries(32, 16)
        shuffled = random.Random(117).sample(queries, len(queries))
        # from n0 first, the deepest query reaches n31 at budget 1, where edge("n31", y) is cut but has no candidates
        for order in (queries, queries[::-1], shuffled):
            kb, _ = compile_text(chain_text(32))
            calls = 0
            with monkeypatch.context() as m:
                m.setattr(solver, "_tree", counted)
                got = [solve(kb, q, cfg) for q in order]
            assert calls == 496
            assert got == [solve(compile_text(chain_text(32))[0], q, cfg) for q in order]
            assert [len(sols) for sols in got] == [31 - int(q.name[1:]) for q in order]

    def assert_each_as_alone(self, text, runs):
        """Solve each (goal, depth, limit) of runs on one KB, as on a KB of its own and as reference_solve does."""
        kb, _ = compile_text(text)
        results = []
        for goal, depth, limit in runs:
            q = Query("probe", goal, {"m?": 0})
            cfg = SolverConfig(max_depth=depth, solution_limit=limit)
            got = outcome(solve, kb, q, cfg)
            assert got == outcome(solve, compile_text(text)[0], q, cfg), (atom_text(goal), depth, limit)
            assert got == outcome(reference_solve, kb, q, cfg), (atom_text(goal), depth, limit)
            results.append(got if isinstance(got, tuple) else [term_text(s.bindings[Meta(0, "m?")]) for s in got])
        return results

    def test_call_cut_at_budget_zero_is_not_replayed_deeper(self):
        # at depth 2, p's call finishes with no answer because e(x) is cut at
        # budget 0; with one more level, e's fact proves it
        text = 'f: e("a").\nr2: q(x) :- e(x).\nr1: p(x) :- q(x).\nrt: t(x) :- p(x).'
        p, t = (Pred(s, (Meta(0, "m?"),)) for s in "pt")
        runs = [(p, 2, None), (p, 3, None), (t, 3, None), (p, 3, None), (t, 4, None), (t, 3, 1)]
        assert self.assert_each_as_alone(text, runs) == [[], ['"a"'], [], ['"a"'], ['"a"'], []]

    def test_call_is_not_replayed_below_its_lowest_budget(self):
        # p's call at budget 5 reaches e at budget 3: it replays at budget 3 and up
        text = 'f: e("a").\nr2: q(x) :- e(x).\nr1: p(x) :- q(x).'
        p = Pred("p", (Meta(0, "m?"),))
        runs = [(p, 5, None), (p, 2, None), (p, 3, 1), (p, 9, None)]
        assert self.assert_each_as_alone(text, runs) == [['"a"'], [], ['"a"'], ['"a"']]

    def searched_at(self, monkeypatch, text, first, depths):
        """Each depth at which p(m?) looks up its clauses, on a KB whose one
        earlier query was p(m?) at depth first: at the others its table replays."""
        goal = Query("probe", Pred("p", (Meta(0, "m?"),)), {"m?": 0})
        lookup = ArgIndex.candidates
        searched = []
        for depth in depths:
            kb, _ = compile_text(text)
            solve(kb, goal, SolverConfig(max_depth=first, solution_limit=None))
            symbols = []

            def counted(index, symbol, keys):
                symbols.append(symbol)
                return lookup(index, symbol, keys)

            with monkeypatch.context() as m:
                m.setattr(ArgIndex, "candidates", counted)
                solve(kb, goal, SolverConfig(max_depth=depth, solution_limit=None))
            if "p" in symbols:
                searched.append(depth)
        return searched

    def test_replay_range(self, monkeypatch):
        text = 'f: e("a").\nr2: q(x) :- e(x).\nr1: p(x) :- q(x).'
        # uncut: at depth 5, p's call (B = 5) reaches e at budget 3 (L = 3) and
        # nothing at budget 0, so it replays at B - L + 1 = 3 and deeper
        assert self.searched_at(monkeypatch, text, 5, range(1, 10)) == [1, 2]
        # cut: at depth 2, e's fact is a candidate at budget 0, under q at
        # budget 1, so L = 1 (as for every cut table) and p replays at B = 2 only
        assert self.searched_at(monkeypatch, text, 2, range(1, 10)) == [1, 3, 4, 5, 6, 7, 8, 9]

    def test_query_stopped_by_its_limit_tables_no_open_call(self):
        # path("n0", m?) stops at its first answer, n7, before any call but
        # path("n7", m?)'s has finished
        goal = Pred("path", (StrLit("n0"), Meta(0, "m?")))
        got = self.assert_each_as_alone(chain_text(8, recursive_first=True), [(goal, 8, 1), (goal, 8, None), (goal, 8, 2)])
        assert got == [['"n7"'], [f'"n{i}"' for i in range(7, 0, -1)], ['"n7"', '"n6"']]

    def test_query_that_raises_tables_no_open_call(self):
        text = 'f: num(1).\ng: num("s").\nr: big(x) :- num(x), (x > 0).\nt: top(x) :- big(x).'
        top = Pred("top", (Meta(0, "m?"),))
        got = self.assert_each_as_alone(text, [(top, 3, None), (top, 3, 1), (top, 3, None)])
        assert got == [(TypeMismatch, got[0][1]), ["1"], (TypeMismatch, got[0][1])]

    def test_queries_reuse_one_kb(self):
        # depths shallow to deep, then deep to shallow, each query at a seeded
        # solution limit: every one must return what it does on a KB of its own
        rng = random.Random(117)
        cases = []
        while len(cases) < 30:
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            facts = {c.head.symbol for c in kb.clauses.values() if not c.body}
            if enumeration_bound(kb, 4) > 2_000 or not any(c.head.symbol not in facts for c in kb.clauses.values()):
                continue  # no predicate defined by rules alone, so no call to table
            goals = [Pred(p, (first, Meta(1, "b?"))) for p in preds for first in (Meta(0, "a?"), StrLit(rng.choice(consts).strip('"')))]
            cases.append((text, goals, 4))
        for _ in range(30):
            cases.append((random_unary_program(rng), [Pred(p, (Meta(0, "m?"),)) for p in UNARY_PREDICATES], 4))
        for rungs in (2, 3):
            for left in (True, False):
                goals = [Pred("path", (StrLit(f"r{s}"), Meta(0, "m?"))) for s in range(rungs + 1)]
                cases.append((diamond_ladder(rungs, left), goals + [Pred("path", (Meta(0, "a?"), Meta(1, "b?")))], 2 * rungs + 1))
        tabled = 0
        for text, goals, deepest in cases:
            kb, _ = compile_text(text)
            for depth in list(range(1, deepest + 1)) + list(range(deepest, 0, -1)):
                for goal in rng.sample(goals, len(goals)):
                    q = Query("probe", goal, {"a?": 0, "b?": 1, "m?": 0})
                    cfg = SolverConfig(max_depth=depth, solution_limit=rng.choice((None, 1, 2)))
                    got = outcome(solve, kb, q, cfg)
                    assert got == outcome(reference_solve, kb, q, cfg), f"{text}\n{atom_text(goal)} {cfg}"
                    assert got == outcome(solve, compile_text(text)[0], q, cfg), f"{text}\n{atom_text(goal)} {cfg}"
            # a KB keeps tables only if it has no loose clause
            assert not kb.compiled["solver"][-1] or kb.loose_clause is None
            tabled += bool(kb.compiled["solver"][-1])
        # every safe program and ladder keeps tables; a unary program with a
        # loose rule keeps every derivation, and no table
        assert tabled >= 34
