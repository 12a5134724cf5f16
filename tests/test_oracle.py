"""Forward-chaining fixpoint: saturation, safety check, and answer sets."""

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter

import pytest

from pathlib import Path

from ldlog import oracle
from ldlog.errors import LdlogError
from ldlog.oracle import UnsafeRule, oracle_answers, saturate
from ldlog.terms import App, Builtin, Clause, IntLit, Meta, Pred, StrLit, TypeMismatch, Var, atom_text, term_text
from ldlog.unify import BuiltinNotUnifiable
from support import (
    compile_text,
    ground_probe,
    naive_saturate,
    random_safe_program,
    random_term_program,
    reference_answers,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

REACH = """
r1: path(x, y) :- edge(x, y).
r2: path(x, y) :- path(x, z), edge(z, y).
f1: edge("a", "b").
f2: edge("b", "c").
f3: edge("b", "d").
"""


def bfs_reachability(edges):
    """Independent transitive-closure oracle over string pairs."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in edges:
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestSaturate:
    def test_reach_fixpoint_golden(self):
        kb, _ = compile_text(REACH)
        fixpoint = saturate(kb)
        edges = {("a", "b"), ("b", "c"), ("b", "d")}
        want = {ground_probe("edge", a, b) for a, b in edges}
        want |= {ground_probe("path", a, b) for a, b in bfs_reachability(edges)}
        assert fixpoint == want
        assert len(fixpoint) == 8

    def test_facts_only_program_is_its_own_fixpoint(self):
        kb, _ = compile_text('f1: p("a").\nf2: q("b", "c").')
        assert saturate(kb) == {
            Pred("p", (StrLit("a"),)),
            Pred("q", (StrLit("b"), StrLit("c"))),
        }

    def test_empty_program(self):
        kb, _ = compile_text("")
        assert saturate(kb) == set()

    def test_rule_with_comparisons(self):
        text = """
        n1: num(1).
        n2: num(5).
        n3: num(9).
        big: big(x) :- num(x), (x > 2).
        """
        kb, _ = compile_text(text)
        fixpoint = saturate(kb)
        bigs = {a for a in fixpoint if a.symbol == "big"}
        assert {term_text(a.args[0]) for a in bigs} == {"5", "9"}

    def test_inactive_clauses_ignored(self):
        kb, _ = compile_text(REACH)
        kb = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n != "f3"})
        fixpoint = saturate(kb)
        assert ground_probe("edge", "b", "d") not in fixpoint
        assert ground_probe("path", "a", "d") not in fixpoint
        assert ground_probe("path", "a", "c") in fixpoint

    def test_monotone_under_added_facts(self):
        kb_small, _ = compile_text(REACH)
        kb_large, _ = compile_text(REACH + 'f4: edge("c", "e").')
        assert saturate(kb_small) <= saturate(kb_large)

    def test_deterministic(self):
        kb, _ = compile_text(REACH)
        assert saturate(kb) == saturate(kb)

    def test_deterministic_across_knowledge_bases(self):
        # one KB's second call returns its kept fixpoint; two KBs saturate twice
        first, _ = compile_text(REACH)
        second, _ = compile_text(REACH)
        assert saturate(first) == saturate(second)
        assert saturate(first) is not saturate(second)


class TestFixpointCache:
    """A KB saturates once: later calls on it read the fixpoint kept in kb.compiled."""

    QUERIES = 'q1: path("b", m?)?\nq2: path(a?, b?)?\nq3: edge("a", "b")?\n'

    @pytest.fixture
    def joins(self, monkeypatch):
        calls = []
        join = oracle._join

        def counted(plan, *rest):
            calls.append(plan)
            join(plan, *rest)

        monkeypatch.setattr(oracle, "_join", counted)
        return calls

    def test_second_saturate_runs_no_join(self, joins):
        kb, queries = compile_text(REACH + self.QUERIES)
        first = saturate(kb)
        assert joins
        joins.clear()
        assert saturate(kb) is first
        answers = [oracle_answers(kb, q.goal) for q in queries]
        assert joins == []
        assert answers == [reference_answers(first, q.goal) for q in queries]
        assert [len(a) for a in answers] == [2, 5, 1]

    def test_second_oracle_answers_runs_no_join(self, joins):
        kb, queries = compile_text(REACH + self.QUERIES)
        first = oracle_answers(kb, queries[0].goal)
        assert joins
        joins.clear()
        assert oracle_answers(kb, queries[0].goal) == first
        assert [len(oracle_answers(kb, q.goal)) for q in queries[1:]] == [5, 1]
        assert len(saturate(kb)) == 8
        assert joins == []

    def test_replaced_kb_saturates_afresh(self, joins):
        kb, _ = compile_text(REACH)
        first = saturate(kb)
        joins.clear()
        derived = dataclasses.replace(kb, clauses=kb.clauses)
        assert saturate(derived) == first
        assert joins
        smaller = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n != "f3"})
        assert ground_probe("path", "a", "d") not in saturate(smaller)
        assert ground_probe("path", "a", "d") in saturate(kb)

    @pytest.mark.parametrize(
        "text, error",
        [
            ('f: q("a").\nr: p(x, y) :- q(x).\nq: q(m?)?', UnsafeRule),
            ('f1: n("a").\nf2: n(3).\nr: small(x) :- n(x), (x < 5).\nq: n(m?)?', TypeMismatch),
        ],
    )
    def test_error_is_raised_on_every_call(self, text, error):
        kb, queries = compile_text(text)
        for _ in range(2):
            with pytest.raises(error):
                saturate(kb)
            with pytest.raises(error):
                oracle_answers(kb, queries[0].goal)
        assert "oracle" not in kb.compiled

    def test_fixpoint_is_a_frozenset(self):
        kb, _ = compile_text(REACH)
        fixpoint = saturate(kb)
        assert isinstance(fixpoint, frozenset)
        with pytest.raises(AttributeError):
            fixpoint.add(ground_probe("path", "d", "a"))
        assert saturate(kb) is fixpoint


class TestSemiNaiveCost:
    """A round skips each join with a premise over earlier rounds whose symbol had no fact then,
    and a join is named by its delta premise's position, not built as a copy of the rule body."""

    @staticmethod
    def wide_rule(n):
        """q copies an e chain of n edges in round 1; r joins s(0) and n q premises along it."""
        xs = [f"x{i}" for i in range(n + 1)]
        premises = ", ".join(f"q({a}, {b})" for a, b in zip(xs, xs[1:]))
        edges = "\n".join(f"e{i}: e({i}, {i + 1})." for i in range(n))
        return f"c: q(x, y) :- e(x, y).\nf: s(0).\n{edges}\nr: p(x0, x{n}) :- s(x0), {premises}."

    def unify_calls(self, monkeypatch, n):
        calls = 0
        real = oracle._unify

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(oracle, "_unify", counted)
        kb, _ = compile_text(self.wide_rule(n))
        assert Pred("p", (IntLit(0), IntLit(n))) in saturate(kb)
        return calls

    def test_wide_rule_over_a_derived_symbol(self, monkeypatch):
        # without the skip, each of r's n plans scans all n new q facts before
        # a q premise over round 0, where q has no facts, rejects each: 3n² calls
        assert self.unify_calls(monkeypatch, 200) <= 2.5 * self.unify_calls(monkeypatch, 100)

    def saturate_peak(self, n):
        kb, _ = compile_text(self.wide_rule(n))
        gc.collect()  # a full collection empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            assert Pred("p", (IntLit(0), IntLit(n))) in saturate(kb)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_plan_memory_is_linear_in_body_length(self):
        # r has n premises over q, each one the delta premise of a join in round 1;
        # a join that copied r's body per delta premise would hold n² premises
        assert self.saturate_peak(400) <= 2.5 * self.saturate_peak(200)


class TestRangeRestriction:
    def test_head_variable_not_in_body(self):
        kb, _ = compile_text('f: q("a").\nr: p(x, y) :- q(x).')
        with pytest.raises(UnsafeRule) as err:
            saturate(kb)
        assert err.value.name == "r"
        assert "y" in str(err.value)

    def test_comparison_only_variable(self):
        kb, _ = compile_text('f: q("a").\nr: p(x) :- q(x), (z > 1).')
        with pytest.raises(UnsafeRule):
            saturate(kb)

    def test_pattern_head_rule_is_unsafe(self):
        # coordinates occur only in the head pattern and comparisons
        text = """
        struct Rect(x1, y1, x2, y2).
        overlap: overlap(Rect(ax1, ay1, ax2, ay2), Rect(bx1, by1, bx2, by2)) :-
            (by2 >= ay1), (by1 <= ay2), (bx2 >= ax1), (bx1 <= ax2).
        """
        kb, _ = compile_text(text)
        with pytest.raises(UnsafeRule) as err:
            saturate(kb)
        assert err.value.name == "overlap"

    def test_message_names_one_variable_in_the_singular(self):
        kb, _ = compile_text('f: q("a").\nr: p(x, y) :- q(x).')
        with pytest.raises(UnsafeRule) as err:
            saturate(kb)
        assert str(err.value) == "rule 'r' is not range-restricted: y never occurs in a predicate premise"

    def test_message_names_several_variables_in_the_plural(self):
        kb, _ = compile_text('f: q("a").\nr: p(z, x, y) :- q(x), (w > 1).')
        with pytest.raises(UnsafeRule) as err:
            saturate(kb)
        assert str(err.value) == "rule 'r' is not range-restricted: w, y, z never occur in a predicate premise"

    @pytest.mark.parametrize("args, listed", [((Var("x"),), "x"), ((Var("y"), StrLit("a"), Var("x")), "x, y")])
    def test_fact_with_variables_is_named_as_a_fact(self, args, listed):
        kb, _ = compile_text('f: q("a").')
        kb = dataclasses.replace(kb, clauses={**kb.clauses, "loose": Clause("loose", Pred("p", args))})
        for evaluate in (saturate, naive_saturate):
            with pytest.raises(UnsafeRule) as err:
                evaluate(kb)
            assert str(err.value) == f"fact 'loose' is not ground: {listed}"

    def test_safe_program_passes(self):
        kb, _ = compile_text(REACH)
        saturate(kb)


class TestEntailment:
    def test_entails_derived_atom(self):
        kb, _ = compile_text(REACH)
        fixpoint = saturate(kb)
        assert ground_probe("path", "a", "d") in fixpoint
        assert ground_probe("path", "c", "a") not in fixpoint
        assert ground_probe("edge", "a", "c") not in fixpoint


class TestAnswers:
    def query(self, text, name):
        kb, queries = compile_text(text)
        return kb, next(q for q in queries if q.name == name)

    def test_single_placeholder(self):
        kb, q = self.query(REACH + 'q1: path("b", m?)?', "q1")
        answers = oracle_answers(kb, q.goal)
        m = Meta(q.placeholder_map["m?"], "m?")
        assert [term_text(b[m]) for b in answers] == ['"c"', '"d"']

    def test_repeated_placeholder_must_match_twice(self):
        kb, q = self.query(REACH + "q1: path(m?, m?)?", "q1")
        assert oracle_answers(kb, q.goal) == []

    def test_two_placeholders_sorted_by_rendered_values(self):
        kb, q = self.query(REACH + "q1: edge(a?, b?)?", "q1")
        a = Meta(q.placeholder_map["a?"], "a?")
        b = Meta(q.placeholder_map["b?"], "b?")
        pairs = [(term_text(s[a]), term_text(s[b])) for s in oracle_answers(kb, q.goal)]
        assert pairs == [('"a"', '"b"'), ('"b"', '"c"'), ('"b"', '"d"')]

    def test_ground_goal_answers(self):
        kb, q = self.query(REACH + 'q1: path("a", "c")?', "q1")
        assert oracle_answers(kb, q.goal) == [{}]
        kb, q = self.query(REACH + 'q1: path("c", "a")?', "q1")
        assert oracle_answers(kb, q.goal) == []

    def test_comparison_goal_rejected(self):
        kb, _ = compile_text(REACH)
        with pytest.raises(BuiltinNotUnifiable):
            oracle_answers(kb, Builtin("gt", IntLit(3), IntLit(1)))

    def test_deterministic(self):
        kb, q = self.query(REACH + "q1: path(a?, b?)?", "q1")
        first = oracle_answers(kb, q.goal)
        second = oracle_answers(kb, q.goal)
        assert first == second
        # a freshly elaborated KB saturates again and answers alike
        kb, q = self.query(REACH + "q1: path(a?, b?)?", "q1")
        assert oracle_answers(kb, q.goal) == first


class TestAgainstIndependentClosure:
    def test_random_edge_sets_match_bfs(self):
        """Transitive closure via saturation equals a BFS closure."""
        rng = random.Random(210)
        nodes = ["a", "b", "c", "d"]
        for _ in range(50):
            edges = {
                (rng.choice(nodes), rng.choice(nodes))
                for _ in range(rng.randint(1, 6))
            }
            lines = [f'edge("{a}", "{b}").' for a, b in sorted(edges)]
            lines.append("r1: path(x, y) :- edge(x, y).")
            lines.append("r2: path(x, y) :- path(x, z), edge(z, y).")
            kb, _ = compile_text("\n".join(lines))
            got = {
                (a.args[0].value, a.args[1].value)
                for a in saturate(kb)
                if a.symbol == "path"
            }
            assert got == bfs_reachability(edges)

    def test_random_programs_have_finite_fixpoints(self):
        """Safe programs saturate within their constant universe."""
        rng = random.Random(211)
        for _ in range(40):
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            fixpoint = saturate(kb)
            assert len(fixpoint) <= len(preds) * len(consts) ** 2
            universe = {c.strip('"') for c in consts}
            for atom in fixpoint:
                assert atom.symbol in preds
                assert all(arg.value in universe for arg in atom.args)


def same_fixpoint(kb, text: str) -> type:
    """Assert that saturate and naive_saturate agree on kb; return the fixpoint's type or the error's.

    Where both raise, only the error types are compared: the naive loop
    meets comparisons in another order.
    """
    try:
        want = naive_saturate(kb)
    except LdlogError as exc:
        with pytest.raises(type(exc)):
            saturate(kb)
        return type(exc)
    got = saturate(kb)
    assert got == want, text
    return type(got)


class TestAgainstNaiveReference:
    """Semi-naive saturation returns and raises what the naive loop does.

    The reference has its own range-restriction check, so the UnsafeRule
    cases compare two independent checks.
    """

    def assert_same(self, kb):
        assert saturate(kb) == naive_saturate(kb)

    def assert_same_error(self, kb, error):
        with pytest.raises(error):
            naive_saturate(kb)
        with pytest.raises(error):
            saturate(kb)

    def test_random_safe_programs(self):
        rng = random.Random(212)
        for _ in range(600):
            text, _, _ = random_safe_program(rng)
            kb, _ = compile_text(text)
            assert saturate(kb) == naive_saturate(kb), text

    def test_integer_comparisons(self):
        text = """
        n1: num(1).
        n2: num(4).
        n3: num(7).
        n4: num(9).
        below: lt(x, y) :- num(x), num(y), (x < y).
        chain: lt(x, z) :- lt(x, y), lt(y, z), (x != z).
        mid: mid(y) :- lt(x, y), lt(y, z), (x >= 1), (z <= 9).
        yes: top(9) :- (1 < 2).
        no: bottom(0) :- (2 < 1).
        """
        kb, _ = compile_text(text)
        self.assert_same(kb)
        fixpoint = saturate(kb)
        assert {term_text(a.args[0]) for a in fixpoint if a.symbol == "mid"} == {"4", "7"}
        assert Pred("top", (IntLit(9),)) in fixpoint
        assert Pred("bottom", (IntLit(0),)) not in fixpoint

    def test_inactive_clause(self):
        kb, _ = compile_text(REACH + 'f4: edge("d", "a").')
        kb = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n != "f3"})
        self.assert_same(kb)
        fixpoint = saturate(kb)
        assert ground_probe("path", "d", "c") in fixpoint
        assert ground_probe("path", "a", "a") not in fixpoint

    def test_unsafe_rule_raises_before_any_evaluation(self):
        # the comparison in r would raise TypeMismatch if evaluated first
        kb, _ = compile_text('f: q("a").\nr: p(x) :- q(x), (x < "b").\nu: w(x, y) :- q(x).')
        self.assert_same_error(kb, UnsafeRule)

    def test_unsafe_comparison_variable(self):
        kb, _ = compile_text('f: q(1).\nr: p(x) :- q(x), (y < 3).')
        self.assert_same_error(kb, UnsafeRule)

    def test_fact_with_variables(self):
        # the elaborator never makes one; its x occurs in no premise
        kb, queries = compile_text("f1: e(1).\nr: top(w) :- p(w), e(w).\nqp: p(m?)?\nqt: top(m?)?")
        kb = dataclasses.replace(kb, clauses={**kb.clauses, "loose": Clause("loose", Pred("p", (Var("x"),)))})
        self.assert_same_error(kb, UnsafeRule)
        for q in queries:
            with pytest.raises(UnsafeRule, match="'loose'"):
                oracle_answers(kb, q.goal)
        assert "oracle" not in kb.compiled

    def test_type_mismatch_on_a_derived_fact(self):
        text = """
        f1: edge("a", "b").
        f2: edge("b", 3).
        r1: path(x, y) :- edge(x, y).
        r2: path(x, y) :- path(x, z), edge(z, y).
        r3: late(x) :- path("a", x), (x < 5).
        """
        kb, _ = compile_text(text)
        self.assert_same_error(kb, TypeMismatch)

    def test_repeated_premise_variable(self):
        text = """
        f1: t(1, 1).
        f2: t(1, 2).
        f3: t(f(1), f(1)).
        f4: t(f(1), f(2)).
        f5: t(g(1, 2), g(1, 2)).
        f6: t("a", "b").
        r: same(x) :- t(x, x).
        """
        kb, _ = compile_text(text)
        self.assert_same(kb)
        assert {term_text(a.args[0]) for a in saturate(kb) if a.symbol == "same"} == {"1", "f(1)", "g(1, 2)"}

    def test_nested_pattern_against_other_constructors_and_arities(self):
        text = """
        f1: q(f(1, g(2))).
        f2: q(f(1, h(2))).
        f3: q(k(1, g(2))).
        f4: q(1).
        f5: q(f(3, g(h(4)))).
        r: p(x, y) :- q(f(x, g(y))).
        """
        kb, _ = compile_text(text)
        # the elaborator fixes each name's arity, so facts that reuse a name at another one are built here
        one, two = IntLit(1), IntLit(2)
        odd = [
            Pred("q", (App("f", (one,)),)),
            Pred("q", (App("f", (one, App("g", (two, IntLit(3))))),)),
            Pred("q", (App("f", (one, App("g", ()))),)),
            Pred("q", (App("f", (one, App("g", (two,)))), IntLit(3))),
            Pred("q", ()),
        ]
        clauses = {**kb.clauses, **{f"x{i}": Clause(f"x{i}", fact) for i, fact in enumerate(odd)}}
        kb = dataclasses.replace(kb, clauses=clauses)
        self.assert_same(kb)
        assert {atom_text(a) for a in saturate(kb) if a.symbol == "p"} == {"p(1, 2)", "p(3, h(4))"}

    def test_bindings_are_undone_after_a_later_premise_fails(self):
        # a(1) binds x before b(1, y) finds nothing; e(f(1), 4) binds y inside f before 3 != 4
        text = """
        f1: a(1).
        f2: a(2).
        f3: b(2, "z").
        f4: e(f(1), 4).
        f5: e(f(2), 3).
        r1: p(x, y) :- a(x), b(x, y).
        r2: s(y) :- e(f(y), 3).
        r3: t(x, y) :- a(x), e(f(y), 3), b(y, z).
        """
        kb, _ = compile_text(text)
        self.assert_same(kb)
        derived = {atom_text(a) for a in saturate(kb) if a.symbol in ("p", "s", "t")}
        assert derived == {'p(2, "z")', "s(2)", "t(1, 2)", "t(2, 2)"}

    def test_comparison_on_a_constructor_bound_variable(self):
        kb, _ = compile_text("f: n(f(1)).\nr: big(x) :- n(x), (x > 0).")
        self.assert_same_error(kb, TypeMismatch)
        with pytest.raises(TypeMismatch, match=r"structured operands: f\(1\) > 0"):
            saturate(kb)

    def test_false_comparison_short_circuits_a_mismatch(self):
        text = """
        f1: num(1).
        f2: name("s").
        r: odd(x, y) :- num(x), name(y), (x > 5), (y < 2).
        """
        kb, _ = compile_text(text)
        self.assert_same(kb)


class TestAgainstReferenceAnswers:
    """Answers looked up in the fixpoint's index equal a scan of every fact, in order."""

    def assert_same(self, kb, goal):
        """The number of answers, or the type of the error both sides raise."""
        try:
            facts = saturate(kb)
        except LdlogError as exc:
            with pytest.raises(type(exc)) as err:
                oracle_answers(kb, goal)
            assert str(err.value) == str(exc)
            return type(exc)
        got = oracle_answers(kb, goal)
        assert got == reference_answers(facts, goal), atom_text(goal)
        return len(got)

    def test_random_safe_programs(self):
        rng = random.Random(213)
        m, n = Meta(0, "m?"), Meta(1, "n?")
        answered = 0
        for _ in range(300):
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            for symbol in preds:
                c1, c2 = (StrLit(rng.choice(consts).strip('"')) for _ in range(2))
                # ground, one and two placeholders, a repeated one, and two arities no fact has
                for args in ((c1, c2), (c1, m), (m, c2), (m, n), (m, m), (c1,), (m, n, c1)):
                    answered += bool(self.assert_same(kb, Pred(symbol, args)))
        assert answered > 1000

    def test_random_term_programs(self):
        # constructor arguments, repeated placeholders, unsafe rules and mixed-type comparisons;
        # each fixpoint is also checked against the naive loop, which matches two ways
        rng = random.Random(214)
        outcomes, accepted = set(), 0
        fixpoints = Counter()
        while accepted < 300:
            text = random_term_program(rng)
            try:
                kb, queries = compile_text(text)
            except LdlogError:
                continue
            accepted += 1
            fixpoints[same_fixpoint(kb, text)] += 1
            for q in queries:
                got = self.assert_same(kb, q.goal)
                outcomes.add(got if isinstance(got, type) else bool(got))
        assert outcomes == {True, False, UnsafeRule, TypeMismatch}
        assert fixpoints == {frozenset: 96, UnsafeRule: 203, TypeMismatch: 1}

    @pytest.mark.parametrize("main, lib", [("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")])
    def test_programs(self, main, lib):
        lib_text = (PROGRAMS / lib).read_text() if lib else None
        kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
        for q in queries:
            self.assert_same(kb, q.goal)

    def test_constructor_arguments(self):
        text = """
        struct Pair(a, b).
        f1: at(Pair(1, 2), "x").
        f2: at(Pair(1, 3), "y").
        f3: at(Pair(2, 2), "x").
        f4: at(Pair(3, 3), "z").
        r: same(p, q) :- at(p, l), at(q, l).
        q1: at(Pair(1, a?), b?)?
        q2: at(Pair(a?, a?), b?)?
        q3: same(c?, c?)?
        q4: same(Pair(1, 2), c?)?
        q5: at(Pair(1, 2), "x")?
        q6: at(Pair(1, 2), "y")?
        q7: at(Pair(9, 9), b?)?
        """
        kb, queries = compile_text(text)
        got = {q.name: self.assert_same(kb, q.goal) for q in queries}
        assert got == {"q1": 2, "q2": 2, "q3": 4, "q4": 2, "q5": 1, "q6": 0, "q7": 0}
