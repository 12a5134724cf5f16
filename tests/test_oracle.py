"""Forward-chaining fixpoint: saturation, safety check, and answer sets."""

import dataclasses
import random

import pytest

from ldlog.oracle import UnsafeRule, oracle_answers, saturate
from ldlog.terms import Builtin, IntLit, Meta, Pred, StrLit, TypeMismatch, term_text
from ldlog.unify import BuiltinNotUnifiable
from support import compile_text, ground_probe, naive_saturate, random_safe_program

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

    def test_false_comparison_short_circuits_a_mismatch(self):
        text = """
        f1: num(1).
        f2: name("s").
        r: odd(x, y) :- num(x), name(y), (x > 5), (y < 2).
        """
        kb, _ = compile_text(text)
        self.assert_same(kb)
