"""Unification, matching, and their algebraic properties."""

import random

import pytest

from ldlog import solver
from ldlog.kernel import App, Builtin, IntLit, Meta, Pred, StrLit, Var
from ldlog.terms import apply_subst, free_vars
from ldlog.unify import BuiltinNotUnifiable, match_atoms, match_one_way, unify, unify_atoms
from support import ground_unifiers, random_term

X, Y, Z = Var("x"), Var("y"), Var("z")
A, B = StrLit("a"), StrLit("b")


class TestUnify:
    def test_var_binds_to_constant(self):
        assert unify(X, IntLit(3)) == {X: IntLit(3)}

    def test_equal_terms_need_no_bindings(self):
        assert unify(App("f", (A,)), App("f", (A,))) == {}

    def test_constructor_clash(self):
        assert unify(App("f", (X,)), App("g", (X,))) is None

    def test_arity_clash(self):
        assert unify(App("f", (X,)), App("f", (X, Y))) is None

    def test_literal_clash(self):
        assert unify(IntLit(1), IntLit(2)) is None
        assert unify(A, IntLit(1)) is None

    def test_occurs_check_direct(self):
        assert unify(X, App("f", (X,))) is None

    def test_occurs_check_nested(self):
        assert unify(X, App("g", (App("f", (X,)), Y))) is None

    def test_occurs_check_through_chain(self):
        # x := f(y) then y := x would be cyclic
        assert unify(App("p", (X, Y)), App("p", (App("f", (Y,)), X))) is None

    def test_goal_against_renamed_head(self):
        m = Meta(0, "m?")
        goal = App("path", (StrLit("b"), m))
        head = App("path", (Var("x#1"), Var("y#1")))
        s = unify(goal, head)
        assert s is not None
        assert apply_subst(goal, s) == apply_subst(head, s)

    def test_extends_existing_substitution(self):
        s0 = {X: A}
        s = unify(App("f", (X, Y)), App("f", (A, B)), s0)
        assert s == {X: A, Y: B}
        assert s0 == {X: A}  # input untouched

    def test_conflict_with_existing_substitution(self):
        assert unify(X, B, {X: A}) is None

    def test_meta_and_var_unify_alike(self):
        m = Meta(0, "m?")
        s = unify(m, App("cos"))
        assert s == {m: App("cos")}
        assert unify(m, App("f", (m,))) is None


class TestUnifyAtoms:
    def test_matching_predicates(self):
        s = unify_atoms(Pred("edge", (X, B)), Pred("edge", (A, Y)))
        assert s == {X: A, Y: B}

    def test_symbol_mismatch(self):
        assert unify_atoms(Pred("p", ()), Pred("q", ())) is None

    def test_arity_mismatch(self):
        assert unify_atoms(Pred("p", (X,)), Pred("p", (X, Y))) is None

    def test_bindings_flow_across_arguments(self):
        assert unify_atoms(Pred("p", (X, X)), Pred("p", (A, B))) is None
        assert unify_atoms(Pred("p", (X, X)), Pred("p", (A, A))) == {X: A}

    def test_builtin_rejected(self):
        with pytest.raises(BuiltinNotUnifiable):
            unify_atoms(Builtin("lt", X, Y), Pred("p", ()))

    def test_binds_as_unify_does_left_to_right(self):
        assert unify_atoms(Pred("p", (X, X)), Pred("p", (Y, Z))) == {X: Z, Y: Z}  # right to left: X := Y, Z := Y
        rng = random.Random(66)

        def arg():  # bare variables make the binding order show
            return rng.choice((X, Y, Z)) if rng.random() < 0.5 else random_term(rng)

        for _ in range(2000):
            n = rng.randint(0, 4)
            a1 = Pred("p", tuple(arg() for _ in range(n)))
            a2 = Pred("p", tuple(arg() for _ in range(n)))
            s0 = rng.choice((None, {X: A}))
            expected = dict(s0) if s0 else {}
            for x, y in zip(a1.args, a2.args):
                expected = unify(x, y, expected)
                if expected is None:
                    break
            assert unify_atoms(a1, a2, s0) == expected


class TestMatchOneWay:
    def test_binds_pattern_vars(self):
        assert match_one_way(App("f", (X, A)), App("f", (B, A))) == {X: B}

    def test_target_vars_never_bind(self):
        assert match_one_way(A, X) is None

    def test_nonlinear_pattern_must_agree(self):
        assert match_one_way(App("f", (X, X)), App("f", (A, B))) is None
        assert match_one_way(App("f", (X, X)), App("f", (A, A))) == {X: A}

    def test_ground_pattern_is_equality(self):
        assert match_one_way(App("f", (A,)), App("f", (A,))) == {}
        assert match_one_way(App("f", (A,)), App("f", (B,))) is None

    def test_builtin_rejected_by_match_atoms(self):
        with pytest.raises(BuiltinNotUnifiable):
            match_atoms(Builtin("lt", X, Y), Pred("p", ()))
        with pytest.raises(BuiltinNotUnifiable):
            match_atoms(Pred("p", ()), Builtin("lt", A, B))


class TestProperties:
    def test_soundness_and_symmetry(self):
        rng = random.Random(105)
        for _ in range(300):
            t1, t2 = random_term(rng), random_term(rng)
            s12 = unify(t1, t2)
            s21 = unify(t2, t1)
            assert (s12 is None) == (s21 is None)
            if s12 is not None:
                assert apply_subst(t1, s12) == apply_subst(t2, s12)
                assert apply_subst(t1, s21) == apply_subst(t2, s21)

    def test_results_idempotent(self):
        rng = random.Random(106)
        for _ in range(300):
            s = unify(random_term(rng), random_term(rng))
            if s:
                for value in s.values():
                    assert not (free_vars(value) & s.keys())

    def test_unifier_generalizes_every_ground_unifier(self):
        rng = random.Random(107)
        checked = 0
        while checked < 150:
            t1, t2 = random_term(rng, 2), random_term(rng, 2)
            variables = sorted(free_vars(t1) | free_vars(t2), key=str)
            if len(variables) > 3:
                continue
            checked += 1
            sigmas = ground_unifiers(t1, t2)
            mgu = unify(t1, t2)
            if mgu is None:
                assert sigmas == []
                continue
            pair = App("pair", (t1, t2))
            common = apply_subst(pair, mgu)
            for sigma in sigmas:
                # the ground unifier must factor through the mgu
                tau = match_one_way(common, apply_subst(pair, sigma))
                assert tau is not None
                for v in variables:
                    assert apply_subst(apply_subst(v, mgu), tau) == sigma[v]


class TestStoreMatcher:
    """The matcher both evaluators run, `solver._unify` on a store of cells,
    through Criterion 7's properties, compared with the reference `unify`.

    Two terms are compiled into template terms and unified either in one frame,
    sharing their variables as `unify` does, or in two frames, the second
    term's variables renamed apart as in a goal against a clause head."""

    def store_unify(self, t1, t2, apart):
        slots1: dict = {}
        c1 = solver._compile(t1, slots1)
        slots2 = {} if apart else slots1
        c2 = solver._compile(t2, slots2)
        b2 = len(slots1) if apart else 0
        cells = [None] * (b2 + len(slots2))
        trail: list = []
        ok = solver._unify(cells, trail, (c1,), 0, (c2,), b2)
        names = [Var(f"_{j}") for j in range(len(cells))]  # each unbound cell read as a variable of its own
        common = (solver._value(cells, c1, 0, names), solver._value(cells, c2, b2, names))
        for j in trail:
            cells[j] = None
        assert cells == [None] * len(cells)  # the trail holds every binding made
        return ok, common

    def reference(self, t1, t2, apart):
        if apart:
            t2 = apply_subst(t2, {v: Var(v.name + "'") for v in free_vars(t2)})
        return t1, t2, unify(t1, t2)

    @pytest.mark.parametrize("apart", [False, True])
    def test_agrees_with_the_reference(self, apart):
        rng = random.Random(131 + apart)
        unified = 0
        for _ in range(400):
            t1, t2 = random_term(rng), random_term(rng)
            ok, (left, right) = self.store_unify(t1, t2, apart)
            r1, r2, mgu = self.reference(t1, t2, apart)
            assert ok == (mgu is not None)
            if ok:
                unified += 1
                # sound: the bindings make both sides equal
                assert left == right
                # most general: the common instance is the reference's, up to renaming
                expected = apply_subst(r1, mgu)
                assert match_one_way(left, expected) is not None
                assert match_one_way(expected, left) is not None
        assert unified >= 100

    def test_occurs_check_rejects(self):
        rng = random.Random(133)
        x = Var("x")
        for _ in range(150):
            t = x
            for _ in range(rng.randint(1, 3)):
                t = App("f", (t,)) if rng.random() < 0.6 else App("g", (t, random_term(rng, 1)))
            assert unify(x, t) is None
            assert self.store_unify(x, t, False)[0] is False  # a goal-side cell meets a head-side structure
            assert self.store_unify(t, x, False)[0] is False
        # a cycle through two bindings, not direct nesting
        slots: dict = {}
        goal = tuple(solver._compile(t, slots) for t in (Var("x"), Var("y")))
        head = tuple(solver._compile(t, slots) for t in (App("f", (Var("y"),)), Var("x")))
        assert not solver._unify([None] * len(slots), [], goal, 0, head, 0)
        # a goal p(y, y) against the head p(x, f(x)) in its own frame: y is bound to
        # the head's x, which then meets f(x)
        slots, head_slots = {}, {}
        goal = tuple(solver._compile(t, slots) for t in (Var("y"), Var("y")))
        head = tuple(solver._compile(t, head_slots) for t in (Var("x"), App("f", (Var("x"),))))
        assert not solver._unify([None] * 2, [], goal, 0, head, 1)
        assert unify_atoms(Pred("p", (Var("y"), Var("y"))), Pred("p", (Var("x"), App("f", (Var("x"),))))) is None
