"""Substitution operations and term utilities."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ldlog import terms
from ldlog.terms import (
    App,
    Builtin,
    Clause,
    IntLit,
    KnowledgeBase,
    Meta,
    NonGroundBuiltin,
    Pred,
    StrLit,
    TypeMismatch,
    Var,
    apply_subst,
    apply_subst_atom,
    atom_free_vars,
    atom_is_ground,
    atom_text,
    eval_builtin,
    free_vars,
    is_ground,
    loose_vars,
    quote_string,
    term_text,
)
from ldlog.parser import Application, FactStmt, StrAst, parse_program, render_term
from support import compile_text, random_ground_term, random_term, reference_term_text

SRC = Path(__file__).resolve().parent.parent / "src"

X, Y, Z = Var("x"), Var("y"), Var("z")
A, B, C = StrLit("a"), StrLit("b"), StrLit("c")


def naive_rewrite(t, s):
    """Independent structural rewrite; oracle for apply_subst."""
    if isinstance(t, (Var, Meta)):
        return s.get(t, t)
    if isinstance(t, App):
        return App(t.constructor, tuple(naive_rewrite(a, s) for a in t.args))
    return t


def random_ground_subst(rng, depth=2):
    return {v: random_ground_term(rng, depth) for v in (X, Y, Z) if rng.random() < 0.6}


class TestApplySubst:
    def test_bound_var_replaced(self):
        assert apply_subst(X, {X: A}) == A

    def test_unbound_var_preserved(self):
        assert apply_subst(X, {Y: A}) == X

    def test_meta_replaced(self):
        m = Meta(0, "m?")
        assert apply_subst(m, {m: IntLit(3)}) == IntLit(3)

    def test_application_recurses(self):
        t = App("edge", (X, Y))
        s = {X: A}
        expected = App("edge", (A, Y))
        assert apply_subst(t, s) == expected
        assert naive_rewrite(t, s) == expected

    def test_ground_term_unchanged(self):
        t = App("f", (IntLit(1), App("g", (B,))))
        assert apply_subst(t, {X: A}) == t

    def test_matches_structural_oracle_on_random_terms(self):
        rng = random.Random(101)
        for _ in range(400):
            t = random_term(rng, 4)
            s = random_ground_subst(rng)
            assert apply_subst(t, s) == naive_rewrite(t, s)

    def test_atom_application(self):
        a = Pred("edge", (X, B))
        assert apply_subst_atom(a, {X: A}) == Pred("edge", (A, B))
        b = Builtin("ge", X, IntLit(2))
        assert apply_subst_atom(b, {X: IntLit(5)}) == Builtin("ge", IntLit(5), IntLit(2))


class TestFreeVarsAndGroundness:
    def test_free_vars_collects_vars_and_metas(self):
        m = Meta(1, "h?")
        t = App("f", (X, App("g", (m, A))))
        assert free_vars(t) == {X, m}

    def test_ground_term_has_no_free_vars(self):
        t = App("f", (IntLit(0), B))
        assert free_vars(t) == set()
        assert is_ground(t)

    def test_var_not_ground(self):
        assert not is_ground(X)
        assert not is_ground(App("f", (X,)))

    def test_atom_helpers(self):
        a = Pred("p", (X, A))
        assert atom_free_vars(a) == {X}
        assert not atom_is_ground(a)
        assert atom_is_ground(Pred("p", (A, B)))
        assert atom_free_vars(Builtin("lt", X, Y)) == {X, Y}


class TestEvalBuiltin:
    def test_integer_comparisons(self):
        assert eval_builtin(Builtin("ge", IntLit(300), IntLit(50)))
        assert eval_builtin(Builtin("gt", IntLit(150), IntLit(125)))
        assert not eval_builtin(Builtin("lt", IntLit(3), IntLit(3)))
        assert eval_builtin(Builtin("le", IntLit(3), IntLit(3)))
        assert eval_builtin(Builtin("eq", IntLit(-1), IntLit(-1)))
        assert eval_builtin(Builtin("ne", IntLit(1), IntLit(2)))

    def test_string_equality_only(self):
        assert eval_builtin(Builtin("eq", A, A))
        assert eval_builtin(Builtin("ne", A, B))
        assert not eval_builtin(Builtin("eq", A, B))
        with pytest.raises(TypeMismatch, match="ordered comparison on strings"):
            eval_builtin(Builtin("lt", A, B))

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeMismatch, match="mixed or structured operands"):
            eval_builtin(Builtin("eq", IntLit(1), A))
        with pytest.raises(TypeMismatch, match="mixed or structured operands"):
            eval_builtin(Builtin("ge", App("f", ()), IntLit(0)))

    def test_non_ground_rejected(self):
        with pytest.raises(NonGroundBuiltin):
            eval_builtin(Builtin("lt", X, IntLit(1)))


class TestTermText:
    def test_literals(self):
        assert term_text(IntLit(-7)) == "-7"
        assert term_text(StrLit("d")) == '"d"'
        assert quote_string('say "hi"\n') == '"say \\"hi\\"\\n"'

    def test_constants_and_applications(self):
        assert term_text(App("sin")) == "sin"
        assert term_text(App("Rect", (IntLit(1), IntLit(2)))) == "Rect(1, 2)"

    def test_variables_and_placeholders(self):
        assert term_text(Var("x#3")) == "x#3"
        assert term_text(Meta(0, "m?")) == "m?"

    def test_atoms(self):
        assert atom_text(Pred("path", (A, C))) == 'path("a", "c")'
        assert atom_text(Builtin("ge", IntLit(300), IntLit(50))) == "300 >= 50"
        assert atom_text(Pred("p", ())) == "p()"

    @pytest.mark.parametrize("seed", [101, 214, 501])
    def test_matches_recursive_reference_on_random_terms(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            t = random_term(rng, rng.randint(0, 6))
            assert term_text(t) == reference_term_text(t)

    def test_deep_constructor_nesting(self):
        # past the recursion limit, with a second argument closing each level
        t = Var("x")
        for i in range(1500):
            t = App("g", (t, IntLit(i % 3)))
        assert term_text(t) == "g(" * 1500 + "x" + "".join(f", {i % 3})" for i in range(1500))


def reference_quote_string(value):
    """The per-character definition quote_string must agree with."""
    escapes = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}
    return '"' + "".join(escapes.get(ch, ch) for ch in value) + '"'


def random_string(rng):
    alphabet = 'ab "\\\n\t\r\x00\u00e9\u2192\U0001d53c'
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))


class TestQuoteString:
    def test_matches_the_per_character_definition(self):
        rng = random.Random(47)
        for _ in range(3000):
            value = random_string(rng)
            assert quote_string(value) == reference_quote_string(value)
        for value in ("", '"', "\\", "\n", "\t", "\r", "\x00", "\u00e9", '\\"\n\t'):
            assert quote_string(value) == reference_quote_string(value)

    def test_string_literals_round_trip_through_the_parser(self):
        rng = random.Random(48)
        for _ in range(1000):
            value = random_string(rng)
            text = f"f: p({render_term(StrAst(value))})."
            assert parse_program(text) == [FactStmt("f", Application("p", (StrAst(value),)))], text


class TestPickling:
    def test_variables_loaded_from_another_hash_seed_hash_afresh(self):
        # each variable and literal caches its hash, which string hashing makes
        # differ between processes; the literals' texts are made before pickling
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from ldlog.terms import IntLit, Meta, StrLit, Var, term_text\n"
            "lits = (StrLit('x'), IntLit(7))\n"
            "[term_text(t) for t in lits]\n"
            "sys.stdout.buffer.write(pickle.dumps((Var('x'), Meta(0, 'a?')) + lits + (hash('x'),)))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
        var, meta, string, integer, their_hash = pickle.loads(proc.stdout)
        assert their_hash != hash("x")  # the child really hashed strings differently
        pairs = ((var, Var("x")), (meta, Meta(0, "a?")), (string, StrLit("x")), (integer, IntLit(7)))
        for loaded, fresh in pairs:
            assert loaded == fresh
            assert hash(loaded) == hash(fresh)
            assert {fresh: "found"}[loaded] == "found"
        assert "_text" not in vars(string) and "_text" not in vars(integer)
        assert (term_text(string), term_text(integer)) == ('"x"', "7")


class TestLiterals:
    @pytest.mark.parametrize("value", ["", "x", 'a "b"\n', 0, 7, -(2**63)])
    def test_hash_is_the_generated_one(self, value):
        # the value a generated dataclass hash gives, so set and dict orders do not move
        lit = StrLit(value) if isinstance(value, str) else IntLit(value)
        assert hash(lit) == hash((value,))

    def test_equality_repr_and_fields_stay_by_value(self):
        for lit, twin, other in ((StrLit("x"), StrLit("x"), StrLit("y")), (IntLit(7), IntLit(7), IntLit(8))):
            term_text(lit)  # a kept text is no field
            assert lit == twin and lit is not twin and lit != other
            assert repr(lit) == repr(twin)
            assert [f.name for f in dataclasses.fields(lit)] == ["value"]
        assert StrLit("7") != IntLit(7) and StrLit("x") != Var("x")

    def test_text_is_made_once_per_literal(self, monkeypatch):
        calls = []
        real = terms.quote_string
        monkeypatch.setattr(terms, "quote_string", lambda v: calls.append(v) or real(v))
        lit = StrLit('a"b')
        assert [term_text(lit), term_text(lit), atom_text(Pred("p", (lit, lit)))] == ['"a\\"b"'] * 2 + ['p("a\\"b", "a\\"b")']
        assert calls == ['a"b']
        assert term_text(StrLit('a"b')) == '"a\\"b"' and len(calls) == 2  # an equal literal made apart has its own


class TestLooseClause:
    """A KB names its first clause with a variable in no predicate premise, or None."""

    TEXT = 'f: q("a").\nr: p(x) :- q(x).\nu: w(x, y) :- q(x), (y > 1).\nv: s(z) :- (z > 1).'

    def test_first_loose_clause_in_declaration_order(self):
        kb, _ = compile_text(self.TEXT)
        assert kb.loose_clause is kb.clauses["u"]
        assert loose_vars(kb.loose_clause) == {Y}
        assert compile_text('f: q("a").\nr: p(x) :- q(x).')[0].loose_clause is None

    @pytest.mark.parametrize(
        "args, loose",
        [((A, IntLit(1), App("f", (B,)), App("nil")), False), ((A, App("f", (B, X))), True), ((Y, A), True)],
    )
    def test_a_fact_is_loose_unless_ground(self, args, loose):
        fact = Clause("f", Pred("p", args))
        kb = KnowledgeBase({"g": Clause("g", Pred("q", (A,))), "f": fact})
        assert kb.loose_clause is (fact if loose else None)

    def test_replace_recomputes_it(self):
        kb, _ = compile_text(self.TEXT)
        safe = dataclasses.replace(kb, clauses={n: c for n, c in kb.clauses.items() if n not in ("u", "v")})
        assert safe.loose_clause is None
        assert dataclasses.replace(safe, clauses={**safe.clauses}).loose_clause is None
        loose = Clause("loose", Pred("p", (X,)))  # built through the API: the elaborator makes every fact ground
        assert dataclasses.replace(safe, clauses={**safe.clauses, "loose": loose}).loose_clause is loose
        assert dataclasses.replace(kb, clauses={"v": kb.clauses["v"], **kb.clauses}).loose_clause is kb.clauses["v"]

    def test_equality_and_repr_leave_it_out(self):
        kb, _ = compile_text(self.TEXT)
        twin = dataclasses.replace(kb)
        assert twin == kb and twin.loose_clause is kb.loose_clause
        assert repr(kb) == f"KnowledgeBase(clauses={kb.clauses!r}, constructors={kb.constructors!r}, defs={kb.defs!r})"
        assert [f.name for f in dataclasses.fields(kb) if f.compare] == ["clauses", "constructors", "defs"]
        with pytest.raises(ValueError):
            dataclasses.replace(kb, loose_clause=None)  # derived, not a parameter
