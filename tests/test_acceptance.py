"""End-to-end acceptance: golden programs, differential runs, properties.

One test per criterion; each prints a PASS line with its timing when run
with -s, and pytest -v reports one pass/fail line per criterion.
"""

import dataclasses
import random
import time
from pathlib import Path

from ldlog.cli import main
from ldlog.errors import SourceError
from ldlog.kernel import App, Builtin, BuiltinLeaf, CheckError, CheckReason, IntLit, Meta, Pred, StrLit, Var
from ldlog.oracle import oracle_answers, saturate
from ldlog.parser import parse_program, render_program
from ldlog.proof import check_proof, render_proof
from ldlog.solver import SolverConfig, solve
from ldlog.terms import Query, apply_subst, atom_text, eval_builtin, free_vars, term_text
from ldlog.unify import match_one_way, unify, unify_atoms
from support import (
    compile_text,
    enumeration_bound,
    ground_unifiers,
    random_program_ast,
    random_safe_program,
    random_term,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

REACH = (PROGRAMS / "reach.ldl").read_text() + '\nq2: path("c", "d")?\n'
RECTS = (PROGRAMS / "rects.ldl").read_text() + "\nq2: overlap(rect2, rect3)?\n"


def solve_query(kb, queries, name, **cfg):
    q = next(x for x in queries if x.name == name)
    return q, solve(kb, q, SolverConfig(**cfg))


def expect_reason(kb, proof, reason):
    try:
        check_proof(kb, proof)
    except CheckError as err:
        assert err.reason is reason, f"wanted {reason}, got {err.reason}"
        return
    raise AssertionError(f"mutation was accepted; wanted {reason}")


class TestCriterion1Reachability:
    def test_reachability_golden(self):
        t0 = time.perf_counter()
        kb, queries = compile_text(REACH)
        _, sols = solve_query(kb, queries, "q0")
        assert len(sols) == 1
        assert render_proof(sols[0].proof) == "r2 (r1 f1) f2"

        q1, all_sols = solve_query(kb, queries, "q1", solution_limit=None)
        m = Meta(q1.placeholder_map["m?"], "m?")
        assert {term_text(s.bindings[m]) for s in all_sols} == {'"c"', '"d"'}

        _, none = solve_query(kb, queries, "q2")
        assert none == []
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.100
        print(f"criterion 1 PASS: reachability golden ({elapsed * 1000:.1f} ms)")


class TestCriterion2Rectangles:
    def test_rectangles_golden(self):
        t0 = time.perf_counter()
        kb, queries = compile_text(RECTS)
        for name in ("q0", "q1"):
            _, sols = solve_query(kb, queries, name)
            assert len(sols) == 1
            proof = sols[0].proof
            assert len(proof.children) == 4
            for leaf in proof.children:
                assert isinstance(leaf, BuiltinLeaf)
                assert eval_builtin(leaf.atom) is True
            check_proof(kb, proof)

        _, none = solve_query(kb, queries, "q2")
        assert none == []
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.100
        print(f"criterion 2 PASS: rectangles golden ({elapsed * 1000:.1f} ms)")


class TestCriterion3Derivatives:
    def test_derivative_library_golden(self):
        lib_text = (PROGRAMS / "lib" / "derivs.ldl").read_text()
        main_text = (PROGRAMS / "deriv.ldl").read_text()
        kb, queries = compile_text(main_text, lib_text)
        q0, sols = solve_query(kb, queries, "q0")
        assert len(sols) == 1
        h = Meta(q0.placeholder_map["h?"], "h?")
        assert sols[0].bindings[h] == App("cos")
        assert render_proof(sols[0].proof) == "hasDerivAt_sin"
        print("criterion 3 PASS: derivative library golden")


class TestCriterion4DepthDefault:
    CHAIN = (
        "b0: p0().\n"
        + "".join(f"h{i}: p{i}() :- p{i - 1}().\n" for i in range(1, 7))
        + "q5: p5()?\nq6: p6()?\n"
    )

    def test_height_seven_needs_explicit_depth(self, capsys, tmp_path):
        f = tmp_path / "chain.ldl"
        f.write_text(self.CHAIN)

        assert main(["run", str(f)]) == 1
        out = capsys.readouterr().out
        assert "q5: p5()  proof: h5 (h4 (h3 (h2 (h1 b0))))" in out
        assert "q6: p6()  unprovable (depth 6)" in out

        assert main(["run", str(f), "--max-depth", "7"]) == 0
        out = capsys.readouterr().out
        assert "q6: p6()  proof: h6 (h5 (h4 (h3 (h2 (h1 b0)))))" in out
        print("criterion 4 PASS: default depth 6 bounds proof height")


class TestCriterion5Differential:
    def test_backward_search_matches_oracle(self):
        rng = random.Random(501)
        t0 = time.perf_counter()
        accepted = rejected = probes = 0
        while accepted < 500:
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            fixpoint = saturate(kb)
            depth = len(fixpoint) + 1
            if enumeration_bound(kb, depth) > 10_000:
                rejected += 1
                continue
            accepted += 1
            cfg = SolverConfig(max_depth=depth, solution_limit=None)
            m = Meta(0, "m?")
            for symbol in preds:
                c1 = StrLit(rng.choice(consts).strip('"'))
                c2 = StrLit(rng.choice(consts).strip('"'))
                goals = [
                    (Pred(symbol, (c1, c2)), {}),
                    (Pred(symbol, (c1, m)), {"m?": 0}),
                    (Pred(symbol, (m, c2)), {"m?": 0}),
                ]
                for goal, placeholder_map in goals:
                    probes += 1
                    q = Query("probe", goal, placeholder_map)
                    got = {
                        frozenset((k.source_name, term_text(v)) for k, v in s.bindings.items())
                        for s in solve(kb, q, cfg)
                    }
                    want = {
                        frozenset((k.source_name, term_text(v)) for k, v in b.items())
                        for b in oracle_answers(kb, goal)
                    }
                    assert got == want, f"solver and oracle disagree on {atom_text(goal)} in:\n{text}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        print(
            f"criterion 5 PASS: {accepted} programs, {probes} probes agree with the "
            f"fixpoint oracle ({rejected} rejected as too branchy, {elapsed:.1f} s)"
        )


class TestCriterion6ProofMutations:
    def reach_proof(self):
        kb, queries = compile_text(REACH)
        _, sols = solve_query(kb, queries, "q0")
        return kb, sols[0].proof

    def rects_proof(self):
        kb, queries = compile_text(RECTS)
        _, sols = solve_query(kb, queries, "q0")
        return kb, sols[0].proof

    def deriv_proof(self):
        lib_text = (PROGRAMS / "lib" / "derivs.ldl").read_text()
        kb, queries = compile_text((PROGRAMS / "deriv.ldl").read_text(), lib_text)
        _, sols = solve_query(kb, queries, "q0")
        return kb, sols[0].proof

    def test_reachability_proof_mutations(self):
        kb, proof = self.reach_proof()
        check_proof(kb, proof)
        expect_reason(kb, dataclasses.replace(proof, clause_name="r99"), CheckReason.UNKNOWN_CLAUSE)
        wrong = Pred("path", (StrLit("a"), StrLit("d")))
        expect_reason(kb, dataclasses.replace(proof, conclusion=wrong), CheckReason.HEAD_MISMATCH)
        expect_reason(kb, dataclasses.replace(proof, children=proof.children[:1]), CheckReason.PREMISE_MISMATCH)
        tampered = dict(proof.instantiation)
        tampered[Var("y")] = StrLit("d")
        expect_reason(kb, dataclasses.replace(proof, instantiation=tampered), CheckReason.HEAD_MISMATCH)
        # z only occurs in r2's body, so a z tamper leaves the head intact
        # and is caught at the first premise instead
        tampered = dict(proof.instantiation)
        tampered[Var("z")] = StrLit("c")
        expect_reason(kb, dataclasses.replace(proof, instantiation=tampered), CheckReason.PREMISE_MISMATCH)
        print("criterion 6 PASS: 5 reachability mutations rejected")

    def test_rectangle_proof_mutations(self):
        kb, proof = self.rects_proof()
        check_proof(kb, proof)
        false_leaf = BuiltinLeaf(Builtin("ge", IntLit(30), IntLit(50)))
        expect_reason(
            kb, dataclasses.replace(proof, children=(false_leaf,) + proof.children[1:]), CheckReason.BUILTIN_FALSE
        )
        true_wrong_leaf = BuiltinLeaf(Builtin("ge", IntLit(301), IntLit(50)))
        expect_reason(
            kb,
            dataclasses.replace(proof, children=(true_wrong_leaf,) + proof.children[1:]),
            CheckReason.PREMISE_MISMATCH,
        )
        expect_reason(kb, dataclasses.replace(proof, clause_name="nothing"), CheckReason.UNKNOWN_CLAUSE)
        holey = Pred("overlap", (Var("a"), Var("b")))
        expect_reason(kb, dataclasses.replace(proof, conclusion=holey), CheckReason.NON_GROUND_CONCLUSION)
        print("criterion 6 PASS: 4 rectangle mutations rejected")

    def test_derivative_proof_mutations(self):
        kb, proof = self.deriv_proof()
        check_proof(kb, proof)
        expect_reason(kb, dataclasses.replace(proof, clause_name="hasDerivAt_tan"), CheckReason.UNKNOWN_CLAUSE)
        wrong = Pred("drv", (App("sin"), App("neg_sin")))
        expect_reason(kb, dataclasses.replace(proof, conclusion=wrong), CheckReason.HEAD_MISMATCH)
        stray = (BuiltinLeaf(Builtin("eq", IntLit(1), IntLit(1))),)
        expect_reason(kb, dataclasses.replace(proof, children=stray), CheckReason.PREMISE_MISMATCH)
        unsolved = Pred("drv", (App("sin"), Meta(0, "h?")))
        expect_reason(kb, dataclasses.replace(proof, conclusion=unsolved), CheckReason.NON_GROUND_CONCLUSION)
        print("criterion 6 PASS: 4 derivative mutations rejected")


class TestCriterion7UnificationProperties:
    def test_thousand_random_pairs(self):
        rng = random.Random(701)
        t0 = time.perf_counter()
        pairs = 0

        # soundness: a reported unifier really unifies
        for _ in range(700):
            pairs += 1
            t1, t2 = random_term(rng), random_term(rng)
            s = unify(t1, t2)
            if s is not None:
                assert apply_subst(t1, s) == apply_subst(t2, s)

        # occurs check: every constructed cyclic case is rejected
        for _ in range(150):
            pairs += 1
            x = Var("x")
            t = x
            for _ in range(rng.randint(1, 3)):
                t = App("f", (t,)) if rng.random() < 0.6 else App("g", (t, random_term(rng, 1)))
            assert unify(x, t) is None
            assert unify(t, x) is None
        # cycle created through mutual bindings, not direct nesting
        assert unify_atoms(Pred("p", (Var("x"), Var("y"))), Pred("p", (App("f", (Var("y"),)), Var("x")))) is None
        pairs += 1

        # bounded generality: every ground unifier factors through the mgu
        checked = 0
        while checked < 200:
            pairs += 1
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
                tau = match_one_way(common, apply_subst(pair, sigma))
                assert tau is not None
                for v in variables:
                    assert apply_subst(apply_subst(v, mgu), tau) == sigma[v]

        elapsed = time.perf_counter() - t0
        assert pairs >= 1000
        assert elapsed < 10.0
        print(f"criterion 7 PASS: {pairs} unification pairs ({elapsed:.2f} s)")


class TestCriterion8ParserRoundTrip:
    def round_trip(self, text):
        first = parse_program(text)
        rendered = render_program(first)
        assert parse_program(rendered) == first

    def test_corpus_round_trips(self):
        corpus = sorted(PROGRAMS.rglob("*.ldl"))
        assert len(corpus) >= 3
        for path in corpus:
            self.round_trip(path.read_text())
        self.round_trip(REACH)
        self.round_trip(RECTS)
        print(f"criterion 8 PASS: {len(corpus)} corpus programs round-trip")

    def test_random_programs_round_trip(self):
        rng = random.Random(801)
        for _ in range(500):
            self.round_trip(render_program(random_program_ast(rng)))
        print("criterion 8 PASS: 500 random programs round-trip")

    def test_fuzzing_never_crashes(self):
        rng = random.Random(802)
        soup = (
            "p", "q", "edge", "Rect", "m?", "x1", "_u", "use", "struct", "def",
            ":-", ":", "=", ".", "?", ",", "(", ")", "<", "<=", ">", ">=", "!=",
            '"a"', '"', "\\", "42", "-7", "//x", "\n", " ", "\t",
        )
        t0 = time.perf_counter()
        runs = 0
        while time.perf_counter() - t0 < 10.0:
            runs += 1
            roll = rng.random()
            if roll < 0.5:
                text = "".join(rng.choice(soup) for _ in range(rng.randint(1, 60)))
            elif roll < 0.8:
                text = "".join(chr(rng.randint(32, 126)) for _ in range(rng.randint(1, 200)))
            else:
                text = rng.randbytes(rng.randint(1, 200)).decode("latin-1")
            try:
                parse_program(text)
            except SourceError:
                pass  # rejection with a position is the contract; crashes are not
        print(f"criterion 8 PASS: {runs} fuzz inputs, no crash in 10 s")
