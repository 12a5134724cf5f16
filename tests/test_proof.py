"""Certificate structure, checking, rendering, and serialization."""

import dataclasses
import json

import pytest

from ldlog.proof import (
    BuiltinLeaf,
    CheckError,
    CheckReason,
    ProofTree,
    check_proof,
    proof_bindings,
    render_proof,
    serialize_proof,
)
from ldlog.solver import SolverConfig, solve
from ldlog.terms import Builtin, IntLit, Meta, Pred, Query, StrLit, Var
from support import compile_text

REACH = """
r1: path(x, y) :- edge(x, y).
r2: path(x, y) :- path(x, z), edge(z, y).
f1: edge("a", "b").
f2: edge("b", "c").
f3: edge("b", "d").
q0: path("a", "c")?
"""

RECTS = """
struct Rect(x1, y1, x2, y2).
def rect1 := Rect(50, 50, 400, 100).
def rect2 := Rect(75, 25, 125, 300).
overlap: overlap(Rect(ax1, ay1, ax2, ay2), Rect(bx1, by1, bx2, by2)) :-
    (by2 >= ay1), (by1 <= ay2), (bx2 >= ax1), (bx1 <= ax2).
q0: overlap(rect1, rect2)?
"""


def proof_of(text, name, **cfg):
    kb, queries = compile_text(text)
    q = next(x for x in queries if x.name == name)
    sols = solve(kb, q, SolverConfig(**cfg)) if cfg else solve(kb, q)
    assert sols, f"{name} should be provable"
    return kb, q, sols[0].proof


def reason_of(kb, proof):
    with pytest.raises(CheckError) as err:
        check_proof(kb, proof)
    return err.value


class TestGoldenProofs:
    def test_reach_proof_structure(self):
        kb, _, proof = proof_of(REACH, "q0")
        assert proof.clause_name == "r2"
        assert proof.conclusion == Pred("path", (StrLit("a"), StrLit("c")))
        left, right = proof.children
        assert left.clause_name == "r1"
        assert left.children[0].clause_name == "f1"
        assert left.children[0].children == ()
        assert right.clause_name == "f2"
        check_proof(kb, proof)

    def test_reach_instantiation_is_ground_and_explicit(self):
        _, _, proof = proof_of(REACH, "q0")
        inst = proof.instantiation
        assert inst[Var("x")] == StrLit("a")
        assert inst[Var("z")] == StrLit("b")
        assert inst[Var("y")] == StrLit("c")

    def test_rects_proof_has_four_builtin_leaves(self):
        kb, _, proof = proof_of(RECTS, "q0")
        assert proof.clause_name == "overlap"
        assert len(proof.children) == 4
        assert all(isinstance(c, BuiltinLeaf) for c in proof.children)
        leaves = [c.atom for c in proof.children]
        assert leaves[0] == Builtin("ge", IntLit(300), IntLit(50))
        assert leaves[3] == Builtin("le", IntLit(75), IntLit(400))
        check_proof(kb, proof)


class TestMutations:
    def test_unknown_clause_at_root(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, clause_name="r9")
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.UNKNOWN_CLAUSE
        assert err.path == ()
        assert "r9" in str(err)

    def test_wrong_conclusion_is_head_mismatch(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, conclusion=Pred("path", (StrLit("a"), StrLit("d"))))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.HEAD_MISMATCH
        assert err.path == ()

    def test_tampered_instantiation_is_head_mismatch(self):
        kb, _, proof = proof_of(REACH, "q0")
        inst = dict(proof.instantiation)
        inst[Var("y")] = StrLit("d")
        bad = dataclasses.replace(proof, instantiation=inst)
        assert reason_of(kb, bad).reason is CheckReason.HEAD_MISMATCH

    def test_dropped_premise_is_premise_mismatch(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, children=proof.children[:1])
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == ()

    def test_swapped_children_fail_with_child_path(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, children=tuple(reversed(proof.children)))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == (0,)

    def test_deep_mutation_reports_nested_path(self):
        kb, _, proof = proof_of(REACH, "q0")
        left = proof.children[0]
        leaf = dataclasses.replace(left.children[0], conclusion=Pred("edge", (StrLit("a"), StrLit("c"))))
        bad_left = dataclasses.replace(left, children=(leaf,))
        # left child still concludes path(a, b); its own premise check fails
        bad = dataclasses.replace(proof, children=(bad_left, proof.children[1]))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == (0, 0)

    def test_nonground_conclusion_detected_before_head_check(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, conclusion=Pred("path", (StrLit("a"), Var("y"))))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.NON_GROUND_CONCLUSION
        assert err.path == ()

    def test_falsified_leaf_is_builtin_false(self):
        kb, _, proof = proof_of(RECTS, "q0")
        leaf = BuiltinLeaf(Builtin("ge", IntLit(30), IntLit(50)))
        bad = dataclasses.replace(proof, children=(leaf,) + proof.children[1:])
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.BUILTIN_FALSE
        assert err.path == (0,)

    def test_true_but_wrong_leaf_is_premise_mismatch(self):
        kb, _, proof = proof_of(RECTS, "q0")
        leaf = BuiltinLeaf(Builtin("ge", IntLit(301), IntLit(50)))
        bad = dataclasses.replace(proof, children=(leaf,) + proof.children[1:])
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == (0,)

    def test_type_mismatched_leaf_is_builtin_false(self):
        kb, _, proof = proof_of(RECTS, "q0")
        leaf = BuiltinLeaf(Builtin("ge", StrLit("a"), IntLit(50)))
        bad = dataclasses.replace(proof, children=(leaf,) + proof.children[1:])
        assert reason_of(kb, bad).reason is CheckReason.BUILTIN_FALSE

    def test_nonground_leaf_is_nonground_reason(self):
        kb, _, proof = proof_of(RECTS, "q0")
        leaf = BuiltinLeaf(Builtin("ge", Var("v"), IntLit(50)))
        bad = dataclasses.replace(proof, children=(leaf,) + proof.children[1:])
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.NON_GROUND_CONCLUSION
        assert err.path == (0,)

    def test_subproof_where_leaf_expected(self):
        kb, _, proof = proof_of(RECTS, "q0")
        stray = ProofTree("overlap", {}, Pred("overlap"), ())
        bad = dataclasses.replace(proof, children=(stray,) + proof.children[1:])
        assert reason_of(kb, bad).reason is CheckReason.PREMISE_MISMATCH

    def test_leaf_where_subproof_expected(self):
        kb, _, proof = proof_of(REACH, "q0")
        leaf = BuiltinLeaf(Builtin("eq", IntLit(1), IntLit(1)))
        bad = dataclasses.replace(proof, children=(leaf, proof.children[1]))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == (0,)


class TestRendering:
    def test_golden_render(self):
        _, _, proof = proof_of(REACH, "q0")
        assert render_proof(proof) == "r2 (r1 f1) f2"

    def test_fact_renders_as_bare_name(self):
        _, _, proof = proof_of(REACH, "q0")
        assert render_proof(proof.children[1]) == "f2"

    def test_leaf_renders_parenthesized_comparison(self):
        assert render_proof(BuiltinLeaf(Builtin("ge", IntLit(300), IntLit(50)))) == "(300 >= 50)"
        assert render_proof(BuiltinLeaf(Builtin("ne", StrLit("a"), StrLit("b")))) == '("a" != "b")'

    def test_rects_render(self):
        _, _, proof = proof_of(RECTS, "q0")
        assert render_proof(proof) == "overlap (300 >= 50) (25 <= 100) (125 >= 50) (75 <= 400)"

    def test_childless_applications_never_parenthesized(self):
        _, _, proof = proof_of(REACH, "q0")
        # r1's only child is the fact f1: nested but childless, no parens
        assert render_proof(proof.children[0]) == "r1 f1"


class TestBindingsAndSerialization:
    def test_proof_bindings_reads_placeholders(self):
        text = REACH.replace('q0: path("a", "c")?', 'q0: path("b", m?)?')
        kb, q, proof = proof_of(text, "q0")
        m = Meta(q.placeholder_map["m?"], "m?")
        assert proof_bindings(proof, q) == {m: StrLit("c")}

    def test_ground_goal_has_empty_bindings(self):
        _, q, proof = proof_of(REACH, "q0")
        assert proof_bindings(proof, q) == {}

    def test_mismatched_proof_rejected(self):
        _, q, proof = proof_of(REACH, "q0")
        other = Query("qx", Pred("path", (StrLit("z"), Meta(0, "m?"))), {"m?": 0})
        with pytest.raises(Exception):
            proof_bindings(proof, other)

    def test_json_document_schema(self):
        text = REACH.replace('q0: path("a", "c")?', 'q0: path("b", m?)?')
        _, q, proof = proof_of(text, "q0")
        doc = json.loads(serialize_proof(proof, q))
        assert sorted(doc) == ["bindings", "goal", "query", "render", "tree"]
        assert doc["query"] == "q0"
        assert doc["goal"] == 'path("b", m?)'
        assert doc["bindings"] == {"m?": '"c"'}
        assert doc["render"] == "r1 f2"
        assert doc["tree"] == {
            "clause": "r1",
            "conclusion": 'path("b", "c")',
            "children": [{"clause": "f2", "conclusion": 'edge("b", "c")', "children": []}],
        }

    def test_builtin_leaves_serialize_inline(self):
        _, q, proof = proof_of(RECTS, "q0")
        doc = json.loads(serialize_proof(proof, q))
        assert doc["tree"]["children"][0] == {"builtin": "300 >= 50"}

    def test_bindings_ordered_by_placeholder_id(self):
        text = REACH.replace('q0: path("a", "c")?', "q0: path(a?, b?)?")
        _, q, proof = proof_of(text, "q0")
        doc = json.loads(serialize_proof(proof, q))
        assert list(doc["bindings"]) == ["a?", "b?"]

    def test_serialization_is_deterministic(self):
        _, q, proof = proof_of(RECTS, "q0")
        assert serialize_proof(proof, q) == serialize_proof(proof, q)
