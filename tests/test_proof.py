"""Certificate structure, checking, rendering, and serialization."""

import ast
import dataclasses
import gc
import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest

from ldlog import kernel as kernel_module
from ldlog import proof as proof_module
from ldlog import terms as terms_module
from ldlog.errors import LdlogError
from ldlog.kernel import BuiltinLeaf, CheckError, CheckReason, ProofTree, check_proof
from ldlog.oracle import oracle_answers
from ldlog.proof import proof_bindings, render_proof, serialize_proof
from ldlog.solver import SolverConfig, solve
from ldlog.terms import App, Builtin, Clause, IntLit, KnowledgeBase, Meta, Pred, Query, StrLit, Var
from support import (
    compile_text,
    diamond_ladder,
    enumeration_bound,
    random_safe_program,
    random_term_program,
    reference_atom_is_ground,
    reference_check,
    reference_serialize,
    reference_well_formed,
    self_referring_functions,
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
"""

RECTS = """
struct Rect(x1, y1, x2, y2).
def rect1 := Rect(50, 50, 400, 100).
def rect2 := Rect(75, 25, 125, 300).
overlap: overlap(Rect(ax1, ay1, ax2, ay2), Rect(bx1, by1, bx2, by2)) :-
    (by2 >= ay1), (by1 <= ay2), (bx2 >= ax1), (bx1 <= ax2).
q0: overlap(rect1, rect2)?
"""

NAT = "z: nat(0).\nq0: nat(0)?"

BIG = "n: num(3).\nr: big(x) :- num(x), (x > 0).\nq0: big(3)?"

BIG5 = "n: n(5).\nr: big(x) :- n(x), (x > 3).\nq0: big(5)?"

N1 = "n: n(1).\nq0: n(1)?"

LOOSE_BIG = "r: big(x) :- (x > 3).\nq0: big(5)?"


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


def test_checker_imports_nothing_from_the_evaluators():
    tree = ast.parse(Path(kernel_module.__file__).read_text())
    names = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules = {name.rpartition(".")[2] for name in names}
    assert "terms" in modules and not modules & {"solver", "index", "oracle", "cli"}


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


def at_child(i, **fields):
    """A change that replaces fields of the root's i-th child."""

    def change(proof):
        child = dataclasses.replace(proof.children[i], **fields)
        return dataclasses.replace(proof, children=proof.children[:i] + (child,) + proof.children[i + 1 :])

    return change


def through_z(bad):
    """A change that binds r2's body-only z to bad and lets child 0 conclude path("a", bad)."""

    def change(proof):
        s = {**proof.instantiation, Var("z"): bad}
        child = dataclasses.replace(proof.children[0], conclusion=Pred("path", (proof.conclusion.args[0], bad)))
        return dataclasses.replace(proof, instantiation=s, children=(child,) + proof.children[1:])

    return change


def binding_z(bad):
    """A change that binds r2's body-only z to bad and leaves the children as they are."""
    return lambda proof: dataclasses.replace(proof, instantiation={**proof.instantiation, Var("z"): bad})


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

    def test_leaf_holding_a_predicate_is_premise_mismatch(self):
        # the leaf's type is right but its atom is not a comparison
        kb, _, proof = proof_of(RECTS, "q0")
        leaf = BuiltinLeaf(Pred("overlap", (IntLit(1), IntLit(2))))
        bad = dataclasses.replace(proof, children=proof.children[:2] + (leaf,) + proof.children[3:])
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.PREMISE_MISMATCH
        assert err.path == (2,)
        assert err.detail == "comparison premise needs a builtin leaf"

    def test_builtin_conclusion_is_head_mismatch(self):
        kb, _, proof = proof_of(REACH, "q0")
        bad = dataclasses.replace(proof, conclusion=Builtin("eq", IntLit(1), IntLit(1)))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.HEAD_MISMATCH
        assert err.path == ()

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

    def test_conclusion_is_read_before_the_clause_name(self):
        """Every node's conclusion is read first: a child with an unknown clause
        name that concludes a non-term through its premise is a HeadMismatch."""
        kb, _, proof = proof_of(REACH, "q0")
        bad = at_child(0, clause_name="r9")(through_z(App("G", (Var("v"), None)))(proof))
        err = reason_of(kb, bad)
        assert (err.reason, err.path, err.detail) == (CheckReason.HEAD_MISMATCH, (0,), "the conclusion holds a non-term")

    @pytest.mark.parametrize(
        "text, change, reason, path",
        [
            (REACH, lambda p: BuiltinLeaf(Builtin("eq", IntLit(1), IntLit(1))), CheckReason.PREMISE_MISMATCH, ()),
            (REACH, lambda p: None, CheckReason.PREMISE_MISMATCH, ()),
            (REACH, lambda p: dataclasses.replace(p, conclusion=None), CheckReason.HEAD_MISMATCH, ()),
            (REACH, lambda p: dataclasses.replace(p, conclusion='path("a", "c")'), CheckReason.HEAD_MISMATCH, ()),
            (REACH, at_child(0, conclusion=None), CheckReason.HEAD_MISMATCH, (0,)),
            (REACH, lambda p: dataclasses.replace(p, instantiation=None), CheckReason.HEAD_MISMATCH, ()),
            (REACH, lambda p: dataclasses.replace(p, instantiation=list(p.instantiation.items())), CheckReason.HEAD_MISMATCH, ()),
            (REACH, at_child(1, instantiation=None), CheckReason.HEAD_MISMATCH, (1,)),
            (REACH, lambda p: dataclasses.replace(p, children=None), CheckReason.PREMISE_MISMATCH, ()),
            (REACH, lambda p: dataclasses.replace(p, children=list(p.children)), CheckReason.PREMISE_MISMATCH, ()),
            (REACH, lambda p: dataclasses.replace(p, clause_name=["r2"]), CheckReason.UNKNOWN_CLAUSE, ()),
            (REACH, at_child(0, clause_name=None), CheckReason.UNKNOWN_CLAUSE, (0,)),
            *(
                (NAT, lambda p, c=conclusion: dataclasses.replace(p, conclusion=c), CheckReason.HEAD_MISMATCH, ())
                for conclusion in (
                    Pred("nat", 5),
                    Pred("nat", (None,)),
                    Pred("nat", (5,)),
                    Pred("nat", (App("F", 5),)),
                    Pred("nat", (App("F", (None,)),)),
                    Pred("nat", (Var("y"), None)),
                    Pred("nat", (App("F", (Var("y"), 5)),)),
                )
            ),
            *(
                (BIG, at_child(1, atom=atom), CheckReason.PREMISE_MISMATCH, (1,))
                for atom in (
                    Builtin("gt", None, IntLit(0)),
                    Builtin("gt", App("F", 3), IntLit(0)),
                    Builtin("gt", App("F", (None,)), IntLit(0)),
                    Builtin("gt", Var("x"), None),
                )
            ),
            (REACH, at_child(0, conclusion=Pred("path", (None, StrLit("b")))), CheckReason.HEAD_MISMATCH, (0,)),
            (REACH, at_child(0, conclusion=Pred("path", (Var("x"), None))), CheckReason.HEAD_MISMATCH, (0,)),
            (REACH, through_z(App("G", (Var("v"), None))), CheckReason.HEAD_MISMATCH, (0,)),
            *(
                (REACH, binding_z(value), CheckReason.PREMISE_MISMATCH, (0,))
                for value in (None, 5, [1], App("F", 5))
            ),
            *(
                (BIG, at_child(1, atom=Builtin(op, IntLit(3), IntLit(0))), CheckReason.PREMISE_MISMATCH, (1,))
                for op in ("zz", None, ["gt"])
            ),
            # printing a symbol that is not a str would format it, here through App's recursive repr
            (NAT, lambda p: dataclasses.replace(p, conclusion=Pred(nested_f(0), (IntLit(0),))), CheckReason.HEAD_MISMATCH, ()),
        ],
        ids=[
            "leaf-root",
            "none-root",
            "none-conclusion",
            "str-conclusion",
            "child-none-conclusion",
            "none-instantiation",
            "list-instantiation",
            "fact-none-instantiation",
            "none-children",
            "list-children",
            "list-clause-name",
            "child-none-clause-name",
            "int-args",
            "none-arg",
            "int-arg",
            "int-app-args",
            "none-app-arg",
            "none-after-var",
            "int-after-var-in-app",
            "none-leaf-operand",
            "int-app-args-leaf",
            "none-app-arg-leaf",
            "none-after-var-leaf",
            "child-none-arg",
            "child-none-after-var",
            "matched-child-none-after-var",
            "none-instantiation-value",
            "int-instantiation-value",
            "list-instantiation-value",
            "int-app-args-instantiation-value",
            "unknown-leaf-op",
            "none-leaf-op",
            "list-leaf-op",
            "deep-term-as-symbol",
        ],
    )
    def test_malformed_node_is_a_check_error(self, text, change, reason, path):
        """A node whose fields or terms have the wrong types fails as a
        CheckError with an existing reason, never as a raw exception."""
        kb, _, proof = proof_of(text, "q0")
        err = reason_of(kb, change(proof))
        assert (err.reason, err.path) == (reason, path)

    @pytest.mark.parametrize(
        "text, change, reason, path, detail",
        [
            *(
                (
                    BIG5,
                    lambda p, t=term: dataclasses.replace(p, conclusion=Pred("big", (t,))),
                    CheckReason.HEAD_MISMATCH,
                    (),
                    "the conclusion holds a malformed literal or name",
                )
                for term in (StrLit(5), App(5, ()), Var(None))
            ),
            *(
                (
                    BIG5,
                    at_child(1, atom=Builtin("gt", IntLit(5), operand)),
                    CheckReason.PREMISE_MISMATCH,
                    (1,),
                    "the leaf holds a malformed literal or name",
                )
                for operand in (IntLit("3"), StrLit(5), IntLit(None))
            ),
            (
                REACH,
                binding_z(StrLit(5)),
                CheckReason.PREMISE_MISMATCH,
                (0,),
                "the instantiated premise holds a malformed literal or name",
            ),
            (
                REACH,
                at_child(0, conclusion=Pred("path", (StrLit("a"), App("F", (Var(None),))))),
                CheckReason.HEAD_MISMATCH,
                (0,),
                "the conclusion holds a malformed literal or name",
            ),
            # payloads that compare equal to the right int but are a bool or a float
            *(
                (
                    N1,
                    lambda p, t=term: dataclasses.replace(p, conclusion=Pred("n", (t,))),
                    CheckReason.HEAD_MISMATCH,
                    (),
                    "the conclusion holds a malformed literal or name",
                )
                for term in (IntLit(True), IntLit(1.0))
            ),
            (
                LOOSE_BIG,
                lambda p: dataclasses.replace(p, conclusion=Pred("big", (IntLit(5.0),)), instantiation={Var("x"): IntLit(5.0)}),
                CheckReason.HEAD_MISMATCH,
                (),
                "the conclusion holds a malformed literal or name",
            ),
        ],
        ids=[
            "str-literal-holding-int-in-conclusion",
            "constructor-named-by-int-in-conclusion",
            "variable-named-none-in-conclusion",
            "int-literal-holding-str-leaf-operand",
            "str-literal-holding-int-leaf-operand",
            "int-literal-holding-none-leaf-operand",
            "str-literal-holding-int-instantiation-value",
            "variable-named-none-in-child-conclusion",
            "bool-payload-equal-to-the-fact",
            "float-payload-equal-to-the-fact",
            "float-payload-through-a-loose-clause",
        ],
    )
    def test_malformed_literal_or_name_is_a_check_error(self, text, change, reason, path, detail):
        """A literal payload or a name inside a term of the wrong type fails as
        a CheckError where the checker reads the atom that holds it."""
        kb, _, proof = proof_of(text, "q0")
        err = reason_of(kb, change(proof))
        assert (err.reason, err.path, err.detail) == (reason, path, detail)


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
        with pytest.raises(LdlogError, match="not an instance of"):
            proof_bindings(proof, other)

    @pytest.mark.parametrize(
        "goal, conclusion",
        [
            (Pred("p", (Meta(0, "m?"), Meta(0, "m?"))), Pred("p", (IntLit(1), IntLit(2)))),
            (Pred("p", (App("F", (Meta(0, "m?"),)),)), Pred("p", (App("G", (IntLit(1),)),))),
            (Pred("p", (App("F", (Meta(0, "m?"),)),)), Pred("p", (App("F", (IntLit(1), IntLit(2))),))),
            (Pred("p", (App("F", (Meta(0, "m?"),)),)), Pred("p", (IntLit(1),))),
            (Pred("p", (Meta(0, "m?"),)), Pred("p", (IntLit(1), IntLit(2)))),
            (Pred("p", (Meta(0, "m?"),)), Pred("q", (IntLit(1),))),
            (Builtin("lt", Meta(0, "m?"), IntLit(2)), Pred("p", (IntLit(1),))),
        ],
    )
    def test_mismatched_shapes_rejected(self, goal, conclusion):
        """The positional read of the bindings never indexes past a mismatched
        shape: every such proof is rejected as not an instance of the goal."""
        q = Query("qx", goal, {"m?": 0})
        with pytest.raises(LdlogError, match="not an instance of"):
            proof_bindings(ProofTree("f", {}, conclusion), q)

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


def chain_proof(height):
    """The zero-arity chain p_i() :- p_{i-1}(), its query and its one proof, of the given height."""
    lines = ["b0: p0()."] + [f"h{i}: p{i}() :- p{i - 1}()." for i in range(1, height)] + [f"q: p{height - 1}()?"]
    return proof_of("\n".join(lines), "q", max_depth=height)


def nested_f(n, args=tuple):
    """F(F(...F(n)...)), 2,000 constructors deep, each holding its argument in args."""
    term = IntLit(n)
    for _ in range(2000):
        term = App("F", args((term,)))
    return term


class TestDeepProofs:
    """Checking, rendering and serializing walk explicit stacks: height is not bounded by recursion."""

    def test_height_3000_checks_and_renders(self):
        kb, _, proof = chain_proof(3000)
        check_proof(kb, proof)
        want = "b0"
        for i in range(1, 3000):
            want = f"h{i} {want}" if i == 1 else f"h{i} ({want})"
        assert render_proof(proof) == want

    def test_height_3000_serializes(self):
        _, q, proof = chain_proof(3000)
        tree = '{"clause": "b0", "conclusion": "p0()", "children": []}'
        for i in range(1, 3000):
            tree = f'{{"clause": "h{i}", "conclusion": "p{i}()", "children": [{tree}]}}'
        render = json.dumps(render_proof(proof))
        assert serialize_proof(proof, q) == f'{{"query": "q", "goal": "p2999()", "bindings": {{}}, "render": {render}, "tree": {tree}}}'

    def test_height_1100_constructor_conclusions_check(self):
        """nat(F(...F(0)...)) at the root nests 1,100 deep, past the recursion
        limit that a recursive ground test would hit: the kernel's ground test,
        `terms.atom_is_ground`, walks it with a stack."""
        kb, _ = compile_text("z: nat(0).\ns: nat(F(x)) :- nat(x).")
        x, term = Var("x"), IntLit(0)
        node = ProofTree("z", {}, Pred("nat", (term,)))
        for _ in range(1, 1100):
            node = ProofTree("s", {x: term}, Pred("nat", (App("F", (term,)),)), (node,))
            term = node.conclusion.args[0]
        check_proof(kb, node)
        open_term = Var("y")
        for _ in range(1100):
            open_term = App("F", (open_term,))
        assert terms_module.atom_is_ground(Pred("nat", (open_term,))) is False

    def test_height_1100_non_ground_conclusion_is_reported(self):
        """The error's detail prints nat(F(...F(y)...)) 1,100 deep, which
        `term_text` writes with a stack, not one call per level."""
        kb, _ = compile_text("z: nat(0).\ns: nat(F(x)) :- nat(x).")
        open_term = Var("y")
        for _ in range(1100):
            open_term = App("F", (open_term,))
        err = reason_of(kb, ProofTree("z", {}, Pred("nat", (open_term,))))
        assert err.reason is CheckReason.NON_GROUND_CONCLUSION and err.path == ()
        assert err.detail == "nat(" + "F(" * 1100 + "y" + ")" * 1101

    @staticmethod
    def deep_binding(bottom=0, child_bottom=0):
        """`r: p(x) :- q(x).` and a fact q(F^2000(0)), with a certificate whose
        binding of x, conclusion and child each hold their own F^2000 term."""
        x, nest = Var("x"), nested_f
        r = Clause("r", Pred("p", (x,)), (Pred("q", (x,)),))
        kb = KnowledgeBase({"r": r, "f": Clause("f", Pred("q", (nest(0),)))})
        child = ProofTree("f", {}, Pred("q", (nest(child_bottom),)))
        return kb, ProofTree("r", {x: nest(0)}, Pred("p", (nest(bottom),)), (child,))

    def test_deep_binding_equal_to_distinct_terms_checks(self):
        """Each comparison of x's 2,000-deep binding with an equal, distinct
        term runs on a stack, not through App's recursive __eq__."""
        check_proof(*self.deep_binding())

    @pytest.mark.parametrize(
        "bottom, child_bottom, reason, path",
        [(1, 0, CheckReason.HEAD_MISMATCH, ()), (0, 1, CheckReason.PREMISE_MISMATCH, (0,))],
        ids=["conclusion", "child"],
    )
    def test_deep_binding_unequal_only_at_the_bottom(self, bottom, child_bottom, reason, path):
        err = reason_of(*self.deep_binding(bottom, child_bottom))
        assert (err.reason, err.path) == (reason, path)

    def test_deep_binding_with_list_args_is_compared_on_a_stack(self):
        x, nest = Var("x"), lambda n: nested_f(n, list)
        assert kernel_module.instantiates(Pred("p", (x,)), {x: nest(0)}, Pred("p", (nest(0),))) is True
        assert kernel_module.instantiates(Pred("p", (x,)), {x: nest(0)}, Pred("p", (nest(1),))) is False

    def test_deep_premise_mismatch_is_reported(self):
        """The detail prints the premise instantiated with a stack: `p(x, d1499)`
        nests 1,500 deep, and the child proves `g` for "b", not "a"."""
        defs = ["def d0 := 0."] + [f"def d{i} := F(d{i - 1})." for i in range(1, 1500)]
        kb, _ = compile_text("\n".join(defs + ['g: p("b", d1499).', "r: q(x) :- p(x, d1499)."]))
        child = ProofTree("g", {}, kb.clauses["g"].head)
        err = reason_of(kb, ProofTree("r", {Var("x"): StrLit("a")}, Pred("q", (StrLit("a"),)), (child,)))
        deep = "F(" * 1499 + "0" + ")" * 1499
        assert (err.reason, err.path) == (CheckReason.PREMISE_MISMATCH, (0,))
        assert err.detail == f'child concludes p("b", {deep}), premise needs p("a", {deep})'

    def test_mutation_at_the_bottom_reports_the_full_path(self):
        kb, _, proof = chain_proof(3000)
        spine = [proof]
        while spine[-1].children:
            spine.append(spine[-1].children[0])
        bad = dataclasses.replace(spine.pop(), clause_name="b9")
        while spine:
            bad = dataclasses.replace(spine.pop(), children=(bad,))
        err = reason_of(kb, bad)
        assert err.reason is CheckReason.UNKNOWN_CLAUSE
        assert err.path == (0,) * 2999
        assert str(err).startswith("UnknownClause at 0/0/0/")


def outcome(check, kb, proof):
    """What a checker does with a certificate: None, or its error's type and fields."""
    try:
        check(kb, proof)
    except CheckError as err:
        return CheckError, err.path, err.reason, err.detail, str(err)
    except Exception as err:  # any other error: both checkers must raise it alike
        return type(err), str(err)
    return None


def criterion_6_mutations():
    """The mutated certificates of tests/test_acceptance.py's Criterion 6, with their KBs."""
    reach = (PROGRAMS / "reach.ldl").read_text()
    rects = (PROGRAMS / "rects.ldl").read_text()
    derivs = (PROGRAMS / "lib" / "derivs.ldl").read_text()
    out = []

    kb, queries = compile_text(reach)
    proof = solve(kb, queries[0])[0].proof
    tampered_y, tampered_z = dict(proof.instantiation), dict(proof.instantiation)
    tampered_y[Var("y")] = StrLit("d")
    tampered_z[Var("z")] = StrLit("c")
    out += [(kb, m) for m in (
        proof,
        dataclasses.replace(proof, clause_name="r99"),
        dataclasses.replace(proof, conclusion=Pred("path", (StrLit("a"), StrLit("d")))),
        dataclasses.replace(proof, children=proof.children[:1]),
        dataclasses.replace(proof, instantiation=tampered_y),
        dataclasses.replace(proof, instantiation=tampered_z),
    )]

    kb, queries = compile_text(rects)
    proof = solve(kb, queries[0])[0].proof
    false_leaf = BuiltinLeaf(Builtin("ge", IntLit(30), IntLit(50)))
    true_wrong_leaf = BuiltinLeaf(Builtin("ge", IntLit(301), IntLit(50)))
    out += [(kb, m) for m in (
        proof,
        dataclasses.replace(proof, children=(false_leaf,) + proof.children[1:]),
        dataclasses.replace(proof, children=(true_wrong_leaf,) + proof.children[1:]),
        dataclasses.replace(proof, clause_name="nothing"),
        dataclasses.replace(proof, conclusion=Pred("overlap", (Var("a"), Var("b")))),
    )]

    kb, queries = compile_text((PROGRAMS / "deriv.ldl").read_text(), derivs)
    proof = solve(kb, queries[0])[0].proof
    out += [(kb, m) for m in (
        proof,
        dataclasses.replace(proof, clause_name="hasDerivAt_tan"),
        dataclasses.replace(proof, conclusion=Pred("drv", (App("sin"), App("neg_sin")))),
        dataclasses.replace(proof, children=(BuiltinLeaf(Builtin("eq", IntLit(1), IntLit(1))),)),
        dataclasses.replace(proof, conclusion=Pred("drv", (App("sin"), Meta(0, "h?")))),
    )]
    return out


def random_value(rng):
    return rng.choice((IntLit(rng.randint(0, 3)), StrLit(rng.choice("abc")), App("h"), Var("v"), Meta(0, "m?")))


def mutate(rng, kb, node):
    """One random corruption of a certificate node."""
    if isinstance(node, BuiltinLeaf):
        if rng.random() < 0.2:
            return ProofTree(rng.choice(list(kb.clauses)), {}, Pred("p"), ())
        return BuiltinLeaf(Builtin(rng.choice(("lt", "le", "gt", "ge", "eq", "ne")), random_value(rng), random_value(rng)))
    kind = rng.randrange(7)
    if kind == 0:
        return dataclasses.replace(node, clause_name=rng.choice(list(kb.clauses) + ["nope"]))
    if kind == 1:
        args = list(node.conclusion.args)
        if args:
            args[rng.randrange(len(args))] = random_value(rng)
        return dataclasses.replace(node, conclusion=Pred(node.conclusion.symbol, tuple(args)))
    if kind == 2:
        children = node.children[:-1] if node.children and rng.random() < 0.5 else node.children + node.children[:1]
        return dataclasses.replace(node, children=children)
    if kind == 3:
        return dataclasses.replace(node, children=tuple(reversed(node.children)))
    if kind == 4 and node.instantiation:
        inst = dict(node.instantiation)
        key = rng.choice(sorted(inst, key=lambda v: v.name))
        if rng.random() < 0.8:
            inst[key] = random_value(rng)
        else:
            del inst[key]
        return dataclasses.replace(node, instantiation=inst)
    if kind == 5 and node.children:
        i = rng.randrange(len(node.children))
        stray = BuiltinLeaf(Builtin("eq", IntLit(1), IntLit(1))) if rng.random() < 0.5 else node
        return dataclasses.replace(node, children=node.children[:i] + (stray,) + node.children[i + 1:])
    return dataclasses.replace(node, conclusion=rng.choice((Pred("p"), Pred(node.conclusion.symbol, ()))))


def mutate_somewhere(rng, kb, proof, mutate=mutate):
    """proof with one node, picked uniformly, corrupted by mutate."""
    paths, stack = [], [((), proof)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        if isinstance(node, ProofTree):
            stack.extend((path + (i,), c) for i, c in enumerate(node.children))
    return _replace_at(proof, rng.choice(paths), lambda node: mutate(rng, kb, node))


def _replace_at(node, path, change):
    if not path:
        return change(node)
    i = path[0]
    child = _replace_at(node.children[i], path[1:], change)
    return dataclasses.replace(node, children=node.children[:i] + (child,) + node.children[i + 1:])


class TestAgainstReferenceChecker:
    """The stack-walking checker raises what the recursive reference raises, field for field."""

    def assert_same(self, kb, proof):
        got = outcome(check_proof, kb, proof)
        assert got == outcome(reference_check, kb, proof)
        return got

    def test_criterion_6_mutations(self):
        outcomes = [self.assert_same(kb, proof) for kb, proof in criterion_6_mutations()]
        assert outcomes.count(None) == 3
        assert all(o is None or o[0] is CheckError for o in outcomes)

    def certificates(self, rng):
        """(kb, certificate) pairs from the goldens and two seeded program streams."""
        for main, lib in (("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")):
            lib_text = (PROGRAMS / lib).read_text() if lib else None
            kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
            for q in queries:
                yield from ((kb, sol.proof) for sol in solve(kb, q, SolverConfig(solution_limit=None)))
        for _ in range(150):
            text, preds, consts = random_safe_program(rng)
            kb, _ = compile_text(text)
            if enumeration_bound(kb, 4) > 2_000:
                continue
            for symbol in preds:
                goal = Pred(symbol, (Meta(0, "m?"), Meta(1, "n?")))
                q = Query("probe", goal, {"m?": 0, "n?": 1})
                yield from ((kb, sol.proof) for sol in solve(kb, q, SolverConfig(max_depth=4, solution_limit=None)))
        for _ in range(150):
            try:
                kb, queries = compile_text(random_term_program(rng))
            except LdlogError:
                continue
            if enumeration_bound(kb, 4) > 2_000:
                continue
            for q in queries:
                try:
                    solutions = solve(kb, q, SolverConfig(max_depth=4, solution_limit=None))
                except LdlogError:  # a floundered or mixed-type comparison
                    continue
                yield from ((kb, sol.proof) for sol in solutions)

    def test_random_mutations_of_solver_certificates(self):
        rng = random.Random(601)
        reasons, certificates = set(), 0
        for kb, proof in self.certificates(rng):
            certificates += 1
            assert self.assert_same(kb, proof) is None
            for _ in range(3):
                bad = mutate_somewhere(rng, kb, proof)
                if rng.random() < 0.3:
                    bad = mutate_somewhere(rng, kb, bad)
                got = self.assert_same(kb, bad)
                if got is not None:
                    reasons.add(got[2] if got[0] is CheckError else got[0])
        assert certificates > 300
        assert reasons == set(CheckReason)

    def test_in_place_comparison_mutations(self):
        outcomes = [(self.assert_same(kb, proof), want) for kb, proof, want in in_place_mutations()]
        assert [got and got[2] for got, _ in outcomes] == [want for _, want in outcomes]


# A 2,000-deep term, built once: a value a reader could hand over
DEEP = nested_f(0)

# What a reader could hand over in place of a field or subterm: plain values, terms whose
# fields have the wrong types and DEEP; and well-formed terms and names, with which a
# mutant may still check or fail for another reason. Each mutant draws from one at random.
FUZZ_VALUES = (
    (None, True, 0, 7, 1.5, [], [IntLit(1)], {}, {"x": 1}, (), (IntLit(1),)),
    (IntLit(True), IntLit(5.0), IntLit("3"), StrLit(5), App(5, ()), App("F", 5), Var(None), DEEP),
    ("a", "r1", "gt", IntLit(0), IntLit(300), StrLit("a"), StrLit("c0"), App("c"), Var("x"), Var("y"), Meta(0, "m?")),
)

# The instantiation keys a mutant may put in place of one: every hashable value above
FUZZ_KEYS = tuple(v for group in FUZZ_VALUES for v in group if v is not DEEP and not isinstance(v, (list, dict)))


def replace_subterm(rng, t, value):
    """t with itself or one subterm, picked by a random walk down tuple args, replaced
    by value; an int literal picked is replaced now and then by its float twin instead,
    which compares equal to it."""
    if type(t) is App and type(t.args) is tuple and t.args and rng.random() < 0.6:
        i = rng.randrange(len(t.args))
        return App(t.constructor, t.args[:i] + (replace_subterm(rng, t.args[i], value),) + t.args[i + 1 :])
    return IntLit(float(t.value)) if type(t) is IntLit and rng.random() < 0.3 else value


def fuzz_node(rng, kb, node):
    """node with one field or subterm replaced: a leaf's op or operand; a subproof's clause
    name (half the time one of kb's), instantiation key or value, conclusion, conclusion
    symbol or argument, children or one child. A site node lacks falls back to the clause name."""
    value = rng.choice(rng.choice(FUZZ_VALUES))
    if type(node) is BuiltinLeaf:
        op, lhs, rhs = node.atom.op, node.atom.lhs, node.atom.rhs
        site = rng.randrange(3)
        if site == 0:
            return BuiltinLeaf(Builtin(value, lhs, rhs))
        if site == 1:
            return BuiltinLeaf(Builtin(op, replace_subterm(rng, lhs, value), rhs))
        return BuiltinLeaf(Builtin(op, lhs, replace_subterm(rng, rhs, value)))
    site = rng.randrange(8)
    inst, conclusion, children = dict(node.instantiation), node.conclusion, node.children
    if site in (1, 2) and inst:
        key = rng.choice(sorted(inst, key=repr))
        if site == 1:
            inst[rng.choice(FUZZ_KEYS)] = inst.pop(key)
        else:
            inst[key] = value
        return dataclasses.replace(node, instantiation=inst)
    if site == 3:
        return dataclasses.replace(node, conclusion=value)
    if site == 4:
        return dataclasses.replace(node, conclusion=Pred(value, conclusion.args))
    if site == 5 and conclusion.args:
        args = list(conclusion.args)
        i = rng.randrange(len(args))
        args[i] = replace_subterm(rng, args[i], value)
        return dataclasses.replace(node, conclusion=Pred(conclusion.symbol, tuple(args)))
    if site == 6:
        return dataclasses.replace(node, children=value)
    if site == 7 and children:
        i = rng.randrange(len(children))
        return dataclasses.replace(node, children=children[:i] + (value,) + children[i + 1 :])
    return dataclasses.replace(node, clause_name=value if rng.random() < 0.5 else rng.choice(list(kb.clauses)))


def kernel_reads_well_formed(proof) -> bool:
    """Whether every node of proof has fields of the types the kernel asks for, and
    every conclusion and leaf, the atoms the kernel reads in a certificate it
    accepts, is well formed by `reference_well_formed`. False where that
    reference's recursion cannot read a term."""
    stack = [proof]
    try:
        while stack:
            node = stack.pop()
            if type(node) is BuiltinLeaf:
                if type(node.atom) is not Builtin or not reference_well_formed(node.atom):
                    return False
            elif (
                type(node) is not ProofTree
                or type(node.clause_name) is not str
                or type(node.instantiation) not in (dict, MappingProxyType)
                or type(node.children) is not tuple
                or not reference_well_formed(node.conclusion)
            ):
                return False
            else:
                stack.extend(node.children)
    except RecursionError:
        return False
    return True


def fuzz_certificates():
    """(kb, certificate) for every answer of the goldens and of the first 80
    programs of the seed-111 safe stream at depth 4."""
    out = []
    for main, lib in (("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")):
        kb, queries = compile_text((PROGRAMS / main).read_text(), (PROGRAMS / lib).read_text() if lib else None)
        out += [(kb, sol.proof) for q in queries for sol in solve(kb, q, SolverConfig(solution_limit=None))]
    for _, kb, queries in shuffled_safe_programs(random.Random(111), 80, depth=4, cap=2_000):
        out += [(kb, sol.proof) for q in queries for sol in solve(kb, q, SolverConfig(max_depth=4, solution_limit=None))]
    return out


class TestStructuralFuzz:
    """Seeded structural fuzz of solver certificates, one field or subterm replaced per
    mutant: check_proof returns or raises CheckError, never another exception. Where
    every atom the kernel reads is well formed and the recursive reference checker does
    not crash, both give the same verdict, reason and path; otherwise the kernel rejects."""

    MUTANTS = 10_000

    def test_mutants(self):
        rng = random.Random(2029)
        certificates = fuzz_certificates()
        counts = {"same": 0, "accepted": 0, "reference crashed": 0, "malformed": 0}
        for _ in range(self.MUTANTS):
            kb, proof = rng.choice(certificates)
            bad = mutate_somewhere(rng, kb, proof, fuzz_node)
            try:
                check_proof(kb, bad)
                got = None
            except CheckError as err:
                got = (err.reason, err.path)
            want = outcome(reference_check, kb, bad)
            if want is not None and want[0] is not CheckError:
                counts["reference crashed"] += 1
            elif kernel_reads_well_formed(bad):
                assert got == (None if want is None else (want[2], want[1])), bad
                counts["same"] += 1
                counts["accepted"] += got is None
                continue
            else:
                counts["malformed"] += 1
            assert got is not None, bad
        assert len(certificates) > 200
        assert counts["same"] > 2_500 and counts["accepted"] > 300
        assert counts["reference crashed"] > 2_500 and counts["malformed"] > 2_500


PAIRS = """
f1: edge("a", "b").
f2: wrap(g(1, h(2)), "a").
r1: path(x, y) :- edge(x, y).
r2: box(k(x, g(y, z))) :- wrap(g(y, z), x), (y < 2).
r3: top("a") :- edge(x, y).
q0: path("a", m?)?
q1: box(m?)?
"""


def in_place_mutations():
    """(kb, certificate, expected reason or None): cases where comparing an instance in place can go wrong."""
    kb, queries = compile_text(PAIRS)
    path = solve(kb, queries[0])[0].proof
    box = solve(kb, queries[1])[0].proof
    x, y, z = Var("x"), Var("y"), Var("z")
    a, b = StrLit("a"), StrLit("b")
    g = App("g", (IntLit(1), App("h", (IntLit(2),))))

    def bind(proof, key, value):
        inst = dict(proof.instantiation)
        if value is None:
            del inst[key]
        else:
            inst[key] = value
        return dataclasses.replace(proof, instantiation=inst)

    def conclude(proof, atom):
        return dataclasses.replace(proof, conclusion=atom)

    def child(proof, i, change):
        children = list(proof.children)
        children[i] = change(children[i])
        return dataclasses.replace(proof, children=tuple(children))

    def boxed(inner):
        return Pred("box", (App("k", (a, inner)),))

    head = CheckReason.HEAD_MISMATCH
    premise = CheckReason.PREMISE_MISMATCH
    cases = [
        (path, None),
        (box, None),
        # a variable bound to an equal but distinct object
        (bind(path, x, StrLit("a")), None),
        (bind(box, z, App("h", (IntLit(2),))), None),
        (child(box, 1, lambda leaf: BuiltinLeaf(Builtin("lt", IntLit(1), IntLit(2)))), None),
        # a variable bound to a non-ground term, or not bound at all
        (bind(path, x, Var("w")), head),
        (bind(path, y, Meta(0, "m?")), head),
        (bind(path, x, None), head),
        (bind(box, z, None), head),
        (bind(box, z, App("h", (Var("z"),))), head),
        # a head with the wrong symbol or arity, or args that are not a tuple
        (conclude(path, Pred("edge", (a, b))), head),
        (conclude(path, Pred("path", (a,))), head),
        (conclude(path, Pred("path", (a, b, b))), head),
        (conclude(path, Pred("path", [a, b])), head),
        # a constructor mismatch nested inside an argument
        (conclude(box, boxed(App("g", (IntLit(1),)))), head),
        (conclude(box, boxed(App("g", (IntLit(1), App("h", (IntLit(2),)), IntLit(3))))), head),
        (conclude(box, boxed(App("q", g.args))), head),
        (conclude(box, boxed(App("g", (IntLit(1), App("h"))))), head),
        (conclude(box, boxed(App("g", (IntLit(1), App("h", (IntLit(3),)))))), head),
        (conclude(box, boxed(App("g", [IntLit(1), App("h", (IntLit(2),))]))), head),
        (conclude(box, Pred("box", (App("k", (a,)),))), head),
        (bind(box, z, App("h", (IntLit(2), IntLit(3)))), head),
        (bind(box, z, App("h", [IntLit(2)])), head),
        # the same mismatches between a premise and a child's conclusion
        (child(path, 0, lambda f: conclude(f, Pred("edgy", (a, b)))), premise),
        (child(path, 0, lambda f: conclude(f, Pred("edge", (a,)))), premise),
        (child(box, 0, lambda f: conclude(f, Pred("wrap", (App("g", (IntLit(1),)), a)))), premise),
        (child(box, 0, lambda f: conclude(f, Pred("wrap", (App("g", (IntLit(1), App("h", (IntLit(3),)))), a)))), premise),
        (child(box, 1, lambda leaf: BuiltinLeaf(Builtin("le", IntLit(1), IntLit(2)))), premise),
        (child(box, 1, lambda leaf: BuiltinLeaf(Builtin("lt", IntLit(0), IntLit(2)))), premise),
        (child(box, 1, lambda leaf: BuiltinLeaf(Builtin("lt", IntLit(1), IntLit(3)))), premise),
    ]
    # a child whose conclusion is the premise itself, variables and all: it
    # matches under an empty instantiation, and only the child's own check fails
    r3 = kb.clauses["r3"]
    stray = ProofTree("f1", {}, r3.body[0], ())
    cases.append((ProofTree("r3", {}, r3.head, (stray,)), CheckReason.NON_GROUND_CONCLUSION))
    cases.append((ProofTree("r3", {x: a}, r3.head, (stray,)), premise))
    return [(kb, proof, want) for proof, want in cases]


class TestSharedFacts:
    """Every derivation through a ground fact reuses that fact's one certificate,
    and every derivation through a finished clause application reuses its certificate."""

    def test_answers_share_one_fact_certificate(self):
        kb, queries = compile_text(REACH.replace('q0: path("a", "c")?', 'q0: path("a", m?)?'))
        sols = solve(kb, queries[0], SolverConfig(solution_limit=None))
        assert [render_proof(s.proof) for s in sols] == ["r1 f1", "r2 (r1 f1) f2", "r2 (r1 f1) f3"]
        f1 = [sols[0].proof.children[0], sols[1].proof.children[0].children[0], sols[2].proof.children[0].children[0]]
        shared = f1[0]
        assert all(node is shared for node in f1)
        assert solve(kb, queries[0])[0].proof.children[0] is shared  # and in a later solve on the KB
        assert shared == ProofTree("f1", {}, Pred("edge", (StrLit("a"), StrLit("b"))), ())

    def test_shared_certificate_cannot_be_changed_through_an_answer(self):
        kb, queries = compile_text(REACH.replace('q0: path("a", "c")?', 'q0: path("a", m?)?'))
        sols = solve(kb, queries[0], SolverConfig(solution_limit=None))
        shared = sols[0].proof.children[0]
        with pytest.raises(TypeError):
            shared.instantiation[Var("x")] = StrLit("z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.conclusion = Pred("edge", (StrLit("a"), StrLit("z")))
        forged = dataclasses.replace(shared, conclusion=Pred("edge", (StrLit("a"), StrLit("z"))), instantiation={})
        forged.instantiation[Var("x")] = StrLit("z")
        err = reason_of(kb, dataclasses.replace(sols[0].proof, children=(forged,)))
        assert (err.reason, err.path) == (CheckReason.PREMISE_MISMATCH, (0,))
        for sol in sols:
            check_proof(kb, sol.proof)
        assert shared.instantiation == {} and shared.conclusion == Pred("edge", (StrLit("a"), StrLit("b")))

    def test_shared_rule_certificate_cannot_be_changed_through_an_answer(self):
        # path("a", "b") is proved once by r1 and shared by the proofs of path("a", "c") and path("a", "d")
        kb, queries = compile_text(REACH.replace('q0: path("a", "c")?', 'q0: path("a", m?)?'))
        sols = solve(kb, queries[0], SolverConfig(solution_limit=None))
        shared = sols[1].proof.children[0]
        assert sols[2].proof.children[0] is shared
        a, b = StrLit("a"), StrLit("b")
        with pytest.raises(TypeError):
            shared.instantiation[Var("y")] = StrLit("z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.conclusion = Pred("path", (a, StrLit("z")))
        forged = dataclasses.replace(shared, conclusion=Pred("path", (a, StrLit("z"))), instantiation={})
        forged.instantiation.update({Var("x"): a, Var("y"): StrLit("z")})
        err = reason_of(kb, dataclasses.replace(sols[1].proof, children=(forged, sols[1].proof.children[1])))
        assert (err.reason, err.path) == (CheckReason.PREMISE_MISMATCH, (0,))
        for sol in sols:
            check_proof(kb, sol.proof)
        assert shared.instantiation == {Var("x"): a, Var("y"): b} and shared.conclusion == Pred("path", (a, b))

    def test_certificates_are_read_only_where_every_derivation_is_kept(self):
        # rects.ldl's rule has variables in no predicate premise, so its search
        # keeps every derivation and builds its certificates once each is complete
        kb, queries = compile_text((PROGRAMS / "rects.ldl").read_text())
        sols = [sol for q in queries for sol in solve(kb, q, SolverConfig(solution_limit=None))]
        assert sols and kb.compiled["solver"][2] is False
        for sol in sols:
            assert sol.proof.instantiation[Var("ax1")] == IntLit(50)
            with pytest.raises(TypeError):
                sol.proof.instantiation[Var("ax1")] = IntLit(0)


GOLDENS = [("reach.ldl", None), ("rects.ldl", None), ("deriv.ldl", "lib/derivs.ldl")]

# String literals, as source text, holding every character quote_string or the JSON encoder escapes
AWKWARD_STRINGS = ('"a"', '"say \\"hi\\" \\\\ back"', '"tab\\t and\\nline, caf\u00e9 \u2192 \U0001d53c"')


def proof_nodes(proof):
    """How many ProofTree and BuiltinLeaf occurrences proof holds, its root included."""
    count, stack = 0, [proof]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, ProofTree):
            stack.extend(node.children)
    return count


class TestOneScanPerAtom:
    """A valid check scans each atom once: one `atom_is_ground` or
    `atom_free_vars` call per ProofTree's conclusion, the root's included, and
    one per BuiltinLeaf."""

    @pytest.mark.parametrize("main, lib", GOLDENS)
    def test_goldens(self, main, lib, monkeypatch):
        lib_text = (PROGRAMS / lib).read_text() if lib else None
        kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
        proofs = [sol.proof for q in queries for sol in solve(kb, q, SolverConfig(solution_limit=None))]
        calls = []
        for name in ("atom_is_ground", "atom_free_vars"):
            scan = getattr(kernel_module, name)
            monkeypatch.setattr(kernel_module, name, lambda atom, scan=scan: calls.append(atom) or scan(atom))
        assert proofs
        for proof in proofs:
            calls.clear()
            check_proof(kb, proof)
            assert len(calls) == proof_nodes(proof)


class TestAgainstReferenceSerializer:
    """serialize_proof writes, byte for byte, what json.dumps gives for the nested document."""

    def assert_same(self, proof, q):
        got = serialize_proof(proof, q)
        assert got == reference_serialize(proof, q)
        return got

    @pytest.mark.parametrize("main, lib", GOLDENS)
    def test_programs(self, main, lib):
        lib_text = (PROGRAMS / lib).read_text() if lib else None
        kb, queries = compile_text((PROGRAMS / main).read_text(), lib_text)
        documents = [
            self.assert_same(sol.proof, q) for q in queries for sol in solve(kb, q, SolverConfig(solution_limit=None))
        ]
        assert documents

    def test_index_differential_programs(self):
        documents = 0
        for _, kb, queries in shuffled_safe_programs(random.Random(110)):
            for q in queries:
                for sol in solve(kb, q, SolverConfig(max_depth=5, solution_limit=None)):
                    self.assert_same(sol.proof, q)
                    documents += 1
        assert documents > 500

    def test_random_term_programs(self):
        rng = random.Random(603)
        seen, documents = set(), 0
        while documents < 500:
            try:
                kb, queries = compile_text(random_term_program(rng, AWKWARD_STRINGS))
            except LdlogError:
                continue
            if enumeration_bound(kb, 4) > 2_000:
                continue
            for q in queries:
                try:
                    solutions = solve(kb, q, SolverConfig(max_depth=4, solution_limit=None))
                except LdlogError:  # a floundered or mixed-type comparison
                    continue
                for sol in solutions:
                    document = self.assert_same(sol.proof, q)
                    assert document.isascii()
                    documents += 1
                    seen |= features(sol.proof)
        assert seen == {"builtin", "constructor", '"', "\\", "\t", "\n", "non-ASCII"}


def features(proof):
    """Which awkward parts a certificate holds: builtin leaves, constructor terms, escaped characters."""
    out, stack = set(), [proof]
    while stack:
        node = stack.pop()
        if isinstance(node, BuiltinLeaf):
            out.add("builtin")
            continue
        stack.extend(node.children)
        terms = list(node.conclusion.args)
        while terms:
            t = terms.pop()
            if isinstance(t, App) and t.args:
                out.add("constructor")
                terms.extend(t.args)
            elif isinstance(t, StrLit):
                out |= {ch for ch in ('"', "\\", "\t", "\n") if ch in t.value}
                if not t.value.isascii():
                    out.add("non-ASCII")
    return out


def with_each_leaf_open(atom):
    """atom once for each of its non-constructor leaves, with that leaf made a Meta."""
    hole = Meta(99, "hole?")

    def variants(t):
        if isinstance(t, App) and t.args:
            for i, arg in enumerate(t.args):
                for v in variants(arg):
                    yield App(t.constructor, t.args[:i] + (v,) + t.args[i + 1 :])
        elif not isinstance(t, App):
            yield hole

    if isinstance(atom, Builtin):
        yield from (Builtin(atom.op, v, atom.rhs) for v in variants(atom.lhs))
        yield from (Builtin(atom.op, atom.lhs, v) for v in variants(atom.rhs))
        return
    for i, arg in enumerate(atom.args):
        for v in variants(arg):
            yield Pred(atom.symbol, atom.args[:i] + (v,) + atom.args[i + 1 :])


class TestKernelGround(TestAgainstReferenceSerializer):
    """The kernel's ground test, `terms.atom_is_ground`, gives the recursive
    reference's verdict on the serializer differential's streams: the goal,
    every conclusion and leaf, and each of those with one leaf made a placeholder."""

    def assert_same(self, proof, q):
        atoms, stack = [q.goal], [proof]
        while stack:
            node = stack.pop()
            if isinstance(node, BuiltinLeaf):
                atoms.append(node.atom)
            else:
                atoms.append(node.conclusion)
                stack.extend(node.children)
        for atom in atoms:
            assert terms_module.atom_is_ground(atom) is reference_atom_is_ground(atom)
            for variant in with_each_leaf_open(atom):
                assert terms_module.atom_is_ground(variant) is reference_atom_is_ground(variant) is False
        return super().assert_same(proof, q)

    x = Var("x")

    @pytest.mark.parametrize(
        "atom",
        [
            Pred("p", [IntLit(1), x]),
            Pred("p", [IntLit(1), App("f", [StrLit("a")])]),
            Pred("p", (App("f", [App("g", (Meta(0, "m?"),))]),)),
            Pred("p", ()),
            Pred("p", (5, "s", None)),
            Pred("p", (5, x)),
            Builtin("lt", IntLit(1), x),
            Builtin("eq", App("f", (IntLit(1),)), IntLit(2)),
            Builtin("eq", 1, 2),
        ],
        ids=repr,
    )
    def test_odd_atoms(self, atom):
        args = atom.args if isinstance(atom, Pred) else (atom.lhs, atom.rhs)
        if all(isinstance(t, (IntLit, StrLit, Var, Meta, App)) for t in args):
            assert terms_module.atom_is_ground(atom) is reference_atom_is_ground(atom)
        else:  # the scan refuses a leaf that is not a term, where the reference passes over it
            with pytest.raises(TypeError):
                terms_module.atom_is_ground(atom)

    @pytest.mark.parametrize("atom", [Pred("p", (App("f", 5), x)), Pred("p", 5), Builtin("lt", App("f", None), x)], ids=repr)
    def test_malformed_arguments_fail_at_the_same_point(self, atom):
        # is_ground meets the bad argument list before the variable after it
        for ground in (terms_module.atom_is_ground, reference_atom_is_ground):
            with pytest.raises(TypeError):
                ground(atom)


CHAIN_NODES = 32


def weighted_chain(n=CHAIN_NODES):
    """A right-recursive chain of n nodes, each edge weighted (so every step has a
    builtin leaf), and the query path("n0", m?)."""
    lines = [f'edge("n{i}", "n{i + 1}", {i}).' for i in range(n - 1)]
    lines += [
        "r1: path(x, y) :- edge(x, y, w), (w >= 0).",
        "r2: path(x, z) :- edge(x, y, w), (w >= 0), path(y, z).",
        'q: path("n0", m?)?',
    ]
    return "\n".join(lines)


def leaves(kb):
    """Every literal and rule variable object in kb's clauses, by id."""
    out, todo = {}, []
    for clause in kb.clauses.values():
        for atom in (clause.head,) + clause.body:
            todo.extend(atom.args if isinstance(atom, Pred) else (atom.lhs, atom.rhs))
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo.extend(t.args)
        else:
            out[id(t)] = t
    return out


class TestInterning:
    """Equal literals of one parsed text (made by the lexer) and equal rule
    variables of one program (made by the elaborator) are one object; the
    checker accepts and rejects the same certificates without that."""

    @pytest.mark.parametrize("left", [True, False])
    def test_checker_does_not_depend_on_shared_objects(self, left):
        text = diamond_ladder(4, left)
        kb_a, queries = compile_text(text)
        kb_b, _ = compile_text(text)
        assert not leaves(kb_a).keys() & leaves(kb_b).keys()
        other = StrLit("a2")
        checked = 0
        for q in queries:
            for sol in solve(kb_a, q, SolverConfig(max_depth=9, solution_limit=None)):
                check_proof(kb_b, sol.proof)
                checked += 1
                root = sol.proof
                head = dataclasses.replace(root, conclusion=Pred("path", (root.conclusion.args[0], other)))
                child = root.children[0]
                premise = dataclasses.replace(
                    root, children=(dataclasses.replace(child, conclusion=Pred(child.conclusion.symbol, (other, other))),) + root.children[1:]
                )
                for forged in (head, premise):
                    if forged.conclusion == root.conclusion and forged.children == root.children:
                        continue  # the answer already names "a2"
                    want = reason_of(kb_a, forged)
                    got = reason_of(kb_b, forged)
                    assert (got.reason, got.path, str(got)) == (want.reason, want.path, str(want))
                    assert got.reason in (CheckReason.HEAD_MISMATCH, CheckReason.PREMISE_MISMATCH)
        assert checked == 30

    def test_equal_literals_of_one_program_are_one_object(self):
        kb, queries = compile_text(diamond_ladder(2))
        by_value = {}
        for t in leaves(kb).values():
            assert by_value.setdefault((type(t), t), t) is t
        assert by_value[(StrLit, StrLit("r0"))] is queries[0].goal.args[0]
        r1, r2 = kb.clauses["r1"], kb.clauses["r2"]
        assert r1.head.args[0] is r1.body[0].args[0] and r1.head.args[0] is r2.head.args[0]

    def chain(self):
        """A weighted_chain() and every answer of its query."""
        kb, (q,) = compile_text(weighted_chain())
        sols = solve(kb, q, SolverConfig(max_depth=CHAIN_NODES, solution_limit=None))
        assert len(sols) == CHAIN_NODES - 1
        return kb, q, sols

    def test_serializer_quotes_each_string_literal_once(self, monkeypatch):
        kb, q, sols = self.chain()
        quoted = []
        real = terms_module.quote_string
        monkeypatch.setattr(terms_module, "quote_string", lambda value: quoted.append(value) or real(value))
        for sol in sols:
            serialize_proof(sol.proof, q)
        assert len(quoted) == len(set(quoted)) == CHAIN_NODES

    def test_serializer_writes_each_conclusion_once(self, monkeypatch):
        """A node's JSON piece is made on its first write: conclusion texts
        track distinct nodes, not the nodes answers visit."""
        kb, q, sols = self.chain()
        distinct, visits, stack = {}, 0, [sol.proof for sol in sols]
        while stack:
            node = stack.pop()
            if isinstance(node, ProofTree):
                distinct[id(node)] = node
                visits += 1
                stack.extend(node.children)
        assert len(distinct) < visits
        built = []
        real = proof_module.atom_text
        monkeypatch.setattr(proof_module, "atom_text", lambda atom: built.append(atom) or real(atom))

        def conclusions_built():
            return sorted(id(atom) for atom in built if isinstance(atom, Pred) and atom is not q.goal)

        documents = [serialize_proof(sol.proof, q) for sol in sols]
        assert conclusions_built() == sorted(id(node.conclusion) for node in distinct.values())
        built.clear()
        assert [serialize_proof(sol.proof, q) for sol in sols] == documents
        assert conclusions_built() == []
        assert documents == [reference_serialize(sol.proof, q) for sol in sols]

    def test_json_piece_is_not_a_field(self):
        _, q, sols = self.chain()
        proof = sols[-1].proof
        leaf = proof.children[1]
        assert isinstance(leaf, BuiltinLeaf)
        before = (repr(proof), repr(leaf), hash(leaf))
        serialize_proof(proof, q)
        assert proof._json is not None and leaf._json is not None
        assert (repr(proof), repr(leaf), hash(leaf)) == before
        assert [f.name for f in dataclasses.fields(ProofTree)] == ["clause_name", "instantiation", "conclusion", "children"]
        assert [f.name for f in dataclasses.fields(BuiltinLeaf)] == ["atom"]
        assert leaf == BuiltinLeaf(leaf.atom)
        copy = dataclasses.replace(proof)
        assert copy == proof and copy._json is None

    def test_checker_never_calls_the_recursive_ground_test(self):
        """No function of kernel.py names itself, nor does `terms._scan` or
        any of `is_ground`, `atom_is_ground`, `free_vars`, `atom_free_vars`,
        `clause_vars` and `loose_vars` over it, nor `apply_subst`: the recursion
        left in the kernel's closure is exactly the function listed here."""
        assert self_referring_functions() == ["terms.term_text"]

    def test_checker_compares_no_literal_by_value(self, monkeypatch):
        kb, q, sols = self.chain()
        compared = []
        for cls in (StrLit, IntLit):
            real = cls.__eq__
            monkeypatch.setattr(cls, "__eq__", lambda a, b, real=real: compared.append(a) or real(a, b))
        for sol in sols:
            check_proof(kb, sol.proof)
        assert compared == []


class TestNoReferenceCycles:
    """Solving, checking and serializing leave no cyclic garbage, so the cycle
    collector has nothing to reclaim; a node's JSON piece holds no cycle either.
    Nor does what a KB keeps in `kb.compiled` (the solver's templates, index and
    completed tables, the fixpoint and its index), which the collector only
    meets once the KBs are dropped. rects.ldl, whose search keeps every
    derivation, covers the search nodes that are not deduplicated."""

    @staticmethod
    def exercise(runs, oracle):
        """(answers, errors, oracle answers) of solving, checking and serializing
        each (kb, queries, cfg) of runs, and with oracle, answering each query of
        a range-restricted KB with `oracle_answers` too."""
        answers = errors = derived = 0
        for kb, queries, cfg in runs:
            for q in queries:
                if oracle and kb.loose_clause is None:
                    derived += len(oracle_answers(kb, q.goal))
                try:
                    sols = solve(kb, q, cfg)
                except LdlogError:
                    errors += 1
                    continue
                for sol in sols:
                    check_proof(kb, sol.proof)
                    serialize_proof(sol.proof, q)
                    answers += 1
        return answers, errors, derived

    @classmethod
    def collect(cls, runs, oracle=False):
        """`exercise`'s counts, the objects the collector found after it, and the
        objects it found once runs was emptied, all with the collector off."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            counts = cls.exercise(runs, oracle)
            found = gc.collect()
            runs.clear()  # the only reference to each KB
            return (*counts, found, gc.collect())
        finally:
            if was_enabled:
                gc.enable()

    def test_collector_finds_nothing(self):
        everything = SolverConfig(solution_limit=None)
        runs = [
            (*compile_text((PROGRAMS / main).read_text(), (PROGRAMS / lib).read_text() if lib else None), everything)
            for main, lib in GOLDENS
        ]
        runs.append((*compile_text(weighted_chain()), SolverConfig(max_depth=CHAIN_NODES, solution_limit=None)))
        answers, errors, derived, found, dropped = self.collect(runs, oracle=True)
        assert answers > CHAIN_NODES and errors == 0 and derived > CHAIN_NODES
        assert found == 0
        assert dropped == 0

    def test_reference_streams(self):
        """The first 100 programs of the solver differentials' seed-111 safe and
        seed-112 term streams, at their depths, floundering and ill-typed queries included."""
        safe = shuffled_safe_programs(random.Random(111), 100, depth=4, cap=2_000)
        runs = [(kb, queries, SolverConfig(max_depth=4, solution_limit=None)) for _, kb, queries in safe]
        for _, kb, queries, depth in term_programs(random.Random(112), 100):
            runs.append((kb, queries, SolverConfig(max_depth=depth, solution_limit=None)))
        answers, errors, _, found, dropped = self.collect(runs)
        assert answers > 300 and errors > 30
        assert found == 0
        assert dropped == 0
