"""Statement elaboration: naming, resolution policies, and use imports."""

import pytest

from ldlog.elaborator import (
    ArityMismatch,
    BuiltinNotAllowed,
    ComparisonAsTerm,
    DuplicateName,
    ElaborationError,
    InvalidLibraryStatement,
    NonGroundFact,
    PlaceholderNotAllowed,
    UnboundQueryVar,
    UnknownField,
    UnknownUseName,
    elaborate,
    elaborate_library,
    fresh_name,
)
from ldlog.parser import AppAst, Application, FactStmt, ParseError, RuleStmt, parse_program
from ldlog.kernel import App, Builtin, IntLit, Meta, Pred, StrLit, Var
from support import compile_text

DERIVS_LIB = """
hasDerivAt_sin: drv(sin, cos).
hasDerivAt_cos: drv(cos, neg_sin).
"""


class TestFactsAndRules:
    def test_fact_becomes_active_clause(self):
        kb, _ = compile_text('f1: edge("a", "b").')
        c = kb.clauses["f1"]
        assert c.head == Pred("edge", (StrLit("a"), StrLit("b")))
        assert c.body == ()
        assert c.name == "f1"

    def test_unlabeled_statements_numbered_in_order(self):
        kb, queries = compile_text('edge("a", "b").\nedge("b", "c").\npath(x, y) :- edge(x, y).\nedge("a", m?)?')
        assert [c.name for c in kb.clauses.values()] == ["_fact_1", "_fact_2", "_rule_1"]
        assert queries[0].name == "_query_1"

    def test_generated_name_is_no_name_the_file_writes(self):
        # a label before or after the statement whose place-name it is, or a
        # label of another kind, takes that name; the other statements keep theirs
        kb, _ = compile_text("_fact_2: p(1).\np(2).\np(3).")
        assert list(kb.clauses) == ["_fact_2", "_fact_2_", "_fact_3"]
        kb, _ = compile_text("p(2).\n_fact_1: p(1).\n_fact_1_: p(5).")
        assert list(kb.clauses) == ["_fact_1__", "_fact_1", "_fact_1_"]
        kb, queries = compile_text("_rule_1: p(1).\nq(x) :- p(x).\n_rule_2: q(m?)?\nq(m?)?")
        assert list(kb.clauses) == ["_rule_1", "_rule_1_"]
        assert [q.name for q in queries] == ["_rule_2", "_query_2"]
        # a use name: the library's unlabeled fact is named _fact_1 there
        kb, _ = elaborate(parse_program("d(2).\nuse _fact_1."), elaborate_library(parse_program("d(1).")))
        assert list(kb.clauses) == ["_fact_1_", "_fact_1"]

    def test_fresh_name_shape(self):
        assert fresh_name("fact", 2) == "_fact_2"
        assert fresh_name("query", 1) == "_query_1"
        with pytest.raises(ValueError):
            fresh_name("axiom", 1)

    def test_rule_identifiers_become_variables(self):
        kb, _ = compile_text("r1: path(x, y) :- edge(x, y).")
        c = kb.clauses["r1"]
        assert c.head == Pred("path", (Var("x"), Var("y")))
        assert c.body == (Pred("edge", (Var("x"), Var("y"))),)

    def test_unknown_identifier_in_fact_is_a_constant(self):
        kb, _ = compile_text("d: drv(sin, cos).")
        assert kb.clauses["d"].head == Pred("drv", (App("sin"), App("cos")))
        assert kb.constructors["sin"].arity == 0

    def test_comparison_premise(self):
        kb, _ = compile_text("r: big(x) :- num(x), (x > 2).")
        assert kb.clauses["r"].body[1] == Builtin("gt", Var("x"), IntLit(2))

    def test_statement_order_is_clause_order(self):
        kb, _ = compile_text("b: q().\na: p().\nc: r().")
        assert [c.name for c in kb.clauses.values()] == ["b", "a", "c"]


class TestQueries:
    def test_placeholders_become_metas(self):
        _, queries = compile_text('f: edge("a", "b").\nq1: edge("a", m?)?')
        q = queries[0]
        assert q.goal == Pred("edge", (StrLit("a"), Meta(0, "m?")))
        assert q.placeholder_map == {"m?": 0}

    def test_repeated_placeholder_shares_one_meta(self):
        _, queries = compile_text("f: p(1, 2).\nq: p(m?, m?)?")
        goal = queries[0].goal
        assert goal.args[0] == goal.args[1] == Meta(0, "m?")

    def test_meta_ids_unique_across_queries(self):
        _, queries = compile_text("f: p(1).\nq1: p(a?)?\nq2: p(b?)?")
        (m1,) = queries[0].goal.args
        (m2,) = queries[1].goal.args
        assert m1.id != m2.id

    def test_query_resolves_declared_constants(self):
        _, queries = compile_text("f: drv(sin, cos).\nq: drv(sin, h?)?")
        assert queries[0].goal.args[0] == App("sin")

    def test_query_may_use_defs(self):
        _, queries = compile_text("def one := 1.\nf: p(1).\nq: p(one)?")
        assert queries[0].goal == Pred("p", (IntLit(1),))

    def test_undeclared_query_identifier_rejected(self):
        with pytest.raises(UnboundQueryVar):
            compile_text("f: p(1).\nq: p(zz)?")


class TestStructsAndDefs:
    def test_def_substitutes_ground_value(self):
        kb, _ = compile_text("struct Rect(x1, y1, x2, y2).\ndef r1 := Rect(1, 2, 3, 4).\nf: box(r1).")
        assert kb.clauses["f"].head.args[0] == App("Rect", (IntLit(1), IntLit(2), IntLit(3), IntLit(4)))

    def test_def_may_reference_earlier_defs(self):
        kb, _ = compile_text("def a := 5.\ndef b := wrap(a).\nf: p(b).")
        assert kb.clauses["f"].head.args[0] == App("wrap", (IntLit(5),))

    def test_projection_resolves_at_elaboration(self):
        kb, _ = compile_text(
            "struct Rect(x1, y1, x2, y2).\n"
            "def rect1 := Rect(50, 50, 400, 100).\n"
            "def rect2 := Rect(75, 25, 125, 300).\n"
            "r: ok() :- (rect2.y2 >= rect1.y1)."
        )
        assert kb.clauses["r"].body[0] == Builtin("ge", IntLit(300), IntLit(50))

    def test_projection_in_fact_argument(self):
        kb, _ = compile_text("struct P(x, y).\ndef pt := P(7, 8).\nf: at(pt.y).")
        assert kb.clauses["f"].head == Pred("at", (IntLit(8),))

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            compile_text("struct P(x, y).\ndef pt := P(1, 2).\nf: at(pt.z).")

    def test_projection_needs_declared_fields(self):
        with pytest.raises(UnknownField):
            compile_text("def c := mk(1).\nf: at(c.x).")

    def test_projection_from_variable_rejected(self):
        with pytest.raises(UnknownField):
            compile_text("r: p(v.x) :- q(v).")

    def test_struct_arity_enforced(self):
        with pytest.raises(ArityMismatch):
            compile_text("struct P(x, y).\nf: at(P(1)).")

    def test_struct_name_without_arguments_rejected(self):
        with pytest.raises(ArityMismatch) as err:
            compile_text("struct P(x).\nf: p(P).")
        assert (err.value.symbol, err.value.expected, err.value.got) == ("P", 1, 0)

    def test_constant_used_with_args_rejected(self):
        with pytest.raises(ArityMismatch):
            compile_text("f: p(sin).\ng: q(sin(1)).")

    def test_def_cannot_take_args(self):
        with pytest.raises(ElaborationError):
            compile_text("def one := 1.\nf: p(one(2)).")

    def test_duplicate_struct_name(self):
        with pytest.raises(DuplicateName):
            compile_text("struct P(x).\nstruct P(y).")

    def test_duplicate_field(self):
        with pytest.raises(DuplicateName):
            compile_text("struct P(x, x).")

    def test_def_and_struct_share_namespace(self):
        with pytest.raises(DuplicateName):
            compile_text("struct P(x).\ndef P := 1.")


class TestErrors:
    def test_duplicate_label(self):
        with pytest.raises(DuplicateName):
            compile_text("f: p(1).\nf: p(2).")

    def test_predicate_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compile_text("f: p(1).\ng: p(1, 2).")

    def test_placeholder_in_fact(self):
        with pytest.raises(NonGroundFact):
            compile_text("f: p(m?).")

    def test_placeholder_in_rule(self):
        with pytest.raises(PlaceholderNotAllowed):
            compile_text("r: p(x) :- q(m?).")

    def test_placeholder_in_def(self):
        with pytest.raises(PlaceholderNotAllowed):
            compile_text("def a := m?.")

    def test_comparison_as_fact(self):
        with pytest.raises(BuiltinNotAllowed):
            compile_text("f: (3 < 4).")

    def test_comparison_as_rule_head(self):
        with pytest.raises(BuiltinNotAllowed):
            compile_text("r: (x < 4) :- p(x).")

    def test_comparison_as_query_goal(self):
        with pytest.raises(BuiltinNotAllowed):
            compile_text("q: (3 < 4)?")

    def test_comparison_as_term(self):
        with pytest.raises(ComparisonAsTerm):
            compile_text("f: p(1 < 2).")

    def test_non_comparison_paren_atom(self):
        with pytest.raises(ElaborationError):
            compile_text("f: (sin).")

    def test_unknown_statement(self):
        with pytest.raises(ElaborationError, match="unsupported statement"):
            elaborate([object()])


class TestUse:
    def lib(self):
        return elaborate_library(parse_program(DERIVS_LIB))

    def test_import_brings_clause_and_constants(self):
        lib = self.lib()
        kb, queries = elaborate(parse_program("use hasDerivAt_sin.\nq0: drv(sin, h?)?"), lib)
        c = kb.clauses["hasDerivAt_sin"]
        assert c is lib.clauses["hasDerivAt_sin"]
        assert c.name == "hasDerivAt_sin"
        assert kb.constructors["sin"].arity == 0
        assert queries[0].goal.args[0] == App("sin")

    def test_import_at_use_position(self):
        kb, _ = elaborate(parse_program("a: p().\nuse hasDerivAt_sin, hasDerivAt_cos.\nb: q()."), self.lib())
        assert [c.name for c in kb.clauses.values()] == ["a", "hasDerivAt_sin", "hasDerivAt_cos", "b"]

    def test_unknown_use_name(self):
        with pytest.raises(UnknownUseName):
            elaborate(parse_program("use missing."), self.lib())

    def test_use_without_library(self):
        with pytest.raises(UnknownUseName):
            compile_text("use hasDerivAt_sin.")

    def test_use_conflicting_label(self):
        with pytest.raises(DuplicateName):
            elaborate(parse_program("hasDerivAt_sin: p().\nuse hasDerivAt_sin."), self.lib())

    def test_imported_arity_conflict(self):
        with pytest.raises(ArityMismatch):
            elaborate(parse_program("f: drv(sin, cos, tan).\nuse hasDerivAt_sin."), self.lib())

    def test_imported_constructor_arity_conflict(self):
        lib = elaborate_library(parse_program("t: q(F(1))."))
        with pytest.raises(ArityMismatch) as err:
            elaborate(parse_program("f: p(F(1, 2)).\nuse t."), lib)
        assert (err.value.symbol, err.value.expected, err.value.got) == ("F", 2, 1)

    def test_import_declares_constants_of_its_comparisons(self):
        lib = elaborate_library(parse_program("f: n(zero).\nr: ok(x) :- n(x), (x != zero)."))
        kb, queries = elaborate(parse_program("use r.\nq: ok(zero)?"), lib)
        assert kb.constructors["zero"].arity == 0
        assert queries[0].goal == Pred("ok", (App("zero"),))

    def test_imported_constructor_vs_def_conflict(self):
        with pytest.raises(DuplicateName):
            elaborate(parse_program("def sin := 1.\nuse hasDerivAt_sin."), self.lib())

    def test_library_rejects_queries(self):
        with pytest.raises(InvalidLibraryStatement):
            elaborate_library(parse_program("q: p(1)?"))

    def test_library_rejects_use(self):
        with pytest.raises(InvalidLibraryStatement):
            elaborate_library(parse_program("use other."))

    def test_library_structs_travel_with_imports(self):
        lib = elaborate_library(parse_program("struct P(x, y).\nbase: at(P(1, 2))."))
        kb, _ = elaborate(parse_program("use base.\nf: at2(P(3, 4).x)."), lib)
        assert kb.clauses["f"].head == Pred("at2", (IntLit(3),))


def _deep(n, leaf):
    return "F(" * n + leaf + ")" * n


class TestLiteralArguments:
    """Literal arguments pass from the lexer's table to the clause untouched, and
    an all-literal argument tuple is the one the parser built."""

    def test_all_literal_fact_keeps_the_parsers_tuple(self):
        text = 'f: emp(1, 2, "a", -7).\nemp(3, 4, "b", 007).\ng: p().'
        statements = parse_program(text)
        kb, _ = elaborate(statements)
        for name, stmt in zip(("f", "_fact_2", "g"), statements):
            assert kb.clauses[name].head.args is stmt.atom.args
        assert kb.clauses["_fact_2"].head == Pred("emp", (IntLit(3), IntLit(4), StrLit("b"), IntLit(7)))

    @pytest.mark.parametrize(
        "text, name, expected",
        [
            ("f: p(1, sin).", "f", (IntLit(1), App("sin"))),
            ("def c := 5.\nf: p(1, c).", "f", (IntLit(1), IntLit(5))),
            ('f: p("a", G(2), 3).', "f", (StrLit("a"), App("G", (IntLit(2),)), IntLit(3))),
            ("struct P(x, y).\nf: p(P(1, 2).y, 3).", "f", (IntLit(2), IntLit(3))),
            ("r: p(1, x) :- q(x).", "r", (IntLit(1), Var("x"))),
        ],
    )
    def test_other_arguments_are_rewritten(self, text, name, expected):
        statements = parse_program(text)
        kb, _ = elaborate(statements)
        stmt = statements[-1]
        head, parsed = kb.clauses[name].head.args, (stmt.head if isinstance(stmt, RuleStmt) else stmt.atom).args
        assert head == expected
        assert head is not parsed
        # the literal arguments themselves are the parser's objects
        for term, source in zip(head, parsed):
            if type(source) in (IntLit, StrLit):
                assert term is source

    def test_placeholder_argument_is_rewritten(self):
        statements = parse_program('q: p(1, m?, "s")?')
        _, (query,) = elaborate(statements)
        assert query.goal == Pred("p", (IntLit(1), Meta(0, "m?"), StrLit("s")))
        assert query.goal.args is not statements[0].atom.args

    def test_hand_built_list_of_literals_becomes_a_tuple(self):
        kb, _ = elaborate([FactStmt("f", Application("p", [IntLit(1), StrLit("a")]))])
        assert type(kb.clauses["f"].head.args) is tuple
        assert kb.clauses["f"].head == Pred("p", (IntLit(1), StrLit("a")))

    # each row's outcome was recorded on the code before literal arguments
    # skipped `term()` and `rewrite_term`: error type, text, line and column
    @pytest.mark.parametrize(
        "text, error, message, position",
        [
            ("p(1 2).", ParseError, "1:5: expected ')', found integer 2", (1, 5)),
            ("p(1,).", ParseError, "1:5: expected a term, found ')'", (1, 5)),
            ("p(1", ParseError, "1:4: expected ')', found end of input", (1, 4)),
            ('\np("a" "b").', ParseError, "2:7: expected ')', found string literal", (2, 7)),
            ("p(1 ?", ParseError, "1:5: expected ')', found '?'", (1, 5)),
            ("p(1, 2", ParseError, "1:7: expected ')', found end of input", (1, 7)),
            ("p(1) :- q(2 3).", ParseError, "1:13: expected ')', found integer 3", (1, 13)),
            ("p?(1).", ParseError, "1:1: expected predicate name, found 'p?'", (1, 1)),
            ("p 1).", ParseError, "1:3: expected '(', found integer 1", (1, 3)),
            (
                f"p({_deep(101, '1')}).",
                ParseError,
                "1:205: expected a shallower term, found term nesting too deep",
                (1, 205),
            ),
            (f"p({_deep(100, '1 2')}).", ParseError, "1:205: expected ')', found integer 2", (1, 205)),
            ("p(1.x).", UnknownField, "cannot project field 'x': projection base is not a constructed value", None),
            ('p("a".f).', UnknownField, "cannot project field 'f': projection base is not a constructed value", None),
            ("p(1 < 2).", ComparisonAsTerm, "comparison used in term position; comparisons are atoms, written (a <= b)", None),
        ],
    )
    def test_errors_around_literal_arguments(self, text, error, message, position):
        with pytest.raises(error) as err:
            compile_text(text)
        assert type(err.value) is error
        assert str(err.value) == message
        if position is not None:
            assert (err.value.line, err.value.column) == position

    def test_literal_one_hundred_constructors_deep_parses(self):
        (stmt,) = parse_program(f"p({_deep(100, '1')}).")
        term = stmt.atom.args[0]
        for _ in range(100):
            assert type(term) is AppAst and len(term.args) == 1
            term = term.args[0]
        assert term == IntLit(1)


class TestDeterminism:
    def test_same_source_elaborates_identically(self):
        text = "struct P(x).\ndef c := P(1).\nf: p(c).\nr: q(v) :- p(v), (1 <= 2).\nqq: q(m?)?"
        kb1, q1 = compile_text(text)
        kb2, q2 = compile_text(text)
        assert kb1.clauses == kb2.clauses
        assert list(kb1.clauses) == list(kb2.clauses)
        assert kb1.constructors == kb2.constructors
        assert kb1.defs == kb2.defs
        assert q1 == q2
