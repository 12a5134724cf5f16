"""Lexing, parsing, rendering, and their error positions."""

import random

import pytest

from ldlog.parser import (
    AppAst,
    Application,
    CmpAst,
    DefStmt,
    FactStmt,
    IdentAst,
    IntAst,
    LexError,
    ParenTerm,
    ParseError,
    ProjAst,
    QueryStmt,
    RuleStmt,
    StrAst,
    StructStmt,
    UseStmt,
    parse_program,
    render_program,
    render_statement,
    tokenize,
)
from support import random_program_ast, random_statement_ast


def kinds_and_values(text):
    return [(t.kind, t.value) for t in tokenize(text)]


class TestTokenize:
    def test_query_statement(self):
        assert kinds_and_values('path("a", m?)?') == [
            ("ident", "path"),
            ("punct", "("),
            ("str", "a"),
            ("punct", ","),
            ("ident", "m?"),
            ("punct", ")"),
            ("punct", "?"),
        ]

    def test_rule_statement(self):
        assert kinds_and_values("r1: path(x, y) :- edge(x, y).") == [
            ("ident", "r1"),
            ("punct", ":"),
            ("ident", "path"),
            ("punct", "("),
            ("ident", "x"),
            ("punct", ","),
            ("ident", "y"),
            ("punct", ")"),
            ("punct", ":-"),
            ("ident", "edge"),
            ("punct", "("),
            ("ident", "x"),
            ("punct", ","),
            ("ident", "y"),
            ("punct", ")"),
            ("punct", "."),
        ]

    def test_keywords_and_def_assign(self):
        assert kinds_and_values("use a. struct R(f). def c := 5.") == [
            ("kw", "use"),
            ("ident", "a"),
            ("punct", "."),
            ("kw", "struct"),
            ("ident", "R"),
            ("punct", "("),
            ("ident", "f"),
            ("punct", ")"),
            ("punct", "."),
            ("kw", "def"),
            ("ident", "c"),
            ("punct", ":"),
            ("punct", "="),
            ("int", 5),
            ("punct", "."),
        ]

    def test_comparison_operators(self):
        assert kinds_and_values("< <= > >= = != :-") == [
            ("punct", "<"),
            ("punct", "<="),
            ("punct", ">"),
            ("punct", ">="),
            ("punct", "="),
            ("punct", "!="),
            ("punct", ":-"),
        ]

    def test_comments_and_whitespace(self):
        assert kinds_and_values("// a comment\np() . // trailing\n") == [
            ("ident", "p"),
            ("punct", "("),
            ("punct", ")"),
            ("punct", "."),
        ]

    def test_negative_integers(self):
        assert kinds_and_values("p(-42)") == [
            ("ident", "p"),
            ("punct", "("),
            ("int", -42),
            ("punct", ")"),
        ]

    def test_string_escapes(self):
        toks = tokenize('"a\\"b\\\\c\\nd\\te"')
        assert toks[0].value == 'a"b\\c\nd\te'

    def test_slash_in_string_is_not_a_comment(self):
        assert tokenize('"ab//cd"')[0].value == "ab//cd"

    def test_positions(self):
        toks = tokenize('f1: p("x",\n   y2).')
        assert (toks[0].line, toks[0].col) == (1, 1)
        y2 = [t for t in toks if t.value == "y2"][0]
        assert (y2.line, y2.col) == (2, 4)

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("  // only a comment\n") == []

    def test_unterminated_string(self):
        with pytest.raises(LexError) as err:
            tokenize('p("abc')
        assert err.value.line == 1 and err.value.column == 3

    def test_string_may_not_span_lines(self):
        with pytest.raises(LexError):
            tokenize('p("ab\ncd")')

    def test_illegal_character(self):
        with pytest.raises(LexError) as err:
            tokenize("p($)")
        assert err.value.column == 3

    def test_lone_slash(self):
        with pytest.raises(LexError):
            tokenize("p(1) / q(2)")

    def test_invalid_escape(self):
        with pytest.raises(LexError):
            tokenize('"bad \\x escape"')

    def test_integer_range(self):
        tokenize(f"p({2**63 - 1})")
        tokenize(f"p(-{2**63})")
        with pytest.raises(LexError):
            tokenize(f"p({2**63})")

    def test_unicode_digits_are_illegal_not_numbers(self):
        # str.isdigit accepts these; the lexer must not
        for ch in ("³", "٣", "²"):
            with pytest.raises(LexError):
                tokenize(f"p({ch})")

    @pytest.mark.parametrize(
        "source, line, col, message",
        [
            ("p(1) / q(2)", 1, 6, "illegal character '/'"),
            ("p(- 1)", 1, 3, "illegal character '-'"),
            ("p(1)\n  -", 2, 3, "illegal character '-'"),
            ("p(x²)", 1, 4, "illegal character '²'"),
            ("p(é)", 1, 3, "illegal character 'é'"),
            ('p("ab\\"c', 1, 3, "unterminated string literal"),
            ('x\np("ab\\', 2, 3, "unterminated string literal"),
            ('p("a\\qb")', 1, 5, "invalid escape sequence '\\q'"),
            ('p("a\\\nb")', 1, 5, "invalid escape sequence '\\\n'"),
            ('p("\\n\\x unterminated', 1, 6, "invalid escape sequence '\\x'"),
            ("p(1,\n\t-9223372036854775809)", 2, 2, "integer literal out of range: -9223372036854775809"),
        ],
    )
    def test_error_positions_and_messages(self, source, line, col, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.line, err.value.column, err.value.message) == (line, col, message)

    def test_long_integer_literals(self):
        # int() refuses more than 4,300 digits: the range is decided first
        for text in ("1" * 4301, "-" + "9" * 5000, "1" * 20, "0" * 5000 + str(2**63)):
            with pytest.raises(LexError) as err:
                tokenize(f"p({text})")
            assert (err.value.column, err.value.message) == (3, f"integer literal out of range: {text}")
        assert tokenize("p(" + "0" * 5000 + "42)")[2].value == 42
        assert tokenize("p(-" + "0" * 5000 + str(2**63) + ")")[2].value == -(2**63)
        assert tokenize("p(-" + "0" * 4400 + ")")[2].value == 0

    def test_token_positions_in_rendered_programs(self):
        # at each token's (line, col) the source starts with that token's text
        def text(t):
            return str(t.value) if t.kind == "int" else '"' if t.kind == "str" else t.value

        rng = random.Random(505)
        sources = [render_program(random_program_ast(rng)) for _ in range(150)]
        statements = [render_statement(random_statement_ast(rng)) for _ in range(60)]
        sources.append("\n\n// a comment line\n".join(statements) + "  // trailing\n\n")
        sources.append("".join(f"{s}\t// c{i}\n\n" if i % 2 else f"\n  {s}" for i, s in enumerate(statements)))
        for source in sources:
            lines = source.split("\n")
            for t in tokenize(source):
                assert lines[t.line - 1].startswith(text(t), t.col - 1), (source, t)


class TestParseStatements:
    def test_fact(self):
        (stmt,) = parse_program('f1: edge("a", "b").')
        assert stmt == FactStmt("f1", Application("edge", (StrAst("a"), StrAst("b"))))

    def test_unlabeled_fact(self):
        (stmt,) = parse_program("p().")
        assert stmt == FactStmt(None, Application("p", ()))

    def test_rule(self):
        (stmt,) = parse_program("r2: path(x, y) :- path(x, z), edge(z, y).")
        assert stmt == RuleStmt(
            "r2",
            Application("path", (IdentAst("x"), IdentAst("y"))),
            (
                Application("path", (IdentAst("x"), IdentAst("z"))),
                Application("edge", (IdentAst("z"), IdentAst("y"))),
            ),
        )

    def test_query_with_placeholder(self):
        (stmt,) = parse_program('q1: path("b", m?)?')
        assert stmt == QueryStmt("q1", Application("path", (StrAst("b"), IdentAst("m?"))))

    def test_use_list(self):
        (stmt,) = parse_program("use thm1, thm2.")
        assert stmt == UseStmt(("thm1", "thm2"))

    def test_struct(self):
        (stmt,) = parse_program("struct Rect(x1, y1, x2, y2).")
        assert stmt == StructStmt("Rect", ("x1", "y1", "x2", "y2"))

    def test_def(self):
        (stmt,) = parse_program("def rect1 := Rect(50, 50, 400, 100).")
        assert stmt == DefStmt("rect1", AppAst("Rect", (IntAst(50), IntAst(50), IntAst(400), IntAst(100))))

    def test_comparison_atom(self):
        (stmt,) = parse_program("r: ok(x) :- (x <= 4).")
        assert stmt.body == (ParenTerm(CmpAst("<=", IdentAst("x"), IntAst(4))),)

    def test_projection_chain(self):
        (stmt,) = parse_program("def a := box.inner.x1.")
        assert stmt.value == ProjAst(ProjAst(IdentAst("box"), "inner"), "x1")

    def test_projection_inside_comparison(self):
        (stmt,) = parse_program("r: ok() :- (rect2.y2 >= rect1.y1).")
        cmp = stmt.body[0].term
        assert cmp.lhs == ProjAst(IdentAst("rect2"), "y2")
        assert cmp.rhs == ProjAst(IdentAst("rect1"), "y1")

    def test_def_terminator_vs_projection(self):
        stmts = parse_program('def a := b. p("x").')
        assert stmts[0] == DefStmt("a", IdentAst("b"))
        assert isinstance(stmts[1], FactStmt)

    def test_def_before_labeled_statement(self):
        stmts = parse_program("def a := b. f1: p().")
        assert stmts[0] == DefStmt("a", IdentAst("b"))
        assert stmts[1].label == "f1"

    def test_def_before_keyword_statement(self):
        stmts = parse_program("def a := b. use c.")
        assert stmts[0] == DefStmt("a", IdentAst("b"))
        assert stmts[1] == UseStmt(("c",))

    def test_zero_arity_application_term(self):
        (stmt,) = parse_program("def u := unit().")
        assert stmt.value == AppAst("unit", ())

    def test_multiline_statement(self):
        (stmt,) = parse_program("r: overlap(a, b) :-\n    (1 <= 2),\n    near(a, b).")
        assert len(stmt.body) == 2

    def test_program_order_preserved(self):
        stmts = parse_program("p().\nq().\nr()?")
        assert [type(s).__name__ for s in stmts] == ["FactStmt", "FactStmt", "QueryStmt"]


class TestParseErrors:
    def check(self, source, line, col):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert (err.value.line, err.value.column) == (line, col)
        return err.value

    def test_trailing_comma_in_args(self):
        self.check("p(1,).", 1, 5)

    def test_empty_rule_body(self):
        self.check("p() :- .", 1, 8)

    def test_empty_use_list(self):
        self.check("use .", 1, 5)

    def test_missing_terminator(self):
        err = self.check("p() q().", 1, 5)
        assert "'.'" in err.expected

    def test_bare_atom_needs_arglist(self):
        self.check("p.", 1, 2)

    def test_placeholder_cannot_label(self):
        self.check("m?: p().", 1, 1)

    def test_placeholder_cannot_take_args(self):
        self.check("q: p(f?(1))?", 1, 6)

    def test_placeholder_not_a_predicate(self):
        self.check("q: f?(1)?", 1, 4)

    def test_comparison_needs_closing_paren(self):
        self.check("r: p() :- (1 < 2 < 3).", 1, 18)

    def test_unexpected_eof(self):
        err = self.check("f: p(", 1, 6)
        assert err.found == "end of input"

    def test_eof_just_past_a_literal_written_unlike_its_value(self):
        for source, col in (("q: p(007", 9), ("q: p(-0", 8), ('q: p("a\tb"', 11), ("q: p(1) // c\n", 8)):
            err = self.check(source, 1, col)
            assert err.found == "end of input"

    def test_keyword_where_atom_expected(self):
        self.check("f: use(1).", 1, 4)

    def test_stray_projection_in_args(self):
        self.check("p(a.b(c)).", 1, 4)

    def test_deep_nesting_is_an_error_not_a_crash(self):
        source = "p(" + "f(" * 5000 + "1" + ")" * 5000 + ")."
        with pytest.raises(ParseError):
            parse_program(source)


class TestRender:
    def test_statement_forms(self):
        cases = [
            'f1: edge("a", "b").',
            "r2: path(x, y) :- path(x, z), edge(z, y).",
            'q1: path("b", m?)?',
            "use thm1, thm2.",
            "struct Rect(x1, y1, x2, y2).",
            "def rect1 := Rect(50, 50, 400, 100).",
            "p().",
            "r: ok(x) :- (x <= 4), near(x).",
            "def a := box.x1.",
        ]
        for text in cases:
            (stmt,) = parse_program(text)
            assert render_statement(stmt) == text

    def test_render_escapes_strings(self):
        (stmt,) = parse_program('f: p("a\\"b").')
        assert render_statement(stmt) == 'f: p("a\\"b").'

    def test_round_trip_random_programs(self):
        rng = random.Random(104)
        for _ in range(120):
            program = random_program_ast(rng)
            assert parse_program(render_program(program)) == program
