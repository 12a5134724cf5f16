"""Lexing, parsing, rendering, and their error positions."""

import dataclasses
import random
import re
from itertools import islice

import pytest

from ldlog import parser
from ldlog.parser import (
    AppAst,
    Application,
    CmpAst,
    DefStmt,
    FactStmt,
    IdentAst,
    LexError,
    ParenTerm,
    ParseError,
    ProjAst,
    QueryStmt,
    RuleStmt,
    StructStmt,
    UseStmt,
    parse_program,
    render_program,
    render_statement,
    tokenize,
)
from ldlog.kernel import IntLit, StrLit
from support import random_program_ast, random_statement_ast, reference_lex


def kinds_and_values(text):
    return [(t.kind, t.value) for t in tokenize(text)]


def literal_leaves(statements):
    """Every IntLit and StrLit in the statements' terms."""
    out, todo = [], list(statements)
    while todo:
        node = todo.pop()
        if isinstance(node, (IntLit, StrLit)):
            out.append(node)
        elif isinstance(node, tuple):
            todo.extend(node)
        elif dataclasses.is_dataclass(node):
            todo.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return out


def assert_one_object_per_literal(statements):
    seen = {}
    for lit in literal_leaves(statements):
        assert seen.setdefault((type(lit), lit.value), lit) is lit, lit
    return seen


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

    def test_illegal_character_before_an_out_of_range_integer(self):
        with pytest.raises(LexError) as err:
            tokenize("p($) q(99999999999999999999)")
        assert (err.value.line, err.value.column, err.value.message) == (1, 3, "illegal character '$'")

    def test_out_of_range_integer_before_an_illegal_character(self):
        with pytest.raises(LexError) as err:
            tokenize("p(99999999999999999999) q($)")
        assert (err.value.line, err.value.column, err.value.message) == (
            1,
            3,
            "integer literal out of range: 99999999999999999999",
        )

    def test_repeated_illegal_character_reports_the_first(self):
        with pytest.raises(LexError) as err:
            tokenize("p(1).\nq(2, $).\n$ $ r($).")
        assert (err.value.line, err.value.column, err.value.message) == (2, 6, "illegal character '$'")

    @pytest.mark.parametrize(
        "source, line, col, message",
        [
            ('p("a\\q", $)', 1, 5, "invalid escape sequence '\\q'"),
            ('p($, "a\\q")', 1, 3, "illegal character '$'"),
            ('p(1, 99999999999999999999, "ab', 1, 6, "integer literal out of range: 99999999999999999999"),
            ('p(1). q("ab\n99999999999999999999', 1, 9, "unterminated string literal"),
            ("p(99999999999999999999).\nq(99999999999999999999, $).", 1, 3, "integer literal out of range: 99999999999999999999"),
            ("p(1) \f $ -", 1, 6, "illegal character '\\x0c'"),
            ("p(x) - 5 $", 1, 6, "illegal character '-'"),
        ],
        ids=[
            "escape-then-char",
            "char-then-escape",
            "range-then-unterminated",
            "unterminated-then-range",
            "range-twice",
            "form-feed-first",
            "minus-first",
        ],
    )
    def test_earliest_of_several_bad_tokens_wins(self, source, line, col, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.line, err.value.column, err.value.message) == (line, col, message)

    def test_long_integer_literals(self):
        # int() refuses more than 4,300 digits: the range is decided first;
        # a long literal is quoted by its first 24 characters and its length
        cases = [
            ("1" * 20, "1" * 20),
            ("1" * 4301, "1" * 24 + "... (4301 digits)"),
            ("-" + "9" * 5000, "-" + "9" * 23 + "... (5000 digits)"),
            ("0" * 5000 + str(2**63), "0" * 24 + "... (5019 digits)"),
        ]
        for text, quoted in cases:
            with pytest.raises(LexError) as err:
                tokenize(f"p({text})")
            assert (err.value.column, err.value.message) == (3, f"integer literal out of range: {quoted}")
            assert len(f"long.ldl:{err.value}") < 120  # the line `ldlog run` prints for long.ldl
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
        assert stmt == FactStmt("f1", Application("edge", (StrLit("a"), StrLit("b"))))

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
        assert stmt == QueryStmt("q1", Application("path", (StrLit("b"), IdentAst("m?"))))

    def test_use_list(self):
        (stmt,) = parse_program("use thm1, thm2.")
        assert stmt == UseStmt(("thm1", "thm2"))

    def test_struct(self):
        (stmt,) = parse_program("struct Rect(x1, y1, x2, y2).")
        assert stmt == StructStmt("Rect", ("x1", "y1", "x2", "y2"))

    def test_def(self):
        (stmt,) = parse_program("def rect1 := Rect(50, 50, 400, 100).")
        assert stmt == DefStmt("rect1", AppAst("Rect", (IntLit(50), IntLit(50), IntLit(400), IntLit(100))))

    def test_literals_are_one_object_per_value(self):
        text = 'f: p(7, 007, 0, -0, "a\\tb").\nr: q(x) :- p(x, -0, "a\tb", 1, "1"), (x < 7).\ndef d := T(007, "1").'
        statements = parse_program(text)
        leaves = literal_leaves(statements)
        assert len(leaves) == 12 and {type(lit) for lit in leaves} == {IntLit, StrLit}
        seen = assert_one_object_per_literal(statements)
        assert set(seen) == {(IntLit, 0), (IntLit, 1), (IntLit, 7), (StrLit, "1"), (StrLit, "a\tb")}
        assert seen[(IntLit, 1)] is not seen[(StrLit, "1")] and seen[(IntLit, 1)] != seen[(StrLit, "1")]

    def test_comparison_atom(self):
        (stmt,) = parse_program("r: ok(x) :- (x <= 4).")
        assert stmt.body == (ParenTerm(CmpAst("<=", IdentAst("x"), IntLit(4))),)

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


# the lexical grammar of the module docstring, written out independently
_SKIP = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")
_TOKEN_TEXT = re.compile(r'-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*\??|:-|<=|>=|!=|[(),.?:<>=]|"(?:[^"\\\n]|\\.)*"')


def _offset(source, line, col):
    lines = source.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1, (source, line, col)
    return sum(len(text) + 1 for text in lines[: line - 1]) + col - 1


def _check_error_position(source, err):
    """The text at err's position is what its message says is there."""
    at = source[_offset(source, err.line, err.column) :]
    if isinstance(err, ParseError):
        found = err.found
        if found == "end of input":
            tokens = tokenize(source)
            end = 0
            if tokens:
                last = _offset(source, tokens[-1].line, tokens[-1].col)
                end = _TOKEN_TEXT.match(source, last).end()
            assert _offset(source, err.line, err.column) == end and _SKIP.fullmatch(at), (source, err)
        elif found == "string literal":
            assert at.startswith('"'), (source, err)
        elif found.startswith("integer "):
            assert int(_TOKEN_TEXT.match(at).group()) == int(found[len("integer ") :]), (source, err)
        elif found.startswith("'"):
            assert at.startswith(found[1:-1]), (source, err)
        elif found.startswith("placeholder '"):
            assert at.startswith(found.split("'")[1] + "("), (source, err)
        else:
            assert found == "term nesting too deep" and _TOKEN_TEXT.match(at), (source, err)
        return
    message = err.message
    if message.startswith("illegal character "):
        assert repr(at[0]) == message[len("illegal character ") :], (source, err)
    elif message == "unterminated string literal":
        assert at.startswith('"'), (source, err)
    elif message.startswith("invalid escape sequence "):
        assert at.startswith(message[len("invalid escape sequence '") : -1]), (source, err)
    else:
        literal = message[len("integer literal out of range: ") :]
        assert message.startswith("integer literal out of range: ") and at.startswith(literal.split("...")[0]), (source, err)


def _error(source):
    try:
        parse_program(source)
    except (LexError, ParseError) as err:
        return err
    return None


_NOISE = ("$", "\f", '"', "\\q", "99999999999999999999", "?", "(", ")", ".", ",", "m?(", "//", "\r", "é", "- ")
_SKIPS = (" ", "\n", "\r\n", "\t", "\n// a comment\n", "// tail\n", "\n\n  ")


def cut_or_spliced_sources(rng, count):
    """Rendered random programs, cut short or spliced to another through a
    little noise; nearly every one is a lex or parse error."""
    for _ in range(count):
        a = render_program(random_program_ast(rng, 8))
        if rng.random() < 0.5:
            a = "".join(w + rng.choice(_SKIPS) for w in a.split(" "))
        roll = rng.random()
        if roll < 0.4:
            yield a[: rng.randint(0, len(a))]
        else:
            b = render_program(random_program_ast(rng, 8))
            noise = "".join(rng.choice(_NOISE) for _ in range(rng.randint(0, 2)))
            yield a[: rng.randint(0, len(a))] + noise + b[rng.randint(0, len(b)) :]


class TestErrorPositions:
    def test_truncated_and_spliced_renderings(self):
        errors = 0
        for source in cut_or_spliced_sources(random.Random(1101), 1500):
            err = _error(source)
            if err is not None:
                errors += 1
                _check_error_position(source, err)
        assert errors > 1000  # nearly every cut or splice is an error

    def test_trailing_comment_without_newline(self):
        assert parse_program("p(1). // done") == [FactStmt(None, Application("p", (IntLit(1),)))]
        assert kinds_and_values("p() //") == [("ident", "p"), ("punct", "("), ("punct", ")")]
        err = _error("f: p(1) // no newline")
        assert (err.line, err.column, err.found) == (1, 8, "end of input")

    def test_comment_and_whitespace_only_sources(self):
        for source in ("// c", "// a\n// b", "//", "  \n\t\r\n ", "\n", " "):
            assert tokenize(source) == [] and parse_program(source) == []
        err = _error("\n  // c\n(")
        assert (err.line, err.column, err.found) == (3, 2, "end of input")

    def test_carriage_return_inside_a_line(self):
        assert parse_program("p(1,\r 2).") == [FactStmt(None, Application("p", (IntLit(1), IntLit(2))))]
        err = _error("p(\r$)")
        assert (err.line, err.column, err.message) == (1, 4, "illegal character '$'")
        err = _error("p(1).\r\nq(\r\r2 3).")
        assert (err.line, err.column, err.found) == (2, 7, "integer 3")

    def test_form_feed_is_illegal(self):
        err = _error("p(1).\f")
        assert (err.line, err.column, err.message) == (1, 6, "illegal character '\\x0c'")

    def test_error_after_comment_lines(self):
        source = "// one\n// two\n\n   // three\n// four\np(1) q"
        err = _error(source)
        assert (err.line, err.column, err.found) == (6, 6, "'q'")
        _check_error_position(source, err)


def thousand_facts():
    return "".join(f'f{i}: emp({i}, "d{i % 7}", -{i * 31}, x).\n' for i in range(1000))


class _CountingPattern:
    """parser._TOKEN with each finditer call counted."""

    def __init__(self, pattern, counts):
        self.pattern, self.counts = pattern, counts

    def findall(self, source):
        return self.pattern.findall(source)

    def finditer(self, source):
        self.counts["finditer"] += 1
        return self.pattern.finditer(source)


class TestNoTokenObjects:
    def test_valid_program_builds_no_token_and_computes_no_position(self, monkeypatch):
        # offsets, and from them line and column, are read only for an error or for tokenize()
        counts = {"Token": 0, "position": 0, "starts": 0, "finditer": 0}
        real_token, real_position, real_starts = parser.Token, parser._position, parser._starts

        def counting_token(*args):
            counts["Token"] += 1
            return real_token(*args)

        def counting_position(*args):
            counts["position"] += 1
            return real_position(*args)

        def counting_starts(*args):
            counts["starts"] += 1
            return real_starts(*args)

        monkeypatch.setattr(parser, "Token", counting_token)
        monkeypatch.setattr(parser, "_position", counting_position)
        monkeypatch.setattr(parser, "_starts", counting_starts)
        monkeypatch.setattr(parser, "_TOKEN", _CountingPattern(parser._TOKEN, counts))
        source = thousand_facts()
        assert len(parse_program(source)) == 1000
        assert counts == {"Token": 0, "position": 0, "starts": 0, "finditer": 0}
        assert not hasattr(parser._Parser(source, *parser._lex(source)), "starts")
        # the patches are live: tokenize builds Tokens and reads the offsets once
        assert len(tokenize("p(1).")) == 5
        assert counts == {"Token": 5, "position": 0, "starts": 1, "finditer": 1}
        # one parse error, and one lex error, read the offsets once each
        assert isinstance(_error(source + "p("), ParseError)
        assert counts == {"Token": 5, "position": 1, "starts": 2, "finditer": 2}
        assert isinstance(_error(source + "p($)."), LexError)
        assert counts == {"Token": 5, "position": 2, "starts": 3, "finditer": 3}
        assert isinstance(_error(source + "p(99999999999999999999)."), LexError)
        assert counts == {"Token": 5, "position": 3, "starts": 4, "finditer": 4}


class TestReferenceLexer:
    """parser._lex, its re-read offsets and its errors against support.reference_lex,
    the lexer that kept every token's start offset as it read the source."""

    def assert_same(self, source):
        """The two lexers agree on source; returns the kind of its error, if any."""
        try:
            kinds, values, starts = reference_lex(source)
        except LexError as want:
            err = _error(source)
            assert (type(err), err.line, err.column, err.message) == (LexError, want.line, want.column, want.message), source
            return "lex"
        assert parser._lex(source) == (kinds, values), source
        assert list(islice(parser._starts(source), len(starts))) == starts, source
        assert tokenize(source) == [
            (
                k if k in ("ident", "int", "str", "kw") else "punct",
                v.value if k in ("int", "str") else v,
                source.count("\n", 0, start) + 1,
                start - source.rfind("\n", 0, start),
            )
            for k, v, start in zip(kinds[:-1], values, starts)
        ], source
        # a parse error sits at the reference offset of the token the parser stopped at
        at = parser._Parser(source, kinds, values)
        try:
            at.program()
        except ParseError:
            err = _error(source)
            assert type(err) is ParseError and _offset(source, err.line, err.column) == starts[at.pos], source
            return "parse"
        assert _error(source) is None
        return None

    def test_round_trip_random_programs(self):
        rng = random.Random(104)
        for _ in range(120):
            assert self.assert_same(render_program(random_program_ast(rng))) is None

    def test_thousand_facts(self):
        assert self.assert_same(thousand_facts()) is None

    def test_cut_or_spliced_sources(self):
        outcomes = [self.assert_same(source) for source in cut_or_spliced_sources(random.Random(1101), 1500)]
        assert outcomes.count("lex") > 100 and outcomes.count("parse") > 500  # both kinds of error are met


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
            parsed = parse_program(render_program(program))
            assert parsed == program
            assert_one_object_per_literal(parsed)
