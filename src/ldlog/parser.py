r"""Lexer, parser, and renderer for the rule DSL.

Lexical rules, which one compiled pattern encodes:

    identifier   [A-Za-z_][A-Za-z0-9_]* with an optional trailing '?';
                 use, struct and def are keywords
    integer      -?[0-9]+ whose value fits in int64; leading zeros allowed
    string       "..." on one line; the escapes are \" \\ \n \t and no others
    punctuation  :- <= >= != ( ) , . ? : < > =
    skipped      spaces, tabs, '\r', newlines, and '//' comments to end of line

Any other character is an illegal-character error at that character.
Columns count characters from 1.

Surface syntax, one statement per '.' or '?' terminator:

    f1: edge("a", "b").                 fact (label optional)
    r2: path(x, y) :- path(x, z), edge(z, y).
    q1: path("b", m?)?                  query; m? is a placeholder
    use thm1, thm2.                     import named library clauses
    struct Rect(x1, y1, x2, y2).        constructor with named fields
    def rect1 := Rect(50, 50, 400, 100).

Atoms are either ident(args) or a parenthesized term, which is how
comparison premises are written: (x <= 4). Terms are integer literals,
string literals, identifiers, constructor applications, field projections
(value.field), and comparisons (only inside a parenthesized atom).

A '.' after a term is a projection only when followed by a plain
identifier that is not itself followed by ':' or '(' ; otherwise it
terminates the statement. That makes `def a := b. p("x").` parse as two
statements while `def a := r.x1.` projects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import SourceError
from .terms import INT64_MAX, INT64_MIN, quote_string

KEYWORDS = ("use", "struct", "def")

_MAX_TERM_DEPTH = 100


class LexError(SourceError):
    """Illegal character, unterminated string, or out-of-range literal."""


class ParseError(SourceError):
    """Unexpected token; carries the expected alternatives."""

    def __init__(self, line: int, column: int, expected: Tuple[str, ...], found: str):
        self.expected = tuple(expected)
        self.found = found
        alts = " or ".join(expected) if len(expected) <= 2 else ", ".join(expected[:-1]) + ", or " + expected[-1]
        super().__init__(line, column, f"expected {alts}, found {found}")


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "str" | "kw" | "punct" | "eof"
    value: object
    line: int
    col: int


# ---------------------------------------------------------------------------
# Statement and term ASTs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntAst:
    value: int


@dataclass(frozen=True)
class StrAst:
    value: str


@dataclass(frozen=True)
class IdentAst:
    name: str


@dataclass(frozen=True)
class AppAst:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class ProjAst:
    base: "TermAst"
    field: str


@dataclass(frozen=True)
class CmpAst:
    op: str  # source operator text: < <= > >= = !=
    lhs: "TermAst"
    rhs: "TermAst"


TermAst = Union[IntAst, StrAst, IdentAst, AppAst, ProjAst, CmpAst]


@dataclass(frozen=True)
class Application:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class ParenTerm:
    term: TermAst


AtomAst = Union[Application, ParenTerm]


@dataclass(frozen=True)
class FactStmt:
    label: Optional[str]
    atom: AtomAst


@dataclass(frozen=True)
class RuleStmt:
    label: Optional[str]
    head: AtomAst
    body: tuple


@dataclass(frozen=True)
class QueryStmt:
    label: Optional[str]
    atom: AtomAst


@dataclass(frozen=True)
class UseStmt:
    names: tuple


@dataclass(frozen=True)
class StructStmt:
    name: str
    fields: tuple


@dataclass(frozen=True)
class DefStmt:
    name: str
    value: TermAst


StatementAst = Union[FactStmt, RuleStmt, QueryStmt, UseStmt, StructStmt, DefStmt]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)")
_STRING_BODY = r'[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'
_STRING_PREFIX = re.compile(_STRING_BODY)

# One named group per token kind; "bad" catches every character the others
# refuse. "\n" only ever occurs in "skip" text, so only "skip" moves the line.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("skip", r"(?:[ \t\r\n]|//[^\n]*)+"),
            ("int", r"-?[0-9]+"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*\??"),
            ("punct", r":-|<=|>=|!=|[(),.?:<>=]"),
            ("str", f'"{_STRING_BODY}"'),
            ("bad", r"."),
        )
    )
)


def tokenize(source: str) -> List[Token]:
    """Split source text into tokens; raises LexError on bad input."""
    return _lex(source)[0]


def _lex(source: str) -> Tuple[List[Token], Token]:
    """The tokens of source, and the end-of-input token just past the last one."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "punct":
            append(Token("punct", text, line, col))
        elif kind == "ident":
            append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "int":
            append(Token("int", _int_value(text, line, col), line, col))
        elif kind == "str":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)], body)
            append(Token("str", body, line, col))
        else:
            raise _bad_token(source, m.start(), line, col)
    if not tokens:
        return tokens, Token("eof", None, 1, 1)
    # skip matches are maximal, so the last token ends where a trailing skip starts
    end = m.start() if m.lastgroup == "skip" else m.end()
    return tokens, Token("eof", None, tokens[-1].line, end - source.rfind("\n", 0, end))


_QUOTE_LIMIT = 24  # characters of an out-of-range literal that its error message quotes


def _int_value(text: str, line: int, col: int) -> int:
    # int() refuses strings of more than 4,300 digits, and an int64 has at
    # most 19 significant digits: decide from those before converting
    digits = text.lstrip("-").lstrip("0")
    if len(digits) <= 19:
        value = int(digits or "0")
        value = -value if text[0] == "-" else value
        if INT64_MIN <= value <= INT64_MAX:
            return value
    if len(text) > _QUOTE_LIMIT:
        text = f"{text[:_QUOTE_LIMIT]}... ({len(text.lstrip('-'))} digits)"
    raise LexError(line, col, f"integer literal out of range: {text}")


def _bad_token(source: str, pos: int, line: int, col: int) -> LexError:
    if source[pos] != '"':
        return LexError(line, col, f"illegal character {source[pos]!r}")
    # escapes are validated left to right before the closing quote is sought
    end = _STRING_PREFIX.match(source, pos + 1).end()
    if source.startswith("\\", end) and end + 1 < len(source):
        return LexError(line, col + end - pos, f"invalid escape sequence '\\{source[end + 1]}'")
    return LexError(line, col, "unterminated string literal")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_program(source: str) -> List[StatementAst]:
    """Parse a full program; raises LexError or ParseError on bad input."""
    tokens, eof = _lex(source)
    # the parser looks at most two tokens past its position, which never passes the first EOF
    return _Parser(tokens + [eof] * 3).program()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, k: int = 0) -> Token:
        return self.tokens[self.pos + k]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, expected: Tuple[str, ...]) -> ParseError:
        t = self.peek()
        if t.kind == "eof":
            found = "end of input"
        elif t.kind == "str":
            found = "string literal"
        elif t.kind == "int":
            found = f"integer {t.value}"
        else:
            found = f"'{t.value}'"
        return ParseError(t.line, t.col, expected, found)

    def expect_punct(self, p: str) -> Token:
        t = self.peek()
        if t.kind == "punct" and t.value == p:
            return self.next()
        raise self.error((f"'{p}'",))

    def at_punct(self, p: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == "punct" and t.value == p

    def plain_ident(self, what: str) -> str:
        t = self.peek()
        if t.kind == "ident" and not t.value.endswith("?"):
            self.next()
            return t.value
        raise self.error((what,))

    # -- statements --------------------------------------------------------

    def program(self) -> List[StatementAst]:
        out: List[StatementAst] = []
        while self.peek().kind != "eof":
            out.append(self.statement())
        return out

    def statement(self) -> StatementAst:
        t = self.peek()
        if t.kind == "kw":
            if t.value == "use":
                return self.use_stmt()
            if t.value == "struct":
                return self.struct_stmt()
            return self.def_stmt()
        label = None
        if t.kind == "ident" and self.at_punct(":", 1):
            label = self.plain_ident("plain identifier label")
            self.next()  # ':'
        atom = self.atom()
        t = self.peek()
        if self.at_punct("."):
            self.next()
            return FactStmt(label, atom)
        if self.at_punct("?"):
            self.next()
            return QueryStmt(label, atom)
        if self.at_punct(":-"):
            self.next()
            body = [self.atom()]
            while self.at_punct(","):
                self.next()
                body.append(self.atom())
            self.expect_punct(".")
            return RuleStmt(label, atom, tuple(body))
        raise self.error(("'.'", "'?'", "':-'"))

    def use_stmt(self) -> UseStmt:
        self.next()  # 'use'
        names = [self.plain_ident("clause name")]
        while self.at_punct(","):
            self.next()
            names.append(self.plain_ident("clause name"))
        self.expect_punct(".")
        return UseStmt(tuple(names))

    def struct_stmt(self) -> StructStmt:
        self.next()  # 'struct'
        name = self.plain_ident("constructor name")
        self.expect_punct("(")
        fields = [self.plain_ident("field name")]
        while self.at_punct(","):
            self.next()
            fields.append(self.plain_ident("field name"))
        self.expect_punct(")")
        self.expect_punct(".")
        return StructStmt(name, tuple(fields))

    def def_stmt(self) -> DefStmt:
        self.next()  # 'def'
        name = self.plain_ident("definition name")
        self.expect_punct(":")
        self.expect_punct("=")
        value = self.term(0)
        self.expect_punct(".")
        return DefStmt(name, value)

    # -- atoms and terms ----------------------------------------------------

    def atom(self) -> AtomAst:
        if self.at_punct("("):
            self.next()
            t = self.term(0)
            self.expect_punct(")")
            return ParenTerm(t)
        name = self.plain_ident("predicate name")
        self.expect_punct("(")
        args = self.args(0)
        return Application(name, args)

    def args(self, depth: int) -> tuple:
        # opening '(' already consumed; consumes the closing ')'
        if self.at_punct(")"):
            self.next()
            return ()
        out = [self.term(depth)]
        while self.at_punct(","):
            self.next()
            out.append(self.term(depth))
        self.expect_punct(")")
        return tuple(out)

    def term(self, depth: int) -> TermAst:
        if depth > _MAX_TERM_DEPTH:
            t = self.peek()
            raise ParseError(t.line, t.col, ("a shallower term",), "term nesting too deep")
        lhs = self.operand(depth)
        t = self.peek()
        if t.kind == "punct" and t.value in ("<", "<=", ">", ">=", "=", "!="):
            self.next()
            rhs = self.operand(depth)
            return CmpAst(t.value, lhs, rhs)
        return lhs

    def operand(self, depth: int) -> TermAst:
        t = self.peek()
        if t.kind == "int":
            self.next()
            base: TermAst = IntAst(t.value)
        elif t.kind == "str":
            self.next()
            base = StrAst(t.value)
        elif t.kind == "ident":
            self.next()
            if self.at_punct("("):
                if t.value.endswith("?"):
                    raise ParseError(t.line, t.col, ("plain identifier",), f"placeholder '{t.value}' applied to arguments")
                self.next()
                base = AppAst(t.value, self.args(depth + 1))
            else:
                base = IdentAst(t.value)
        else:
            raise self.error(("a term",))
        while self._at_projection():
            self.next()  # '.'
            field = self.plain_ident("field name")
            base = ProjAst(base, field)
        return base

    def _at_projection(self) -> bool:
        # '.' then plain ident, where the ident does not itself start a new
        # statement (label ':' or unlabeled atom '(').
        if not self.at_punct("."):
            return False
        nxt = self.peek(1)
        if nxt.kind != "ident" or nxt.value.endswith("?"):
            return False
        return not (self.at_punct(":", 2) or self.at_punct("(", 2))


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


def render_term(t: TermAst) -> str:
    if isinstance(t, IntAst):
        return str(t.value)
    if isinstance(t, StrAst):
        return quote_string(t.value)
    if isinstance(t, IdentAst):
        return t.name
    if isinstance(t, AppAst):
        return f"{t.name}({', '.join(render_term(a) for a in t.args)})"
    if isinstance(t, ProjAst):
        return f"{render_term(t.base)}.{t.field}"
    return f"{render_term(t.lhs)} {t.op} {render_term(t.rhs)}"


def render_atom(a: AtomAst) -> str:
    if isinstance(a, Application):
        return f"{a.name}({', '.join(render_term(t) for t in a.args)})"
    return f"({render_term(a.term)})"


def render_statement(s: StatementAst) -> str:
    """Concrete syntax for one statement; reparses to an equal AST."""
    if isinstance(s, FactStmt):
        prefix = f"{s.label}: " if s.label else ""
        return f"{prefix}{render_atom(s.atom)}."
    if isinstance(s, RuleStmt):
        prefix = f"{s.label}: " if s.label else ""
        body = ", ".join(render_atom(a) for a in s.body)
        return f"{prefix}{render_atom(s.head)} :- {body}."
    if isinstance(s, QueryStmt):
        prefix = f"{s.label}: " if s.label else ""
        return f"{prefix}{render_atom(s.atom)}?"
    if isinstance(s, UseStmt):
        return f"use {', '.join(s.names)}."
    if isinstance(s, StructStmt):
        return f"struct {s.name}({', '.join(s.fields)})."
    return f"def {s.name} := {render_term(s.value)}."


def render_program(statements) -> str:
    """One statement per line."""
    return "\n".join(render_statement(s) for s in statements) + ("\n" if statements else "")
