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

The lexer keeps only each token's kind, value and start offset, in three
parallel lists, and the parser reads those lists. An integer or string
token's value is the text's one IntLit or StrLit of that value, whatever
its spelling (`7` and `007`, a tab escaped or raw), and the parser puts it
in the AST as it is: equal literals are one object per parsed text. A line
and column are computed from an offset only when an error is raised, or
when tokenize() builds its Token list, whose values stay int and str.

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
from .terms import INT64_MAX, INT64_MIN, IntLit, StrLit, term_text

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
    kind: str  # "ident" | "int" | "str" | "kw" | "punct"
    value: object
    line: int
    col: int


# ---------------------------------------------------------------------------
# Statement and term ASTs
# ---------------------------------------------------------------------------


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


TermAst = Union[IntLit, StrLit, IdentAst, AppAst, ProjAst, CmpAst]


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

# Skipped text, then one group per token kind; "bad" catches every character
# the others refuse, and "\Z" ends the input after trailing skipped text. The
# skip is greedy and some alternative always matches after it, so every
# token takes one match and no match backtracks into its skip.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*)*(?:"
    + "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("int", r"-?[0-9]+"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*\??"),
            ("punct", r":-|<=|>=|!=|[(),.?:<>=]"),
            ("str", f'"{_STRING_BODY}"'),
            ("bad", r"."),
        )
    )
    + r"|\Z)"
)
_INT, _IDENT, _PUNCT, _STR = (_TOKEN.groupindex[k] for k in ("int", "ident", "punct", "str"))
_KEYWORDS = frozenset(KEYWORDS)
_INT64_DIGITS = 18  # every literal of at most this many characters fits in int64


def tokenize(source: str) -> List[Token]:
    """Split source text into tokens; raises LexError on bad input."""
    kinds, values, starts = _lex(source)
    tokens: List[Token] = []
    line, seen = 1, 0  # lines are counted on from the last token, so the whole source is read once
    for kind, value, start in zip(kinds[:-1], values, starts):
        line += source.count("\n", seen, start)
        seen = start
        col = start - source.rfind("\n", 0, start)
        if kind == "int" or kind == "str":
            value = value.value
        tokens.append(Token(kind if kind in ("ident", "int", "str", "kw") else "punct", value, line, col))
    return tokens


def _lex(source: str) -> Tuple[List[str], list, List[int]]:
    """Parallel lists of the tokens' kinds, values and start offsets.

    A punctuation token's kind is its own text. A literal token's value is
    read from `literals`, keyed by its text, so each spelling is converted
    once; a new spelling is keyed by (class, value) to the literal already
    made. The lists end with an "eof" entry just past the last token.
    """
    kinds: List[str] = []
    values: list = []
    starts: List[int] = []
    literals: dict = {}
    for m in _TOKEN.finditer(source):
        i = m.lastindex
        if i == _PUNCT:
            kind = value = m.group(i)
        elif i == _IDENT:
            value = m.group(i)
            kind = "kw" if value in _KEYWORDS else "ident"
        elif i == _INT:
            kind, text = "int", m.group(i)
            value = literals.get(text)
            if value is None:
                n = int(text) if len(text) <= _INT64_DIGITS else _int_value(text, source, m.start(i))
                value = literals[text] = literals.setdefault((IntLit, n), IntLit(n))
        elif i == _STR:
            kind, text = "str", m.group(i)
            value = literals.get(text)
            if value is None:
                body = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)], text[1:-1]) if "\\" in text else text[1:-1]
                value = literals[text] = literals.setdefault((StrLit, body), StrLit(body))
        elif i is None:  # the end of input, after any trailing skipped text
            break
        else:
            raise _bad_token(source, m.start(i))
        kinds.append(kind)
        values.append(value)
        starts.append(m.start(i))
    kinds.append("eof")
    values.append(None)
    starts.append(m.start())
    return kinds, values, starts


def _position(source: str, pos: int) -> Tuple[int, int]:
    """Line and column, both from 1, of offset pos; only skipped text holds newlines."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


_QUOTE_LIMIT = 24  # characters of an out-of-range literal that its error message quotes


def _int_value(text: str, source: str, pos: int) -> int:
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
    raise LexError(*_position(source, pos), f"integer literal out of range: {text}")


def _bad_token(source: str, pos: int) -> LexError:
    line, col = _position(source, pos)
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

_COMPARISONS = frozenset(("<", "<=", ">", ">=", "=", "!="))


def parse_program(source: str) -> List[StatementAst]:
    """Parse a full program; raises LexError or ParseError on bad input."""
    # the parser looks past a token only when that token is not the final "eof"
    return _Parser(source, *_lex(source)).program()


class _Parser:
    """Recursive descent over _lex's lists; pos indexes the next token."""

    def __init__(self, source: str, kinds: List[str], values: list, starts: List[int]):
        self.source = source
        self.kinds = kinds
        self.values = values
        self.starts = starts
        self.pos = 0

    def error(self, expected: Tuple[str, ...]) -> ParseError:
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind == "eof":
            found = "end of input"
        elif kind == "str":
            found = "string literal"
        elif kind == "int":
            found = f"integer {value.value}"
        else:
            found = f"'{value}'"
        return ParseError(*self.position(), expected, found)

    def position(self) -> Tuple[int, int]:
        return _position(self.source, self.starts[self.pos])

    def expect_punct(self, p: str) -> None:
        if self.kinds[self.pos] != p:
            raise self.error((f"'{p}'",))
        self.pos += 1

    def accept(self, p: str) -> bool:
        """Consume punctuation p if it is next."""
        if self.kinds[self.pos] == p:
            self.pos += 1
            return True
        return False

    def plain_ident(self, what: str) -> str:
        pos = self.pos
        value = self.values[pos]
        if self.kinds[pos] == "ident" and value[-1] != "?":
            self.pos = pos + 1
            return value
        raise self.error((what,))

    # -- statements --------------------------------------------------------

    def program(self) -> List[StatementAst]:
        out: List[StatementAst] = []
        while self.kinds[self.pos] != "eof":
            out.append(self.statement())
        return out

    def statement(self) -> StatementAst:
        pos, kinds = self.pos, self.kinds
        kind = kinds[pos]
        if kind == "kw":
            value = self.values[pos]
            if value == "use":
                return self.use_stmt()
            if value == "struct":
                return self.struct_stmt()
            return self.def_stmt()
        label = None
        if kind == "ident" and kinds[pos + 1] == ":":
            label = self.plain_ident("plain identifier label")
            self.pos += 1  # ':'
        atom = self.atom()
        kind = kinds[self.pos]
        if kind == ".":
            self.pos += 1
            return FactStmt(label, atom)
        if kind == "?":
            self.pos += 1
            return QueryStmt(label, atom)
        if kind == ":-":
            self.pos += 1
            body = [self.atom()]
            while self.accept(","):
                body.append(self.atom())
            self.expect_punct(".")
            return RuleStmt(label, atom, tuple(body))
        raise self.error(("'.'", "'?'", "':-'"))

    def use_stmt(self) -> UseStmt:
        self.pos += 1  # 'use'
        names = [self.plain_ident("clause name")]
        while self.accept(","):
            names.append(self.plain_ident("clause name"))
        self.expect_punct(".")
        return UseStmt(tuple(names))

    def struct_stmt(self) -> StructStmt:
        self.pos += 1  # 'struct'
        name = self.plain_ident("constructor name")
        self.expect_punct("(")
        fields = [self.plain_ident("field name")]
        while self.accept(","):
            fields.append(self.plain_ident("field name"))
        self.expect_punct(")")
        self.expect_punct(".")
        return StructStmt(name, tuple(fields))

    def def_stmt(self) -> DefStmt:
        self.pos += 1  # 'def'
        name = self.plain_ident("definition name")
        self.expect_punct(":")
        self.expect_punct("=")
        value = self.term(0)
        self.expect_punct(".")
        return DefStmt(name, value)

    # -- atoms and terms ----------------------------------------------------

    def atom(self) -> AtomAst:
        if self.accept("("):
            t = self.term(0)
            self.expect_punct(")")
            return ParenTerm(t)
        name = self.plain_ident("predicate name")
        self.expect_punct("(")
        return Application(name, self.args(0))

    def args(self, depth: int) -> tuple:
        # opening '(' already consumed; consumes the closing ')'
        if self.accept(")"):
            return ()
        out = [self.term(depth)]
        while self.accept(","):
            out.append(self.term(depth))
        self.expect_punct(")")
        return tuple(out)

    def term(self, depth: int) -> TermAst:
        if depth > _MAX_TERM_DEPTH:
            raise ParseError(*self.position(), ("a shallower term",), "term nesting too deep")
        lhs = self.operand(depth)
        op = self.kinds[self.pos]
        if op in _COMPARISONS:
            self.pos += 1
            return CmpAst(op, lhs, self.operand(depth))
        return lhs

    def operand(self, depth: int) -> TermAst:
        pos = self.pos
        kind, value = self.kinds[pos], self.values[pos]
        if kind == "int" or kind == "str":
            self.pos = pos + 1
            base: TermAst = value
        elif kind == "ident":
            if self.kinds[pos + 1] != "(":
                self.pos = pos + 1
                base = IdentAst(value)
            elif value[-1] == "?":
                raise ParseError(*self.position(), ("plain identifier",), f"placeholder '{value}' applied to arguments")
            else:
                self.pos = pos + 2
                base = AppAst(value, self.args(depth + 1))
        else:
            raise self.error(("a term",))
        while self._at_projection():
            self.pos += 1  # '.'
            base = ProjAst(base, self.plain_ident("field name"))
        return base

    def _at_projection(self) -> bool:
        # '.' then plain ident, where the ident does not itself start a new
        # statement (label ':' or unlabeled atom '(').
        pos, kinds = self.pos, self.kinds
        return (
            kinds[pos] == "."
            and kinds[pos + 1] == "ident"
            and self.values[pos + 1][-1] != "?"
            and kinds[pos + 2] not in (":", "(")
        )


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


def render_term(t: TermAst) -> str:
    if isinstance(t, (IntLit, StrLit)):
        return term_text(t)
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
