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

The lexer cuts the source into token texts with one regex call and keeps
only each token's kind and value, in two parallel lists, which the parser
reads. An integer or string token's value is the text's one IntLit or
StrLit of that value, whatever its spelling (`7` and `007`, a tab escaped
or raw), and the parser puts it in the AST as it is: equal literals are one
object per parsed text. Offsets, and from them a line and column, are read
again from the source only when an error is raised, or when tokenize()
builds its Token list, whose values stay int and str.

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
import string
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from .errors import SourceError
from .kernel import IntLit, StrLit
from .terms import INT64_MAX, INT64_MIN, term_text

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

# Skipped text, then one group: the token's text, or the empty text of the
# end of input ("\Z", after trailing skipped text). Punctuation, the most
# common token, is tried first, and "." catches every character the others
# refuse. The skip is greedy and some alternative always matches after it,
# so every token takes one match and no match backtracks into its skip.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*)*("
    r":-|<=|>=|!=|[(),.?:<>=]"
    r"|-?[0-9]+"
    r"|[A-Za-z_][A-Za-z0-9_]*\??"
    f'|"{_STRING_BODY}"'
    r"|.|\Z)"
)
# (kind, value) of each text whose kind is not read from its first character
_FIXED = {
    **{p: (p, p) for p in ":- <= >= != ( ) , . ? : < > =".split()},
    **{k: ("kw", k) for k in KEYWORDS},
    "": ("eof", None),
}
_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "ident"), **dict.fromkeys(string.digits + "-", "int"), '"': "str"}
_INT64_DIGITS = 18  # every literal of at most this many characters fits in int64
_QUOTE_LIMIT = 24  # characters of an out-of-range literal that its error message quotes


def tokenize(source: str) -> List[Token]:
    """Split source text into tokens; raises LexError on bad input."""
    kinds, values = _lex(source)
    tokens: List[Token] = []
    line, seen = 1, 0  # lines are counted on from the last token, so the whole source is read once
    for kind, value, start in zip(kinds[:-1], values, _starts(source)):
        line += source.count("\n", seen, start)
        seen = start
        col = start - source.rfind("\n", 0, start)
        if kind == "int" or kind == "str":
            value = value.value
        tokens.append(Token(kind if kind in ("ident", "int", "str", "kw") else "punct", value, line, col))
    return tokens


def _lex(source: str) -> Tuple[List[str], list]:
    """Parallel lists of the tokens' kinds and values, ending with an "eof" entry.

    One findall cuts the source into the tokens' texts. A text's kind and
    value are made when the text is first met and read from `table` after
    that, so each spelling is classified and converted once. A punctuation
    token's kind and value are its own text. `table` also maps (class,
    value) to the literal made first, so `7` and `007` share one.
    """
    texts = _TOKEN.findall(source)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()  # a second empty match, at the very end after trailing skipped text
    table = dict(_FIXED)
    get = table.get
    kinds: List[str] = []
    values: list = []
    for text in texts:
        entry = get(text)
        if entry is None:
            entry = table[text] = _classify(text, table, source, len(kinds))
        kinds.append(entry[0])
        values.append(entry[1])
    return kinds, values


def _classify(text: str, table: dict, source: str, k: int) -> tuple:
    """(kind, value) of token k, whose text is not punctuation or a keyword, by its first
    character; a one-character text that starts no token is a LexError, as is an int64 overflow."""
    kind = _FIRST.get(text[0])
    if kind == "ident":
        return kind, text
    if kind == "int" and text != "-":
        n = int(text) if len(text) <= _INT64_DIGITS else _int_value(text)
        if n is not None:
            return kind, table.setdefault((IntLit, n), IntLit(n))
    elif kind == "str" and text != '"':
        body = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)], text[1:-1]) if "\\" in text else text[1:-1]
        return kind, table.setdefault((StrLit, body), StrLit(body))
    pos = next(islice(_starts(source), k, None))
    if len(text) == 1:
        raise _bad_token(source, pos)
    if len(text) > _QUOTE_LIMIT:
        text = f"{text[:_QUOTE_LIMIT]}... ({len(text.lstrip('-'))} digits)"
    raise LexError(*_position(source, pos), f"integer literal out of range: {text}")


def _starts(source: str) -> Iterator[int]:
    """The start offset of each entry of _lex's lists, read again from the source; the
    "eof" entry's is where the trailing skipped text begins. Only errors and tokenize()
    need offsets, so _lex keeps none."""
    for m in _TOKEN.finditer(source):
        yield m.start(1) if m.group(1) else m.start()


def _position(source: str, pos: int) -> Tuple[int, int]:
    """Line and column, both from 1, of offset pos; only skipped text holds newlines."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _int_value(text: str) -> Optional[int]:
    """The value of an integer token's text, or None outside int64."""
    # int() refuses strings of more than 4,300 digits, and an int64 has at
    # most 19 significant digits: decide from those before converting
    digits = text.lstrip("-").lstrip("0")
    if len(digits) <= 19:
        value = int(digits or "0")
        value = -value if text[0] == "-" else value
        if INT64_MIN <= value <= INT64_MAX:
            return value
    return None


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

    def __init__(self, source: str, kinds: List[str], values: list):
        self.source = source
        self.kinds = kinds
        self.values = values
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
        return _position(self.source, next(islice(_starts(self.source), self.pos, None)))

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
        kinds = self.kinds
        if kinds[self.pos] == ")":
            self.pos += 1
            return ()
        out = [self.term(depth)]
        while kinds[self.pos] == ",":
            self.pos += 1
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
        pos, kinds = self.pos, self.kinds
        kind, value = kinds[pos], self.values[pos]
        if kind == "int" or kind == "str":
            self.pos = pos + 1
            base: TermAst = value
        elif kind == "ident":
            if kinds[pos + 1] != "(":
                self.pos = pos + 1
                base = IdentAst(value)
            elif value[-1] == "?":
                raise ParseError(*self.position(), ("plain identifier",), f"placeholder '{value}' applied to arguments")
            else:
                self.pos = pos + 2
                base = AppAst(value, self.args(depth + 1))
        else:
            raise self.error(("a term",))
        while kinds[self.pos] == "." and self._at_projection():
            self.pos += 1  # '.'
            base = ProjAst(base, self.plain_ident("field name"))
        return base

    def _at_projection(self) -> bool:
        # the '.' at pos is followed by a plain ident that does not itself
        # start a new statement (label ':' or unlabeled atom '(').
        pos, kinds = self.pos, self.kinds
        return kinds[pos + 1] == "ident" and self.values[pos + 1][-1] != "?" and kinds[pos + 2] not in (":", "(")


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
