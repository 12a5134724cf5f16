"""Elaboration of parsed statements into clauses, queries, and declarations.

Identifier resolution depends on the statement kind:

  facts and def values   unknown identifiers become constant constructors
                         (registered at arity 0); placeholders are errors
  rules                  unknown identifiers are clause variables
  queries                identifiers must resolve to a declaration;
                         '?'-suffixed identifiers become Meta placeholders

Everywhere, def-bound names substitute their (ground) value, declared
constructors must be applied at their declared arity, and field projection
resolves immediately against a struct-constructed value. Comparisons
elaborate to Builtin atoms and are only legal as body premises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import LdlogError
from . import parser as ast
from .kernel import App, Atom, Builtin, IntLit, Meta, Pred, StrLit, Term, Var
from .terms import Clause, Constructor, KnowledgeBase, Query, TEXT_OP


class ElaborationError(LdlogError):
    """Base class for statement-level errors."""


class UnknownUseName(ElaborationError):
    def __init__(self, name: str):
        super().__init__(f"use names no library clause '{name}'")
        self.name = name


class DuplicateName(ElaborationError):
    def __init__(self, name: str, what: str = "name"):
        super().__init__(f"duplicate {what} '{name}'")
        self.name = name


class ArityMismatch(ElaborationError):
    def __init__(self, symbol: str, expected: int, got: int):
        super().__init__(f"'{symbol}' used with {got} arguments, expected {expected}")
        self.symbol = symbol
        self.expected = expected
        self.got = got


class NonGroundFact(ElaborationError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"fact '{name}' is not ground: {detail}")
        self.name = name


class UnboundQueryVar(ElaborationError):
    def __init__(self, name: str):
        super().__init__(f"query mentions undeclared identifier '{name}' (placeholders end in '?')")
        self.name = name


class UnknownField(ElaborationError):
    def __init__(self, field_name: str, detail: str):
        super().__init__(f"cannot project field '{field_name}': {detail}")
        self.field = field_name


class ComparisonAsTerm(ElaborationError):
    def __init__(self):
        super().__init__("comparison used in term position; comparisons are atoms, written (a <= b)")


class BuiltinNotAllowed(ElaborationError):
    def __init__(self, where: str):
        super().__init__(f"comparison atom cannot be used as {where}; comparisons are body premises only")


class PlaceholderNotAllowed(ElaborationError):
    def __init__(self, name: str, where: str):
        super().__init__(f"placeholder '{name}' is only meaningful in queries, not in {where}")
        self.name = name


class InvalidLibraryStatement(ElaborationError):
    def __init__(self, what: str):
        super().__init__(f"{what} statements are not allowed in library files")


MODE_FACT = "fact"
MODE_RULE = "rule"
MODE_QUERY = "query"
MODE_DEF = "def"


@dataclass
class ElabContext:
    """Declaration environment plus the enclosing statement's policy."""

    constructors: Dict[str, Constructor]
    defs: Dict[str, Term]
    pred_arities: Dict[str, int]
    interned: Dict[str, Var]  # name -> the program's one rule variable; the parser shares literals
    mode: str
    statement_name: str
    placeholders: Optional[Dict[str, int]] = None
    meta_ids: Optional[Iterator[int]] = None


def fresh_name(kind: str, counter: int) -> str:
    """Generated name for the counter-th unlabeled statement of a kind."""
    if kind not in ("fact", "rule", "query"):
        raise ValueError(f"unknown statement kind {kind!r}")
    return f"_{kind}_{counter}"


def rewrite_term(t: ast.TermAst, ctx: ElabContext) -> Term:
    """Elaborate a surface term under the context's resolution policy."""
    cls = type(t)
    if cls is IntLit or cls is StrLit:
        return t
    if cls is ast.IdentAst:
        return _resolve_ident(t.name, ctx)
    if cls is ast.AppAst:
        return _resolve_app(t, ctx)
    if cls is ast.ProjAst:
        return _resolve_projection(t, ctx)
    raise ComparisonAsTerm()


def _resolve_ident(name: str, ctx: ElabContext) -> Term:
    if name.endswith("?"):
        if ctx.mode == MODE_QUERY:
            assert ctx.placeholders is not None and ctx.meta_ids is not None
            if name not in ctx.placeholders:
                ctx.placeholders[name] = next(ctx.meta_ids)
            return Meta(ctx.placeholders[name], name)
        if ctx.mode == MODE_FACT:
            raise NonGroundFact(ctx.statement_name, f"placeholder '{name}'")
        where = "rules" if ctx.mode == MODE_RULE else "definitions"
        raise PlaceholderNotAllowed(name, where)
    if name in ctx.defs:
        return ctx.defs[name]
    if name in ctx.constructors:
        decl = ctx.constructors[name]
        if decl.arity != 0:
            raise ArityMismatch(name, decl.arity, 0)
        return App(name)
    if ctx.mode in (MODE_FACT, MODE_DEF):
        # an undeclared plain identifier in ground context is a constant
        ctx.constructors[name] = Constructor(0)
        return App(name)
    if ctx.mode == MODE_RULE:
        v = ctx.interned.get(name)
        if v is None:
            v = ctx.interned[name] = Var(name)
        return v
    raise UnboundQueryVar(name)


def _resolve_app(t: ast.AppAst, ctx: ElabContext) -> Term:
    if t.name in ctx.defs:
        raise ElaborationError(f"definition '{t.name}' cannot take arguments")
    decl = ctx.constructors.get(t.name)
    if decl is None:
        ctx.constructors[t.name] = Constructor(len(t.args))
    elif decl.arity != len(t.args):
        raise ArityMismatch(t.name, decl.arity, len(t.args))
    return App(t.name, tuple([rewrite_term(a, ctx) for a in t.args]))


def _resolve_projection(t: ast.ProjAst, ctx: ElabContext) -> Term:
    base = rewrite_term(t.base, ctx)
    if not isinstance(base, App):
        raise UnknownField(t.field, "projection base is not a constructed value")
    decl = ctx.constructors.get(base.constructor)
    if decl is None or decl.fields is None:
        raise UnknownField(t.field, f"'{base.constructor}' has no declared fields")
    if t.field not in decl.fields:
        raise UnknownField(t.field, f"'{base.constructor}' has fields {', '.join(decl.fields)}")
    return base.args[decl.fields.index(t.field)]


def rewrite_atom(a: ast.AtomAst, ctx: ElabContext) -> Atom:
    """Elaborate a surface atom to a predicate or comparison atom."""
    if isinstance(a, ast.Application):
        known = ctx.pred_arities.get(a.name)
        if known is None:
            ctx.pred_arities[a.name] = len(a.args)
        elif known != len(a.args):
            raise ArityMismatch(a.name, known, len(a.args))
        return Pred(a.name, tuple([rewrite_term(t, ctx) for t in a.args]))
    term = a.term
    if isinstance(term, ast.CmpAst):
        return Builtin(TEXT_OP[term.op], rewrite_term(term.lhs, ctx), rewrite_term(term.rhs, ctx))
    raise ElaborationError("parenthesized atom must be a comparison, like (a <= b)")


def elaborate(statements: List[ast.StatementAst], library: Optional[KnowledgeBase] = None) -> Tuple[KnowledgeBase, List[Query]]:
    """Elaborate a program; returns its knowledge base and queries in order."""
    return _elaborate(statements, library, library_mode=False)


def elaborate_library(statements: List[ast.StatementAst]) -> KnowledgeBase:
    """Elaborate a library file: facts, rules, structs, and defs only."""
    kb, _ = _elaborate(statements, None, library_mode=True)
    return kb


def _elaborate(statements, library, library_mode):
    kb = KnowledgeBase()  # its constructors and defs fill in place; its clauses come last
    clauses: Dict[str, Clause] = {}
    queries: List[Query] = []
    pred_arities: Dict[str, int] = {}
    counters = {"fact": 0, "rule": 0, "query": 0}
    meta_ids = itertools.count(0)
    clause_names = set()
    # every name the file writes itself, as a label or in a `use`: no generated name takes one
    written = {getattr(stmt, "label", None) for stmt in statements}
    written.update(name for stmt in statements if isinstance(stmt, ast.UseStmt) for name in stmt.names)

    def claim_name(label: Optional[str], kind: str) -> str:
        counters[kind] += 1
        name = label
        if name is None:
            name = fresh_name(kind, counters[kind])
            while name in written:
                name += "_"
        if name in clause_names:
            raise DuplicateName(name, "statement name")
        clause_names.add(name)
        return name

    def claim_term_name(name: str, what: str) -> None:
        if name in kb.constructors or name in kb.defs:
            raise DuplicateName(name, what)

    # one context per statement kind; each statement sets its name (and a query its placeholders)
    interned: Dict[str, Var] = {}
    fact_ctx, rule_ctx, query_ctx, def_ctx = (
        ElabContext(kb.constructors, kb.defs, pred_arities, interned, mode, "")
        for mode in (MODE_FACT, MODE_RULE, MODE_QUERY, MODE_DEF)
    )
    query_ctx.meta_ids = meta_ids

    for stmt in statements:
        if isinstance(stmt, ast.FactStmt):
            name = fact_ctx.statement_name = claim_name(stmt.label, "fact")
            atom = rewrite_atom(stmt.atom, fact_ctx)
            if isinstance(atom, Builtin):
                raise BuiltinNotAllowed("a fact")
            clauses[name] = Clause(name, atom)
        elif isinstance(stmt, ast.RuleStmt):
            name = rule_ctx.statement_name = claim_name(stmt.label, "rule")
            head = rewrite_atom(stmt.head, rule_ctx)
            if isinstance(head, Builtin):
                raise BuiltinNotAllowed("a rule head")
            body = tuple([rewrite_atom(a, rule_ctx) for a in stmt.body])
            clauses[name] = Clause(name, head, body)
        elif isinstance(stmt, ast.QueryStmt):
            if library_mode:
                raise InvalidLibraryStatement("query")
            name = query_ctx.statement_name = claim_name(stmt.label, "query")
            placeholders = query_ctx.placeholders = {}
            goal = rewrite_atom(stmt.atom, query_ctx)
            if isinstance(goal, Builtin):
                raise BuiltinNotAllowed("a query goal")
            queries.append(Query(name, goal, placeholders))
        elif isinstance(stmt, ast.UseStmt):
            if library_mode:
                raise InvalidLibraryStatement("use")
            for use_name in stmt.names:
                _import_clause(kb, clauses, use_name, library, pred_arities, clause_names)
        elif isinstance(stmt, ast.StructStmt):
            claim_term_name(stmt.name, "constructor name")
            seen = set()
            for f in stmt.fields:
                if f in seen:
                    raise DuplicateName(f, "field name")
                seen.add(f)
            kb.constructors[stmt.name] = Constructor(len(stmt.fields), stmt.fields)
        elif isinstance(stmt, ast.DefStmt):
            claim_term_name(stmt.name, "definition name")
            def_ctx.statement_name = stmt.name
            kb.defs[stmt.name] = rewrite_term(stmt.value, def_ctx)
        else:
            raise ElaborationError(f"unsupported statement {stmt!r}")
    return replace(kb, clauses=clauses), queries


def _import_clause(kb, clauses, name, library, pred_arities, clause_names):
    if library is None:
        raise UnknownUseName(name)
    clause = library.clauses.get(name)
    if clause is None:
        raise UnknownUseName(name)
    if name in clause_names:
        raise DuplicateName(name, "statement name")
    for atom in (clause.head,) + clause.body:
        _merge_atom_decls(kb, atom, library, pred_arities)
    clause_names.add(name)
    clauses[name] = clause


def _merge_atom_decls(kb, atom: Atom, library, pred_arities):
    if isinstance(atom, Pred):
        known = pred_arities.get(atom.symbol)
        if known is None:
            pred_arities[atom.symbol] = len(atom.args)
        elif known != len(atom.args):
            raise ArityMismatch(atom.symbol, known, len(atom.args))
        _merge_term_decls(kb, atom.args, library)
    else:
        _merge_term_decls(kb, (atom.lhs, atom.rhs), library)


def _merge_term_decls(kb, terms, library):
    """Declare each constructor of terms, and of the terms they nest, in pre-order; a stack, not recursion."""
    todo = list(reversed(terms))
    while todo:
        t = todo.pop()
        if not isinstance(t, App):
            continue
        if t.constructor in kb.defs:
            raise DuplicateName(t.constructor, "name (imported constructor collides with a definition)")
        decl = library.constructors.get(t.constructor, Constructor(len(t.args)))
        known = kb.constructors.get(t.constructor)
        if known is None:
            kb.constructors[t.constructor] = decl
        elif known.arity != decl.arity:
            raise ArityMismatch(t.constructor, known.arity, decl.arity)
        todo.extend(reversed(t.args))
