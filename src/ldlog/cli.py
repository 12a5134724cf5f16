"""Command-line front end.

    ldlog run FILE [--lib FILE]... [--max-depth N] [--all] [--json]
                   [--check] [--oracle]

Exit codes: 0 all queries solved, 1 some query unprovable or floundered,
2 unreadable or non-UTF-8 files and lexing/parsing/elaboration errors,
3 a solver-produced proof failed re-checking under --check, 4 internal
error (an unexpected exception, such as RecursionError, reported in one
line). A closed stdout (a reader such as `head` that stops early) ends the
run with exit 1 and no message.

Output is written query by query: each query's report lines, or its --json
documents, are printed and flushed when that query ends, and the exit code
is decided after the last. After an internal error the lines of the queries
already answered stay printed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .elaborator import ElaborationError, elaborate, elaborate_library
from .errors import LdlogError, SourceError
from .oracle import oracle_answers
from .parser import parse_program
from .proof import CheckError, check_proof, render_proof, serialize_proof
from .solver import FlounderedBuiltin, SolverConfig, solve
from .terms import Query, apply_subst_atom, atom_text, term_text


@dataclass
class ReportEntry:
    """One query's outcome, ready for formatting."""

    name: str
    goal_text: str
    status: str  # "solved" | "unprovable" | "floundered" | "error"
    solutions: list = field(default_factory=list)  # (instance, bindings, render or None)
    depth_note: str = ""
    detail: str = ""


def format_report(entries: List[ReportEntry]) -> str:
    """Human-readable report, one line per query result."""
    if not entries:
        return "no queries.\n"
    lines = []
    for e in entries:
        if e.status == "solved":
            for instance, bindings, render in e.solutions:
                parts = [f"{e.name}: {instance}"]
                if bindings:
                    parts.append(f"[{bindings}]")
                if render is not None:
                    parts.append(f"proof: {render}")
                lines.append("  ".join(parts))
        elif e.status == "unprovable":
            lines.append(f"{e.name}: {e.goal_text}  unprovable ({e.depth_note})")
        elif e.status == "floundered":
            lines.append(f"{e.name}: {e.goal_text}  floundered ({e.detail})")
        else:
            lines.append(f"{e.name}: {e.goal_text}  error: {e.detail}")
    return "\n".join(lines) + "\n"


def _bindings_text(q: Query, bindings) -> str:
    ordered = sorted(bindings.items(), key=lambda kv: kv[0].id)
    return ", ".join(f"{m.source_name} := {term_text(v)}" for m, v in ordered)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ldlog", description="Certifying rule engine: answer queries with checkable proofs.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="evaluate every query in a program")
    run.add_argument("file", help="program file")
    run.add_argument("--lib", action="append", default=[], metavar="FILE", help="library file for use statements (repeatable)")
    run.add_argument("--max-depth", type=int, default=6, metavar="N", help="proof height budget (default 6)")
    run.add_argument("--all", action="store_true", help="report every solution instead of the first")
    run.add_argument("--json", action="store_true", help="emit one JSON document per solution")
    run.add_argument("--check", action="store_true", help="re-verify each emitted proof with the certificate checker")
    run.add_argument("--oracle", action="store_true", help="answer by forward-chaining saturation (no proofs)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except BrokenPipeError:
        # the reader of stdout has gone: stop without a message. Output still
        # buffered goes to os.devnull, so the interpreter's last flush cannot
        # fail again, and the exit code is 1, as Python's own is on EPIPE
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor: a stand-in stream, or a closed one
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except Exception as exc:  # RecursionError included: no traceback, and never the "unprovable" code
        print(f"ldlog: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _parse_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"ldlog: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"ldlog: {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_program(text)
    except SourceError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


def run_command(args) -> int:
    if args.oracle and (args.json or args.check):
        print("ldlog: --oracle answers carry no proofs; it cannot be combined with --json or --check", file=sys.stderr)
        return 2

    library = None
    if args.lib:
        lib_statements = []
        for lib_path in args.lib:
            parsed = _parse_file(lib_path)
            if parsed is None:
                return 2
            lib_statements.extend(parsed)
        try:
            library = elaborate_library(lib_statements)
        except ElaborationError as exc:
            print(f"ldlog: {exc}", file=sys.stderr)
            return 2

    statements = _parse_file(args.file)
    if statements is None:
        return 2
    try:
        kb, queries = elaborate(statements, library)
    except ElaborationError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = SolverConfig(max_depth=args.max_depth, solution_limit=None if args.all else 1)
    except ValueError as exc:
        print(f"ldlog: {exc}", file=sys.stderr)
        return 2

    if not queries and not args.json:
        print(format_report([]), end="")
    if args.oracle:
        return _run_oracle(kb, queries, args)
    return _run_solver(kb, queries, cfg, args)


def _run_solver(kb, queries: List[Query], cfg: SolverConfig, args) -> int:
    any_failed = False
    check_failed = False
    checked = 0
    for q in queries:
        goal_text = atom_text(q.goal)
        solutions = []
        try:
            solutions = solve(kb, q, cfg)
        except FlounderedBuiltin as exc:
            entry = ReportEntry(q.name, goal_text, "floundered", detail=atom_text(exc.atom))
        except LdlogError as exc:
            entry = ReportEntry(q.name, goal_text, "error", detail=str(exc))
        else:
            entry = ReportEntry(q.name, goal_text, "solved" if solutions else "unprovable", depth_note=f"depth {cfg.max_depth}")
        any_failed = any_failed or not solutions
        if args.check:
            for sol in solutions:
                try:
                    check_proof(kb, sol.proof)
                    checked += 1
                except CheckError as exc:
                    print(f"check failed: {q.name}: {exc}", file=sys.stderr)
                    check_failed = True
        if args.json:  # the documents replace the report
            text = "".join(serialize_proof(sol.proof, q) + "\n" for sol in solutions)
        else:
            for sol in solutions:
                entry.solutions.append((atom_text(sol.proof.conclusion), _bindings_text(q, sol.bindings), render_proof(sol.proof)))
            text = format_report([entry])
        print(text, end="", flush=True)

    if args.check and not check_failed:
        print(f"check: {checked} proofs verified.", file=sys.stderr)
    if check_failed:
        return 3
    return 1 if any_failed else 0


def _run_oracle(kb, queries: List[Query], args) -> int:
    any_failed = False
    for q in queries:
        try:
            answers = oracle_answers(kb, q.goal)  # the KB's first query saturates, the rest reuse its fixpoint
        except LdlogError as exc:
            print(f"ldlog: {exc}", file=sys.stderr)
            return 2
        any_failed = any_failed or not answers
        entry = ReportEntry(q.name, atom_text(q.goal), "solved" if answers else "unprovable", depth_note="oracle")
        for bindings in answers if args.all else answers[:1]:
            entry.solutions.append((atom_text(apply_subst_atom(q.goal, bindings)), _bindings_text(q, bindings), None))
        print(format_report([entry]), end="", flush=True)
    return 1 if any_failed else 0
