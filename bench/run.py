#!/usr/bin/env python3
"""ldlog benchmark: seeded workloads sent along the path `ldlog run` takes.

    python3 bench/run.py --workload chain --seed 1 --seconds 28 --trace 0

Run from the repository root (or any copy of it that holds `src/ldlog`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run. See bench/README.md for what each one means.

One process, one thread: a closed loop that issues each query after the
previous one is done, as a batch `ldlog run` does.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import re
import resource
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "answers_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# End-to-end times are calibrated: scaled to a processor speed at which
# _reference_loop takes exactly this long. The loop is timed before
# and after every program of a pass, next to the work it scales.
REFERENCE_LOOP_S = 0.010

PER_LAYER = {
    "parser.parse_s": "s",
    "parser.kb_per_s": "KB/s",
    "elaborator.elaborate_s": "s",
    "elaborator.clauses": "count",
    "solver.solve_s": "s",
    "solver.answers": "count",
    "unify.calls": "count",
    "unify.s": "s",
    "unify.hit_ratio": "ratio",
    "unify.calls_per_answer": "count",
    "proof.check_s": "s",
    "proof.nodes": "count",
    "proof.check_us_per_node": "us",
    "proof.max_height": "count",
    "proof.serialize_s": "s",
    "proof.render_s": "s",
    "proof.json_bytes": "B",
    "cli.report_s": "s",
    "oracle.saturate_s": "s",
    "oracle.saturate_calls": "count",
    "oracle.facts": "count",
    "oracle.answers_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.harness_s": "s",
    "trace.layer_frac": "ratio",
}

# Span name -> per-layer self-time metric.
LAYER_SPANS = {
    "parser.parse": "parser.parse_s",
    "elaborator.elaborate": "elaborator.elaborate_s",
    "solver.solve": "solver.solve_s",
    "proof.check": "proof.check_s",
    "proof.serialize": "proof.serialize_s",
    "proof.render": "proof.render_s",
    "cli.report": "cli.report_s",
    "oracle.saturate": "oracle.saturate_s",
    "oracle.answers": "oracle.answers_s",
}


def load_engine():
    """Import ldlog from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ldlog" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ldlog sources under {src}")
    sys.path.insert(0, str(src))
    import ldlog

    if Path(ldlog.__file__).resolve().parent != (src / "ldlog").resolve():
        raise SystemExit(f"bench: imported ldlog from {ldlog.__file__}, not from {src}")


class Api:
    """The engine functions a batch calls, in the namespaces `ldlog run` uses.

    With a tracer, each is wrapped in a span, and `patches` lists the names
    the engine resolves internally that a traced pass swaps out.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        from ldlog import cli, elaborator, oracle, parser, proof, solver

        self.tracer = tracer
        wrap = tracer.wrap if tracer else (lambda name, fn, size=None: fn)
        self.parse_program = wrap("parser.parse", parser.parse_program)
        self.elaborate = wrap("elaborator.elaborate", elaborator.elaborate)
        self.solve = wrap("solver.solve", solver.solve)
        self.check_proof = wrap("proof.check", proof.check_proof)
        self.serialize_proof = wrap("proof.serialize", proof.serialize_proof)
        self.render_proof = wrap("proof.render", proof.render_proof)
        self.oracle_answers = wrap("oracle.answers", oracle.oracle_answers)
        self.format_report = cli.format_report
        self.bindings_text = cli._bindings_text
        self.ReportEntry = cli.ReportEntry
        self.SolverConfig = solver.SolverConfig
        self.patches = []
        if tracer:
            self.patches = [
                (solver, "unify_atoms", tracer.wrap_unify(solver.unify_atoms)),
                (oracle, "unify_atoms", tracer.wrap_unify(oracle.unify_atoms)),
                (oracle, "saturate", tracer.wrap("oracle.saturate", oracle.saturate, size=len)),
            ]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


@dataclass
class PassStats:
    """One pass over every program and query of a workload."""

    wall: float = 0.0
    setup: Dict[str, float] = field(default_factory=dict)  # program -> parse + elaborate
    report: Dict[str, float] = field(default_factory=dict)  # program -> final report
    reference: Dict[str, float] = field(default_factory=dict)  # program -> reference loop around it
    latency: Dict[str, float] = field(default_factory=dict)  # program/query -> latency
    text_bytes: int = 0
    clauses: int = 0
    attempted: int = 0
    failed: int = 0
    answers: int = 0
    solver_answers: int = 0
    json_bytes: int = 0
    proof_nodes: int = 0
    max_height: int = 0
    outputs: Dict[str, str] = field(default_factory=dict)  # program -> what `ldlog run` prints, if inspected
    errors: List[str] = field(default_factory=list)

    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {message}")


def _answer_key(bindings) -> frozenset:
    from ldlog.terms import term_text

    return frozenset((m.source_name, term_text(v)) for m, v in bindings.items())


def _proof_shape(proof) -> tuple:
    """(node count, height) of a certificate; builtin leaves add no height."""
    from ldlog.proof import ProofTree

    nodes, tallest = 0, 0
    stack = [(proof, 1)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if isinstance(node, ProofTree):
            tallest = max(tallest, depth)
            stack.extend((child, depth + 1) for child in node.children)
    return nodes, tallest


def run_pass(wl: workloads.Workload, api: Api, reference: bool = False, inspect: bool = False) -> PassStats:
    """Every program of the workload, set up and queried as `ldlog run` does.

    With `reference`, the reference loop is timed before and after each
    program, outside the program's timings, and their mean is kept. With
    `inspect`, the pass keeps each program's report text and walks every
    certificate for its node count and height; timed passes do neither.
    """
    from ldlog.terms import apply_subst_atom, atom_text

    st = PassStats()
    tracer = api.tracer
    cfg = api.SolverConfig(max_depth=wl.max_depth, solution_limit=None)
    ref = _time_reference() if reference else 0.0
    start = perf_counter()
    with api.span("bench.pass"):
        for prog in wl.programs:
            if reference and st.setup:  # the loop after one program is the loop before the next
                after = _time_reference()
                st.reference[prev] = (ref + after) / 2
                ref = after
            prev = prog.name
            t0 = perf_counter()
            try:
                statements = api.parse_program(prog.text)
                kb, queries = api.elaborate(statements)
            except Exception as exc:  # counted, never fatal
                st.setup[prog.name] = perf_counter() - t0
                st.attempted += len(prog.expected)
                for name in prog.expected:
                    st.fail(f"{prog.name}/{name}", f"set-up raised {exc!r}")
                continue
            st.setup[prog.name] = perf_counter() - t0
            st.text_bytes += len(prog.text.encode("utf-8"))
            st.clauses += len(kb.clauses)
            entries, json_lines = [], []
            for q in queries:
                where = f"{prog.name}/{q.name}"
                if tracer:
                    tracer.query = where
                st.attempted += 1
                proofs = ()
                t0 = perf_counter()
                try:
                    with api.span("bench.query"):
                        goal_text = atom_text(q.goal)
                        if wl.oracle:
                            found = api.oracle_answers(kb, q.goal)
                            with api.span("cli.report"):
                                entry = api.ReportEntry(q.name, goal_text, "solved" if found else "unprovable", depth_note="oracle")
                                for bindings in found:
                                    instance = atom_text(apply_subst_atom(q.goal, bindings))
                                    entry.solutions.append((instance, api.bindings_text(q, bindings), None))
                        else:
                            solutions = api.solve(kb, q, cfg)
                            if wl.check:
                                for sol in solutions:
                                    api.check_proof(kb, sol.proof)
                            if wl.json:
                                json_lines.extend(api.serialize_proof(sol.proof, q) for sol in solutions)
                            with api.span("cli.report"):
                                entry = api.ReportEntry(
                                    q.name, goal_text, "solved" if solutions else "unprovable",
                                    depth_note=f"depth {cfg.max_depth}",
                                )
                                for sol in solutions:
                                    instance = atom_text(apply_subst_atom(q.goal, sol.bindings))
                                    entry.solutions.append((instance, api.bindings_text(q, sol.bindings), api.render_proof(sol.proof)))
                            found = [sol.bindings for sol in solutions]
                            proofs = [sol.proof for sol in solutions]
                            st.solver_answers += len(solutions)
                        entries.append(entry)
                except Exception as exc:  # counted, never fatal
                    st.latency[where] = perf_counter() - t0
                    st.fail(where, f"raised {exc!r}")
                    continue
                st.latency[where] = perf_counter() - t0
                got = Counter(_answer_key(b) for b in found)
                if got != Counter(prog.expected[q.name]):
                    st.fail(where, f"{sum(got.values())} answers, reference has {len(prog.expected[q.name])}")
                st.answers += len(found)
                if inspect:
                    for proof in proofs:
                        nodes, height = _proof_shape(proof)
                        st.proof_nodes += nodes
                        st.max_height = max(st.max_height, height)
            if tracer:
                tracer.query = None
            t0 = perf_counter()
            with api.span("cli.report"):
                out = "".join(line + "\n" for line in json_lines) if wl.json else api.format_report(entries)
            st.report[prog.name] = perf_counter() - t0
            st.json_bytes += len(out.encode("utf-8")) if wl.json else 0
            if inspect:
                st.outputs[prog.name] = out
    st.wall = perf_counter() - start
    if reference:
        st.reference[prev] = (ref + _time_reference()) / 2
    return st


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _reference_loop(n: int = 15000) -> int:
    """Fixed pure-Python work, independent of ldlog: tuples, dict copies, str."""
    table, total = {}, 0
    for i in range(n):
        key = ("v", i % 61)
        pair = (key, i)
        if key in table:
            table = dict(table)
        table[key] = pair
        total += len(str(pair[1])) + isinstance(pair[0], tuple)
    return total


def _time_reference() -> float:
    gc.disable()  # time the processor, not a collection the loop happens to trigger
    try:
        t0 = perf_counter()
        _reference_loop()
        return perf_counter() - t0
    finally:
        gc.enable()


def _scaled(passes: List[PassStats], attr: str) -> Dict[str, float]:
    """Each item's median over the passes, in calibrated seconds."""
    times: Dict[str, List[float]] = {}
    for p in passes:
        for key, t in getattr(p, attr).items():
            ref = p.reference[key.split("/")[0]]
            times.setdefault(key, []).append(t * REFERENCE_LOOP_S / ref)
    return {key: statistics.median(ts) for key, ts in times.items()}


def measure(wl: workloads.Workload, seconds: float):
    """Untraced passes back to back until the time is up; end-to-end metrics.

    Every pass repeats the same batch, so each item (a program's set-up, a
    query, a program's report) is timed once per pass. The machine's speed
    changes by up to 2x for stretches of seconds to minutes, so each time
    is first divided by the reference loop timed around the same program,
    and each item's median over the passes stands for it.
    """
    api = Api()
    passes: List[PassStats] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(wl, api, reference=True))
    wall = perf_counter() - start
    setup, query, report = _scaled(passes, "setup"), _scaled(passes, "latency"), _scaled(passes, "report")
    per_query = sorted(query.values())
    deciles = statistics.quantiles(per_query, n=10, method="inclusive") if len(per_query) > 1 else per_query * 9
    batch_s = sum(setup.values()) + sum(per_query) + sum(report.values())
    refs = [r for p in passes for r in p.reference.values()]
    metrics = {
        "answers_per_s": passes[0].answers / batch_s,
        "query_ms_p50": deciles[4] * 1e3,
        "query_ms_p90": deciles[8] * 1e3,
        "setup_s": sum(setup.values()),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = (
        f"{len(passes)} passes of {len(per_query)} queries in {wall:.2f} s;"
        f" reference loop {min(refs) * 1e3:.2f} to {max(refs) * 1e3:.2f} ms, median {statistics.median(refs) * 1e3:.3f} ms"
    )
    return metrics, passes, notes


def measure_traced(wl: workloads.Workload, seconds: float, spans_path: Path, inspected: PassStats):
    """Untraced and traced passes in alternating pairs; per-layer metrics.

    Times are summed over every traced pass. Counts are those of the first
    traced pass, so they depend only on the workload and its seed; the
    certificate counts come from the `inspected` pass, which ran untimed.
    """
    tracer = Tracer()
    plain, traced = Api(), Api(tracer)
    passes: List[PassStats] = []
    traced_passes: List[tuple] = []  # (first span, end span, stats)
    ratios = []
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        walls = {}
        for use_trace in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
            if use_trace:
                first = len(tracer.spans)
                with tracer.patched(traced.patches):
                    st = run_pass(wl, traced)
                traced_passes.append((first, len(tracer.spans), st))
            else:
                st = run_pass(wl, plain)
            passes.append(st)
            walls[use_trace] = st.wall
        ratios.append(walls[True] / walls[False] - 1.0)

    self_s = Counter()
    unify_s = 0.0
    for s in tracer.spans:
        self_s[s.name] += s.self_s
        unify_s += s.unify_s
    first, end, st0 = traced_passes[0]
    spans0 = tracer.spans[first:end]
    calls = sum(s.unify_calls for s in spans0)
    hits = sum(s.unify_hits for s in spans0)
    saturates = [s for s in spans0 if s.name == "oracle.saturate"]
    nodes_all = inspected.proof_nodes * len(traced_passes)
    wall = sum(s.duration for s in tracer.spans if s.name == "bench.pass")
    harness = self_s["bench.pass"] + self_s["bench.query"]
    m = {metric: self_s[name] for name, metric in LAYER_SPANS.items()}
    m.update({
        "parser.kb_per_s": sum(p.text_bytes for _, _, p in traced_passes) / 1024.0 / m["parser.parse_s"],
        "elaborator.clauses": st0.clauses,
        "solver.answers": st0.solver_answers,
        "unify.calls": calls,
        "unify.s": unify_s,
        "unify.hit_ratio": hits / calls if calls else 0.0,
        "unify.calls_per_answer": calls / st0.answers if st0.answers else 0.0,
        "proof.nodes": inspected.proof_nodes,
        "proof.check_us_per_node": m["proof.check_s"] / nodes_all * 1e6 if nodes_all else 0.0,
        "proof.max_height": inspected.max_height,
        "proof.json_bytes": st0.json_bytes,
        "oracle.saturate_calls": len(saturates),
        "oracle.facts": sum(s.size for s in saturates) / len(saturates) if saturates else 0.0,
        "trace.overhead_frac": statistics.median(ratios),
        "trace.wall_s": wall,
        "trace.harness_s": harness,
        "trace.layer_frac": (wall - harness) / wall,
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    notes = f"{len(traced_passes)} traced and {len(passes) - len(traced_passes)} untraced passes, {len(tracer.spans)} spans"
    return {name: m[name] for name in PER_LAYER}, passes, notes


_REPORT_LINE = re.compile(r"^(?P<name>\S+): (?P<rest>.*)$")
_BINDING = re.compile(r'(\S+\?) := ("(?:[^"\\]|\\.)*"|[^,\]]+)')


def _parse_cli_output(text: str, as_json: bool) -> Dict[str, Counter]:
    """Query name -> answers, from `ldlog run` output; unprovable -> empty."""
    got: Dict[str, Counter] = {}
    for line in text.splitlines():
        if as_json:
            doc = json.loads(line)
            got.setdefault(doc["query"], Counter())[frozenset(doc["bindings"].items())] += 1
            continue
        match = _REPORT_LINE.match(line)
        if match is None:
            raise ValueError(f"unexpected report line {line!r}")
        name, rest = match["name"], match["rest"]
        answers = got.setdefault(name, Counter())
        if re.search(r"  unprovable \([^)]*\)$", rest):
            continue
        if "  floundered (" in rest or "  error: " in rest:
            raise ValueError(f"query failed: {line!r}")
        bracket = re.search(r"  \[(.*?)\]", rest)
        answers[frozenset(_BINDING.findall(bracket[1]) if bracket else ())] += 1
    return got


def cli_crosscheck(wl: workloads.Workload, outputs: Dict[str, str]) -> List[str]:
    """Run `ldlog.cli.main` on the generated files.

    Its answers must equal the reference, and its standard output must be
    byte for byte the report text the harness built for the same program
    (`outputs`, from an inspected pass), so the timed path cannot drift
    from what `ldlog run` does.
    """
    from ldlog import cli

    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for prog in wl.programs:
            path = Path(tmp) / f"{prog.name}.ldl"
            path.write_text(prog.text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(wl.cli_args(str(path)))
                got = _parse_cli_output(out.getvalue(), wl.json)
            except (Exception, SystemExit) as exc:
                problems.append(f"cli {prog.name}: raised {exc!r}")
                continue
            if out.getvalue() != outputs.get(prog.name):
                problems.append(f"cli {prog.name}: standard output differs from the harness's report")
            want_code = 1 if any(not answers for answers in prog.expected.values()) else 0
            if code != want_code:
                problems.append(f"cli {prog.name}: exit code {code}, expected {want_code}")
            for name, answers in prog.expected.items():
                if got.get(name, Counter()) != Counter(answers):
                    problems.append(f"cli {prog.name}/{name}: answers differ from the reference")
            extra = set(got) - set(prog.expected)
            if extra:
                problems.append(f"cli {prog.name}: unexpected queries {sorted(extra)}")
            if wl.check:
                verified = sum(len(answers) for answers in prog.expected.values())
                if f"check: {verified} proofs verified." not in err.getvalue():
                    problems.append(f"cli {prog.name}: expected 'check: {verified} proofs verified.'")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure for this long; whole passes, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="traced run: write the spans here as JSON lines (default .bench-out/spans-WORKLOAD-SEED.jsonl)")
    args = ap.parse_args(argv)

    load_engine()
    wl = workloads.build(args.workload, args.seed)
    inspected = run_pass(wl, Api(), inspect=True)
    problems = cli_crosscheck(wl, inspected.outputs)
    if args.trace:
        spans_path = args.spans or ROOT / ".bench-out" / f"spans-{wl.name}-{wl.seed}.jsonl"
        metrics, passes, notes = measure_traced(wl, args.seconds, spans_path, inspected)
        units = PER_LAYER
    else:
        metrics, passes, notes = measure(wl, args.seconds)
        units = END_TO_END
    passes.append(inspected)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for message in problems + [e for p in passes for e in p.errors][:10]:
        print(f"bench: {message}", file=sys.stderr)
    print(f"{wl.name} seed {wl.seed}: {notes}; {attempted} queries, {failed} failed (failed_frac {failed / attempted:.4f})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
