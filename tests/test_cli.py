"""Command-line behavior: report format, flags, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ldlog import cli, oracle, proof
from ldlog.cli import ReportEntry, format_report, main

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
REACH = str(PROGRAMS / "reach.ldl")
RECTS = str(PROGRAMS / "rects.ldl")
DERIV = str(PROGRAMS / "deriv.ldl")
DERIVS_LIB = str(PROGRAMS / "lib" / "derivs.ldl")
# stdout, stderr and exit code of `ldlog run` on each golden program under
# seven flag sets, recorded once; argv paths are relative to the repository root
TRANSCRIPTS = json.loads((Path(__file__).resolve().parent / "cli_transcripts.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenRuns:
    def test_reach_first_solutions(self, capsys):
        code, out, _ = run(capsys, "run", REACH)
        assert code == 0
        assert out == (
            'q0: path("a", "c")  proof: r2 (r1 f1) f2\n'
            'q1: path("b", "c")  [m? := "c"]  proof: r1 f2\n'
        )

    def test_reach_all_solutions(self, capsys):
        code, out, _ = run(capsys, "run", REACH, "--all")
        assert code == 0
        assert out == (
            'q0: path("a", "c")  proof: r2 (r1 f1) f2\n'
            'q1: path("b", "c")  [m? := "c"]  proof: r1 f2\n'
            'q1: path("b", "d")  [m? := "d"]  proof: r1 f3\n'
        )

    def test_rects_overlap_proofs(self, capsys):
        code, out, _ = run(capsys, "run", RECTS)
        assert code == 0
        assert out == (
            "q0: overlap(Rect(50, 50, 400, 100), Rect(75, 25, 125, 300))"
            "  proof: overlap (300 >= 50) (25 <= 100) (125 >= 50) (75 <= 400)\n"
            "q1: overlap(Rect(50, 50, 400, 100), Rect(150, 80, 425, 200))"
            "  proof: overlap (200 >= 50) (80 <= 100) (425 >= 50) (150 <= 400)\n"
        )

    def test_deriv_against_library(self, capsys):
        code, out, _ = run(capsys, "run", DERIV, "--lib", DERIVS_LIB)
        assert code == 0
        assert out == "q0: drv(sin, cos)  [h? := cos]  proof: hasDerivAt_sin\n"

    def test_no_queries(self, capsys, tmp_path):
        f = tmp_path / "facts.ldl"
        f.write_text('f: p("a").\n')
        code, out, _ = run(capsys, "run", str(f))
        assert code == 0
        assert out == "no queries.\n"


@pytest.mark.parametrize("t", TRANSCRIPTS, ids=lambda t: " ".join(t["argv"][1:]))
def test_golden_transcript(t, capsys, monkeypatch):
    monkeypatch.chdir(PROGRAMS.parent)
    assert run(capsys, *t["argv"]) == (t["exit"], t["stdout"], t["stderr"])


class TestFailureOutcomes:
    def test_unprovable_query_exits_1(self, capsys, tmp_path):
        f = tmp_path / "q2.ldl"
        f.write_text(Path(REACH).read_text() + '\nq2: path("c", "d")?\n')
        code, out, _ = run(capsys, "run", str(f))
        assert code == 1
        assert 'q2: path("c", "d")  unprovable (depth 6)\n' in out
        # solvable queries still report
        assert 'q0: path("a", "c")  proof: r2 (r1 f1) f2\n' in out

    def test_depth_budget_starves_goal(self, capsys):
        code, out, _ = run(capsys, "run", REACH, "--max-depth", "1")
        assert code == 1
        assert out == (
            'q0: path("a", "c")  unprovable (depth 1)\n'
            'q1: path("b", m?)  unprovable (depth 1)\n'
        )

    def test_derivation_with_a_free_variable_is_dropped(self, capsys, tmp_path):
        """A known gap: `p(1)` is derivable, by `r` over `s2`, but `s2` leaves
        `z` unbound, so the derivation is not ground and the search drops it
        without a word. O5's count of derivations dropped as non-ground would
        report it; until then the query reads as unprovable."""
        f = tmp_path / "free.ldl"
        f.write_text("t(1).\ns2: s(z) :- t(1).\nr: p(1) :- s(y).\nq: p(1)?\n")
        code, out, err = run(capsys, "run", str(f))
        assert (code, out, err) == (1, "q: p(1)  unprovable (depth 6)\n", "")

    def test_floundered_query(self, capsys, tmp_path):
        f = tmp_path / "flounder.ldl"
        f.write_text("big: big(x) :- (x > 2).\nq: big(m?)?\n")
        code, out, _ = run(capsys, "run", str(f))
        assert code == 1
        assert out == "q: big(m?)  floundered (x#1 > 2)\n"

    def test_floundered_name_counts_every_clause_try(self, capsys, tmp_path):
        # r1 and r2 give p(1) and p(2) twice each: a search that dropped the
        # repeats would try fewer clauses and name the variable w#k for another k
        f = tmp_path / "unsafe.ldl"
        f.write_text(
            "f1: e(1).\nf2: e(2).\nr1: p(x) :- e(x).\nr2: p(x) :- e(x).\nr3: p(3) :- e(1).\n"
            "g1: ok(1).\ng2: ok(2).\nt: top(w) :- p(x), chk(x, w).\n"
            "c1: chk(x, w) :- ok(x).\nc2: chk(3, w) :- (w > 0).\nq: top(m?)?\n"
        )
        code, out, _ = run(capsys, "run", str(f), "--all")
        assert code == 1
        assert out == "q: top(m?)  floundered (w#19 > 0)\n"

    def test_type_mismatch_reports_error(self, capsys, tmp_path):
        f = tmp_path / "mix.ldl"
        f.write_text('f: num("a").\nbig: big(x) :- num(x), (x > 2).\nq: big(m?)?\n')
        code, out, _ = run(capsys, "run", str(f))
        assert code == 1
        assert out.startswith("q: big(m?)  error: ")


class TestJsonAndCheck:
    def test_json_documents(self, capsys):
        code, out, _ = run(capsys, "run", REACH, "--json", "--all")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 3
        assert docs[0] == {
            "query": "q0",
            "goal": 'path("a", "c")',
            "bindings": {},
            "render": "r2 (r1 f1) f2",
            "tree": {
                "clause": "r2",
                "conclusion": 'path("a", "c")',
                "children": [
                    {
                        "clause": "r1",
                        "conclusion": 'path("a", "b")',
                        "children": [{"clause": "f1", "conclusion": 'edge("a", "b")', "children": []}],
                    },
                    {"clause": "f2", "conclusion": 'edge("b", "c")', "children": []},
                ],
            },
        }
        assert docs[1]["bindings"] == {"m?": '"c"'}
        assert docs[2]["bindings"] == {"m?": '"d"'}

    def test_json_reports_floundered_and_failing_queries_on_stderr(self, capsys, tmp_path):
        f = tmp_path / "mixed.ldl"
        f.write_text(
            'f: num("a").\ng: num(3).\nr: q(x) :- (x > 1), num(y).\nbig: big(x) :- num(x), (x > 2).\n'
            "q0: q(m?)?\nq1: num(m?)?\nq2: big(m?)?\nq3: num(4)?\n"
        )
        code, out, err = run(capsys, "run", str(f), "--json")
        assert code == 1
        assert [json.loads(line)["query"] for line in out.splitlines()] == ["q1"]
        # the unprovable q3 stays silent
        lines = err.splitlines()
        assert lines[0] == "q0: q(m?)  floundered (x#1 > 1)"
        assert lines[1].startswith("q2: big(m?)  error: ") and len(lines) == 2

    def test_check_verifies_proofs(self, capsys):
        code, out, err = run(capsys, "run", REACH, "--check", "--all")
        assert code == 0
        assert "check: 3 proofs verified.\n" in err
        assert "proof: r2 (r1 f1) f2" in out

    def test_check_with_json(self, capsys):
        code, out, err = run(capsys, "run", RECTS, "--json", "--check")
        assert code == 0
        assert "check: 2 proofs verified.\n" in err
        assert all(json.loads(line) for line in out.splitlines())

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        # every root certificate names a clause the knowledge base lacks
        real = cli.solve

        def forged(kb, q, cfg):
            return [dataclasses.replace(s, proof=dataclasses.replace(s.proof, clause_name="nope")) for s in real(kb, q, cfg)]

        monkeypatch.setattr(cli, "solve", forged)
        code, out, err = run(capsys, "run", REACH, "--check")
        assert code == 3
        assert "check failed: q0: UnknownClause at root: nope\n" in err
        assert "proofs verified" not in err
        # the report is still printed
        assert out == 'q0: path("a", "c")  proof: nope (r1 f1) f2\nq1: path("b", "c")  [m? := "c"]  proof: nope f2\n'

    def test_json_renders_each_proof_once(self, capsys, monkeypatch):
        # the report is not printed under --json, so only serialize_proof renders
        renders = []
        render = proof.render_proof

        def counted(node):
            renders.append(node)
            return render(node)

        code, want, _ = run(capsys, "run", REACH, "--json", "--all")
        monkeypatch.setattr(proof, "render_proof", counted)
        monkeypatch.setattr(cli, "render_proof", counted)
        assert run(capsys, "run", REACH, "--json", "--all") == (code, want, "")
        assert len(renders) == len(want.splitlines()) == 3
        renders.clear()
        code, out, _ = run(capsys, "run", REACH, "--all")
        assert (code, len(renders)) == (0, 3)


class TestOracleMode:
    def test_oracle_answers_without_proofs(self, capsys):
        code, out, _ = run(capsys, "run", REACH, "--oracle")
        assert code == 0
        assert out == (
            'q0: path("a", "c")\n'
            'q1: path("b", "c")  [m? := "c"]\n'
        )

    def test_oracle_all(self, capsys):
        code, out, _ = run(capsys, "run", REACH, "--oracle", "--all")
        assert code == 0
        assert out == (
            'q0: path("a", "c")\n'
            'q1: path("b", "c")  [m? := "c"]\n'
            'q1: path("b", "d")  [m? := "d"]\n'
        )

    def test_oracle_rejects_unrestricted_rules(self, capsys):
        code, _, err = run(capsys, "run", RECTS, "--oracle")
        assert code == 2
        assert "not range-restricted" in err

    def test_oracle_conflicts_with_proof_flags(self, capsys):
        assert run(capsys, "run", REACH, "--oracle", "--json")[0] == 2
        assert run(capsys, "run", REACH, "--oracle", "--check")[0] == 2

    def test_oracle_unprovable(self, capsys, tmp_path):
        f = tmp_path / "q2.ldl"
        f.write_text(Path(REACH).read_text() + '\nq2: path("c", "d")?\n')
        code, out, _ = run(capsys, "run", str(f), "--oracle")
        assert code == 1
        assert 'q2: path("c", "d")  unprovable (oracle)\n' in out

    def test_one_fixpoint_answers_every_query(self, capsys, monkeypatch):
        # every query asks for the fixpoint; only the first one computes it
        real = oracle._saturate
        calls = []

        def counting(kb):
            calls.append(kb)
            return real(kb)

        monkeypatch.setattr(oracle, "_saturate", counting)
        code, out, _ = run(capsys, "run", REACH, "--oracle", "--all")
        assert code == 0
        assert out.count("\n") == 3  # q0 once, q1 twice
        assert len(calls) == 1

    def test_oracle_mixed_type_comparison_exits_2(self, capsys, tmp_path):
        # the fixpoint has no per-query outcome, so a comparison's type error is an input error
        f = tmp_path / "mix.ldl"
        f.write_text('f: p(1).\nr: s(x) :- p(x), (x > "a").\nq: s(m?)?\n')
        code, out, err = run(capsys, "run", str(f), "--oracle")
        assert (code, out) == (2, "")
        assert err == 'ldlog: comparison on mixed or structured operands: 1 > "a"\n'
        code, out, err = run(capsys, "run", str(f))
        assert (code, err) == (1, "")
        assert out == 'q: s(m?)  error: comparison on mixed or structured operands: 1 > "a"\n'

    def test_no_queries_skips_the_fixpoint(self, capsys, tmp_path):
        # r is not range-restricted, so saturating would exit 2
        f = tmp_path / "unsafe.ldl"
        f.write_text('f: q("a").\nr: p(x, y) :- q(x).\n')
        code, out, err = run(capsys, "run", str(f), "--oracle")
        assert code == 0
        assert out == "no queries.\n"
        assert err == ""


class TestProgramErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "run", "/nonexistent/prog.ldl")
        assert code == 2
        assert err.startswith("ldlog: ")

    def test_parse_error_with_position(self, capsys, tmp_path):
        f = tmp_path / "bad.ldl"
        f.write_text("p(\n")
        code, _, err = run(capsys, "run", str(f))
        assert code == 2
        assert err.startswith(f"{f}:")
        assert "expected" in err

    def test_elaboration_error_names_file(self, capsys, tmp_path):
        f = tmp_path / "unbound.ldl"
        f.write_text("q0: p(m?, zz)?\n")
        code, _, err = run(capsys, "run", str(f))
        assert code == 2
        assert err.startswith(f"{f}: ")
        assert "zz" in err

    def test_unknown_use_name(self, capsys, tmp_path):
        f = tmp_path / "uses.ldl"
        f.write_text("use nothere.\n")
        code, _, err = run(capsys, "run", str(f))
        assert code == 2
        assert "nothere" in err

    def test_parse_error_in_library(self, capsys, tmp_path):
        lib = tmp_path / "lib.ldl"
        lib.write_text("p(\n")
        code, _, err = run(capsys, "run", REACH, "--lib", str(lib))
        assert code == 2
        assert err.startswith(f"{lib}:")

    def test_query_in_library_rejected(self, capsys, tmp_path):
        lib = tmp_path / "lib.ldl"
        lib.write_text('q0: p("a")?\n')
        code, _, err = run(capsys, "run", REACH, "--lib", str(lib))
        assert code == 2
        assert "library" in err

    def test_invalid_depth(self, capsys):
        code, _, err = run(capsys, "run", REACH, "--max-depth", "0")
        assert code == 2
        assert "max_depth" in err

    def test_long_integer_literal(self, capsys, tmp_path):
        f = tmp_path / "long.ldl"
        f.write_text("f: p(" + "1" * 4301 + ").\n")
        code, _, err = run(capsys, "run", str(f))
        assert code == 2
        assert err.startswith(f"{f}:1:6: integer literal out of range: 111")
        assert err.count("\n") == 1

    def test_non_utf8_program(self, capsys, tmp_path):
        f = tmp_path / "latin1.ldl"
        f.write_bytes(b'f: p("caf\xe9").\n')
        code, _, err = run(capsys, "run", str(f))
        assert code == 2
        assert err.startswith(f"ldlog: {f}: ")
        assert err.count("\n") == 1

    def test_non_utf8_library(self, capsys, tmp_path):
        lib = tmp_path / "lib.ldl"
        lib.write_bytes(b"\xff")
        code, _, err = run(capsys, "run", REACH, "--lib", str(lib))
        assert code == 2
        assert err.startswith(f"ldlog: {lib}: ")
        assert err.count("\n") == 1


class TestInternalErrors:
    def test_deep_chain_proves_without_internal_error(self, tmp_path):
        # a proof of height 501: the depth budget, not Python's recursion limit, bounds the search
        f = tmp_path / "chain.ldl"
        lines = ["b0: p0()."] + [f"h{i}: p{i}() :- p{i - 1}()." for i in range(1, 501)] + ["q: p500()?"]
        f.write_text("\n".join(lines) + "\n")

        def ldlog(*flags):
            return subprocess.run([sys.executable, "-m", "ldlog", "run", str(f), *flags], capture_output=True, text=True)

        proc = ldlog("--max-depth", "600")
        assert (proc.returncode, proc.stderr) == (0, "")
        proof = "b0"
        for i in range(1, 501):
            proof = f"h{i} {proof}" if i == 1 else f"h{i} ({proof})"
        assert proc.stdout == f"q: p500()  proof: {proof}\n"
        assert proc.stdout.startswith("q: p500()  proof: h500 (h499 (h498 (")
        proc = ldlog("--max-depth", "500")
        assert (proc.returncode, proc.stdout) == (1, "q: p500()  unprovable (depth 500)\n")
        proc = ldlog("--oracle")
        assert proc.returncode == 0
        assert proc.stdout == "q: p500()\n"

    def test_oracle_joins_a_3000_premise_rule(self, capsys, tmp_path):
        # the fixpoint's join walks a rule body with an explicit stack, so a
        # long body does not reach Python's recursion limit
        n = 3000
        body = ", ".join(["s(x0)"] + [f"e(x{i}, x{i + 1})" for i in range(n)])
        facts = ["s(0).", "s(1)."] + [f"e({k}, {k + 1})." for k in range(n + 1)]
        f = tmp_path / "wide.ldl"
        f.write_text("\n".join(facts + [f"r: p(x0, x{n}) :- {body}.", "q: p(a?, b?)?"]) + "\n")
        code, out, err = run(capsys, "run", str(f), "--all", "--oracle")
        assert (code, err) == (0, "")
        assert out == f"q: p(0, {n})  [a? := 0, b? := {n}]\nq: p(1, {n + 1})  [a? := 1, b? := {n + 1}]\n"
        code, solved, _ = run(capsys, "run", str(f), "--all", "--max-depth", "2")
        assert code == 0
        assert [line.split("  proof: ")[0] for line in solved.splitlines()] == out.splitlines()

    def test_height_3000_chain_proves_and_checks(self, tmp_path):
        # rendering and checking walk explicit stacks, so only --max-depth bounds the height
        f = tmp_path / "chain.ldl"
        lines = ["b0: p0()."] + [f"h{i}: p{i}() :- p{i - 1}()." for i in range(1, 3000)] + ["q: p2999()?"]
        f.write_text("\n".join(lines) + "\n")
        proof = "b0"
        for i in range(1, 3000):
            proof = f"h{i} {proof}" if i == 1 else f"h{i} ({proof})"

        def ldlog(*flags):
            argv = [sys.executable, "-m", "ldlog", "run", str(f), "--max-depth", "3000", *flags]
            return subprocess.run(argv, capture_output=True, text=True)

        proc = ldlog()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"q: p2999()  proof: {proof}\n"
        proc = ldlog("--check")
        assert (proc.returncode, proc.stderr) == (0, "check: 1 proofs verified.\n")
        assert proc.stdout == f"q: p2999()  proof: {proof}\n"
        # the JSON tree is written by an explicit stack too; json.loads would
        # itself exceed the recursion limit here, so check the text
        proc = ldlog("--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = proc.stdout
        assert doc.startswith(f'{{"query": "q", "goal": "p2999()", "bindings": {{}}, "render": {json.dumps(proof)}, "tree": ')
        assert doc.count('"clause": ') == 3000
        assert '"tree": {"clause": "h2999", "conclusion": "p2999()", "children": [{"clause": "h2998", ' in doc
        assert doc.endswith('{"clause": "b0", "conclusion": "p0()", "children": [' + "]}" * 3000 + "}\n")

    def test_chained_defs_past_the_recursion_limit_answer(self, capsys, tmp_path):
        # a constant 1,500 deep is hashed as an answer and a fact, bottom-up on a stack
        f = tmp_path / "defs.ldl"
        defs = ["def d0 := F(0)."] + [f"def d{i} := F(d{i - 1})." for i in range(1, 1500)]
        f.write_text("\n".join(defs + ["f: q(d1499, 1).", "r: p(x, y) :- q(x, y).", "a: p(m?, n?)?"]) + "\n")
        deep = "F(" * 1500 + "0" + ")" * 1500
        line = f"a: p({deep}, 1)  [m? := {deep}, n? := 1]"
        assert run(capsys, "run", str(f)) == (0, f"{line}  proof: r f\n", "")
        assert run(capsys, "run", str(f), "--check") == (0, f"{line}  proof: r f\n", "check: 1 proofs verified.\n")
        assert run(capsys, "run", str(f), "--oracle") == (0, f"{line}\n", "")
        code, out, err = run(capsys, "run", str(f), "--json")
        assert (code, err) == (0, "")
        assert out.startswith(f'{{"query": "a", "goal": "p(m?, n?)", "bindings": {{"m?": "{deep}", "n?": "1"}}, "render": "r f", ')

    def test_unexpected_exception_exits_4_in_one_line(self, capsys, monkeypatch):
        def broken(kb, q, cfg):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(capsys, "run", REACH)
        assert (code, out) == (4, "")
        assert err == "ldlog: internal error: RuntimeError: injected failure\n"
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that stops early (`ldlog run ... | head`) is no internal error."""

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    def test_closed_stdout_exits_1_without_a_message(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe())
        code = main(["run", REACH, "--json", "--all"])
        monkeypatch.undo()
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_stdout_descriptor_points_at_devnull_afterwards(self, capsys, monkeypatch):
        # a real pipe whose reader has gone: the next flush must not raise again
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w", encoding="utf-8")
        try:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["run", REACH])
            monkeypatch.undo()
            assert code == 1
            assert capsys.readouterr().err == ""
            stdout.write("after the reader left\n")
            stdout.flush()
        finally:
            stdout.close()


class TestPerQueryOutput:
    @staticmethod
    def printed_before_each_query(capsys, monkeypatch):
        """The stdout written since the previous query, taken as each query starts."""
        real = cli.solve
        printed = []

        def watched(kb, q, cfg):
            printed.append(capsys.readouterr().out)
            return real(kb, q, cfg)

        monkeypatch.setattr(cli, "solve", watched)
        return printed

    def test_query_lines_printed_before_the_next_query_runs(self, capsys, monkeypatch):
        printed = self.printed_before_each_query(capsys, monkeypatch)
        code, out, _ = run(capsys, "run", REACH)
        assert code == 0
        assert printed == ["", 'q0: path("a", "c")  proof: r2 (r1 f1) f2\n']
        assert out == 'q1: path("b", "c")  [m? := "c"]  proof: r1 f2\n'

    def test_internal_error_keeps_answered_queries(self, capsys, monkeypatch):
        real = cli.solve

        def second_breaks(kb, q, cfg):
            if q.name == "q1":
                raise RuntimeError("injected failure")
            return real(kb, q, cfg)

        monkeypatch.setattr(cli, "solve", second_breaks)
        code, out, err = run(capsys, "run", REACH)
        assert (code, out) == (4, 'q0: path("a", "c")  proof: r2 (r1 f1) f2\n')
        assert err == "ldlog: internal error: RuntimeError: injected failure\n"

    def test_json_documents_printed_per_query(self, capsys, monkeypatch):
        printed = self.printed_before_each_query(capsys, monkeypatch)
        code, out, _ = run(capsys, "run", REACH, "--json", "--all")
        assert code == 0
        assert [len(chunk.splitlines()) for chunk in printed + [out]] == [0, 1, 2]
        assert json.loads(printed[1])["query"] == "q0"
        assert {json.loads(line)["query"] for line in out.splitlines()} == {"q1"}


class TestLibraries:
    def test_multiple_lib_flags_merge(self, capsys, tmp_path):
        lib1 = tmp_path / "one.ldl"
        lib1.write_text("hasDerivAt_sin: drv(sin, cos).\n")
        lib2 = tmp_path / "two.ldl"
        lib2.write_text("hasDerivAt_cos: drv(cos, neg_sin).\n")
        code, out, _ = run(capsys, "run", DERIV, "--lib", str(lib1), "--lib", str(lib2))
        assert code == 0
        assert out == "q0: drv(sin, cos)  [h? := cos]  proof: hasDerivAt_sin\n"


class TestReportFormat:
    def test_solved_line_with_bindings_and_proof(self):
        e = ReportEntry("q1", 'path("b", m?)', "solved", [('path("b", "d")', 'm? := "d"', "r1 f3")])
        assert format_report([e]) == 'q1: path("b", "d")  [m? := "d"]  proof: r1 f3\n'

    def test_solved_line_without_bindings(self):
        e = ReportEntry("q0", 'path("a", "c")', "solved", [('path("a", "c")', "", "r2 (r1 f1) f2")])
        assert format_report([e]) == 'q0: path("a", "c")  proof: r2 (r1 f1) f2\n'

    def test_unprovable_line(self):
        e = ReportEntry("q2", 'path("c", "d")', "unprovable", depth_note="depth 6")
        assert format_report([e]) == 'q2: path("c", "d")  unprovable (depth 6)\n'

    def test_oracle_line_has_no_proof_segment(self):
        e = ReportEntry("q1", 'path("b", m?)', "solved", [('path("b", "c")', 'm? := "c"', None)])
        assert format_report([e]) == 'q1: path("b", "c")  [m? := "c"]\n'

    def test_empty_report(self):
        assert format_report([]) == "no queries.\n"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ldlog", "run", REACH],
            capture_output=True,
            text=True,
            cwd=str(PROGRAMS.parent),
        )
        assert proc.returncode == 0
        assert "r2 (r1 f1) f2" in proc.stdout
