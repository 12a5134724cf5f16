"""Command-line behavior: report format, flags, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

from ldlog import cli, oracle
from ldlog.cli import ReportEntry, format_report, main

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
REACH = str(PROGRAMS / "reach.ldl")
RECTS = str(PROGRAMS / "rects.ldl")
DERIV = str(PROGRAMS / "deriv.ldl")
DERIVS_LIB = str(PROGRAMS / "lib" / "derivs.ldl")


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

    def test_floundered_query(self, capsys, tmp_path):
        f = tmp_path / "flounder.ldl"
        f.write_text("big: big(x) :- (x > 2).\nq: big(m?)?\n")
        code, out, _ = run(capsys, "run", str(f))
        assert code == 1
        assert out == "q: big(m?)  floundered (x#1 > 2)\n"

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
        real = oracle.saturate
        calls = []

        def counting(kb):
            calls.append(kb)
            return real(kb)

        monkeypatch.setattr(cli, "saturate", counting)
        monkeypatch.setattr(oracle, "saturate", counting)
        code, out, _ = run(capsys, "run", REACH, "--oracle", "--all")
        assert code == 0
        assert out.count("\n") == 3  # q0 once, q1 twice
        assert len(calls) == 1

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

    def test_unexpected_exception_exits_4_in_one_line(self, capsys, monkeypatch):
        def broken(kb, q, cfg):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(capsys, "run", REACH)
        assert (code, out) == (4, "")
        assert err == "ldlog: internal error: RuntimeError: injected failure\n"
        assert "Traceback" not in err


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
