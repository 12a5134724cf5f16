"""List the lines of src/ldlog that the tier-1 suite never runs.

Runs the tests under tests/ once, in this process, under `sys.settrace`
(standard library only), and prints a Markdown list of each module's
lines that no test ran, as `path:line` followed by the line's text.
Lines run only in subprocesses (the CLI tests that start `ldlog`) count
as not run, and so do lines a test runs after it reaches the recursion
limit: Python switches a trace function off when it raises, and tracing
starts again with the next test. pytest's own output goes to standard
error, so

    python tests/uncovered_lines.py >> "$GITHUB_STEP_SUMMARY"

puts only the list on a CI run's summary page. The report is
informational: the exit code is 0 whatever the tests do, and nothing is
written into the checkout (no .pytest_cache, no bytecode).

Not a test module: pytest collects test_*.py only.
"""

import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldlog"


def runnable_lines(path: Path) -> set:
    """The line numbers that start some instruction of the module's code.

    A function's first line is left out: the `def` runs in the enclosing
    code, and a function never called shows as its body's lines.
    """
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        first = None if code.co_name == "<module>" else code.co_firstlineno
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # nor in the subprocesses
    # the tests that start `python -m ldlog` find the package as the CI steps do
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    prefix = str(PACKAGE) + "/"
    ran: dict = {}  # file name -> the line numbers run there
    tracers: dict = {}  # file name -> the local trace function that records into ran[name]; None outside src/ldlog

    def tracer(seen: set):
        def local(frame, event, arg):
            seen.add(frame.f_lineno)  # a "call", "return" or "exception" event is on a line that runs
            return local

        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        local = tracers.get(name, False)
        if local is False:
            local = tracers[name] = tracer(ran.setdefault(name, set())) if name.startswith(prefix) else None
        return local and local(frame, event, arg)

    import pytest

    class Retrace:
        """Starts tracing again before each test: a trace function that raises,
        as one does at the recursion limit, is switched off for good."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(trace)

    with contextlib.redirect_stdout(sys.stderr):
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Retrace()])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(runnable_lines(path) - ran.get(str(path), set()))
        report += [f"- `{path.relative_to(ROOT)}:{n}` `{text[n - 1].strip()}`" for n in missed]
    print(f"### src/ldlog lines no tier-1 test runs: {len(report)}\n")
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
