"""The package's public surface: the README library example and ldlog.__all__."""

import ast
import importlib
import re
from pathlib import Path

import ldlog
from support import kernel_closure

README = Path(__file__).resolve().parent.parent / "README.md"
BENCH_RUN = README.parent / "bench" / "run.py"


def library_example() -> str:
    """The fenced python block under the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["queries"]


def test_readme_example_imports_only_exported_names():
    tree = ast.parse(library_example())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "ldlog" for a in node.names}
    assert imported
    assert imported <= set(ldlog.__all__)


def test_every_exported_name_resolves():
    assert len(ldlog.__all__) == len(set(ldlog.__all__))
    for name in ldlog.__all__:
        assert getattr(ldlog, name) is not None, name


def test_no_module_imports_a_name_it_does_not_use():
    """Each name a module under src/ldlog imports is used there or listed in its __all__.

    `# noqa: F401` exempts only the names that the traced benchmark run
    (bench/run.py) patches in a module that does not call them.
    """
    exempt = {("solver.py", "unify_atoms"), ("oracle.py", "unify_atoms")}
    unused = []
    for path in sorted(Path(ldlog.__file__).resolve().parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if noqa and (path.name, name) not in exempt:
                    unused.append(f"{path.name}:{node.lineno}: {name} is not exempt from F401")
                elif not noqa and name not in used and name not in exported:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_runtime_imports_from_the_reference_matcher_are_pinned():
    """The names each runtime module imports from `ldlog.unify`, the reference matcher.

    `unify_atoms` is imported (`# noqa: F401`) only for the traced benchmark
    run to patch; no runtime code calls the reference matcher, which tests
    compare the slot matcher and `proof_bindings` against. A new runtime
    dependency on `ldlog.unify` fails here.
    """
    allowed = {"oracle.py": {"unify_atoms"}, "solver.py": {"unify_atoms"}}
    imported = {}
    for path in sorted(Path(ldlog.__file__).resolve().parent.glob("*.py")):
        if path.name == "unify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("unify", 1), ("ldlog.unify", 0)):
                imported.setdefault(path.name, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import) and any(a.name == "ldlog.unify" for a in node.names):
                imported.setdefault(path.name, set()).add("ldlog.unify")
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "ldlog") and any(a.name == "unify" for a in node.names):
                imported.setdefault(path.name, set()).add("unify")
    assert imported == allowed


def test_the_kernel_imports_only_errors():
    """The checker's import closure, followed through the package imports of
    `kernel.py`, is that module and `errors.py`: a small trusted base that can
    be counted. Reaching the term utilities and printers (`terms.py`), the
    search, the front end or the certificate output (`proof.py`) fails here."""
    closure = {path.stem for path in kernel_closure()}
    forbidden = {"terms", "solver", "index", "oracle", "unify", "cli", "parser", "elaborator", "proof"}
    assert not closure & forbidden, f"the kernel reaches {sorted(closure & forbidden)}"
    assert closure == {"kernel", "errors"}


def test_readme_gives_the_kernel_closure_line_count():
    """The "Library use" section's sentence on the closure names its files and
    counts their lines: the stems of `kernel_closure()` and the sum over them,
    so an edit to the trusted base updates the README too."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"import\s+closure\s+is\s+(.*?),\s+([\d,]+)\s+lines", section, re.DOTALL)
    assert match, "no closure line count under 'Library use'"
    assert set(re.findall(r"`(\w+)\.py`", match.group(1))) == {path.stem for path in kernel_closure()}
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in kernel_closure())
    assert int(match.group(2).replace(",", "")) == lines


def test_the_output_module_reaches_only_the_kernel():
    """`proof.py` prints certificates; it needs the kernel's types, not the search."""
    assert {path.stem for path in kernel_closure("proof")} == {"proof", "kernel", "terms", "errors"}


def test_every_engine_name_the_benchmark_reads_resolves():
    """bench/run.py reads engine names at call time, so a moved name breaks it
    without failing any other test here: each `from ldlog.X import Y`, and each
    `mod.attr` read on a module bound by `from ldlog import ...`, must resolve."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    modules, names = {}, []  # local name -> ldlog module; (module, attribute) pairs
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ldlog":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ldlog."):
            names.extend((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((f"ldlog.{modules[node.value.id]}", node.attr))
    assert {"ldlog.proof", "ldlog.solver", "ldlog.terms"} <= {module for module, _ in names}
    missing = sorted({(m, a) for m, a in names if not hasattr(importlib.import_module(m), a)})
    assert missing == []


def test_private_names_cross_only_the_slot_template_seam():
    """No module under src/ldlog imports an underscore name from another, or
    reads one off an imported module, except the slot templates and matcher
    that `oracle.py` joins rule bodies with. That seam may shrink, not grow."""
    seam = {("oracle.py", "solver", name) for name in ("_Call", "_call_keys", "_Template", "_Test", "_unify", "_value")}
    crossing = set()
    for path in sorted(Path(ldlog.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the ldlog module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("ldlog")):
                module = (node.module or "").removeprefix("ldlog").lstrip(".")
                for a in node.names:
                    if a.name.startswith("_"):
                        crossing.add((path.name, module, a.name))
                    elif not module:  # from . import parser as ast
                        modules[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                if node.attr.startswith("_") and not node.attr.startswith("__"):
                    crossing.add((path.name, modules[node.value.id], node.attr))
    assert crossing <= seam
    assert ("oracle.py", "solver", "_unify") in crossing  # the walk sees the seam it pins
