"""The package's public surface: the README library example and ldlog.__all__."""

import ast
import re
from pathlib import Path

import ldlog

README = Path(__file__).resolve().parent.parent / "README.md"


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
