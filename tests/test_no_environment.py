"""No module of the package reads the process environment, so every setting
comes from a function argument or the command line and no environment
variable can become a setting unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynw"
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    """Each `<x>.environ`-style attribute and each `from os import environ`-style
    name in path, with its line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{a.name} at line {node.lineno}" for a in node.names if a.name in READERS]
    return found


def test_no_module_reads_the_environment():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {path.name: _environment_reads(path) for path in modules} == {
        path.name: [] for path in modules
    }
