"""The package imports only the standard library and itself, so
`dependencies = []` in pyproject.toml stays true: no gmpy2, no numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynw"


def _outside_imports(path: Path) -> list[str]:
    """The top-level packages path imports that are neither the standard
    library nor dynw, and any import made by name at run time."""
    allowed = set(sys.stdlib_module_names) | {"dynw"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("__import__", "import_module"):
                found.append(f"{name} at line {node.lineno}")
    return [name for name in found if name.split(".")[0] not in allowed]


def test_src_imports_only_the_standard_library_and_dynw():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {path.name: _outside_imports(path) for path in modules} == {
        path.name: [] for path in modules
    }
