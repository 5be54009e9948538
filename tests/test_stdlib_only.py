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


def test_importing_the_package_loads_no_code_generation_modules():
    """dataclasses pulls in inspect, ast and dis, none of which the package
    needs; a fresh interpreter that imports every module loads none of them."""
    import os
    import subprocess

    names = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__main__")
    assert "cli" in names and "_record" in names
    code = (
        "import importlib, sys\n"
        "import dynw.cli\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('dynw' if name == '__init__' else 'dynw.' + name)\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
