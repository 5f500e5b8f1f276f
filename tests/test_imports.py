"""Import hygiene: every imported name is used (an AST walk of each module
under src/uspc, scripts and tests; a name listed in `__all__` counts as
used), the package imports exactly its declared runtime dependencies, and
importing the CLI loads no scipy."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/uspc").glob("*.py"))
MODULES = sorted(p for d in ("src/uspc", "scripts", "tests")
                 for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.x\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports outside the standard library
    and the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"uspc"}


def test_finds_third_party_imports():
    source = "import os.path\nimport numpy as np\nfrom scipy import fft\nfrom . import x\n"
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_package_imports_exactly_its_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in declared}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in PACKAGE))
    assert imported == declared


def test_cli_import_loads_every_module_and_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the reference tests
    code = ("import json, sys, uspc.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('uspc', 'scipy'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "scipy" not in loaded
    assert loaded == sorted(["uspc"] + [f"uspc.{p.stem}" for p in PACKAGE
                                        if p.stem != "__init__"])
