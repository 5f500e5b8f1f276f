"""Every top-level function and class in src/uspc is named somewhere else in
src/uspc: as a name, an attribute or an import.  A definition that only the
tests or scripts use belongs with them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level function or class of `sources`
    (module name -> source) that none of them names."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [name for name in defined if name.rpartition(".")[2] not in named]


def test_finds_an_unnamed_definition():
    sources = {"a": "def used():\n    pass\n\ndef unused():\n    used()\n\nclass Kept:\n    pass\n",
               "b": "from .a import Kept\n\nclass Lone:\n    def unused(self):\n        pass\n"}
    assert unnamed_definitions(sources) == ["a.unused", "b.Lone"]


def test_every_top_level_definition_in_src_is_named_in_src():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src/uspc").glob("*.py"))}
    assert unnamed_definitions(sources) == []
