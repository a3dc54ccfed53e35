"""Every top-level definition in the library is used by the library.

Code that only tests reach belongs in the tests (see ``oracles.py``)."""
import ast
from pathlib import Path

import fleckforge

MODULES = sorted(Path(fleckforge.__file__).parent.glob("*.py"))


def _defined_and_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return defined, used


def test_every_top_level_definition_is_referenced():
    assert MODULES
    defined, used = [], set()
    for path in MODULES:
        names, refs = _defined_and_used(path)
        defined += [f"{path.stem}.{name}" for name in sorted(names)]
        used |= refs
    assert [name for name in defined if name.split(".")[1] not in used] == []
