"""The work ceiling belongs to the request: a ``ceiling`` block sets it,
and no library function takes one as a parameter."""
import ast
from pathlib import Path

import pytest

import fleckforge
from fleckforge import exceptions
from fleckforge.exceptions import CeilingExceeded, ceiling, charge


def _parameters(node):
    args = node.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg) if arg]


def test_no_library_function_takes_a_ceiling():
    takers = []
    for path in sorted(Path(fleckforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        names = {id(node): getattr(node, "name", "<lambda>") for node in functions}
        names.update((id(node), f"{cls.name}.{node.name}") for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef)
                     for node in cls.body if id(node) in names)
        takers += [f"{path.stem}.{names[id(node)]}" for node in functions
                   if "ceiling" in _parameters(node)]
    assert takers == ["exceptions.CeilingExceeded.__init__"]


def test_a_block_sets_the_ceiling_and_restores_the_outer_one():
    charge(exceptions.DEFAULT_CEILING)
    with ceiling(10):
        charge(10)
        with ceiling(None):
            charge(exceptions.DEFAULT_CEILING)
        with pytest.raises(CeilingExceeded) as err, ceiling(3):
            charge(4)
        assert (err.value.required, err.value.ceiling) == (4, 3)
        charge(10)
        with pytest.raises(CeilingExceeded):
            charge(11)
    with pytest.raises(CeilingExceeded):
        charge(exceptions.DEFAULT_CEILING + 1)
