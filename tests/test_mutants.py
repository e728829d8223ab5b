"""The mutation table in tests/mutants.py still fits the tree it mutates."""

import ast
import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("mutants", HERE / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _defined(node_id: str) -> bool:
    """Whether path::[Class::]function names a def in that test file."""
    path, *names = node_id.split("::")
    body = ast.parse((mutants.ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_names_are_distinct():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_row_applies_once_and_names_existing_tests(mutant):
    source = (mutants.ROOT / "src" / "sierpinski" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    compile(source.replace(mutant.old, mutant.new), mutant.file, "exec")  # no syntax error kills it
    assert mutant.tests
    for node_id in mutant.tests:
        assert "[" not in node_id and _defined(node_id), node_id  # whole functions only
