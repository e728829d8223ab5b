"""Every name a module lists in __all__ must resolve, and every cap the README names.

A stale entry only breaks `from module import *`, which nothing else in
the suite runs; a stale cap name only misleads a reader of the README.
Every line of the package's source also fits in 100 characters.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sierpinski

MODULES = ["sierpinski"] + [
    f"sierpinski.{info.name}"
    for info in pkgutil.iter_modules(sierpinski.__path__)
    if info.name != "__main__"  # running it exits the interpreter
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(__import__(module, fromlist=["*"]), "__all__", [])
    assert len(exported) == len(set(exported))
    assert set(exported) <= set(namespace)


def test_every_cap_the_readme_names_is_a_constant():
    # a deleted cap must not linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = set(re.findall(r"`(MAX_[A-Z0-9_]+|[A-Z0-9_]+_(?:CAP|LIMIT))`", readme))
    assert "MAX_BUILD_ORDER" in names
    modules = [importlib.import_module(module) for module in MODULES]
    missing = {n for n in names if not any(isinstance(getattr(m, n, None), int) for m in modules)}
    assert missing == set()


def test_source_lines_fit_in_100_characters():
    source = Path(sierpinski.__file__).parent
    long = [f"{path.name}:{i}" for path in sorted(source.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []
