"""Every name a module lists in __all__ must resolve.

A stale entry only breaks `from module import *`, which nothing else in
the suite runs.
"""

import pkgutil

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
