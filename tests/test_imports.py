"""Every name a package module imports is used there, and every name the
package exports exists.

A name counts as used when the module reads it anywhere (as a bare name or
as the base of an attribute) or lists it in ``__all__``.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "twostage")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_every_import(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{os.path.basename(path)} never uses {', '.join(unused)}"


def test_every_export_resolves():
    # a stale __all__ entry (a deleted or renamed name) would make
    # `from twostage import *` fail
    import twostage

    missing = [name for name in twostage.__all__ if not hasattr(twostage, name)]
    assert not missing, f"twostage.__all__ names missing attributes: {', '.join(missing)}"
    assert len(set(twostage.__all__)) == len(twostage.__all__)
