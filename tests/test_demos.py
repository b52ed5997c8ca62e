"""Every name a demo imports from the package exists.

The demos are parsed, not run (together they take about 15 s), so
removing an export a demo uses fails here instead of in the demo.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


def package_imports(path):
    """``(module, name)`` for each import of the package in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "milne_lab":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "milne_lab":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    for module, name in package_imports(path):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{module}.{name}"
