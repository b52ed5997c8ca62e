"""No function in ``src`` assigns a local name that it never reads.

A local that is written and never read is dead code: a value computed for
nothing, or one half of a change that was left behind.  The scan reads
the source with ``ast``; nothing is run.  A name counts as read when the
function, or a function nested in it, loads it.  Names that start with
``_`` are exempt (the spelling of a deliberately unused value, such as
an ignored element of a tuple), and so are comprehension targets, which
are local to their comprehension; names a function declares ``global``
or ``nonlocal`` are not its locals.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "milne_lab").glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def stored_names(fn):
    """Names that the body of ``fn`` itself binds, outside nested scopes
    and comprehensions."""
    names, outer = set(), set()
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES + _COMPREHENSIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names - outer


def read_names(fn):
    """Names loaded anywhere in ``fn``, nested scopes included; an
    augmented assignment reads its target."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return names


def unread_locals(tree, label):
    """``label.function: name`` for each local of a function of ``tree``
    that it assigns and never reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unread = stored_names(node) - read_names(node)
            out += [f"{label}.{node.name}: {name}" for name in sorted(unread)
                    if not name.startswith("_")]
    return out


def test_the_scan_finds_an_unread_local():
    tree = ast.parse(
        "def f(x):\n"
        "    a, b = x\n"
        "    c = [d for d in a]\n"
        "    e = 1\n"
        "    e += 1\n"
        "    _, g = x\n"
        "    def h():\n"
        "        nonlocal g\n"
        "        g = c\n"
        "    return h, g\n")
    assert unread_locals(tree, "m") == ["m.f: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_assigns_a_local_it_never_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = unread_locals(tree, path.stem)
    assert not unread, f"locals assigned and never read: {unread}"
