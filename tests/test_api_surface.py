"""The public surface of the package holds nothing that nobody uses.

* Every defaulted parameter of a public function or method in
  ``src/milne_lab`` is set by some call in code that runs: a module of
  ``src``, ``demos``, ``bench`` or ``perfbench``.  A parameter that no
  such caller sets always takes its default when the lab runs, so it is a
  constant, not an option, and belongs in the body; an option only tests
  set is an input form only tests reach.  The only exceptions are the
  test seams in :data:`TEST_SEAMS`, each set by the test it serves and by
  no code that runs.
* Every name in an ``__all__`` resolves, so a deletion cannot leave a
  stale export behind.
* Every name that ``__init__.py`` re-exports from a module of the
  package is in that module's ``__all__``.
* Every name in an ``__all__`` is loaded by code that runs: some module
  of ``src``, ``demos``, ``bench`` or ``perfbench`` reads it as a name or
  an attribute.  An ``__all__`` entry or a re-export in ``__init__.py``
  is not a load, and neither is a name's use of itself: a load inside
  its own ``def`` or ``class`` (a recursive call), or the object of an
  attribute store (``f.attr = ...``).  A reference implementation that
  only tests compare against lives in ``tests/references.py``.
* Every public method of a public class in ``src/milne_lab`` is loaded
  by code that runs, in the same sense.
* Every field of a public dataclass in ``src/milne_lab`` is read by code
  that runs: its name appears in a module of ``src``, ``demos``,
  ``bench`` or ``perfbench`` as an attribute load or as a string
  constant (a ``getattr`` or key name).  The only exceptions are the
  diagnostics in :data:`TEST_FIELDS`, each read by the test that
  compares it.

The scans read the source with ``ast``; nothing is run.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "milne_lab"
# what runs; the benchmark too, so that no change can delete a name it
# calls
USE_DIRS = ("src", "demos", "bench", "perfbench")
# dataclass fields that only tests read, each with the test that compares
# it: the closure's eta against the grid-sampled one, the borderline rate
# loss (the decay-budget condition takes the configured deltaAlpha
# instead, and the modes rate table checks this loss; README.md says why),
# and the metric's time derivative, an input of the dense reference flow
# of tests/references.py
TEST_FIELDS = {
    "geometry.LocalGeometry.dTg":
        "tests/test_transport.py::TestProviders::"
        "test_manufactured_metric_time_derivative",
    "homogeneous.HomogeneousRun.eta_under_closure":
        "tests/test_homogeneous.py::TestMatterRun::"
        "test_grid_sampled_moments_track_closure",
    "geometry.CorrectionConstants.delta_alpha":
        "tests/test_geometry.py::TestCorrectionConstants::test_borderline",
}
# defaulted parameters that only tests set, each with a test that sets it:
# the failure seam of the homogeneous run
TEST_SEAMS = {
    "homogeneous.evolve_homogeneous(lapse_tol)":
        "tests/test_homogeneous.py::TestRunBitwise::"
        "test_run_aborted_at_T0_has_empty_series",
}
MODULES = sorted(PACKAGE.glob("*.py"))


def public_functions(tree):
    """``(function node, is_method)`` for the public functions of a module
    and the public methods of its public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item, True


def defaulted_parameters():
    """``(label, function name, parameter, position, is_method)`` for every
    defaulted parameter; ``position`` is ``None`` for keyword-only ones."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, is_method in public_functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional)
                      if i >= first]
            params += [(a.arg, None) for a, d in
                       zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            for name, position in params:
                out.append((f"{path.stem}.{fn.name}({name})", fn.name, name,
                            position, is_method))
    return out


def calls_by_name(trees):
    """Every call in the syntax trees ``trees``, keyed by the called name
    (``f(...)`` and ``obj.f(...)`` both count as calls of ``f``)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


def code_that_runs():
    """The syntax trees of the modules of ``USE_DIRS``."""
    return [ast.parse(path.read_text(), filename=str(path))
            for folder in USE_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))]


def sets(call, name, position, is_method):
    """Whether ``call`` passes a value for the parameter; a call with
    ``*args`` or ``**kwargs`` may pass any of them."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    # a method call obj.f(a, ...) binds a to the parameter after self
    return position is not None and len(call.args) + is_method > position


def unset_parameters(trees):
    """Labels of the defaulted parameters that no call in ``trees`` sets."""
    calls = calls_by_name(trees)
    return [label for label, fn, name, position, is_method
            in defaulted_parameters()
            if not any(sets(call, name, position, is_method)
                       for call in calls.get(fn, []))]


def test_every_defaulted_parameter_is_set_by_some_caller():
    assert defaulted_parameters()  # the scan sees the package
    unset = [label for label in unset_parameters(code_that_runs())
             if label not in TEST_SEAMS]
    assert not unset, (f"{len(unset)} defaulted parameters that no code "
                       f"that runs sets: {unset}; make each a constant, or "
                       f"add a test seam to TEST_SEAMS with a test that "
                       f"sets it")


@pytest.mark.parametrize("label", sorted(TEST_SEAMS))
def test_test_seams_are_set_only_by_tests(label):
    assert label in {p[0] for p in defaulted_parameters()}, (
        f"{label} is no defaulted parameter of a public function")
    assert label in unset_parameters(code_that_runs()), (
        f"{label} is set by code that runs")
    path, *scopes = TEST_SEAMS[label].split("::")
    node = ast.parse((ROOT / path).read_text())
    for name in scopes:  # the test's class, then the test
        node = next((item for item in node.body
                     if isinstance(item, (ast.ClassDef, ast.FunctionDef))
                     and item.name == name), None)
        assert node is not None, TEST_SEAMS[label]
    assert label not in unset_parameters([node]), (
        f"{TEST_SEAMS[label]} does not set {label}")


def exporting_modules():
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "__all__"
                       for t in node.targets) for node in tree.body):
            yield ("milne_lab" if path.stem == "__init__"
                   else f"milne_lab.{path.stem}")


@pytest.mark.parametrize("module", list(exporting_modules()))
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"


def init_reexports():
    """``(module, name)`` for each name ``__init__.py`` imports from a
    module of the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield f"milne_lab.{node.module}", alias.name


def test_every_reexport_is_in_its_modules_all():
    missing = sorted(f"{module}.{name}" for module, name in init_reexports()
                     if name not in importlib.import_module(module).__all__)
    assert not missing, f"re-exports missing from __all__: {missing}"


def names_loaded(trees):
    """Names and attribute names loaded in the syntax trees ``trees``, less
    each name's uses of itself: loads inside the ``def`` or ``class`` of
    that name, and the object of an attribute store."""
    names = set()

    def visit(node, own, counted=True):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        loaded = (node.id if isinstance(node, ast.Name) else
                  node.attr if isinstance(node, ast.Attribute) else None)
        if (counted and loaded is not None and loaded not in own
                and isinstance(node.ctx, ast.Load)):
            names.add(loaded)
        stored = (node.value if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store) else None)
        for child in ast.iter_child_nodes(node):
            visit(child, own, child is not stored)

    for tree in trees:
        visit(tree, frozenset())
    return names


def test_a_names_use_of_itself_is_no_load():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "f.attr = 1\ng.h.attr = 2\n")
    assert names_loaded([tree]) == {"n", "g"}


def test_every_export_is_loaded_by_code_that_runs():
    exported = {(module, name) for module in exporting_modules()
                for name in importlib.import_module(module).__all__}
    loaded = names_loaded(code_that_runs())
    unused = sorted(f"{module}.{name}" for module, name in exported
                    if name not in loaded)
    assert not unused, (f"{len(unused)} exports only tests load: {unused}; "
                        f"delete them, or move a reference implementation "
                        f"to tests/references.py")


def test_every_public_method_is_loaded_by_code_that_runs():
    methods = [(path.stem, fn.name) for path in MODULES
               for fn, is_method in public_functions(ast.parse(
                   path.read_text(), filename=str(path))) if is_method]
    assert methods  # the scan sees the classes
    loaded = names_loaded(code_that_runs())
    unused = sorted(f"{module}.{name}" for module, name in methods
                    if name not in loaded)
    assert not unused, (f"{len(unused)} public methods only tests load: "
                        f"{unused}; delete them, or move a reference "
                        f"implementation to tests/references.py")


def dataclass_fields():
    """``(label, field name)`` for each field of a public dataclass."""
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and any("dataclass" in ast.unparse(d)
                            for d in node.decorator_list)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield (f"{path.stem}.{node.name}.{item.target.id}",
                           item.target.id)


def names_read(trees):
    """Attribute names loaded and string constants in the syntax trees
    ``trees``."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def test_every_dataclass_field_is_read():
    fields = list(dataclass_fields())
    assert fields  # the scan sees the dataclasses
    read = names_read(code_that_runs())
    unread = [label for label, name in fields
              if name not in read and label not in TEST_FIELDS]
    assert not unread, (f"{len(unread)} dataclass fields no code that runs "
                        f"reads: {unread}; delete them, or add a diagnostic "
                        f"to TEST_FIELDS with the test that reads it")


@pytest.mark.parametrize("label", sorted(TEST_FIELDS))
def test_test_fields_are_read_only_by_their_test(label):
    name = dict(dataclass_fields()).get(label)
    assert name is not None, f"{label} is no field of a public dataclass"
    assert name not in names_read(code_that_runs()), (
        f"{label} is read by code that runs")
    path, *scopes = TEST_FIELDS[label].split("::")
    node = ast.parse((ROOT / path).read_text())
    for scope in scopes:  # the test's class, then the test
        node = next((item for item in node.body
                     if isinstance(item, (ast.ClassDef, ast.FunctionDef))
                     and item.name == scope), None)
        assert node is not None, TEST_FIELDS[label]
    assert name in names_read([node]), (
        f"{TEST_FIELDS[label]} does not read {label}")
