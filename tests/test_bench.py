"""The bench script still runs against the package.

No other test runs ``bench/bench.py``, so a rename in the package would
break it unseen.  Every package name and module attribute it reads is
checked with ``ast``, as ``test_demos.py`` checks the demos, private
ones included, its cheapest section (about 1 s) is run, and so are the
``sasaki_energy`` timers of its ``report`` section, each figure from one
call.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_reads(source):
    """``(module, name)`` for each import from the package in ``source``
    and each attribute read or set on a package module it imports."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "milne_lab":
            for alias in node.names:
                yield node.module, alias.name
                if node.module == "milne_lab":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield f"milne_lab.{node.value.id}", node.attr


def test_package_names_read_by_bench_exist(bench):
    reads = set(package_reads(BENCH.read_text()))
    reads |= set(package_reads(bench.RSS_RUN))
    report_reads = set(package_reads(bench.REPORT_RSS_RUN))
    # the fresh process of report_peak_rss runs the report through these
    assert {("milne_lab.harness", "run_scenario"),
            ("milne_lab.harness", "validate_config")} <= report_reads
    reads |= report_reads
    # the privates the bench leans on are among the names checked
    assert {("milne_lab.harness", "_mode_steps"),
            ("milne_lab.transport", "_CHUNK"),
            ("milne_lab.homogeneous", "_closure_nodes")} <= reads
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"
    # the fresh process of peak_rss calls the bench through these
    for node in ast.walk(ast.parse(bench.RSS_RUN)):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "bench":
            assert hasattr(bench, node.attr), f"bench.{node.attr}"


def test_accuracy_section_runs(bench, tmp_path):
    out = tmp_path / "accuracy.json"
    assert bench.main(["--only", "accuracy", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["src_sha256"] == bench.src_sha256(ROOT / "src")
    orders = {key: value for key, value in doc["accuracy"].items()
              if isinstance(value, float)}
    assert set(orders) == {"transport_x_p", "homogeneous_b_ode",
                           "homogeneous_rho_cont", "mode_u", "mode_w"}
    for key, order in orders.items():
        assert abs(order - 4.0) <= 0.2, (key, order)


def test_src_sha256_follows_names_and_bytes(bench, tmp_path):
    package = tmp_path / "milne_lab"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")
    first = bench.src_sha256(tmp_path)
    (package / "notes.txt").write_text("not a module\n")
    assert bench.src_sha256(tmp_path) == first
    (package / "a.py").write_text("x = 2\n")
    changed = bench.src_sha256(tmp_path)
    (package / "a.py").rename(package / "b.py")
    assert len({first, changed, bench.src_sha256(tmp_path)}) == 3


def one_call(fn, kernel, threads=1, figure=None):
    """``probed_walls`` with one unprobed call of ``fn``."""
    fn()
    seconds = figure() if figure else {}
    return {"figures": {name: (statistics.median(values),) * 2 + ([],)
                        for name, values in seconds.items()}}


def test_energy_timers_run(bench, monkeypatch):
    from milne_lab import harness, homogeneous

    monkeypatch.setattr(bench, "probed_walls", one_call)
    cfg = harness.validate_config({"scenario": "full_report", "seed": 0})
    cost = bench.energy_row_cost(homogeneous, cfg)
    assert sorted(cost) == ["sasaki_energy_us_per_row",
                            "scaled_sasaki_energy_us_per_row"]
    for figures in cost.values():
        assert sorted(figures) == ["single", f"stack_{bench.ENERGY_ROWS}"]
        assert all(us > 0.0 for us in figures.values())

    energy, flushes = homogeneous.sasaki_energy, []
    with bench.flush_timers(homogeneous, flushes):
        harness.run_scenario(cfg)
    log_points = harness._homogeneous_steps(cfg) // cfg.logEvery + 1
    assert len(flushes) == log_points // bench.ENERGY_ROWS
    assert all(seconds > 0.0 for seconds in flushes)
    assert homogeneous.sasaki_energy is energy
