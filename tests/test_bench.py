"""The bench script still runs against the package.

No other test runs ``bench/bench.py``, so a rename in the package would
break it unseen.  Every package name and module attribute it reads is
checked with ``ast``, as ``test_demos.py`` checks the demos, private
ones included, its cheapest section (about 1 s) is run, and so are the
``sasaki_energy`` timers of its ``report`` section, each figure from one
call, its long-log runs of the ``memory`` section at a small size, and
the fresh processes of that section's energy peaks.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import statistics
import time

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
    report_reads = set(package_reads(bench.PEAK_RUN))
    log_reads = set(package_reads(bench.LOG_RUN))
    reads |= set(package_reads(bench.ENERGY_RUN))
    # the fresh processes of fresh_peaks and long_log_peaks run the
    # scenario through these
    assert {("milne_lab.harness", "run_scenario"),
            ("milne_lab.harness", "validate_config")} <= report_reads
    assert ("milne_lab.harness", "emit_report") in log_reads
    reads |= report_reads | log_reads
    # the privates the bench leans on are among the names checked
    assert {("milne_lab.harness", "_mode_steps"),
            ("milne_lab.transport", "_CHUNK"),
            ("milne_lab.harness", "_homogeneous_run"),
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


def test_chunks_section_runs(bench, monkeypatch):
    from milne_lab import transport

    monkeypatch.setattr(bench, "CHUNK_SIZES", (4,))
    monkeypatch.setattr(bench, "CHUNK_BASE", 8)
    monkeypatch.setattr(bench, "CHUNK_RUN", (20, 3))
    monkeypatch.setattr(bench, "CHUNK_ROUNDS", 2)
    derived = transport._CHUNK
    section = bench.chunks_section()
    assert transport._CHUNK == derived
    assert section["rows_per_chunk"] == transport._CHUNK_ROWS
    sweeps = {(row["threads"], row["chunk"]): row for row in section["sweeps"]}
    assert sorted(sweeps) == [(t, c) for t in bench.THREADS
                              for c in (4, 8, derived)]
    for (threads, chunk), row in sweeps.items():
        assert len(row["walls_s"]) == 2
        assert row["wall_q1_s"] <= row["wall_s"] <= row["wall_q3_s"]
        assert row["derived"] is (chunk == derived)
        if chunk == 8:
            assert row["ratio_to_base"] == 1.0
    # 20 particles in chunks of at most 4: five on one worker, and three
    # of at most 4 in each share of 10 on two (where two CPUs are free)
    assert sweeps[1, 4]["chunks_per_worker"] == 5
    assert sweeps[1, 4]["particles_per_chunk"] == 4
    assert sweeps[1, derived]["chunks_per_worker"] == 1
    if sweeps[2, 4]["workers"] == 2:
        assert sweeps[2, 4]["chunks_per_worker"] == 3


def test_long_log_peaks_run(bench):
    from milne_lab import harness

    figures = bench.long_log_peaks(harness, {"Tend": 4.0, "h": 0.01,
                                             "logEvery": 1})
    assert sorted(figures) == ["full_report", "homogeneous"]
    for entry in figures.values():
        assert entry["peak_rss_mb"] > 0.0 and entry["emit_report_s"] > 0.0


def test_energy_peaks_run(bench):
    from milne_lab import harness

    peaks = bench.energy_peaks(harness)
    assert sorted(peaks) == ["energy_block_peak_mb", "report_evolve_peak_mb"]
    assert all(peak > 0.0 for peak in peaks.values())


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
        assert sorted(figures) == ["single",
                                   f"stack_{homogeneous._ENERGY_BLOCK}"]
        assert all(us > 0.0 for us in figures.values())
    block = bench.geometric_block_cost()
    assert sorted(block) == ["geometric_block_ms", "geometric_block_ms_runs",
                             "scaled_geometric_block_ms"]
    assert block["geometric_block_ms"] > 0.0

    energy, flushes = homogeneous.sasaki_energy, []
    start = time.perf_counter()
    with bench.flush_timers(homogeneous, flushes):
        harness.run_scenario(cfg)
    wall = time.perf_counter() - start
    log_points = harness._homogeneous_steps(cfg) // cfg.logEvery + 1
    assert len(flushes) == log_points // homogeneous._ENERGY_BLOCK
    assert all(seconds > 0.0 for seconds in flushes)
    assert sum(flushes) < wall

    # the blocks are timed apart, so they add up to less than the run even
    # where it is mostly blocks: 641 log points of one step each (timing
    # each block from the last closure call adds up to about 4 times that)
    flushes.clear()
    start = time.perf_counter()
    with bench.flush_timers(homogeneous, flushes):
        homogeneous.evolve_homogeneous(
            harness._matter_profile(cfg), cfg.tau0, 1.0, 640,
            n_q=cfg.radialNodes, log_every=1, n_nodes=cfg.quadNodes)
    wall = time.perf_counter() - start
    assert len(flushes) == 641 // homogeneous._ENERGY_BLOCK
    assert sum(flushes) < wall
    assert homogeneous.sasaki_energy is energy
