"""The ``--seed 0`` outputs of the five CLI scenarios at their defaults.

``tests/data/seed0_reports.json`` holds, per CLI scenario, the
``report.json`` in full with the SHA-256 of its bytes, and the SHA-256
of the CSV log, recorded with the numpy version and the commit named in
the file.  The test reruns each scenario through ``harness.main`` and
compares byte for byte; on a mismatch it names the file and, for the
JSON report, the first key that differs.  Like ``TestReferenceBitwise``
it pins the bits of the recorded numpy build (its SIMD loops).

An intended output change re-records the file::

    PYTHONPATH=src python tests/test_seed0_reports.py --record COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from milne_lab.harness import _CLI_SCENARIOS, main

DATA = Path(__file__).parent / "data" / "seed0_reports.json"


def run_cli(command, out_dir: Path) -> dict:
    """Run ``command --seed 0 --out out_dir``; the SHA-256 of each file
    written, and the parsed ``report.json``."""
    main([command, "--seed", "0", "--out", str(out_dir)])
    csv = out_dir / f"{_CLI_SCENARIOS[command]}_log.csv"
    report = out_dir / "report.json"
    return {"csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
            "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
            "report": json.loads(report.read_text())}


def first_difference(got, want, path="report.json"):
    """Path of the first key (sorted) or index where ``got`` and ``want``
    differ, or ``None`` if they are equal; floats compare as their bits."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}[{key!r}] (present on one side only)"
            found = first_difference(got[key], want[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path} (length {len(got)} against {len(want)})"
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(got) is not type(want) or repr(got) != repr(want):
        return f"{path}: {got!r} against recorded {want!r}"
    return None


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_recorded_with_this_numpy(recorded):
    assert recorded["numpy"] == np.__version__, (
        "the recorded bits belong to another numpy build")


@pytest.mark.parametrize("command", list(_CLI_SCENARIOS))
def test_seed0_outputs_are_byte_identical(command, recorded, tmp_path,
                                          monkeypatch):
    monkeypatch.delenv("MILNE_LAB_THREADS", raising=False)
    want = recorded["scenarios"][command]
    got = run_cli(command, tmp_path)
    csv = f"{_CLI_SCENARIOS[command]}_log.csv"
    assert got["csv_sha256"] == want["csv_sha256"], f"{command}: {csv} differs"
    if got["report_sha256"] != want["report_sha256"]:
        where = first_difference(got["report"], want["report"])
        pytest.fail(f"{command}: report.json differs at "
                    f"{where or 'its formatting (every value equal)'}")


def record(commit: str) -> None:
    """Write ``DATA`` from the scenarios of the tree on ``sys.path``."""
    import tempfile

    scenarios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in _CLI_SCENARIOS:
            scenarios[command] = run_cli(command, Path(tmp) / command)
    DATA.write_text(json.dumps({
        "about": "python -m milne_lab COMMAND --seed 0 --out DIR at the "
                 "defaults, MILNE_LAB_THREADS unset: the SHA-256 of the CSV "
                 "log and of report.json, and report.json parsed",
        "commit": commit, "numpy": np.__version__, "scenarios": scenarios,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_seed0_reports.py --record COMMIT")
    record(sys.argv[2])
