"""Check that the working tree writes what the revision ``REV`` writes.

Run from anywhere in a checkout::

    python bench/against.py REV

The script ``git archive``s ``REV`` into a temporary directory and runs
every case of :func:`cases` twice, each time in a fresh process: once on
that copy and once on the working tree it belongs to (uncommitted edits
included).  A scenario case runs ``python -m milne_lab`` on a JSON config
with ``--out``; a demo case runs one script of ``demos/``.  For each case
it compares the exit codes and the sha256 of every file written, the
standard output among them (a scenario's CSV log and ``report.json``).
A case that differs prints its first differing CSV or output line, or
the first differing JSON key; the script then exits 1, and 0 when every
case is identical.  Standard library only; about 40 s on two cores.

The cases are each scenario at seed 0; ``homogeneous`` and
``full_report`` at ``radialNodes`` 2 to 5 (the line, the parabola and
the smallest grids of the package's own splines); ``full_report`` at
``matterAmp: 0`` (a run that fails its monitors); ``homogeneous`` off
its defaults; the ``chars_wide`` workload of ``perfbench`` at two seeds
on its thread budget; and every demo.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
from milne_lab.harness import SCENARIOS, _CLI_SCENARIOS  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402

# the thread pools of numpy's BLAS, pinned in every case's process
_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cases() -> list:
    """``(name, config, demo, threads)`` of each case: a scenario config
    (a mapping) or a demo script's name, and the ``MILNE_LAB_THREADS``
    budget of its process."""
    configs = [(f"{s}-seed0", {"scenario": s, "seed": 0}) for s in SCENARIOS]
    configs += [(f"{s}-radialNodes{n}", {"scenario": s, "seed": 0,
                                         "radialNodes": n})
                for s in ("homogeneous", "full_report") for n in (2, 3, 4, 5)]
    configs.append(("full_report-matterAmp0",
                    {"scenario": "full_report", "seed": 0, "matterAmp": 0}))
    configs.append(("homogeneous-off-defaults",
                    {"scenario": "homogeneous", "seed": 0, "tau0": -0.5,
                     "quadNodes": 48, "radialNodes": 129}))
    found = [(name, config, None, 1) for name, config in configs]
    threads = WORKLOADS["chars_wide"]["threads"]
    found += [(f"chars_wide-seed{seed}", config_for("chars_wide", seed),
               None, threads) for seed in (3, 7)]
    found += [(f"demo-{path.stem}", None, path.name, 1)
              for path in sorted((ROOT / "demos").glob("*.py"))]
    return found


def run_case(tree: Path, case: tuple, where: Path) -> tuple:
    """Exit code, ``{file name: bytes}`` (``stdout`` its standard output)
    and the tail of the standard error of one case run on ``tree`` in the
    empty directory ``where``."""
    _, config, demo, threads = case
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "MILNE_LAB_THREADS": str(threads), **dict.fromkeys(_POOLS, "1")}
    if demo is None:
        (where / "config.json").write_text(json.dumps(config))
        command = {v: k for k, v in _CLI_SCENARIOS.items()}[config["scenario"]]
        argv = ["-m", "milne_lab", command, "--config", "config.json",
                "--out", "out"]
    else:
        argv = [str(tree / "demos" / demo)]
    done = subprocess.run([sys.executable, *argv], cwd=where, env=env,
                          capture_output=True)
    files = {"stdout": done.stdout}
    for path in sorted((where / "out").glob("*")):
        files[f"out/{path.name}"] = path.read_bytes()
    return done.returncode, files, done.stderr.decode()[-2000:]


def first_json_difference(a, b, key="") -> str:
    """The first key path at which the JSON values ``a`` and ``b``
    differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{key}/{k}: only in {'REV' if k in a else 'tree'}"
            if a[k] != b[k]:
                return first_json_difference(a[k], b[k], f"{key}/{k}")
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_json_difference(x, y, f"{key}[{i}]")
    return f"{key or '/'}: {a!r} (REV) != {b!r} (tree)"


def first_difference(name: str, a: bytes, b: bytes) -> str:
    """Where the outputs ``a`` (REV) and ``b`` (tree) of one file first
    differ: a JSON key, or a line (a CSV row counts its header as 0)."""
    if name.endswith(".json"):
        try:
            return first_json_difference(json.loads(a), json.loads(b))
        except ValueError:
            pass
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i}: {x!r} (REV) != {y!r} (tree)"
    return f"{len(lines_a)} lines (REV) != {len(lines_b)} lines (tree)"


def compare(rev: tuple, tree: tuple) -> list:
    """The differences of one case's two runs, one line each."""
    (code_a, files_a, err_a), (code_b, files_b, err_b) = rev, tree
    found = []
    if code_a != code_b:
        found.append(f"exit code {code_a} (REV) != {code_b} (tree)\n"
                     f"REV stderr:\n{err_a}\ntree stderr:\n{err_b}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            found.append(f"{name} written only by "
                         f"{'REV' if name in files_a else 'tree'}")
        elif (hashlib.sha256(files_a[name]).digest()
              != hashlib.sha256(files_b[name]).digest()):
            where = first_difference(name, files_a[name], files_b[name])
            found.append(f"{name}: {where}")
    return found


def checkout(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = checkout(args.rev, tmp / "rev")
        differing = 0
        for case in cases():
            runs = []
            for label, tree in (("rev", base), ("tree", ROOT)):
                where = tmp / "runs" / label / case[0]
                where.mkdir(parents=True)
                runs.append(run_case(tree, case, where))
            found = compare(*runs)
            differing += bool(found)
            print(f"{case[0]}: {'DIFFERS' if found else 'same'} "
                  f"(exit code {runs[1][0]}, {len(runs[1][1])} files)")
            for line in found:
                print(f"  {line}")
    print(f"{differing} of {len(cases())} cases differ from {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
