"""Compare the CLI outputs of two source trees on the benchmark workloads.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 0-11]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
For each seed, the configs of every workload in ``perfbench/workloads.py``
are written once, and each command runs in a fresh ``python -m
spdecutoff.cli`` process per tree, with PYTHONPATH set to that tree (the two
trees' processes run side by side and write no bytecode into either tree).
Every config with ``dims`` also goes through the ``spectrum`` command, so
the eigensystem JSON (eigenvalues and index map) is compared as well.  The
script lists every CSV or JSON file that differs or exists on one side only
and every non-zero exit, then prints a summary line; it exits 1 if it listed
anything, 0 otherwise.  For a CSV present on both sides with the same rows,
the line also gives the largest relative change of the ``renormalized``,
``profile`` and ``bound`` columns and the number of ``pass`` flips.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
# neither perfbench/ nor the compared trees get a __pycache__ from this tool
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or N, got {text!r}") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return seeds


def output_files(directory: str) -> set[str]:
    found = set()
    for dirpath, _, names in os.walk(directory):
        found.update(os.path.relpath(os.path.join(dirpath, n), directory)
                     for n in names if n.endswith((".csv", ".json")))
    return found


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


COLUMNS = ("renormalized", "profile", "bound")


def rel_change(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two CSV floats; 0 when equal, inf when
    only one is NaN or infinite."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_change(parent: bytes, change: bytes) -> str:
    """The largest relative change per column and the pass flips between
    two CSVs, or '' when their rows do not line up."""
    rows = [list(csv.DictReader(io.StringIO(side.decode()))) for side in (parent, change)]
    if len(rows[0]) != len(rows[1]) or any(
            (p["case"], p["eps"], p["rho_or_delta"]) != (c["case"], c["eps"], c["rho_or_delta"])
            for p, c in zip(*rows)):
        return ""
    worst = {col: max((rel_change(p[col], c[col]) for p, c in zip(*rows)), default=0.0)
             for col in COLUMNS}
    flips = sum(p["pass"] != c["pass"] for p, c in zip(*rows))
    return "; " + ", ".join(f"{col} {worst[col]:.3g}" for col in COLUMNS) + \
        f", pass flips {flips}"


def spectrum_commands(argvs: list, out_dir: str) -> list:
    """One ``spectrum`` argv per config of ``argvs`` that has ``dims``,
    writing ``out_dir/spectrum/<config file name>``."""
    spectra = os.path.join(out_dir, "spectrum")
    os.makedirs(spectra, exist_ok=True)
    commands = []
    for argv in argvs:
        path = argv[argv.index("--config") + 1]
        with open(path) as f:
            if "dims" in json.load(f):
                commands.append(["spectrum", "--config", path,
                                 "--out", os.path.join(spectra, os.path.basename(path))])
    return commands


def run_commands(trees: dict, argvs: dict) -> list[str]:
    """Run each command on both trees at once; one line per non-zero exit."""
    faults = []
    for i in range(len(argvs["parent"])):
        procs = {}
        for side in SIDES:
            env = dict(os.environ, PYTHONPATH=trees[side], PYTHONDONTWRITEBYTECODE="1")
            procs[side] = subprocess.Popen(
                [sys.executable, "-m", "spdecutoff.cli", *argvs[side][i]], env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for side, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                last = err.strip().splitlines()[-1:] or [""]
                faults.append(f"exit {proc.returncode}: {side} {argvs[side][i][0]}: {last[0]}")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-11"))
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_src),
             "change": os.path.abspath(args.change_src)}
    faults = []
    compared = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                base = os.path.join(work, f"{workload}-{seed}")
                configs = os.path.join(base, "configs")
                outs = {side: os.path.join(base, side) for side in SIDES}
                argvs = {}
                for side in SIDES:
                    argvs[side] = workloads.write_commands(workload, seed, configs, outs[side])
                    argvs[side] += spectrum_commands(argvs[side], outs[side])
                faults += [f"seed {seed} {workload} {line}"
                           for line in run_commands(trees, argvs)]
                for rel in sorted(output_files(outs["parent"]) | output_files(outs["change"])):
                    compared += 1
                    sides = [read(os.path.join(outs[side], rel)) for side in SIDES]
                    if sides[0] != sides[1]:
                        detail = csv_change(*sides) if rel.endswith(".csv") and all(
                            s is not None for s in sides) else ""
                        faults.append(f"seed {seed} {workload} differs: {rel}{detail}")
    for line in faults:
        print(line)
    print(f"{compared} files compared over seeds {args.seeds[0]}-{args.seeds[-1]} "
          f"of {len(workloads.WORKLOADS)} workloads; {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
