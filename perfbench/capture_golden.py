"""Store the CSV outputs of every workload at GOLDEN_SEED under golden/.

    PYTHONPATH=src python3 perfbench/capture_golden.py [WORKLOAD ...]

The traced run compares its golden-seed pass with these files and reports
the largest relative difference as ``cli.output_max_rel_diff``.  Recapture
only when a change to the program is meant to change its outputs.
"""
from __future__ import annotations

import os
import shutil
import sys

import spdecutoff.cli as cli

import workloads
from run import HERE, WORK
from worker import run_pass


def capture(workload: str):
    scratch = os.path.join(WORK, "golden", workload)
    shutil.rmtree(scratch, ignore_errors=True)
    out_dir = os.path.join(scratch, "out")
    argvs = workloads.write_commands(workload, workloads.GOLDEN_SEED,
                                     os.path.join(scratch, "cfg"), out_dir)
    _, codes, log = run_pass(cli, argvs, out_dir)
    if any(codes):
        raise SystemExit(f"{workload}: exit codes {codes}\n{log}")
    target = os.path.join(HERE, "golden", workload)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(out_dir, target, ignore=shutil.ignore_patterns("*.json"))
    print(f"{workload}: {log.strip()}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        capture(name)
