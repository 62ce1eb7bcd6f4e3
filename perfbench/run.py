"""Benchmark of the spdecutoff verifier: time to a certified CSV verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; everything it writes goes under
``.perfbench_work/`` at the checkout root.  The workloads (workloads.py) are
fixed lists of CLI commands on configs generated from ``--seed``.  Each pass
calls ``spdecutoff.cli.main`` once per command, in-process, from a fresh
worker process (worker.py); nothing else of the program is driven.

--trace 0 starts fresh worker processes, one after the other, for about
``--seconds`` (at least MIN_WORKERS).  Each imports the program,
makes a first pass, then warm passes for WARM_SLICE_S, so that every metric
samples the whole run.  Every time is normalised to a fixed host speed with
the reference kernel run next to it (hostspeed.py):

    setup_s          median CPU time of the importing thread in
                     ``import spdecutoff.cli`` (worker.py says why not
                     wall time)
    first_verdict_s  median first pass of the workers
    peak_rss_mb      median peak RSS of the workers after the first pass
    verdict_s        median warm pass
    row_pass_ratio   CSV rows with pass=true / rows written
    cmd_pass_ratio   commands that exited 0 / commands run

--trace 1 runs one warm pass on the golden-seed configs (compared with
golden/), untraced passes, then passes with the tracer installed, and prints
the per-layer metrics.  The last stdout line is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run is correct
when every command exits 0, every row has pass=true and all passes on the
seed's configs write byte-identical CSV and JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from hostspeed import normalised

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Warm passes per worker run this long, so that a run of --seconds starts
# several workers: host speed on a shared machine drifts within tens of
# seconds, and first and warm passes spread over the same span see the same
# drift.
WARM_SLICE_S = 1.0
MIN_WORKERS = 2
IMPORTTIME_PROBES = 3
# Subprocesses still running this long after the start are killed, so a
# run ends with an error before 180 s instead of hanging.
DEADLINE_S = 170.0

# Per-layer metric -> key of the worker's trace summary, where they differ.
TRACE_KEYS = {
    "cutoff.report_write_s": "cutoff.CutoffReport.write.total_s",
    "cli.load_config_s": "cli.load_config.total_s",
    "trace.verdict_s": "bench.pass.total_s",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Runner:
    """Starts the benchmark's subprocesses against one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr}")
        return proc

    def import_profile(self) -> dict:
        """Cumulative import time of numpy, and of spdecutoff without numpy,
        from ``python -X importtime``."""
        err = self.run([sys.executable, "-X", "importtime", "-c",
                        "import spdecutoff.cli"]).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("numpy", "spdecutoff"):
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        return {"setup.numpy_import_s": cumulative["numpy"],
                "setup.spdecutoff_import_s": cumulative["spdecutoff"] - cumulative["numpy"]}

    def worker(self, spec: dict, path: str) -> dict:
        with open(path, "w") as f:
            json.dump(spec, f)
        proc = self.run([sys.executable, os.path.join(HERE, "worker.py"), path])
        return json.loads(proc.stdout.splitlines()[-1])


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    above it, or the maximum when that percentile would not exceed the median
    (fewer than 21 samples)."""
    s = sorted(values)
    k = len(s) - 11 if len(s) >= 21 else len(s) - 1
    return 100.0 * (k + 1) / len(s), s[k]


def verdict(passes):
    """(correct, attempted, failed, rows, failing rows) over all passes."""
    attempted = sum(len(p["codes"]) for p in passes)
    failed = sum(1 for p in passes for c in p["codes"] if c != 0)
    rows = sum(p["rows"] for p in passes)
    failing = sum(p["failing"] for p in passes)
    digests = {p["digest"] for p in passes if p["kind"] != "golden"}
    correct = failed == 0 and failing == 0 and len(digests) == 1
    return correct, attempted, failed, rows, failing


def end_to_end(runner, workload_dir, argvs, seconds):
    # Compiles bytecode and warms the file cache.
    runner.run([sys.executable, "-c", "import spdecutoff.cli"])
    spec = {"argvs": argvs, "out_dir": os.path.join(workload_dir, "out"),
            "seconds": WARM_SLICE_S, "trace": False}
    results = []
    begin = time.monotonic()
    while True:
        results.append(runner.worker(spec, os.path.join(workload_dir, "worker.json")))
        elapsed = time.monotonic() - begin
        # Another worker only if it ends nearer to --seconds than stopping now.
        if len(results) >= MIN_WORKERS and elapsed + 0.5 * elapsed / len(results) >= seconds:
            break
    passes = [p for r in results for p in r["passes"]]
    warm = [normalised(p["seconds"], p["ref_s"]) for p in passes if p["kind"] == "warm"]
    correct, attempted, failed, rows, failing = verdict(passes)
    pct, tail_s = tail(warm)
    metrics = {
        "verdict_s": statistics.median(warm),
        "first_verdict_s": statistics.median(
            normalised(p["seconds"], p["ref_s"]) for p in passes if p["kind"] == "first"),
        "setup_s": statistics.median(
            normalised(r["import_s"], r["import_ref_s"]) for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "row_pass_ratio": 1.0 - failing / rows if rows else 0.0,
        "cmd_pass_ratio": 1.0 - failed / attempted,
    }
    raw = {kind: statistics.median(p["seconds"] for p in passes if p["kind"] == kind)
           for kind in ("first", "warm")}
    notes = [f"verdict_s p{pct:.0f} = {tail_s:.6f} s over {len(warm)} warm passes",
             f"{len(results)} workers; unnormalised medians: warm pass {raw['warm']:.6f} s, "
             f"first pass {raw['first']:.6f} s, import "
             f"{statistics.median(r['import_s'] for r in results):.6f} s CPU, "
             f"{statistics.median(r['import_wall_s'] for r in results):.6f} s wall; "
             f"reference kernel {statistics.median(p['ref_s'] for p in passes):.6f} s",
             f"environment: {json.dumps(results[-1]['env'])}"]
    if not correct:
        notes.append("first pass output:\n" + results[0]["first_log"])
    return correct, attempted, failed, metrics, notes, {"workers": results}


def per_layer(runner, workload, workload_dir, argvs, seconds, names):
    profiles = [runner.import_profile() for _ in range(IMPORTTIME_PROBES + 1)][1:]
    golden_argvs = workloads.write_commands(
        workload, workloads.GOLDEN_SEED, os.path.join(workload_dir, "golden_cfg"),
        os.path.join(workload_dir, "golden_out"))
    spec = {
        "argvs": argvs, "out_dir": os.path.join(workload_dir, "out"),
        "seconds": seconds, "trace": True,
        "spans_path": os.path.join(workload_dir, "spans.jsonl"),
        "golden": {"argvs": golden_argvs,
                   "out_dir": os.path.join(workload_dir, "golden_out"),
                   "golden_dir": os.path.join(HERE, "golden", workload)},
    }
    result = runner.worker(spec, os.path.join(workload_dir, "traced.json"))
    passes = result["passes"]
    correct, attempted, failed, _, _ = verdict(passes)
    trace = result["trace"]
    untraced = statistics.median(p["seconds"] for p in passes if p["kind"] == "untraced")
    extra = {
        "cli.output_max_rel_diff": result["golden_max_rel_diff"],
        "trace.untraced_verdict_s": untraced,
        "trace.overhead_s": trace["bench.pass.total_s"] - untraced,
        "trace.passes": sum(1 for p in passes if p["kind"] == "traced"),
        "trace.unsteady_counts": trace["trace.unsteady_counts"],
    }
    for key in profiles[0]:
        extra[key] = statistics.median(p[key] for p in profiles)
    metrics = {}
    for name in names:
        if name in extra:
            metrics[name] = extra[name]
        else:
            metrics[name] = trace.get(TRACE_KEYS.get(name, name), 0.0)
    return correct, attempted, failed, metrics, [], {"import_profiles": profiles, "worker": result}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spdecutoff", "cli.py")):
        print(f"error: no spdecutoff sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + DEADLINE_S)
    workload_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(workload_dir, ignore_errors=True)
    argvs = workloads.write_commands(args.workload, args.seed,
                                     os.path.join(workload_dir, "cfg"),
                                     os.path.join(workload_dir, "out"))
    if args.trace:
        declared = spec["per_layer"]
        outcome = per_layer(runner, args.workload, workload_dir, argvs, args.seconds,
                            [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        outcome = end_to_end(runner, workload_dir, argvs, args.seconds)
    correct, attempted, failed, values, notes, raw = outcome
    with open(os.path.join(workload_dir, "results.json"), "w") as f:
        json.dump(raw, f)

    for m in declared:
        print(f"{args.workload:16s} {m['name']:48s} {values[m['name']]:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
