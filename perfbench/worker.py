"""One fresh benchmark process.

``python3 perfbench/worker.py SPEC.json`` imports ``spdecutoff.cli`` (``src``
must be on PYTHONPATH), drives ``spdecutoff.cli.main`` in-process over the
workload's commands, and prints one JSON result line.  run.py starts it;
the spec says which passes to make:

    argvs         CLI argv per command of the workload
    out_dir       where those commands write (cleared before every pass)
    seconds       warm passes run until this much time has gone
    trace         one pass on the golden-seed configs, compared with the
                  stored CSVs, then ``seconds`` split between untraced and
                  traced passes; the spec then also holds ``golden``
                  ({argvs, out_dir, golden_dir}) and ``spans_path``

Without ``trace``, the reference kernel of hostspeed.py runs after the first
pass and after every warm pass.  Each pass records, as ``ref_s``, the mean of
the kernel times on either side of it (the first pass and the import: the
one after).
"""
# The import is timed before anything else is loaded.  import_s is the
# importing thread's CPU time: numpy starts OpenBLAS threads that spin, and
# when one shares the importing thread's CPU the wall time doubles.
import time

_START = time.perf_counter(), time.thread_time()
import spdecutoff.cli as cli  # noqa: E402

IMPORT = {"import_s": time.thread_time() - _START[1],
          "import_wall_s": time.perf_counter() - _START[0]}

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

# A changed row set or non-numeric field counts as the largest relative
# difference |a - b| / max(|a|, |b|) can reach.
STRUCTURE_MISMATCH = 2.0


def run_pass(cli, argvs, out_dir):
    """Run every command once.  Returns seconds from the first argv to the
    last report closed, the exit codes, and what the commands printed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception as e:  # a traceback is a failed command, not a lost run
                codes.append(f"{type(e).__name__}: {e}")
        elapsed = time.perf_counter() - start
    return elapsed, codes, sink.getvalue()


def _files(directory):
    for dirpath, dirnames, names in os.walk(directory):
        dirnames.sort()
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            yield os.path.relpath(path, directory), path


def read_outputs(out_dir):
    """(sha256 over every output file, CSV rows, CSV rows with pass=false)."""
    digest = hashlib.sha256()
    rows = failing = 0
    for rel, path in _files(out_dir):
        with open(path, "rb") as f:
            data = f.read()
        digest.update(rel.encode() + b"\0" + data + b"\0")
        if rel.endswith(".csv"):
            body = data.decode().splitlines()[1:]
            rows += len(body)
            failing += sum(1 for line in body if not line.endswith(",true"))
    return digest.hexdigest(), rows, failing


def _field_diff(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return STRUCTURE_MISMATCH
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def max_rel_diff(golden_dir, out_dir) -> float:
    """Largest relative difference between numeric CSV fields written to
    ``out_dir`` and the golden CSVs with the same relative paths."""
    worst = 0.0
    for rel, golden_path in _files(golden_dir):
        new_path = os.path.join(out_dir, rel)
        if not os.path.isfile(new_path):
            return STRUCTURE_MISMATCH
        with open(golden_path) as f:
            old = [line.split(",") for line in f.read().splitlines()]
        with open(new_path) as f:
            new = [line.split(",") for line in f.read().splitlines()]
        if [len(r) for r in old] != [len(r) for r in new]:
            return STRUCTURE_MISMATCH
        for old_row, new_row in zip(old, new):
            for a, b in zip(old_row, new_row):
                worst = max(worst, _field_diff(a, b))
    return worst


def _pass_record(kind, elapsed, codes, out_dir):
    digest, rows, failing = read_outputs(out_dir)
    return {"kind": kind, "seconds": elapsed, "codes": codes, "digest": digest,
            "rows": rows, "failing": failing}


def _openblas():
    """(OpenBLAS config string, its thread count) from the library numpy
    loaded, or (None, None) when it cannot be found."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return None, None


def environment():
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "openblas": blas,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _repeat(seconds, kind, argvs, out_dir, passes, tr=None, ref_s=None):
    """Passes until ``seconds`` have gone, at least one, appended to
    ``passes``; with a tracer, each pass is a root span of its own id.
    ``ref_s``, a reference kernel time taken just before, makes the kernel
    run after every pass too, and each pass records the mean of the two
    kernel times around it."""
    begin = time.perf_counter()
    while True:
        if tr is None:
            elapsed, codes, _ = run_pass(cli, argvs, out_dir)
        else:
            tr.pass_id = len(passes)
            with tr.span("bench.pass"):
                elapsed, codes, _ = run_pass(cli, argvs, out_dir)
        record = _pass_record(kind, elapsed, codes, out_dir)
        if ref_s is not None:
            after = hostspeed.reference()
            record["ref_s"] = (ref_s + after) / 2.0
            ref_s = after
        passes.append(record)
        if time.perf_counter() - begin >= seconds:
            return


def _traced_passes(spec, passes):
    """Untraced then traced passes, half of ``seconds`` each; returns the
    per-layer medians over the traced passes."""
    # Imported here so that untraced processes do not carry it in peak RSS.
    import tracer

    half = spec["seconds"] / 2.0
    args = (spec["argvs"], spec["out_dir"], passes)
    _repeat(half, "untraced", *args)
    tr = tracer.Tracer()
    tr.install(tracer.public_targets())
    try:
        _repeat(half, "traced", *args, tr)
    finally:
        tr.uninstall()
    tr.write(spec["spans_path"])
    per_pass = [tracer.summarize(tr.spans, tr.counts, i)
                for i, p in enumerate(passes) if p["kind"] == "traced"]
    names = sorted({k for p in per_pass for k in p})
    metrics = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in names}
    # Counts must repeat exactly from pass to pass; report any that do not.
    metrics["trace.unsteady_counts"] = sum(
        1 for k in names if not k.endswith("_s") and len({p.get(k) for p in per_pass}) > 1)
    return metrics


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    result = dict(IMPORT)
    passes = []

    if spec["trace"]:
        golden = spec["golden"]
        elapsed, codes, _ = run_pass(cli, golden["argvs"], golden["out_dir"])
        passes.append(_pass_record("golden", elapsed, codes, golden["out_dir"]))
        result["golden_max_rel_diff"] = max_rel_diff(golden["golden_dir"],
                                                     golden["out_dir"])
        result["trace"] = _traced_passes(spec, passes)
    else:
        elapsed, codes, log = run_pass(cli, spec["argvs"], spec["out_dir"])
        first = _pass_record("first", elapsed, codes, spec["out_dir"])
        passes.append(first)
        result["first_log"] = log
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # After the first pass, so that it still pays every lazy start-up.
        first["ref_s"] = result["import_ref_s"] = hostspeed.reference()
        _repeat(spec["seconds"], "warm", spec["argvs"], spec["out_dir"], passes,
                ref_s=first["ref_s"])

    result["passes"] = passes
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
