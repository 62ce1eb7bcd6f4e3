"""In-memory tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``spdecutoff`` module from the
outside: every name bound to the original function, in every loaded module
and in module-level dicts such as the CLI's runner table, is replaced by one
wrapper, and ``uninstall`` puts every original back.  Nothing under ``src/``
knows about it.

Most wrappers record a span: name, pass id, parent span, start and end.
Functions called about 1e5 times per pass (``COUNTED``) only bump a counter,
so tracing them costs a dict update instead of a span, and their time stays
in the caller's self time.  Spans live in memory until ``write`` is called.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid parent name pass_id start end")

PACKAGE = "spdecutoff"
MODULES = ("spectral_core", "semigroup", "noise_sim", "wasserstein", "cutoff",
           "multiplicative", "cli", "_rng")

# 4e4 calls per wave-overdamped pass at M=21, 2e5 at M=101 (decay_constants'
# time x mode loop).
COUNTED = {"semigroup.wave_mode_propagator"}

# Public methods traced besides module-level functions.
METHODS = {"cutoff": ("CutoffReport.write",)}


def layer_of(module_name: str) -> str:
    """'spdecutoff._rng' -> 'rng'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _n_modes(args) -> int:
    # Second positional argument: coefficients, wave state, noise spec or
    # wave spectrum, all of which reach the eigensystem.
    obj = args[1]
    return (obj.spectrum if hasattr(obj, "spectrum") else obj).system.n_modes


def _report_bytes(args) -> int:
    return sum(os.path.getsize(p) for p in args[1:3] if p is not None)


# Work counts: span name -> (metric, amount from positional args and result).
WORK = {
    "spectral_core.build_box_eigensystem":
        ("spectral_core.modes", lambda args, result: result.n_modes),
    "wasserstein.wp_empirical_1d":
        ("wasserstein.wp_empirical_1d.samples", lambda args, result: len(args[0])),
    "cutoff.renormalized_distance_heat":
        ("cutoff.mode_evals", lambda args, result: _n_modes(args)),
    "cutoff.renormalized_distance_wave":
        ("cutoff.mode_evals", lambda args, result: _n_modes(args)),
    "cutoff.heat_noise_gap":
        ("cutoff.mode_evals", lambda args, result: _n_modes(args)),
    "cutoff.wave_noise_gap":
        ("cutoff.mode_evals", lambda args, result: _n_modes(args)),
    "cutoff.CutoffReport.write":
        ("cutoff.report_bytes", lambda args, result: _report_bytes(args)),
}


def public_targets():
    """(owner, attribute, traced name) for every public function of the
    modules in MODULES, plus the methods in METHODS."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        layer = layer_of(mod.__name__)
        for attr, value in sorted(vars(mod).items()):
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((mod, attr, f"{layer}.{attr}"))
        for dotted in METHODS.get(short, ()):
            cls_name, meth = dotted.split(".")
            out.append((getattr(mod, cls_name), meth, f"{layer}.{dotted}"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)  # (pass_id, metric) -> count or amount
        self.pass_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._patches = []  # (container, key, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A span opened in a pool thread belongs to the span the installing
        # thread is blocked in (the CLI's thread pool maps cells from there).
        main = self._main_stack
        return main[-1] if main else None

    def _add(self, metric: str, amount=1):
        with self._lock:
            self.counts[(self.pass_id, metric)] += amount

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def _span_wrapper(self, name, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if work is not None:
                tracer._add(work[0], work[1](args, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        metric = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._add(metric)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        """Wrap each (owner, attribute, name) target wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            make = self._count_wrapper if name in COUNTED else self._span_wrapper
            wrapper = make(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, container, key, original, wrapper):
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original))

    def uninstall(self):
        """Put every patched name back to the original object."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def write(self, path: str):
        """Spans (one JSON object per line) followed by the counters."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")
            for (pass_id, metric), value in sorted(self.counts.items(), key=str):
                f.write(json.dumps({"pass_id": pass_id, "counter": metric,
                                    "value": value}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        stack = t._stack()
        self.parent = t._parent(stack)
        self.sid = next(t._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack().pop()
        t.spans.append(Span(self.sid, self.parent, self.name, t.pass_id, self.start, end))
        return False


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """{sid: span duration minus the part of it covered by child spans}.
    Children running in parallel threads are counted once (interval union)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
            for s in spans}


def summarize(spans, counts, pass_id) -> dict:
    """Per-pass metrics: ``<name>.calls``, ``<name>.self_s``, ``<name>.total_s``
    per span name, ``<layer>.self_s`` per layer, and the counters."""
    own = [s for s in spans if s.pass_id == pass_id]
    selfs = self_times(own)
    out = defaultdict(float)
    for s in own:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[s.sid]
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name.split('.', 1)[0]}.self_s"] += selfs[s.sid]
    for (pid, metric), value in counts.items():
        if pid == pass_id:
            out[metric] += value
    return dict(out)
