"""Tests of the benchmark itself: config generator, tracer, metric names."""
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import spdecutoff.cli as cli  # noqa: E402
from spdecutoff import cutoff, noise_sim, semigroup, wasserstein  # noqa: E402
from spdecutoff.multiplicative import schedule_values  # noqa: E402
from spdecutoff.spectral_core import (  # noqa: E402
    ModeCoefficients,
    build_box_eigensystem,
    heat_leading_data,
    wave_decompose,
    wave_spectrum,
)
from spdecutoff.semigroup import wave_overdamped_leader  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import _repeat, max_rel_diff, read_outputs  # noqa: E402

SEEDS = (0, 1, 2, 17)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def shrink(command: str, cfg: dict) -> dict:
    """The same config at reduced size: at most 4 modes per box axis, short
    Monte-Carlo runs."""
    cfg = dict(cfg)
    if "dims" in cfg:
        cfg["dims"] = [[length, min(modes, 4)] for length, modes in cfg["dims"]]
        n_modes = math.prod(modes for _, modes in cfg["dims"])
        if "g" in cfg:
            cfg["g"] = [row[:n_modes] for row in cfg["g"]]
        if "marks" in cfg:
            cfg["marks"] = [dict(m, values=m["values"][:n_modes]) for m in cfg["marks"]]
    if command == "levy-check":
        cfg["n_paths"] = 2000
    if command == "wasserstein-test":
        cfg["n"] = 2000
    return cfg


class TestGenerator:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reduced_configs_run(self, workload, seed, tmp_path, capsys):
        for i, (command, name, cfg, threads) in enumerate(workloads.generate(workload, seed)):
            path = tmp_path / name
            path.write_text(json.dumps(shrink(command, cfg)))
            out = tmp_path / str(i)
            code = cli.main([command, "--config", str(path), "--out", str(out),
                             "--threads", str(threads)])
            # 1 is a row that failed its check; 2 would be a rejected config.
            assert code in (0, 1), capsys.readouterr().err
            assert read_outputs(str(out))[1] > 0

    def test_seed_decides_inputs(self):
        assert workloads.generate("heat-3d", 3) == workloads.generate("heat-3d", 3)
        assert workloads.generate("heat-3d", 3) != workloads.generate("heat-3d", 4)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leading_structure_is_fixed(self, seed):
        (_, _, wave, _), = workloads.generate("wave-overdamped", seed)
        wsp = wave_spectrum(wave["gamma"], build_box_eigensystem(wave["dims"]))
        n = wsp.system.n_modes
        pos = wave["initial"]["position"] + [0.0] * (n - 2)
        vel = wave["initial"]["velocity"] + [0.0] * (n - 2)
        leader = wave_overdamped_leader(wave_decompose(wsp, pos, vel))
        assert (leader.case, leader.mode) == ("slow", 0)
        assert leader.margin < 0

        (_, _, heat, _), (_, _, mult, _), _ = workloads.generate("heat-3d", seed)
        system = build_box_eigensystem(shrink("heat-profile", heat)["dims"])
        values = heat["initial"] + [0.0] * (system.n_modes - len(heat["initial"]))
        leading = heat_leading_data(ModeCoefficients(system, values))
        assert leading.lambda_lead == system.lambdas[1]
        schedule_values(mult["schedule"], mult["eps_grid"])


def _bindings():
    """Every module attribute and dict entry that holds a traced original."""
    originals = {id(owner.__dict__[attr]) for owner, attr, _ in tracer.public_targets()}
    found = []
    for mod in list(sys.modules.values()):
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if id(value) in originals:
                found.append((mod.__dict__, key, value))
            elif type(value) is dict:
                found.extend((value, k, v) for k, v in value.items() if id(v) in originals)
    return found


class TestTracer:
    def test_uninstall_restores_every_name(self):
        before = _bindings()
        report_write = cutoff.CutoffReport.write
        decay = semigroup.decay_constants
        w2 = wasserstein.w2_gaussian_2x2
        tr = tracer.Tracer()
        tr.install(tracer.public_targets())
        try:
            # names bound by importing modules are wrapped, not only the home one
            assert cli.decay_constants is not decay
            assert cli.decay_constants is semigroup.decay_constants
            assert cutoff.w2_gaussian_2x2.__wrapped__ is w2
            assert noise_sim.wave_mode_propagator is semigroup.wave_mode_propagator
            assert cli._RUNNERS["heat-profile"] is cli.run_heat_profile
            assert cutoff.CutoffReport.write is not report_write
            assert all(container[key] is not value for container, key, value in before)
        finally:
            tr.uninstall()
        assert all(container[key] is value for container, key, value in before)
        assert cutoff.CutoffReport.write is report_write
        assert len(before) > len(tracer.public_targets())

    def test_counts_and_spans_of_a_traced_call(self):
        tr = tracer.Tracer()
        tr.install(tracer.public_targets())
        try:
            tr.pass_id = 0
            with tr.span("bench.pass"):
                c, rate = semigroup.decay_constants(
                    "wave", wave_spec=wave_spectrum(10.0, build_box_eigensystem([(1.0, 3)])),
                    grid_points=50)
        finally:
            tr.uninstall()
        summary = tracer.summarize(tr.spans, tr.counts, 0)
        assert summary["semigroup.wave_mode_propagator.calls"] == 150
        assert summary["semigroup.decay_constants.calls"] == 1
        assert summary["spectral_core.build_box_eigensystem.calls"] == 1
        assert summary["spectral_core.modes"] == 3
        assert "semigroup.wave_mode_propagator.self_s" not in summary


def span(sid, parent, start, end, name="a.f", pass_id=0):
    return tracer.Span(sid, parent, name, pass_id, start, end)


class TestSelfTime:
    def test_synthetic_tree(self):
        spans = [
            span(0, None, 0.0, 10.0, "bench.pass"),
            span(1, 0, 1.0, 4.0, "cli.main"),
            span(2, 1, 2.0, 3.0, "cutoff.g"),
            span(3, 0, 3.0, 6.0, "cli.main"),  # overlaps span 1: a pool thread
            span(4, 0, 8.0, 9.0, "semigroup.h"),
            span(5, None, 20.0, 21.0, "cli.main", pass_id=1),
        ]
        assert tracer.self_times(spans) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0, 5: 1.0}
        summary = tracer.summarize(spans, {(0, "cutoff.mode_evals"): 7}, 0)
        assert summary["cli.main.calls"] == 2
        assert summary["cli.main.self_s"] == 5.0
        assert summary["cli.self_s"] == 5.0
        assert summary["cli.main.total_s"] == 6.0
        assert summary["bench.pass.total_s"] == 10.0
        assert summary["cutoff.mode_evals"] == 7

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, None, 0.0, 2.0), span(1, 0, 1.0, 5.0)]
        assert tracer.self_times(spans)[0] == 1.0


class TestGoldenCompare:
    def test_relative_difference(self, tmp_path):
        (tmp_path / "g").mkdir()
        (tmp_path / "o").mkdir()
        header = "case,p,eps,rho_or_delta,renormalized,profile,bound,pass\n"
        (tmp_path / "g" / "a.csv").write_text(header + "x,2,0.5,0,1.0,0,0,true\n")
        (tmp_path / "o" / "a.csv").write_text(header + "x,2,0.5,0,1.25,0,0,true\n")
        assert max_rel_diff(str(tmp_path / "g"), str(tmp_path / "o")) == 0.2
        (tmp_path / "o" / "a.csv").write_text(header + "x,2,0.5,0,1.0,0,0,false\n")
        assert max_rel_diff(str(tmp_path / "g"), str(tmp_path / "o")) == 2.0


class TestHostSpeed:
    def test_every_untraced_pass_has_a_reference(self, tmp_path):
        passes = []
        _repeat(0.0, "warm", [], str(tmp_path / "out"), passes, ref_s=0.5)
        assert len(passes) == 1
        # the mean of the kernel time given and the one measured after
        assert passes[0]["ref_s"] > 0.25

    def test_normalised(self):
        assert hostspeed.normalised(2.0, 2 * hostspeed.NOMINAL_S) == 1.0


class TestBenchmarkSpec:
    def test_metric_names(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
        assert len(set(names)) == len(names)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        traced = {name for _, _, name in tracer.public_targets()}
        for n in names:
            parts = n.split(".")
            if len(parts) == 3 and parts[2] in ("calls", "self_s"):
                assert f"{parts[0]}.{parts[1]}" in traced, n
