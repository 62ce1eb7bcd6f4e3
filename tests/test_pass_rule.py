"""The CSV explains itself: every row's ``pass`` is the one rule of
``cutoff.passes`` applied to the row's printed columns (floats printed at 17
significant digits read back to the same bits), with the shift-linearity
rows' lower ends from the JSON meta ``shift_lower``."""
import csv
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdecutoff import (
    NoiseSpec,
    homogeneity_check,
    shift_linearity_check,
    sorted_normal_pair,
    stream,
    wave_decompose,
    wave_spectrum,
)
from spdecutoff.cli import main, run_heat_profile, run_wave_window, _wave_setup
from spdecutoff.cutoff import CutoffReport, cutoff_time, distance_and_gap, passes, window_cell
from spdecutoff.spectral_core import EigenSystem

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402

# The README's example configs, one per runner, and the configs of the CI
# smoke step (wave-window at gamma = 1, a second Levy mark, the near-tie heat
# profile with its delta grid, and wasserstein-test at u = 0).
README_HEAT = {
    "schema_version": 1, "dims": [[math.pi, 32]], "initial": [0.0, 1.0, 0.5],
    "noise": {"gaussian_q": "inverse-square"}, "eps_grid": [1e-2, 1e-4, 1e-6, 1e-8],
    "rho_grid": [-1.0, 0.0, 1.0], "p": 2.0, "delta_grid": [0.5, 2.0], "master_seed": 7,
}
README_WAVE = {
    "schema_version": 1, "dims": [[1.0, 11]], "gamma": 10.0,
    "initial": {"position": [1.0, 0.3], "velocity": [0.0, 0.1]},
    "noise": {"gaussian_q": "inverse-square"}, "eps_grid": [1e-4, 1e-6, 1e-8],
    "rho_grid": [-5.0, 0.0, 5.0], "master_seed": 7,
}
README_MULT = {
    "schema_version": 1, "lambdas": [1.0, 4.0, 9.0], "initial": [0.0, 1.0, 0.5],
    "noise_kind": "brownian", "g": [[0.5, 0.3, 0.1]], "eps_grid": [1e-2, 1e-3, 1e-4],
    "rho_grid": [0.0], "schedule": "eps", "master_seed": 7,
}
README_LEVY = {
    "schema_version": 1, "lambdas": [1.0, 4.0], "initial": [1.0, 0.5],
    "marks": [{"values": [0.3, 0.15], "rate": 2.0}], "eta": 0.05, "eps": 0.05, "t": 0.8,
    "n_paths": 1000,
}
RUNS = {
    "heat-readme": ("heat-profile", README_HEAT),
    "wave-readme": ("wave-profile", README_WAVE),
    "window-ci": ("wave-window", README_WAVE | {"gamma": 1.0}),
    "mult-readme": ("mult-profile", README_MULT),
    "levy-readme": ("levy-check", README_LEVY),
    "levy-ci": ("levy-check", README_LEVY | {"marks": README_LEVY["marks"] + [
        {"values": [0.05, 0.01], "rate": 5000.0}]}),
    "near-tie-ci": ("heat-profile", {
        "schema_version": 1, "lambdas": [1.0, 1.0000000000005, 4.0], "initial": [1, 1, 0.5],
        "noise": {"gaussian_q": [1, 1, 1]}, "eps_grid": [1e-4, 1e-10, 1e-15],
        "rho_grid": [0, 5, 20], "delta_grid": [0.5, 2.0]}),
    "wasserstein-default": ("wasserstein-test", {"schema_version": 1}),
    "wasserstein-u0-ci": ("wasserstein-test", {"schema_version": 1, "u": 0,
                                               "p_grid": [2, 1, 0.5]}),
}


def rederived(out_dir, command):
    """(printed pass, the one rule on the printed columns) per CSV row."""
    base = os.path.join(out_dir, command.replace("-", "_"))
    with open(base + ".csv") as f:
        rows = list(csv.DictReader(f))
    with open(base + ".json") as f:
        shift_lower = iter(json.load(f)["meta"].get("shift_lower", []))
    pairs = []
    for r in rows:
        value, target, bound = (float(r[k]) for k in ("renormalized", "profile", "bound"))
        lower = target - next(shift_lower) if r["case"] == "shift-linearity" else None
        pairs.append((r["pass"] == "true", passes(value, target, bound, lower)))
    return pairs


@pytest.mark.parametrize("name", RUNS)
def test_every_printed_pass_is_the_one_rule_on_its_columns(tmp_path, name):
    command, cfg = RUNS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    pairs = rederived(str(tmp_path), command)
    assert pairs and all(printed == rule for printed, rule in pairs)
    assert all(printed for printed, _ in pairs)


def test_failing_rows_explain_themselves_too(tmp_path):
    # both levy-check rows fail where the flow underflows: nothing is left to
    # compare, their bound reads -1, and the rule gives false for both
    cfg = README_LEVY | {"lambdas": [1000.0, 2000.0], "t": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["levy-check", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert rederived(str(tmp_path), "levy-check") == [(False, False), (False, False)]
    with open(tmp_path / "levy_check.csv") as f:
        assert [r["bound"] for r in csv.DictReader(f)] == ["-1", "-1"]


class TestOneRule:
    def test_both_sides_and_a_given_lower_allowance(self):
        assert passes(1.5, 1.0, 0.5) and passes(0.5, 1.0, 0.5)
        assert not passes(1.5 + 1e-15, 1.0, 0.5) and not passes(0.4, 1.0, 0.5)
        assert passes(0.2, 1.0, 0.1, lower=0.9) and not passes(0.05, 1.0, 0.1, lower=0.9)

    def test_nan_and_inf_fail(self):
        assert not passes(math.nan, 1.0, 1.0) and not passes(1.0, math.nan, 1.0)
        assert not passes(math.inf, 0.0, 1e-10)

    def test_report_rows_take_the_rule(self):
        rep = CutoffReport()
        rep.add("x", 2.0, 0.5, 0.0, 1.2, 1.0, 0.1)
        rep.add("x", 2.0, 0.5, 0.0, 0.5, 1.0, 0.1, lower=0.6)
        assert [r["pass"] for r in rep.rows] == [False, True]

    def test_the_sampling_checks_return_numbers_only(self):
        xs, ys = sorted_normal_pair(1000, stream(0, 7, 0))
        res = shift_linearity_check(2.0, 2.0, xs, ys)
        hom = homogeneity_check(3.0, 2.0, xs, ys)
        assert "pass" not in res and "pass" not in hom
        assert passes(res["estimate"], res["target"], res["bound"],
                      res["target"] - res["lower"])
        assert passes(hom["estimate"], 0.0, hom["budget"])


@st.composite
def small_heat(draw):
    """A heat config with a delta grid only: one to five simple modes, data
    with mode 1 on, noise with some modes off."""
    n = draw(st.integers(1, 5))
    lam = np.cumsum(draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n))).tolist()
    first = draw(st.floats(0.1, 2.0))
    rest = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), max_size=n - 1))
    q = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), min_size=n, max_size=n))
    eps = draw(st.lists(st.floats(-12.0, -0.5).map(lambda u: 10.0 ** u), min_size=1,
                        max_size=3))
    delta = draw(st.lists(st.floats(0.05, 4.0).filter(lambda d: abs(d - 1.0) > 1e-12),
                          min_size=1, max_size=3))
    return {"lambdas": lam, "initial": [first] + rest, "noise": {"gaussian_q": q},
            "eps_grid": eps, "rho_grid": [], "delta_grid": delta}


@settings(max_examples=150, deadline=None)
@given(cfg=small_heat())
def test_heat_simple_rows_pass_the_gaussian_sandwich(cfg):
    rows = run_heat_profile(cfg, 0).rows
    assert rows and all(r["case"] == "heat-simple" and r["pass"] for r in rows)
    # the sandwich: profile |S(t)h|/eps <= renormalized <= profile + gap
    assert all(r["profile"] <= r["renormalized"] <= r["profile"] + r["bound"] for r in rows)


@st.composite
def subcritical_window(draw):
    """A wave-window config on one to five simple modes, all oscillatory:
    gamma a fraction of 2 sqrt(lambda_1), up to 0.999 (near-critical), and
    rho from -0.9 t_eps to 2 t_eps at the largest eps."""
    n = draw(st.integers(1, 5))
    lam = np.cumsum(draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n))).tolist()
    gamma = 2.0 * math.sqrt(lam[0]) * draw(st.floats(0.05, 0.999))
    coeffs = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=n)
    q = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), min_size=n, max_size=n))
    eps = draw(st.lists(st.floats(-12.0, -1.0).map(lambda u: 10.0 ** u), min_size=1,
                        max_size=3))
    t_min = cutoff_time(max(eps), 0.5 * gamma)
    rho = draw(st.lists(st.floats(-0.9, 2.0).map(lambda f: f * t_min), min_size=1,
                        max_size=3))
    position, velocity = draw(coeffs), draw(coeffs)
    if not any(position) and not any(velocity):
        position = [1.0]
    return {"lambdas": lam, "gamma": gamma,
            "initial": {"position": position, "velocity": velocity},
            "noise": {"gaussian_q": q}, "eps_grid": eps, "rho_grid": rho}


@settings(max_examples=200, deadline=None)
@given(cfg=subcritical_window())
def test_wave_window_rows_pass_with_the_budget_alone(cfg):
    rows = run_wave_window(cfg, 0).rows
    assert rows and all(r["pass"] for r in rows)


def window_rows_with_gaps(seed):
    """The wave-window workload's rows at ``seed``, each with its noise gap."""
    ((_, _, cfg, _),) = workloads.generate("wave-window", seed)
    wsp, z, spec = _wave_setup(cfg)
    for r in run_wave_window(cfg, seed).rows:
        t = cutoff_time(r["eps"], 0.5 * wsp.gamma) + r["rho_or_delta"]
        yield r, distance_and_gap(t, z, r["eps"], spec)[2]


def test_the_window_budget_tightens_the_old_allowance():
    # on the workload's seeds 0-11 every bound lies between the gap and the
    # gap + 1e-12 (1 + renormalized) that the rows were given before the
    # budget; rows whose |renormalized - profile| exceeds the gap exist, and
    # they pass on the budget
    over_gap = 0
    for seed in range(12):
        for r, gap in window_rows_with_gaps(seed):
            assert r["pass"]
            assert gap < r["bound"] < gap + 1e-12 * (1.0 + r["renormalized"])
            over_gap += abs(r["renormalized"] - r["profile"]) > gap
    assert over_gap > 0


def test_window_cell_returns_three_numbers():
    system = EigenSystem.from_lambdas([1.0, 4.0])
    wsp = wave_spectrum(1.0, system)
    z = wave_decompose(wsp, np.array([1.0, 0.3]), np.array([0.0, 0.1]))
    cell = window_cell(z, NoiseSpec(system=system, gaussian_q=np.array([1.0, 0.25])))
    dist, center, bound = cell(0.0, 1e-6)
    assert all(map(math.isfinite, (dist, center, bound))) and bound > 0.0
