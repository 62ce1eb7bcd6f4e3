"""CLI tests: config validation, output schema, byte determinism."""
import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spdecutoff.cli as cli
from spdecutoff import (
    CutoffReport,
    build_box_eigensystem,
    cutoff_time,
    decay_constants,
    error_bound,
    heat_leading_data,
    distance_and_gap,
    equilibrium_moment,
    profile,
    stream,
    wave_overdamped_leader,
    wave_spectrum,
    wave_subcritical_norm_sq,
)
from spdecutoff.cli import load_config, main, run_heat_profile
from spdecutoff.spectral_core import WaveState
from spdecutoff.errors import (
    ConfigError,
    InvalidDomainError,
    SpdeCutoffError,
    WrongCaseError,
    ZeroInitialDatumError,
)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def heat_cfg(**over):
    cfg = {
        "schema_version": 1,
        "dims": [[math.pi, 16]],
        "initial": [0.0, 1.0, 0.5],
        "noise": {"gaussian_q": "inverse-square"},
        "p": 2.0,
        "eps_grid": [1e-2, 1e-4, 1e-6],
        "rho_grid": [-1.0, 0.0, 1.0],
        "master_seed": 0,
    }
    cfg.update(over)
    return cfg


WAVE_PROFILE_CFG = {
    "schema_version": 1,
    "dims": [[1.0, 6]],
    "gamma": 10.0,
    "initial": {"position": [1.0, 0.3], "velocity": [0.0, 0.1]},
    "noise": {"gaussian_q": "inverse-square"},
    "eps_grid": [1e-4, 1e-8],
    "rho_grid": [-1.0, 0.0, 1.0],
}

WAVE_WINDOW_CFG = {
    "schema_version": 1,
    "dims": [[math.pi, 5]],
    "gamma": 1.0,
    "initial": {"position": [1.0, 0.5, 0.2], "velocity": [0.0, 0.1, 0.0]},
    "noise": {"gaussian_q": "inverse-square"},
    "eps_grid": [1e-4, 1e-8],
    "rho_grid": [-2.0, 0.0, 2.0],
}

WAVE_ON_LAMBDAS = {k: v for k, v in WAVE_PROFILE_CFG.items() if k != "dims"}

MULT_CFG = {
    "schema_version": 1,
    "lambdas": [1.0, 4.0, 9.0],
    "initial": [0.0, 1.0, 0.5],
    "g": [[0.5, 1.0, 0.2]],
    "eps_grid": [1e-2, 1e-3, 1e-4],
    "rho_grid": [1.0],
    "schedule": "eps",
}

LEVY_MULT_CFG = {k: v for k, v in MULT_CFG.items() if k != "g"} | {
    "noise_kind": "levy",
    "eta": 0.05,
    "marks": [{"values": [0.3, 0.15, 0.1], "rate": 2.0},
              {"values": [-0.2, 0.1, -0.05], "rate": 1.0}],
}

LEVY_CHECK_CFG = {
    "schema_version": 1,
    "lambdas": [1.0, 4.0],
    "initial": [1.0, 0.5],
    "marks": [{"values": [0.3, 0.15], "rate": 2.0}],
    "eta": 0.05,
    "eps": 0.05,
    "t": 0.8,
    "n_paths": 2000,
}

WASSERSTEIN_CFG = {"schema_version": 1, "p_grid": [2.0]}


class TestConfigValidation:
    def test_missing_field_pointer(self, tmp_path):
        path = write_cfg(tmp_path, "a.json", {"schema_version": 1})
        cfg = load_config(path)
        with pytest.raises(ConfigError) as exc:
            run_heat_profile(cfg, 0)
        assert "/dims" in str(exc.value)

    def test_bad_eps_pointer(self, tmp_path):
        cfg = heat_cfg(eps_grid=[1e-2, 3.0])
        path = write_cfg(tmp_path, "b.json", cfg)
        with pytest.raises(ConfigError) as exc:
            run_heat_profile(load_config(path), 0)
        assert "/eps_grid/1" in str(exc.value)

    def test_bad_p_rejected(self, tmp_path):
        cfg = heat_cfg(p=-1.0)
        path = write_cfg(tmp_path, "c.json", cfg)
        with pytest.raises(ConfigError) as exc:
            run_heat_profile(load_config(path), 0)
        assert "/p" in str(exc.value)

    def test_wrong_schema_version(self, tmp_path):
        path = write_cfg(tmp_path, "d.json", heat_cfg(schema_version=99))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "/schema_version" in str(exc.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("content", [b'{"schema_version": 1, "note": "\xff"}',
                                         b"[" * 100_000, None, "directory"],
                             ids=["not-utf-8", "nested-too-deep", "missing", "directory"])
    def test_an_unreadable_config_exits_2_at_the_root(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        rc = main(["heat-profile", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_nonnumeric_initial_pointer(self, tmp_path):
        cfg = heat_cfg(initial=[0.0, "x"])
        path = write_cfg(tmp_path, "e.json", cfg)
        with pytest.raises(ConfigError) as exc:
            run_heat_profile(load_config(path), 0)
        assert "/initial/1" in str(exc.value)

    @pytest.mark.parametrize(
        "command, cfg, pointer",
        [
            ("wave-window", WAVE_WINDOW_CFG | {"p": 1.0}, "/p"),
            ("heat-profile", heat_cfg(dims=[["a", 3]]), "/dims/0/0"),
            ("heat-profile", heat_cfg(dims=[[1.0, 2.5]]), "/dims/0/1"),
            ("mult-profile", MULT_CFG | {"g": [[0.5, 0.2, 0.1], [0.1]]}, "/g/1"),
            ("mult-profile", MULT_CFG | {"noise_kind": "gamma", "rho_grid": []},
             "/noise_kind"),
            ("mult-profile", {k: v for k, v in MULT_CFG.items() if k != "g"}
             | {"rho_grid": []}, "/g"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": -5}, "/n"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": 0}, "/n"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": 1}, "/n"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": 2.5}, "/n"),
            ("mult-profile", MULT_CFG | {"eps_grid": []}, "/eps_grid"),
            ("mult-profile", MULT_CFG | {"g": [[0.5, 1.0]], "rho_grid": []}, "/g"),
            ("mult-profile", LEVY_MULT_CFG | {"eta": 1.5, "rho_grid": []}, "/eta"),
            ("mult-profile", LEVY_MULT_CFG | {"rho_grid": [], "marks": [
                LEVY_MULT_CFG["marks"][0], {"values": [1.5, 0.0, 0.0], "rate": 1.0}]},
             "/marks/1"),
            ("mult-profile", LEVY_MULT_CFG | {"marks": [{"values": [0.3], "rate": 1.0}]},
             "/marks/0"),
            ("levy-check", LEVY_CHECK_CFG | {"n_paths": -3}, "/n_paths"),
            ("levy-check", LEVY_CHECK_CFG | {"n_paths": 1}, "/n_paths"),
            ("mult-profile", MULT_CFG | {"schedule": "cubic", "rho_grid": []},
             "/schedule"),
            ("mult-profile", MULT_CFG | {"schedule": "cubic"}, "/schedule"),
            ("mult-profile", MULT_CFG | {"eps_grid": [0.9, 0.8]}, "/schedule"),
            ("mult-profile", LEVY_MULT_CFG | {"rho_grid": [], "marks": [
                LEVY_MULT_CFG["marks"][0], {"values": [0.2, 0.1, 0.0], "rate": -2.0}]},
             "/marks/1/rate"),
            ("levy-check", LEVY_CHECK_CFG | {"marks": [{"values": [0.3, 0.15],
                                                        "rate": 0.0}]}, "/marks/0/rate"),
            ("levy-check", LEVY_CHECK_CFG | {"t": -0.8}, "/t"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"u": math.nan}, "/u"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"p_grid": [math.nan]}, "/p_grid/0"),
            ("heat-profile", heat_cfg(initial=[0, 1, math.inf]), "/initial/2"),
            ("mult-profile", MULT_CFG | {"g": [[math.nan, 1, 0.2]]}, "/g/0/0"),
            ("wave-window", WAVE_WINDOW_CFG | {"gamma": math.inf}, "/gamma"),
            ("heat-profile", heat_cfg(dims=[[-math.inf, 3]]), "/dims/0/0"),
            ("heat-profile", heat_cfg(master_seed=-1), "/master_seed"),
            ("levy-check", LEVY_CHECK_CFG | {"t": 1e20}, "/t"),
            ("levy-check", LEVY_CHECK_CFG | {"marks": [{"values": [0.3, 0.15],
                                                        "rate": 1e300}]}, "/t"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": 10 ** 20}, "/n"),
            ("wasserstein-test", WASSERSTEIN_CFG | {"n": 10 ** 7 + 1}, "/n"),
            ("levy-check", LEVY_CHECK_CFG | {"n_paths": 10 ** 20}, "/n_paths"),
            # two modes: 2 * 25,000,001 paths pass 5e7 entries
            ("levy-check", LEVY_CHECK_CFG | {"n_paths": 25_000_001}, "/n_paths"),
            ("heat-profile", heat_cfg(dims=[[1.0, 10 ** 20]]), "/dims/0/1"),
            ("heat-profile", heat_cfg(dims=[[1.0, 1000], [1.0, 1000], [1.0, 2]]),
             "/dims/2/1"),
            ("spectrum", {"schema_version": 1, "dims": [[1.0, 10 ** 6 + 1]]}, "/dims/0/1"),
            ("heat-profile", heat_cfg(noise={"gaussian_q": [1.0] * 3 + [-0.5] + [1.0] * 12}),
             "/noise/gaussian_q/3"),
            ("levy-check", LEVY_CHECK_CFG | {"lambdas": []}, "/lambdas"),
            ("levy-check", LEVY_CHECK_CFG | {"lambdas": [1.0, -4.0]}, "/lambdas"),
            ("mult-profile", MULT_CFG | {"lambdas": [1.0, 0.0, 9.0]}, "/lambdas"),
            ("heat-profile", heat_cfg(dims=[]), "/dims"),
            ("heat-profile", heat_cfg(dims=[[0.0, 16]]), "/dims/0/0"),
            ("heat-profile", heat_cfg(dims=[[math.pi, 4], [-1.0, 4]]), "/dims/1/0"),
            ("heat-profile", heat_cfg(dims=[[math.pi, 16], [1.0, 0]]), "/dims/1/1"),
            ("spectrum", {"schema_version": 1, "dims": [[1.0, 0]]}, "/dims/0/1"),
            ("wave-window", WAVE_WINDOW_CFG | {"gamma": 0.0}, "/gamma"),
            ("wave-profile", WAVE_PROFILE_CFG | {"gamma": -10.0}, "/gamma"),
            ("heat-profile", heat_cfg(delta_grid=[0.5, -2.0]), "/delta_grid/1"),
            ("heat-profile", heat_cfg(delta_grid=[1.0]), "/delta_grid/0"),
            # delta * t_eps is finite at eps = 1e-2 and overflows at 1e-4
            ("heat-profile", heat_cfg(delta_grid=[2.0, 1e308]), "/delta_grid/1"),
        ],
        ids=["wave-window-p", "dims-length", "dims-modes", "ragged-g",
             "mult-kind-no-rho", "mult-no-g-no-rho",
             "wass-n-negative", "wass-n-zero", "wass-n-one", "wass-n-fraction",
             "mult-empty-eps", "mult-g-length-no-rho", "mult-eta-no-rho",
             "mult-mark-norm-no-rho", "mult-mark-length",
             "levy-n-paths-negative", "levy-n-paths-one",
             "mult-schedule-no-rho", "mult-schedule", "mult-schedule-coarse-grid",
             "mult-mark-rate-negative", "levy-mark-rate-zero", "levy-t-negative",
             "wass-u-nan", "wass-p-nan", "heat-initial-inf", "mult-g-nan",
             "wave-gamma-inf", "dims-length-inf", "master-seed-negative",
             "levy-t-huge", "levy-rate-huge", "wass-n-huge", "wass-n-above-cap",
             "levy-n-paths-huge", "levy-n-paths-times-modes", "dims-modes-huge",
             "dims-modes-product", "spectrum-modes-above-cap",
             "noise-q-negative", "lambdas-empty", "lambdas-negative", "lambdas-zero",
             "dims-empty", "dims-length-zero", "dims-length-negative", "dims-modes-zero",
             "spectrum-modes-zero", "wave-gamma-zero", "wave-gamma-negative",
             "delta-negative", "delta-one", "delta-overflow"],
    )
    def test_malformed_config_exits_2_with_pointer(self, tmp_path, capsys,
                                                   command, cfg, pointer):
        path = write_cfg(tmp_path, "bad.json", cfg)
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {pointer}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["spectrum", "heat-profile"])
    @pytest.mark.parametrize("dims", [
        # each term is 9.6e307; math.fsum raised OverflowError on their sum
        [[3.2e-154, 1], [3.2e-154, 1]],
        # (pi / 1e300)^2 underflows to the eigenvalue 0
        [[1e300, 4]],
    ])
    def test_box_whose_eigenvalue_overflows_exits_2(self, tmp_path, capsys, command, dims):
        path = write_cfg(tmp_path, "huge.json", heat_cfg(dims=dims))
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: /dims: eigenvalues must be positive and finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over, pointer", [
        # the finite intensity 1.7e308 over 2 lambda_0 = 0.79 overflows
        ({"noise": {"gaussian_q": [1.7e308, 1, 1, 1]}}, "/noise/gaussian_q/0"),
        # a preset over an eigenvalue below 1 / DBL_MAX
        ({"lambdas": [1e-310, 1.0, 2.0, 3.0], "noise": {"gaussian_q": "flat"}},
         "/noise/gaussian_q"),
    ])
    def test_overflowing_heat_variance_exits_2(self, tmp_path, capsys, over, pointer):
        cfg = heat_cfg(dims=[[5.0, 4]], initial=[0, 1]) | over
        path = write_cfg(tmp_path, "q.json", cfg)
        rc = main(["heat-profile", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {pointer}: mode 0: heat equilibrium variance" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rho_grid", [[0.0], []])
    def test_zero_wave_window_state_exits_2(self, tmp_path, capsys, rho_grid):
        cfg = WAVE_WINDOW_CFG | {"rho_grid": rho_grid,
                                 "initial": {"position": [0.0], "velocity": [0.0, 0.0]}}
        path = write_cfg(tmp_path, "zero.json", cfg)
        rc = main(["wave-window", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: /initial: zero state has no oscillatory content\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, err", [
        ("heat-profile", heat_cfg(initial=[0.0, 0.0]),
         "/initial: initial datum is identically zero"),
        ("mult-profile", MULT_CFG | {"initial": [0.0, 0.0, 0.0]},
         "/initial: initial datum is identically zero"),
        # no rho at which to need lambda_1: the zero datum is still rejected
        ("mult-profile", MULT_CFG | {"initial": [0.0, 0.0, 0.0], "rho_grid": []},
         "/initial: initial datum is identically zero"),
        # gamma = 10: lambda = 36 > 25 is oscillatory and holds all the data
        ("wave-profile", WAVE_ON_LAMBDAS | {"lambdas": [9.0, 36.0], "initial": {
            "position": [0.0, 1.0], "velocity": [0.0, 0.0]}},
         "/initial: no overdamped content in the state: use the oscillatory window route"),
        # lambda = 25 = (gamma / 2)^2 carries data
        ("wave-profile", WAVE_ON_LAMBDAS | {"lambdas": [9.0, 25.0, 49.0]},
         "/initial: a critically damped mode carries data: its t e^{-gamma t/2} term has "
         "no single-exponential limit"),
        # the fast root -9 of mode 0 leads, and mode 1 oscillates at decay gamma / 2 = 5
        ("wave-profile", WAVE_ON_LAMBDAS | {"lambdas": [9.0, 36.0], "initial": {
            "position": [1.0, 1.0], "velocity": [-9.0, 0.0]}},
         "/initial: another modal term decays no faster than the putative leader; the "
         "renormalized flow has no single-term limit"),
        ("wave-profile", WAVE_PROFILE_CFG | {"gamma": 1.0},
         "/gamma: no overdamped modes: use the oscillatory window route"),
        # the slowest mode, lambda = 25, is critically damped: with or without
        # data on it the leader raises before decay_constants sees that mode
        ("wave-profile", WAVE_ON_LAMBDAS | {"lambdas": [25.0, 49.0], "initial": {
            "position": [0.0, 1.0], "velocity": [0.0, 0.0]}},
         "/initial: no overdamped content in the state: use the oscillatory window route"),
        ("wave-window", WAVE_WINDOW_CFG | {"gamma": 10.0},
         "/gamma: window diagnostics require subcritical damping"),
        # the case is checked before either grid
        ("wave-window", WAVE_WINDOW_CFG | {"gamma": 10.0, "eps_grid": [2.0]},
         "/gamma: window diagnostics require subcritical damping"),
    ])
    def test_a_wrong_case_exits_2_at_its_pointer(self, tmp_path, capsys, command, cfg, err):
        path = write_cfg(tmp_path, "case.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [("wave-window", WAVE_WINDOW_CFG),
                                              ("wave-profile", WAVE_PROFILE_CFG)])
    @pytest.mark.parametrize("rho_grid, k", [([1.7e308], 0), ([0.0, 1.0, 1.7e308], 2),
                                             ([-1.7e308], 0)])
    def test_a_rho_with_an_infinite_phase_exits_2(self, tmp_path, capsys, command, cfg,
                                                  rho_grid, k):
        # theta_k (t_eps + rho) overflows, and math.cos(inf) raises ValueError
        path = write_cfg(tmp_path, "rho.json", cfg | {"rho_grid": rho_grid})
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: /rho_grid/{k}: t_eps + rho = ")
        assert "every oscillation phase theta_k t must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [
        # t_eps = |ln 1e-4| / (gamma / 2) = 9.2e305, every mode oscillatory
        ("wave-window", WAVE_WINDOW_CFG | {"gamma": 2e-305, "rho_grid": [1.797e308]}),
        # t_eps = 9.3e299 and no oscillatory mode: the phase is 0 * inf
        ("wave-profile", WAVE_PROFILE_CFG | {
            "dims": [[1e150, 2]], "gamma": 1.0, "rho_grid": [1.7976931348623e308],
            "initial": {"position": [1.0], "velocity": [0.0]}}),
    ])
    def test_an_overflowing_cutoff_time_exits_2(self, tmp_path, capsys, command, cfg):
        # t_eps + rho rounds up to inf
        path = write_cfg(tmp_path, "t.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "error: /rho_grid/0: t_eps + rho = inf at eps = 0.0001" in capsys.readouterr().err

    # the four rho-grid commands, each with the rate of its profile factor
    RHO_COMMANDS = [
        ("heat-profile", heat_cfg(), 4.0),
        ("wave-profile", WAVE_PROFILE_CFG,
         wave_spectrum(10.0, build_box_eigensystem([(1.0, 6)])).rate),
        ("wave-window", WAVE_WINDOW_CFG, 0.5),
        ("mult-profile", MULT_CFG, 4.0),
        ("mult-profile", LEVY_MULT_CFG, 4.0),
    ]

    @pytest.mark.parametrize("command, cfg, rate", RHO_COMMANDS)
    @pytest.mark.parametrize("rho_grid, k", [([0.0, -1000.0], 1), ([-1e6, 0.0, -1000.0], 0),
                                             ([0.0, 1.0, -1e300], 2)])
    def test_a_rho_before_time_zero_exits_2(self, tmp_path, capsys, command, cfg, rate,
                                            rho_grid, k):
        # t_eps + rho < 0: before, a pointer-less time error, or an
        # OverflowError traceback from e^{-lambda_1 rho} in mult-profile
        path = write_cfg(tmp_path, "rho.json", cfg | {"rho_grid": rho_grid})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: /rho_grid/{k}: t_eps + rho = -")
        assert err.endswith(": the time must be >= 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, rate", RHO_COMMANDS)
    def test_an_overflowing_profile_factor_exits_2(self, tmp_path, capsys, command, cfg,
                                                   rate):
        # t = t_eps + rho >= 0 at both eps, but rate |rho| > ln DBL_MAX
        rho = -0.99 * abs(math.log(1e-319)) / rate
        path = write_cfg(tmp_path, "rho.json", cfg | {"eps_grid": [1e-319, 1e-320],
                                                      "rho_grid": [0.0, rho]})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: /rho_grid/1: the profile factor e^(-rate rho) overflows")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg", [MULT_CFG, LEVY_MULT_CFG])
    @pytest.mark.parametrize("rho_grid, k", [([1.7e308], 0), ([0.0, 1e307], 1)])
    def test_an_overflowing_decay_exponent_exits_2(self, tmp_path, capsys, cfg, rho_grid, k):
        # 2 lambda_k t overflows: the log-space sum gave NaN rows, exit 1
        path = write_cfg(tmp_path, "rho.json", cfg | {"rho_grid": rho_grid})
        assert main(["mult-profile", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: /rho_grid/{k}: t_eps + rho = ")
        assert "every decay exponent 2 lambda_k t must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [
        # the README wave config with a velocity near -DBL_MAX: 9 rows of
        # nan,inf,inf,false before
        ("wave-profile", WAVE_PROFILE_CFG | {"dims": [[1.0, 11]], "eps_grid": [1e-4, 1e-6, 1e-8],
                                             "rho_grid": [-5.0, 0.0, 5.0], "initial": {
                                                 "position": [1.0, 0.3],
                                                 "velocity": [-1.7e308, 0.1]}}),
        ("wave-window", WAVE_WINDOW_CFG | {"initial": {"position": [1.0, 1.7e308],
                                                       "velocity": [0.0]}}),
        ("heat-profile", heat_cfg(initial=[0.0, 1.0, 1.7e308])),
        ("heat-profile", heat_cfg(initial=[1.7e308, 1.0, 0.5])),
        # sum_k h_k^2 overflows: levy-moment,...,inf,inf,nan,false before
        ("levy-check", LEVY_CHECK_CFG | {"initial": [-1.7e308, 0.5]}),
        # |h| overflows: rate_ratio 0, so every bound was 0 and every row failed
        ("mult-profile", MULT_CFG | {"initial": [0.0, 1.7e308, 1.7e308]}),
    ])
    def test_a_row_beyond_the_largest_double_exits_2_at_initial(self, tmp_path, capsys,
                                                                command, cfg):
        path = write_cfg(tmp_path, "big.json", cfg)
        with warnings.catch_warnings():  # the message is the only output
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: /initial: the ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over, pointer", [
        # the squares of u + x - y overflow: inf,1e+300,nan,false before
        ({"u": 1e300, "p_grid": [2]}, "/u"),
        ({"u": 1.7e308, "p_grid": [2, 1]}, "/u"),
        # 3 |x - y - 1| to the power 2000 overflows whatever u is
        ({"p_grid": [0.5, 2000]}, "/p_grid/1"),
    ])
    def test_a_wasserstein_row_that_is_not_finite_exits_2(self, tmp_path, capsys, over,
                                                          pointer):
        path = write_cfg(tmp_path, "w.json", WASSERSTEIN_CFG | {"n": 200} | over)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["wasserstein-test", "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: the ")
        assert not (tmp_path / "out").exists()

    def test_a_huge_shift_passes_within_its_rounding(self, tmp_path):
        # the estimate is one ulp above |u|^(1/2): a band without its
        # relative rounding term, (2 beta)^(1/2) < 1, would fail the row
        path = write_cfg(tmp_path, "w.json", WASSERSTEIN_CFG | {"n": 200, "u": 1.7e308,
                                                                "p_grid": [0.5]})
        out = tmp_path / "out"
        assert main(["wasserstein-test", "--config", path, "--out", str(out)]) == 0
        shift = (out / "wasserstein_test.csv").read_text().split("\n")[1].split(",")
        assert shift[0] == "shift-linearity" and shift[-1] == "true"
        assert 0 < abs(float(shift[4]) - float(shift[5])) <= float(shift[6]) < 1e-7 * 1.7e308 ** 0.5

    @pytest.mark.parametrize("command, cfg", [
        ("heat-profile", heat_cfg(initial=[0.0, 1.0, 1e300])),
        ("wave-profile", WAVE_PROFILE_CFG | {"initial": {"position": [1.0, 1e300],
                                                         "velocity": [0.0, -1e300]}}),
        ("wave-window", WAVE_WINDOW_CFG | {"initial": {"position": [1.0, 0.5, 1e300],
                                                       "velocity": [0.0, 0.1, 0.0]}}),
    ])
    def test_huge_data_whose_rows_are_finite_run(self, tmp_path, command, cfg):
        # before, the squares of the norms overflowed: inf rows that passed
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, "big.json", cfg),
                     "--out", str(out)]) in (0, 1)
        rows = (out / f"{command.replace('-', '_')}.csv").read_text().strip().split("\n")[1:]
        assert rows and all(math.isfinite(float(x)) for r in rows for x in r.split(",")[4:7])

    @pytest.mark.parametrize("command, cfg", [
        # q / (2 gamma lambda) = 1.7e308 / 0.2 overflows: NaN rows before, and
        # three RuntimeWarnings of the cells before the exit
        ("wave-window", WAVE_WINDOW_CFG | {"gamma": 0.1,
                                           "noise": {"gaussian_q": [1.7e308, 1, 1, 1, 1]}}),
        ("wave-profile", {k: v for k, v in WAVE_PROFILE_CFG.items() if k != "dims"} | {
            "lambdas": [1e-4, 4.0, 9.0], "gamma": 0.1,
            "noise": {"gaussian_q": [1.7e308, 1, 1]}}),
    ], ids=["wave-window", "wave-profile"])
    def test_an_infinite_wave_equilibrium_exits_2_at_the_noise(self, tmp_path, capsys,
                                                               command, cfg):
        path = write_cfg(tmp_path, "q.json", cfg)
        with warnings.catch_warnings():  # checked before any cell: no warning
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: /noise/gaussian_q: the equilibrium second "
                                           "moment sum_k tr A_k is not finite\n")
        assert not (tmp_path / "out").exists()

    def test_the_wave_equilibrium_comes_after_the_rho_checks(self, tmp_path, capsys):
        cfg = WAVE_WINDOW_CFG | {"gamma": 0.1, "noise": {"gaussian_q": [1.7e308, 1, 1, 1, 1]},
                                 "rho_grid": [-1e300]}
        path = write_cfg(tmp_path, "q.json", cfg)
        assert main(["wave-window", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: /rho_grid/0: ")

    @pytest.mark.parametrize("command", ["heat-profile", "wasserstein-test"])
    def test_negative_seed_argument_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--config", "never-read.json"])
        assert exc.value.code == 2
        assert "seed must be an integer >= 0, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, err", [
        # eps^2 g^2 / 2 = 5e7 > lambda_2 = 4: 3 rows inf,1,nan,false before
        ("mult-profile", MULT_CFG | {"g": [[0.5, -1e6, 0.2]]},
         "error: /g: mode 1: the second-moment drift -lambda + eps^2 v / 2 = 5e+07 at "
         "eps = 0.01 is not negative"),
        # eps^2 rate z^2 / 2 overflows the drift: rows of inf before
        ("mult-profile", LEVY_MULT_CFG | {"marks": [LEVY_MULT_CFG["marks"][0] | {"rate": 1e300},
                                                    LEVY_MULT_CFG["marks"][1]]},
         "error: /marks: mode 1: the second-moment drift -lambda + eps^2 v / 2 = "),
        # a mode without data may grow: mode 0 here, whose drift is 49 at eps = 1e-5
        ("mult-profile", MULT_CFG | {"g": [[-1e6, 0.5, 0.2]], "eps_grid": [1e-5, 1e-6, 1e-7]},
         None),
        # the README levy config with -lambda_0 + eps^2 v_0 / 2 = +0.79: the
        # exact moment overflowed, levy-moment,2,0.99,0,0,inf,0,false before
        ("levy-check", {"schema_version": 1, "lambdas": [1e-3, 4.0], "initial": [1.0, 0.5],
                        "marks": [{"values": [0.9, 0.1], "rate": 2.0}], "eta": 0.05,
                        "eps": 0.99, "t": 2000, "n_paths": 1000},
         "error: /marks: mode 0: the second-moment drift -lambda + eps^2 v / 2 = 0.792881 at "
         "eps = 0.99 is not negative: E|X_t|^2 does not decay"),
        ("levy-check", LEVY_CHECK_CFG | {"initial": [0.0, 0.5], "lambdas": [1e-6, 4.0],
                                         "eps": 0.9}, None),
    ], ids=["brownian-g", "levy-rate", "mode-without-data", "levy-check",
            "levy-check-mode-without-data"])
    def test_a_growing_second_moment_exits_2_at_the_noise(self, tmp_path, capsys, command,
                                                          cfg, err):
        path = write_cfg(tmp_path, "m.json", cfg)
        with warnings.catch_warnings():  # the message is the only output
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        if err is None:
            assert rc == 0 and capsys.readouterr().err == ""
            return
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(err)
        assert not (tmp_path / "out").exists()

    def test_a_mult_row_beyond_the_largest_double_exits_2_at_initial(self, tmp_path, capsys):
        # e^{-lambda_1 rho} |v| = e^4 1.7e308 overflows
        path = write_cfg(tmp_path, "m.json", MULT_CFG | {"initial": [0.0, 1.7e308, 0.5],
                                                         "rho_grid": [-1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["mult-profile", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: /initial: the renormalized at rho_or_delta "
                                           "= -1, eps = 0.01 is inf: the data are too large\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("levy-check", LEVY_CHECK_CFG),
        ("mult-profile", LEVY_MULT_CFG),
    ])
    def test_a_huge_mark_exits_2_with_its_true_norm(self, tmp_path, capsys, command, cfg):
        marks = [cfg["marks"][0] | {"values": [1e300] + cfg["marks"][0]["values"][1:]}]
        path = write_cfg(tmp_path, "m.json", cfg | {"marks": marks})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: /marks/0: mark 0: norm 1e+300 outside "
                                           "[eta, 1) = [0.05, 1)\n")

    @pytest.mark.parametrize("command, cfg, rc", [
        # the exact moment and the replay overflow on the way: no warning
        ("levy-check", LEVY_CHECK_CFG | {"lambdas": [1.7e308, 4.0]}, 1),
        ("mult-profile", MULT_CFG | {"lambdas": [1.7e308, 4.0, 9.0]}, 2),
    ])
    def test_a_huge_eigenvalue_prints_no_warning(self, tmp_path, capsys, command, cfg, rc):
        path = write_cfg(tmp_path, "m.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == rc
        err = capsys.readouterr().err
        assert (err == "") if rc == 1 else err.startswith("error: /rho_grid/0: ")

    @pytest.mark.parametrize("command, cfg, pointer", [
        # damping_gap overflows at lambda = DBL_MAX: mode 0 went into the
        # overdamped prefix and wave-window exited at a subcritical state
        ("wave-window", {k: v for k, v in WAVE_WINDOW_CFG.items() if k != "dims"} | {
            "lambdas": [1.0, 1.7976931348623157e308],
            "initial": {"position": [1.0, 0.2], "velocity": [0.0, 0.1]}}, "/lambdas"),
        ("wave-profile", WAVE_PROFILE_CFG | {"dims": [[2.3431068492751863e-154, 1]],
                                             "initial": {"position": [1.0], "velocity": [0.0]}},
         "/dims"),
    ])
    def test_an_overflowing_damping_gap_exits_2_at_the_spectrum(self, tmp_path, capsys,
                                                                command, cfg, pointer):
        path = write_cfg(tmp_path, "w.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {pointer}: mode ")
        assert err[0].endswith("is too large: the damping gap sqrt|gamma^2/4 - lambda| "
                               "is not finite")


# The heat equilibrium variance of mode 0 overflows: exit 2 at its entry.
OVERFLOWING_HEAT_CFG = heat_cfg(dims=[[5.0, 4]], initial=[0, 1],
                                noise={"gaussian_q": [1.7e308, 1, 1, 1]})

# Replacement values of the config fuzz test; DELETE removes the member.
DELETE = object()
FUZZ_VALUES = [None, True, "x", [], {}, [[]], math.nan, math.inf, -math.inf,
               -1, 0, 0.5, 2.5, 1e300, 1.7e308, -1e6, -1.7e308, DELETE]

# Every runner on a valid config, with small sample counts.
FUZZ_CONFIGS = [
    ("heat-profile", heat_cfg()),
    # q_0 / (2 lambda_0) = 1.7e308 / 0.79 overflows: exits 2 while both stay
    ("heat-profile", OVERFLOWING_HEAT_CFG),
    ("wave-profile", WAVE_PROFILE_CFG),
    ("wave-window", WAVE_WINDOW_CFG),
    ("mult-profile", MULT_CFG),
    ("mult-profile", LEVY_MULT_CFG),
    ("levy-check", LEVY_CHECK_CFG | {"n_paths": 20}),
    ("wasserstein-test", WASSERSTEIN_CFG | {"n": 200}),
]


def json_paths(node, path=()):
    """Every JSON pointer of ``node`` as a key tuple, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def mutate(cfg, path, value):
    """``cfg`` with the member at ``path`` replaced by ``value`` or deleted."""
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    *parent, key = path
    node = cfg
    for k in parent:
        node = node[k]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return cfg


class TestConfigFuzz:
    @pytest.mark.parametrize("command, cfg", FUZZ_CONFIGS,
                             ids=[f"{c}-{i}" for i, (c, _) in enumerate(FUZZ_CONFIGS)])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_any_one_member_changed_runs_or_exits_2(self, command, cfg, data):
        path = data.draw(st.sampled_from(list(json_paths(cfg))), label="path")
        value = data.draw(st.sampled_from(FUZZ_VALUES if path else FUZZ_VALUES[:-1]),
                          label="value")
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "fuzz.json")
            with open(cfg_path, "w") as f:
                json.dump(mutate(cfg, path, value), f)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", cfg_path, "--out", os.path.join(tmp, "out")])
            csv_path = os.path.join(tmp, "out", command.replace("-", "_") + ".csv")
            rows = list(csv.DictReader(open(csv_path))) if os.path.exists(csv_path) else []
        assert rc in (0, 1, 2)
        # every command writes finite rows or exits 2 at a JSON pointer
        if rc == 2:
            assert err.getvalue().startswith("error: /") and not rows
        else:
            assert all(math.isfinite(float(r[k])) for r in rows
                       for k in ("renormalized", "profile", "bound"))
        if isinstance(value, float) and not math.isfinite(value):
            assert rc == 2
        # any change that leaves q_0 and the box in place still overflows
        if cfg is OVERFLOWING_HEAT_CFG and path[:1] != ("dims",) and path not in (
                (), ("noise",), ("noise", "gaussian_q"), ("noise", "gaussian_q", 0)):
            assert rc == 2


class TestRuns:
    def test_heat_profile_run_and_header(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "h.json", heat_cfg(delta_grid=[0.5, 2.0]))
        out = tmp_path / "out"
        rc = main(["heat-profile", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        csv_text = (out / "heat_profile.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "case,p,eps,rho_or_delta,renormalized,profile,bound,pass"
        assert len(lines) == 1 + 9 + 6  # grid rows + simple-scan rows
        assert all(line.split(",")[-1] == "true" for line in lines[1:])
        meta = json.loads((out / "heat_profile.json").read_text())
        assert meta["meta"]["lambda_lead"] == pytest.approx(4.0)

    def test_a_near_tie_leads_alone_and_every_row_passes(self, tmp_path):
        # lambda_1 = 1 + 5e-13: lumped into the leader by a relative tie
        # tolerance, its drift left the certificate and 3 rows failed
        cfg = {"schema_version": 1, "lambdas": [1.0, 1.0000000000005, 4.0],
               "initial": [1, 1, 0.5], "noise": {"gaussian_q": [1, 1, 1]},
               "eps_grid": [1e-4, 1e-10, 1e-15], "rho_grid": [0, 5, 20]}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["heat-profile", "--config", write_cfg(tmp_path, "tie.json", cfg),
                       "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "heat_profile.csv")))
        assert len(rows) == 9 and all(r["pass"] == "true" for r in rows)
        assert json.loads((out / "heat_profile.json").read_text())["meta"]["shape_norm"] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "h.json", heat_cfg())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["heat-profile", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["heat-profile", "--config", cfg_path, "--out", str(out2)]) == 0
        b1 = (out1 / "heat_profile.csv").read_bytes()
        b2 = (out2 / "heat_profile.csv").read_bytes()
        assert b1 == b2
        j1 = (out1 / "heat_profile.json").read_bytes()
        j2 = (out2 / "heat_profile.json").read_bytes()
        assert j1 == j2

    def test_threads_do_not_change_output(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "h.json", heat_cfg())
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main(["heat-profile", "--config", cfg_path, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["heat-profile", "--config", cfg_path, "--out", str(out2),
                     "--threads", "4"]) == 0
        assert (out1 / "heat_profile.csv").read_bytes() == \
               (out2 / "heat_profile.csv").read_bytes()

    def test_wave_profile_run(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "w.json", WAVE_PROFILE_CFG)
        out = tmp_path / "wout"
        rc = main(["wave-profile", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        lines = (out / "wave_profile.csv").read_text().strip().split("\n")
        assert len(lines) == 7
        assert all(line.startswith("wave-overdamped,") for line in lines[1:])

    def test_wave_window_run(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "ww.json", WAVE_WINDOW_CFG)
        out = tmp_path / "wwout"
        rc = main(["wave-window", "--config", cfg_path, "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("scale", [0, 532])
    def test_window_centre_is_the_root_of_the_squared_norm(self, tmp_path, scale):
        # the README wave config at gamma = 1, every mode oscillatory; at
        # 2^532 the squared norm overflows, the centre stays finite
        cfg = {"schema_version": 1, "dims": [[1.0, 11]], "gamma": 1.0,
               "initial": {"position": [math.ldexp(1.0, scale), math.ldexp(0.3, scale)],
                           "velocity": [0.0, math.ldexp(0.1, scale)]},
               "noise": {"gaussian_q": "inverse-square"},
               "eps_grid": [1e-4, 1e-6, 1e-8], "rho_grid": [-5.0, 0.0, 5.0]}
        out = tmp_path / "out"
        assert main(["wave-window", "--config", write_cfg(tmp_path, "w.json", cfg),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "wave_window.csv")))
        z = cli._wave_setup(cfg)[1]
        assert len(rows) == 9
        for r in rows:
            rho, eps = float(r["rho_or_delta"]), float(r["eps"])
            t = cutoff_time(eps, 0.5) + rho
            got = float(r["profile"])
            sq = wave_subcritical_norm_sq(t, z)
            if scale == 0:
                assert got == math.exp(-0.5 * rho) * math.sqrt(sq)
            else:
                small = wave_subcritical_norm_sq(t, cli._wave_setup(cfg | {"initial": {
                    "position": [1.0, 0.3], "velocity": [0.0, 0.1]}})[1])
                assert sq == math.inf and math.isfinite(got)
                assert got == pytest.approx(math.ldexp(math.exp(-0.5 * rho) * math.sqrt(small),
                                                       scale), rel=1e-15)

    def test_mult_profile_run(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "m.json", MULT_CFG)
        out = tmp_path / "mout"
        rc = main(["mult-profile", "--config", cfg_path, "--out", str(out)])
        assert rc == 0

    def test_levy_check_run(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "l.json", LEVY_CHECK_CFG)
        out = tmp_path / "lout"
        rc = main(["levy-check", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "levy_check.json").read_text())["meta"]
        assert meta["pathwise_paths"] == 1000
        assert meta["pathwise_underflow_paths"] == 0

    @pytest.mark.parametrize("over", [
        # exp(-1000 t) is 0 in double precision: both flows and the exact
        # moment vanish, so neither row has anything to compare
        {"lambdas": [1000.0, 2000.0]},
        # exp(-730) is subnormal, below the relative error's 1e-300 floor
        {"lambdas": [730.0], "initial": [1.0], "marks": [{"values": [0.3], "rate": 2.0}]},
    ])
    def test_levy_check_fails_when_the_flow_underflows(self, tmp_path, over):
        cfg = LEVY_CHECK_CFG | {"t": 1.0, "n_paths": 1000} | over
        cfg_path = write_cfg(tmp_path, "l.json", cfg)
        out = tmp_path / "lout"
        assert main(["levy-check", "--config", cfg_path, "--out", str(out)]) == 1
        report = json.loads((out / "levy_check.json").read_text())
        assert report["meta"]["pathwise_underflow_paths"] == 1000
        assert report["meta"]["exact_second_moment"] == 0.0
        assert [r["pass"] for r in report["rows"]] == [False, False]

    def test_levy_check_replay_stops_at_the_jump_cap(self, tmp_path, monkeypatch):
        cap = 5
        monkeypatch.setattr(cli, "MAX_EXPECTED_JUMPS", cap)
        cfg_path = write_cfg(tmp_path, "l.json", LEVY_CHECK_CFG)
        out = tmp_path / "lout"
        assert main(["levy-check", "--config", cfg_path, "--out", str(out)]) == 0
        meta = json.loads((out / "levy_check.json").read_text())["meta"]
        # the same counts as the run: the batch of 1,000 paths on stream(seed, 0)
        rate = sum(m["rate"] for m in LEVY_CHECK_CFG["marks"])
        counts = iter(stream(0, 0).poisson(rate * LEVY_CHECK_CFG["t"], 1000).tolist())
        replayed = paths = 0
        while replayed < cap:
            replayed += next(counts)
            paths += 1
        assert 1 <= meta["pathwise_paths"] == paths < 1000

    @pytest.mark.xfail(strict=True, reason="levy-moment is a 4 se z-test on a sample whose "
                       "se is rounding alone; ROADMAP item 5's exact-variance bound fixes it")
    def test_levy_check_at_time_zero_passes(self, tmp_path):
        # every path's |X_0|^2 is h_0^2: the sample mean lands one ulp from the
        # exact moment, and se = 5.3e-18 is rounding alone
        cfg = LEVY_CHECK_CFG | {"initial": [0.9495187682482337, 0.0], "t": 0.0,
                                "n_paths": 62297}
        cfg_path = write_cfg(tmp_path, "l.json", cfg)
        assert main(["levy-check", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0

    def test_spectrum_dump(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "s.json",
                             {"schema_version": 1, "dims": [[math.pi, 4]]})
        rc = main(["spectrum", "--config", cfg_path])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambdas"] == [1.0, 4.0, 9.0, 16.0]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "bad.json", {"schema_version": 1})
        rc = main(["heat-profile", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# The grid walks that CutoffReport.add_grid replaces, kept as byte-for-byte
# references: the CLI's profile-report loop, the simple-cutoff scan and the
# window diagnostics with their row dicts, and the runners that re-mapped
# those dicts into report rows.


def reference_profile_report(eps_grid, rho_grid, case, p, leader, distance, constants,
                             moment, meta):
    report = CutoffReport(meta=meta)
    for rho in rho_grid:
        for eps in eps_grid:
            t = cutoff_time(eps, leader.rate) + rho
            dist = distance(t, eps)
            prof = profile(rho, leader, p)
            bound = error_bound(rho, eps, leader, *constants, moment)
            report.add(case, p, eps, rho, dist, prof, bound)
    return report


def reference_simple_cutoff_scan(delta_grid, eps_grid, h, spec):
    leading = heat_leading_data(h)
    rows = []
    for delta in delta_grid:
        delta = float(delta)
        if delta <= 0:
            raise InvalidDomainError("delta must be positive")
        if abs(delta - 1.0) <= 1e-12:
            raise InvalidDomainError("delta == 1 sits on the cutoff, scan excludes it")
        for eps in eps_grid:
            t = delta * cutoff_time(eps, leading.rate)
            dist, mean, gap = distance_and_gap(t, h, eps, spec)
            rows.append(
                {
                    "delta": delta,
                    "eps": float(eps),
                    "t": t,
                    "distance": dist,
                    "mean": mean,
                    "gap": gap,
                    "regime": "pre" if delta < 1 else "post",
                }
            )
    return rows


def reference_wave_window_diagnostics(rho_grid, eps_grid, z, spec):
    wsp = z.spectrum
    if wsp.n_over != 0:
        raise ConfigError("/gamma", "window diagnostics require subcritical damping")
    if z.is_zero():
        raise ConfigError("/initial", "zero state has no oscillatory content")
    # window_cell's rounding budget, in its docstring's terms
    h, lam, theta = 0.5 * wsp.gamma, wsp.system.lambdas, wsp.theta
    k = z.norm + WaveState(wsp, (h * z.position + z.velocity) / theta,
                           (lam * z.position + h * z.velocity) / theta).norm
    sums = 0.5 * ((wsp.n_modes - 1).bit_length() + 41)
    rows = []
    for rho in rho_grid:
        for eps in eps_grid:
            t = cutoff_time(eps, 0.5 * wsp.gamma) + float(rho)
            dist, _, slack = distance_and_gap(t, z, eps, spec)
            center = math.exp(-0.5 * wsp.gamma * rho) * math.sqrt(
                max(wave_subcritical_norm_sq(t, z), 0.0)
            )
            log_scale = -math.log(eps)
            budget = 2.0 ** -53 * (
                (log_scale + 2.0 * h * (t + abs(rho)) + sums) * (dist + center)
                + 3.0 * (math.exp(-h * t + log_scale) + math.exp(-h * rho)) * k)
            rows.append(
                {
                    "rho": float(rho),
                    "eps": float(eps),
                    "t": t,
                    "distance": dist,
                    "center": center,
                    "slack": slack,
                    "bound": slack + (1.0 + 2.0 ** -40) * budget,
                }
            )
    return rows


def reference_heat_profile(cfg, seed):
    system = cli._build_system(cfg)
    h = cli._coeffs(system, cfg["initial"], "/initial")
    spec = cli._noise_spec(cfg, system)
    try:
        leading = heat_leading_data(h)
    except ZeroInitialDatumError as e:
        raise ConfigError("/initial", str(e)) from e
    report = reference_profile_report(
        cfg["eps_grid"], cfg["rho_grid"], "heat-additive", 2.0, leading,
        lambda t, eps: distance_and_gap(t, h, eps, spec)[0],
        decay_constants("heat", system=system), equilibrium_moment(spec),
        {"lambda_lead": leading.lambda_lead, "shape_norm": leading.shape_norm})
    if cfg.get("delta_grid"):
        for row in reference_simple_cutoff_scan(cfg["delta_grid"], cfg["eps_grid"], h, spec):
            report.add("heat-simple", 2.0, row["eps"], row["delta"],
                       row["distance"], row["mean"], row["gap"])
    return report


def reference_wave_profile(cfg, seed):
    wsp, z, spec = cli._wave_setup(cfg)
    try:
        leader = wave_overdamped_leader(z)
    except WrongCaseError as e:
        raise ConfigError("/initial" if wsp.n_over else "/gamma", str(e)) from e
    return reference_profile_report(
        cfg["eps_grid"], cfg["rho_grid"], "wave-overdamped", 2.0, leader,
        lambda t, eps: distance_and_gap(t, z, eps, spec)[0],
        decay_constants("wave", wave_spec=wsp), equilibrium_moment(spec, wsp),
        {"rate": leader.rate, "shape_norm": leader.shape_norm, "leader_case": leader.case})


def reference_wave_window(cfg, seed):
    wsp, z, spec = cli._wave_setup(cfg)
    report = CutoffReport(meta={"gamma": wsp.gamma})
    for row in reference_wave_window_diagnostics(cfg["rho_grid"], cfg["eps_grid"], z, spec):
        report.add("wave-window", 2.0, row["eps"], row["rho"],
                   row["distance"], row["center"], row["bound"])
    return report


HEAT_RUNNERS = (cli.run_heat_profile, reference_heat_profile)
WAVE_PROFILE_RUNNERS = (cli.run_wave_profile, reference_wave_profile)
WAVE_WINDOW_RUNNERS = (cli.run_wave_window, reference_wave_window)


def report_outcome(run, cfg):
    """The rows of ``run(cfg, 0)`` with every float in hex, and its meta; or
    the error it raises."""
    try:
        report = run(cfg, 0)
    except SpdeCutoffError as e:
        return f"raises {type(e).__name__}: {e}"
    rows = [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
            for r in report.rows]
    return rows, report.meta


# The README's heat-profile and wave-profile / wave-window examples (the
# latter's gamma = 10 leaves mode 1 overdamped, so its wave-window raises),
# and this file's configs for the three commands.
README_HEAT_CFG = {
    "schema_version": 1,
    "dims": [[3.141592653589793, 32]],
    "initial": [0.0, 1.0, 0.5],
    "noise": {"gaussian_q": "inverse-square"},
    "eps_grid": [1e-2, 1e-4, 1e-6, 1e-8],
    "rho_grid": [-1.0, 0.0, 1.0],
    "p": 2.0,
    "delta_grid": [0.5, 2.0],
    "master_seed": 7,
}

README_WAVE_CFG = {
    "schema_version": 1,
    "dims": [[1.0, 11]],
    "gamma": 10.0,
    "initial": {"position": [1.0, 0.3], "velocity": [0.0, 0.1]},
    "noise": {"gaussian_q": "inverse-square"},
    "eps_grid": [1e-4, 1e-6, 1e-8],
    "rho_grid": [-5.0, 0.0, 5.0],
    "master_seed": 7,
}

GRID_CASES = {
    "heat-profile-readme": (HEAT_RUNNERS, README_HEAT_CFG),
    "heat-profile": (HEAT_RUNNERS, heat_cfg(delta_grid=[0.5, 2.0])),
    "wave-profile-readme": (WAVE_PROFILE_RUNNERS, README_WAVE_CFG),
    "wave-window-readme": (WAVE_WINDOW_RUNNERS, README_WAVE_CFG),
    "wave-profile": (WAVE_PROFILE_RUNNERS, WAVE_PROFILE_CFG),
    "wave-window": (WAVE_WINDOW_RUNNERS, WAVE_WINDOW_CFG),
}


@st.composite
def grid_configs(draw):
    """A heat and a wave config on one small simple spectrum: data and noise
    with some modes off, damping that leaves the wave modes overdamped,
    oscillatory or mixed, and grids of one to three points (zero to three
    for delta)."""
    kind = draw(st.sampled_from(["overdamped", "oscillatory", "mixed"]))
    n = draw(st.integers(2 if kind == "mixed" else 1, 5))
    lam0 = draw(st.floats(0.5, 20.0))
    gaps = draw(st.lists(st.floats(0.5, 20.0), min_size=n - 1, max_size=n - 1))
    lam = np.cumsum([lam0] + gaps).tolist()
    if kind == "overdamped":
        gamma = 3.0 * math.sqrt(lam[-1])
    elif kind == "oscillatory":
        gamma = math.sqrt(lam[0])
    else:  # gamma^2 / 4 halfway between lambda_1 and lambda_2
        gamma = math.sqrt(2.0 * (lam[0] + lam[1]))
    # mode 1 on, so that the data mostly have a leader; later modes may be off
    first = st.floats(0.1, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))
    rest = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), max_size=n - 1)
    coeffs = st.builds(lambda a, b: [a] + b, first, rest)
    q = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), min_size=n, max_size=n)
    eps_grid = st.lists(st.floats(-12.0, -0.5).map(lambda u: 10.0 ** u), min_size=1,
                        max_size=3)
    rho_grid = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
    common = {"lambdas": lam, "noise": {"gaussian_q": draw(q)},
              "eps_grid": draw(eps_grid), "rho_grid": draw(rho_grid)}
    delta = st.floats(0.1, 3.0).filter(lambda d: abs(d - 1.0) > 1e-12)
    heat = common | {"initial": draw(coeffs), "delta_grid": draw(st.lists(delta, max_size=3))}
    wave = common | {"gamma": gamma,
                     "initial": {"position": draw(coeffs), "velocity": draw(coeffs)}}
    return heat, wave


NEGATIVE_TIME = "raises InvalidTimeError: time must be finite and >= 0, got "


def assert_equal_walks(run, reference, cfg):
    """``run`` and the reference walk give the same rows or the same error,
    except where the walk meets a time below 0 in a row: the runner refuses
    that rho before any row, at /rho_grid/<k> of the first such rho."""
    outcome, expected = report_outcome(run, cfg), report_outcome(reference, cfg)
    if isinstance(expected, str) and expected.startswith(NEGATIVE_TIME):
        rho = cfg["rho_grid"]
        k = next(k for k in range(len(rho)) if isinstance(
            report_outcome(reference, cfg | {"rho_grid": rho[:k + 1]}), str))
        t = float(expected[len(NEGATIVE_TIME):])
        assert outcome.startswith(f"raises ConfigError: /rho_grid/{k}: t_eps + rho = {t:g} ")
        assert outcome.endswith(": the time must be >= 0")
    else:
        assert outcome == expected
    return outcome


class TestOneGridLoop:
    @pytest.mark.parametrize("name", GRID_CASES)
    def test_rows_equal_the_reference_walks(self, name):
        (run, reference), cfg = GRID_CASES[name]
        outcome = assert_equal_walks(run, reference, cfg)
        assert isinstance(outcome, str) == (name == "wave-window-readme")

    @settings(max_examples=150, deadline=None)
    @given(cfgs=grid_configs())
    def test_small_spectra_and_grids_equal_the_reference_walks(self, cfgs):
        heat, wave = cfgs
        for (run, reference), cfg in [(HEAT_RUNNERS, heat), (WAVE_PROFILE_RUNNERS, wave),
                                      (WAVE_WINDOW_RUNNERS, wave)]:
            assert_equal_walks(run, reference, cfg)


def wave_distance_oracle(t, eps, lam, gamma, q, u, w):
    """W2(N(P(t)z/eps, Sigma_t), N(0, Sigma_inf)) in the graph norm at 450
    digits: P from the two roots -gamma/2 +- sqrt(gamma^2/4 - lambda), real
    or complex, and per mode the closed-form Gaussian W2 of 2x2 blocks,
    tr S1 + tr S2 - 2 sqrt(tr(S1 S2) + 2 sqrt(det S1 det S2))."""
    with mpmath.workdps(450):
        h = mpmath.mpf(gamma) / 2
        total = mpmath.mpf(0)
        for lk, qk, uk, wk in zip(lam, q, u, w):
            lk = mpmath.mpf(lk)
            d = mpmath.sqrt(h * h - lk)
            rp, rm = -h + d, -h - d
            A = mpmath.matrix([[0, 1], [-lk, -2 * h]])
            eye = mpmath.eye(2)
            P = (mpmath.exp(rp * t) * (A - rm * eye) - mpmath.exp(rm * t) * (A - rp * eye)) \
                / (rp - rm)
            P = P.apply(mpmath.re)
            s_inf = mpmath.diag([qk / (4 * h * lk), qk / (4 * h)])
            scale = mpmath.diag([mpmath.sqrt(1 + lk), 1])
            s1 = scale * (s_inf - P * s_inf * P.T) * scale
            s2 = scale * s_inf * scale
            mean = scale * P * mpmath.matrix([uk, wk]) / eps
            cross = mpmath.sqrt(mpmath.det(s1) * mpmath.det(s2))
            total += (mean[0] ** 2 + mean[1] ** 2 + s1[0, 0] + s1[1, 1] + s2[0, 0] + s2[1, 1]
                      - 2 * mpmath.sqrt((s1 * s2)[0, 0] + (s1 * s2)[1, 1] + 2 * cross))
        return mpmath.sqrt(total)


class TestWaveInputsOnTheOnePropagator:
    """Configs that a simple-spectrum, non-critical, weakly damped wave
    spectrum refused: strong damping, a near-zero eigenvalue, ties and
    critically damped modes."""

    def run(self, tmp_path, command, cfg, capsys):
        rc = main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        return rc, capsys.readouterr().err

    def oracle_rows(self, tmp_path, cfg):
        """The rows of a wave-profile run, each with its exact distance."""
        report = json.loads((tmp_path / "out" / "wave_profile.json").read_text())
        system = cli._build_system(cfg)
        n = system.n_modes
        u = cfg["initial"]["position"] + [0.0] * (n - len(cfg["initial"]["position"]))
        w = cfg["initial"]["velocity"] + [0.0] * (n - len(cfg["initial"]["velocity"]))
        q = [1.0 / (k * k) for k in range(1, n + 1)]
        assert report["rows"] and all(r["pass"] for r in report["rows"])
        for r in report["rows"]:
            t = cutoff_time(r["eps"], report["meta"]["rate"]) + r["rho_or_delta"]
            yield r, wave_distance_oracle(t, r["eps"], system.lambdas.tolist(), cfg["gamma"],
                                          q, u, w)

    @pytest.mark.parametrize("gamma", [1e4, 1e5, 1e200])
    def test_strong_damping_runs_and_matches_the_oracle(self, tmp_path, capsys, gamma):
        cfg = README_WAVE_CFG | {"gamma": gamma}
        assert self.run(tmp_path, "wave-profile", cfg, capsys) == (0, "")
        for row, exact in self.oracle_rows(tmp_path, cfg):
            assert abs(row["renormalized"] - exact) <= 1e-12 * exact

    def test_near_zero_eigenvalue_runs_and_its_certificate_holds(self, tmp_path, capsys):
        # The slow root -5 + sqrt(25 - 1e-300) cancels to 0; Vieta's does
        # not.  The equilibrium position variance q / (2 gamma lambda) = 5e298
        # is relaxed only to 1e-8 relative at these times: the exact distance
        # is the variance gap, about 1e141 at eps = 1e-8, which the deficit
        # form keeps where a trace minus twice the Bures term lost it below
        # its rounding.  The certificate holds for the exact distance.
        cfg = {k: v for k, v in README_WAVE_CFG.items() if k != "dims"} | {
            "lambdas": [1e-300, 1.0]}
        assert self.run(tmp_path, "wave-profile", cfg, capsys) == (0, "")
        for row, exact in self.oracle_rows(tmp_path, cfg):
            assert abs(row["renormalized"] - exact) <= 1e-12 * exact
            assert abs(exact - row["profile"]) <= row["bound"]

    def test_slow_rate_too_small_exits_2_at_gamma(self, tmp_path, capsys):
        # the slow rate 2 pi^2 / gamma = 1.2e-307 leaves |ln 1e-8| / rate infinite
        rc, err = self.run(tmp_path, "wave-profile", README_WAVE_CFG | {"gamma": 1.7e308},
                           capsys)
        assert rc == 2 and "/gamma: slowest decay rate" in err

    @pytest.mark.parametrize("command, gamma", [("wave-profile", 3.0), ("wave-window", 1.0)])
    def test_square_with_ties_runs(self, tmp_path, capsys, command, gamma):
        cfg = README_WAVE_CFG | {"dims": [[math.pi, 4], [math.pi, 4]], "gamma": gamma}
        assert self.run(tmp_path, command, cfg, capsys) == (0, "")

    def test_critically_damped_mode(self, tmp_path, capsys):
        # lambda = 25 = (gamma / 2)^2: it runs unless the critical mode carries data
        cfg = README_WAVE_CFG | {"lambdas": [9.0, 25.0, 49.0]}
        del cfg["dims"]
        on_mode_1 = cfg | {"initial": {"position": [1.0], "velocity": [0.0]}}
        assert self.run(tmp_path, "wave-profile", on_mode_1, capsys) == (0, "")
        rc, err = self.run(tmp_path, "wave-profile", cfg, capsys)
        assert rc == 2 and "critically damped" in err
