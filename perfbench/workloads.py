"""Seeded workloads: each is a fixed list of ``spdecutoff`` CLI commands run
on JSON configs generated from a workload seed.

The seed sets ``master_seed`` and the non-leading initial coefficients only.
The leading-mode structure, grids, box and noise stay fixed, so every seed
keeps an overdamped wave leader with a negative margin, a nonzero heat
leader and admissible multiplicative schedules, and every seed does the same
amount of work.  The program under test receives nothing but the generated
JSON (no ``--seed`` override).
"""
from __future__ import annotations

import json
import math
import os
import random

# Seed whose outputs are stored under golden/ (captured with capture_golden.py).
GOLDEN_SEED = 0

WORKLOADS = ("wave-overdamped", "heat-3d", "wave-window", "monte-carlo")

# Box with distinct side ratios, 30 modes per axis: M = 27,000, no ties.
_BOX_3D = [[math.pi, 30], [1.1 * math.pi, 30], [1.3 * math.pi, 30]]
_M_3D = 30 ** 3


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _wave_overdamped(rng: random.Random, master_seed: int) -> list:
    # gamma = 10 on (0, 1): gamma^2 > 4 lambda_1 but < 4 lambda_2, so only
    # mode 1 is overdamped and its slow root leads.  README initial data with
    # the non-leading coefficients drawn from the seed.  21 modes keep a pass
    # near 1.5 s, so that a run holds tens of passes, not two.
    cfg = {
        "schema_version": 1,
        "dims": [[1.0, 21]],
        "gamma": 10.0,
        "initial": {
            "position": [1.0, _signed(rng, 0.05, 0.5)],
            "velocity": [0.0, _signed(rng, 0.05, 0.5)],
        },
        "noise": {"gaussian_q": "inverse-square"},
        "eps_grid": [1e-4, 1e-6, 1e-8, 1e-10, 1e-12],
        "rho_grid": [-5.0, -2.5, 0.0, 2.5, 5.0],
        "master_seed": master_seed,
    }
    return [("wave-profile", "wave_profile.json", cfg, 1)]


def _heat_initial(rng: random.Random) -> list:
    # Mode 1 is off and mode 2 leads with coefficient 1.
    return [0.0, 1.0] + [_signed(rng, 0.05, 0.5) for _ in range(6)]


def _heat_3d(rng: random.Random, master_seed: int) -> list:
    initial = _heat_initial(rng)
    heat = {
        "schema_version": 1,
        "dims": _BOX_3D,
        "initial": initial,
        "noise": {"gaussian_q": "inverse-square"},
        "eps_grid": [10.0 ** -k for k in range(3, 15)],
        "rho_grid": [0.25 * k for k in range(-6, 7)],
        "p": 2.0,
        "delta_grid": [0.25, 0.5, 0.75, 1.5, 2.0, 3.0],
        "master_seed": master_seed,
    }
    mult = {
        "schema_version": 1,
        "dims": _BOX_3D,
        "initial": initial,
        "eps_grid": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
        "rho_grid": [-1.0, 0.0, 1.0],
        "schedule": "eps",
        "master_seed": master_seed,
    }
    brownian = dict(mult, noise_kind="brownian",
                    g=[[0.5 / (j + 1) for j in range(_M_3D)]])
    levy = dict(mult, noise_kind="levy", eta=0.05, marks=[
        {"values": [0.3 / (j + 1) for j in range(_M_3D)], "rate": 2.0},
        {"values": [0.2 * (-1) ** j / (j + 1) for j in range(_M_3D)], "rate": 1.0},
    ])
    return [
        ("heat-profile", "heat_profile.json", heat, 2),
        ("mult-profile", "mult_brownian.json", brownian, 1),
        ("mult-profile", "mult_levy.json", levy, 1),
    ]


def _wave_window(rng: random.Random, master_seed: int) -> list:
    # gamma = 1 on (0, 1): gamma^2 < 4 lambda_1, every mode is oscillatory.
    cfg = {
        "schema_version": 1,
        "dims": [[1.0, 201]],
        "gamma": 1.0,
        "initial": {
            "position": [1.0, _signed(rng, 0.05, 0.5)],
            "velocity": [0.0, _signed(rng, 0.05, 0.5)],
        },
        "noise": {"gaussian_q": "inverse-square"},
        "eps_grid": [1e-2, 1e-4, 1e-6, 1e-8],
        "rho_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "p": 2.0,
        "master_seed": master_seed,
    }
    return [("wave-window", "wave_window.json", cfg, 1)]


def _monte_carlo(rng: random.Random, master_seed: int) -> list:
    n = 64
    levy = {
        "schema_version": 1,
        "lambdas": [float(k * k) for k in range(1, n + 1)],
        "initial": [1.0] + [_signed(rng, 0.05, 0.5) for _ in range(3)],
        "marks": [
            {"values": [0.3 / k for k in range(1, n + 1)], "rate": 2.0},
            {"values": [0.2 * (-1) ** k / k for k in range(1, n + 1)], "rate": 1.0},
        ],
        "eta": 0.05,
        "eps": 0.05,
        "t": 2.0,
        "n_paths": 200_000,
        "master_seed": master_seed,
    }
    wass = {"schema_version": 1, "master_seed": master_seed}
    return [
        ("levy-check", "levy_check.json", levy, 1),
        ("wasserstein-test", "wasserstein_test.json", wass, 1),
    ]


_BUILDERS = {
    "wave-overdamped": _wave_overdamped,
    "heat-3d": _heat_3d,
    "wave-window": _wave_window,
    "monte-carlo": _monte_carlo,
}


def generate(workload: str, seed: int) -> list:
    """The workload's commands for ``seed``: a list of
    ``(command, config_file_name, config_dict, threads)``."""
    rng = random.Random(f"{workload}/{seed}")
    master_seed = rng.randrange(2 ** 31)
    return _BUILDERS[workload](rng, master_seed)


def write_commands(workload: str, seed: int, config_dir: str, out_dir: str) -> list:
    """Write the configs for ``seed`` into ``config_dir`` and return one CLI
    argv per command; command i writes its outputs under ``out_dir/i``."""
    os.makedirs(config_dir, exist_ok=True)
    argvs = []
    for i, (command, name, cfg, threads) in enumerate(generate(workload, seed)):
        path = os.path.join(config_dir, name)
        with open(path, "w") as f:
            json.dump(cfg, f)
        argvs.append([command, "--config", path, "--out", os.path.join(out_dir, str(i)),
                      "--threads", str(threads)])
    return argvs
