"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the stated tolerance.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import norm

from spdecutoff import (
    CutoffReport,
    EigenSystem,
    JumpMark,
    ModeCoefficients,
    MultBrownianSpec,
    MultLevySpec,
    NoiseSpec,
    build_box_eigensystem,
    cutoff_time,
    decay_constants,
    distance_and_gap,
    equilibrium_moment,
    error_bound,
    heat_apply,
    heat_gaussian_convolution_law,
    heat_leading_data,
    levy_pathwise_check,
    mult_profile,
    mult_second_moment_exact,
    profile,
    stream,
    w2_diag_gaussian,
    wave_apply,
    wave_decompose,
    wave_overdamped_leader,
    wave_spectrum,
    wave_subcritical_norm_sq,
    window_cell,
    wp_empirical_1d,
)
from spdecutoff.cli import main, run_heat_profile
from spdecutoff.multiplicative import levy_stochexp_batch
from spdecutoff.noise_sim import sample_jump_realization


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def heat_reference_setup():
    system = build_box_eigensystem([(math.pi, 32)])
    h = ModeCoefficients(system, np.concatenate([[0.0, 1.0, 0.5], np.zeros(29)]))
    q = 1.0 / np.arange(1.0, 33.0) ** 2
    return system, h, NoiseSpec(system=system, gaussian_q=q)


def test_criterion_01_shift_linearity():
    # closed form: W2(2 + N(0,1), N(0,1)) = 2 exactly
    closed = w2_diag_gaussian([2.0], [1.0], [0.0], [1.0])
    ok_closed = abs(closed - 2.0) <= 1e-12
    # empirical p = 2 at n = 1e5, SE from 20 repetitions
    n, reps = 100_000, 20
    rng = stream(1001, 0)
    ests = np.array([
        wp_empirical_1d(rng.standard_normal(n) + 2.0, rng.standard_normal(n), 2.0)
        for _ in range(reps)
    ])
    se = ests.std(ddof=1) / math.sqrt(reps)
    ok_mc = abs(ests.mean() - 2.0) <= 4.0 * se
    # p = 1/2 sandwich: sorted coupling is only optimal for convex cost, so
    # for p < 1 solve the exact empirical assignment problem instead
    from scipy.optimize import linear_sum_assignment

    def empirical_half(rng, m):
        x = rng.standard_normal(m) + 2.0
        y = rng.standard_normal(m)
        cost = np.abs(x[:, None] - y[None, :]) ** 0.5
        rows, cols = linear_sum_assignment(cost)
        return cost[rows, cols].mean()

    half = np.array([empirical_half(rng, 1000) for _ in range(10)])
    moment = float(norm.expect(lambda x: abs(x) ** 0.5))
    lo = max(2.0 ** 0.5 - 2.0 * moment, 0.0)
    hi = 2.0 ** 0.5
    ok_half = lo <= half.mean() <= hi
    report("criterion 1 (shift linearity)",
           ok_closed and ok_mc and ok_half,
           f"closed={closed:.15f}, mc={ests.mean():.6f}+-{se:.2g}, "
           f"p=1/2 est={half.mean():.6f} in [{lo:.4f}, {hi:.4f}]")


def test_criterion_02_heat_profile():
    start = time.time()
    system, h, spec = heat_reference_setup()
    lead = heat_leading_data(h)
    c, rate = decay_constants("heat", system=system)
    moment = equilibrium_moment(spec)
    ok = True
    details = []
    for rho in (-1.0, 0.0, 1.0):
        prev = math.inf
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            t = cutoff_time(eps, lead.rate) + rho
            dist = distance_and_gap(t, h, eps, spec)[0]
            prof = profile(rho, lead)
            assert prof == pytest.approx(math.exp(-4.0 * rho), rel=1e-12)
            bound = error_bound(rho, eps, lead, c, rate, moment)
            resid = abs(dist - prof)
            ok = ok and resid <= bound and resid <= prev + 1e-18
            prev = resid
        details.append(f"rho={rho:+.0f} resid={resid:.3g}<=bound={bound:.3g}")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report("criterion 2 (heat profile + error bound)", ok,
           "; ".join(details) + f"; runtime={elapsed:.2f}s")


def test_criterion_03_simple_cutoff():
    # heat_reference_setup's system, datum and noise as a heat-profile
    # config: its heat-simple rows at delta * t_eps
    cfg = {"dims": [[math.pi, 32]], "initial": [0.0, 1.0, 0.5],
           "noise": {"gaussian_q": "inverse-square"}, "eps_grid": [1e-8],
           "rho_grid": [], "delta_grid": [0.5, 2.0]}
    pre, post = (r["renormalized"] for r in run_heat_profile(cfg, 0).rows)
    ok = pre > 1e3 and post < 1e-3
    report("criterion 3 (simple cutoff)", ok,
           f"delta=1/2: {pre:.4g} > 1e3; delta=2: {post:.4g} < 1e-3")


def test_criterion_04_cutoff_inequality():
    system, _, spec = heat_reference_setup()
    rng = np.random.default_rng(1004)
    violations = 0
    for _ in range(100):
        h = ModeCoefficients(system, rng.standard_normal(32))
        t = float(rng.uniform(0.0, 5.0))
        eps = float(10.0 ** rng.uniform(-8.0, -0.3))
        # |d_eps(t) - |S(t)h|/eps| <= W2(conv_t, conv_inf)
        lhs, _, bound = distance_and_gap(t, h, eps, spec)
        if abs(lhs - heat_apply(t, h, log_scale=-math.log(eps)).norm) > bound:
            violations += 1
    report("criterion 4 (cutoff inequality, 100 random cells)",
           violations == 0, f"violations={violations}")


def test_criterion_05_wave_overdamped():
    # gamma = 10 on the unit interval: lambda_1 = pi^2 is the only
    # overdamped mode, the next 10 are oscillatory
    system = build_box_eigensystem([(1.0, 11)])
    wsp = wave_spectrum(10.0, system)
    assert wsp.n_over == 1 and wsp.n_modes == 11
    u = np.concatenate([[1.0, 0.3, -0.2], np.zeros(8)])
    w = np.concatenate([[0.0, 0.1, 0.05], np.zeros(8)])
    z = wave_decompose(wsp, u, w)
    lead = wave_overdamped_leader(z)
    # decay certificate on [0, 40 / rate]
    lam = system.lambdas
    shape_u = lead.shape.position
    shape_w = lead.shape.velocity
    violations = 0
    for t in np.linspace(0.0, 40.0 / lead.rate, 400):
        zt = wave_apply(float(t), z, log_scale=lead.rate * float(t))
        du = zt.position - shape_u
        dw = zt.velocity - shape_w
        err = math.sqrt(float(np.sum((1 + lam) * du ** 2 + dw ** 2)))
        if err > lead.amplitude * math.exp(lead.margin * float(t)) + 1e-12:
            violations += 1
    q = 1.0 / np.arange(1.0, 12.0) ** 2
    spec = NoiseSpec(system=system, gaussian_q=q)
    eps = 1e-8
    worst_rel = 0.0
    for rho in (-1.0, 0.0, 1.0):
        t = cutoff_time(eps, lead.rate) + rho
        dist = distance_and_gap(t, z, eps, spec)[0]
        prof = profile(rho, lead)
        worst_rel = max(worst_rel, abs(dist - prof) / prof)
    ok = violations == 0 and worst_rel <= 0.10
    report("criterion 5 (wave overdamped profile)", ok,
           f"certificate violations={violations}, worst profile rel dev={worst_rel:.3g}")


def test_criterion_06_wave_subcritical():
    system = build_box_eigensystem([(math.pi, 8)])
    wsp = wave_spectrum(1.0, system)
    assert wsp.n_over == 0
    rng = np.random.default_rng(1006)
    lam = system.lambdas
    worst = 0.0
    for _ in range(1000):
        uv = rng.standard_normal(8)
        wv = rng.standard_normal(8)
        z = wave_decompose(wsp, uv, wv)
        t = float(rng.uniform(0.0, 10.0))
        closed = wave_subcritical_norm_sq(t, z)
        # 2x2 matrix-exponential oracle
        direct = 0.0
        for k in range(8):
            A = np.array([[0.0, 1.0], [-lam[k], -1.0]])
            vec = expm(t * A) @ np.array([uv[k], wv[k]])
            direct += (1 + lam[k]) * vec[0] ** 2 + vec[1] ** 2
        direct *= math.exp(1.0 * t)
        worst = max(worst, abs(closed - direct) / max(direct, 1e-300))
    ok_oracle = worst <= 1e-8
    # grid minimum of the oscillating center over one slow period
    z = wave_decompose(wsp, rng.standard_normal(8), rng.standard_normal(8))
    period = 2.0 * math.pi / float(np.min(wsp.theta))
    grid_min = min(math.sqrt(max(wave_subcritical_norm_sq(float(t), z), 0.0))
                   for t in np.linspace(0.0, period, 2048))
    ok_min = grid_min > 0.0
    q = 1.0 / np.arange(1.0, 9.0) ** 2
    spec = NoiseSpec(system=system, gaussian_q=q)
    rows = CutoffReport().add_grid("wave-window", 2.0, [-5.0, 5.0], [1e-8],
                                   window_cell(z, spec)).rows
    ratio = rows[0]["renormalized"] / rows[1]["renormalized"]
    ok_window = ratio > 100.0
    report("criterion 6 (wave subcritical window)",
           ok_oracle and ok_min and ok_window,
           f"oracle worst rel={worst:.2g}, grid min={grid_min:.4g}, "
           f"window ratio={ratio:.4g}")


def brownian_flow_sample(t, h, spec, rng, size):
    """(size, n_modes) exact draws of the Brownian multiplicative flow at
    time t: mode j is the lognormal
    h_j exp((-lambda_j - eps^2 sum_i g_ij^2 / 2) t + eps sum_i g_ij B_i(t))."""
    drift = (-spec.system.lambdas - 0.5 * spec.variance_rate()) * t
    bm = math.sqrt(t) * rng.standard_normal((size, spec.g.shape[0]))
    return h.values * np.exp(drift + spec.eps * bm @ spec.g)


def test_criterion_07_multiplicative_brownian():
    rng = np.random.default_rng(1007)
    system = EigenSystem.from_lambdas([1.0, 4.0, 9.0])
    h = ModeCoefficients(system, np.array([0.0, 1.0, 0.5]))
    failures = 0
    for cfg in range(20):
        t = float(rng.uniform(0.1, 2.0))
        eps = float(10.0 ** rng.uniform(-3.0, -0.7))
        g = rng.uniform(-1.0, 1.0, size=(2, 3))
        spec = MultBrownianSpec(system, g, eps)
        x = brownian_flow_sample(t, h, spec, stream(1007, cfg), 10_000)
        sq = np.sum(x ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        if abs(sq.mean() - mult_second_moment_exact(t, h, spec)) > 4.0 * se:
            failures += 1
    # profile with a_eps = eps: residual <= K * a^(1 - l1/l2) |h| with K
    # fixed at the coarsest grid point
    g = np.array([[0.5, 1.0, 0.2]])
    rows = mult_profile(1.0, h, [MultBrownianSpec(system, g, e)
                                 for e in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]])
    k0 = rows[0]["rate_ratio"]
    ok_rate = all(r["rate_ratio"] <= k0 * (1 + 1e-9) for r in rows)
    ok_conv = rows[-1]["residual"] < rows[0]["residual"]
    ok = failures == 0 and ok_rate and ok_conv
    report("criterion 7 (multiplicative Brownian)", ok,
           f"MC failures={failures}/20, rate certificate={'ok' if ok_rate else 'violated'}")


def test_criterion_08_levy_stochastic_exponential():
    system = EigenSystem.from_lambdas([1.0, 4.0, 9.0])
    h = ModeCoefficients(system, np.array([1.0, 0.5, -0.25]))
    marks = (
        JumpMark(np.array([0.3, 0.15, 0.1]), 2.0),
        JumpMark(np.array([-0.2, 0.1, -0.05]), 1.0),
    )
    spec = MultLevySpec(system, marks, 0.05, 0.05)
    t = 0.8
    paths = sample_jump_realization(t, spec.marks, stream(1008, 0), 1000)
    worst, underflow = levy_pathwise_check(t, h, spec, paths)
    ok_path = worst <= 1e-10 and underflow == 0
    sq = levy_stochexp_batch(t, h, spec, stream(1008, 1), 100_000)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    exact = mult_second_moment_exact(t, h, spec)
    ok_mc = abs(sq.mean() - exact) <= 4.0 * se
    report("criterion 8 (jump stochastic exponential)", ok_path and ok_mc,
           f"pathwise worst rel={worst:.2g}, MC moment {sq.mean():.6f} vs "
           f"exact {exact:.6f} (4se={4 * se:.2g})")


def test_criterion_09_large_initial_data():
    _, h, spec = heat_reference_setup()
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(50):
        hv = ModeCoefficients(h.system, rng.standard_normal(32))
        t = float(rng.uniform(0.0, 4.0))
        eps = float(10.0 ** rng.uniform(-6.0, -0.5))
        # W2(X_t^eps(h), eq^eps) / eps = W2(X_t^1(h / eps), eq^1)
        lhs = distance_and_gap(t, hv, eps, spec)[0]
        mean = heat_apply(t, ModeCoefficients(hv.system, hv.values / eps)).values
        rhs = w2_diag_gaussian(mean, heat_gaussian_convolution_law(t, spec),
                               np.zeros_like(mean), spec.heat_equilibrium_var)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    report("criterion 9 (large initial data identity)", worst <= 1e-12,
           f"worst rel={worst:.2g}")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "dims": [[math.pi, 16]],
        "initial": [0.0, 1.0, 0.5],
        "noise": {"gaussian_q": "inverse-square"},
        "p": 2.0,
        "eps_grid": [1e-2, 1e-4, 1e-6],
        "rho_grid": [-1.0, 0.0, 1.0],
        "delta_grid": [0.5, 2.0],
        "master_seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["heat-profile", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["heat-profile", "--config", str(cfg_path), "--out", str(out2)])
    b1 = (out1 / "heat_profile.csv").read_bytes()
    b2 = (out2 / "heat_profile.csv").read_bytes()
    header_ok = b1.decode().splitlines()[0] == \
        "case,p,eps,rho_or_delta,renormalized,profile,bound,pass"
    report("criterion 10 (byte-identical determinism)",
           rc1 == 0 and rc2 == 0 and b1 == b2 and header_ok,
           f"{len(b1)} bytes identical, header ok={header_ok}")
