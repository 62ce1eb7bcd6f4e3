"""Multiplicative-noise tests.

Oracles: an exact lognormal sampler of the Brownian flow, checked by
Euler-Maruyama pathwise integration and Kolmogorov-Smirnov against the
lognormal marginal, quadrature/Campbell cross-checks and the interlacing
evaluation for the jump flow.
"""
import collections
import json
import math
import tempfile
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest, poisson

from spdecutoff import (
    EigenSystem,
    JumpMark,
    ModeCoefficients,
    MultBrownianSpec,
    MultLevySpec,
    build_box_eigensystem,
    heat_leading_data,
    levy_flow_oracle,
    levy_pathwise_check,
    mult_profile,
    mult_second_moment_exact,
    stream,
)
from spdecutoff.errors import (
    InvalidDomainError,
    InvalidTimeError,
    MarkOutOfRangeError,
    ScheduleRejectedError,
)
from spdecutoff import cli, multiplicative
from spdecutoff.multiplicative import (
    _count_histogram,
    _log_space_root_sum,
    _poisson_window,
    levy_stochexp_batch,
    mult_distance_to_zero,
    schedule_values,
)
from spdecutoff.noise_sim import JumpRealization, sample_jump_realization


def brownian_specs(system, g, eps_grid):
    return [MultBrownianSpec(system, g, e) for e in eps_grid]


def brownian_flow_sample(t, h, spec, rng, size=None):
    """Exact draws of the Brownian multiplicative flow at time t, (n_modes,)
    or (size, n_modes): mode j is the lognormal
    h_j exp((-lambda_j - eps^2 sum_i g_ij^2 / 2) t + eps sum_i g_ij B_i(t))."""
    drift = (-spec.system.lambdas - 0.5 * spec.variance_rate()) * t
    shape = (spec.g.shape[0],) if size is None else (size, spec.g.shape[0])
    bm = math.sqrt(t) * rng.standard_normal(shape)
    return h.values * np.exp(drift + spec.eps * bm @ spec.g)


def brownian_setup(eps=0.1):
    system = EigenSystem.from_lambdas([1.0, 4.0, 9.0])
    h = ModeCoefficients(system, np.array([0.0, 1.0, 0.5]))
    g = np.array([[0.5, 1.0, 0.2], [0.1, -0.3, 0.4]])
    return system, h, MultBrownianSpec(system, g, eps)


class TestBrownianFlow:
    def test_zero_noise_reduces_to_heat(self):
        system, h, _ = brownian_setup()
        spec = MultBrownianSpec(system, np.zeros((1, 3)), 0.5)
        x = brownian_flow_sample(1.0, h, spec, stream(1, 0))
        assert np.allclose(x, h.values * np.exp(-system.lambdas), rtol=1e-13)

    def test_zero_initial_mode_stays_zero(self):
        system, h, spec = brownian_setup()
        x = brownian_flow_sample(2.0, h, spec, stream(1, 1), size=50)
        assert np.all(x[:, 0] == 0.0)

    def test_lognormal_marginal_ks(self):
        system, h, spec = brownian_setup(eps=0.3)
        t = 1.5
        x = brownian_flow_sample(t, h, spec, stream(2, 0), size=20_000)
        j = 1  # h_j = 1
        v = float(spec.variance_rate()[j])
        mu = (-system.lambdas[j] - 0.5 * v) * t
        sigma = math.sqrt(v * t)
        stat = kstest(np.log(x[:, j]), "norm", args=(mu, sigma))
        assert stat.pvalue > 1e-3

    def test_euler_maruyama_pathwise(self):
        # same Brownian increments through the exact flow and an EM scheme
        system = EigenSystem.from_lambdas([1.0, 4.0])
        h = ModeCoefficients(system, np.array([1.0, 0.5]))
        g = np.array([[0.8, 0.3]])
        spec = MultBrownianSpec(system, g, 0.2)
        rng = stream(3, 0)
        t, steps = 1.0, 20_000
        dt = t / steps
        dB = math.sqrt(dt) * rng.standard_normal(steps)
        x = h.values.copy()
        for k in range(steps):
            x = x + (-system.lambdas * x) * dt + spec.eps * g[0] * x * dB[k]
        drift = (-system.lambdas - 0.5 * spec.eps**2 * np.sum(g**2, axis=0)) * t
        exact = h.values * np.exp(drift + spec.eps * g[0] * dB.sum())
        assert np.allclose(x, exact, rtol=2e-2)

    def test_second_moment_exact_vs_mc(self):
        system, h, spec = brownian_setup(eps=0.2)
        t = 0.8
        x = brownian_flow_sample(t, h, spec, stream(4, 0), size=100_000)
        sq = np.sum(x**2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - mult_second_moment_exact(t, h, spec)) <= 4 * se

    def test_distance_to_zero_log_space(self):
        system, h, spec = brownian_setup(eps=0.01)
        t = 400.0
        d = mult_distance_to_zero(t, h, spec, log_scale=4.0 * t)
        # mode 1 (lambda = 4) dominates after renormalization
        gain = 0.5 * spec.variance_rate()[1]
        assert d == pytest.approx(math.exp(gain * t), rel=1e-6)

    def test_the_drift_is_half_eps_squared_times_sum_g_squared_bit_for_bit(self):
        # 0.5 * (eps^2 sum g^2), through variance_rate, is the same double as
        # (0.5 eps^2) sum g^2 outside subnormals: mult-profile rows keep their bits
        rng = np.random.default_rng(5)
        system = EigenSystem.from_lambdas(np.sort(rng.uniform(0.1, 50.0, 40)))
        for eps in (0.9, 0.1, 1e-3, 1e-8):
            g = rng.normal(size=(3, 40))
            old = -system.lambdas + 0.5 * eps ** 2 * np.sum(g ** 2, axis=0)
            drift = MultBrownianSpec(system, g, eps).second_moment_drift
            assert drift.tobytes() == old.tobytes()

    def test_dimension_mismatch(self):
        system = EigenSystem.from_lambdas([1.0, 2.0])
        with pytest.raises(Exception):
            MultBrownianSpec(system, np.array([[1.0, 2.0, 3.0]]), 0.1)


class TestSchedules:
    def test_known_values(self):
        a = schedule_values("eps", [1e-2, 1e-4])
        assert np.allclose(a, [1e-2, 1e-4])
        a = schedule_values("sqrt", [1e-2, 1e-4])
        assert np.allclose(a, [1e-1, 1e-2])

    def test_unknown_rejected(self):
        with pytest.raises(ScheduleRejectedError):
            schedule_values("cubic", [1e-2])

    def test_not_yet_small_rejected(self):
        with pytest.raises(ScheduleRejectedError):
            schedule_values("eps", [0.9])

    def test_bad_grid_rejected(self):
        with pytest.raises(ScheduleRejectedError):
            schedule_values("eps", [2.0, 0.5])


class TestBrownianProfile:
    def test_profile_convergence_and_rate(self):
        system, h, spec = brownian_setup()
        rows = mult_profile(1.0, h, brownian_specs(system, spec.g,
                                                   [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]))
        prof = math.exp(-4.0)
        residuals = [r["residual"] for r in rows]
        ratios = [r["rate_ratio"] for r in rows]
        assert all(r["profile"] == pytest.approx(prof) for r in rows)
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))
        # rate certificate: ratio bounded by its coarsest-grid value
        assert all(x <= ratios[0] * (1 + 1e-9) for x in ratios)
        assert rows[-1]["residual"] < 1e-2 * prof

    def test_rho_dependence(self):
        system, h, spec = brownian_setup()
        r0 = mult_profile(0.0, h, brownian_specs(system, spec.g, [1e-5]))[0]
        r1 = mult_profile(1.0, h, brownian_specs(system, spec.g, [1e-5]))[0]
        assert r0["distance"] > r1["distance"]
        assert r0["profile"] / r1["profile"] == pytest.approx(math.exp(4.0), rel=1e-12)


def levy_setup(eps=0.05, eta=0.05):
    system = EigenSystem.from_lambdas([1.0, 4.0, 9.0])
    h = ModeCoefficients(system, np.array([0.0, 1.0, 0.5]))
    marks = (
        JumpMark(np.array([0.3, 0.15, 0.1]), 2.0),
        JumpMark(np.array([-0.2, 0.1, -0.05]), 1.0),
    )
    return system, h, MultLevySpec(system, marks, eta, eps)


class TestLevyFlow:
    def test_mark_validation(self):
        system = EigenSystem.from_lambdas([1.0])
        with pytest.raises(MarkOutOfRangeError):
            MultLevySpec(system, (JumpMark(np.array([1.5]), 1.0),), 0.1, 0.1)
        with pytest.raises(MarkOutOfRangeError):
            MultLevySpec(system, (JumpMark(np.array([0.01]), 1.0),), 0.1, 0.1)
        with pytest.raises(InvalidDomainError):
            MultLevySpec(system, (JumpMark(np.array([0.5]), 1.0),), 1.5, 0.1)

    def test_single_jump_factor(self):
        # one jump at tau multiplies mode j by (1 + eps z_j) on top of the
        # deterministic drift
        system, h, spec = levy_setup()
        t, tau = 1.0, 0.4
        jumps = JumpRealization(t=t, counts=np.array([1]), times=np.array([tau]),
                                mark_indices=np.array([0]))
        x = levy_flow_oracle(t, h, spec, jumps)
        drift = -system.lambdas - spec.compensator_drift()
        expect = h.values * np.exp(drift * t) * (1.0 + spec.eps * spec.marks[0].values)
        assert np.allclose(x, expect, rtol=1e-13)
        assert np.allclose(batch_flows(t, h, spec, jumps)[0][0], expect, rtol=1e-13)

    def test_stochexp_matches_interlacing_pathwise(self):
        system, h, spec = levy_setup()
        paths = sample_jump_realization(0.8, spec.marks, stream(5), 200)
        worst, underflow = levy_pathwise_check(0.8, h, spec, paths)
        assert worst <= 1e-12
        assert underflow == 0

    def test_linearity_in_initial_datum(self):
        system, h, spec = levy_setup()
        jumps = sample_jump_realization(1.0, spec.marks, stream(6, 0))
        x1 = batch_flows(1.0, h, spec, jumps)[0][0]
        h2 = ModeCoefficients(system, 3.0 * h.values)
        x2 = batch_flows(1.0, h2, spec, jumps)[0][0]
        assert np.allclose(x2, 3.0 * x1, rtol=1e-13)

    def test_second_moment_against_direct_campbell(self):
        # independent evaluation: E prod (1+eps z)^{2 N_m} with N_m Poisson
        system, h, spec = levy_setup(eps=0.07)
        t = 1.3
        lam = system.lambdas
        expo = -2.0 * lam * t - 2.0 * t * spec.compensator_drift()
        for m in spec.marks:
            expo = expo + t * m.rate * ((1.0 + spec.eps * m.values) ** 2 - 1.0)
        direct = float(np.sum(h.values**2 * np.exp(expo)))
        assert mult_second_moment_exact(t, h, spec) == pytest.approx(direct, rel=1e-12)

    def test_second_moment_vs_mc(self):
        system, h, spec = levy_setup(eps=0.08)
        t = 0.9
        sq = levy_stochexp_batch(t, h, spec, stream(7, 0), 100_000)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - mult_second_moment_exact(t, h, spec)) <= 4 * se

    def test_batch_matches_pathwise_distribution_mean(self):
        system, h, spec = levy_setup()
        t = 0.5
        batch = levy_stochexp_batch(t, h, spec, stream(8, 0), 50_000)
        paths = sample_jump_realization(t, spec.marks, stream(9), 5_000)
        loop = np.sum(batch_flows(t, h, spec, paths)[0] ** 2, axis=1)
        bs = batch.std(ddof=1) / math.sqrt(batch.size)
        ls = loop.std(ddof=1) / math.sqrt(loop.size)
        assert abs(batch.mean() - loop.mean()) <= 4 * math.sqrt(bs**2 + ls**2)

    def test_the_drift_is_computed_once_per_spec_and_read_only(self):
        system, h, levy = levy_setup()
        brownian = brownian_setup()[2]
        for spec in (levy, brownian):
            assert spec.second_moment_drift is spec.second_moment_drift
            with pytest.raises(ValueError):
                spec.second_moment_drift[0] = 0.0
        specs = [MultLevySpec(system, levy.marks, 0.05, e) for e in (1e-2, 1e-3, 1e-4)]
        with mock.patch.object(MultLevySpec, "variance_rate", autospec=True,
                               side_effect=MultLevySpec.variance_rate) as rate:
            for rho in (-1.0, 0.0, 1.0):
                mult_profile(rho, h, specs)
        assert rate.call_count == len(specs)

    def test_distance_log_space(self):
        system, h, spec = levy_setup(eps=0.01)
        t = 300.0
        d = mult_distance_to_zero(t, h, spec, log_scale=4.0 * t)
        gain = 0.5 * spec.variance_rate()[1]
        assert d == pytest.approx(math.exp(gain * t), rel=1e-6)


class TestLevyProfile:
    def test_profile_and_eta_insensitivity(self):
        system, h, spec = levy_setup()
        grid = [1e-2, 1e-3, 1e-4, 1e-5]
        rows_a = mult_profile(1.0, h, [MultLevySpec(system, spec.marks, 0.05, e)
                                       for e in grid])
        rows_b = mult_profile(1.0, h, [MultLevySpec(system, spec.marks, 0.025, e)
                                       for e in grid])
        # eta only gates mark admissibility; with the same marks the profile
        # data are identical as the truncation level halves
        for ra, rb in zip(rows_a, rows_b):
            assert ra["distance"] == rb["distance"]
        residuals = [r["residual"] for r in rows_a]
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))
        assert rows_a[-1]["residual"] < 1e-2 * rows_a[-1]["profile"]
        ratios = [r["rate_ratio"] for r in rows_a]
        assert all(x <= ratios[0] * (1 + 1e-9) for x in ratios)


# --------------------------------------------------------------------------
# The jump-flow moment, distance and profile as separate functions, before
# they were merged with the Brownian ones: references the merged functions
# must equal bit for bit.
# --------------------------------------------------------------------------


def levy_second_moment_exact(t, h, spec):
    t = float(t)
    if t < 0:
        raise InvalidTimeError(f"time must be >= 0, got {t}")
    lam = spec.system.lambdas
    expo = 2.0 * t * (-lam) + t * spec.variance_rate()
    return float(np.sum(h.values ** 2 * np.exp(expo)))


def levy_distance_to_zero(t, h, spec, log_scale=0.0):
    lam = spec.system.lambdas
    return _log_space_root_sum(
        h.values, t * (-lam + 0.5 * spec.variance_rate()) + log_scale
    )


def levy_mult_profile(rho, h, marks, eta, eps_grid, schedule="eps"):
    leading = heat_leading_data(h)
    a_vals = schedule_values(schedule, eps_grid)
    eps_sorted = sorted((float(e) for e in eps_grid), reverse=True)
    l1 = leading.lambda_lead
    l2 = leading.lambda_next
    profile = math.exp(-l1 * rho) * leading.shape_norm
    rows = []
    for eps, a in zip(eps_sorted, a_vals):
        spec = MultLevySpec(h.system, tuple(marks), eta, eps)
        t = abs(math.log(a)) / l1 + rho
        if t < 0:
            raise InvalidTimeError("rho drives the evaluation time negative")
        dist = levy_distance_to_zero(t, h, spec, log_scale=-math.log(a))
        residual = abs(dist - profile)
        rate = a ** (1.0 - l1 / l2) if l2 is not None else a
        rows.append(
            {
                "eps": eps,
                "a": float(a),
                "t": t,
                "distance": dist,
                "profile": profile,
                "residual": residual,
                "rate_ratio": residual / (rate * h.norm),
            }
        )
    return rows


def random_jump_case(seed, n_modes, n_marks):
    """A random spectrum, a nonzero datum and admissible marks (eta = 0.05)."""
    rng = np.random.default_rng(seed)
    system = EigenSystem.from_lambdas(np.sort(rng.uniform(0.1, 50.0, n_modes)))
    values = rng.uniform(-2.0, 2.0, n_modes) * (rng.random(n_modes) < 0.7)
    values[rng.integers(n_modes)] = 1.0
    marks = []
    for _ in range(n_marks):
        z = rng.standard_normal(n_modes)
        marks.append(JumpMark(z / np.linalg.norm(z) * rng.uniform(0.06, 0.98),
                              rng.uniform(0.1, 5.0)))
    return system, ModeCoefficients(system, values), tuple(marks)


def monte_carlo_case(seed):
    """The 64-mode spectrum and marks of the monte-carlo benchmark workload,
    with a seeded datum on the first four modes."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, 65, dtype=float)
    system = EigenSystem.from_lambdas(k * k)
    values = np.zeros(64)
    values[:4] = [1.0, *rng.uniform(-0.5, 0.5, 3)]
    marks = (JumpMark(0.3 / k, 2.0), JumpMark(0.2 * (-1.0) ** k / k, 1.0))
    return system, ModeCoefficients(system, values), marks


class TestMergedJumpArithmetic:
    @settings(max_examples=200)
    @given(t=st.floats(0.0, 50.0), log10_eps=st.floats(-8.0, -0.01),
           log_scale=st.floats(0.0, 100.0), n_modes=st.integers(1, 12),
           n_marks=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_moment_and_distance_equal_the_jump_forms(
            self, t, log10_eps, log_scale, n_modes, n_marks, seed):
        system, h, marks = random_jump_case(seed, n_modes, n_marks)
        spec = MultLevySpec(system, marks, 0.05, 10.0 ** log10_eps)
        assert (mult_second_moment_exact(t, h, spec).hex()
                == levy_second_moment_exact(t, h, spec).hex())
        assert (mult_distance_to_zero(t, h, spec, log_scale).hex()
                == levy_distance_to_zero(t, h, spec, log_scale).hex())

    def test_monte_carlo_spectrum(self):
        for seed in range(200):
            system, h, marks = monte_carlo_case(seed)
            rng = np.random.default_rng(10_000 + seed)
            spec = MultLevySpec(system, marks, 0.05, 10.0 ** rng.uniform(-6.0, -0.31))
            for t in (2.0, rng.uniform(0.0, 10.0)):
                assert (mult_second_moment_exact(t, h, spec).hex()
                        == levy_second_moment_exact(t, h, spec).hex()), (seed, t)
                log_scale = 4.0 * t
                assert (mult_distance_to_zero(t, h, spec, log_scale).hex()
                        == levy_distance_to_zero(t, h, spec, log_scale).hex()), (seed, t)

    @settings(max_examples=100)
    @given(rho=st.floats(0.0, 3.0),
           exponents=st.lists(st.floats(3.0, 12.0), min_size=1, max_size=6),
           schedule=st.sampled_from(["eps", "sqrt", "log"]),
           n_modes=st.integers(1, 12), n_marks=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_profile_equals_the_jump_profile(self, rho, exponents, schedule,
                                             n_modes, n_marks, seed):
        system, h, marks = random_jump_case(seed, n_modes, n_marks)
        eps_grid = [10.0 ** -e for e in exponents]
        old = levy_mult_profile(rho, h, marks, 0.05, eps_grid, schedule)
        new = mult_profile(rho, h, [MultLevySpec(system, marks, 0.05, e) for e in eps_grid],
                           schedule)
        wrapped = multiplicative.levy_mult_profile(rho, h, marks, 0.05, eps_grid, schedule)
        expect = [{k: v.hex() for k, v in row.items()} for row in old]
        assert [{k: v.hex() for k, v in row.items()} for row in new] == expect
        assert [{k: v.hex() for k, v in row.items()} for row in wrapped] == expect


# --------------------------------------------------------------------------
# The batch as the full (size, n_modes) matrix of the sampled count vectors,
# each repeated for its paths: the reference the batch must equal bit for bit.
# --------------------------------------------------------------------------


def expanded_levy_sq(t, h, spec, rng, size):
    cells, weights = _count_histogram(t, spec.marks, rng, size)
    counts = np.repeat(cells, weights, axis=1)
    lam = spec.system.lambdas
    theta = np.broadcast_to((-lam - spec.compensator_drift()) * t, (size, lam.size)).copy()
    for mi, m in enumerate(spec.marks):
        theta += counts[mi][:, None] * np.log1p(spec.eps * m.values)[None, :]
    batch = h.values * np.exp(theta)
    return np.sum(batch ** 2, axis=1)


def poisson_window_range(mu):
    """The range [lo, hi] that _poisson_window evaluates at rate * t = mu."""
    return (max(0, math.floor(mu - math.sqrt(1500.0 * mu))),
            math.ceil(mu + 250.0 + math.sqrt(62500.0 + 1500.0 * mu)))


class TestLevyBatchEqualsDense:
    @settings(max_examples=150)
    @given(t=st.floats(0.0, 3.0), log10_eps=st.floats(-6.0, -0.01),
           log10_rate=st.floats(-2.0, 3.0), n_modes=st.integers(1, 64),
           n_marks=st.integers(1, 3), size=st.integers(1, 3000),
           block_entries=st.sampled_from([1, 5, 64, 2 ** 20]),
           seed=st.integers(0, 2**16))
    def test_bit_identical(self, t, log10_eps, log10_rate, n_modes, n_marks, size,
                           block_entries, seed):
        system, h, marks = random_jump_case(seed, n_modes, n_marks)
        marks = tuple(JumpMark(m.values, m.rate * 10.0 ** log10_rate) for m in marks)
        spec = MultLevySpec(system, marks, 0.05, 10.0 ** log10_eps)
        with mock.patch.object(multiplicative, "_BLOCK_ENTRIES", block_entries):
            got = levy_stochexp_batch(t, h, spec, stream(seed, 1), size)
        want = expanded_levy_sq(t, h, spec, stream(seed, 1), size)
        assert got.shape == (size,)
        assert got.tobytes() == want.tobytes()

    def test_bit_identical_when_almost_every_count_vector_is_distinct(self):
        # rate * t = 10^4 per mark on three marks: the first mark is one
        # multinomial over its window, the next two are drawn per path, and
        # the 40,000 paths fill several blocks of the shipped size
        system, h, marks = monte_carlo_case(3)
        marks = marks + (JumpMark(0.1 / np.arange(1, 65), 1.0),)
        marks = tuple(JumpMark(m.values, 5000.0) for m in marks)
        spec = MultLevySpec(system, marks, 0.05, 1e-3)
        t, size = 2.0, 40_000
        rng = mock.Mock(wraps=stream(4, 1))
        distinct = _count_histogram(t, spec.marks, rng, size)[1].size
        assert rng.multinomial.call_count == 1 and rng.poisson.call_count == 2
        assert distinct > 0.9 * size
        assert distinct > 2 * (multiplicative._BLOCK_ENTRIES // system.n_modes)
        got = levy_stochexp_batch(t, h, spec, stream(4, 1), size)
        assert got.tobytes() == expanded_levy_sq(t, h, spec, stream(4, 1), size).tobytes()

    def assert_equals_dense(self, t, spec, size, seed=0):
        h = ModeCoefficients(spec.system, np.linspace(1.0, -0.5, spec.system.n_modes))
        got = levy_stochexp_batch(t, h, spec, stream(seed, 1), size)
        assert got.tobytes() == expanded_levy_sq(t, h, spec, stream(seed, 1), size).tobytes()

    def test_a_wide_per_path_key_goes_through_unique(self):
        # rate * t = 5,000: 200 paths, drawn per path, spread each mark over
        # about 400 counts, and two marks give a key span of about 170 * 400
        system, _, marks = random_jump_case(11, 8, 2)
        spec = MultLevySpec(system, tuple(JumpMark(m.values, 5000.0) for m in marks),
                            0.05, 1e-3)
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            self.assert_equals_dense(1.0, spec, 200)
        assert unique.called

    def test_folding_without_relabelling_would_pass_2_63(self):
        # every mark is drawn per path, as 200 Poisson draws from the batch's stream
        system, _, marks = random_jump_case(12, 8, 8)
        spec = MultLevySpec(system, tuple(JumpMark(m.values, 5000.0) for m in marks),
                            0.05, 1e-3)
        rng = stream(0, 1)
        radices = [np.ptp(rng.poisson(5000.0, size=200)) + 1 for _ in marks]
        assert math.prod(int(r) for r in radices) > 2 ** 63
        self.assert_equals_dense(1.0, spec, 200)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_a_mark_without_jumps(self, t):
        # at t = 0 every mark is all zeros; at t = 1 only the 1e-9 rate mark
        system, _, marks = random_jump_case(13, 5, 3)
        marks = marks[:2] + (JumpMark(marks[2].values, 1e-9),)
        spec = MultLevySpec(system, marks, 0.05, 0.1)
        self.assert_equals_dense(t, spec, 5000)

    def test_no_paths(self):
        system, _, marks = random_jump_case(14, 3, 2)
        self.assert_equals_dense(1.0, MultLevySpec(system, marks, 0.05, 0.1), 0)

    def test_a_narrow_per_path_draw_is_one_poisson_call(self):
        # rate * t = 5,000 over 2,000 paths: the window's range (5,740
        # counts) is wider than the paths, so the mark is drawn per path,
        # with a spread of about 500 counts
        system, h, marks = monte_carlo_case(0)
        spec = MultLevySpec(system, (JumpMark(marks[0].values, 2500.0),), 0.05, 0.05)
        refuse = mock.Mock(side_effect=AssertionError("lexsorted the count vectors"))
        rng = mock.Mock(wraps=stream(7, 1))
        with mock.patch.object(np, "lexsort", refuse):
            got = levy_stochexp_batch(2.0, h, spec, rng, 2000)
        assert rng.poisson.call_count == 1 and not rng.multinomial.called
        assert got.tobytes() == expanded_levy_sq(2.0, h, spec, stream(7, 1), 2000).tobytes()

    def test_the_monte_carlo_config_makes_no_per_path_poisson_draw(self):
        # one multinomial per mark, no Poisson draw and no sort
        system, h, marks = monte_carlo_case(0)
        spec = MultLevySpec(system, marks, 0.05, 0.05)
        refuse = mock.Mock(side_effect=AssertionError("grouped per path"))
        rng = mock.Mock(wraps=stream(7, 1))
        with mock.patch.object(np, "lexsort", refuse), mock.patch.object(np, "unique", refuse):
            got = levy_stochexp_batch(2.0, h, spec, rng, 200_000)
        assert not rng.poisson.called
        assert [c.args[0].sum() for c in rng.multinomial.call_args_list] == [200_000] * 2
        assert got.tobytes() == expanded_levy_sq(2.0, h, spec, stream(7, 1), 200_000).tobytes()

    def test_memory_is_linear_in_the_path_count(self):
        # the full matrix at this size takes about 300 MB
        system, h, marks = monte_carlo_case(0)
        spec = MultLevySpec(system, marks, 0.05, 0.05)
        tracemalloc.start()
        try:
            levy_stochexp_batch(2.0, h, spec, stream(5, 1), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_levy_check_moment_equals_dense(self, tmp_path):
        # the README levy-check config, at its default seed 0
        cfg = {"schema_version": 1, "lambdas": [1.0, 4.0], "initial": [1.0, 0.5],
               "marks": [{"values": [0.3, 0.15], "rate": 2.0}], "eta": 0.05,
               "eps": 0.05, "t": 0.8, "n_paths": 1000}
        path = tmp_path / "levy.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["levy-check", "--config", str(path), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "levy_check.json").read_text())["meta"]
        system = EigenSystem.from_lambdas(cfg["lambdas"])
        spec = MultLevySpec(system, (JumpMark(np.array([0.3, 0.15]), 2.0),), 0.05, 0.05)
        h = ModeCoefficients(system, np.array(cfg["initial"]))
        sq = expanded_levy_sq(cfg["t"], h, spec, stream(0, 1), cfg["n_paths"])
        assert meta["mc_second_moment"] == float(np.mean(sq))
        assert meta["mc_se"] == float(np.std(sq, ddof=1) / math.sqrt(sq.size))

    def test_levy_check_on_the_monte_carlo_config_draws_no_per_path_poisson(self, tmp_path):
        # the monte-carlo benchmark's levy-check config at seed 0: the replay
        # draws its 1,000 paths' counts from stream(0, 0), the moment's
        # stream(0, 1) none
        k = np.arange(1, 65)
        cfg = {"schema_version": 1, "lambdas": (k * k).tolist(),
               "initial": [1.0, 0.3, -0.2, 0.1],
               "marks": [{"values": (0.3 / k).tolist(), "rate": 2.0},
                         {"values": (0.2 * (-1.0) ** k / k).tolist(), "rate": 1.0}],
               "eta": 0.05, "eps": 0.05, "t": 2.0, "n_paths": 200_000}
        path = tmp_path / "levy.json"
        path.write_text(json.dumps(cfg))
        rngs = {}

        def wrapped(*key):
            return rngs.setdefault(key, mock.Mock(wraps=stream(*key)))

        with mock.patch.object(cli, "stream", side_effect=wrapped):
            assert cli.main(["levy-check", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(rngs) == [(0, 0), (0, 1)]
        assert [c.kwargs["size"] for c in rngs[0, 0].poisson.call_args_list] == [1000]
        assert not rngs[0, 1].poisson.called
        assert rngs[0, 1].multinomial.call_count == 2


def assert_in_bernstein_band(observed, probs, n, alpha):
    """Each observed bin count N ~ Binomial(n, p) must lie within Bernstein's
    band |N - n p| <= x, P(|N - n p| >= x) <= 2 exp(-x^2 / (2 (n p (1 - p) + x / 3))),
    at level alpha / (number of bins): by the union bound a correct sampler
    fails with probability at most alpha."""
    observed, probs = np.asarray(observed, dtype=float), np.asarray(probs, dtype=float)
    log_term = math.log(2.0 * probs.size / alpha)
    var = n * probs * (1.0 - probs)
    band = log_term / 3.0 + np.sqrt(log_term ** 2 / 9.0 + 2.0 * var * log_term)
    assert np.all(np.abs(observed - n * probs) <= band), np.max(np.abs(observed - n * probs) - band)


def poisson_bin_probs(mu, edges):
    """P(N in [edges[i], edges[i + 1])), edges[0] = 0 and the last bin
    [edges[-1], inf)."""
    cdf = poisson.cdf(np.asarray(edges[1:]) - 1, mu)
    return np.diff(np.concatenate([[0.0], cdf, [1.0]]))


class TestCountHistogramLaw:
    ALPHA = 1e-6

    @pytest.mark.parametrize("rates, size, edges, per_path", [
        # the monte-carlo marks: one multinomial each
        ((2.0, 1.0), 200_000, (np.arange(13), np.arange(10)), 0),
        # rate * t = 1,000 on the second mark: its window's range of 2,501
        # counts over the 10-odd cells of the first passes 20,000, so it is
        # drawn per path
        ((2.0, 500.0), 20_000, (np.arange(13), np.r_[0, 920:1100:20]), 1),
    ])
    def test_marginals_and_the_two_mark_table_follow_the_product_pmf(self, rates, size,
                                                                     edges, per_path):
        # a correct sampler fails this test with probability at most 1e-6:
        # the marginal and the joint bins share the level by the union bound
        t = 2.0
        marks = tuple(JumpMark(np.array([0.3]), r) for r in rates)
        rng = mock.Mock(wraps=stream(2501 + per_path, 1))
        cells, weights = _count_histogram(t, marks, rng, size)
        assert rng.poisson.call_count == per_path
        assert rng.multinomial.call_count == 2 - per_path
        assert weights.sum() == size and np.all(weights > 0)
        bins = [np.searchsorted(e, c, side="right") - 1 for e, c in zip(edges, cells)]
        probs = [poisson_bin_probs(r * t, e) for r, e in zip(rates, edges)]
        b1, b2 = (len(e) for e in edges)
        observed = [np.bincount(b, weights=weights, minlength=len(e))
                    for b, e in zip(bins, edges)]
        joint = np.bincount(bins[0] * b2 + bins[1], weights=weights, minlength=b1 * b2)
        assert_in_bernstein_band(np.concatenate([*observed, joint]),
                                 np.concatenate([*probs, np.outer(*probs).ravel()]),
                                 size, self.ALPHA)

    def test_the_band_refutes_a_wrong_rate(self):
        # the same sample against Poisson(4.2): the check has power
        marks = (JumpMark(np.array([0.3]), 2.0),)
        cells, weights = _count_histogram(2.0, marks, stream(2501, 1), 200_000)
        edges = np.arange(13)
        observed = np.bincount(np.searchsorted(edges, cells[0], side="right") - 1,
                               weights=weights, minlength=13)
        with pytest.raises(AssertionError):
            assert_in_bernstein_band(observed, poisson_bin_probs(4.2, edges), 200_000, 1e-6)

    @pytest.mark.parametrize("mu", [1e-9, 0.5, 4.0, 100.0, 1e4, 1e6])
    def test_the_window_holds_every_positive_pmf(self, mu):
        lo, hi = poisson_window_range(mu)
        k, pmf = _poisson_window(mu, hi - lo + 1)
        assert np.all(pmf > 0.0) and math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)
        # just outside the Bernstein range the pmf is below e^-750
        assert np.all(poisson.logpmf(np.array([lo - 1, hi + 1]), mu)[lo == 0:] < -750.0)
        # the window is every k of the range with a positive pmf
        inside = np.arange(lo, hi + 1)
        assert np.array_equal(k, inside[np.exp(poisson.logpmf(inside, mu)) > 0.0])
        assert _poisson_window(mu, hi - lo) is None

    @pytest.mark.parametrize("mu", [1e-3, 0.5, 4.0, 1e2, 1e4, 1e6])
    def test_the_window_pmf_matches_a_50_digit_oracle(self, mu):
        # k ln mu - mu - ln k! was off by 3.5e-11 at mu = 1e4 and 3.3e-9 at 1e6
        lo, hi = poisson_window_range(mu)
        k, pmf = _poisson_window(mu, hi - lo + 1)
        got = dict(zip(k.tolist(), pmf.tolist()))
        with mpmath.workdps(50):
            m = mpmath.mpf(mu)
            exact = mpmath.exp(lo * mpmath.log(m) - m - mpmath.loggamma(lo + 1))
            worst, checked = 0.0, 0
            for j in range(lo, hi + 1):
                if exact >= 1e-300:
                    worst = max(worst, float(abs(got[j] - exact) / exact))
                    checked += 1
                exact = exact * m / (j + 1)  # p(j + 1) = p(j) mu / (j + 1)
        assert checked > 0 and worst <= 5e-12, worst


# --------------------------------------------------------------------------
# The per-path branch of _count_histogram before it took one sorted key per
# mark, kept as a byte-for-byte reference: each path's (cell, count) pair
# relabelled to dense ids through a presence table or np.unique.
# --------------------------------------------------------------------------


def reference_dense_ids(key, span):
    if span <= 4 * key.size:
        present = np.zeros(span, dtype=bool)
        present[key] = True
        ids = np.cumsum(present)
        ids -= 1
        return ids[key], int(ids[-1]) + 1
    values, ids = np.unique(key, return_inverse=True)
    return ids, values.size


def reference_fold_counts(ids, n_ids, c):
    lo = int(c.min())
    radix = int(c.max()) - lo + 1
    key = c - lo
    if n_ids * radix > 2 ** 63 - 1:
        key, radix = reference_dense_ids(key, radix)
    key += ids * radix
    return reference_dense_ids(key, n_ids * radix)


def reference_count_histogram(t, marks, rng, size):
    if size == 0:
        return np.zeros((len(marks), 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    cells = np.zeros((0, 1), dtype=np.int64)
    weights = np.array([size])
    for m in marks:
        mu = m.rate * t
        window = _poisson_window(mu, size // weights.size)
        if window is not None:
            k, pmf = window
            table = rng.multinomial(weights, pmf)
            cell, col = np.nonzero(table)
            cells = np.vstack([cells[:, cell], k[col]])
            weights = table[cell, col]
        else:
            ids = np.repeat(np.arange(weights.size), weights)
            c = rng.poisson(mu, size=size)
            new, n = reference_fold_counts(ids, weights.size, c)
            first = np.empty(n, dtype=np.int64)
            first[new] = np.arange(size)
            cells = np.vstack([cells[:, ids[first]], c[first]])
            weights = np.bincount(new, minlength=n)
    return cells, weights


class TestPerPathKey:
    @settings(max_examples=200)
    @given(rates=st.lists(st.sampled_from([1e-9, 2.0, 5000.0, 1e5]), min_size=1, max_size=4),
           t=st.sampled_from([0.0, 0.8, 1.0, 3.0]), size=st.sampled_from([0, 1, 200, 2000]),
           seed=st.integers(0, 2 ** 16))
    def test_the_histogram_equals_the_relabelling_reference(self, rates, t, size, seed):
        marks = tuple(JumpMark(np.array([0.3]), r) for r in rates)
        got = _count_histogram(t, marks, stream(seed, 1), size)
        want = reference_count_histogram(t, marks, stream(seed, 1), size)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()

    @staticmethod
    def histogram(counts):
        """_count_histogram with mark m's per-path counts read from counts[m]:
        at rate * t = 5,000 every window is wider than the paths."""
        rng = mock.Mock(spec=["poisson"])
        rng.poisson.side_effect = [np.array(c, dtype=np.int64) for c in counts]
        marks = [JumpMark(np.array([0.3]), 5000.0)] * len(counts)
        return _count_histogram(1.0, marks, rng, len(counts[0]))

    @settings(max_examples=300)
    @given(columns=st.lists(st.lists(st.sampled_from([0, 1, 7, 2 ** 40, 2 ** 62, 2 ** 63 - 1]),
                                     min_size=3, max_size=3), min_size=1, max_size=40),
           n_marks=st.integers(1, 3))
    def test_equal_cells_exactly_for_equal_columns(self, columns, n_marks):
        counts = np.array(columns, dtype=np.int64).reshape(-1, 3)[:, :n_marks].T.copy()
        # the paths come in cell order: mark m's i-th count extends the i-th
        # of the sorted vectors so far, unless a key would pass 2^63 - 1
        vectors = [()] * counts.shape[1]
        for c in counts:
            if len(set(vectors)) * (int(c.max()) - int(c.min()) + 1) > 2 ** 63 - 1:
                with pytest.raises(InvalidDomainError):
                    self.histogram(counts)
                return
            vectors = [v + (k,) for v, k in zip(sorted(vectors), c.tolist())]
        cells, weights = self.histogram(counts)
        want = collections.Counter(vectors)
        assert cells.dtype == weights.dtype == np.int64
        assert [tuple(v) for v in cells.T.tolist()] == sorted(want)
        assert weights.tolist() == [want[v] for v in sorted(want)]

    def test_a_key_past_2_63_raises_and_is_not_relabelled(self):
        # the second mark: 2 cells times a radix of 2^62 + 1 pass 2^63 - 1
        big = 2 ** 62
        with pytest.raises(InvalidDomainError, match=f"2 cells x {big + 1} counts"):
            self.histogram([[0, big], [0, big]])


# --------------------------------------------------------------------------
# The one-path flows that the batched replay replaced, and the levy-check
# replay drawn path by path, kept as byte-for-byte references.
# --------------------------------------------------------------------------


def reference_stochexp_from_jumps(t, h, spec, jumps):
    lam = spec.system.lambdas
    theta = (-lam - spec.compensator_drift()) * t
    for mi in jumps.mark_indices:
        theta = theta + np.log1p(spec.eps * spec.marks[mi].values)
    return h.values * np.exp(theta)


def reference_flow_oracle(t, h, spec, jumps):
    lam = spec.system.lambdas
    drift = -lam - spec.compensator_drift()
    x = h.values.astype(float).copy()
    prev = 0.0
    for tau, mi in zip(jumps.times, jumps.mark_indices):
        x = x * np.exp(drift * (tau - prev))
        x = x * (1.0 + spec.eps * spec.marks[mi].values)
        prev = tau
    return x * np.exp(drift * (t - prev))


def one_path_views(paths):
    """Each path of a JumpRealization batch as a batch of one."""
    ends = np.cumsum(paths.counts)
    return [JumpRealization(paths.t, paths.counts[r:r + 1], paths.times[end - c:end],
                            paths.mark_indices[end - c:end])
            for r, (c, end) in enumerate(zip(paths.counts.tolist(), ends.tolist()))]


def batch_of(t, times, mark_indices):
    """The JumpRealization batch of the paths with the given jump times and marks."""
    return JumpRealization(t, np.array([len(x) for x in times], dtype=np.int64),
                           np.concatenate([np.asarray(x, dtype=float) for x in times]),
                           np.concatenate([np.asarray(m, dtype=np.int64)
                                           for m in mark_indices]))


def reference_check(t, h, spec, paths):
    """(worst, underflow) of the runner loop on the paths of the batch."""
    worst, underflow = 0.0, 0
    floor = 1e-300
    nonzero = h.values != 0.0
    for jumps in one_path_views(paths):
        x = reference_stochexp_from_jumps(t, h, spec, jumps)
        y = reference_flow_oracle(t, h, spec, jumps)
        denom = np.maximum(np.abs(y), floor)
        worst = max(worst, float(np.max(np.abs(x - y) / denom)))
        underflow += bool(np.any((denom == floor) & nonzero))
    return worst, underflow


def reference_replay(t, h, spec, seed, n_paths, cap):
    """(worst, paths, underflow) of the levy-check replay, drawn path by path
    from stream(seed, 0) in the batch's order: every count, the paths up to
    the one that brings the jumps to ``cap``, their times, their marks."""
    rng = stream(seed, 0)
    rate = sum(m.rate for m in spec.marks)
    kept, replayed = [], 0
    for c in rng.poisson(rate * t, min(n_paths, 1000)).tolist():
        kept.append(c)
        replayed += c
        if replayed >= cap:
            break
    times = [np.sort(rng.uniform(0.0, t, c)) for c in kept]
    probs = np.array([m.rate for m in spec.marks]) / rate
    marks = [rng.choice(len(spec.marks), size=c, p=probs) for c in kept]
    worst, underflow = reference_check(t, h, spec, batch_of(t, times, marks))
    return worst, len(kept), underflow


def batch_flows(t, h, spec, paths):
    """Every path's (x, y) rows from the batched replay, in path order."""
    x = np.full((paths.counts.size, h.values.size), np.nan)
    y = x.copy()
    seen = []
    for rows, xb, yb in multiplicative._flow_blocks(t, h, spec, paths):
        x[rows], y[rows] = xb, yb
        seen.extend(rows.tolist())
    assert sorted(seen) == list(range(paths.counts.size))
    return x, y


def hex_rows(a):
    return [[v.hex() for v in row] for row in a.tolist()]


@st.composite
def replay_cases(draw):
    """1-3 admissible marks on 1-300 modes (rates scaled up to make the
    flows overflow), t = 0, small or large, 1-50 jump paths on [0, t] with
    some paths jump-free and at times one long path, and a block size from
    below one row to beyond the whole batch."""
    n_modes = draw(st.integers(1, 300))
    n_marks = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    system, h, marks = random_jump_case(seed, n_modes, n_marks)
    scale = draw(st.sampled_from([1.0, 100.0]))
    marks = tuple(JumpMark(m.values, m.rate * scale) for m in marks)
    spec = MultLevySpec(system, marks, 0.05, draw(st.sampled_from([1e-3, 0.05, 0.9])))
    t = draw(st.sampled_from([0.0, 1e-3, 0.7, 40.0]))
    rng = np.random.default_rng(seed)
    n_paths = draw(st.integers(1, 50))
    counts = rng.poisson(draw(st.sampled_from([0.5, 4.0])), n_paths)
    counts[rng.random(n_paths) < 0.2] = 0
    if draw(st.booleans()):
        counts[rng.integers(n_paths)] = draw(st.integers(50, 1500))
    paths = [(np.sort(rng.uniform(0.0, t, c)), rng.integers(0, n_marks, c))
             for c in counts.tolist()]
    paths = batch_of(t, *zip(*paths))
    block_entries = draw(st.one_of(st.integers(1, 2 * n_modes), st.just(2 ** 20)))
    return t, h, spec, paths, block_entries


class TestBatchedReplayEqualsThePathLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=replay_cases())
    def test_rows_worst_and_underflow_are_bit_identical(self, case):
        t, h, spec, paths, block_entries = case
        with np.errstate(over="ignore", invalid="ignore", under="ignore"), \
                mock.patch.object(multiplicative, "_BLOCK_ENTRIES", block_entries):
            x, y = batch_flows(t, h, spec, paths)
            worst, underflow = levy_pathwise_check(t, h, spec, paths)
            want_x = [reference_stochexp_from_jumps(t, h, spec, j) for j in one_path_views(paths)]
            want_y = [reference_flow_oracle(t, h, spec, j) for j in one_path_views(paths)]
            want = reference_check(t, h, spec, paths)
        assert hex_rows(x) == hex_rows(np.array(want_x))
        assert hex_rows(y) == hex_rows(np.array(want_y))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            first = one_path_views(paths)[0]
            assert hex_rows(levy_flow_oracle(t, h, spec, first)[None]) == hex_rows(y[:1])
        assert (worst.hex(), underflow) == (want[0].hex(), want[1])

    def test_a_path_whose_gap_is_nan_is_skipped_as_in_the_loop(self):
        # drift 80 over t = 10: the jump-free path overflows both flows and
        # inf - inf is NaN; 100 jumps of factor 0.19 keep the other finite.
        # The loop's max() passed over the NaN path, and so must the batch.
        system = EigenSystem.from_lambdas([1.0, 2.0])
        h = ModeCoefficients(system, np.array([1.0, 0.0]))
        spec = MultLevySpec(system, (JumpMark(np.array([-0.9, 0.0]), 100.0),), 0.05, 0.9)
        paths = batch_of(10.0, [[], np.linspace(0.05, 9.95, 100)], [[], np.zeros(100)])
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = batch_flows(10.0, h, spec, paths)
            got = levy_pathwise_check(10.0, h, spec, paths)
            want = reference_check(10.0, h, spec, paths)
        assert np.isinf(x[0, 0]) and np.isinf(y[0, 0]) and np.all(np.isfinite(x[1]))
        assert 0.0 < want[0] < 1e-10
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_paths=st.integers(2, 1200),
           cap=st.sampled_from([5, 60, 10 ** 6]), t=st.sampled_from([0.0, 0.05, 0.8, 1.6]))
    def test_levy_check_meta_equals_the_runner_loop(self, seed, n_paths, cap, t):
        cfg = {"schema_version": 1, "lambdas": [1.0, 4.0, 9.0], "initial": [1.0, 0.0, -0.5],
               "marks": [{"values": [0.3, 0.15, 0.1], "rate": 2.0},
                         {"values": [-0.2, 0.1, -0.05], "rate": 1.0}],
               "eta": 0.05, "eps": 0.05, "t": t, "n_paths": n_paths, "master_seed": seed}
        system, _, spec = levy_setup()
        h = ModeCoefficients(system, np.array(cfg["initial"]))
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(cli, "MAX_EXPECTED_JUMPS", cap):
            path = f"{d}/levy.json"
            with open(path, "w") as f:
                json.dump(cfg, f)
            assert cli.main(["levy-check", "--config", path, "--out", d]) in (0, 1)
            with open(f"{d}/levy_check.json") as f:
                meta = json.load(f)["meta"]
        worst, paths, underflow = reference_replay(t, h, spec, seed, n_paths, cap)
        assert meta["pathwise_worst_relative"].hex() == worst.hex()
        assert (meta["pathwise_paths"], meta["pathwise_underflow_paths"]) == (paths, underflow)

    def test_replay_memory_at_the_path_entry_edge(self):
        # 1,000 replayed paths x 50,000 modes is MAX_PATH_ENTRIES: the two
        # full (paths, modes) flows would take 800 MB
        n = 50_000
        assert 1000 * n == cli.MAX_PATH_ENTRIES
        system = EigenSystem.from_lambdas(np.arange(1.0, n + 1) * 1e-3)
        z = 1.0 / np.arange(1.0, n + 1)
        z *= 0.5 / np.linalg.norm(z)
        marks = (JumpMark(z, 2.0), JumpMark(-0.6 * z, 1.0))
        spec = MultLevySpec(system, marks, 0.05, 0.05)
        h = ModeCoefficients(system, np.ones(n))
        paths = sample_jump_realization(0.5, marks, stream(0, 0), 1000)
        tracemalloc.start()
        try:
            worst, underflow = levy_pathwise_check(0.5, h, spec, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert worst <= 1e-10 and underflow == 0
