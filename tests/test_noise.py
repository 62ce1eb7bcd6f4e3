"""Stochastic convolution tests.

Independent oracles: Euler-Maruyama integration for the Gaussian laws,
numerical quadrature of the variance-of-parts integral for the wave
covariance, and moment identities for the compound-Poisson sampler.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from spdecutoff import (
    EigenSystem,
    JumpMark,
    NoiseSpec,
    build_box_eigensystem,
    heat_gaussian_convolution_law,
    wave_gaussian_convolution_law,
    wave_spectrum,
    stream,
)
from spdecutoff.errors import DegenerateNoiseError, InvalidTimeError
from spdecutoff.noise_sim import sample_jump_realization
from spdecutoff.semigroup import _propagator_coefficients


def make_heat_spec(lams=(1.0, 4.0), q=(2.0, 8.0)):
    system = EigenSystem.from_lambdas(lams)
    return NoiseSpec(system=system, gaussian_q=np.asarray(q, dtype=float))


class TestHeatGaussianLaw:
    def test_zero_time(self):
        spec = make_heat_spec()
        assert np.array_equal(heat_gaussian_convolution_law(0.0, spec), [0.0, 0.0])

    def test_equilibrium_unit_variance(self):
        # q = 2 lambda gives unit equilibrium variance
        spec = make_heat_spec(lams=(1.0, 4.0), q=(2.0, 8.0))
        assert np.allclose(heat_gaussian_convolution_law(math.inf, spec), [1.0, 1.0])
        # the finite-time formula gives q / (2 lambda) bit for bit at t = inf
        spec = make_heat_spec(lams=(0.3, 7.0 / 3.0), q=(1.0 / 3.0, 0.7))
        assert (heat_gaussian_convolution_law(math.inf, spec).tobytes()
                == (spec.gaussian_q / (2.0 * spec.system.lambdas)).tobytes())

    def test_explicit_finite_time(self):
        spec = make_heat_spec(lams=(1.0,), q=(2.0,))
        v = heat_gaussian_convolution_law(0.5, spec)
        assert v[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_monotone_in_time(self):
        spec = make_heat_spec()
        prev = np.zeros(2)
        for t in np.linspace(0.1, 5, 20):
            v = heat_gaussian_convolution_law(float(t), spec)
            assert np.all(v >= prev - 1e-15)
            prev = v

    def test_euler_maruyama_oracle(self):
        spec = make_heat_spec(lams=(1.0, 4.0), q=(2.0, 1.0))
        t, dt, n = 0.7, 1e-3, 60_000
        rng = np.random.default_rng(100)
        steps = int(round(t / dt))
        x = np.zeros((n, 2))
        lam = spec.system.lambdas
        sq = np.sqrt(spec.gaussian_q * dt)
        for _ in range(steps):
            x += -lam * x * dt + sq * rng.standard_normal((n, 2))
        var_mc = x.var(axis=0)
        se = var_mc * math.sqrt(2.0 / (n - 1))  # SE of a normal variance estimate
        v = heat_gaussian_convolution_law(t, spec)
        # EM has O(dt) bias on the variance: var * (1 - lam * dt) scale
        assert np.all(np.abs(var_mc - v) <= 4.0 * se + 2.0 * lam * dt * v)


class TestWaveGaussianLaw:
    def make(self, gamma=1.0, lams=(1.0,), q=(1.0,)):
        system = EigenSystem.from_lambdas(lams)
        spec = NoiseSpec(system=system, gaussian_q=np.asarray(q, dtype=float))
        return spec, wave_spectrum(gamma, system)

    def test_zero_time(self):
        spec, wsp = self.make()
        assert np.allclose(wave_gaussian_convolution_law(0.0, spec, wsp), 0.0, atol=1e-15)

    def test_equilibrium_closed_form(self):
        spec, wsp = self.make(gamma=1.0, lams=(1.0,), q=(1.0,))
        s = wave_gaussian_convolution_law(math.inf, spec, wsp)[0]
        assert np.allclose(s, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_equilibrium_solves_lyapunov(self):
        spec, wsp = self.make(gamma=2.5, lams=(3.0,), q=(0.7,))
        s = wave_gaussian_convolution_law(math.inf, spec, wsp)[0]
        A = np.array([[0.0, 1.0], [-3.0, -2.5]])
        res = A @ s + s @ A.T + 0.7 * np.outer([0, 1], [0, 1])
        assert np.allclose(res, 0.0, atol=1e-13)

    def test_quadrature_oracle_finite_time(self):
        spec, wsp = self.make(gamma=1.0, lams=(2.0,), q=(1.3,))
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        t = 1.4
        s = wave_gaussian_convolution_law(t, spec, wsp)[0]
        for i in range(2):
            for j in range(2):
                val, _ = quad(
                    lambda u: 1.3 * (expm(u * A) @ np.array([0.0, 1.0]))[i]
                    * (expm(u * A) @ np.array([0.0, 1.0]))[j],
                    0.0,
                    t,
                    limit=200,
                )
                assert s[i, j] == pytest.approx(val, abs=1e-9)

    def test_trace_monotone(self):
        spec, wsp = self.make(gamma=3.0, lams=(2.0,), q=(1.0,))
        traces = [np.trace(wave_gaussian_convolution_law(float(t), spec, wsp)[0])
                  for t in np.linspace(0.05, 12, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))


def wave_law_loop(t, spec, wsp):
    """Reference for the stacked wave_gaussian_convolution_law: one 2x2
    equilibrium block, one propagator c I + s (A + gamma/2 I) from the
    mode's (c, s) and one conjugation per mode."""
    lam = spec.system.lambdas
    gamma = wsp.gamma
    out = np.zeros((spec.system.n_modes, 2, 2))
    if 0.0 < t < math.inf:
        cs = _propagator_coefficients(t, wsp, 0.0)
    for k in range(spec.system.n_modes):
        q = float(spec.gaussian_q[k])
        s_inf = np.array([[q / (2.0 * gamma * lam[k]), 0.0], [0.0, q / (2.0 * gamma)]])
        if math.isinf(t):
            out[k] = s_inf
        elif t > 0.0:
            c, s, lk = float(cs[0][k]), float(cs[1][k]), float(lam[k])
            P = np.array([[c + s * (0.5 * gamma), s], [-lk * s, c - s * (0.5 * gamma)]])
            out[k] = s_inf - P @ s_inf @ P.T
    return out


def wave_law_50(t, lam, gamma, q):
    """Sigma_inf - e^{tA} Sigma_inf e^{tA}^T of one mode at 50 digits, from
    mpmath's matrix exponential."""
    with mpmath.workdps(50):
        lam, gamma, q = mpmath.mpf(lam), mpmath.mpf(gamma), mpmath.mpf(q)
        s_inf = mpmath.matrix([[q / (2 * gamma * lam), 0], [0, q / (2 * gamma)]])
        P = mpmath.expm(mpmath.matrix([[0, 1], [-lam, -gamma]]) * mpmath.mpf(t))
        return s_inf - P * s_inf * P.T


class TestStackedWaveLaw:
    @pytest.mark.parametrize(
        "dims, gamma, q",
        [
            ([(1.0, 5)], 100.0, "inverse-square"),  # every mode over-damped
            ([(math.pi, 201)], 1.0, "inverse-square"),  # every mode under-damped
            ([(1.0, 21)], 10.0, "flat"),  # one over-damped mode, the rest oscillate
            ([(2.0, 30)], 3.0, "some-zero"),
        ],
    )
    def test_equals_the_mode_loop_byte_for_byte(self, dims, gamma, q):
        system = build_box_eigensystem(dims)
        n = system.n_modes
        if q == "inverse-square":
            qs = 1.0 / np.arange(1, n + 1) ** 2
        elif q == "flat":
            qs = np.ones(n)
        else:
            qs = np.where(np.arange(n) % 3 == 1, 0.0, 0.7 / np.arange(1, n + 1))
        spec = NoiseSpec(system=system, gaussian_q=qs)
        wsp = wave_spectrum(gamma, system)
        ts = np.linspace(0.0, 300.0, 41).tolist() + [1e-300, 0.37, 18.4, 32.6, math.inf]
        for t in ts:
            got = wave_gaussian_convolution_law(t, spec, wsp)
            assert got.tobytes() == wave_law_loop(t, spec, wsp).tobytes(), t

    def test_overdamped_law_against_mpmath(self):
        # the gamma = 100 case above, every mode overdamped: each entry within
        # 1e-14 of its block's largest equilibrium entry
        system = build_box_eigensystem([(1.0, 5)])
        qs = 1.0 / np.arange(1, 6) ** 2
        spec = NoiseSpec(system=system, gaussian_q=qs)
        wsp = wave_spectrum(100.0, system)
        assert wsp.n_over == 5
        for t in [1e-300, 0.37, 7.5, 18.4, 32.6, 150.0, 300.0]:
            got = wave_gaussian_convolution_law(t, spec, wsp)
            for k, lk in enumerate(system.lambdas.tolist()):
                ref = wave_law_50(t, lk, 100.0, float(qs[k]))
                scale = max(qs[k] / (200.0 * lk), qs[k] / 200.0)
                for i in range(2):
                    for j in range(2):
                        assert abs(got[k, i, j] - ref[i, j]) <= 1e-14 * scale, (t, k, i, j)


class TestGaussianSamplers:
    def test_reproducible_streams(self):
        a = stream(42, 3).standard_normal(5)
        b = stream(42, 3).standard_normal(5)
        c = stream(42, 4).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_wave_sampler_covariance(self):
        system = EigenSystem.from_lambdas([2.0])
        spec = NoiseSpec(system=system, gaussian_q=np.array([1.0]))
        wsp = wave_spectrum(1.0, system)
        n = 40_000
        target = wave_gaussian_convolution_law(1.2, spec, wsp)[0]
        # eigen-decomposition square root: tolerates exactly singular blocks
        evals, evecs = np.linalg.eigh(target)
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
        draws = stream(9, 0).standard_normal((n, 2)) @ root.T
        cov = np.cov(draws.T)
        scale = math.sqrt(2.0 / n) * np.sqrt(np.outer(np.diag(target), np.diag(target)))
        assert np.all(np.abs(cov - target) <= 5.0 * scale)


class TestLevyConvolution:
    def test_jump_realization_statistics(self):
        marks = (JumpMark(np.array([1.0, -0.5]), 5.0),)
        counts = [sample_jump_realization(2.0, marks, stream(17, r)).times.size
                  for r in range(4000)]
        mean = np.mean(counts)
        assert abs(mean - 10.0) <= 4.0 * math.sqrt(10.0 / 4000)

    def test_mark_indices_follow_the_rates(self):
        # rates 1 and 3: each jump carries mark 1 with probability 3/4
        marks = (JumpMark(np.array([0.5]), 1.0), JumpMark(np.array([-0.5]), 3.0))
        idx = sample_jump_realization(40.0, marks, stream(19, 0), size=100).mark_indices
        assert set(idx.tolist()) <= {0, 1}
        share = np.mean(idx == 1)
        assert abs(share - 0.75) <= 4.0 * math.sqrt(0.75 * 0.25 / idx.size)

    def test_no_marks_rejected(self):
        with pytest.raises(DegenerateNoiseError, match="no jump part"):
            sample_jump_realization(1.0, (), stream(19, 1))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_a_rate_that_is_not_positive_and_finite_rejected(self, rate):
        with pytest.raises(DegenerateNoiseError, match="jump rate must be positive"):
            JumpMark(np.array([1.0]), rate)


def reference_jump_realization(t, marks, rng):
    """The (times, mark_indices) of sample_jump_realization as drawn through
    Generator.choice, kept as the byte-for-byte reference."""
    rate = float(sum(m.rate for m in marks))
    n = rng.poisson(rate * t)
    times = np.sort(rng.uniform(0.0, t, size=n))
    probs = np.array([m.rate for m in marks]) / rate
    return times, rng.choice(len(marks), size=n, p=probs)


def first_mark_uniform(t, rate, seed):
    """The uniform that picks the first jump's mark on stream(seed, 0) at
    total rate ``rate``: the Poisson count and the times are drawn first."""
    rng = stream(seed, 0)
    n = rng.poisson(rate * t)
    rng.uniform(0.0, t, size=n)
    assert n > 0
    return float(rng.random(n)[0])


class TestJumpRealizationEqualsChoice:
    def assert_equals_choice(self, t, rates, seed):
        marks = tuple(JumpMark(np.array([0.5]), r) for r in rates)
        want_rng, got_rng = stream(seed, 0), stream(seed, 0)
        times, idx = reference_jump_realization(t, marks, want_rng)
        got = sample_jump_realization(t, marks, got_rng)
        assert got.times.tobytes() == times.tobytes()
        assert got.mark_indices.dtype == idx.dtype == np.int64
        assert got.mark_indices.tobytes() == idx.tobytes()
        # Philox's state holds arrays: compare the reprs, every word in full
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        return got

    @settings(max_examples=300)
    @given(log10_rates=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           t=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, log10_rates, t, seed):
        self.assert_equals_choice(t, [10.0 ** e for e in log10_rates], seed)

    def test_a_uniform_on_a_cdf_step_draws_the_next_mark(self):
        # total rate exactly 1: the cdf is (u, 1), and u itself is drawn
        u = first_mark_uniform(2.0, 1.0, 3)
        got = self.assert_equals_choice(2.0, [u, 1.0 - u], 3)
        assert got.mark_indices[0] == 1

    def test_the_cdf_is_normalised_before_the_search(self):
        # total rate 3 and probabilities a/3, b/3, c/3 summing to 1 +- 1 ulp:
        # the normalised first step is at most u, the raw one above it
        u = first_mark_uniform(1.0, 3.0, 0)
        a = math.nextafter(3.0 * u, -math.inf)
        for _ in range(80):
            a = math.nextafter(a, math.inf)
            rates = [a, 0.1 * (3.0 - a), 3.0 - (a + 0.1 * (3.0 - a))]
            cdf = (np.array(rates) / 3.0).cumsum()
            if sum(rates) == 3.0 and cdf[0] / cdf[-1] <= u < cdf[0]:
                break
        else:
            pytest.fail("no rates put u between the normalised and the raw step")
        got = self.assert_equals_choice(1.0, rates, 0)
        assert got.mark_indices[0] == 1


def pre_batch_sampler(t, marks, rng):
    """The one-path body of sample_jump_realization before it drew its paths
    as one batch, kept as the reference for a batch of one."""
    rate = float(sum(m.rate for m in marks))
    n = rng.poisson(rate * t)
    times = rng.uniform(0.0, t, size=n)
    times.sort()
    cdf = (np.array([m.rate for m in marks]) / rate).cumsum()
    cdf /= cdf[-1]
    return times, cdf.searchsorted(rng.random(n), side="right")


def jump_marks(log10_rates):
    return tuple(JumpMark(np.array([0.5]), 10.0 ** e) for e in log10_rates)


ONE_TO_THREE_MARKS = st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=3).map(jump_marks)
SEEDS = st.integers(0, 2**32 - 1)


class TestJumpBatch:
    def assert_one_is_the_pre_batch_sampler(self, t, marks, seed):
        want_rng, got_rng = stream(seed, 0), stream(seed, 0)
        times, idx = pre_batch_sampler(t, marks, want_rng)
        got = sample_jump_realization(t, marks, got_rng)
        assert got.counts.tolist() == [times.size]
        assert got.times.tobytes() == times.tobytes()
        assert got.mark_indices.tobytes() == idx.tobytes()
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    @settings(max_examples=200)
    @given(marks=ONE_TO_THREE_MARKS, t=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
           seed=SEEDS)
    def test_a_batch_of_one_is_the_pre_batch_sampler(self, marks, t, seed):
        self.assert_one_is_the_pre_batch_sampler(t, marks, seed)

    def test_a_batch_of_one_on_1200_draws(self):
        marks = jump_marks([math.log10(2.0), 0.0])
        for seed in range(300):
            for t in (0.0, 0.3, 2.0, 50.0):
                self.assert_one_is_the_pre_batch_sampler(t, marks, seed)

    @settings(max_examples=60, deadline=None)
    @given(marks=ONE_TO_THREE_MARKS, size=st.integers(1, 300),
           cap=st.sampled_from([1, 5, 60, 10**6]), t=st.sampled_from([0.0, 0.05, 0.8, 4.0]),
           seed=SEEDS)
    def test_the_kept_prefix(self, marks, size, cap, t, seed):
        # path i is kept iff the paths before it hold fewer than cap jumps
        counts = stream(seed, 0).poisson(sum(m.rate for m in marks) * t, size).tolist()
        kept = before = 0
        while kept < size and before < cap:
            before += counts[kept]
            kept += 1
        got = sample_jump_realization(t, marks, stream(seed, 0), size, cap)
        assert 1 <= got.counts.size == kept
        assert got.counts.tolist() == counts[:kept]
        assert got.times.size == got.mark_indices.size == sum(counts[:kept])

    @settings(max_examples=60, deadline=None)
    @given(marks=ONE_TO_THREE_MARKS, size=st.integers(1, 300),
           t=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), seed=SEEDS)
    def test_times_sorted_within_each_path_and_in_0_t(self, marks, size, t, seed):
        rng = stream(seed, 0)
        counts = rng.poisson(sum(m.rate for m in marks) * t, size)
        uniforms = rng.uniform(0.0, t, int(counts.sum()))
        got = sample_jump_realization(t, marks, stream(seed, 0), size)
        assert got.counts.tolist() == counts.tolist()
        ends = np.cumsum(counts).tolist()
        for c, end in zip(counts.tolist(), ends):
            times = got.times[end - c:end]
            assert np.all(np.diff(times) >= 0.0)
            assert np.all((0.0 <= times) & (times <= t))
            assert times.tobytes() == np.sort(uniforms[end - c:end]).tobytes()
        assert np.all((0 <= got.mark_indices) & (got.mark_indices < len(marks)))


class TestSpecValidation:
    def test_empty_spec_rejected(self):
        system = EigenSystem.from_lambdas([1.0])
        with pytest.raises(DegenerateNoiseError):
            NoiseSpec(system=system, gaussian_q=None)

    def test_negative_intensity_rejected(self):
        system = EigenSystem.from_lambdas([1.0])
        with pytest.raises(DegenerateNoiseError):
            NoiseSpec(system=system, gaussian_q=np.array([-1.0]))

    def test_wrong_length_intensity_rejected(self):
        system = EigenSystem.from_lambdas([1.0, 2.0])
        with pytest.raises(DegenerateNoiseError, match="length must match mode count"):
            NoiseSpec(system=system, gaussian_q=np.array([1.0]))

    def test_intensities_stored_as_a_float_vector(self):
        system = EigenSystem.from_lambdas([1.0, 2.0])
        spec = NoiseSpec(system=system, gaussian_q=[2, 0])
        assert isinstance(spec.gaussian_q, np.ndarray)
        assert spec.gaussian_q.dtype == np.float64
        assert spec.gaussian_q.tolist() == [2.0, 0.0]
        assert spec.heat_equilibrium_var.tolist() == [1.0, 0.0]

    def test_negative_time_rejected(self):
        spec = make_heat_spec()
        with pytest.raises(InvalidTimeError):
            heat_gaussian_convolution_law(-1.0, spec)
