"""Cutoff time / profile / window tests against exact Gaussian formulas
and Monte-Carlo oracles."""
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdecutoff import (
    CutoffReport,
    EigenSystem,
    ModeCoefficients,
    NoiseSpec,
    build_box_eigensystem,
    cutoff_time,
    decay_constants,
    error_bound,
    distance_and_gap,
    equilibrium_moment,
    gaussian_law,
    heat_apply,
    heat_gaussian_convolution_law,
    heat_leading_data,
    profile,
    profile_cell,
    stream,
    wave_apply,
    wave_decompose,
    wave_overdamped_leader,
    wave_spectrum,
    wave_subcritical_norm_sq,
    window_cell,
    w2_diag_gaussian,
)
from spdecutoff import cutoff, noise_sim
from spdecutoff.cli import run_heat_profile
from spdecutoff.errors import InvalidDomainError, VarianceOverflowError, WrongCaseError
from spdecutoff.spectral_core import WaveState, root_sum_sq
from spdecutoff.wasserstein import bures, wp_empirical_1d


def distance(t, x, eps, spec):
    return distance_and_gap(t, x, eps, spec)[0]


def heat_setup(n=8):
    system = build_box_eigensystem([(math.pi, n)])
    h = ModeCoefficients(system, np.concatenate([[0.0, 1.0, 0.5], np.zeros(n - 3)]))
    q = 1.0 / np.arange(1.0, n + 1) ** 2
    return system, h, NoiseSpec(system=system, gaussian_q=q)


def heat_leader():
    return heat_leading_data(heat_setup()[1])


def wave_leader():
    return wave_overdamped_leader(wave_over_setup()[1])


def whole_wave_leader():
    """A state on the first slow coordinate alone: the leader is the whole datum."""
    wsp = wave_over_setup()[0]
    u = np.zeros(wsp.n_modes)
    u[0] = 2.0
    z = WaveState(wsp, u, u * np.concatenate([wsp.root_slow, np.zeros(wsp.n_modes - 1)]))
    return wave_overdamped_leader(z)


def wave_rate_and_shape_norm():
    # slow root of u'' + 10 u' + lambda_1 u with lambda_1 = pi^2; the shape is
    # the slow coordinate a of (u, w) = (1, 0) = a (1, r) + b (1, r_fast)
    # alone, (a, r a) in the graph norm
    r = -5.0 + math.sqrt(25.0 - math.pi ** 2)
    r_fast = -5.0 - math.sqrt(25.0 - math.pi ** 2)
    a = -r_fast / (r - r_fast)
    return -r, abs(a) * math.sqrt(1.0 + math.pi ** 2 + r * r)


LEADERS = {
    "heat": (heat_leader, lambda: (4.0, 1.0)),
    "wave": (wave_leader, wave_rate_and_shape_norm),
}


@pytest.mark.parametrize("kind", LEADERS)
class TestCutoffTimeAndProfile:
    def test_cutoff_time(self, kind):
        make, expect = LEADERS[kind]
        rate, _ = expect()
        assert cutoff_time(1e-4, make().rate) == pytest.approx(math.log(1e4) / rate,
                                                               rel=1e-12)

    def test_profile_values(self, kind):
        make, expect = LEADERS[kind]
        lead = make()
        rate, norm = expect()
        assert profile(0.0, lead) == pytest.approx(norm, rel=1e-12)
        assert profile(1.0, lead) == pytest.approx(math.exp(-rate) * norm, rel=1e-12)
        assert profile(1.0, lead, p=0.5) == pytest.approx(
            math.sqrt(math.exp(-rate) * norm), rel=1e-12)

    def test_eps_bounds(self, kind):
        lead = LEADERS[kind][0]()
        for bad in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(InvalidDomainError):
                cutoff_time(bad, lead.rate)


@settings(max_examples=200)
@given(eps=st.floats(1e-300, 1.0, exclude_max=True), gamma=st.floats(1e-3, 1e3))
def test_oscillatory_cutoff_time_is_two_ln_eps_over_gamma(eps, gamma):
    assert cutoff_time(eps, 0.5 * gamma) == 2.0 * abs(math.log(eps)) / gamma


class TestRenormalizedDistanceHeat:
    def test_at_time_zero_matches_initial_norm_scale(self):
        _, h, spec = heat_setup()
        eps = 1e-3
        d = distance(0.0, h, eps, spec)
        # at t = 0 the convolution is zero, equilibrium has O(1) spread:
        # distance = sqrt(|h/eps|^2 + sum v_inf)
        expect = math.sqrt(h.norm**2 / eps**2 +
                           float(np.sum(1.0 / np.arange(1.0, 9) ** 2 / (2 * np.arange(1.0, 9) ** 2))))
        assert d == pytest.approx(expect, rel=1e-12)

    def test_monte_carlo_oracle_at_moderate_time(self):
        # single-mode setup so the 1d empirical estimator applies
        system = EigenSystem.from_lambdas([1.0])
        h = ModeCoefficients(system, np.array([1.0]))
        spec = NoiseSpec(system=system, gaussian_q=np.array([1.0]))
        eps, t, n = 0.3, 1.0, 200_000
        exact = distance(t, h, eps, spec)
        rng = stream(31, 0)
        sd_t = math.sqrt(heat_gaussian_convolution_law(t, spec)[0])
        sd_inf = math.sqrt(heat_gaussian_convolution_law(math.inf, spec)[0])
        xs = math.exp(-t) * 1.0 + eps * (sd_t * rng.standard_normal(n))
        ys = eps * (sd_inf * rng.standard_normal(n))
        est = wp_empirical_1d(xs, ys, 2.0) / eps
        assert est == pytest.approx(exact, rel=0.02)

    def test_large_time_limit_is_zero(self):
        _, h, spec = heat_setup()
        d = distance(5000.0, h, 0.5, spec)
        assert d == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200)
    @given(t=st.floats(0.0, 300.0), log10_eps=st.floats(-150.0, -0.01),
           seed=st.integers(0, 2**16))
    def test_agrees_with_w2_diag_gaussian(self, t, log10_eps, seed):
        # the public W2 routine subtracts standard deviations, which loses
        # up to a few u of sqrt(sum v_inf) where they agree; the deficit
        # form does not
        system = build_box_eigensystem([(math.pi, 5), (1.3 * math.pi, 4)])
        rng = np.random.default_rng(seed)
        h = ModeCoefficients(system, rng.normal(size=system.n_modes))
        spec = NoiseSpec(system=system, gaussian_q=rng.uniform(0.0, 2.0, system.n_modes))
        eps = 10.0 ** log10_eps
        mean = heat_apply(t, h, log_scale=-math.log(eps)).values
        v_t = heat_gaussian_convolution_law(t, spec)
        v_inf = heat_gaussian_convolution_law(math.inf, spec)
        expect = w2_diag_gaussian(mean, v_t, np.zeros_like(mean), v_inf)
        slack = 1e-14 * (expect + math.sqrt(float(np.sum(v_inf))))
        assert abs(distance(t, h, eps, spec) - expect) <= slack

    def test_underflow_safe_tiny_eps(self):
        _, h, spec = heat_setup()
        lead = heat_leading_data(h)
        eps = 1e-300  # cutoff time ~ 172; naive e^{-lam t}/eps would overflow/underflow
        t = cutoff_time(eps, lead.rate)
        d = distance(t, h, eps, spec)
        assert d == pytest.approx(1.0, rel=1e-6)


class TestErrorBound:
    def test_bound_dominates_on_grid(self):
        system, h, spec = heat_setup(32)
        lead = heat_leading_data(h)
        c, rate = decay_constants("heat", system=system)
        moment = equilibrium_moment(spec)
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            for rho in (-1.0, 0.0, 1.0):
                t = cutoff_time(eps, lead.rate) + rho
                dist = distance(t, h, eps, spec)
                prof = profile(rho, lead)
                bound = error_bound(rho, eps, lead, c, rate, moment)
                assert abs(dist - prof) <= bound

    def test_concentrated_datum_single_term(self):
        system = EigenSystem.from_lambdas([1.0, 4.0])
        h = ModeCoefficients(system, np.array([2.0, 0.0]))
        spec = NoiseSpec(system=system, gaussian_q=np.array([1.0, 1.0]))
        lead = heat_leading_data(h)
        c, rate = decay_constants("heat", system=system)
        moment = equilibrium_moment(spec)
        b = error_bound(0.0, 1e-3, lead, c, rate, moment)
        assert b == pytest.approx(c * moment * 1e-3, rel=1e-12)

    @settings(max_examples=200)
    @given(rho=st.floats(-5.0, 5.0), log10_eps=st.floats(-14.0, -0.01),
           c=st.floats(0.0, 10.0), rate=st.floats(0.1, 20.0), moment=st.floats(0.0, 5.0))
    def test_heat_leader_matches_the_heat_formula_to_the_bit(self, rho, log10_eps, c,
                                                             rate, moment):
        _, h, _ = heat_setup()
        lead = heat_leading_data(h)
        eps = 10.0 ** log10_eps
        l1, l2 = lead.lambda_lead, lead.lambda_next
        t = abs(math.log(eps)) / l1 + rho
        expect = (c * moment * math.exp(-rate * t)
                  + math.exp(-l1 * rho) * math.exp((l1 - l2) * t) * h.norm)
        assert error_bound(rho, eps, lead, c, rate, moment).hex() == expect.hex()

    @settings(max_examples=200)
    @given(rho=st.floats(-5.0, 5.0), log10_eps=st.floats(-14.0, -0.01),
           c=st.floats(0.0, 10.0), rate=st.floats(0.1, 20.0), moment=st.floats(0.0, 5.0))
    def test_wave_leader_within_rounding_of_the_wave_order(self, rho, log10_eps, c,
                                                           rate, moment):
        # The overdamped wave bound multiplied amplitude before e^{margin t}.
        # Two orders of a three-factor product round apart by at most 4u
        # (u = 2^-53), the sums by 2u more; 2 ulp apart does occur.
        lead = wave_leader()
        eps = 10.0 ** log10_eps
        t = abs(math.log(eps)) / lead.rate + rho
        expect = (c * moment * math.exp(-rate * t)
                  + math.exp(-lead.rate * rho) * lead.amplitude * math.exp(lead.margin * t))
        got = error_bound(rho, eps, lead, c, rate, moment)
        assert abs(got - expect) <= 4.0 * sys.float_info.epsilon * expect

    @pytest.mark.parametrize("make", [
        lambda: heat_leading_data(ModeCoefficients(EigenSystem.from_lambdas([1.0, 4.0]),
                                                   np.array([2.0, 0.0]))),
        whole_wave_leader,
    ], ids=["heat", "wave"])
    def test_whole_datum_leader_gives_the_noise_term_alone(self, make):
        lead = make()
        assert lead.margin == -math.inf
        c, rate, moment, eps = 1.5, 0.7, 0.3, 1e-3
        t_eps = cutoff_time(eps, lead.rate)
        for rho in (-2.0 * t_eps, -t_eps, 0.0, 1.0):
            t = t_eps + rho
            noise = c * moment * math.exp(-rate * t)
            assert error_bound(rho, eps, lead, c, rate, moment) == noise


class TestCutoffInequality:
    def test_exact_gaussian_random_cells(self):
        system, h, spec = heat_setup()
        rng = np.random.default_rng(55)
        for _ in range(60):
            hv = ModeCoefficients(system, rng.standard_normal(8))
            t = float(rng.uniform(0.0, 5.0))
            eps = float(10 ** rng.uniform(-8, -0.5))
            # |d_eps(t) - |S(t)h|/eps| <= W2(conv_t, conv_inf), shift linearity
            # giving the middle term
            lhs, mean, bound = distance_and_gap(t, hv, eps, spec)
            mid = heat_apply(t, hv, log_scale=-math.log(eps)).norm
            assert mean == pytest.approx(mid, rel=1e-14) and abs(lhs - mid) <= bound

    def test_gap_closes_in_time(self):
        _, h, spec = heat_setup()
        gaps = [distance_and_gap(float(t), h, 0.5, spec)[2] for t in np.linspace(0.1, 8, 20)]
        assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))


class TestSimpleCutoffScan:
    def test_divergence_and_collapse(self):
        # the heat-simple rows of heat-profile at delta * t_eps
        _, h, spec = heat_setup()
        cfg = {"dims": [[math.pi, 8]], "initial": [0.0, 1.0, 0.5],
               "noise": {"gaussian_q": "inverse-square"}, "eps_grid": [1e-6, 1e-8],
               "rho_grid": [], "delta_grid": [0.5, 2.0]}
        rows = run_heat_profile(cfg, 0).rows
        assert [r["case"] for r in rows] == ["heat-simple"] * 4
        by = {(r["rho_or_delta"], r["eps"]): r["renormalized"] for r in rows}
        assert by[(0.5, 1e-8)] > by[(0.5, 1e-6)] > 1.0
        assert by[(2.0, 1e-8)] < by[(2.0, 1e-6)] < 1.0
        rate = heat_leading_data(h).rate
        assert by[(0.5, 1e-8)] == distance(
            0.5 * cutoff_time(1e-8, rate), h, 1e-8, spec)


class TestLargeData:
    def test_identity_exact(self):
        _, h, spec = heat_setup()
        rng = np.random.default_rng(77)
        for _ in range(30):
            t = float(rng.uniform(0, 4))
            eps = float(10 ** rng.uniform(-6, -1))
            # W2(X_t^eps(h), eq^eps) / eps = W2(X_t^1(h / eps), eq^1)
            lhs = distance(t, h, eps, spec)
            mean = heat_apply(t, ModeCoefficients(h.system, h.values / eps)).values
            rhs = w2_diag_gaussian(mean, heat_gaussian_convolution_law(t, spec),
                                   np.zeros_like(mean), spec.heat_equilibrium_var)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def wave_over_setup():
    system = build_box_eigensystem([(1.0, 6)])
    wsp = wave_spectrum(10.0, system)  # lambda_1 ~ 9.87 overdamped, rest oscillatory
    u = np.concatenate([[1.0, 0.3], np.zeros(4)])
    w = np.concatenate([[0.0, 0.1], np.zeros(4)])
    z = wave_decompose(wsp, u, w)
    q = 1.0 / np.arange(1.0, 7) ** 2
    return wsp, z, NoiseSpec(system=system, gaussian_q=q)


class TestWaveProfile:
    def test_profile_matches_distance_at_small_eps(self):
        wsp, z, spec = wave_over_setup()
        lead = wave_overdamped_leader(z)
        eps = 1e-8
        for rho in (-1.0, 0.0, 1.0):
            t = cutoff_time(eps, lead.rate) + rho
            d = distance_and_gap(t, z, eps, spec)[0]
            prof = profile(rho, lead)
            assert d == pytest.approx(prof, rel=1e-2)

    def test_error_bound_dominates(self):
        wsp, z, spec = wave_over_setup()
        lead = wave_overdamped_leader(z)
        c, rate = decay_constants("wave", wave_spec=wsp)
        moment = equilibrium_moment(spec, wsp)
        for eps in (1e-3, 1e-5, 1e-8):
            for rho in (-1.0, 0.0, 1.0):
                t = cutoff_time(eps, lead.rate) + rho
                d = distance_and_gap(t, z, eps, spec)[0]
                prof = profile(rho, lead)
                bound = error_bound(rho, eps, lead, c, rate, moment)
                assert abs(d - prof) <= bound


def window_rows(rho_grid, eps_grid, z, spec):
    """wave-window's rows: renormalized is the distance, profile the
    oscillating center and bound the noise gap."""
    return CutoffReport().add_grid("wave-window", 2.0, rho_grid, eps_grid,
                                   window_cell(z, spec)).rows


class TestWaveWindow:
    def setup(self):
        system = build_box_eigensystem([(math.pi, 5)])
        wsp = wave_spectrum(1.0, system)
        rng = np.random.default_rng(91)
        z = wave_decompose(wsp, rng.standard_normal(5), rng.standard_normal(5))
        q = 1.0 / np.arange(1.0, 6) ** 2
        return wsp, z, NoiseSpec(system=system, gaussian_q=q)

    def test_rows_pass_rigorous_check(self):
        wsp, z, spec = self.setup()
        rows = window_rows([-2.0, 0.0, 2.0], [1e-4, 1e-8], z, spec)
        assert all(r["pass"] for r in rows)
        # envelope of |v(t, z)| over eight slow periods
        ts = np.linspace(0.0, 8 * 2.0 * math.pi / float(np.min(wsp.theta)), 4096)
        v = [math.sqrt(max(wave_subcritical_norm_sq(t, z), 0.0)) for t in ts.tolist()]
        for r in rows:
            scale = math.exp(-0.5 * wsp.gamma * r["rho_or_delta"])
            assert scale * min(v) <= r["profile"] * 1.001 + 1e-12
            assert r["profile"] <= scale * max(v) * 1.001 + 1e-12

    def test_no_convergence_inside_window(self):
        # the center oscillates: spread over t at fixed rho stays bounded away
        # from zero while eps -> 0
        wsp, z, spec = self.setup()
        rows = window_rows([0.0], [1e-4, 1e-6, 1e-8], z, spec)
        vals = [r["renormalized"] for r in rows]
        assert min(vals) > 0.1 * max(vals)

    def test_monotone_trend_across_window(self):
        wsp, z, spec = self.setup()
        rows = window_rows([-5.0, 5.0], [1e-8], z, spec)
        assert rows[0]["renormalized"] > 100.0 * rows[1]["renormalized"]

    def test_overdamped_state_rejected(self):
        wsp, z, spec = wave_over_setup()
        with pytest.raises(WrongCaseError):
            window_rows([0.0], [1e-4], z, spec)


# The t = 0 case where the overdamped propagator rounds P_0 to
# 1.0000000000000002 on the diagonal, so that Sigma_inf - P_0 Sigma_inf P_0^T
# had a negative variance and the W2 call raised "covariance blocks must be
# PSD".  The oscillatory propagator is exactly I at t = 0, so the window
# cell (subcritical damping only) never met it.


def zero_time_case():
    system = EigenSystem.from_lambdas([1.375, 2.375, 6.375, 26.140625])
    wsp = wave_spectrum(15.33837100216317, system)
    z = wave_decompose(wsp, np.array([1.0, 0.3, 0.0, 0.0]), np.array([0.0, 0.1, 0.0, 0.0]))
    return wsp, z, NoiseSpec(system=system, gaussian_q=np.array([0.0, 0.0, 0.0, 1.0]))


class TestWaveLawAtTimeZero:
    def test_law_is_zero(self):
        wsp, _, spec = zero_time_case()
        law = noise_sim.wave_gaussian_convolution_law(0.0, spec, wsp)
        assert law.shape == (4, 2, 2) and not np.any(law)

    def test_distance_and_gap_are_the_equilibrium_moments(self):
        # at t = 0 the process is the point z/eps: its W2 to the equilibrium
        # is sqrt(|z/eps|^2 + m^2), m the equilibrium's root second moment
        wsp, z, spec = zero_time_case()
        eps = 1e-3
        dist, _, gap = distance_and_gap(0.0, z, eps, spec)
        moment = equilibrium_moment(spec, wsp)
        assert gap == pytest.approx(moment, rel=1e-14)
        lam = wsp.system.lambdas
        norm_sq = float(np.sum((1.0 + lam) * z.position ** 2
                               + z.velocity ** 2)) / eps ** 2
        assert dist == pytest.approx(math.sqrt(norm_sq + moment ** 2), rel=1e-12)

    def test_profile_cell_at_minus_the_cutoff_time(self):
        # rho = -t_eps puts the wave-profile cell at t = 0 exactly
        wsp, z, spec = zero_time_case()
        lead = wave_overdamped_leader(z)
        eps = 1e-4
        rho = -cutoff_time(eps, lead.rate)
        assert cutoff_time(eps, lead.rate) + rho == 0.0
        cell = profile_cell(lead, 2.0, z, spec, decay_constants("wave", wave_spec=wsp))
        dist, prof, bound = cell(rho, eps)
        assert dist == distance_and_gap(0.0, z, eps, spec)[0]
        assert all(map(math.isfinite, (dist, prof, bound)))


# The wave equilibrium moment as the CLI took it before equilibrium_moment,
# kept as a byte-for-byte reference: the wave-profile bound keeps its bits.


def reference_wave_moment(spec, wsp):
    covs = noise_sim.wave_gaussian_convolution_law(math.inf, spec, wsp)
    lam = wsp.system.lambdas
    return math.sqrt(
        float(np.sum((1.0 + lam) * covs[:, 0, 0] + covs[:, 1, 1]))
    )


INTENSITY = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def wave_cases(draw):
    """A wave state and noise on an all-overdamped, all-oscillatory, mixed or
    critically damped simple spectrum, with some intensities switched off.
    In the critical case lambda_j = (gamma / 2)^2 exactly, with overdamped
    modes below it and oscillatory ones above."""
    kind = draw(st.sampled_from(["overdamped", "oscillatory", "mixed", "critical"]))
    n = draw(st.integers(1 if kind in ("overdamped", "oscillatory") else 2, 6))
    if kind == "critical":
        h = draw(st.integers(2, 8)) / 2.0
        j = draw(st.integers(0, n - 1))
        below = draw(st.lists(st.floats(0.3, 0.95), min_size=j, max_size=j))
        gaps = draw(st.lists(st.floats(0.5, 20.0), min_size=n - 1 - j, max_size=n - 1 - j))
        system = EigenSystem.from_lambdas([x * h * h for x in below]
                                          + np.cumsum([h * h] + gaps).tolist())
        gamma = 2.0 * h
    else:
        lam0 = draw(st.floats(0.5, 20.0))
        gaps = draw(st.lists(st.floats(0.5, 20.0), min_size=n - 1, max_size=n - 1))
        system = EigenSystem.from_lambdas(np.cumsum([lam0] + gaps))
        lam = system.lambdas
        if kind == "overdamped":
            gamma = 3.0 * math.sqrt(lam[-1])
        elif kind == "oscillatory":
            gamma = math.sqrt(lam[0])
        else:  # gamma^2 / 4 halfway between lambda_1 and lambda_2
            gamma = math.sqrt(2.0 * (lam[0] + lam[1]))
    wsp = wave_spectrum(gamma, system)
    if kind == "critical":
        assert wsp.n_over == j + 1 and wsp.s[j] == 0.0
    else:
        assert wsp.n_over == {"overdamped": n, "oscillatory": 0, "mixed": 1}[kind]
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    z = wave_decompose(wsp, np.array(draw(coords)), np.array(draw(coords)))
    q = draw(st.lists(INTENSITY, min_size=n, max_size=n))
    return wsp, z, NoiseSpec(system=system, gaussian_q=np.array(q))


def mp_propagator(t, wsp, k):
    """Mode k's propagator c I + s (A + gamma/2 I) at 50 digits, from the
    spectrum's float root data (the slow root and s, or theta): the float
    model that wave_apply evaluates."""
    h = mpmath.mpf(wsp.gamma) / 2
    lk = mpmath.mpf(wsp.system.lambdas[k])
    if k < wsp.n_over:
        r, s = mpmath.mpf(wsp.root_slow[k]), mpmath.mpf(wsp.s[k])
        c = mpmath.exp(r * t) * (1 + mpmath.exp(-2 * s * t)) / 2
        s = mpmath.exp(r * t) * (-mpmath.expm1(-2 * s * t) / (2 * s) if s > 0 else t)
    else:
        theta = mpmath.mpf(wsp.theta[k - wsp.n_over])
        c = mpmath.exp(-h * t) * mpmath.cos(theta * t)
        s = mpmath.exp(-h * t) * mpmath.sin(theta * t) / theta
    return mpmath.matrix([[c + s * h, s], [-lk * s, c - s * h]])


def mp_gelbrich_sq(a, b):
    """Gelbrich's tr a + tr b - 2 sqrt(tr(ab) + 2 sqrt(det a det b)) for 2x2
    mpmath blocks, taken directly (the caller sets the precision)."""
    cross = mpmath.sqrt(max(mpmath.det(a) * mpmath.det(b), 0))
    ab = a * b
    return a[0, 0] + a[1, 1] + b[0, 0] + b[1, 1] - 2 * mpmath.sqrt(ab[0, 0] + ab[1, 1] + 2 * cross)


def mp_wave_distance_and_gap(t, z, eps, spec):
    """(distance, gap, distance tolerance, gap tolerance) of the float model
    at 50 digits.  Each block pair's W2 is taken directly, with the working
    precision raised by the digits that its trace minus twice the Bures term
    cancels (a block relaxed below 1e-350 is left at 0, under any double).
    A tolerance is 8u times one plus the exponent arguments |r t| + theta t
    + |ln eps| that the float flow rounds, weighted by each mode's share,
    plus each block's share times sqrt(tr A / lambda_min(A - D)): next to
    t = 0 the law A - D is small, and a rounding of u tr A in it moves a
    Bures term by up to sqrt(u) of itself."""
    wsp = z.spectrum
    t_mp, h = mpmath.mpf(t), mpmath.mpf(wsp.gamma) / 2
    means, gaps, args, kappas = [], [], [], []
    for k, (lk, qk) in enumerate(zip(wsp.system.lambdas, spec.gaussian_q)):
        with mpmath.workdps(60):
            P = mp_propagator(t_mp, wsp, k)
            w = mpmath.diag([mpmath.sqrt(1 + mpmath.mpf(lk)), 1])
            mean = w * P * mpmath.matrix([z.position[k], z.velocity[k]]) / mpmath.mpf(eps)
            means.append(mean[0] ** 2 + mean[1] ** 2)
            s_inf = mpmath.diag([mpmath.mpf(qk) / (4 * h * lk), mpmath.mpf(qk) / (4 * h)])
            eq, deficit = w * s_inf * w, w * P * s_inf * P.T * w
            tr = eq[0, 0] + eq[1, 1]
            ratio = (deficit[0, 0] + deficit[1, 1]) / tr if qk else 0
        lost = int(-2 * mpmath.log10(ratio)) if 0 < ratio < 1 else 0
        if ratio == 0 or lost > 700:
            gaps.append(mpmath.mpf(0))
            kappas.append(1.0)
        else:
            with mpmath.workdps(60 + lost):
                P = mp_propagator(t_mp, wsp, k)
                w = mpmath.diag([mpmath.sqrt(1 + mpmath.mpf(lk)), 1])
                s_inf = mpmath.diag([mpmath.mpf(qk) / (4 * h * lk), mpmath.mpf(qk) / (4 * h)])
                eq, law = w * s_inf * w, w * (s_inf - P * s_inf * P.T) * w
                gaps.append(mp_gelbrich_sq(eq, law))
                tr_b = law[0, 0] + law[1, 1]
                low = mpmath.det(law) / tr_b if tr_b > 0 else 0  # >= lambda_min / 2
                kappas.append(float(min(2.0 ** 26.5, mpmath.sqrt((eq[0, 0] + eq[1, 1])
                                                                 / max(low, 1e-300)))))
        theta = wsp.theta[k - wsp.n_over] if k >= wsp.n_over else 0.0
        args.append(t * (wsp.gamma + theta) + abs(math.log(eps)))
    with mpmath.workdps(60):
        total, gap = sum(means) + sum(gaps), sum(gaps)

        def tol(parts, whole):
            if not whole:
                return 0.0
            return 8 * 2.0 ** -53 * (1 + sum(float(p / whole) * (a + c) for p, a, c in
                                             zip(parts, args, kappas)))

        return (float(mpmath.sqrt(total)), float(mpmath.sqrt(gap)),
                tol([m + g for m, g in zip(means, gaps)], total), tol(gaps, gap))


def near(got, want, tol):
    """got within tol relative of want, or both below 1e-290 (underflow)."""
    return abs(got - want) <= tol * want + 1e-290


# The full-length heat flow and noise law that evaluate exp and expm1 on
# every mode, kept as byte-for-byte references for the flow on the datum's
# support and the noise law on the unrelaxed modes.


def reference_heat_apply(t, h, log_scale=0.0):
    factors = np.exp(-h.system.lambdas * t + log_scale)
    return h.values * factors


def reference_heat_variances(t, spec):
    lam = spec.system.lambdas
    return spec.gaussian_q * -np.expm1(-2.0 * lam * t) / (2.0 * lam)


@st.composite
def heat_cases(draw):
    """A datum with empty, sparse or full support, or one run of modes that
    ends anywhere, before or past the unrelaxed ones, and noise with some
    modes off, on a spectrum spread over six decades so that the relaxed
    modes start anywhere from the first mode to past the last."""
    n = draw(st.one_of(st.integers(1, 128), st.integers(129, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = EigenSystem.from_lambdas(10.0 ** rng.uniform(-2.0, 4.0, n))
    q = rng.uniform(0.0, 2.0, n)
    q[rng.random(n) < 0.2] = 0.0
    values = np.zeros(n)
    support = draw(st.sampled_from(["empty", "sparse", "full", "run"]))
    if support == "sparse":
        idx = rng.choice(n, size=min(n, 7), replace=False)
        values[idx] = rng.normal(size=idx.size)
    elif support == "full":
        values = rng.normal(size=n)
    elif support == "run":
        end = int(rng.integers(1, n + 1))
        start = int(rng.integers(max(0, end - 20), end))
        values[start:end] = rng.normal(size=end - start)
    return ModeCoefficients(system, values), NoiseSpec(system=system, gaussian_q=q)


def mp_heat_distance_and_gap(t, h, eps, spec):
    """(distance, gap, tolerance) at 50 digits: the mean h e^{-lambda t} /
    eps and, per mode, sqrt v_inf - sqrt v_t = D / (sqrt v_inf + sqrt v_t)
    with D = v_inf e^{-2 lambda t}, which cancels nothing.  The tolerance is
    8u times one plus the exponent arguments 2 lambda t + |ln eps| that the
    float flow and law round, weighted by each mode's share."""
    with mpmath.workdps(60):
        t_mp, inv_eps = mpmath.mpf(t), 1 / mpmath.mpf(eps)
        means, gaps, args = [], [], []
        for lk, qk, hk in zip(spec.system.lambdas.tolist(), spec.gaussian_q.tolist(),
                              h.values.tolist()):
            lk = mpmath.mpf(lk)
            means.append((hk * mpmath.exp(-lk * t_mp) * inv_eps) ** 2)
            v_inf = mpmath.mpf(qk) / (2 * lk)
            deficit = v_inf * mpmath.exp(-2 * lk * t_mp)
            root = mpmath.sqrt(v_inf) + mpmath.sqrt(v_inf - deficit)
            gaps.append((deficit / root) ** 2 if root else mpmath.mpf(0))
            args.append(2.0 * float(lk) * t + abs(math.log(eps)))
        total, gap = sum(means) + sum(gaps), sum(gaps)
        shares = [float((m + g) / total) if total else 0.0 for m, g in zip(means, gaps)]
        tol = 8 * 2.0 ** -53 * (1 + sum(s * a for s, a in zip(shares, args)))
        return float(mpmath.sqrt(total)), float(mpmath.sqrt(gap)), tol


class TestOneDistance:
    @settings(max_examples=200, deadline=None)
    @given(case=wave_cases(), t=st.floats(0.0, 300.0),
           log10_eps=st.floats(-12.0, math.log10(0.9)))
    def test_wave_distance_and_gap_match_a_50_digit_oracle(self, case, t, log10_eps):
        wsp, z, spec = case
        eps = 10.0 ** log10_eps
        try:
            dist, _, gap = distance_and_gap(t, z, eps, spec)
        except InvalidDomainError as e:
            # Sigma_inf - P_t Sigma_inf P_t^T rounds below 0 next to t = 0
            # on overdamped modes (ROADMAP item 2, the small-t closed form)
            assert str(e) == "covariance blocks must be PSD" and 0.0 < t < 1e-4
            return
        want_dist, want_gap, tol_dist, tol_gap = mp_wave_distance_and_gap(t, z, eps, spec)
        assert near(dist, want_dist, tol_dist)
        assert near(gap, want_gap, tol_gap)

    @settings(max_examples=200, deadline=None)
    @given(case=heat_cases(),
           t=st.one_of(st.sampled_from([0.0, 5e-324, 1e6]), st.floats(0.0, 300.0)),
           log_eps=st.floats(-700.0, -0.01))
    def test_heat_distance_and_gap_match_a_50_digit_oracle(self, case, t, log_eps):
        h, spec = case
        eps = math.exp(log_eps)
        dist, _, gap = distance_and_gap(t, h, eps, spec)
        want_dist, want_gap, tol = mp_heat_distance_and_gap(t, h, eps, spec)
        assert near(dist, want_dist, tol)
        assert near(gap, want_gap, tol)

    @settings(max_examples=100, deadline=None)
    @given(case=wave_cases())
    def test_wave_moment_equals_the_old_cli_expression(self, case):
        wsp, _, spec = case
        assert (equilibrium_moment(spec, wsp).hex()
                == reference_wave_moment(spec, wsp).hex())

    @settings(max_examples=100, deadline=None)
    @given(case=heat_cases())
    def test_heat_moment_equals_the_old_expression(self, case):
        _, spec = case
        assert (equilibrium_moment(spec).hex()
                == math.sqrt(np.sum(spec.heat_equilibrium_var)).hex())

    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_a_deficit_above_its_block_raises(self, monkeypatch, kind):
        _, x, spec = wave_over_setup() if kind == "wave" else heat_setup(6)
        law = gaussian_law

        def bad_law(t, *args):
            out = law(t, *args)
            cov = out.cov.copy()
            cov[0] = -out.eq[0]
            return type(out)(out.eq, out.deficit, cov)

        monkeypatch.setattr(cutoff, "gaussian_law", bad_law)
        with pytest.raises(InvalidDomainError, match="^covariance blocks must be PSD$"):
            distance_and_gap(1.0, x, 1e-4, spec)


def assert_live_modes_hold_the_gap(t, spec):
    """The heat law's live modes: every Bures distance past them is below
    2^-70 of the largest live one, or 0 in floating point, so the gap over
    all modes equals the live one to rounding.  Returns their count."""
    law = gaussian_law(t, spec)
    k = law.deficit.size
    eq, lam = spec.heat_equilibrium_var, spec.system.lambdas
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # t = 1e6
        full = bures(eq, eq * np.exp(-2.0 * lam * t),
                     spec.gaussian_q * -np.expm1(-2.0 * lam * t) / (2.0 * lam))
    live = full[:k]
    assert live.tobytes() == bures(law.eq[:k], law.deficit, law.cov).tobytes()
    assert np.all(full[k:] <= 2.0 ** -70 * live.max(initial=0.0))
    assert root_sum_sq(full) == pytest.approx(root_sum_sq(live), rel=1e-15, abs=0.0)
    return k


class TestHeatLiveModes:
    @settings(max_examples=300, deadline=None)
    @given(case=heat_cases(),
           t=st.one_of(st.sampled_from([0.0, 5e-324, 1e6]), st.floats(0.0, 300.0)),
           log_eps=st.floats(-700.0, -0.01))
    def test_flow_and_law_equal_the_full_length_versions(self, case, t, log_eps):
        h, spec = case
        eps = math.exp(log_eps)
        log_scale = -math.log(eps)
        with np.errstate(over="ignore"):  # |S(t)h/eps| may overflow on both sides
            mean = reference_heat_apply(t, h, log_scale)
            assert heat_apply(t, h, log_scale).values.tobytes() == mean.tobytes()
            v_t = reference_heat_variances(t, spec)
            v_inf = reference_heat_variances(math.inf, spec)
            assert heat_gaussian_convolution_law(t, spec).tobytes() == v_t.tobytes()
            assert spec.heat_equilibrium_var.tobytes() == v_inf.tobytes()
            mid = heat_apply(t, h, log_scale).norm
            assert mid.hex() == ModeCoefficients(h.system, mean).norm.hex()
        assert_live_modes_hold_the_gap(t, spec)

    def test_every_heat_3d_cell_drops_only_negligible_terms(self):
        # the heat-profile grid on the 27,000-mode box: 13 rho and 6 delta
        # cells per eps, inverse-square noise
        system = build_box_eigensystem([(math.pi, 30), (1.1 * math.pi, 30),
                                        (1.3 * math.pi, 30)])
        spec = NoiseSpec(system=system,
                         gaussian_q=1.0 / np.arange(1.0, system.n_modes + 1) ** 2)
        rate = float(system.lambdas[1])  # mode 1 leads
        live = []
        for eps in (10.0 ** -k for k in range(3, 15)):
            t_eps = cutoff_time(eps, rate)
            for t in ([t_eps + 0.25 * k for k in range(-6, 7)]
                      + [d * t_eps for d in (0.25, 0.5, 0.75, 1.5, 2.0, 3.0)]):
                live.append(assert_live_modes_hold_the_gap(t, spec))
        assert (len(live), sum(live), max(live)) == (228, 5_306, 1_404)

    def test_an_overflowing_equilibrium_variance_is_rejected(self):
        # q / (2 lambda) overflows on mode 900, relaxed at t = 1e4 like every
        # mode: the spec rejects it, so every equilibrium variance is finite
        system = EigenSystem.from_lambdas(np.linspace(0.01, 0.4, 1000))
        q = np.full(1000, 0.5)
        q[900] = 1.7e308
        spec = NoiseSpec(system=system, gaussian_q=q)
        h = ModeCoefficients(system, np.eye(1, 1000)[0])
        with pytest.raises(VarianceOverflowError, match="mode 900: ") as exc:
            distance(1e4, h, 0.1, spec)
        assert exc.value.index == 900
        q[900] = 0.5
        spec = NoiseSpec(system=system, gaussian_q=q)
        want = mp_heat_distance_and_gap(1e4, h, 0.1, spec)[0]
        assert distance(1e4, h, 0.1, spec) == pytest.approx(want, rel=1e-13)

    def test_expm1_is_minus_one_where_the_modes_count_as_relaxed(self):
        # a mode counts as relaxed when lambda >= 20 / t, so 2 lambda t is at
        # least 40 up to rounding
        t = np.geomspace(5e-324, 1.7e308, 20_001)
        with np.errstate(over="ignore"):  # 20 / t = inf: every mode is unrelaxed
            assert np.all(-2.0 * (20.0 / t) * t <= -38.0)
        x = np.concatenate([np.linspace(-38.0, -800.0, 1_000_001),
                            -np.geomspace(800.0, 1.7e308, 10_001), [-np.inf]])
        assert np.all(np.expm1(x) == -1.0)

    def test_zero_coefficient_whose_factor_overflows_stays_zero(self):
        # -log eps - lambda_1 t = 712.8 > 709.78: e^{712.8} overflows, and a
        # full-length flow turned 0 * inf into NaN on the zero mode
        system = EigenSystem.from_lambdas([1.0, 400.0])
        h = ModeCoefficients(system, np.array([0.0, 1.0]))
        spec = NoiseSpec(system=system, gaussian_q=np.array([1.0, 1.0]))
        eps, t = 1e-310, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(reference_heat_apply(t, h, -math.log(eps))[0])
        assert heat_apply(t, h, log_scale=-math.log(eps)).values[0] == 0.0
        assert distance(t, h, eps, spec) == pytest.approx(
            math.exp(-400.0 - math.log(eps)), rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-3, 0.5, 1.0, 5.0, 17.0, 18.0, 20.0,
                                   100.0, 300.0])
    def test_heat_noise_gap_matches_a_50_digit_oracle(self, t):
        # the README heat config: 32 modes on (0, pi), inverse-square q;
        # past t = 177 the squares of the gap underflow, the gap does not
        system, h, spec = heat_setup(32)
        assert gaussian_law(math.inf, spec).deficit.size == 0  # the gap at t = inf is 0
        want = mp_heat_noise_gap(t, spec)
        assert abs(distance_and_gap(t, h, 0.5, spec)[2] - want) <= 1e-13 * want

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 32), t=st.floats(0.0, 300.0), data=st.data())
    def test_heat_noise_gap_matches_a_50_digit_oracle_with_modes_off(self, n, t, data):
        system = build_box_eigensystem([(math.pi, n)])
        q = data.draw(st.lists(INTENSITY, min_size=n, max_size=n))
        spec = NoiseSpec(system=system, gaussian_q=np.array(q))
        h = ModeCoefficients(system, np.zeros(n))
        want = mp_heat_noise_gap(t, spec)
        assert abs(distance_and_gap(t, h, 0.5, spec)[2] - want) <= 1e-13 * want

    @pytest.mark.parametrize("t", [89.5, 90.0, 92.0])
    def test_a_subnormal_gap_is_rounded_once(self, t):
        # lambda = 4 live alone: D = e^{-8 t} / 8 is subnormal, and rounding D
        # and its Bures term on the 2^-1074 grid put the gap one step off the
        # 50-digit value at t = 89.5 and 92 (up to 13 steps on random box
        # spectra with several live modes)
        system = build_box_eigensystem([(math.pi, 2)])
        spec = NoiseSpec(system=system, gaussian_q=np.array([0.0, 1.0]))
        h = ModeCoefficients(system, np.zeros(2))
        want = mp_heat_noise_gap(t, spec)
        assert 0.0 < want < sys.float_info.min
        assert distance_and_gap(t, h, 0.5, spec)[2] == want


def mp_heat_noise_gap(t, spec):
    """sqrt(sum (sd_inf - sd_t)^2) by direct subtraction in mpmath, with
    enough working digits that the slowest-relaxing mode keeps 50 of them."""
    lam = [mpmath.mpf(x) for x in spec.system.lambdas]
    q = [mpmath.mpf(x) for x in spec.gaussian_q]
    on = [x for x, qk in zip(spec.system.lambdas, spec.gaussian_q) if qk > 0]
    if math.isinf(t) or not on:
        return 0.0
    lost = int(2.0 * on[0] * t / math.log(10.0))
    with mpmath.workdps(50 + lost):
        total = mpmath.mpf(0)
        for lk, qk in zip(lam, q):
            v_inf = qk / (2 * lk)
            v_t = v_inf * -mpmath.expm1(-2 * lk * mpmath.mpf(t))
            total += (mpmath.sqrt(v_inf) - mpmath.sqrt(v_t)) ** 2
        return float(mpmath.sqrt(total))


class TestReport:
    def test_csv_schema_and_determinism(self):
        rep = CutoffReport()
        rep.add("heat-additive", 2.0, 1e-4, 0.5, 1.234567890123456789, 1.0, 0.1)
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "case,p,eps,rho_or_delta,renormalized,profile,bound,pass"
        fields = lines[1].split(",")
        assert fields[0] == "heat-additive"
        assert fields[-1] == "false"
        # 17 significant digits roundtrip
        assert float(fields[4]) == 1.234567890123456789
        assert rep.to_csv() == text
