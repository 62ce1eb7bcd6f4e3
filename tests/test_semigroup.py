"""Flow tests: heat semigroup, damped-wave group, leaders, decay constants.

The independent oracles for the wave flow are scipy's dense matrix
exponential applied to each 2x2 mode block and, near critical damping,
mpmath's at 50 digits.
"""
import dataclasses
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spdecutoff import (
    EigenSystem,
    ModeCoefficients,
    build_box_eigensystem,
    decay_constants,
    heat_apply,
    wave_apply,
    wave_decompose,
    wave_mode_propagator,
    wave_overdamped_leader,
    wave_spectrum,
    wave_subcritical_norm_sq,
)
from spdecutoff.semigroup import _norm_2x2
from spdecutoff.errors import (
    InvalidDomainError,
    InvalidTimeError,
    WrongCaseError,
)


def mode_block(lam, gamma):
    return np.array([[0.0, 1.0], [-lam, -gamma]])


def root_fast(sp, k=0):
    return -0.5 * sp.gamma - sp.s[k]


class TestHeatApply:
    def test_identity_at_zero(self):
        system = build_box_eigensystem([(math.pi, 4)])
        h = ModeCoefficients(system, np.array([1.0, -2.0, 0.5, 3.0]))
        assert np.array_equal(heat_apply(0.0, h).values, h.values)

    def test_explicit_values(self):
        system = EigenSystem.from_lambdas([1.0, 4.0])
        h = ModeCoefficients(system, np.array([1.0, 1.0]))
        out = heat_apply(math.log(2.0), h)
        assert out.values[0] == pytest.approx(0.5, rel=1e-14)
        assert out.values[1] == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_dense_exponential_oracle(self):
        rng = np.random.default_rng(11)
        system = build_box_eigensystem([(2.0, 5)])
        h = ModeCoefficients(system, rng.standard_normal(5))
        for t in (0.1, 0.7, 2.3):
            oracle = expm(-t * np.diag(system.lambdas)) @ h.values
            assert np.allclose(heat_apply(t, h).values, oracle, rtol=1e-13)

    def test_semigroup_property(self):
        system = EigenSystem.from_lambdas([1.0, 3.0, 7.0])
        h = ModeCoefficients(system, np.array([1.0, -1.0, 2.0]))
        a = heat_apply(0.4, heat_apply(0.9, h)).values
        b = heat_apply(1.3, h).values
        assert np.allclose(a, b, rtol=1e-13)

    def test_contraction(self):
        rng = np.random.default_rng(2)
        system = build_box_eigensystem([(1.0, 6)])
        for _ in range(20):
            h = ModeCoefficients(system, rng.standard_normal(6))
            t = float(rng.uniform(0, 3))
            assert heat_apply(t, h).norm <= math.exp(-system.lambdas[0] * t) * h.norm + 1e-12

    def test_log_scale_survives_huge_times(self):
        system = EigenSystem.from_lambdas([4.0, 9.0])
        h = ModeCoefficients(system, np.array([1.0, 0.5]))
        t = 500.0
        out = heat_apply(t, h, log_scale=4.0 * t)
        assert out.values[0] == pytest.approx(1.0, rel=1e-12)
        assert out.values[1] == pytest.approx(0.5 * math.exp(-5.0 * t))

    def test_negative_time_rejected(self):
        system = EigenSystem.from_lambdas([1.0])
        with pytest.raises(InvalidTimeError):
            heat_apply(-0.1, ModeCoefficients(system, np.array([1.0])))


class TestWaveApply:
    def test_identity_at_zero(self):
        system = build_box_eigensystem([(1.0, 4)])
        sp = wave_spectrum(9.0, system)
        rng = np.random.default_rng(3)
        u, w = rng.standard_normal(4), rng.standard_normal(4)
        z = wave_apply(0.0, wave_decompose(sp, u, w))
        assert np.allclose(z.position, u, atol=1e-13)
        assert np.allclose(z.velocity, w, atol=1e-13)

    def test_expm_oracle_mixed_regimes(self):
        rng = np.random.default_rng(7)
        system = build_box_eigensystem([(1.0, 5)])
        sp = wave_spectrum(9.0, system)  # 1 overdamped + 4 oscillatory
        assert sp.n_over == 1
        for _ in range(10):
            u, w = rng.standard_normal(5), rng.standard_normal(5)
            z = wave_decompose(sp, u, w)
            t = float(rng.uniform(0, 4))
            zt = wave_apply(t, z)
            ut, wt = zt.position, zt.velocity
            for k in range(5):
                vec = expm(t * mode_block(system.lambdas[k], 9.0)) @ np.array([u[k], w[k]])
                assert ut[k] == pytest.approx(vec[0], abs=1e-10)
                assert wt[k] == pytest.approx(vec[1], abs=1e-10)

    def test_group_property(self):
        system = EigenSystem.from_lambdas([2.0, 9.0])
        sp = wave_spectrum(3.0, system)
        z = wave_decompose(sp, np.array([1.0, -0.5]), np.array([0.2, 1.0]))
        z1 = wave_apply(0.6, wave_apply(0.9, z))
        z2 = wave_apply(1.5, z)
        assert np.allclose(z1.position, z2.position, atol=1e-13)
        assert np.allclose(z1.velocity, z2.velocity, atol=1e-13)

    def test_propagator_matches_expm(self):
        for lam, gamma, t in [(2.0, 3.0, 0.7), (9.0, 1.0, 2.1), (0.5, 5.0, 0.05)]:
            oracle = expm(t * mode_block(lam, gamma))
            assert np.allclose(np.reshape(wave_mode_propagator(t, lam, gamma), (2, 2)), oracle,
                               atol=1e-12)

    def test_rescaled_oscillatory_mode_evolves_on_circle(self):
        # For subcritical damping, after removing e^{-gamma t / 2} each mode
        # traces an ellipse: theta^2 u~^2 + (w~ + gamma/2 u~)^2 is conserved.
        system = EigenSystem.from_lambdas([1.0])
        sp = wave_spectrum(1.0, system)
        theta = sp.theta[0]
        z = wave_decompose(sp, np.array([1.0]), np.array([-0.5]))
        vals = []
        for t in np.linspace(0, 7, 40):
            zt = wave_apply(t, z, log_scale=0.5 * t)
            ut, wt = zt.position[0], zt.velocity[0]
            vals.append(theta**2 * ut**2 + (wt + 0.5 * ut) ** 2)
            # cross-check the rescaled flow against the expm oracle
            vec = expm(t * mode_block(1.0, 1.0)) @ np.array([1.0, -0.5])
            assert ut == pytest.approx(math.exp(0.5 * t) * vec[0], abs=1e-9)
        assert np.allclose(vals, vals[0], rtol=1e-10)


def expm_50(t, lam, gamma):
    """exp(t A) of the mode block at 50 digits, the float inputs taken exactly."""
    with mpmath.workdps(50):
        return mpmath.expm(mpmath.matrix([[0, 1], [-lam, -gamma]]) * t)


def block_of(P):
    """The row-major entries of ``wave_mode_propagator`` as a 2x2 mpmath matrix."""
    return mpmath.matrix(np.reshape(P, (2, 2)).tolist())


def graph_coords(P, lam):
    """D P D^-1 with D = diag(sqrt(1 + lambda), 1): the block in coordinates
    where the graph norm is Euclidean, as 50-digit numbers."""
    with mpmath.workdps(50):
        d = mpmath.sqrt(1 + mpmath.mpf(lam))
        return mpmath.matrix([[P[0, 0], P[0, 1] * d], [P[1, 0] / d, P[1, 1]]])


# Within +-1e-3 of critical damping, gamma^2 / (4 lambda) - 1 = x (exactly 0
# included).  Times are tau / gamma with tau = gamma t <= 20: a float
# evaluation of e^{rt} carries a relative error of about |rt| ulp, so the
# 1e-14 bound holds for |rt| up to a few tens.
COORD = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
NEAR_CRITICAL = dict(gamma=st.floats(1e-3, 1e8),
                     x=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
                     tau=st.floats(0.0, 20.0))


class TestPropagatorOracle:
    """The one (c, s) formula against a 50-digit matrix exponential.  Errors
    are measured in graph-norm coordinates against the largest entry of the
    block (times the largest entry of D z for a state), since an entry of P
    crosses zero at some times."""

    @settings(max_examples=300, deadline=None)
    @given(**NEAR_CRITICAL)
    def test_propagator_near_critical_damping(self, gamma, x, tau):
        lam = gamma * gamma / (4.0 * (1.0 + x))
        t = tau / gamma
        exact = graph_coords(expm_50(t, lam, gamma), lam)
        got = graph_coords(block_of(wave_mode_propagator(t, lam, gamma)), lam)
        scale = max(abs(v) for v in exact)
        assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-14 * scale

    @pytest.mark.parametrize("h", [0.75, 5.0, 3e3, 2.0 ** -20])
    def test_jordan_block_at_exact_critical_damping(self, h):
        # lambda = h^2 exactly: P = e^{-ht} (I + t (A + h I))
        sp = wave_spectrum(2.0 * h, EigenSystem.from_lambdas([h * h]))
        assert sp.s[0] == 0.0
        for tau in (0.0, 0.5, 1.0, 7.0):
            t = tau / h
            exact = graph_coords(expm_50(t, h * h, 2.0 * h), h * h)
            got = graph_coords(block_of(wave_mode_propagator(t, h * h, 2.0 * h)), h * h)
            assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-15 * max(map(abs, exact))

    @pytest.mark.parametrize("gamma", [1e4, 1e8, 1e200])
    def test_propagator_under_strong_damping(self, gamma):
        # t gamma reaches 1e400, beyond expm's squarings; the two-root form
        # at 450 digits keeps 50 after the slow root's cancellation
        lam = math.pi ** 2
        rate = -wave_spectrum(gamma, EigenSystem.from_lambdas([lam])).root_slow[0]
        for t in (1.0 / gamma, 1.0, 20.0 / rate):
            with mpmath.workdps(450):
                h = mpmath.mpf(gamma) / 2
                rp, rm = -h + mpmath.sqrt(h * h - lam), -h - mpmath.sqrt(h * h - lam)
                A, eye = mpmath.matrix([[0, 1], [-lam, -gamma]]), mpmath.eye(2)
                exact = (mpmath.exp(rp * t) * (A - rm * eye)
                         - mpmath.exp(rm * t) * (A - rp * eye)) / (rp - rm)
            exact = graph_coords(exact, lam)
            got = graph_coords(block_of(wave_mode_propagator(t, lam, gamma)), lam)
            assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-14 * max(map(abs, exact))

    @settings(max_examples=200, deadline=None)
    @given(**NEAR_CRITICAL, lam_osc=st.floats(1.01, 4.0),
           u=st.lists(COORD, min_size=2, max_size=2),
           w=st.lists(COORD, min_size=2, max_size=2))
    def test_wave_apply_with_log_scale(self, gamma, x, tau, lam_osc, u, w):
        # a near-critical mode and an oscillatory one above it (x >= -1e-3),
        # renormalized by e^{gamma t/2}
        lam = [gamma * gamma / (4.0 * (1.0 + x)), lam_osc * gamma * gamma / 4.0]
        t = tau / gamma
        z = wave_decompose(wave_spectrum(gamma, EigenSystem.from_lambdas(lam)), u, w)
        moved = wave_apply(t, z, log_scale=0.5 * gamma * t)
        for k in range(2):
            with mpmath.workdps(50):
                scale = mpmath.exp(mpmath.mpf(0.5 * gamma * t))
                P = graph_coords(expm_50(t, lam[k], gamma), lam[k]) * scale
                d = mpmath.sqrt(1 + mpmath.mpf(lam[k]))
                dz = mpmath.matrix([u[k] * d, w[k]])
                exact = P * dz
                size = max(abs(v) for v in P) * max(abs(v) for v in dz)
                got = [moved.position[k] * d, moved.velocity[k]]
                assert max(abs(got[i] - exact[i]) for i in range(2)) <= 1e-14 * size


class TestOverdampedLeader:
    def one_mode(self, gamma=3.0, lam=2.0):
        system = EigenSystem.from_lambdas([lam])
        return wave_spectrum(gamma, system)

    def test_slow_leader_example(self):
        sp = self.one_mode()
        # slow coordinate 2, fast coordinate -1  <=>  u = 1, w = 0
        z = wave_decompose(sp, np.array([1.0]), np.array([0.0]))
        lead = wave_overdamped_leader(z)
        assert lead.case == "slow"
        assert lead.rate == pytest.approx(1.0, rel=1e-13)
        assert lead.coefficient == pytest.approx(2.0, rel=1e-13)
        # |shape| = 2 sqrt(1 + 2 + 1) = 4
        assert lead.shape_norm == pytest.approx(4.0, rel=1e-13)
        assert lead.margin == pytest.approx(1.0 - 2.0, rel=1e-12)

    def test_fast_leader_when_slow_vanishes(self):
        sp = self.one_mode()
        # slow coordinate 0, fast coordinate 1  <=>  u = 1, w = root_fast
        z = wave_decompose(sp, np.array([1.0]), np.array([root_fast(sp)]))
        lead = wave_overdamped_leader(z)
        assert lead.case == "fast"
        assert lead.rate == pytest.approx(2.0, rel=1e-13)
        assert lead.margin == -math.inf and lead.amplitude == 0.0

    @staticmethod
    def assert_certificate_on_grid(lead, z):
        assert lead.margin < 0
        shape_u = lead.shape.position
        shape_w = lead.shape.velocity
        lam = z.spectrum.system.lambdas
        for t in np.linspace(0.0, 40.0 / lead.rate, 80):
            zt = wave_apply(float(t), z, log_scale=lead.rate * float(t))
            du = zt.position - shape_u
            dw = zt.velocity - shape_w
            err = math.sqrt(float(np.sum((1 + lam) * du**2 + dw**2)))
            assert err <= lead.amplitude * math.exp(lead.margin * float(t)) + 1e-12

    def test_certificate_on_grid(self):
        system = build_box_eigensystem([(1.0, 6)])
        sp = wave_spectrum(9.0, system)
        rng = np.random.default_rng(17)
        u, w = rng.standard_normal(6), rng.standard_normal(6)
        z = wave_decompose(sp, u, w)
        self.assert_certificate_on_grid(wave_overdamped_leader(z), z)
        # gamma = 10 on four modes of the unit interval, data on the first two
        sp = wave_spectrum(10.0, build_box_eigensystem([(1.0, 4)]))
        z = wave_decompose(sp, np.array([1.0, 0.3, 0.0, 0.0]), np.zeros(4))
        self.assert_certificate_on_grid(wave_overdamped_leader(z), z)

    def test_tied_leader_holds_both_modes(self):
        # lambda = 2 twice under gamma = 3: roots -1 and -2 on both modes
        sp = wave_spectrum(3.0, EigenSystem.from_lambdas([2.0, 2.0, 9.0]))
        z = wave_decompose(sp, np.array([1.0, -0.5, 0.3]), np.array([0.2, 0.4, -0.1]))
        lead = wave_overdamped_leader(z)
        assert (lead.case, lead.mode) == ("slow", 0)
        assert np.flatnonzero(lead.shape.position).tolist() == [0, 1]
        # slow coordinates (w + 2u) / 1 of (u, w) = p (1, -1) + q (1, -2)
        assert lead.shape.position[:2] == pytest.approx([2.2, -0.6], rel=1e-14)
        assert lead.shape.velocity[:2] == pytest.approx([-2.2, 0.6], rel=1e-14)
        self.assert_certificate_on_grid(lead, z)

    def test_critical_mode_with_data_rejected(self):
        # lambda_2 = 25 = (gamma/2)^2: mode 2 is critically damped
        sp = wave_spectrum(10.0, EigenSystem.from_lambdas([9.0, 25.0, 49.0]))
        assert sp.n_over == 2 and sp.s[1] == 0.0
        z = wave_decompose(sp, np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.1]))
        lead = wave_overdamped_leader(z)
        assert (lead.case, lead.mode) == ("slow", 0)
        self.assert_certificate_on_grid(lead, z)
        with pytest.raises(WrongCaseError, match="critically damped"):
            wave_overdamped_leader(wave_decompose(sp, np.array([1.0, 0.0, 0.0]),
                                                  np.array([0.0, 1e-300, 0.0])))

    def test_oscillatory_only_rejected(self):
        system = EigenSystem.from_lambdas([1.0, 2.0])
        sp = wave_spectrum(1.0, system)
        z = wave_decompose(sp, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(WrongCaseError, match="no overdamped modes"):
            wave_overdamped_leader(z)

    def test_fast_leader_with_oscillatory_content_rejected(self):
        # a fast-root leader decays faster than oscillatory terms, so no
        # single-term limit exists
        system = EigenSystem.from_lambdas([2.0, 9.0])
        sp = wave_spectrum(3.0, system)
        u = np.array([1.0, 0.1])
        w = np.array([root_fast(sp) * 1.0, 0.0])
        z = wave_decompose(sp, u, w)
        with pytest.raises(WrongCaseError):
            wave_overdamped_leader(z)


class TestSubcriticalNorm:
    def make(self, n=4, gamma=1.0, seed=23):
        system = build_box_eigensystem([(math.pi, n)])
        sp = wave_spectrum(gamma, system)
        rng = np.random.default_rng(seed)
        z = wave_decompose(sp, rng.standard_normal(n), rng.standard_normal(n))
        return system, sp, z

    def test_matches_rescaled_flow_norm(self):
        system, sp, z = self.make()
        lam = system.lambdas
        for t in np.linspace(0, 9, 25):
            zt = wave_apply(float(t), z, log_scale=0.5 * sp.gamma * float(t))
            u, w = zt.position, zt.velocity
            direct = float(np.sum((1 + lam) * u**2 + w**2))
            assert wave_subcritical_norm_sq(float(t), z) == pytest.approx(direct, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(lam=st.lists(st.floats(0.5, 1e4), min_size=1, max_size=4),
           damping=st.one_of(st.just(1.0 - 2.0 ** -40), st.floats(1e-3, 1.0, exclude_max=True)),
           tau=st.floats(0.0, 20.0), data=st.data())
    def test_window_centre_against_mpmath(self, lam, damping, tau, data):
        # every mode oscillatory: gamma/2 = damping * sqrt(lambda_1) < sqrt(lambda_1)
        system = EigenSystem.from_lambdas(lam)
        lam = system.lambdas.tolist()
        gamma = 2.0 * damping * math.sqrt(lam[0])
        sp = wave_spectrum(gamma, system)
        assert sp.n_over == 0
        coords = st.lists(COORD, min_size=len(lam), max_size=len(lam))
        u, w = data.draw(coords), data.draw(coords)
        t = tau / math.sqrt(lam[-1])  # theta t <= 20 on every mode
        got = wave_subcritical_norm_sq(t, wave_decompose(sp, u, w))
        with mpmath.workdps(50):
            exact = size = 0
            rescale = mpmath.exp(mpmath.mpf(0.5 * gamma * t))
            for k, lk in enumerate(lam):
                P = graph_coords(expm_50(t, lk, gamma), lk) * rescale
                dz = mpmath.matrix([u[k] * mpmath.sqrt(1 + mpmath.mpf(lk)), w[k]])
                v = P * dz
                exact += v[0] ** 2 + v[1] ** 2
                # the scale of each term's rounding: (|D P D^-1| |D z|)^2
                size += sum((abs(P[i, 0] * dz[0]) + abs(P[i, 1] * dz[1])) ** 2 for i in range(2))
            assert abs(got - exact) <= 1e-14 * size

    def test_zero_state(self):
        system, sp, _ = self.make()
        z0 = wave_decompose(sp, np.zeros(4), np.zeros(4))
        assert wave_subcritical_norm_sq(1.0, z0) == 0.0

    def test_wrong_regime_rejected(self):
        system = EigenSystem.from_lambdas([2.0, 9.0])
        sp = wave_spectrum(3.0, system)
        z = wave_decompose(sp, np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(WrongCaseError):
            wave_subcritical_norm_sq(1.0, z)


class TestSubcriticalNormScalar:
    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_bad_time_rejected(self, bad):
        sp = wave_spectrum(1.0, build_box_eigensystem([(math.pi, 3)]))
        z = wave_decompose(sp, np.ones(3), np.zeros(3))
        with pytest.raises(InvalidTimeError, match="finite and >= 0"):
            wave_subcritical_norm_sq(bad, z)


class TestDecayConstants:
    def test_heat(self):
        system = build_box_eigensystem([(math.pi, 5)])
        c, rate = decay_constants("heat", system=system)
        assert c == 1.0 and rate == pytest.approx(1.0)

    def test_wave_overdamped_rate(self):
        system = EigenSystem.from_lambdas([2.0])
        sp = wave_spectrum(3.0, system)
        c, rate = decay_constants("wave", wave_spec=sp)
        assert rate == pytest.approx(1.0, rel=1e-13)
        assert c >= 1.0

    def test_wave_oscillatory_rate(self):
        system = EigenSystem.from_lambdas([1.0, 4.0])
        sp = wave_spectrum(1.0, system)
        _, rate = decay_constants("wave", wave_spec=sp)
        assert rate == pytest.approx(0.5, rel=1e-13)

    def test_certificate_dominates_samples(self):
        system = build_box_eigensystem([(1.0, 4)])
        sp = wave_spectrum(9.0, system)
        c, rate = decay_constants("wave", wave_spec=sp)
        rng = np.random.default_rng(41)
        lam = system.lambdas
        for _ in range(60):
            u, w = rng.standard_normal(4), rng.standard_normal(4)
            z = wave_decompose(sp, u, w)
            t = float(rng.uniform(0, 15.0 / rate))
            zt = wave_apply(t, z)
            ut, wt = zt.position, zt.velocity
            norm_t = math.sqrt(float(np.sum((1 + lam) * ut**2 + wt**2)))
            norm_0 = math.sqrt(float(np.sum((1 + lam) * u**2 + w**2)))
            assert norm_t <= c * math.exp(-rate * t) * norm_0 * (1 + 1e-9)


def block_norm(a, b, c, d):
    """The closed-form spectral norm of [[a, b], [c, d]], entries halved
    first, on scalars: the references' copy of semigroup._norm_2x2."""
    a, b, c, d = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * d
    return float(np.hypot(a + d, c - b) + np.hypot(a - d, b + c))


def decay_constant_loop(sp, grid_points=2000):
    """Reference for the wave branch of decay_constants: one scalar
    propagator and one closed-form 2x2 norm per (time, mode) pair."""
    rate = sp.rate
    lam = sp.system.lambdas
    scale = np.sqrt(1.0 + lam)
    ts = np.linspace(0.0, 20.0 / rate, grid_points)
    c_best = 1.0
    for t in ts:
        worst = 0.0
        for lk, sk in zip(lam, scale):
            P = np.reshape(wave_mode_propagator(float(t), float(lk), sp.gamma), (2, 2))
            worst = max(worst, block_norm(P[0, 0], P[0, 1] / sk, P[1, 0] * sk, P[1, 1]))
        c_best = max(c_best, math.exp(rate * t) * worst)
    return float(c_best), rate


class TestStackedDecayConstants:
    # The large spectra use a coarser grid only to keep the reference loop
    # quick; every mode still takes the stacked-norm path.
    @pytest.mark.parametrize(
        "dims, gamma, grid_points",
        [
            ([(1.0, 11)], 10.0, 2000),
            ([(1.0, 21)], 10.0, 500),
            ([(1.0, 101)], 10.0, 100),
            ([(math.pi, 201)], 1.0, 50),
            ([(2.0, 30)], 3.0, 300),
            ([(1.0, 50)], 25.0, 200),
        ],
    )
    def test_matches_loop_bit_for_bit(self, dims, gamma, grid_points):
        sp = wave_spectrum(gamma, build_box_eigensystem(dims))
        c, rate = decay_constants("wave", wave_spec=sp, grid_points=grid_points)
        c_ref, rate_ref = decay_constant_loop(sp, grid_points=grid_points)
        assert (float.hex(c), float.hex(rate)) == (float.hex(c_ref), float.hex(rate_ref))

    # Both references call wave_mode_propagator, so only fixed values catch a
    # change in its bits.  ROADMAP item 1 (C in closed form, no grid) changes
    # C on purpose; its pins are then taken again from the new formula.
    @pytest.mark.parametrize("n_modes, c_hex", [
        (11, "0x1.fa6d363628114p+9"),
        (21, "0x1.e0aac2f665c31p+11"),
        (101, "0x1.45f922be3bc87p+16"),
    ])
    def test_constant_and_rate_are_pinned_in_hex(self, n_modes, c_hex):
        sp = wave_spectrum(10.0, build_box_eigensystem([(1.0, n_modes)]))
        c, rate = decay_constants("wave", wave_spec=sp)
        assert (float.hex(c), float.hex(rate)) == (c_hex, "0x1.1c375153afa4ep+0")

    def test_critical_slowest_mode_rejected(self):
        sp = wave_spectrum(2.0, EigenSystem.from_lambdas([1.0, 4.0]))
        assert sp.s[0] == 0.0
        with pytest.raises(WrongCaseError, match="critically damped"):
            decay_constants("wave", wave_spec=sp)
        # a critical mode behind a slower overdamped one is dominated
        sp = wave_spectrum(10.0, EigenSystem.from_lambdas([9.0, 25.0]))
        c, rate = decay_constants("wave", wave_spec=sp, grid_points=200)
        assert rate == pytest.approx(1.0, rel=1e-15) and math.isfinite(c)


def decay_constant_stacked(sp, grid_points=2000):
    """Reference for the wave branch of decay_constants: every (time, mode)
    closed-form norm, one stacked evaluation per mode, the maximum over
    modes per time, then the fold over times."""
    rate = sp.rate
    lam = sp.system.lambdas
    scale = np.sqrt(1.0 + lam)
    ts = np.linspace(0.0, 20.0 / rate, grid_points).tolist()
    worst = np.zeros(len(ts))
    M = np.empty((len(ts), 2, 2))
    for lk, sk in zip(lam.tolist(), scale.tolist()):
        for i, t in enumerate(ts):
            M[i] = np.reshape(wave_mode_propagator(t, lk, sp.gamma), (2, 2))
        a, b, c, d = 0.5 * M[:, 0, 0], 0.5 * M[:, 0, 1] / sk, 0.5 * M[:, 1, 0] * sk, 0.5 * M[:, 1, 1]
        np.maximum(worst, np.hypot(a + d, c - b) + np.hypot(a - d, b + c), out=worst)
    c_best = 1.0
    for t, w in zip(ts, worst.tolist()):
        c_best = max(c_best, math.exp(rate * t) * w)
    return float(c_best), rate


def decay_outcome(fn, sp, **kw):
    """(C, rate) in hex, or the type and message of what ``fn`` raised."""
    try:
        c, rate = fn(sp, **kw)
    except Exception as e:  # the comparison is the point: any type will do
        return type(e), str(e)
    return float.hex(c), float.hex(rate)


def wave_decay(sp, **kw):
    return decay_constants("wave", wave_spec=sp, **kw)


@st.composite
def decay_cases(draw):
    """A wave spectrum (1-40 modes, gamma in [0.1, 1e8], tied eigenvalues,
    lambda / (gamma/2)^2 in [1e-4, 1e4]), and sometimes a critically damped
    mode lambda = h^2 (exact: h an integer) behind a slower overdamped one."""
    if draw(st.booleans()):
        h = float(draw(st.integers(1, 5 * 10 ** 7)))
        lams = [h * h, h * h * draw(st.floats(1e-4, 0.99))]
    else:
        h = 0.5 * 10.0 ** draw(st.floats(-1.0, 8.0))
        lams = []
    n = draw(st.integers(max(1, len(lams)), 40))
    while len(lams) < n:
        lams += [h * h * 10.0 ** draw(st.floats(-4.0, 4.0))] * draw(st.integers(1, 3))
    return wave_spectrum(2.0 * h, EigenSystem.from_lambdas(lams[:n]))


class TestClosedFormDecayConstants:
    @settings(max_examples=80, deadline=None)
    @given(sp=decay_cases(), grid_points=st.sampled_from([1, 2, 3, 50, 2000]))
    def test_matches_stacked_reference_in_hex(self, sp, grid_points):
        if sp.n_over and sp.s[0] == 0.0:
            return  # a critically damped slowest mode raises before any grid
        kw = {"grid_points": grid_points}
        assert decay_outcome(wave_decay, sp, **kw) == decay_outcome(decay_constant_stacked,
                                                                    sp, **kw)

    @pytest.mark.parametrize("lams, gamma, kw", [
        # graph-norm entries near DBL_MAX but finite
        ([1.0, sys.float_info.max / 2], 1.0, {}),
        ([1.0, 1e308], 3.0, {}),
        ([2.0, 9.0], 3.0, {"grid_points": 0}),
    ])
    def test_extremes_match_stacked_reference(self, lams, gamma, kw):
        sp = wave_spectrum(gamma, EigenSystem.from_lambdas(lams))
        c, rate = wave_decay(sp, **kw)
        assert math.isfinite(c)
        assert decay_outcome(wave_decay, sp, **kw) == decay_outcome(decay_constant_stacked,
                                                                    sp, **kw)

    def test_a_block_that_is_not_finite_raises(self):
        # wave_spectrum rejects lambda = DBL_MAX (its damping gap overflows);
        # a spectrum built around that check gives a NaN block at t = 0
        sp = wave_spectrum(1.0, EigenSystem.from_lambdas([1.0, 4.0]))
        sp = dataclasses.replace(sp, system=EigenSystem.from_lambdas([1.0, sys.float_info.max]))
        with pytest.raises(InvalidDomainError, match="mode 1: .* not finite"):
            decay_constants("wave", wave_spec=sp, grid_points=5)

    def test_peak_memory_at_1001_modes(self):
        sp = wave_spectrum(10.0, build_box_eigensystem([(1.0, 1001)]))
        tracemalloc.start()
        try:
            decay_constants("wave", wave_spec=sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (time, mode) stack of all the blocks would take 64 MB
        assert peak <= 512 * 1024


def entries():
    """Block entries: zeros, and magnitudes from 2^-960 to DBL_MAX / 2."""
    return st.one_of(st.just(0.0),
                     st.floats(2.0 ** -960, sys.float_info.max / 2),
                     st.floats(-sys.float_info.max / 2, -2.0 ** -960),
                     st.floats(sys.float_info.max / 8, sys.float_info.max / 2))


def sigma_max_50(a, b, c, d):
    """The largest singular value of [[a, b], [c, d]] at 50 digits."""
    with mpmath.workdps(50):
        sv = mpmath.svd_r(mpmath.matrix([[a, b], [c, d]]), compute_uv=False)
        return max(sv[0], sv[1])


class TestBlockNorm:
    @settings(max_examples=300, deadline=None)
    @given(a=entries(), b=entries(), c=entries(), d=entries(),
           shape=st.sampled_from(["any", "a = -d", "a ~ -d", "zero", "diagonal"]),
           ulps=st.integers(1, 2 ** 20))
    def test_within_4_ulp_of_a_50_digit_singular_value(self, a, b, c, d, shape, ulps):
        if shape == "a = -d":
            d = -a
        elif shape == "a ~ -d":  # a + d cancels all but a few bits
            d = -a * (1.0 + ulps * 2.0 ** -52)
        elif shape == "zero":
            a = b = c = d = 0.0
        elif shape == "diagonal":
            b = c = 0.0
        got = float(_norm_2x2(*np.array([a, b, c, d])))
        exact = sigma_max_50(a, b, c, d)
        assert abs(mpmath.mpf(got) - exact) <= 4 * math.ulp(float(exact)), (got, float(exact))

    def test_entries_near_dbl_max_do_not_overflow(self):
        big = sys.float_info.max / 2
        assert _norm_2x2(big, 0.0, 0.0, big) == big
        assert _norm_2x2(big, big, big, big) == sys.float_info.max
        assert _norm_2x2(big, -big, big, big) == pytest.approx(math.sqrt(2.0) * big)
