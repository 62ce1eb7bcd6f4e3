"""Flow tests: heat semigroup, damped-wave group, leaders, decay constants.

The independent oracle for the wave flow is scipy's dense matrix
exponential applied to each 2x2 mode block.
"""
import math

import numpy as np
import pytest
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
from spdecutoff.errors import (
    InvalidTimeError,
    SubcriticalRouteError,
    WrongCaseError,
)


def mode_block(lam, gamma):
    return np.array([[0.0, 1.0], [-lam, -gamma]])


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
        assert np.allclose(z.position_values(), u, atol=1e-13)
        assert np.allclose(z.velocity_values(), w, atol=1e-13)

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
            ut, wt = zt.position_values(), zt.velocity_values()
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
        assert np.allclose(z1.position_values(), z2.position_values(), atol=1e-13)
        assert np.allclose(z1.velocity_values(), z2.velocity_values(), atol=1e-13)

    def test_propagator_matches_expm(self):
        for lam, gamma, t in [(2.0, 3.0, 0.7), (9.0, 1.0, 2.1), (0.5, 5.0, 0.05)]:
            oracle = expm(t * mode_block(lam, gamma))
            assert np.allclose(wave_mode_propagator(t, lam, gamma), oracle, atol=1e-12)

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
            ut, wt = zt.position_values()[0], zt.velocity_values()[0]
            vals.append(theta**2 * ut**2 + (wt + 0.5 * ut) ** 2)
            # cross-check the rescaled flow against the expm oracle
            vec = expm(t * mode_block(1.0, 1.0)) @ np.array([1.0, -0.5])
            assert ut == pytest.approx(math.exp(0.5 * t) * vec[0], abs=1e-9)
        assert np.allclose(vals, vals[0], rtol=1e-10)


class TestOverdampedLeader:
    def one_mode(self, gamma=3.0, lam=2.0):
        system = EigenSystem.from_lambdas([lam])
        return wave_spectrum(gamma, system)

    def test_slow_leader_example(self):
        sp = self.one_mode()
        # a_slow = 2, a_fast = -1  <=>  u = 1, w = 0
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
        # a_slow = 0, a_fast = 1  <=>  u = 1, w = root_fast
        z = wave_decompose(sp, np.array([1.0]), np.array([sp.root_fast[0]]))
        lead = wave_overdamped_leader(z)
        assert lead.case == "fast"
        assert lead.rate == pytest.approx(2.0, rel=1e-13)
        assert lead.margin == -math.inf and lead.amplitude == 0.0

    def test_certificate_on_grid(self):
        system = build_box_eigensystem([(1.0, 6)])
        sp = wave_spectrum(9.0, system)
        rng = np.random.default_rng(17)
        u, w = rng.standard_normal(6), rng.standard_normal(6)
        z = wave_decompose(sp, u, w)
        lead = wave_overdamped_leader(z)
        assert lead.margin < 0
        shape_u = lead.shape.position_values()
        shape_w = lead.shape.velocity_values()
        lam = system.lambdas
        for t in np.linspace(0.0, 40.0 / lead.rate, 80):
            zt = wave_apply(float(t), z, log_scale=lead.rate * float(t))
            du = zt.position_values() - shape_u
            dw = zt.velocity_values() - shape_w
            err = math.sqrt(float(np.sum((1 + lam) * du**2 + dw**2)))
            assert err <= lead.amplitude * math.exp(lead.margin * float(t)) + 1e-12

    def test_oscillatory_only_rejected(self):
        system = EigenSystem.from_lambdas([1.0, 2.0])
        sp = wave_spectrum(1.0, system)
        z = wave_decompose(sp, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(SubcriticalRouteError):
            wave_overdamped_leader(z)

    def test_fast_leader_with_oscillatory_content_rejected(self):
        # a fast-root leader decays faster than oscillatory terms, so no
        # single-term limit exists
        system = EigenSystem.from_lambdas([2.0, 9.0])
        sp = wave_spectrum(3.0, system)
        u = np.array([1.0, 0.1])
        w = np.array([sp.root_fast[0] * 1.0, 0.0])
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
            u, w = zt.position_values(), zt.velocity_values()
            direct = float(np.sum((1 + lam) * u**2 + w**2))
            assert wave_subcritical_norm_sq(float(t), z) == pytest.approx(direct, rel=1e-10)

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


def subcritical_norm_sq_scalar(t, z):
    """Reference for wave_subcritical_norm_sq: the closed form at one time."""
    sp = z.spectrum
    lam = sp.lambdas_osc()
    omega = sp.omega_osc()
    const = 2.0 * np.abs(z.b) ** 2 * (1.0 + 2.0 * lam)
    cross = 2.0 * (np.exp(2j * sp.theta * t) * z.b ** 2 * (1.0 + lam + omega ** 2)).real
    return float(np.sum(const + cross))


class TestSubcriticalNormScalar:
    @pytest.mark.parametrize("dims, gamma", [([(math.pi, 201)], 1.0), ([(1.0, 7)], 0.3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_reference_byte_for_byte(self, dims, gamma, seed):
        sp = wave_spectrum(gamma, build_box_eigensystem(dims))
        rng = np.random.default_rng(seed)
        n = sp.n_modes
        z = wave_decompose(sp, rng.standard_normal(n), rng.standard_normal(n))
        ts = np.linspace(0.0, 8 * 2.0 * math.pi / float(np.min(sp.theta)), 130).tolist()
        got = [wave_subcritical_norm_sq(t, z) for t in ts]
        assert all(type(v) is float for v in got)
        ref = [subcritical_norm_sq_scalar(t, z) for t in ts]
        assert np.array(got).tobytes() == np.array(ref).tobytes()

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
            ut, wt = zt.position_values(), zt.velocity_values()
            norm_t = math.sqrt(float(np.sum((1 + lam) * ut**2 + wt**2)))
            norm_0 = math.sqrt(float(np.sum((1 + lam) * u**2 + w**2)))
            assert norm_t <= c * math.exp(-rate * t) * norm_0 * (1 + 1e-9)


def matrix_propagator(t, lam, gamma):
    """Reference for wave_mode_propagator: the closed form in 2x2 NumPy
    matrix arithmetic."""
    g2 = gamma * gamma
    A = mode_block(lam, gamma)
    I = np.eye(2)
    if g2 > 4.0 * lam:
        s = math.sqrt(g2 - 4.0 * lam) / 2.0
        rp = -0.5 * gamma + s
        rm = -0.5 * gamma - s
        return (math.exp(rp * t) * (A - rm * I) - math.exp(rm * t) * (A - rp * I)) / (rp - rm)
    theta = math.sqrt(4.0 * lam - g2) / 2.0
    damp = math.exp(-0.5 * gamma * t)
    return damp * (math.cos(theta * t) * I + math.sin(theta * t) / theta * (A + 0.5 * gamma * I))


def decay_constant_loop(sp, horizon_factor=20.0, grid_points=2000):
    """Reference for the wave branch of decay_constants: one scalar
    propagator and one 2x2 SVD per (time, mode) pair."""
    if sp.n_over > 0:
        rate = -float(sp.root_slow[0])
    else:
        rate = 0.5 * sp.gamma
    lam = sp.system.lambdas
    scale = np.sqrt(1.0 + lam)
    ts = np.linspace(0.0, horizon_factor / rate, grid_points)
    c_best = 1.0
    for t in ts:
        worst = 0.0
        for lk, sk in zip(lam, scale):
            P = wave_mode_propagator(float(t), float(lk), sp.gamma)
            M = np.array(
                [
                    [P[0, 0], P[0, 1] / sk],
                    [P[1, 0] * sk, P[1, 1]],
                ]
            )
            worst = max(worst, float(np.linalg.norm(M, 2)))
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

    @pytest.mark.parametrize(
        "lam, gamma",
        [(2.0, 3.0), (math.pi ** 2, 10.0), (4.0 * math.pi ** 2, 10.0), (1.0, 1.0),
         (9.0, 0.1)],
    )
    def test_propagator_equals_matrix_form(self, lam, gamma):
        ts = np.linspace(0.0, 40.0, 397).tolist() + [1e-300, 0.1, 123.456]
        got = np.array([wave_mode_propagator(t, lam, gamma) for t in ts])
        ref = np.array([matrix_propagator(t, lam, gamma) for t in ts])
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros too
