"""Stochastic convolution of the linear flows with additive noise.

For mode-diagonal Q-Wiener forcing the convolution is Gaussian with an
explicit per-mode law, both at finite time and in equilibrium:

    heat:  Var_k(t) = q_k (1 - e^{-2 lambda_k t}) / (2 lambda_k)
    wave:  2x2 covariance solving the mode Lyapunov equation, forcing in the
           velocity component only.

Finite-activity compound-Poisson forcing is sampled exactly: draw the jump
count, place the jumps uniformly in (0, t], push each mark through the flow
for the remaining time, and subtract the deterministic compensator.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNoiseError, InvalidDomainError, VarianceOverflowError
from .spectral_core import EigenSystem, ModeCoefficients, WaveSpectrum
from .semigroup import _check_time, wave_mode_propagator
from .wasserstein import _pairwise_prefix


@dataclass(frozen=True)
class JumpMark:
    """One compound-Poisson mark: a mode-coefficient vector and its rate (an
    additive jump adds ``values``, a multiplicative one scales by 1 + eps z)."""

    values: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise DegenerateNoiseError(f"jump rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive forcing: diagonal Gaussian intensities and/or jump marks.

    ``gaussian_q[k]`` is the spectral intensity of the Wiener part on mode k
    (zero entries switch the mode off).  ``jumps`` lists finite-activity
    compound-Poisson marks; ``compensated`` subtracts the running mean so the
    jump part is a martingale.
    """

    system: EigenSystem
    gaussian_q: np.ndarray | None = None
    jumps: tuple[JumpMark, ...] = ()
    compensated: bool = True

    def __post_init__(self):
        if self.gaussian_q is not None:
            q = np.asarray(self.gaussian_q, dtype=float)
            if q.shape != (self.system.n_modes,):
                raise DegenerateNoiseError("gaussian_q length must match mode count")
            if np.any(q < 0):
                raise DegenerateNoiseError("gaussian intensities must be >= 0")
            object.__setattr__(self, "gaussian_q", q)
        object.__setattr__(self, "jumps", tuple(self.jumps))
        for m in self.jumps:
            if m.values.shape != (self.system.n_modes,):
                raise DegenerateNoiseError("jump mark length must match mode count")
        if self.gaussian_q is None and not self.jumps:
            raise DegenerateNoiseError("noise spec has neither Gaussian nor jump part")

    @functools.cached_property
    def heat_equilibrium_var(self) -> np.ndarray:
        """Per-mode variances q_k / (2 lambda_k) of the heat equilibrium law,
        computed and checked once per spec: one that overflows raises
        :class:`VarianceOverflowError`."""
        if self.gaussian_q is None:
            raise DegenerateNoiseError("spec has no Gaussian part")
        with np.errstate(over="ignore"):  # raised below
            v_inf = self.gaussian_q / (2.0 * self.system.lambdas)
        if np.any(v_inf < 0):
            raise InvalidDomainError("variances must be >= 0")
        bad = ~np.isfinite(v_inf)
        if np.any(bad):
            k = int(np.argmax(bad))
            q, lam = float(self.gaussian_q[k]), float(self.system.lambdas[k])
            raise VarianceOverflowError(
                k, f"heat equilibrium variance q / (2 lambda) = {q!r} / (2 * {lam!r}) "
                   "is not finite")
        return v_inf

    @functools.cached_property
    def heat_equilibrium_sd(self) -> np.ndarray:
        """Per-mode standard deviations sqrt(q_k / (2 lambda_k)) of the heat
        equilibrium law, computed once per spec."""
        return np.sqrt(self.heat_equilibrium_var)


def _unrelaxed_heat_variances(t: float, spec: NoiseSpec) -> np.ndarray:
    """Heat variances at time t (t may be inf) of the leading modes with
    2 lambda_k t < 40.  On every later mode (the lambdas are sorted)
    expm1(-2 lambda t) rounds to exactly -1, as it does from about -37.4
    down, so the variance there is the cached equilibrium one bit for bit."""
    t = _check_time(t, math.inf)
    q = spec.gaussian_q
    if q is None:
        raise DegenerateNoiseError("spec has no Gaussian part")
    lam = spec.system.lambdas
    if t > 0.0:  # every mode is unrelaxed at t = 0
        k = 0 if math.isinf(t) else int(np.searchsorted(lam, 20.0 / t))
        q, lam = q[:k], lam[:k]
    return q * -np.expm1(-2.0 * lam * t) / (2.0 * lam)


def heat_gaussian_convolution_law(t: float, spec: NoiseSpec) -> np.ndarray:
    """Per-mode variances of the heat convolution at time t (t may be inf)."""
    v = _unrelaxed_heat_variances(t, spec)
    out = spec.heat_equilibrium_var.copy()
    out[:v.size] = v
    return out


def heat_convolution_sd(t: float, spec: NoiseSpec) -> np.ndarray:
    """Per-mode standard deviations of the heat convolution at time t
    (t may be inf), the relaxed modes copied from ``heat_equilibrium_sd``."""
    return _heat_sds(t, spec, live=False)[0]


def _heat_sds(t: float, spec: NoiseSpec, live: bool) -> tuple[np.ndarray, np.ndarray]:
    """(sd_t, sd_inf): the heat convolution's standard deviations at time t
    (t may be inf) and the equilibrium ones.  With ``live`` both stop at the
    shortest node of NumPy's summation tree (:func:`_pairwise_prefix`) that
    holds every mode where sd_t - sd_inf need not be +0.0: the unrelaxed
    modes (every sd_inf is finite)."""
    v = _unrelaxed_heat_variances(t, spec)
    if np.any(v < 0):
        raise InvalidDomainError("variances must be >= 0")
    sd_inf = spec.heat_equilibrium_sd
    if live:
        sd_inf = sd_inf[:_pairwise_prefix(sd_inf.size, v.size)]
    sd_t = sd_inf.copy()
    sd_t[:v.size] = np.sqrt(v)
    return sd_t, sd_inf


def wave_gaussian_convolution_law(t: float, spec: NoiseSpec, wspec: WaveSpectrum) -> np.ndarray:
    """Per-mode 2x2 covariances of the wave convolution, velocity forcing.

    Equilibrium is the diagonal Lyapunov solution diag(q/(2 gamma lambda),
    q/(2 gamma)); at finite t the deficit is the equilibrium conjugated by
    the mode propagator:  Sigma_t = Sigma_inf - P_t Sigma_inf P_t^T.
    """
    t = _check_time(t, math.inf)
    if spec.gaussian_q is None:
        raise DegenerateNoiseError("spec has no Gaussian part")
    lam = spec.system.lambdas
    gamma = wspec.gamma
    q = spec.gaussian_q
    s_inf = np.zeros((spec.system.n_modes, 2, 2))
    s_inf[:, 0, 0] = q / (2.0 * gamma * lam)
    s_inf[:, 1, 1] = q / (2.0 * gamma)
    if math.isinf(t):
        return s_inf
    if t == 0.0:  # an empty interval: P_0 = I may round, the law is exactly 0
        return np.zeros_like(s_inf)
    P = np.array([wave_mode_propagator(t, lk, gamma) for lk in lam.tolist()])
    return s_inf - P @ s_inf @ P.transpose(0, 2, 1)


@dataclass(frozen=True)
class JumpRealization:
    """One sampled compound-Poisson path on (0, t]: sorted times and the
    index of the mark drawn at each jump."""

    t: float
    times: np.ndarray
    mark_indices: np.ndarray


def sample_jump_realization(
    t: float, marks: tuple[JumpMark, ...], rng: np.random.Generator
) -> JumpRealization:
    """One path on (0, t] of the jumps ``marks`` (``NoiseSpec.jumps`` or
    ``MultLevySpec.marks``), each mark drawn in proportion to its rate."""
    t = _check_time(t)
    if not marks:
        raise DegenerateNoiseError("spec has no jump part")
    rate = float(sum(m.rate for m in marks))
    n = rng.poisson(rate * t)
    times = rng.uniform(0.0, t, size=n)
    times.sort()
    # rng.choice(len(marks), size=n, p=probs) without its argument checks:
    # the same normalised cdf, uniforms and int64 indices
    cdf = (np.array([m.rate for m in marks]) / rate).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(n), side="right")
    return JumpRealization(t=t, times=times, mark_indices=idx)


def levy_compensator_heat(t: float, spec: NoiseSpec) -> np.ndarray:
    """Mean of the uncompensated heat jump convolution:
    sum_m rate_m * mark_m * (1 - e^{-lambda t}) / lambda per mode."""
    lam = spec.system.lambdas
    shape = -np.expm1(-lam * t) / lam
    mean = np.zeros(spec.system.n_modes)
    for m in spec.jumps:
        mean += m.rate * m.values
    return mean * shape


def sample_heat_levy_convolution(
    t: float,
    spec: NoiseSpec,
    rng: np.random.Generator,
    realization: JumpRealization | None = None,
) -> ModeCoefficients:
    """Exact draw of the (compensated) heat jump convolution at time t."""
    if spec.compensated and not spec.jumps:
        raise DegenerateNoiseError("compensation requested with empty mark set")
    if realization is None:
        realization = sample_jump_realization(t, spec.jumps, rng)
    lam = spec.system.lambdas
    acc = np.zeros(spec.system.n_modes)
    for tau, mi in zip(realization.times, realization.mark_indices):
        acc += spec.jumps[mi].values * np.exp(-lam * (t - tau))
    if spec.compensated:
        acc -= levy_compensator_heat(t, spec)
    return ModeCoefficients(spec.system, acc)


def heat_levy_second_moment(t: float, spec: NoiseSpec) -> np.ndarray:
    """Per-mode second moments of the compensated heat jump convolution
    (the jump-process Ito isometry):  sum_m rate_m mark_m^2
    (1 - e^{-2 lambda t}) / (2 lambda)."""
    t = _check_time(t, math.inf)
    lam = spec.system.lambdas
    shape = -np.expm1(-2.0 * lam * t) / (2.0 * lam)  # 1 / (2 lambda) at t = inf
    out = np.zeros(spec.system.n_modes)
    for m in spec.jumps:
        out += m.rate * m.values ** 2
    return out * shape
