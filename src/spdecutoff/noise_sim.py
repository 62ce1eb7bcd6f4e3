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

from .errors import DegenerateNoiseError, VarianceOverflowError
from .spectral_core import EigenSystem, ModeCoefficients, WaveSpectrum
# wave_mode_propagator is bound here, unused, so that a tracer that wraps each
# module's names keeps covering the scalar propagator from this module.
from .semigroup import _check_time, _propagator_coefficients, wave_mode_propagator  # noqa: F401


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
    compound-Poisson marks, compensated: their running mean is subtracted,
    so the jump part is a martingale.
    """

    system: EigenSystem
    gaussian_q: np.ndarray | None = None
    jumps: tuple[JumpMark, ...] = ()

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
        bad = ~np.isfinite(v_inf)
        if np.any(bad):
            k = int(np.argmax(bad))
            q, lam = float(self.gaussian_q[k]), float(self.system.lambdas[k])
            raise VarianceOverflowError(
                k, f"heat equilibrium variance q / (2 lambda) = {q!r} / (2 * {lam!r}) "
                   "is not finite")
        return v_inf

    @functools.cached_property
    def heat_first_and_top(self) -> tuple[int, float]:
        """The first mode with a nonzero heat equilibrium variance, and the largest."""
        eq = self.heat_equilibrium_var
        return int(np.argmax(eq > 0.0)), float(eq.max(initial=0.0))


@dataclass(frozen=True)
class GaussianLaw:
    """The Gaussian convolution at time t as mode blocks in graph-norm
    coordinates, 1x1 for heat and 2x2 for the damped wave: every mode's
    equilibrium A (``eq``), and on the live modes the deficit D = P_t A P_t^T
    and the law A - D (``cov``; for heat its closed form, exact near t = 0)."""

    eq: np.ndarray
    deficit: np.ndarray
    cov: np.ndarray


def gaussian_law(t: float, spec: NoiseSpec, wspec: WaveSpectrum | None = None) -> GaussianLaw:
    """The heat convolution's law at time t (t may be inf), or with ``wspec``
    the damped wave's, whose modes are all live.  Heat: A = q / (2 lambda),
    D = A e^{-2 lambda t}, and a mode's W2 term D / (sqrt A + sqrt(A - D))
    lies between sqrt(A) e^{-2 lambda t} / 2 and sqrt(max A) e^{-2 lambda t}.
    Past 2 lambda t = 746 + ln(max A) / 2 it is below half the least
    subnormal, and past 2 lambda_j t + ln(max A / A_j) / 2 + 71 ln 2 (j the
    first mode with A_j > 0) below 2^-70 of mode j's: the (sorted) modes
    beyond move the gap by under n 2^-141 relative and are left out."""
    t = _check_time(t, math.inf)
    if wspec is not None:
        s_inf, deficit = _wave_blocks(t, spec, wspec)
        # W X W, W = diag(sqrt(1 + lambda), 1), and (1 + lambda) X_00: D = A at t = 0
        weight = np.ones((spec.system.n_modes, 2, 2))
        weight[:, 0, 0] = 1.0 + spec.system.lambdas
        weight[:, 0, 1] = weight[:, 1, 0] = np.sqrt(weight[:, 0, 0])
        eq, deficit = weight * s_inf, weight * deficit
        return GaussianLaw(eq, deficit, eq - deficit)
    eq, lam = spec.heat_equilibrium_var, spec.system.lambdas
    j, top = spec.heat_first_and_top
    k = 0 if top == 0.0 or math.isinf(t) else lam.size
    if k and t > 0.0:
        cut = min(746.0 + 0.5 * math.log(top),
                  2.0 * float(lam[j]) * t + 0.5 * math.log(top / eq[j]) + 71.0 * math.log(2.0))
        k = int(np.searchsorted(lam, cut / (2.0 * t)))
    x = -2.0 * lam[:k] * t
    return GaussianLaw(eq, eq[:k] * np.exp(x), spec.gaussian_q[:k] * -np.expm1(x) / (2.0 * lam[:k]))


def heat_gaussian_convolution_law(t: float, spec: NoiseSpec) -> np.ndarray:
    """Per-mode variances of the heat convolution at time t (t may be inf):
    the law of :func:`gaussian_law` on its live modes, and A past them, where
    expm1(-2 lambda t) is exactly -1 and the closed form gives A to the bit."""
    law = gaussian_law(t, spec)
    out = law.eq.copy()
    out[:law.cov.size] = law.cov
    return out


def _wave_blocks(t: float, spec: NoiseSpec, wspec: WaveSpectrum):
    """(Sigma_inf, P_t Sigma_inf P_t^T) per mode in (u, w) coordinates,
    velocity forcing: the diagonal Lyapunov solution diag(q/(2 gamma
    lambda), q/(2 gamma)) and its part that has not yet built up by time t
    (Sigma_inf itself at t = 0, and 0 at t = inf)."""
    if spec.gaussian_q is None:
        raise DegenerateNoiseError("spec has no Gaussian part")
    lam = spec.system.lambdas
    gamma = wspec.gamma
    q = spec.gaussian_q
    s_inf = np.zeros((spec.system.n_modes, 2, 2))
    s_inf[:, 0, 0] = q / (2.0 * gamma * lam)
    s_inf[:, 1, 1] = q / (2.0 * gamma)
    if math.isinf(t):
        return s_inf, np.zeros_like(s_inf)
    if t == 0.0:
        return s_inf, s_inf.copy()
    c, s = _propagator_coefficients(t, wspec, 0.0)  # P = c I + s (A + gamma/2 I)
    P = np.stack([c + s * (0.5 * gamma), s, -lam * s, c - s * (0.5 * gamma)], 1).reshape(-1, 2, 2)
    return s_inf, P @ s_inf @ P.transpose(0, 2, 1)


def wave_gaussian_convolution_law(t: float, spec: NoiseSpec, wspec: WaveSpectrum) -> np.ndarray:
    """Per-mode 2x2 covariances of the wave convolution, velocity forcing,
    in (u, w) coordinates: the law A - D of :func:`gaussian_law` before the
    graph-norm weighting, Sigma_t = Sigma_inf - P_t Sigma_inf P_t^T."""
    s_inf, deficit = _wave_blocks(_check_time(t, math.inf), spec, wspec)
    return s_inf - deficit


@dataclass(frozen=True)
class JumpRealization:
    """Compound-Poisson paths on (0, t], a single path a batch of one: each
    path's jump count, and its jumps' sorted times and mark indices in turn."""

    t: float
    counts: np.ndarray
    times: np.ndarray
    mark_indices: np.ndarray


def sample_jump_realization(t: float, marks: tuple[JumpMark, ...], rng: np.random.Generator,
                            size: int = 1, max_jumps: float = math.inf) -> JumpRealization:
    """``size`` paths on (0, t] of the jumps ``marks`` (``NoiseSpec.jumps`` or
    ``MultLevySpec.marks``), drawn in this order: every path's Poisson count;
    the paths that start below ``max_jumps`` jumps; their uniform times,
    sorted within each path; their marks, each in proportion to its rate."""
    t = _check_time(t)
    if not marks:
        raise DegenerateNoiseError("spec has no jump part")
    rate = float(sum(m.rate for m in marks))
    counts = rng.poisson(rate * t, size=size)
    counts = counts[:int(np.searchsorted(counts.cumsum() - counts, max_jumps))]
    times = rng.uniform(0.0, t, size=int(counts.sum()))
    times = times[np.lexsort((times, np.repeat(np.arange(counts.size), counts)))]
    # rng.choice(len(marks), size=times.size, p=probs) without its argument checks:
    # the same normalised cdf, uniforms and int64 indices
    cdf = (np.array([m.rate for m in marks]) / rate).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(times.size), side="right")
    return JumpRealization(t=t, counts=counts, times=times, mark_indices=idx)


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
    """Exact draw of the compensated heat jump convolution at time t."""
    if realization is None:
        realization = sample_jump_realization(t, spec.jumps, rng)
    lam = spec.system.lambdas
    acc = np.zeros(spec.system.n_modes)
    for tau, mi in zip(realization.times, realization.mark_indices):
        acc += spec.jumps[mi].values * np.exp(-lam * (t - tau))
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
