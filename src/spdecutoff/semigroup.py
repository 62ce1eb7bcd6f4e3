"""Deterministic linear flows: heat semigroup and damped-wave group.

Both act diagonally in mode space.  Every evaluation accepts an optional
``log_scale`` so that renormalized quantities like exp(lambda_lead * t) S(t)h
or S(t)h / eps are computed inside a single exponential per mode -- at
cutoff-size times the unscaled factors underflow long before the scaled
product does.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTimeError, SubcriticalRouteError, WrongCaseError
from .spectral_core import ModeCoefficients, WaveSpectrum, WaveState


def _check_time(t: float, last: float = sys.float_info.max) -> float:
    """float(t) if 0 <= t <= last, else InvalidTimeError (NaN included).
    Callers where t = inf means equilibrium pass ``last=math.inf``; one
    chained comparison keeps the check cheap for ``wave_mode_propagator``."""
    t = float(t)
    if not (0.0 <= t <= last):
        need = ">= 0" if last == math.inf else "finite and >= 0"
        raise InvalidTimeError(f"time must be {need}, got {t}")
    return t


def heat_apply(t: float, h: ModeCoefficients, log_scale: float = 0.0) -> ModeCoefficients:
    """exp(log_scale) * S(t) h for the heat semigroup S(t) = e^{-t Laplacian}.

    Only the datum's support is evaluated; zero coefficients stay exact
    zeros even where the factor overflows.
    """
    t = _check_time(t)
    values = h.values.copy()
    nz = h.nonzero_indices()
    values[nz] *= np.exp(-h.system.lambdas[nz] * t + log_scale)
    return ModeCoefficients(h.system, values)


# --------------------------------------------------------------------------
# Damped wave flow
# --------------------------------------------------------------------------


def wave_apply(t: float, z: WaveState, log_scale: float = 0.0) -> WaveState:
    """exp(log_scale) * S_gamma(t) z for the damped-wave group.

    Modal coordinates evolve independently: a_slow/a_fast pick up
    e^{r t}, each oscillatory b picks up e^{(-gamma/2 + i theta) t}.
    """
    t = _check_time(t)
    sp = z.spectrum
    a_s = z.a_slow * np.exp(sp.root_slow * t + log_scale)
    a_f = z.a_fast * np.exp(sp.root_fast * t + log_scale)
    b = z.b * np.exp((-0.5 * sp.gamma + 1j * sp.theta) * t + log_scale)
    return WaveState(spectrum=sp, a_slow=a_s, a_fast=a_f, b=b)


def wave_mode_propagator(t: float, lam: float, gamma: float) -> np.ndarray:
    """Closed-form 2x2 exponential of [[0, 1], [-lambda, -gamma]] * t.

    Uses the two characteristic roots; oscillatory modes go through the
    real cos/sin form to stay real.  Entries are computed as Python floats
    (libm exp/cos/sin, IEEE arithmetic), the same values as the matrix
    form ``(e^{r+ t}(A - r- I) - e^{r- t}(A - r+ I)) / (r+ - r-)`` and
    ``e^{-gamma t/2} (cos(theta t) I + sin(theta t)/theta (A + gamma/2 I))``
    evaluated entrywise, including the products with the 0/1 entries of I.
    Building the 2x2 result from four floats keeps a call at about 2 us,
    which matters to ``decay_constants`` (grid_points x modes calls).
    """
    t = _check_time(t)
    g2 = gamma * gamma
    if g2 > 4.0 * lam:
        s = math.sqrt(g2 - 4.0 * lam) / 2.0
        rp = -0.5 * gamma + s
        rm = -0.5 * gamma - s
        ep, em, d = math.exp(rp * t), math.exp(rm * t), rp - rm
        return np.array(
            [
                (ep * (0.0 - rm) - em * (0.0 - rp)) / d,
                (ep * (1.0 - rm * 0.0) - em * (1.0 - rp * 0.0)) / d,
                (ep * (-lam - rm * 0.0) - em * (-lam - rp * 0.0)) / d,
                (ep * (-gamma - rm) - em * (-gamma - rp)) / d,
            ]
        ).reshape(2, 2)
    theta = math.sqrt(4.0 * lam - g2) / 2.0
    h = 0.5 * gamma
    damp = math.exp(-0.5 * gamma * t)
    c = math.cos(theta * t)
    sn = math.sin(theta * t) / theta
    z = c * 0.0
    return np.array(
        [
            damp * (c + sn * (0.0 + h)),
            damp * (z + sn * (1.0 + h * 0.0)),
            damp * (z + sn * (-lam + h * 0.0)),
            damp * (c + sn * (-gamma + h)),
        ]
    ).reshape(2, 2)


@dataclass(frozen=True)
class OverdampedLeader:
    """Large-time data of the flow when overdamped content is present.

    e^{rate * t} S_gamma(t) z -> ``shape`` with error at most
    ``amplitude * exp(margin * t)``; ``margin`` < 0 whenever the certificate
    is meaningful (it is -inf if the leader is the only nonzero term).
    ``case`` is "slow" when a slow-root coordinate leads and "fast" when all
    slow coordinates vanish and the largest-index fast coordinate leads.
    """

    rate: float
    shape: WaveState
    margin: float
    amplitude: float
    case: str
    mode: int
    coefficient: float

    @property
    def shape_norm(self) -> float:
        return self.shape.norm


def _basis_norms(sp: WaveSpectrum):
    lam_o = sp.lambdas_over()
    n_slow = np.sqrt(1.0 + lam_o + sp.root_slow ** 2)
    n_fast = np.sqrt(1.0 + lam_o + sp.root_fast ** 2)
    # |(e_k, omega e_k)| with |omega|^2 = lambda
    n_osc = np.sqrt(1.0 + 2.0 * sp.lambdas_osc())
    return n_slow, n_fast, n_osc


def wave_overdamped_leader(z: WaveState) -> OverdampedLeader:
    """Identify the slowest-decaying modal term of an overdamped state.

    Requires some nonzero overdamped coordinate.  If a slow-root coordinate
    is populated the smallest-index one wins (it has the least-negative
    root); otherwise the largest-index fast-root coordinate wins.  The decay
    margin is the worst relative exponent among the remaining nonzero terms;
    if any of them decays no faster than the leader, the state has no
    single-term limit and a WrongCaseError is raised.
    """
    sp = z.spectrum
    if sp.n_over == 0:
        raise SubcriticalRouteError(
            "no overdamped modes: use the oscillatory window route"
        )
    slow_nz = np.flatnonzero(z.a_slow)
    fast_nz = np.flatnonzero(z.a_fast)
    if slow_nz.size == 0 and fast_nz.size == 0:
        raise SubcriticalRouteError(
            "no overdamped content in the state: use the oscillatory window route"
        )
    if slow_nz.size:
        j = int(slow_nz[0])
        case = "slow"
        rate = -float(sp.root_slow[j])
        coeff = float(z.a_slow[j])
    else:
        j = int(fast_nz[-1])
        case = "fast"
        rate = -float(sp.root_fast[j])
        coeff = float(z.a_fast[j])
    a_s = np.zeros(sp.n_over)
    a_f = np.zeros(sp.n_over)
    if case == "slow":
        a_s[j] = coeff
    else:
        a_f[j] = coeff
    shape = WaveState(sp, a_s, a_f, np.zeros(sp.n_osc, dtype=complex))

    n_slow, n_fast, n_osc = _basis_norms(sp)
    margin = -math.inf
    amplitude = 0.0
    for i in slow_nz:
        if case == "slow" and i == j:
            continue
        margin = max(margin, rate + float(sp.root_slow[i]))
        amplitude += abs(z.a_slow[i]) * n_slow[i]
    for i in fast_nz:
        if case == "fast" and i == j:
            continue
        margin = max(margin, rate + float(sp.root_fast[i]))
        amplitude += abs(z.a_fast[i]) * n_fast[i]
    osc_nz = np.flatnonzero(np.abs(z.b))
    for i in osc_nz:
        margin = max(margin, rate - 0.5 * sp.gamma)
        amplitude += 2.0 * abs(z.b[i]) * n_osc[i]
    if margin >= 0.0:
        raise WrongCaseError(
            "another modal term decays no faster than the putative leader; "
            "the renormalized flow has no single-term limit"
        )
    return OverdampedLeader(
        rate=rate,
        shape=shape,
        margin=margin,
        amplitude=amplitude,
        case=case,
        mode=j,
        coefficient=coeff,
    )


def wave_subcritical_norm_sq(t: float, z: WaveState) -> float:
    """|e^{gamma t / 2} S_gamma(t) z|^2 in closed form, subcritical damping.

    With all modes oscillatory, the renormalized flow is the almost-periodic
    vector v(t, z) = sum_j e^{i theta_j t} b_j v_j + conjugates, whose
    squared norm is

        sum_j 2 |b_j|^2 (1 + 2 lambda_j)
            + 2 Re( e^{2 i theta_j t} b_j^2 (1 + lambda_j + omega_j^2) ).
    """
    t = _check_time(t)
    sp = z.spectrum
    if sp.n_over != 0:
        raise WrongCaseError("closed form needs every mode oscillatory (gamma^2 < 4 lambda_1)")
    lam = sp.lambdas_osc()
    omega = sp.omega_osc()
    const = 2.0 * np.abs(z.b) ** 2 * (1.0 + 2.0 * lam)
    cross = 2.0 * (np.exp(2j * sp.theta * t) * z.b ** 2 * (1.0 + lam + omega ** 2)).real
    return float(np.sum(const + cross))


def decay_constants(
    kind: str,
    system=None,
    wave_spec: WaveSpectrum | None = None,
    horizon_factor: float = 20.0,
    grid_points: int = 2000,
) -> tuple[float, float]:
    """(C, rate) with |S(t)| <= C e^{-rate t} certified on a time grid.

    Heat: exactly (1, lambda_1).  Wave: the rate is the slowest modal decay
    (slow root of the first overdamped mode, else gamma/2); C maximizes
    e^{rate t} |e^{t M_k}| over modes and a grid on [0, horizon_factor/rate],
    where M_k is the mode block conjugated into graph-norm coordinates.
    """
    if kind == "heat":
        if system is None:
            raise WrongCaseError("heat decay constants need an eigensystem")
        return 1.0, float(system.lambdas[0])
    if kind != "wave":
        raise WrongCaseError(f"unknown flow kind {kind!r}")
    sp = wave_spec
    if sp is None:
        raise WrongCaseError("wave decay constants need a wave spectrum")
    if sp.n_over > 0:
        rate = -float(sp.root_slow[0])
    else:
        rate = 0.5 * sp.gamma
    lam = sp.system.lambdas
    scale = np.sqrt(1.0 + lam)
    ts = np.linspace(0.0, horizon_factor / rate, grid_points).tolist()
    # worst[i] = max over modes of |e^{t_i M_k}|; one mode's (grid_points, 2, 2)
    # stack at a time, its spectral norms from one stacked SVD call
    worst = np.zeros(len(ts))
    M = np.empty((len(ts), 2, 2))
    for lk, sk in zip(lam.tolist(), scale.tolist()):
        for i, t in enumerate(ts):
            M[i] = wave_mode_propagator(t, lk, sp.gamma)
        # conjugate into coordinates where the graph norm is Euclidean
        M[:, 0, 1] /= sk
        M[:, 1, 0] *= sk
        np.maximum(worst, np.linalg.norm(M, 2, axis=(-2, -1)), out=worst)
    c_best = 1.0
    for t, w in zip(ts, worst.tolist()):
        c_best = max(c_best, math.exp(rate * t) * w)
    return float(c_best), rate
