"""Deterministic linear flows: heat semigroup and damped-wave group.

Both act mode by mode: the heat flow as a scalar, the wave group as one
2x2 block per mode.  Every evaluation accepts an optional ``log_scale`` so
that renormalized quantities like exp(lambda_lead * t) S(t)h or S(t)h / eps
are computed inside a single exponential per mode -- at cutoff-size times
the unscaled factors underflow long before the scaled product does.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import InvalidDomainError, InvalidTimeError, WrongCaseError
from .spectral_core import ModeCoefficients, WaveSpectrum, WaveState, damping_gap


def _check_time(t: float, last: float = sys.float_info.max) -> float:
    """float(t) if 0 <= t <= last, else InvalidTimeError (NaN included).
    Callers where t = inf means equilibrium pass ``last=math.inf``; one
    chained comparison keeps the check cheap, since ``wave_mode_propagator``
    runs it once per (time, mode) pair of ``decay_constants``."""
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
    nz, moved = _heat_on_support(t, h, log_scale)
    values = h.values.copy()
    values[nz] = moved
    return ModeCoefficients(h.system, values)


def _heat_on_support(t: float, h: ModeCoefficients, log_scale: float):
    """(support, values there) of :func:`heat_apply`, without the zeros."""
    t = _check_time(t)
    nz = h.nonzero_indices()
    return nz, h.values[nz] * np.exp(-h.system.lambdas[nz] * t + log_scale)


# --------------------------------------------------------------------------
# Damped wave flow
# --------------------------------------------------------------------------


def _propagator_coefficients(t: float, sp: WaveSpectrum, log_scale: float):
    """Per-mode (c, s) with e^{log_scale} P_k(t) = c_k I + s_k (A_k + gamma/2 I),
    A_k = [[0, 1], [-lambda_k, -gamma]], in every damping regime.  Overdamped,
    with the gap s_k and the slow root r_k of ``sp``, c = e^{rt} (1 + e^{-2st}) / 2
    and s = e^{rt} (1 - e^{-2st}) / (2 s_k), which is t e^{rt} at critical damping;
    oscillatory, c = e^{-gamma t/2} cos(theta t), s = e^{-gamma t/2} sin(theta t) / theta."""
    e = np.exp(sp.root_slow * t + log_scale)
    x = 2.0 * sp.s * t
    damp = math.exp(-0.5 * sp.gamma * t + log_scale)
    phase = sp.theta * t
    c = np.concatenate([0.5 * e * (1.0 + np.exp(-x)), damp * np.cos(phase)])
    s = np.concatenate([
        e * np.divide(-np.expm1(-x), 2.0 * sp.s, out=np.full(sp.n_over, t), where=sp.s > 0),
        damp * (np.sin(phase) / sp.theta)])
    return c, s


def wave_apply(t: float, z: WaveState, log_scale: float = 0.0) -> WaveState:
    """exp(log_scale) * S_gamma(t) z for the damped-wave group: each mode's
    (u, w) moves by c I + s (A + gamma/2 I), whatever its damping.  Where a
    product of finite data overflows, the flow is taken again on z / 2^e, e
    the exponent of its largest entry, and scaled back."""
    t = _check_time(t)
    sp = z.spectrum
    c, s = _propagator_coefficients(t, sp, log_scale)
    h = 0.5 * sp.gamma
    lam = sp.system.lambdas

    def move(u, w):
        return c * u + s * (h * u + w), c * w - s * (lam * u + h * w)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is redone scaled
        u, w = move(z.position, z.velocity)
        if not (np.isfinite(u).all() and np.isfinite(w).all()):
            e = math.frexp(max(np.abs(z.position).max(), np.abs(z.velocity).max()))[1]
            u, w = (np.ldexp(v, e) for v in move(*np.ldexp([z.position, z.velocity], -e)))
    return WaveState(sp, u, w)


@functools.lru_cache(maxsize=1024)
def _mode_gap(lam: float, h: float) -> tuple[float, float]:
    """damping_gap of one mode, kept: decay_constants asks for each mode's
    propagator at every time of its grid."""
    return damping_gap(lam, h, math.sqrt)


def wave_mode_propagator(t: float, lam: float, gamma: float) -> tuple[float, float, float, float]:
    """The 2x2 exponential of [[0, 1], [-lambda, -gamma]] t, c I + s (A + gamma/2 I)
    by :func:`_propagator_coefficients`' formula for one mode, as its entries
    (P00, P01, P10, P11) in row-major order, Python floats: ``decay_constants``
    makes grid_points x modes calls and stacks the tuples without a list."""
    t = _check_time(t)
    h = 0.5 * gamma
    below, gap = _mode_gap(lam, h)
    if below >= 0.0:
        e = math.exp(-lam / (h + gap) * t)
        x = 2.0 * gap * t
        c = 0.5 * e * (1.0 + math.exp(-x))
        s = e * (-math.expm1(-x) / (2.0 * gap)) if gap > 0 else e * t
    else:
        damp = math.exp(-h * t)
        c = damp * math.cos(gap * t)
        s = damp * (math.sin(gap * t) / gap)
    return c + s * h, s, -lam * s, c - s * h


@dataclass(frozen=True)
class OverdampedLeader:
    """Large-time data of the flow when overdamped content is present.

    e^{rate * t} S_gamma(t) z -> ``shape`` with error at most
    ``amplitude * exp(margin * t)``; ``margin`` < 0 whenever the certificate
    is meaningful (it is -inf if the leader is the only nonzero term).
    ``case`` is "slow" when a slow-root coordinate leads and "fast" when all
    slow coordinates vanish and the largest-index fast coordinate leads;
    ``mode`` is the leading mode and ``coefficient`` its modal coordinate.
    Modes tied with it (same root, bit for bit) lead with it in ``shape``.
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


def wave_overdamped_leader(z: WaveState) -> OverdampedLeader:
    """Identify the slowest-decaying modal term of an overdamped state.

    Each overdamped mode splits into modal coordinates (p, q) with
    (u, w) = p (1, r_slow) + q (1, r_fast).  If a slow-root coordinate is
    populated the smallest-index one wins (it has the least-negative root);
    otherwise the largest-index fast-root coordinate wins.  The decay margin is the worst
    relative exponent among the remaining nonzero terms; if any of them
    decays no faster than the leader, or a critically damped mode (whose
    t e^{-gamma t/2} term has no modal split) carries data, the state has no
    single-term limit and a WrongCaseError is raised.
    """
    sp = z.spectrum
    no = sp.n_over
    if no == 0:
        raise WrongCaseError(
            "no overdamped modes: use the oscillatory window route"
        )
    u, w = z.position, z.velocity
    split = sp.s > 0
    if np.any(u[:no][~split]) or np.any(w[:no][~split]):
        raise WrongCaseError(
            "a critically damped mode carries data: its t e^{-gamma t/2} term "
            "has no single-exponential limit"
        )
    rs = sp.root_slow
    rf = -0.5 * sp.gamma - sp.s
    d = rs - rf
    slow = np.divide(w[:no] - rf * u[:no], d, out=np.zeros(no), where=split)
    fast = np.divide(w[:no] - rs * u[:no], -d, out=np.zeros(no), where=split)
    slow_nz = np.flatnonzero(slow)
    fast_nz = np.flatnonzero(fast)
    if slow_nz.size == 0 and fast_nz.size == 0:
        raise WrongCaseError(
            "no overdamped content in the state: use the oscillatory window route"
        )
    if slow_nz.size:
        case, roots, coords, j = "slow", rs, slow, int(slow_nz[0])
    else:
        case, roots, coords, j = "fast", rf, fast, int(fast_nz[-1])
    rate = -float(roots[j])
    lead = np.flatnonzero(coords)
    lead = lead[roots[lead] == roots[j]]
    shape_u = np.zeros(sp.n_modes)
    shape_w = np.zeros(sp.n_modes)
    shape_u[lead] = coords[lead]
    shape_w[lead] = roots[lead] * coords[lead]

    # the other terms: a |(1, r)| e^{rt} per modal coordinate, and
    # 2 Re(b e^{omega t} (1, omega)) per oscillatory mode, where
    # 2 |b| = |(w + gamma/2 u, theta u)| / theta and |(1, omega)|^2 = 1 + 2 lambda
    lam = sp.system.lambdas
    margin = -math.inf
    amplitude = 0.0
    for a, r in ((slow, rs), (fast, rf)):
        rest = np.flatnonzero(a)
        if a is coords:
            rest = rest[r[rest] != r[j]]
        for i in rest:
            margin = max(margin, rate + float(r[i]))
            amplitude += abs(float(a[i])) * math.hypot(math.sqrt(1.0 + lam[i]), r[i])
    u_o, w_o = u[no:], w[no:]
    two_b = np.hypot(w_o + 0.5 * sp.gamma * u_o, sp.theta * u_o) / sp.theta
    for i in np.flatnonzero(two_b):
        margin = max(margin, rate - 0.5 * sp.gamma)
        amplitude += float(two_b[i]) * math.sqrt(1.0 + 2.0 * lam[no + i])
    if margin >= 0.0:
        raise WrongCaseError(
            "another modal term decays no faster than the putative leader; "
            "the renormalized flow has no single-term limit"
        )
    return OverdampedLeader(
        rate=rate,
        shape=WaveState(sp, shape_u, shape_w),
        margin=margin,
        amplitude=amplitude,
        case=case,
        mode=j,
        coefficient=float(coords[j]),
    )


def wave_subcritical_norm_sq(t: float, z: WaveState) -> float:
    """|e^{gamma t / 2} S_gamma(t) z|^2, subcritical damping: the squared
    norm of the almost-periodic renormalized flow."""
    t = _check_time(t)
    sp = z.spectrum
    if sp.n_over != 0:
        raise WrongCaseError("the window norm needs every mode oscillatory (gamma^2 < 4 lambda_1)")
    norm = wave_apply(t, z, 0.5 * sp.gamma * t).norm
    return norm * norm  # inf where the square overflows, not OverflowError


def _norm_2x2(a, b, c, d):
    """Spectral norms (|(a + d, c - b)| + |(a - d, b + c)|) / 2 of the 2x2 blocks
    [[a, b], [c, d]], arrays that broadcast; the entries are halved first,
    exactly unless subnormal, so that no sum of finite entries overflows."""
    a, b, c, d = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * d
    return np.hypot(a + d, c - b) + np.hypot(a - d, b + c)


def decay_constants(
    kind: str,
    system=None,
    wave_spec: WaveSpectrum | None = None,
    grid_points: int = 2000,
) -> tuple[float, float]:
    """(C, rate) with |S(t)| <= C e^{-rate t} certified on a time grid.

    Heat: exactly (1, lambda_1).  Wave: the rate is the slowest modal decay
    (``WaveSpectrum.rate``; a critically damped slowest mode raises); C maximizes
    e^{rate t} |e^{t M_k}| over modes and a grid on [0, 20/rate], M_k the mode
    block in graph-norm coordinates and |.| :func:`_norm_2x2`; a block that is
    not finite raises InvalidDomainError.
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
    if sp.n_over and sp.s[0] == 0.0:
        raise WrongCaseError("the slowest mode is critically damped: |S(t)| decays "
                             "like t e^{-gamma t/2}, no constant C exists")
    rate = sp.rate
    grid = np.linspace(0.0, 20.0 / rate, grid_points)
    lam = sp.system.lambdas
    n = grid.size
    ts = grid.tolist()
    worst = np.zeros(n)  # the largest norm over the modes so far, per time
    for k, (lk, sk) in enumerate(zip(lam.tolist(), np.sqrt(1.0 + lam).tolist())):
        # one call per time; its four entries stream into row i, no list kept
        M = np.fromiter(chain.from_iterable(map(wave_mode_propagator, ts, repeat(lk, n),
                                                repeat(sp.gamma, n))),
                        float, 4 * n).reshape(n, 4)
        with np.errstate(over="ignore", invalid="ignore"):  # not finite: raised below
            norm = _norm_2x2(M[:, 0], M[:, 1] / sk, M[:, 2] * sk, M[:, 3])
        if not np.isfinite(norm).all():
            raise InvalidDomainError(f"mode {k}: lambda = {lk!r} gives a block that is not finite")
        np.maximum(worst, norm, out=worst)
    c_best = 1.0
    for t, w in zip(ts, worst.tolist()):
        c_best = max(c_best, math.exp(rate * t) * w)
    return float(c_best), rate
