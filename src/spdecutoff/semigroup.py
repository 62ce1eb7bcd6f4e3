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

import numpy as np

from .errors import InvalidTimeError, SubcriticalRouteError, WrongCaseError
from .spectral_core import ModeCoefficients, WaveSpectrum, WaveState, damping_gap


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
    A_k = [[0, 1], [-lambda_k, -gamma]]: :func:`wave_mode_propagator`'s
    formula on every mode of ``sp`` at once."""
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


def wave_mode_propagator(t: float, lam: float, gamma: float) -> np.ndarray:
    """Closed-form 2x2 exponential of [[0, 1], [-lambda, -gamma]] * t.

    P(t) = c I + s (A + gamma/2 I) in every damping regime.  With
    s_0^2 = (gamma/2 - sqrt(lambda)) (gamma/2 + sqrt(lambda)) >= 0 (from
    :func:`damping_gap`) and the slow root r = -lambda / (gamma/2 + s_0),

        c = e^{rt} (1 + e^{-2 s_0 t}) / 2,   s = e^{rt} (1 - e^{-2 s_0 t}) / (2 s_0),

    which is t e^{rt} at critical damping (s_0 = 0); for s_0^2 < 0, with
    theta^2 = -s_0^2, c = e^{-gamma t/2} cos(theta t) and
    s = e^{-gamma t/2} sin(theta t) / theta.  Entries are computed as Python
    floats, which keeps a call at about 1 us: ``decay_constants`` makes
    grid_points x modes calls.
    """
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
    return np.array([c + s * h, s, -lam * s, c - s * h]).reshape(2, 2)


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
        raise SubcriticalRouteError(
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
        raise SubcriticalRouteError(
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
    try:
        return norm ** 2
    except OverflowError:  # the norm itself may be finite
        return math.inf


def decay_constants(
    kind: str,
    system=None,
    wave_spec: WaveSpectrum | None = None,
    horizon_factor: float = 20.0,
    grid_points: int = 2000,
) -> tuple[float, float]:
    """(C, rate) with |S(t)| <= C e^{-rate t} certified on a time grid.

    Heat: exactly (1, lambda_1).  Wave: the rate is the slowest modal decay
    (``WaveSpectrum.rate``; a critically damped slowest mode raises); C maximizes
    e^{rate t} |e^{t M_k}| over modes and a grid on [0, horizon_factor/rate],
    where M_k is the mode block conjugated into graph-norm coordinates.

    Only a few (time, mode) pairs reach LAPACK.  Every pair is scored with the
    closed-form 2x2 norm (|(a + d, c - b)| + |(a - d, b + c)|) / 2 times
    np.exp(rate t).  A pair is kept when its score is not below (1 - 1e-12)
    times the largest finite score so far (or 1, where the fold starts),
    itself the score of a kept pair, and the SVD norms of each mode are taken
    from its first kept pair to its last.  Both norms are of the same float
    matrix and within a few ulp of its exact norm (the sums of exact entries,
    hypot and dgesdd each err by an ulp or so), and np.exp and math.exp agree
    to an ulp or two: a score and the folded product e^{rate t} |.| differ by
    under 1e-14 relatively, plus 2^-1074 e^{rate t} <= 2^-50 per subnormal
    rounding against a bar >= 1.  So every pair screened out folds to less
    than a kept one, and since rounding is monotone, fl(e max_k s_k) =
    max_k fl(e s_k): C is the unscreened fold's bit for bit.  A NaN or inf
    entry gives a NaN or inf score, which is kept; the fold still visits
    every time, so math.exp overflows as before, and a time whose norm is NaN
    (an inf entry) drops out as before.  Such a time cannot have set the bar
    from a finite score of another mode: graph-norm entries stay below about
    lambda_k (1 + 1e-15), finite unless lambda_k > (1 - 2^-26) DBL_MAX, and
    there damping_gap overflows, the t = 0 block is NaN and LAPACK raises.
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
    grid = np.linspace(0.0, horizon_factor / rate, grid_points)
    lam = sp.system.lambdas
    scale = np.sqrt(1.0 + lam)
    with np.errstate(over="ignore"):
        grow = 0.5 * np.exp(rate * grid)  # the closed form's 1/2 folded in
    # worst[i] = max over modes of |e^{t_i M_k}| over the kept pairs, else 0
    worst = np.zeros(grid.size)
    bar = 1.0  # the largest finite score of a kept pair, or the fold's start
    M = np.empty((grid.size, 2, 2))
    score = np.empty(grid.size)
    # memoryviews yield Python floats without building lists
    for lk, sk in zip(memoryview(lam), memoryview(scale)):
        for i, t in enumerate(memoryview(grid)):
            M[i] = wave_mode_propagator(t, lk, sp.gamma)
        # conjugate into coordinates where the graph norm is Euclidean
        M[:, 0, 1] /= sk
        M[:, 1, 0] *= sk
        a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are kept
            np.hypot(a + d, c - b, out=score)
            score += np.hypot(a - d, b + c)
            score *= grow
        top = score.max(initial=0.0)
        if top < math.inf:  # an inf or NaN top screens nothing
            bar = max(bar, top)
        keep = ~(score < bar * (1.0 - 1e-12))  # NaN stays in
        if keep.any():
            # the blocks from the first kept one to the last, a view of M: a
            # norm more than needed only moves worst towards the unscreened one
            span = slice(keep.argmax(), grid.size - keep[::-1].argmax())
            np.maximum(worst[span], np.linalg.norm(M[span], 2, axis=(-2, -1)),
                       out=worst[span])
    c_best = 1.0
    for t, w in zip(memoryview(grid), memoryview(worst)):
        c_best = max(c_best, math.exp(rate * t) * w)
    return float(c_best), rate
