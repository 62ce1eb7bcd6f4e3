"""Small multiplicative noise: exact flows, moments, and profiles.

With mode-diagonal multiplicative forcing the solution of

    dX = A X dt + eps * (noise acting diagonally on X)

is a stochastic exponential computable in closed form per mode.  The
equilibrium is the point mass at zero, so the W2 distance to equilibrium is
the root second moment of the state, which is explicit for both Brownian and
finite-activity jump forcing.  Cutoff happens along any renormalization
schedule a(eps) with a -> 0 slowly enough that the noise correction to the
drift exponent vanishes at time |ln a| / lambda_lead.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNoiseError,
    InvalidDomainError,
    MarkOutOfRangeError,
    ScheduleRejectedError,
)
from .noise_sim import JumpMark
from .semigroup import _check_time
from .spectral_core import EigenSystem, ModeCoefficients, heat_leading_data, root_sum_sq

# Entries (rows x modes) per block of levy_stochexp_batch's distinct count
# vectors and of the replayed paths; bounds the working memory of both
# independently of the path count.
_BLOCK_ENTRIES = 2 ** 20


class MultSpec:
    """Diagonal multiplicative forcing of amplitude ``eps`` on ``system``.

    Either driver, Brownian or jump, enters the second moment only through
    its per-mode gain v = :meth:`variance_rate`: E X_j(t)^2 = h_j^2
    exp(-2 lambda_j t + t v_j).
    """

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InvalidDomainError(f"eps must lie in (0, 1), got {self.eps}")

    @functools.cached_property
    def second_moment_drift(self) -> np.ndarray:
        """Per-mode exponent rate of E X^2 / 2: -lambda + variance_rate / 2."""
        drift = -self.system.lambdas + 0.5 * self.variance_rate()
        drift.flags.writeable = False
        return drift

    def second_moment_exponent(self, t: float) -> np.ndarray:
        """Per-mode log(E X_j(t)^2 / h_j^2) = -2 lambda_j t + t v_j, evaluated
        in that order, not as 2 t second_moment_drift, whose rounding
        differs."""
        return 2.0 * t * (-self.system.lambdas) + t * self.variance_rate()


@dataclass(frozen=True)
class MultBrownianSpec(MultSpec):
    """Diagonal Brownian multiplicative forcing.

    ``g`` has shape (n_noises, n_modes): row i is the diagonal of the i-th
    noise operator, driven by an independent scalar Brownian motion.
    """

    system: EigenSystem
    g: np.ndarray
    eps: float

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.g, dtype=float))
        if g.shape[1] != self.system.n_modes:
            raise DegenerateNoiseError("noise diagonals must match mode count")
        object.__setattr__(self, "g", g)
        super().__post_init__()

    def variance_rate(self) -> np.ndarray:
        """eps^2 sum_i g_i^2 per mode: the second-moment exponent gain."""
        return self.eps ** 2 * np.sum(self.g ** 2, axis=0)


def mult_second_moment_exact(t: float, h: ModeCoefficients, spec: MultSpec) -> float:
    """E |X_t(h)|^2 = sum_j h_j^2 exp(spec.second_moment_exponent(t)_j)."""
    t = _check_time(t)
    return float(np.sum(h.values ** 2 * np.exp(spec.second_moment_exponent(t))))


def _log_space_root_sum(values: np.ndarray, exponents: np.ndarray) -> float:
    """sqrt( sum values^2 exp(2 exponents) ) with zero terms dropped and the
    remaining sum shifted by its largest exponent (log-sum-exp)."""
    nz = values != 0.0
    if not np.any(nz):
        return 0.0
    logs = 2.0 * (np.log(np.abs(values[nz])) + exponents[nz])
    m = float(np.max(logs))
    try:
        scale = math.exp(0.5 * m)
    except OverflowError:  # the root sum is at least exp(m / 2) > DBL_MAX
        return math.inf
    return scale * math.sqrt(float(np.sum(np.exp(logs - m))))


def mult_distance_to_zero(t: float, h: ModeCoefficients, spec: MultSpec,
                          log_scale: float = 0.0) -> float:
    """W2(X_t(h), point mass at 0) * exp(log_scale) = renormalizable root
    second moment, assembled in log space."""
    t = _check_time(t)
    return _log_space_root_sum(h.values, t * spec.second_moment_drift + log_scale)


# --------------------------------------------------------------------------
# Renormalization schedules
# --------------------------------------------------------------------------

_SCHEDULES = {
    "eps": lambda e: e,
    "sqrt": lambda e: math.sqrt(e),
    "log": lambda e: 1.0 / abs(math.log(e)),
}


def schedule_values(name: str, eps_grid) -> np.ndarray:
    """a(eps) over the grid; admissibility (a -> 0 and eps^2 |ln a| -> 0 for
    Brownian forcing, eps |ln a| -> 0 for jumps) is checked numerically:
    both sequences must be decreasing along the grid and small at the end."""
    if name not in _SCHEDULES:
        raise ScheduleRejectedError(f"unknown schedule {name!r}")
    eps = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    if eps.size == 0 or np.any(eps <= 0) or np.any(eps >= 1):
        raise ScheduleRejectedError("eps grid must be nonempty and lie in (0, 1)")
    a = np.array([_SCHEDULES[name](e) for e in eps])
    corr = eps * np.abs(np.log(a))
    if np.any(np.diff(a) > 0) or np.any(np.diff(corr) > 1e-12):
        raise ScheduleRejectedError(
            f"schedule {name!r} is not admissible on this grid: "
            "a(eps) and eps*|ln a(eps)| must both decrease"
        )
    if corr[-1] > 0.5 or a[-1] > 0.2:
        raise ScheduleRejectedError(
            f"schedule {name!r} has not entered the small-noise regime: "
            f"a = {a[-1]:.3g}, eps*|ln a| = {corr[-1]:.3g} at the finest grid point"
        )
    return a


def mult_profile(
    rho: float,
    h: ModeCoefficients,
    specs,
    schedule: str = "eps",
) -> list[dict]:
    """Multiplicative profile study at t = |ln a| / lambda_lead + rho.

    ``specs`` holds one Brownian or one jump spec per grid point eps; rows
    run from the largest eps to the smallest.  Each row carries the
    renormalized distance sqrt(E|X_t|^2)/a, the profile
    e^{-rho lambda_lead} |v|, the residual, and the residual rate ratio
    residual / (a^{1 - l1/l2} |h|) whose boundedness along the grid certifies
    the advertised decay rate.
    """
    leading = heat_leading_data(h)
    specs = sorted(specs, key=lambda s: s.eps, reverse=True)
    a_vals = schedule_values(schedule, [s.eps for s in specs])
    l1 = leading.lambda_lead
    l2 = leading.lambda_next
    profile = math.exp(-l1 * rho) * leading.shape_norm
    rows = []
    for spec, a in zip(specs, a_vals):
        t = abs(math.log(a)) / l1 + rho
        dist = mult_distance_to_zero(t, h, spec, log_scale=-math.log(a))
        residual = abs(dist - profile)
        rate = a ** (1.0 - l1 / l2) if l2 is not None else a
        rows.append(
            {
                "eps": spec.eps,
                "a": float(a),
                "t": t,
                "distance": dist,
                "profile": profile,
                "residual": residual,
                "rate_ratio": residual / (rate * h.norm),
            }
        )
    return rows


def levy_mult_profile(rho: float, h: ModeCoefficients, marks, eta: float, eps_grid,
                      schedule: str = "eps") -> list[dict]:
    """:func:`mult_profile` with the jump spec MultLevySpec(h.system, marks,
    eta, eps) per eps; the benchmark's per-layer metrics trace this name."""
    return mult_profile(rho, h, [MultLevySpec(h.system, marks, eta, e) for e in eps_grid],
                        schedule)


# --------------------------------------------------------------------------
# Finite-activity multiplicative jumps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MultLevySpec(MultSpec):
    """Diagonal finite-activity multiplicative jumps, compensated.

    Every mark must satisfy eta <= |mark|_2 < 1 (marks below ``eta`` are
    truncated away; marks of size >= 1 could annihilate or flip a mode).
    """

    system: EigenSystem
    marks: tuple[JumpMark, ...]
    eta: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        if not self.marks:
            raise DegenerateNoiseError("need at least one jump mark")
        if not (0.0 < self.eta < 1.0):
            raise InvalidDomainError(f"eta must lie in (0, 1), got {self.eta}")
        super().__post_init__()
        for i, m in enumerate(self.marks):
            if m.values.shape != (self.system.n_modes,):
                raise MarkOutOfRangeError(i, "length must match mode count")
            nrm = root_sum_sq(m.values)
            if not (self.eta <= nrm < 1.0):
                raise MarkOutOfRangeError(
                    i, f"norm {nrm} outside [eta, 1) = [{self.eta}, 1)"
                )
            if np.any(np.abs(m.values) >= 1.0):
                raise MarkOutOfRangeError(i, "every diagonal entry must satisfy |z_j| < 1")

    def compensator_drift(self) -> np.ndarray:
        """eps * sum_m rate_m z_j^m per mode (drift removed by compensation)."""
        acc = np.zeros(self.system.n_modes)
        for m in self.marks:
            acc += m.rate * m.values
        return self.eps * acc

    def variance_rate(self) -> np.ndarray:
        """eps^2 sum_m rate_m (z_j^m)^2: the second-moment exponent gain, the
        jump sum's compound-Poisson mgf t sum_m r_m ((1 + eps z_j^m)^2 - 1)
        less the compensator's 2 t eps sum_m r_m z_j^m, per unit t."""
        acc = np.zeros(self.system.n_modes)
        for m in self.marks:
            acc += m.rate * m.values ** 2
        return self.eps ** 2 * acc


def _flow_blocks(t: float, h: ModeCoefficients, spec: MultLevySpec, paths):
    """Both evaluations of the jump flow on each replayed path (``paths``,
    a :class:`JumpRealization` batch on (0, t]), in blocks of paths.

    Yields ``(rows, x, y)``: the indices of the block's paths in the batch
    and their (len(rows), n_modes) flows, ``x`` the stochastic exponential

        X_j(t) = h_j exp( t (-lambda_j - eps sum_m r_m z_j^m)
                          + sum_jumps log(1 + eps z_j) ),

    ``y`` the interlacing evaluation, which decays deterministically between
    jumps and multiplies by (1 + eps z_j) at each.  The paths are sorted by
    jump count, largest first (stable), so jump slot k of a block touches
    only the prefix of its paths with more than k jumps, and each element
    goes through the one-path arithmetic in its order: theta + log for x;
    y * exp(drift (tau - prev)), y * (1 + eps z), and finally
    y * exp(drift (t - prev)).  A block holds at most ``_BLOCK_ENTRIES``
    paths x modes (at least one path).
    """
    drift = -spec.system.lambdas - spec.compensator_drift()
    base = drift * t
    logs = np.array([np.log1p(spec.eps * m.values) for m in spec.marks])
    factors = np.array([1.0 + spec.eps * m.values for m in spec.marks])
    counts, times, marks = paths.counts, paths.times, paths.mark_indices
    starts = np.cumsum(counts) - counts
    # tau - prev per jump (prev = 0.0 at a path's first jump), and t - prev
    # after its last (prev = 0.0 on a path without jumps)
    jumped = counts > 0
    steps = np.diff(times, prepend=0.0)
    steps[starts[jumped]] = times[starts[jumped]]
    last = np.zeros(counts.size)
    last[jumped] = times[(starts + counts - 1)[jumped]]
    tails = t - last
    order = np.argsort(-counts, kind="stable")
    n_rows = max(1, _BLOCK_ENTRIES // drift.size)
    for lo in range(0, counts.size, n_rows):
        rows = order[lo:lo + n_rows]
        block_counts = counts[rows]
        # live[k] paths have a jump in slot k; the slots are laid out one
        # after the other, each slot's jumps in path order
        live = np.searchsorted(-block_counts, -np.arange(block_counts[0]), side="left")
        ends = np.cumsum(live)
        slot = np.repeat(np.arange(live.size), live)
        src = starts[rows][np.arange(slot.size) - (ends - live)[slot]] + slot
        block_steps, block_marks = steps[src], marks[src]
        x = np.tile(base, (rows.size, 1))
        y = np.tile(h.values, (rows.size, 1))
        for n, end in zip(live.tolist(), ends.tolist()):
            m = block_marks[end - n:end]
            x[:n] += logs[m]
            e = np.multiply.outer(block_steps[end - n:end], drift)
            np.exp(e, out=e)
            yn = y[:n]
            yn *= e
            yn *= factors[m]
        e = np.multiply.outer(tails[rows], drift)
        np.exp(e, out=e)
        y *= e
        np.exp(x, out=x)
        x *= h.values
        yield rows, x, y


def levy_flow_oracle(t: float, h: ModeCoefficients, spec: MultLevySpec, jumps) -> np.ndarray:
    """Interlacing evaluation of one path (a :class:`JumpRealization` of one):
    deterministic decay between jumps, multiplication by (1 + eps z_j) at
    each jump.  The ``y`` row of the batched replay."""
    return next(_flow_blocks(t, h, spec, jumps))[2][0]


def levy_pathwise_check(t: float, h: ModeCoefficients, spec: MultLevySpec,
                        paths) -> tuple[float, int]:
    """Replay ``paths`` (a :class:`JumpRealization` batch on (0, t])
    through both evaluations of the jump flow and return (worst, underflow):
    the largest relative gap |x - y| / max(|y|, 1e-300) over the paths whose
    gaps are all numbers, and the number of paths where the oracle y falls
    to the floor 1e-300 (0 included) in a mode with h_j != 0.  Such a mode
    is not checked relatively, whatever its relative gap reads.
    """
    floor = 1e-300
    nonzero = h.values != 0.0
    worst, underflow = 0.0, 0
    for _, x, y in _flow_blocks(t, h, spec, paths):
        x -= y
        np.abs(x, out=x)
        np.abs(y, out=y)
        np.maximum(y, floor, out=y)
        underflow += int(np.count_nonzero(np.any((y == floor) & nonzero, axis=1)))
        x /= y
        # a path whose largest gap is NaN is passed over, as max() did
        worst = float(np.fmax.reduce(np.max(x, axis=1), initial=worst))
    return worst, underflow


# stirlerr(k) = ln k! - ln(sqrt(2 pi k) (k / e)^k) at k = 0, ..., 15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) for integers k >= 1: the table up to 15, and above it
    Stirling's series to k^-9, whose next term is below 3e-16."""
    out = _STIRLERR[np.minimum(k, 15)]
    big = k > 15
    kb = k[big].astype(float)
    nn = kb * kb
    out[big] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / kb
    return out


def _bd0(k: np.ndarray, mu: float) -> np.ndarray:
    """k ln(k / mu) + mu - k for integers k >= 1, without its cancellation.
    Where mu / 2 < k < 2 mu, k - mu is exact (Sterbenz) and it is the series
    (k - mu) v + 2 k sum_{j >= 1} v^(2j + 1) / (2j + 1), v = (k - mu) / (k + mu),
    |v| < 1/3, summed until it stops changing.  Elsewhere |ln(k / mu)| >= ln 2
    and the direct form loses at most a few digits to cancellation; at
    mu < 1 it takes ln k - ln mu, two terms of one sign, as k / mu may
    overflow."""
    k = k.astype(float)
    out = np.empty_like(k)
    near = (k > 0.5 * mu) & (k < 2.0 * mu)
    far = k[~near]
    log_ratio = np.log(far / mu) if mu >= 1.0 else np.log(far) - math.log(mu)
    out[~near] = far * log_ratio + mu - far
    d = k[near] - mu
    v = d / (k[near] + mu)
    total = d * v
    term = 2.0 * k[near] * v
    v2 = v * v
    j = 1
    while True:
        term *= v2
        step = total + term / (2 * j + 1)
        if np.array_equal(step, total):
            break
        total, j = step, j + 1
    out[near] = total
    return out


def _poisson_window(mu: float, max_len: int):
    """(k, pmf) over every k whose Poisson(mu) pmf is a positive double, the
    pmf divided by its sum; or None when the range [lo, hi] that holds them
    is longer than ``max_len``.  The pmf is Loader's saddle-point form
    e^(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k) (e^-mu at k = 0), which
    keeps its relative accuracy at large mu, where the terms of
    k ln mu - mu - ln k! cancel.  Outside [lo, hi] the pmf
    is below e^-L, L = 750, whose exp() is 0.0, by Bernstein's bounds
    P(N <= mu - x) <= exp(-x^2 / (2 mu)) and
    P(N >= mu + x) <= exp(-x^2 / (2 (mu + x / 3))): lo = mu - sqrt(2 L mu)
    and hi = mu + L / 3 + sqrt((L / 3)^2 + 2 L mu)."""
    if mu == 0.0:
        return np.zeros(1, dtype=np.int64), np.ones(1)
    lo = max(0, math.floor(mu - math.sqrt(1500.0 * mu)))
    hi = math.ceil(mu + 250.0 + math.sqrt(62500.0 + 1500.0 * mu))
    if hi - lo + 1 > max_len:
        return None
    k = np.arange(lo, hi + 1)
    pmf = np.empty(k.size)
    pmf[k == 0] = math.exp(-mu)
    pos = k > 0
    pmf[pos] = (np.exp(-_stirlerr(k[pos]) - _bd0(k[pos], mu))
                / np.sqrt(2.0 * math.pi * k[pos]))
    keep = pmf > 0.0
    return k[keep], pmf[keep] / math.fsum(pmf[keep])


def _count_histogram(t: float, marks, rng: np.random.Generator,
                     size: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, weights): the histogram of ``size`` paths' jump-count vectors
    on (0, t], mark by mark; ``cells`` (n_marks, n_cells) holds the distinct
    vectors and ``weights`` the number of paths on each.

    From one cell of all the paths, mark m splits every cell with one
    ``rng.multinomial(weights, pmf)`` call over the Poisson(rate_m t) window
    of :func:`_poisson_window`, and the nonzero entries are the new cells:
    the exact law of the histogram of ``size`` iid per-path draws.  Where
    that table, the cells times the window's range, would have more than
    ``size`` entries (a large rate_m t over many cells), the mark is drawn
    per path with ``rng.poisson`` instead: the sorted distinct keys
    cell * radix + count - min count, radix the counts' span, are the new
    cells in (cell, count) order.  A key past 2^63 - 1 raises InvalidDomainError.
    """
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
            c = rng.poisson(mu, size=size)
            lo = int(c.min())
            radix = int(c.max()) - lo + 1
            if weights.size * radix > 2 ** 63 - 1:
                raise InvalidDomainError(f"{weights.size} cells x {radix} counts pass 2^63 - 1")
            keys, weights = np.unique(np.repeat(np.arange(weights.size), weights) * radix
                                      + (c - lo), return_counts=True)
            cells = np.vstack([cells[:, keys // radix], keys % radix + lo])
    return cells, weights


def levy_stochexp_batch(
    t: float, h: ModeCoefficients, spec: MultLevySpec,
    rng: np.random.Generator, size: int,
) -> np.ndarray:
    """(size,) exact draws of |X_t(h)|^2.

    The flow depends on a path only through its jump count per mark, so the
    batch draws the histogram of the paths' count vectors
    (:func:`_count_histogram`) and evaluates sum_j (h_j exp(theta_j))^2
    once per distinct vector, in blocks of at most ``_BLOCK_ENTRIES``
    modes x rows, each value repeated for the paths on it: memory stays
    O(size + n_modes).  Each value is bit-identical to the full
    (size, n_modes) evaluation of the count vectors repeated in that order.
    """
    lam = spec.system.lambdas
    cells, weights = _count_histogram(t, spec.marks, rng, size)
    base = (-lam - spec.compensator_drift()) * t
    logs = [np.log1p(spec.eps * m.values) for m in spec.marks]
    rows = max(1, _BLOCK_ENTRIES // lam.size)
    sq = np.empty(weights.size)
    for lo in range(0, weights.size, rows):
        block = cells[:, lo:lo + rows]
        theta = np.broadcast_to(base, (block.shape[1], lam.size)).copy()
        for mi, log_m in enumerate(logs):
            theta += block[mi, :, None] * log_m[None, :]
        # in place: exp(theta) * h, then squared, as (h * exp(theta)) ** 2
        np.exp(theta, out=theta)
        theta *= h.values
        theta **= 2
        sq[lo:lo + rows] = np.sum(theta, axis=1)
    return np.repeat(sq, weights)
