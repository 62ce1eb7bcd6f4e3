"""Cutoff times, profiles, windows, and error certificates.

The small-noise system dX = A X dt + eps dL started at h reaches its
equilibrium abruptly: the renormalized distance

    d_eps(t) = W_p(X_t(h), equilibrium) / eps^{min(1,p)}

drops from +infinity to 0 around a deterministic time t_eps that scales like
|ln eps|.  This module computes t_eps, the limiting profile shape, the exact
renormalized distance in the Gaussian cases, and two-term error certificates
that dominate |distance - profile| on finite grids.

Heat and overdamped wave leaders share the fields ``rate``, ``shape_norm``,
``margin`` and ``amplitude``, so one cutoff time, profile and certificate
serve both equations.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, WrongCaseError
from .noise_sim import NoiseSpec, gaussian_law
from .semigroup import _heat_on_support, wave_apply
from .spectral_core import WaveState, root_sum_sq
# w2_gaussian_2x2 is bound here, unused, so that a tracer that wraps each
# module's names keeps covering the 2x2 closed form from this module.
from .wasserstein import bures, w2_gaussian_2x2  # noqa: F401


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise InvalidDomainError(f"noise amplitude must lie in (0, 1), got {eps}")
    return eps


def cutoff_time(eps: float, rate: float) -> float:
    """t_eps = |ln eps| / rate: ``leader.rate`` for a heat or overdamped wave
    leader, gamma / 2 for purely oscillatory damping."""
    eps = _check_eps(eps)
    return abs(math.log(eps)) / rate


def profile(rho: float, leader, p: float = 2.0) -> float:
    """Limiting profile (e^{-rho rate} |shape|)^{min(1,p)}; exact for
    p >= 1, where the shift identity removes the equilibrium law."""
    return (math.exp(-leader.rate * rho) * leader.shape_norm) ** min(1.0, p)


def error_bound(rho: float, eps: float, leader, c_star: float, rate: float,
                moment: float) -> float:
    """Two-term certificate dominating |d_eps(t_eps + rho) - profile(rho)|.

    It evaluates the two true inequalities at t = t_eps + rho:

        C e^{-rate t} m   +   e^{-rho leader.rate} e^{margin t} amplitude,

    the noise relaxation (decay constants C, rate and equilibrium moment m)
    plus the leader's own certificate, absent when margin is -inf.
    """
    t = cutoff_time(eps, leader.rate) + rho
    noise = c_star * moment * math.exp(-rate * t)
    if leader.margin == -math.inf:
        return noise
    return noise + (math.exp(-leader.rate * rho) * math.exp(leader.margin * t)
                    * leader.amplitude)


def distance_and_gap(t: float, x, eps: float, spec: NoiseSpec) -> tuple[float, float, float]:
    """The exact renormalized distance W2(X_t(x), equilibrium) / eps, the
    mean |S(t)x/eps| and the noise gap W2(conv_t, conv_inf) for Gaussian
    forcing, at p = 2, of a heat datum or (velocity forcing) a wave state
    ``x``.  Both laws are products of mode blocks whose covariances carry
    eps^2, so dividing by eps leaves W2(N(S(t)x/eps, A - D), N(0, A)) with
    the law of :func:`gaussian_law`, the mean assembled in log space: the
    distance is hypot(mean, gap), gap = |g|, g the blocks' Bures distances,
    with neither root overflowing or underflowing first.
    """
    log_scale = -math.log(_check_eps(eps))
    if isinstance(x, WaveState):
        mean = wave_apply(t, x, log_scale).norm
        law = gaussian_law(t, spec, x.spectrum)
    else:  # the flow on the datum's support only, not a copy of all modes
        mean = root_sum_sq(_heat_on_support(t, x, log_scale)[1])
        law = gaussian_law(t, spec)
        if law.deficit.size and law.deficit.max() < sys.float_info.min:
            gap = _subnormal_heat_gap(t, spec, law.deficit.size)
            return math.hypot(mean, gap), mean, gap
    gap = root_sum_sq(bures(law.eq[:len(law.deficit)], law.deficit, law.cov))
    return math.hypot(mean, gap), mean, gap


def _subnormal_heat_gap(t: float, spec: NoiseSpec, k: int) -> float:
    """The heat noise gap where every deficit D = A e^{-2 lambda t} (modes
    below ``k``) is subnormal or 0: there the double grid of 2^-1074 would
    cost each Bures term D / (sqrt A + sqrt(A - D)) up to 2^-1074 / D of
    relative accuracy, so the terms are taken in 40-digit decimals (exact
    products, correctly rounded exp and sqrt) and rounded once at the end."""
    import decimal  # here, not at the top: the path is rare, the import ~1 ms
    with decimal.localcontext(decimal.Context(prec=40)):
        total = decimal.Decimal(0)
        for a, lam in zip(spec.heat_equilibrium_var[:k].tolist(), spec.system.lambdas[:k].tolist()):
            if a > 0.0:
                a = decimal.Decimal(a)
                d = a * (-2 * decimal.Decimal(lam) * decimal.Decimal(t)).exp()
                total += (d / (a.sqrt() + (a - d).sqrt())) ** 2
        return float(total.sqrt())


def equilibrium_moment(spec: NoiseSpec, wspec=None) -> float:
    """Deterministic stand-in for E|equilibrium| at unit noise, heat or (with
    ``wspec``) wave: the root second moment sqrt(sum_k tr A_k) in the graph
    norm, an upper bound by Jensen."""
    eq = gaussian_law(math.inf, spec, wspec).eq
    return math.sqrt(float(np.sum(eq if eq.ndim == 1 else eq[:, 0, 0] + eq[:, 1, 1])))


def profile_cell(leader, p: float, x, spec: NoiseSpec, constants: tuple[float, float]):
    """The profile grid's cell at (rho, eps) for the datum or state ``x`` that
    ``leader`` leads: the exact distance at t = t_eps + rho, the profile and
    the two-term certificate built from the decay ``constants`` (C, rate)
    and the equilibrium moment."""
    moment = equilibrium_moment(spec, x.spectrum if isinstance(x, WaveState) else None)

    def cell(rho: float, eps: float):
        t = cutoff_time(eps, leader.rate) + rho
        return (distance_and_gap(t, x, eps, spec)[0], profile(rho, leader, p),
                error_bound(rho, eps, leader, *constants, moment))

    return cell


def window_cell(z: WaveState, spec: NoiseSpec):
    """The oscillatory-damping window's cell at (rho, eps), t = t_eps + rho.

    In the subcritical regime the renormalized flow never settles to a
    single shape: |e^{gamma t/2} S(t) z| oscillates between positive bounds.
    An overdamped mode or a zero state raises before any cell.  The cell
    returns the exact Gaussian distance d, the oscillating centre
    c = e^{-h rho} |v(t, z)|, h = gamma/2, and the noise gap plus a rounding
    budget.  In exact arithmetic the mean |S(t) z / eps| equals c and d lies
    in [mean, mean + gap]; the budget bounds |mean - c| as computed, and the
    roundings of d and of the pass rule.  Both flows share t, every
    (cos, sin / theta) pair and k = (h u + w, lambda u + h w), and scale
    them by D = e^{L - h t}, L = fl(-ln eps), and by exactly 1 (h t - h t
    is 0) times E = e^{-h rho}.  With u = 2^-53:

      * Scales.  t_eps = fl(L / h) and t = fl(t_eps + rho) put L - h t
        within u (L + h t) of -h rho; D's and E's exponents add
        u (h t + 2 h |rho|), each exp one ulp (2u), and
        |e^a - e^b| <= |a - b| max(e^a, e^b).
      * Moves.  A component c u + s k is within 3u (|c u| + |s k|) of its
        exact value at scale D (scale, product, sum), 2u at scale 1; with
        |c| <= 1, |s| <= (1 + u) / theta and Minkowski the moved states are
        within 3u D K and 2u K in the graph norm, K = |z| + |k / theta|.
      * Norms.  Each of the M terms (1 + lambda) u^2 + w^2 takes 4 roundings
        and NumPy's pairwise sum ceil(log2 M) + 17 more (as in
        :func:`~spdecutoff.wasserstein.homogeneity_check`); the root halves
        them and adds one: (ceil(log2 M) + 23) u / 2 on the direct path of
        ``WaveState.norm``, norms in [2^-500, DBL_MAX].
      * The product E |v|, d - c and gap + budget one rounding each, d's
        hypot one ulp.

    budget = u ((L + 2h (t + |rho|) + (ceil(log2 M) + 41) / 2) (d + c)
    + 3 (D + E) K) times 1 + 2^-40 for second-order terms and its rounding.
    """
    wsp = z.spectrum
    if wsp.n_over != 0:
        raise WrongCaseError("window diagnostics require subcritical damping")
    if z.is_zero():
        raise WrongCaseError("zero state has no oscillatory content")
    h, lam = 0.5 * wsp.gamma, wsp.system.lambdas
    k_sum = z.norm + WaveState(wsp, (h * z.position + z.velocity) / wsp.theta,
                               (lam * z.position + h * z.velocity) / wsp.theta).norm
    sums = 0.5 * ((wsp.n_modes - 1).bit_length() + 41)

    def cell(rho: float, eps: float):
        t = cutoff_time(eps, h) + rho
        dist, _, gap = distance_and_gap(t, z, eps, spec)
        scale = math.exp(-h * rho)
        center = scale * wave_apply(t, z, h * t).norm
        log_scale = -math.log(eps)
        budget = 2.0 ** -53 * ((log_scale + 2.0 * h * (t + abs(rho)) + sums) * (dist + center)
                               + 3.0 * (math.exp(-h * t + log_scale) + scale) * k_sum)
        return dist, center, gap + (1.0 + 2.0 ** -40) * budget

    return cell


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

CSV_HEADER = "case,p,eps,rho_or_delta,renormalized,profile,bound,pass"


def passes(renormalized: float, profile: float, bound: float,
           lower: float | None = None) -> bool:
    """The one pass rule of every row: -lower <= renormalized - profile <=
    bound, with ``lower`` = ``bound`` unless given; a NaN fails."""
    return bool(-float(bound if lower is None else lower) <= renormalized - profile <= bound)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class CutoffReport:
    """Grid results in the fixed CSV schema plus free-form JSON metadata."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, case: str, p: float, eps: float, rho_or_delta: float,
            renormalized: float, profile: float, bound: float, lower: float | None = None):
        """One row; its ``pass`` is :func:`passes` on the row's own values."""
        row = dict(case=case, p=float(p), eps=float(eps), rho_or_delta=float(rho_or_delta),
                   renormalized=float(renormalized), profile=float(profile), bound=float(bound))
        row["pass"] = passes(row["renormalized"], row["profile"], row["bound"], lower)
        self.rows.append(row)

    def add_grid(self, case: str, p: float, outer, eps_grid, cell) -> "CutoffReport":
        """One row per (x, eps) of ``outer`` x ``eps_grid``, x outermost:
        ``cell(x, eps)`` gives (renormalized, profile, bound)."""
        for x in outer:
            for eps in eps_grid:
                self.add(case, p, eps, x, *cell(x, eps))
        return self

    def to_csv(self) -> str:
        cols = ("p", "eps", "rho_or_delta", "renormalized", "profile", "bound")
        return "\n".join([CSV_HEADER] + [",".join([r["case"], *(_fmt(r[c]) for c in cols),
                                                   "true" if r["pass"] else "false"])
                                         for r in self.rows]) + "\n"

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "rows": self.rows}, indent=2, sort_keys=True)

    def write(self, csv_path, json_path=None):
        with open(csv_path, "w", newline="") as f:
            f.write(self.to_csv())
        if json_path is not None:
            with open(json_path, "w") as f:
                f.write(self.to_json())
