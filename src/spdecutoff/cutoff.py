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


def distance_and_gap(t: float, x, eps: float, spec: NoiseSpec) -> tuple[float, float]:
    """The exact renormalized distance W2(X_t(x), equilibrium) / eps and the
    noise gap W2(conv_t, conv_inf) for Gaussian forcing, at p = 2, of a heat
    datum or (velocity forcing) a wave state ``x``.  Both laws are products
    of mode blocks whose covariances carry eps^2, so dividing by eps leaves
    W2(N(S(t)x/eps, A - D), N(0, A)) with the law of :func:`gaussian_law`,
    the mean assembled in log space: (|(S(t)x/eps, g)|, |g|), g the blocks'
    Bures distances, with neither root overflowing or underflowing first.
    """
    log_scale = -math.log(_check_eps(eps))
    if isinstance(x, WaveState):
        mean = wave_apply(t, x, log_scale).norm
        law = gaussian_law(t, spec, x.spectrum)
    else:  # the flow on the datum's support only, not a copy of all modes
        mean = root_sum_sq(_heat_on_support(t, x, log_scale)[1])
        law = gaussian_law(t, spec)
    gap = root_sum_sq(bures(law.eq[:len(law.deficit)], law.deficit, law.cov))
    return math.hypot(mean, gap), gap


def equilibrium_moment(spec: NoiseSpec, wspec=None) -> float:
    """Deterministic stand-in for E|equilibrium| at unit noise, heat or (with
    ``wspec``) wave: the root second moment sqrt(sum_k tr A_k) in the graph
    norm, an upper bound by Jensen."""
    eq = gaussian_law(math.inf, spec, wspec).eq
    return math.sqrt(float(np.sum(eq if eq.ndim == 1 else eq[:, 0, 0] + eq[:, 1, 1])))


def profile_cell(leader, p: float, x, spec: NoiseSpec, constants: tuple[float, float]):
    """The profile grid's cell at (rho, eps) for the datum or state ``x`` that
    ``leader`` leads: the exact distance at t = t_eps + rho, the profile, the
    two-term certificate built from the decay ``constants`` (C, rate) and
    the equilibrium moment, and whether the certificate holds."""
    moment = equilibrium_moment(spec, x.spectrum if isinstance(x, WaveState) else None)

    def cell(rho: float, eps: float):
        t = cutoff_time(eps, leader.rate) + rho
        dist = distance_and_gap(t, x, eps, spec)[0]
        prof = profile(rho, leader, p)
        bound = error_bound(rho, eps, leader, *constants, moment)
        return dist, prof, bound, abs(dist - prof) <= bound

    return cell


def window_cell(z: WaveState, spec: NoiseSpec):
    """The oscillatory-damping window's cell at (rho, eps), t = t_eps + rho.

    In the subcritical regime the renormalized flow never settles to a
    single shape: |e^{gamma t/2} S(t) z| oscillates between positive bounds.
    The cell returns the exact Gaussian distance, the oscillating center
    e^{-gamma rho / 2} |v(t_eps + rho, z)|, the noise relaxation gap and
    the rigorous check |distance - center| <= gap.  An overdamped mode or a
    zero state raises before any cell is evaluated.
    """
    wsp = z.spectrum
    if wsp.n_over != 0:
        raise WrongCaseError("window diagnostics require subcritical damping")
    if z.is_zero():
        raise WrongCaseError("zero state has no oscillatory content")

    def cell(rho: float, eps: float):
        t = cutoff_time(eps, 0.5 * wsp.gamma) + rho
        dist, slack = distance_and_gap(t, z, eps, spec)
        center = math.exp(-0.5 * wsp.gamma * rho) * wave_apply(t, z, 0.5 * wsp.gamma * t).norm
        return dist, center, slack, abs(dist - center) <= slack + 1e-10 * (1.0 + dist)

    return cell


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

CSV_HEADER = "case,p,eps,rho_or_delta,renormalized,profile,bound,pass"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class CutoffReport:
    """Grid results in the fixed CSV schema plus free-form JSON metadata."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, case: str, p: float, eps: float, rho_or_delta: float,
            renormalized: float, profile: float, bound: float, ok: bool):
        self.rows.append(
            {
                "case": case,
                "p": float(p),
                "eps": float(eps),
                "rho_or_delta": float(rho_or_delta),
                "renormalized": float(renormalized),
                "profile": float(profile),
                "bound": float(bound),
                "pass": bool(ok),
            }
        )

    def add_grid(self, case: str, p: float, outer, eps_grid, cell) -> "CutoffReport":
        """One row per (x, eps) of ``outer`` x ``eps_grid``, x outermost:
        ``cell(x, eps)`` gives (renormalized, profile, bound, pass)."""
        for x in outer:
            for eps in eps_grid:
                self.add(case, p, eps, x, *cell(x, eps))
        return self

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r["case"],
                        _fmt(r["p"]),
                        _fmt(r["eps"]),
                        _fmt(r["rho_or_delta"]),
                        _fmt(r["renormalized"]),
                        _fmt(r["profile"]),
                        _fmt(r["bound"]),
                        "true" if r["pass"] else "false",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "rows": self.rows}, indent=2, sort_keys=True)

    def write(self, csv_path, json_path=None):
        with open(csv_path, "w", newline="") as f:
            f.write(self.to_csv())
        if json_path is not None:
            with open(json_path, "w") as f:
                f.write(self.to_json())
