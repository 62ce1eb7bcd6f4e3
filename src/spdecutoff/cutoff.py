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
from .noise_sim import (
    NoiseSpec,
    _heat_sds,
    heat_convolution_sd,
    heat_gaussian_convolution_law,
    wave_gaussian_convolution_law,
)
from .semigroup import (
    _heat_flow,
    heat_apply,
    wave_apply,
    wave_subcritical_norm_sq,
)
from .spectral_core import (
    ModeCoefficients,
    WaveSpectrum,
    WaveState,
)
from .wasserstein import _w2_diag_sd, w2_diag_gaussian, w2_gaussian_2x2, w2_product


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


def profile_cell(leader, p: float, distance, constants: tuple[float, float],
                 moment: float):
    """The profile grid's cell at (rho, eps): the exact ``distance(t, eps)``
    at t = t_eps + rho, the profile, the two-term certificate built from the
    decay ``constants`` (C, rate) and the equilibrium ``moment``, and
    whether the certificate holds."""
    def cell(rho: float, eps: float):
        t = cutoff_time(eps, leader.rate) + rho
        dist = distance(t, eps)
        prof = profile(rho, leader, p)
        bound = error_bound(rho, eps, leader, *constants, moment)
        return dist, prof, bound, abs(dist - prof) <= bound

    return cell


# --------------------------------------------------------------------------
# Heat equation
# --------------------------------------------------------------------------


def renormalized_distance_heat(
    t: float, h: ModeCoefficients, eps: float, spec: NoiseSpec
) -> float:
    """Exact W2(X_t(h), equilibrium)/eps for Gaussian forcing.

    Both laws are mode-diagonal Gaussians whose covariances carry eps^2, so
    dividing by eps leaves W2( N(S(t)h/eps, V_t), N(0, V_inf) ); the mean is
    assembled in log space to survive cutoff-size times.

    Only live prefixes are built: past the datum's support the mean is 0,
    and past the unrelaxed modes sd_t equals sd_inf bit for bit, so the
    squares summed there are +0.0.  Each vector stops at a node of NumPy's
    summation tree that holds its live part, and both sums keep the bits of
    the full-length ones.
    """
    eps = _check_eps(eps)
    mean = _heat_flow(t, h, -math.log(eps), live=True)
    return _w2_diag_sd(mean, *_heat_sds(t, spec, live=True))


def heat_noise_gap(t: float, spec: NoiseSpec) -> float:
    """W2 between the Gaussian convolution at time t and its equilibrium --
    the exact width of the cutoff inequality.

    Each mode's sd_inf - sd_t is taken from the variance deficit,
    v_inf e^{-2 lambda t} / (sd_inf + sd_t), so it keeps its relative
    accuracy where the two standard deviations agree to many digits.
    """
    sd_t = heat_convolution_sd(t, spec)
    sd_sum = spec.heat_equilibrium_sd + sd_t
    deficit = spec.heat_equilibrium_var * np.exp(-2.0 * spec.system.lambdas * t)
    np.divide(deficit, sd_sum, out=deficit, where=sd_sum > 0)  # q_k = 0: deficit 0
    return math.hypot(*deficit)  # scaled: squares of deficits below 1e-154 underflow


def gaussian_abs_moment_surrogate(spec: NoiseSpec) -> float:
    """Deterministic stand-in for E|equilibrium| at unit noise: the root
    second moment sqrt(sum q_k / (2 lambda_k)), an upper bound by Jensen."""
    return float(math.sqrt(np.sum(spec.heat_equilibrium_var)))


def cutoff_inequality_gap(
    t: float, h: ModeCoefficients, eps: float, spec: NoiseSpec
) -> dict:
    """Exact-Gaussian check of the cutoff inequality at p = 2:

        | d_eps(t) - |S(t)h|/eps | <= W2(conv_t, conv_inf).

    The middle term uses shift linearity: W2(S(t)h/eps + U, U) = |S(t)h|/eps.
    """
    eps = _check_eps(eps)
    lhs = renormalized_distance_heat(t, h, eps, spec)
    mid = float(np.linalg.norm(heat_apply(t, h, log_scale=-math.log(eps)).values))
    bound = heat_noise_gap(t, spec)
    gap = abs(lhs - mid)
    return {"lhs": lhs, "mid": mid, "gap": gap, "bound": bound, "pass": bool(gap <= bound + 1e-12)}


# --------------------------------------------------------------------------
# Damped wave equation
# --------------------------------------------------------------------------


def wave_abs_moment_surrogate(spec: NoiseSpec, wsp: WaveSpectrum) -> float:
    """The wave counterpart of :func:`gaussian_abs_moment_surrogate`: the
    unit-noise equilibrium's root second moment in the graph norm."""
    covs = wave_gaussian_convolution_law(math.inf, spec, wsp)
    lam = wsp.system.lambdas
    return math.sqrt(float(np.sum((1.0 + lam) * covs[:, 0, 0] + covs[:, 1, 1])))


def wave_distance_and_gap(
    t: float, z: WaveState, eps: float, spec: NoiseSpec
) -> tuple[float, float]:
    """Exact W2(X_t(z), equilibrium)/eps for Gaussian velocity forcing, and
    the noise gap W2(conv_t, conv_inf), from one stacked W2 call on the two
    laws: the distance row (mean S(t)z/eps) comes before the gap row (mean
    0).  Position coordinates are weighted by 1 + lambda_k in the state norm.
    """
    eps = _check_eps(eps)
    wsp = z.spectrum
    moved = wave_apply(t, z, log_scale=-math.log(eps))
    mean = np.stack([moved.position, moved.velocity], axis=-1)
    c_t = wave_gaussian_convolution_law(t, spec, wsp)
    c_inf = wave_gaussian_convolution_law(math.inf, spec, wsp)
    per_mode = w2_gaussian_2x2(np.stack([mean, np.zeros_like(mean)]), c_t, np.zeros(2),
                               c_inf, position_weight=1.0 + wsp.system.lambdas)
    return w2_product(per_mode[0]), w2_product(per_mode[1])


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
        dist, slack = wave_distance_and_gap(t, z, eps, spec)
        center = math.exp(-0.5 * wsp.gamma * rho) * math.sqrt(wave_subcritical_norm_sq(t, z))
        return dist, center, slack, abs(dist - center) <= slack + 1e-10 * (1.0 + dist)

    return cell


def large_data_identity(
    t: float, h: ModeCoefficients, eps: float, spec: NoiseSpec
) -> tuple[float, float]:
    """Both sides of the exact rescaling identity

        W2(X_t^eps(h), eq^eps) / eps = W2(X_t^1(h/eps), eq^1).

    Returns (lhs, rhs); they agree to rounding because the Gaussian closed
    form scales exactly.
    """
    lhs = renormalized_distance_heat(t, h, eps, spec)
    mean = heat_apply(t, ModeCoefficients(h.system, h.values / eps)).values
    v_t = heat_gaussian_convolution_law(t, spec)
    rhs = w2_diag_gaussian(mean, v_t, np.zeros_like(mean), spec.heat_equilibrium_var)
    return lhs, rhs


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

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.rows)

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
