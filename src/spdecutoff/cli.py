"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment families:

    spectrum          dump the sorted box eigensystem as JSON
    heat-profile      heat profile + error certificate over a (rho, eps) grid
    wave-profile      overdamped wave profile over a (rho, eps) grid
    wave-window       oscillatory window diagnostics
    mult-profile      multiplicative Brownian profile along a schedule
    levy-check        multiplicative jump flow: pathwise + moment checks
    wasserstein-test  shift-linearity band / homogeneity rounding checks

Every run is driven by a JSON config (--config), an optional master seed
override (--seed) and an output directory (--out); --threads is accepted
for compatibility and ignored, every run is serial.  Outputs are a CSV in
the fixed schema plus a JSON sidecar; reruns with identical config and seed
are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._rng import stream
from .errors import (
    ConfigError,
    DegenerateNoiseError,
    GapOverflowError,
    InvalidDomainError,
    MarkOutOfRangeError,
    ScheduleRejectedError,
    SpdeCutoffError,
    VarianceOverflowError,
    WrongCaseError,
    ZeroInitialDatumError,
)
from .spectral_core import (
    EigenSystem,
    ModeCoefficients,
    build_box_eigensystem,
    heat_leading_data,
    wave_decompose,
    wave_spectrum,
)
from .semigroup import decay_constants, wave_overdamped_leader
from .noise_sim import JumpMark, NoiseSpec, sample_jump_realization
from .wasserstein import (SHIFT_ALPHA, homogeneity_check, shift_linearity_check,
                          sorted_normal_pair)
from .cutoff import (CutoffReport, cutoff_time, distance_and_gap, equilibrium_moment,
                     profile_cell, window_cell)
from .multiplicative import (
    MultBrownianSpec,
    MultLevySpec,
    MultSpec,
    levy_pathwise_check,
    levy_stochexp_batch,
    mult_profile,
    mult_second_moment_exact,
    schedule_values,
)

SCHEMA_VERSION = 1

# levy-check stores every jump of a pathwise path: cap t * (total jump rate),
# and replays paths only until this many jumps have been replayed
MAX_EXPECTED_JUMPS = 1e6
# Upper ends of the integer config fields: box modes (all axes together),
# wasserstein-test's n and levy-check's n_paths times the mode count.
MAX_BOX_MODES = 10 ** 6
MAX_SAMPLES = 10 ** 7
MAX_PATH_ENTRIES = 5 * 10 ** 7


# --------------------------------------------------------------------------
# Config loading and validation (JSON-pointer style error paths)
# --------------------------------------------------------------------------


def _get(cfg: dict, key: str, kind, pointer: str, default=None, required=True):
    if key not in cfg:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        return default
    val = cfg[key]
    if kind is float:
        return _number(val, f"{pointer}/{key}")
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kind is list and isinstance(val, list):
        return val
    if kind is str and isinstance(val, str):
        return val
    if kind is dict and isinstance(val, dict):
        return val
    raise ConfigError(f"{pointer}/{key}", f"expected {kind.__name__}")


def _number(val, pointer: str) -> float:
    # the comparison rejects NaN, the infinities and ints beyond float range
    if isinstance(val, (int, float)) and not isinstance(val, bool) \
            and abs(val) <= sys.float_info.max:
        return float(val)
    raise ConfigError(pointer, "expected a finite number")


def _numbers(raw: list, pointer: str) -> list[float]:
    # C-level passes first: lists can hold 27,000 entries
    if set(map(type, raw)) <= {float} and all(map(math.isfinite, raw)):
        return list(raw)
    return [_number(v, f"{pointer}/{i}") for i, v in enumerate(raw)]


def _float_list(cfg: dict, key: str, pointer: str, required=True, default=None):
    raw = _get(cfg, key, list, pointer, required=required, default=default)
    if raw is None:
        return None
    return _numbers(raw, f"{pointer}/{key}")


def _float_rows(cfg: dict, key: str, pointer: str) -> np.ndarray:
    """A list of numbers (one row) or a list of equal-length number lists."""
    raw = _get(cfg, key, list, pointer)
    if not raw or not isinstance(raw[0], list):
        return np.asarray(_numbers(raw, f"{pointer}/{key}"))
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw[0]):
            raise ConfigError(f"{pointer}/{key}/{i}",
                              f"expected a list of {len(raw[0])} numbers")
        rows.append(_numbers(row, f"{pointer}/{key}/{i}"))
    return np.asarray(rows)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError("/", f"invalid JSON: {e}") from e
    except OSError as e:
        raise ConfigError("/", f"cannot read the config: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be a JSON object")
    ver = _get(cfg, "schema_version", int, "")
    if ver != SCHEMA_VERSION:
        raise ConfigError("/schema_version", f"unsupported version {ver}")
    return cfg


def _build_system(cfg: dict) -> EigenSystem:
    if "lambdas" in cfg:
        lam = _float_list(cfg, "lambdas", "")
        try:
            return EigenSystem.from_lambdas(lam)
        except InvalidDomainError as e:
            raise ConfigError("/lambdas", str(e)) from e
    dims_raw = _get(cfg, "dims", list, "")
    if not dims_raw:
        raise ConfigError("/dims", "need at least one axis")
    dims = []
    total = 1
    for i, d in enumerate(dims_raw):
        if (not isinstance(d, list)) or len(d) != 2:
            raise ConfigError(f"/dims/{i}", "expected [side_length, mode_count]")
        length, modes = _number(d[0], f"/dims/{i}/0"), d[1]
        if length <= 0:
            raise ConfigError(f"/dims/{i}/0", f"side length must be positive, got {length}")
        if not isinstance(modes, int) or isinstance(modes, bool):
            raise ConfigError(f"/dims/{i}/1", "expected integer mode count")
        if modes < 1:
            raise ConfigError(f"/dims/{i}/1", f"mode count must be >= 1, got {modes}")
        total *= modes
        if total > MAX_BOX_MODES:
            raise ConfigError(f"/dims/{i}/1",
                              f"the box would have more than {MAX_BOX_MODES:,} modes")
        dims.append((length, modes))
    return build_box_eigensystem(dims)


def _coeffs(system: EigenSystem, raw, pointer: str) -> ModeCoefficients:
    vals = np.zeros(system.n_modes)
    if len(raw) > system.n_modes:
        raise ConfigError(pointer, "more coefficients than modes")
    vals[:len(raw)] = _numbers(raw, pointer)
    return ModeCoefficients(system, vals)


def _noise_spec(cfg: dict, system: EigenSystem) -> NoiseSpec:
    noise = _get(cfg, "noise", dict, "")
    q_raw = noise.get("gaussian_q", "inverse-square")
    if q_raw == "inverse-square":
        q = 1.0 / (np.arange(1, system.n_modes + 1) ** 2).astype(float)
    elif q_raw == "flat":
        q = np.ones(system.n_modes)
    elif isinstance(q_raw, list):
        q = np.asarray(_numbers(q_raw, "/noise/gaussian_q"))
        if q.size != system.n_modes:
            raise ConfigError("/noise/gaussian_q", "length must equal mode count")
        if np.any(q < 0):
            raise ConfigError(f"/noise/gaussian_q/{np.argmax(q < 0)}",
                              "gaussian intensities must be >= 0")
    else:
        raise ConfigError("/noise/gaussian_q", "expected list or preset name")
    return NoiseSpec(system=system, gaussian_q=q)


def _require_p2(cfg: dict, runs: str) -> float:
    """The optional order p, which the closed-form W2 runs need to be 2."""
    p = _get(cfg, "p", float, "", default=2.0, required=False)
    if p <= 0:
        raise ConfigError("/p", f"order p must be positive, got {p}")
    if p != 2.0:
        raise ConfigError("/p", f"{runs} runs support p = 2 only")
    return p


def _levy_marks(cfg: dict) -> list[JumpMark]:
    marks = []
    for i, m in enumerate(_get(cfg, "marks", list, "")):
        if not isinstance(m, dict):
            raise ConfigError(f"/marks/{i}", "expected object")
        values = np.asarray(_float_list(m, "values", f"/marks/{i}"))
        try:
            marks.append(JumpMark(values, _get(m, "rate", float, f"/marks/{i}")))
        except DegenerateNoiseError as e:
            raise ConfigError(f"/marks/{i}/rate", str(e)) from e
    return marks


def _eps_grid(cfg: dict) -> list[float]:
    grid = _float_list(cfg, "eps_grid", "")
    for i, e in enumerate(grid):
        if not (0.0 < e < 1.0):
            raise ConfigError(f"/eps_grid/{i}", f"eps must lie in (0, 1), got {e}")
    return grid


def _at(pointer: str, fn, *args):
    """``fn(*args)``; a wrong case or a zero datum that it raises exits 2 at ``pointer``."""
    try:
        return fn(*args)
    except (WrongCaseError, ZeroInitialDatumError) as e:
        raise ConfigError(pointer, str(e)) from e


# --------------------------------------------------------------------------
# Experiment drivers
# --------------------------------------------------------------------------


def run_heat_profile(cfg: dict, seed: int) -> CutoffReport:
    system = _build_system(cfg)
    h = _coeffs(system, _get(cfg, "initial", list, ""), "/initial")
    spec = _noise_spec(cfg, system)
    try:
        spec.heat_equilibrium_var
    except VarianceOverflowError as e:
        listed = isinstance(cfg["noise"].get("gaussian_q"), list)
        raise ConfigError("/noise/gaussian_q" + (f"/{e.index}" if listed else ""), str(e)) from e
    p = _require_p2(cfg, "exact heat profile")
    leading = _at("/initial", heat_leading_data, h)
    constants = decay_constants("heat", system=system)
    eps_grid = _eps_grid(cfg)
    rho_grid = _rho_grid(_float_list(cfg, "rho_grid", ""), eps_grid, leading.rate)
    delta_grid = _float_list(cfg, "delta_grid", "", required=False)
    for i, delta in enumerate(delta_grid or ()):
        if delta <= 0 or abs(delta - 1.0) <= 1e-12:
            raise ConfigError(f"/delta_grid/{i}",
                              f"delta must be positive and not the cutoff 1, got {delta}")
        for eps in eps_grid:
            if not math.isfinite(delta * cutoff_time(eps, leading.rate)):
                raise ConfigError(f"/delta_grid/{i}", f"delta * t_eps overflows at eps = "
                                  f"{eps:g}: the time must be finite")
    report = CutoffReport(meta={"lambda_lead": leading.lambda_lead,
                                "shape_norm": leading.shape_norm})
    report.add_grid("heat-additive", p, rho_grid, eps_grid,
                    profile_cell(leading, p, h, spec, constants))
    # simple cutoff at delta * t_eps: divergence for delta < 1, collapse for
    # delta > 1, against the Gaussian sandwich |S(t)h|/eps +- gap
    return _finite(report.add_grid("heat-simple", p, delta_grid or (), eps_grid, lambda d, eps:
                                   distance_and_gap(d * cutoff_time(eps, leading.rate), h, eps,
                                                    spec)), spec)


def _finite_equilibrium(spec: NoiseSpec, wspec=None):
    """Exit 2 at /noise/gaussian_q when the equilibrium second moment of the
    noise ``spec`` (heat, or the wave's with ``wspec``) is not finite."""
    if not math.isfinite(equilibrium_moment(spec, wspec)):
        raise ConfigError("/noise/gaussian_q", "the equilibrium second moment "
                          "sum_k tr A_k is not finite")


def _finite(report: CutoffReport, spec: NoiseSpec | None = None) -> CutoffReport:
    """``report``, or exit 2 before any file is written when a row's distance,
    profile or bound is not finite: at /noise/gaussian_q if the heat noise ``spec``'s, else /initial."""
    for r, key in ((r, k) for r in report.rows for k in ("renormalized", "profile", "bound")):
        if not math.isfinite(r[key]):
            if spec is not None:
                _finite_equilibrium(spec)
            raise ConfigError("/initial", f"the {key} at rho_or_delta = {r['rho_or_delta']:g}, "
                              f"eps = {r['eps']:g} is {r[key]}: the data are too large")
    return report


def _wave_setup(cfg: dict):
    """wave-profile's and wave-window's spectrum, initial state and noise."""
    system = _build_system(cfg)
    try:
        wsp = wave_spectrum(_get(cfg, "gamma", float, ""), system)
    except GapOverflowError as e:
        raise ConfigError("/lambdas" if "lambdas" in cfg else "/dims", str(e)) from e
    except InvalidDomainError as e:
        raise ConfigError("/gamma", str(e)) from e
    initial = _get(cfg, "initial", dict, "")
    u = _coeffs(system, _get(initial, "position", list, "/initial"), "/initial/position")
    w = _coeffs(system, _get(initial, "velocity", list, "/initial"), "/initial/velocity")
    return wsp, wave_decompose(wsp, u.values, w.values), _noise_spec(cfg, system)


def _check_rho_grid(rho_grid: list[float], cutoffs, rate: float,
                    what: str = "oscillation phase theta_k t") -> list[float]:
    """``rho_grid``, each rho checked at every (eps, t_eps, theta) of
    ``cutoffs``: t = t_eps + rho must be finite and >= 0, theta t finite
    (theta the largest rate that a row multiplies by t: an oscillation
    frequency theta_k, or 2 lambda_k of a log-space decay exponent), and
    the profile factor e^{-rate rho} finite: the rows take their
    exponentials and cosines."""
    for k, rho in enumerate(rho_grid):
        for eps, t_eps, theta in cutoffs:
            t = t_eps + rho
            if not math.isfinite(theta * t):  # 0 * inf is NaN: t is checked too
                raise ConfigError(f"/rho_grid/{k}", f"t_eps + rho = {t:g} at eps = {eps:g}: "
                                  f"it{f' and every {what}' if theta else ''} must be finite")
            if t < 0.0:
                raise ConfigError(f"/rho_grid/{k}", f"t_eps + rho = {t:g} at eps = {eps:g}: "
                                  "the time must be >= 0")
        try:
            math.exp(-rate * rho)
        except OverflowError:
            raise ConfigError(f"/rho_grid/{k}", f"the profile factor e^(-rate rho) overflows "
                              f"at rate = {rate:g}, rho = {rho:g}") from None
    return rho_grid


def _rho_grid(rho_grid: list[float], eps_grid: list[float], rate: float,
              theta: float = 0.0) -> list[float]:
    """:func:`_check_rho_grid` with t_eps = |ln eps| / ``rate``."""
    return _check_rho_grid(rho_grid, [(eps, cutoff_time(eps, rate), theta) for eps in eps_grid],
                           rate)


def run_wave_profile(cfg: dict, seed: int) -> CutoffReport:
    wsp, z, spec = _wave_setup(cfg)
    p = _require_p2(cfg, "exact wave profile")
    leader = _at("/initial" if wsp.n_over else "/gamma", wave_overdamped_leader, z)
    constants = decay_constants("wave", wave_spec=wsp)
    eps_grid = _eps_grid(cfg)
    rho_grid = _rho_grid(_float_list(cfg, "rho_grid", ""), eps_grid, leader.rate,
                         float(wsp.theta.max(initial=0.0)))
    _finite_equilibrium(spec, wsp)
    report = CutoffReport(meta={"rate": leader.rate, "shape_norm": leader.shape_norm,
                                "leader_case": leader.case})
    return _finite(report.add_grid("wave-overdamped", p, rho_grid, eps_grid,
                                   profile_cell(leader, p, z, spec, constants)))


def run_wave_window(cfg: dict, seed: int) -> CutoffReport:
    wsp, z, spec = _wave_setup(cfg)
    p = _require_p2(cfg, "wave window")
    eps_grid = _eps_grid(cfg)
    rho_grid = _float_list(cfg, "rho_grid", "")
    cell = _at("/gamma" if wsp.n_over else "/initial", window_cell, z, spec)  # before any rho
    _rho_grid(rho_grid, eps_grid, 0.5 * wsp.gamma, float(wsp.theta.max(initial=0.0)))
    _finite_equilibrium(spec, wsp)
    return _finite(CutoffReport(meta={"gamma": wsp.gamma}).add_grid(
        "wave-window", p, rho_grid, eps_grid, cell))


def _mult_specs(cfg: dict, system: EigenSystem, kind: str, eps_grid: list[float]):
    """The multiplicative noise spec for each (already checked) eps; a spec
    error points at ``g``, or at ``eta`` or one of the ``marks``."""
    if kind == "brownian":
        make = functools.partial(MultBrownianSpec, system, _float_rows(cfg, "g", ""))
    elif kind == "levy":
        eta = _get(cfg, "eta", float, "", default=0.05, required=False)
        make = functools.partial(MultLevySpec, system, _levy_marks(cfg), eta)
    else:
        raise ConfigError("/noise_kind", f"unknown noise kind {kind!r}")
    try:
        return [make(eps) for eps in eps_grid]
    except MarkOutOfRangeError as e:
        raise ConfigError(f"/marks/{e.index}", str(e)) from e
    except DegenerateNoiseError as e:
        raise ConfigError("/g" if kind == "brownian" else "/marks", str(e)) from e
    except InvalidDomainError as e:
        raise ConfigError("/eta", str(e)) from e


def _check_decay(spec: MultSpec, h: ModeCoefficients, pointer: str):
    """Exit 2 at ``pointer`` unless E|X_t|^2 decays on every mode with data:
    each needs a negative second-moment drift -lambda + eps^2 v / 2."""
    drift = spec.second_moment_drift
    grows = np.flatnonzero((drift >= 0.0) & (h.values != 0.0))
    if grows.size:
        j = grows[0]
        raise ConfigError(pointer, f"mode {j}: the second-moment drift -lambda + eps^2 v / 2 = "
                          f"{drift[j]:g} at eps = {spec.eps:g} is not negative: "
                          "E|X_t|^2 does not decay")


def run_mult_profile(cfg: dict, seed: int) -> CutoffReport:
    system = _build_system(cfg)
    h = _coeffs(system, _get(cfg, "initial", list, ""), "/initial")
    if not math.isfinite(h.norm):  # every rate_ratio would read 0
        raise ConfigError("/initial", "the norm |h| overflows: the data are too large")
    eps_grid = _eps_grid(cfg)
    if not eps_grid:
        raise ConfigError("/eps_grid", "the schedule needs a finest grid point")
    rho_grid = _float_list(cfg, "rho_grid", "")
    schedule = _get(cfg, "schedule", str, "", default="eps", required=False)
    try:
        a_desc = schedule_values(schedule, eps_grid)  # a(eps) for eps descending
    except ScheduleRejectedError as e:
        raise ConfigError("/schedule", str(e)) from e
    p = 2.0
    report = CutoffReport()
    kind = _get(cfg, "noise_kind", str, "", default="brownian", required=False)
    specs = _mult_specs(cfg, system, kind, eps_grid)
    # the drift grows with eps (v >= 0): the largest eps decides
    _check_decay(max(specs, key=lambda s: s.eps), h, "/g" if kind == "brownian" else "/marks")
    l1 = _at("/initial", heat_leading_data, h).lambda_lead  # a zero datum exits 2 here
    if rho_grid:  # mult_profile's times: t_eps = |ln a(eps)| / lambda_1
        two_lam = 2.0 * float(system.lambdas[-1])
        _check_rho_grid(rho_grid, [(e, abs(math.log(a)) / l1, two_lam) for e, a in
                                   zip(sorted(eps_grid, reverse=True), a_desc)],
                        l1, "decay exponent 2 lambda_k t")
    report.meta = {"schedule": schedule, "noise_kind": kind}
    for rho in rho_grid:
        rows = mult_profile(rho, h, specs, schedule)
        # certificate constant fixed at the coarsest grid point
        k0 = rows[0]["rate_ratio"]
        for row in rows:
            bound = k0 * (row["residual"] / row["rate_ratio"] if row["rate_ratio"] > 0
                          else 0.0) + 1e-15
            report.add(f"mult-{kind}", p, row["eps"], rho, row["distance"], row["profile"], bound)
    return _finite(report)


def run_levy_check(cfg: dict, seed: int) -> CutoffReport:
    system = _build_system(cfg)
    h = _coeffs(system, _get(cfg, "initial", list, ""), "/initial")
    eps = _get(cfg, "eps", float, "")
    if not (0.0 < eps < 1.0):
        raise ConfigError("/eps", f"eps must lie in (0, 1), got {eps}")
    t = _get(cfg, "t", float, "")
    if t < 0.0:
        raise ConfigError("/t", f"time must be >= 0, got {t}")
    n_paths = _get(cfg, "n_paths", int, "", default=1000, required=False)
    if n_paths < 2:
        raise ConfigError("/n_paths", f"need at least 2 paths, got {n_paths}")
    if n_paths * system.n_modes > MAX_PATH_ENTRIES:
        raise ConfigError("/n_paths", f"n_paths times the {system.n_modes} modes "
                                      f"exceeds {MAX_PATH_ENTRIES:,}")
    (spec,) = _mult_specs(cfg, system, "levy", [eps])
    if t * sum(m.rate for m in spec.marks) > MAX_EXPECTED_JUMPS:
        raise ConfigError("/t", f"expected jumps per path t * rate exceed {MAX_EXPECTED_JUMPS:g}")
    with np.errstate(over="ignore"):
        if not math.isfinite(float(np.sum(h.values ** 2))):
            raise ConfigError("/initial", "the squared norm sum_k h_k^2 overflows: "
                                          "the data are too large")
    _check_decay(spec, h, "/marks")

    # at most 1,000 paths, one batch from stream(seed, 0), cut at MAX_EXPECTED_JUMPS
    paths = sample_jump_realization(t, spec.marks, stream(seed, 0), min(n_paths, 1000),
                                    MAX_EXPECTED_JUMPS)
    worst, underflow = levy_pathwise_check(t, h, spec, paths)

    sq = levy_stochexp_batch(t, h, spec, stream(seed, 1), n_paths)
    mc = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(len(sq)))
    exact = mult_second_moment_exact(t, h, spec)

    report = CutoffReport(meta={
        "pathwise_worst_relative": worst, "pathwise_paths": paths.counts.size,
        "pathwise_underflow_paths": underflow, "mc_second_moment": mc, "mc_se": se,
        "exact_second_moment": exact})
    # a path whose oracle underflowed, or an exact moment of 0 from h != 0,
    # leaves nothing to compare: bound -1, an empty interval, fails the row
    report.add("levy-pathwise", 2.0, eps, 0.0, worst, 0.0, -1.0 if underflow else 1e-10)
    report.add("levy-moment", 2.0, eps, 0.0, mc, exact,
               4 * se if exact > 0.0 or not np.any(h.values) else -1.0)
    return report


def run_wasserstein_test(cfg: dict, seed: int) -> CutoffReport:
    u = _get(cfg, "u", float, "", default=2.0, required=False)
    n = _get(cfg, "n", int, "", default=100_000, required=False)
    if n < 2:
        raise ConfigError("/n", f"need at least 2 samples, got {n}")
    if n > MAX_SAMPLES:
        raise ConfigError("/n", f"at most {MAX_SAMPLES:,} samples, got {n}")
    p_list = _float_list(cfg, "p_grid", "", required=False, default=[2.0, 0.5])
    for i, p in enumerate(p_list):
        if p <= 0:
            raise ConfigError(f"/p_grid/{i}", "order p must be positive")
    xs, ys = sorted_normal_pair(n, stream(seed, 7, 0))  # for every p and both row kinds
    report = CutoffReport(meta={"shift_alpha": SHIFT_ALPHA, "shift_lower": []})
    for i, p in enumerate(p_list):
        res = shift_linearity_check(u, p, xs, ys)
        hom = homogeneity_check(3.0, p, xs, ys)
        if not all(map(math.isfinite, (hom["estimate"], hom["budget"]))):
            raise ConfigError(f"/p_grid/{i}", f"the homogeneity row at p = {p:g} is not "
                              "finite: a p-th power of the samples overflows")
        # the homogeneity samples do not see u, so u is what overflows here
        if not all(map(math.isfinite, (res["estimate"], res["target"], res["bound"]))):
            raise ConfigError("/u", f"the shift-linearity row at p = {p:g}, u = {u:g} is not "
                              "finite: a p-th power of u + x - y overflows")
        report.add("shift-linearity", p, 0.5, 0.0, res["estimate"], res["target"],
                   res["bound"], res["target"] - res["lower"])
        report.add("homogeneity", p, 0.5, 0.0, hom["estimate"], 0.0, hom["budget"])
        report.meta["shift_lower"].append(res["lower"])
    return report


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_RUNNERS = {
    "heat-profile": run_heat_profile,
    "wave-profile": run_wave_profile,
    "wave-window": run_wave_window,
    "mult-profile": run_mult_profile,
    "levy-check": run_levy_check,
    "wasserstein-test": run_wasserstein_test,
}


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spdecutoff",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    spect = sub.add_parser("spectrum", help="dump the sorted box eigensystem")
    spect.add_argument("--config", required=True)
    spect.add_argument("--out", default=None)

    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=_seed, default=None,
                        help="override master_seed from the config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; runs are serial")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "spectrum":
            system = _build_system(cfg)
            text = system.to_json()
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text + "\n")
            else:
                print(text)
            return 0
        seed = args.seed
        if seed is None:
            seed = _get(cfg, "master_seed", int, "", default=0, required=False)
            if seed < 0:
                raise ConfigError("/master_seed", f"seed must be >= 0, got {seed}")
        # an overflow shows in the rows or in an exit-2 message, not as a
        # NumPy warning
        with np.errstate(over="ignore"):
            report = _RUNNERS[args.command](cfg, seed)
        report.meta.update(experiment=args.command, schema_version=SCHEMA_VERSION,
                           seed=seed, version=__version__)
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, args.command.replace("-", "_"))
        report.write(base + ".csv", base + ".json")
        n_fail = sum(0 if r["pass"] else 1 for r in report.rows)
        print(f"{args.command}: {len(report.rows)} rows, {n_fail} failing "
              f"-> {base}.csv")
        return 0 if n_fail == 0 else 1
    except SpdeCutoffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
