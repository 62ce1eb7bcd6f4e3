"""Dirichlet-Laplacian eigensystem on a box and mode-space state types.

The negative Dirichlet Laplacian on a product of intervals (0, L_1) x ... x
(0, L_d) has eigenvalues

    lambda(k_1, ..., k_d) = sum_i (k_i * pi / L_i)^2,   k_i = 1, 2, ...

with orthonormal eigenfunctions prod_i sqrt(2/L_i) * sin(k_i pi x_i / L_i).
Everything downstream works with coefficients against this basis, truncated
to a finite set of modes and sorted by increasing eigenvalue.

The damped wave system on the same box diagonalizes per mode into a 2x2
block with characteristic roots of w^2 + gamma*w + lambda_k = 0; the
spectrum and per-mode decomposition live here too so that the semigroup
module can act diagonally.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidDomainError,
    ResonanceError,
    ZeroInitialDatumError,
)

# Relative tolerance used to decide whether two eigenvalues tie.  Eigenvalues
# of a rational box are exact sums of floating squares (accumulated with
# fsum), so genuine ties agree to the last bit; this tolerance only guards
# against benign rounding in user-supplied spectra.
TIE_RTOL = 1e-12


def _ties(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_RTOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class EigenSystem:
    """Truncated Dirichlet spectrum on a box, sorted ascending.

    ``dims`` is a tuple of (side_length, mode_count) pairs, or None when the
    spectrum was supplied directly (no geometry then).
    ``index_map[i]`` is the 1-based multi-index of the i-th sorted mode.
    """

    dims: tuple[tuple[float, int], ...] | None
    lambdas: np.ndarray
    index_map: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidDomainError("eigensystem needs at least one mode")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise InvalidDomainError("eigenvalues must be positive and finite")
        if np.any(np.diff(lam) < 0):
            raise InvalidDomainError("eigenvalues must be sorted ascending")

    @property
    def n_modes(self) -> int:
        return int(self.lambdas.size)

    @classmethod
    def from_lambdas(cls, lambdas) -> "EigenSystem":
        """Wrap an explicit positive nondecreasing spectrum (no geometry)."""
        lam = np.sort(np.asarray(lambdas, dtype=float))
        idx = tuple((i + 1,) for i in range(lam.size))
        return cls(dims=None, lambdas=lam, index_map=idx)

    def tie_groups(self) -> list[list[int]]:
        """Indices of modes grouped by equal eigenvalue."""
        groups: list[list[int]] = []
        for i, lam in enumerate(self.lambdas):
            if groups and _ties(self.lambdas[groups[-1][0]], lam):
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": None if self.dims is None else [list(d) for d in self.dims],
                "lambdas": [float(x) for x in self.lambdas],
                "index_map": [list(k) for k in self.index_map],
            }
        )


def build_box_eigensystem(dims) -> EigenSystem:
    """Enumerate, sort, and index the truncated box spectrum.

    ``dims``: iterable of (side_length, modes_per_axis).  Sorting is by
    (eigenvalue, lexicographic multi-index); equal eigenvalue multisets are
    summed with fsum so that symmetric ties compare exactly equal.
    """
    dims = tuple((float(L), int(m)) for L, m in dims)
    if not dims:
        raise InvalidDomainError("need at least one axis")
    for L, m in dims:
        if not (L > 0 and math.isfinite(L)):
            raise InvalidDomainError(f"side length must be positive, got {L}")
        if m < 1:
            raise InvalidDomainError(f"mode count must be >= 1, got {m}")
    coeffs = [(math.pi / L) ** 2 for L, _ in dims]
    # axes[i][j] is k_i of the j-th multi-index in lexicographic order, so a
    # stable sort by eigenvalue breaks ties by multi-index
    grids = np.meshgrid(*(np.arange(1, m + 1) for _, m in dims), indexing="ij")
    axes = [g.ravel() for g in grids]
    terms = [((k * k).astype(float) * c).tolist() for k, c in zip(axes, coeffs)]
    lam = np.fromiter(map(math.fsum, zip(*terms)), float, axes[0].size)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    idx = tuple(zip(*(k[order].tolist() for k in axes)))
    return EigenSystem(dims=dims, lambdas=lam, index_map=idx)


@dataclass(frozen=True)
class ModeCoefficients:
    """A vector of coefficients against the sorted eigenbasis."""

    system: EigenSystem
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.system.n_modes,):
            raise InvalidDomainError(
                f"expected {self.system.n_modes} coefficients, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def nonzero_indices(self) -> np.ndarray:
        return np.flatnonzero(self.values != 0.0)


@dataclass(frozen=True)
class HeatLeadingData:
    """Leading spectral content of a nonzero initial datum.

    ``support``: indices with nonzero coefficient; ``first``: smallest such
    index; ``leaders``: all supported indices tied with the first eigenvalue;
    ``next_index``: smallest supported index beyond the leaders (None if the
    datum is concentrated on the leading eigenvalue).  ``v`` is the
    projection onto the leaders, the large-time shape of the renormalized
    flow.  As a leader of the cutoff module (like the overdamped wave
    leader) it decays at ``rate`` = lambda_lead towards ``shape_norm`` = |v|,
    with error at most ``amplitude`` = |h| times e^{margin t}.
    """

    support: tuple[int, ...]
    first: int
    leaders: tuple[int, ...]
    next_index: int | None
    v: ModeCoefficients
    shape_norm: float
    amplitude: float

    @property
    def lambda_lead(self) -> float:
        return float(self.v.system.lambdas[self.first])

    rate = lambda_lead

    @property
    def lambda_next(self) -> float | None:
        if self.next_index is None:
            return None
        return float(self.v.system.lambdas[self.next_index])

    @property
    def margin(self) -> float:
        """lambda_lead - lambda_next, or -inf for a datum on the leaders alone."""
        l2 = self.lambda_next
        return -math.inf if l2 is None else self.lambda_lead - l2


def heat_leading_data(h: ModeCoefficients) -> HeatLeadingData:
    """Identify the slowest supported eigenvalue group of ``h``."""
    support = h.nonzero_indices()
    if support.size == 0:
        raise ZeroInitialDatumError("initial datum is identically zero")
    lam = h.system.lambdas
    first = int(support[0])
    leaders = tuple(int(i) for i in support if _ties(lam[i], lam[first]))
    rest = [int(i) for i in support if int(i) not in leaders]
    next_index = min(rest) if rest else None
    values = np.zeros_like(h.values)
    for i in leaders:
        values[i] = h.values[i]
    v = ModeCoefficients(h.system, values)
    return HeatLeadingData(
        support=tuple(int(i) for i in support),
        first=first,
        leaders=leaders,
        next_index=next_index,
        v=v,
        shape_norm=v.norm,
        amplitude=h.norm,
    )


# --------------------------------------------------------------------------
# Damped wave: per-mode characteristic roots and modal decomposition.
# --------------------------------------------------------------------------

# Relative tolerance for the resonance guard gamma^2 == 4*lambda.
RESONANCE_RTOL = 1e-12


@dataclass(frozen=True)
class WaveSpectrum:
    """Characteristic roots of u'' + gamma u' + lambda u = 0 per mode.

    Modes are sorted by eigenvalue, so the overdamped ones (gamma^2 >
    4*lambda) form a prefix of length ``n_over``.  For overdamped modes the
    two real roots are stored as (slow, fast) = (-g/2 + s, -g/2 - s) with
    s = sqrt(gamma^2 - 4 lambda)/2; oscillatory modes store the angular
    frequency theta = sqrt(4 lambda - gamma^2)/2 of the root -g/2 + i theta.
    """

    gamma: float
    system: EigenSystem
    n_over: int
    root_slow: np.ndarray  # (n_over,)
    root_fast: np.ndarray  # (n_over,)
    theta: np.ndarray  # (n - n_over,) for the oscillatory tail

    @property
    def n_modes(self) -> int:
        return self.system.n_modes

    @property
    def n_osc(self) -> int:
        return self.n_modes - self.n_over

    def omega_osc(self) -> np.ndarray:
        """Complex root with positive imaginary part for oscillatory modes."""
        return -0.5 * self.gamma + 1j * self.theta

    def lambdas_over(self) -> np.ndarray:
        return self.system.lambdas[: self.n_over]

    def lambdas_osc(self) -> np.ndarray:
        return self.system.lambdas[self.n_over:]


def wave_spectrum(gamma: float, system: EigenSystem) -> WaveSpectrum:
    """Classify every mode of ``system`` under damping ``gamma``.

    Requires gamma > 0, a simple spectrum, and no resonance gamma^2 ==
    4*lambda_k (the mode block would be a Jordan cell).
    """
    gamma = float(gamma)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise InvalidDomainError(f"damping must be positive, got {gamma}")
    lam = system.lambdas
    if any(len(g) > 1 for g in system.tie_groups()):
        raise DegenerateSpectrumError(
            "wave decomposition needs a simple spectrum; box has eigenvalue ties"
        )
    g2 = gamma * gamma
    for lk in lam:
        if abs(g2 - 4.0 * lk) <= RESONANCE_RTOL * max(g2, 4.0 * lk):
            raise ResonanceError(
                f"gamma^2 == 4*lambda ({g2} vs {4.0 * lk}): critically damped mode"
            )
    over = g2 > 4.0 * lam
    n_over = int(np.count_nonzero(over))
    # sorted lambdas make the overdamped set a prefix
    assert bool(np.all(over[:n_over])) and not np.any(over[n_over:])
    lam_o = lam[:n_over]
    disc = np.sqrt(g2 - 4.0 * lam_o) / 2.0
    root_slow = -0.5 * gamma + disc
    root_fast = -0.5 * gamma - disc
    theta = np.sqrt(4.0 * lam[n_over:] - g2) / 2.0
    # residual check: the roots must solve w^2 + gamma w + lambda = 0
    for r, lk in zip(np.concatenate([root_slow, root_fast]), np.concatenate([lam_o, lam_o])):
        assert abs(r * r + gamma * r + lk) <= 1e-10 * max(1.0, lk)
    return WaveSpectrum(
        gamma=gamma,
        system=system,
        n_over=n_over,
        root_slow=root_slow,
        root_fast=root_fast,
        theta=theta,
    )


@dataclass(frozen=True)
class WaveState:
    """Damped-wave state in modal coordinates.

    Real overdamped coordinates ``a_slow``, ``a_fast`` (length n_over) and
    one complex coordinate ``b`` per oscillatory mode (the conjugate partner
    is implicit because position/velocity data are real).  Reconstruction:

        u_k = a_slow + a_fast            w_k = r_slow a_slow + r_fast a_fast
        u_k = 2 Re b                     w_k = 2 Re(b omega)

    The state norm is the graph norm |z|^2 = sum (1+lambda_k) u_k^2 + w_k^2.
    """

    spectrum: WaveSpectrum
    a_slow: np.ndarray
    a_fast: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        sp = self.spectrum
        a_s = np.asarray(self.a_slow, dtype=float)
        a_f = np.asarray(self.a_fast, dtype=float)
        bb = np.asarray(self.b, dtype=complex)
        if a_s.shape != (sp.n_over,) or a_f.shape != (sp.n_over,) or bb.shape != (sp.n_osc,):
            raise InvalidDomainError("modal coordinate shapes do not match spectrum")
        object.__setattr__(self, "a_slow", a_s)
        object.__setattr__(self, "a_fast", a_f)
        object.__setattr__(self, "b", bb)

    def position_values(self) -> np.ndarray:
        u = np.empty(self.spectrum.n_modes)
        u[: self.spectrum.n_over] = self.a_slow + self.a_fast
        u[self.spectrum.n_over:] = 2.0 * self.b.real
        return u

    def velocity_values(self) -> np.ndarray:
        sp = self.spectrum
        w = np.empty(sp.n_modes)
        w[: sp.n_over] = sp.root_slow * self.a_slow + sp.root_fast * self.a_fast
        w[sp.n_over:] = 2.0 * (self.b * sp.omega_osc()).real
        return w

    @property
    def norm(self) -> float:
        lam = self.spectrum.system.lambdas
        u = self.position_values()
        w = self.velocity_values()
        return float(np.sqrt(np.sum((1.0 + lam) * u * u + w * w)))

    def is_zero(self) -> bool:
        return (
            not np.any(self.a_slow)
            and not np.any(self.a_fast)
            and not np.any(self.b)
        )


def wave_decompose(spectrum: WaveSpectrum, position, velocity) -> WaveState:
    """Split real (position, velocity) coefficients into modal coordinates.

    Per overdamped mode, (u, w) = a_slow (1, r_s) + a_fast (1, r_f) is a 2x2
    linear solve; per oscillatory mode b = (w - conj(omega) u) / (2i theta).
    """
    u = np.asarray(position, dtype=float)
    w = np.asarray(velocity, dtype=float)
    n = spectrum.n_modes
    if u.shape != (n,) or w.shape != (n,):
        raise InvalidDomainError("position/velocity length must match spectrum")
    no = spectrum.n_over
    rs, rf = spectrum.root_slow, spectrum.root_fast
    a_slow = (w[:no] - rf * u[:no]) / (rs - rf)
    a_fast = (w[:no] - rs * u[:no]) / (rf - rs)
    omega = spectrum.omega_osc()
    b = (w[no:] - np.conj(omega) * u[no:]) / (omega - np.conj(omega))
    return WaveState(spectrum=spectrum, a_slow=a_slow, a_fast=a_fast, b=b)
