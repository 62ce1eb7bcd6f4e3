"""Dirichlet-Laplacian eigensystem on a box and mode-space state types.

The negative Dirichlet Laplacian on a product of intervals (0, L_1) x ... x
(0, L_d) has eigenvalues

    lambda(k_1, ..., k_d) = sum_i (k_i * pi / L_i)^2,   k_i = 1, 2, ...

with orthonormal eigenfunctions prod_i sqrt(2/L_i) * sin(k_i pi x_i / L_i).
Everything downstream works with coefficients against this basis, truncated
to a finite set of modes and sorted by increasing eigenvalue.

The damped wave system on the same box splits per mode into a 2x2 block
with characteristic roots of w^2 + gamma*w + lambda_k = 0; the roots and
the per-mode position/velocity state live here too so that the semigroup
module can act blockwise.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDomainError, ZeroInitialDatumError

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
# Damped wave: per-mode characteristic roots and position/velocity states.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveSpectrum:
    """Characteristic roots of u'' + gamma u' + lambda u = 0 per mode.

    With s_k^2 = (gamma/2 - sqrt(lambda_k)) (gamma/2 + sqrt(lambda_k)), the
    modes with s_k^2 >= 0 (over- or critically damped, s = 0 at critical
    damping) form a prefix of length ``n_over`` of the sorted modes.  They
    store s and the slow root r = -lambda / (gamma/2 + s) (Vieta's form of
    -gamma/2 + s, free of cancellation); the fast root is -gamma/2 - s.  The
    oscillatory modes store the angular frequency theta = sqrt(-s^2) of the
    root -gamma/2 + i theta.  Both come from :func:`damping_gap`.
    """

    gamma: float
    system: EigenSystem
    n_over: int
    root_slow: np.ndarray  # (n_over,)
    s: np.ndarray  # (n_over,)
    theta: np.ndarray  # (n - n_over,) for the oscillatory tail

    @property
    def n_modes(self) -> int:
        return self.system.n_modes

    @property
    def rate(self) -> float:
        """The slowest modal decay rate: -r of the first mode, else gamma/2."""
        return -float(self.root_slow[0]) if self.n_over else 0.5 * self.gamma


def damping_gap(lam, h, sqrt=np.sqrt):
    """(h - sqrt(lam), sqrt|h^2 - lam|) for a float or an array ``lam``, with
    ``sqrt`` math.sqrt or np.sqrt.  The residual lam - root^2 of the rounded
    root, exact through Dekker's split, corrects the difference, so both
    keep their relative accuracy next to critical damping h^2 = lam; the
    second is a product of two square roots and cannot overflow."""
    root = sqrt(lam)
    big = 134217729.0 * root
    hi = big - (big - root)
    lo = root - hi
    below = (h - root) - (((lam - hi * hi) - 2.0 * hi * lo) - lo * lo) / (2.0 * root)
    return below, sqrt(abs(below)) * sqrt(h + root)


def wave_spectrum(gamma: float, system: EigenSystem) -> WaveSpectrum:
    """Classify every mode of ``system`` under damping ``gamma`` > 0.

    Ties and critically damped modes are allowed: each mode is its own 2x2
    block.  A slowest decay rate that rounds to 0 or leaves some cutoff time
    infinite is rejected.
    """
    gamma = float(gamma)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise InvalidDomainError(f"damping must be positive, got {gamma}")
    lam = system.lambdas
    h = 0.5 * gamma
    below, gap = damping_gap(lam, h)  # gap: s, then theta
    n_over = int(np.count_nonzero(below >= 0.0))  # sorted lambdas: a prefix
    s = gap[:n_over]
    sp = WaveSpectrum(gamma=gamma, system=system, n_over=n_over,
                      root_slow=-lam[:n_over] / (h + s), s=s, theta=gap[n_over:])
    # |ln eps| < 745 for every double eps > 0: each |ln eps| / rate stays finite
    if not sp.rate > 745.0 / sys.float_info.max:
        raise InvalidDomainError(
            f"slowest decay rate {sp.rate} is too small: cutoff times overflow")
    return sp


@dataclass(frozen=True)
class WaveState:
    """Damped-wave state: per-mode position u_k and velocity w_k against the
    sorted eigenbasis.  The state norm is the graph norm

        |z|^2 = sum (1 + lambda_k) u_k^2 + w_k^2.
    """

    spectrum: WaveSpectrum
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.position, dtype=float)
        w = np.asarray(self.velocity, dtype=float)
        n = self.spectrum.n_modes
        if u.shape != (n,) or w.shape != (n,):
            raise InvalidDomainError("position/velocity length must match spectrum")
        object.__setattr__(self, "position", u)
        object.__setattr__(self, "velocity", w)

    @property
    def norm(self) -> float:
        lam = self.spectrum.system.lambdas
        u, w = self.position, self.velocity
        return float(np.sqrt(np.sum((1.0 + lam) * u * u + w * w)))

    def is_zero(self) -> bool:
        return not np.any(self.position) and not np.any(self.velocity)


def wave_decompose(spectrum: WaveSpectrum, position, velocity) -> WaveState:
    """The wave state with real (position, velocity) mode coefficients."""
    return WaveState(spectrum, position, velocity)
