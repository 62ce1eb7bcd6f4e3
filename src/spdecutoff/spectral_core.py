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

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GapOverflowError, InvalidDomainError, ZeroInitialDatumError

@dataclass(frozen=True)
class EigenSystem:
    """Truncated Dirichlet spectrum on a box, sorted ascending.

    ``dims`` is a tuple of (side_length, mode_count) pairs, or None when the
    spectrum was supplied directly (no geometry then).
    ``order[i]`` is the position of the i-th sorted mode among the box's
    multi-indices in lexicographic order (the identity without geometry).
    ``index_map[i]``, built from it on first read, is the 1-based
    multi-index of the i-th sorted mode.
    """

    dims: tuple[tuple[float, int], ...] | None
    lambdas: np.ndarray
    order: np.ndarray

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

    @functools.cached_property
    def index_map(self) -> tuple[tuple[int, ...], ...]:
        counts = (self.n_modes,) if self.dims is None else tuple(m for _, m in self.dims)
        return tuple(zip(*((k + 1).tolist() for k in np.unravel_index(self.order, counts))))

    @classmethod
    def from_lambdas(cls, lambdas) -> "EigenSystem":
        """Wrap an explicit positive nondecreasing spectrum (no geometry)."""
        lam = np.sort(np.asarray(lambdas, dtype=float))
        return cls(dims=None, lambdas=lam, order=np.arange(lam.size))

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": None if self.dims is None else [list(d) for d in self.dims],
                "lambdas": [float(x) for x in self.lambdas],
                "index_map": [list(k) for k in self.index_map],
            }
        )


def root_sum_sq(x) -> float:
    """sqrt(x . x), np.linalg.norm's float, unless that lies outside [2^-500,
    DBL_MAX] where squares may under- or overflow: then 2^e |x / 2^e|, e the
    exponent of max |x|, inf only where that overflows or x holds an inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        n = float(np.sqrt(np.dot(x, x)))
    if 2.0 ** -500 <= n < math.inf:
        return n
    top = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < top < math.inf:
        return top  # 0, inf or NaN
    e = math.frexp(top)[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def _two_sum(a, b):
    """(a + b rounded, its exact rounding error): Knuth's TwoSum."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _sum3(a, b, c):
    """The correctly rounded a + b + c, elementwise on float arrays that
    broadcast together: Boldo and Melquiond's round-to-odd sum (IEEE Trans.
    Computers 57(4), 2008).  Two TwoSums give th + tl + ul = a + b + c
    exactly; tl + ul is rounded to odd (an inexact sum with an even
    significand moves one ulp towards the exact one), and that sticky bit
    lets the final add to th round the whole sum correctly.  With c = 0 it
    is one IEEE add, with b = c = 0 the term a itself.  A sum that
    overflows comes out inf or NaN."""
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, e = _two_sum(tl, ul)
    even = (v.view(np.int64) & 1) == 0
    return th + np.where((e != 0.0) & even, np.nextafter(v, np.copysign(np.inf, e)), v)


def build_box_eigensystem(dims) -> EigenSystem:
    """Enumerate, sort, and index the truncated box spectrum.

    ``dims``: iterable of (side_length, modes_per_axis).  Sorting is by
    (eigenvalue, lexicographic multi-index).  Each eigenvalue is the
    correctly rounded sum of its terms (:func:`_sum3` up to three axes,
    ``math.fsum`` beyond), so symmetric ties compare exactly equal.
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
    counts = tuple(m for _, m in dims)
    # terms[i] holds (k_i pi / L_i)^2 along axis i of the array of
    # multi-indices, whose ravel lists them in lexicographic order, so a
    # stable sort by eigenvalue breaks ties by multi-index
    axes = np.ix_(*(np.arange(1, m + 1) for m in counts))
    terms = [(k * k).astype(float) * c for k, c in zip(axes, coeffs)]
    if len(terms) <= 3:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: rejected below
            lam = _sum3(*terms, *[np.zeros(())] * (3 - len(terms))).ravel()
    else:
        columns = (np.broadcast_to(t, counts).ravel().tolist() for t in terms)
        lam = np.fromiter(map(math.fsum, zip(*columns)), float, math.prod(counts))
    order = np.argsort(lam, kind="stable")
    return EigenSystem(dims=dims, lambdas=lam[order], order=order)


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
        return root_sum_sq(self.values)

    def nonzero_indices(self) -> np.ndarray:
        return np.flatnonzero(self.values != 0.0)


@dataclass(frozen=True)
class HeatLeadingData:
    """Leading spectral content of a nonzero initial datum.

    ``first``: smallest index with a nonzero coefficient; ``leaders``: all
    supported indices whose eigenvalue equals the first one bit for bit;
    ``next_index``: smallest supported index beyond the leaders (None if the
    datum is concentrated on the leading eigenvalue).  ``v`` is the
    projection onto the leaders, the large-time shape of the renormalized
    flow.  As a leader of the cutoff module (like the overdamped wave
    leader) it decays at ``rate`` = lambda_lead towards ``shape_norm`` = |v|,
    with error at most ``amplitude`` = |h| times e^{margin t}.
    """

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
    """Identify the slowest supported eigenvalue group of ``h``, tied bit for
    bit as the wave leader's: a near tie is the next eigenvalue, whose drift
    the certificate keeps (a box's symmetric ties are exact)."""
    support = h.nonzero_indices()
    if support.size == 0:
        raise ZeroInitialDatumError("initial datum is identically zero")
    lam = h.system.lambdas[support]
    tied = lam == lam[0]
    leaders, rest = support[tied], support[~tied]  # both ascending
    values = np.zeros_like(h.values)
    values[leaders] = h.values[leaders]
    v = ModeCoefficients(h.system, values)
    return HeatLeadingData(
        first=int(support[0]),
        leaders=tuple(leaders.tolist()),
        next_index=int(rest[0]) if rest.size else None,
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
    block.  A damping gap that is not finite (lambda near DBL_MAX) raises
    :class:`GapOverflowError`; a slowest decay rate that rounds to 0 or
    leaves some cutoff time infinite is rejected.
    """
    gamma = float(gamma)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise InvalidDomainError(f"damping must be positive, got {gamma}")
    lam = system.lambdas
    h = 0.5 * gamma
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        below, gap = damping_gap(lam, h)  # gap: s, then theta
    if not np.isfinite(gap).all():
        k = int(np.argmin(np.isfinite(gap)))
        raise GapOverflowError(f"mode {k}: lambda = {float(lam[k])!r} is too large: the "
                               "damping gap sqrt|gamma^2/4 - lambda| is not finite")
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
        with np.errstate(over="ignore", under="ignore"):  # root_sum_sq's rule
            n = float(np.sqrt(np.sum((1.0 + lam) * u * u + w * w)))
        return n if 2.0 ** -500 <= n < math.inf else root_sum_sq(
            np.concatenate([np.sqrt(1.0 + lam) * u, w]))

    def is_zero(self) -> bool:
        return not np.any(self.position) and not np.any(self.velocity)


def wave_decompose(spectrum: WaveSpectrum, position, velocity) -> WaveState:
    """The wave state with real (position, velocity) mode coefficients."""
    return WaveState(spectrum, position, velocity)
