"""Wasserstein distances: closed forms, sampling estimators, and bounds.

Conventions.  For p >= 1, W_p is the usual p-Wasserstein metric.  For
0 < p < 1 the cost |x - y|^p is itself a metric, so W_p denotes the optimal
expected cost without an outer root.  Three facts drive the experiments:

  * shift linearity (p >= 1):  W_p(u + U, U) = |u|;
  * for p < 1 only the sandwich
        max(|u|^p - 2 E|U|^p, 0) <= W_p(u + U, U) <= |u|^p  holds;
  * homogeneity: W_p(cX, cY) = |c| W_p(X, Y) for p >= 1 and |c|^p otherwise.

The sampling checks read one sorted sample pair (:func:`sorted_normal_pair`),
which serves every p.  Shift linearity for U ~ N(0, 1) is checked against a
band with proven constants that holds with probability at least
1 - SHIFT_ALPHA (:func:`shift_linearity_check`), and homogeneity against an
a-priori rounding budget (:func:`homogeneity_check`).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDomainError

# The probability with which a shift-linearity band may fail on valid input:
# wasserstein-test records it in its JSON meta as ``shift_alpha``.
SHIFT_ALPHA = 1e-6


def concentration_exponent(p: float) -> float:
    """min(1, p): the power of a scale factor that W_p picks up."""
    if p <= 0:
        raise InvalidDomainError(f"order p must be positive, got {p}")
    return min(1.0, p)


def w2_diag_gaussian(mean1, var1, mean2, var2) -> float:
    """W2 between Gaussians with diagonal covariances:
    sqrt( |m1 - m2|^2 + sum (sqrt v1 - sqrt v2)^2 )."""
    m1 = np.asarray(mean1, dtype=float)
    m2 = np.asarray(mean2, dtype=float)
    v1 = np.asarray(var1, dtype=float)
    v2 = np.asarray(var2, dtype=float)
    if np.any(v1 < 0) or np.any(v2 < 0):
        raise InvalidDomainError("variances must be >= 0")
    return float(np.sqrt(np.sum((m1 - m2) ** 2) + np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2)))


def bures(eq, deficit, cov) -> np.ndarray:
    """Per block, the W2 distance between centred Gaussians with covariances
    A (``eq``) and B = A - D (``cov``), taken from the deficit D
    (``deficit``) without forming A - B, so that it keeps its relative
    accuracy where A and B agree to many digits.  Blocks are 1x1 (shape
    (n,)) or symmetric 2x2 ((n, 2, 2), upper triangles read):

        1x1:  D / (sqrt A + sqrt B),
        2x2:  sqrt([(tr D)^2 + 4 X (X - det D) / r^2 - 8 sqrt(det A) det D / r]
                   / (s + 2 sqrt q)),

    X = tr(adj(A) D), r = sqrt det A + sqrt det B, s = tr A + tr B and
    q = tr(AB) + 2 sqrt(det A) sqrt(det B): Gelbrich's W2^2 = s - 2 sqrt q
    with s^2 - 4q expanded in D (at r = 0 the middle terms are -4 det D).
    A 2x2 block is divided by its trace and D then by its own trace, which
    leaves the root as a factor: no product of two determinants or of two
    large entries is formed, and a distance whose square underflows keeps
    its digits.  A block B that is not PSD raises.
    """
    a = np.asarray(eq, dtype=float)
    d = np.asarray(deficit, dtype=float)
    b = np.asarray(cov, dtype=float)
    if a.ndim == 1:
        if np.any(b < 0):
            raise InvalidDomainError("covariance blocks must be PSD")
        root = np.sqrt(a) + np.sqrt(b)
        return np.divide(d, root, out=np.zeros_like(d), where=root > 0)  # A = 0: D = 0
    tau = a[..., 0, 0] + a[..., 1, 1]
    a00, a01, a11, b00, b01, b11, d00, d01, d11 = (
        np.divide(m[..., i, j], tau, out=np.zeros_like(tau), where=tau > 0)
        for m in (a, b, d) for i, j in ((0, 0), (0, 1), (1, 1)))
    det_a = a00 * a11 - a01 * a01
    det_b = b00 * b11 - b01 * b01
    if np.any((b00 < 0) | (b11 < 0) | (det_b < -1e-12 * (1.0 + b00 + b11))):
        raise InvalidDomainError("covariance blocks must be PSD")
    sigma = d00 + d11
    on = sigma > 0  # sigma = 0: D = 0, and so is the distance
    d00, d01, d11 = (np.divide(m, sigma, out=np.zeros_like(m), where=on) for m in (d00, d01, d11))
    det_d = d00 * d11 - d01 * d01
    x = a11 * d00 + a00 * d11 - 2.0 * a01 * d01
    ra = np.sqrt(np.maximum(det_a, 0.0))
    rb = np.sqrt(np.maximum(det_b, 0.0))
    r = ra + rb
    rs = np.where(r > 0, r, 1.0)
    middle = np.where(r > 0, (4.0 * x * (x - sigma * det_d) / rs - 8.0 * ra * det_d) / rs,
                      -4.0 * det_d)
    q = (a00 * b00 + 2.0 * a01 * b01 + a11 * b11) + 2.0 * ra * rb
    ratio = np.divide(tau * np.maximum(1.0 + middle, 0.0),
                      (a00 + a11 + b00 + b11) + 2.0 * np.sqrt(q), out=np.zeros_like(tau), where=on)
    return sigma * np.sqrt(ratio)


_BLOCK_FAULTS = (
    "position weight must be positive",
    "covariance blocks must be symmetric",
    "covariance blocks must be PSD",
    "covariance blocks must be symmetric",
    "covariance blocks must be PSD",
)


def w2_gaussian_2x2(mean1, cov1, mean2, cov2, position_weight=1.0):
    """W2 between bivariate Gaussians in the weighted norm
    w * x_1^2 + x_2^2 (position component weighted by ``position_weight``).

    Rescaling the position coordinate by sqrt(w) turns the weighted norm
    into the Euclidean one, where the Gelbrich closed form

        |m1 - m2|^2 + tr c1 + tr c2 - 2 tr (c2^{1/2} c1 c2^{1/2})^{1/2}

    applies, with tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)) for 2x2 blocks.
    Works on stacked blocks: means of shape (..., 2), covariances of shape
    (..., 2, 2) and weights of shape (...), broadcast together.  Returns the
    per-block distances, or a float for a single block.  Each block is
    checked (weight, then symmetry and PSD of each rescaled covariance) and
    the first fault, in block order, raises.
    """
    m1 = np.asarray(mean1, dtype=float)
    m2 = np.asarray(mean2, dtype=float)
    w = np.asarray(position_weight, dtype=float)
    batch = np.broadcast_shapes(m1.shape[:-1], m2.shape[:-1], np.shape(cov1)[:-2],
                                np.shape(cov2)[:-2], w.shape)
    d = np.zeros(batch + (2, 2))
    with np.errstate(invalid="ignore"):  # a weight <= 0 raises below
        sw = np.sqrt(w)
        d[..., 0, 0] = sw
        d[..., 1, 1] = 1.0
        c1 = d @ np.asarray(cov1, dtype=float) @ d
        c2 = d @ np.asarray(cov2, dtype=float) @ d
        det1 = np.linalg.det(c1)
        det2 = np.linalg.det(c2)
    faults = [np.broadcast_to(w <= 0, batch)]
    for c, det in ((c1, det1), (c2, det2)):
        faults.append(np.abs(c[..., 0, 1] - c[..., 1, 0])
                      > 1e-10 * (1.0 + np.abs(c[..., 0, 1])))
        faults.append((c[..., 0, 0] < 0) | (c[..., 1, 1] < 0)
                      | (det < -1e-12 * (1 + c[..., 0, 0] + c[..., 1, 1])))
    # block-major order: the first True is the first fault of the first bad block
    faults = np.stack(faults, axis=-1).ravel()
    if faults.any():
        raise InvalidDomainError(_BLOCK_FAULTS[int(np.argmax(faults)) % len(_BLOCK_FAULTS)])
    c12 = c1 @ c2
    det = np.maximum(np.maximum(det1, 0.0) * np.maximum(det2, 0.0), 0.0)
    inner = (c12[..., 0, 0] + c12[..., 1, 1]) + 2.0 * np.sqrt(det)
    bures = np.sqrt(np.maximum(inner, 0.0))
    trace = (c1[..., 0, 0] + c1[..., 1, 1]) + (c2[..., 0, 0] + c2[..., 1, 1])
    gap = trace - 2.0 * bures
    a = sw * m1[..., 0] - sw * m2[..., 0]
    b = m1[..., 1] - m2[..., 1]
    out = np.sqrt((a * a + b * b) + np.maximum(gap, 0.0))
    return float(out) if out.ndim == 0 else out


def wp_empirical_1d(x, y, p: float) -> float:
    """Sorted-sample estimator of W_p between two equal-size 1d samples.

    For p >= 1 the sorted coupling is optimal among couplings of the
    empirical measures; for p < 1 it is an upper bound on the optimal cost
    (concave costs need not couple monotonically), which is the side the
    two-sided shift bound requires.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidDomainError("need two 1d samples of equal size")
    return _wp_sorted(xs, ys, p)


def _wp_sorted(xs: np.ndarray, ys: np.ndarray, p: float) -> float:
    """:func:`wp_empirical_1d` on two sorted samples of equal size."""
    diffs = np.abs(xs - ys)
    if p >= 1.0:
        return float(np.mean(diffs ** p) ** (1.0 / p))
    return float(np.mean(diffs ** p))


def shift_bounds(u_norm: float, p: float, abs_moment_p: float) -> tuple[float, float]:
    """Two-sided bound for W_p(u + U, U).

    p >= 1: both sides equal |u| (shift linearity).  p < 1: the lower bound
    is max(|u|^p - 2 E|U|^p, 0) and the upper is |u|^p.
    """
    u = abs(float(u_norm))
    if p >= 1.0:
        return u, u
    return max(u ** p - 2.0 * abs_moment_p, 0.0), u ** p


def gaussian_abs_moment(p: float) -> float:
    """E|U|^p = 2^(p/2) Gamma((p + 1)/2) / sqrt(pi) for U ~ N(0, 1)."""
    return 2.0 ** (0.5 * p) * math.gamma(0.5 * (p + 1.0)) / math.sqrt(math.pi)


def log_quantile_integral_bound(q: float) -> float:
    """ln(2^(q-1) Gamma(q / 2)), the log of an upper bound of
    I_q = int |x|^(q-1) sqrt(Phi (1 - Phi)) dx for q >= 1.

    The square [0, t]^2 holds the quarter disc of radius t, so
    erf(t)^2 >= 1 - e^(-t^2) and Phi (1 - Phi) = (1 - erf(x / sqrt 2)^2) / 4
    <= e^(-x^2 / 2) / 4: I_q <= int |x|^(q-1) e^(-x^2 / 4) dx / 2
    = 2^(q-1) Gamma(q / 2).  Raises OverflowError where Gamma(q / 2) is
    beyond the log space too (q > 5e305).
    """
    return (q - 1.0) * math.log(2.0) + math.lgamma(0.5 * q)


def empirical_distance_bound(q: float, n: int) -> float:
    """beta with P(W_q(mu_n, N(0, 1)) > beta) <= alpha / 2, alpha = SHIFT_ALPHA,
    for q >= 1 and mu_n the empirical measure of n iid N(0, 1) draws.

      * Bias.  W_q^q(mu, nu) <= q 2^(q-1) int |x|^(q-1) |F - G| dx
        (Bobkov-Ledoux, Mem. AMS 2019: |a - b|^q <= q 2^(q-1) |int_a^b |s|^(q-1) ds|,
        integrated over the quantile coupling), and E|F_n - Phi| <= sqrt(Phi (1 - Phi) / n),
        so by Jensen E W_q <= b_q = (q 2^(q-1) I_q / sqrt n)^(1/q), with I_q
        bounded by :func:`log_quantile_integral_bound`.
      * Concentration.  x -> W_q(mu_n^x, N(0, 1)) is L = n^(-1/max(q, 2))
        Lipschitz in x in R^n (couple mu_n^x and mu_n^x' index by index and
        compare power means), so by Gaussian concentration
        (Tsirelson-Ibragimov-Sudakov) it exceeds its mean by
        r = L sqrt(2 ln(2 / alpha)) with probability at most alpha / 2.

    beta = b_q + r, with b_q taken in log space so that no power overflows,
    or inf where the log of I_q's bound overflows.
    """
    try:
        log_integral = log_quantile_integral_bound(q)
    except OverflowError:
        return math.inf
    log_bias = (math.log(q) + (q - 1.0) * math.log(2.0) + log_integral - 0.5 * math.log(n)) / q
    return (math.exp(log_bias)
            + n ** (-1.0 / max(q, 2.0)) * math.sqrt(2.0 * math.log(2.0 / SHIFT_ALPHA)))


def sorted_normal_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """x then y ~ N(0, 1)^n from ``rng``, each sorted once: the pair that
    :func:`shift_linearity_check` and :func:`homogeneity_check` read."""
    return np.sort(rng.standard_normal(n)), np.sort(rng.standard_normal(n))


def shift_linearity_check(u: float, p: float, xs: np.ndarray, ys: np.ndarray) -> dict:
    """Check of the shift identity/bounds for U ~ N(0, 1) from one sample pair.

    ``xs`` and ``ys`` are two iid N(0, 1)^n samples, sorted, and the
    estimate is the sorted estimator of W_p(u + x, y): rounding is monotone,
    so xs + u is the sorted u + x.  It lies in a band that holds with
    probability at least 1 - ``SHIFT_ALPHA`` for every u, p and n >= 2.
    Let beta = :func:`empirical_distance_bound` at q = max(p, 1), so that
    W_q(mu_n^x, N) and W_q(nu_n^y, N) are both at most beta with
    probability >= 1 - alpha.

      * p >= 1: the sorted estimator is W_p(mu_n^(u + x), nu_n^y), and the
        triangle inequality around W_p(u + U, U) = |u| gives
        |estimate - |u|| <= 2 beta.
      * p < 1 (W_p the optimal cost, a metric): the sorted coupling's cost
        is at most |u|^p + mean |x_(i) - y_(i)|^p (subadditivity of t^p)
        <= |u|^p + W_1(mu_n^x, nu_n^y)^p (Jensen) <= |u|^p + (2 beta)^p.  It
        is at least the optimal cost >= W_p(u + U, U) - W_p(mu_n^x, N)
        - W_p(nu_n^y, N) (triangle inequality), where
        W_p(u + U, U) >= lo = max(|u|^p - 2 E|U|^p, 0) (:func:`shift_bounds`,
        with :func:`gaussian_abs_moment`) and each W_p(mu_n, N) <= W_1^p <= beta^p
        (Jensen on the W_1-optimal coupling): estimate >= lo - 2 beta^p.
      * Rounding.  The computed difference of a sorted pair is within
        delta = 3 u' (|u| + max|x| + max|y|) of the exact one (u' = 2^-53), so
        the estimate of the computed differences is within delta^min(1, p)
        of the exact estimate (Minkowski, or |a^p - b^p| <= |a - b|^p), and
        its evaluation and that of |u|^p carry relative error at most
        (ceil(log2 n) + 25) u', as in :func:`homogeneity_check`.  Both
        terms join each end of the band, enlarged by 1 + 2^-40 for the
        rounding of the band itself.

    The band of each (u, p) holds with that probability on its own, so one
    pair serves every p.  Returns the estimate, the target |u| or |u|^p,
    ``bound``, the band's excess over the target, and ``lower``, its lower
    end.
    """
    n = xs.size
    est = _wp_sorted(xs + u, ys, p)
    beta = empirical_distance_bound(max(p, 1.0), n)
    if p >= 1.0:
        lo = hi = abs(u)
        below = above = 2.0 * beta
    else:
        lo, hi = shift_bounds(u, p, gaussian_abs_moment(p))
        below, above = 2.0 * beta ** p, (2.0 * beta) ** p
    unit = 2.0 ** -53
    # max|x| of a sorted sample sits at one of its ends
    delta = 3.0 * unit * (abs(u) + float(max(-xs[0], xs[-1]) + max(-ys[0], ys[-1])))
    rounding = (delta ** concentration_exponent(p)
                + ((n - 1).bit_length() + 25) * unit * (est + hi))
    grow = 1.0 + 2.0 ** -40
    lower = lo - grow * (below + rounding)
    bound = grow * (above + rounding)
    return {"estimate": est, "target": hi, "bound": bound, "lower": lower}


def homogeneity_check(c: float, p: float, xs: np.ndarray, ys: np.ndarray) -> dict:
    """Deterministic check that scaling both marginals by c scales the
    sorted W_p estimate by factor = |c| (p >= 1) or |c|^p (p < 1).

    ``xs`` and ``ys`` are one sorted sample pair, and ys + 1 separates the
    marginals.  In exact arithmetic the sorted estimator is exactly
    homogeneous, so ``scaled - factor * base`` is pure rounding error, and
    the check compares it with an a-priori bound on that error, which holds
    for any pair.  Below, u = 2^-53 is the unit roundoff and x_i, y_i are
    the sorted samples, which the scaled estimate pairs the same way
    (rounding is monotone).

      * Per pair, the computed |fl(c x_i) - fl(c y_i)| and |c| times the
        computed |fl(x_i - y_i)| differ by at most
        delta_i = 3 u |c| (|x_i| + |y_i|): u |c| (|x_i| + |y_i|) from
        rounding c x_i and c y_i, and as much again from each subtraction.
      * p >= 1: by Minkowski's inequality the normalised p-norms
        (mean d_i^p)^(1/p) of the two difference vectors differ by at most
        (mean delta_i^p)^(1/p).
      * p < 1: ||a|^p - |b|^p| <= |a - b|^p, so the two means of d_i^p
        differ by at most mean(delta_i^p).
      * Evaluation.  NumPy's pairwise summation (blocks of at most 128
        summed by eight accumulators, halved recursively above that)
        rounds each term at most ceil(log2 n) + 17 times.  With the power
        of each term and the outer root (each within one ulp, 2u) and the
        division by n, an estimate carries relative error at most
        (ceil(log2 n) + 22) u; factor * base adds the power in the factor
        and the product, so (ceil(log2 n) + 25) u covers both sides.

    ``budget`` is the sum of these terms, enlarged by the factor
    1 + 2^-40, which covers the second-order terms in u and the rounding of
    the budget's own evaluation; the row checks |scaled - factor * base|
    against it.  A wrong factor (|c| instead of |c|^p at p < 1, say) is off by
    O(1) and fails by many orders of magnitude.
    """
    n = xs.size
    ys = ys + 1.0  # separate the marginals
    base = _wp_sorted(xs, ys, p)
    # rounding is monotone: c * xs is sorted for c > 0 and reversed for c < 0
    step = 1 if c > 0 else -1
    scaled = _wp_sorted((c * xs)[::step], (c * ys)[::step], p)
    factor = abs(c) ** concentration_exponent(p)
    u = 2.0 ** -53
    delta = 3.0 * u * abs(c) * (np.abs(xs) + np.abs(ys))
    if p >= 1.0:
        pairwise = float(np.mean(delta ** p) ** (1.0 / p))
    else:
        pairwise = float(np.mean(delta ** p))
    ceil_log2_n = (n - 1).bit_length()
    evaluation = (ceil_log2_n + 25) * u * (scaled + factor * base)
    budget = (1.0 + 2.0 ** -40) * (pairwise + evaluation)
    return {"estimate": scaled - factor * base, "budget": budget, "factor": factor}
