"""Wasserstein closed forms, estimators, and structural properties.

The 2x2 Gaussian closed form is sandwiched between an assignment-based
empirical optimal transport cost (upper, biased high) and the best sliced
1d projection (lower bound).
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import norm

import mpmath

from spdecutoff import (
    bures,
    homogeneity_check,
    shift_bounds,
    shift_linearity_check,
    sorted_normal_pair,
    stream,
    w2_diag_gaussian,
    w2_gaussian_2x2,
    wp_empirical_1d,
)
from spdecutoff import cli, wasserstein
from spdecutoff.cutoff import passes
from spdecutoff.errors import InvalidDomainError
from spdecutoff.spectral_core import root_sum_sq
from spdecutoff.wasserstein import (concentration_exponent, empirical_distance_bound,
                                    gaussian_abs_moment, log_quantile_integral_bound)


class TestExponents:
    def test_values(self):
        assert concentration_exponent(2.0) == 1.0
        assert concentration_exponent(1.0) == 1.0
        assert concentration_exponent(0.5) == 0.5

    def test_invalid(self):
        with pytest.raises(InvalidDomainError):
            concentration_exponent(0.0)


class TestDiagGaussian:
    def test_pure_shift(self):
        assert w2_diag_gaussian([2.0], [1.0], [0.0], [1.0]) == pytest.approx(2.0)

    def test_pure_scale(self):
        # W2(N(0,4), N(0,1)) = |2 - 1| = 1
        assert w2_diag_gaussian([0.0], [4.0], [0.0], [1.0]) == pytest.approx(1.0)

    def test_product_structure(self):
        d1 = w2_diag_gaussian([1.0], [2.0], [0.0], [3.0])
        d2 = w2_diag_gaussian([0.5], [1.0], [0.2], [1.5])
        joint = w2_diag_gaussian([1.0, 0.5], [2.0, 1.0], [0.0, 0.2], [3.0, 1.5])
        assert joint == pytest.approx(math.hypot(d1, d2), rel=1e-14)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.standard_normal((3, 4))
            v = rng.uniform(0.1, 2.0, (3, 4))
            d01 = w2_diag_gaussian(m[0], v[0], m[1], v[1])
            d10 = w2_diag_gaussian(m[1], v[1], m[0], v[0])
            d02 = w2_diag_gaussian(m[0], v[0], m[2], v[2])
            d12 = w2_diag_gaussian(m[1], v[1], m[2], v[2])
            assert d01 == pytest.approx(d10, rel=1e-13)
            assert d02 <= d01 + d12 + 1e-12
            assert w2_diag_gaussian(m[0], v[0], m[0], v[0]) == 0.0

    def test_empirical_oracle_1d(self):
        rng = stream(5, 0)
        n = 200_000
        x = 1.5 + 0.8 * rng.standard_normal(n)
        y = 2.0 * rng.standard_normal(n)
        est = wp_empirical_1d(x, y, 2.0)
        exact = w2_diag_gaussian([1.5], [0.64], [0.0], [4.0])
        assert est == pytest.approx(exact, rel=0.02)


class TestGaussian2x2:
    def test_reduces_to_diagonal(self):
        d = w2_gaussian_2x2([1.0, 0.0], np.diag([2.0, 1.0]), [0.0, 0.0],
                            np.diag([3.0, 1.5]))
        exact = w2_diag_gaussian([1.0, 0.0], [2.0, 1.0], [0.0, 0.0], [3.0, 1.5])
        assert d == pytest.approx(exact, rel=1e-13)

    def test_identical_laws(self):
        c = np.array([[1.0, 0.3], [0.3, 0.5]])
        assert w2_gaussian_2x2([0.1, 0.2], c, [0.1, 0.2], c) == pytest.approx(0.0, abs=1e-7)

    def test_position_weight_is_a_rescaling(self):
        c1 = np.array([[1.0, 0.2], [0.2, 0.7]])
        c2 = np.array([[0.5, -0.1], [-0.1, 1.1]])
        w = 3.0
        d = np.diag([math.sqrt(w), 1.0])
        direct = w2_gaussian_2x2([1.0, -0.5], c1, [0.0, 0.3], c2, position_weight=w)
        scaled = w2_gaussian_2x2(d @ [1.0, -0.5], d @ c1 @ d, d @ [0.0, 0.3], d @ c2 @ d)
        assert direct == pytest.approx(scaled, rel=1e-12)

    def test_assignment_and_sliced_sandwich(self):
        rng = stream(6, 0)
        m1, m2 = np.array([0.5, -0.2]), np.array([-0.3, 0.4])
        c1 = np.array([[1.2, 0.4], [0.4, 0.9]])
        c2 = np.array([[0.6, -0.2], [-0.2, 1.4]])
        closed = w2_gaussian_2x2(m1, c1, m2, c2)
        l1 = np.linalg.cholesky(c1)
        l2 = np.linalg.cholesky(c2)
        n = 1200
        uppers, lowers = [], []
        for _ in range(4):
            x = m1 + rng.standard_normal((n, 2)) @ l1.T
            y = m2 + rng.standard_normal((n, 2)) @ l2.T
            cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
            r, c = linear_sum_assignment(cost)
            uppers.append(math.sqrt(cost[r, c].mean()))
            best = 0.0
            for angle in np.linspace(0, math.pi, 60, endpoint=False):
                d = np.array([math.cos(angle), math.sin(angle)])
                best = max(best, wp_empirical_1d(x @ d, y @ d, 2.0))
            lowers.append(best)
        upper = float(np.mean(uppers))
        lower = float(np.mean(lowers))
        assert lower - 0.05 <= closed <= upper + 0.02
        # empirical OT on a plane concentrates near the true value from above
        assert upper == pytest.approx(closed, rel=0.10)

    def test_asymmetric_covariance_rejected(self):
        c_bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(InvalidDomainError):
            w2_gaussian_2x2([0, 0], c_bad, [0, 0], np.eye(2))

    def test_a_subnormal_rank_one_block_warns_nothing(self):
        # outer(v, v) with v = (5e-324, 3): LAPACK's det divides by a zero pivot
        c = np.outer([5e-324, 3.0], [5e-324, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w2_gaussian_2x2([0, 0], c, [0, 0], c) == 0.0
            assert w2_gaussian_2x2([0, 0], c, [0, 0], np.zeros((2, 2))) == 3.0


def w2_gaussian_2x2_block(mean1, cov1, mean2, cov2, position_weight=1.0):
    """Reference for the stacked w2_gaussian_2x2: one block in 2x2 NumPy
    arithmetic, as the routine computed it block by block."""
    if position_weight <= 0:
        raise InvalidDomainError("position weight must be positive")
    d = np.diag([math.sqrt(position_weight), 1.0])
    m1 = d @ np.asarray(mean1, dtype=float)
    m2 = d @ np.asarray(mean2, dtype=float)
    c1 = d @ np.asarray(cov1, dtype=float) @ d
    c2 = d @ np.asarray(cov2, dtype=float) @ d
    # a singular block's det may divide by zero: the PSD test and max(det, 0) absorb it
    with np.errstate(divide="ignore"):
        det1, det2 = np.linalg.det(c1), np.linalg.det(c2)
    for c, det in ((c1, det1), (c2, det2)):
        if abs(c[0, 1] - c[1, 0]) > 1e-10 * (1.0 + abs(c[0, 1])):
            raise InvalidDomainError("covariance blocks must be symmetric")
        if c[0, 0] < 0 or c[1, 1] < 0 or det < -1e-12 * (1 + c[0, 0] + c[1, 1]):
            raise InvalidDomainError("covariance blocks must be PSD")
    tr = float(np.trace(c1 @ c2))
    det = float(max(det1, 0.0) * max(det2, 0.0))
    bures = math.sqrt(max(tr + 2.0 * math.sqrt(max(det, 0.0)), 0.0))
    gap = float(np.trace(c1) + np.trace(c2)) - 2.0 * bures
    return float(math.sqrt(np.sum((m1 - m2) ** 2) + max(gap, 0.0)))


def w2_gaussian_2x2_loop(mean1, cov1, mean2, cov2, weights):
    """The per-block loop over the reference, as a list of floats."""
    return [w2_gaussian_2x2_block(a, c, b, e, position_weight=w)
            for a, c, b, e, w in zip(mean1, cov1, mean2, cov2, weights)]


_entry = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)


@st.composite
def psd_block(draw):
    """A PSD 2x2 block: full rank, rank one, or with exact zero rows."""
    kind = draw(st.sampled_from(["full", "rank1", "axis", "zero"]))
    if kind == "full":
        g = np.array(draw(st.lists(_entry, min_size=4, max_size=4))).reshape(2, 2)
        return g @ g.T
    if kind == "rank1":
        v = np.array(draw(st.lists(_entry, min_size=2, max_size=2)))
        return np.outer(v, v)
    if kind == "axis":
        c = np.zeros((2, 2))
        i = draw(st.integers(0, 1))
        c[i, i] = draw(st.floats(0.0, 900.0))
        return c
    return np.zeros((2, 2))


_block = st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
    psd_block(),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
    psd_block(),
    st.floats(1.0, 1e6),
)


class TestStackedGaussian2x2:
    @settings(max_examples=300)
    @given(st.lists(_block, min_size=1, max_size=12))
    def test_equals_the_block_loop(self, blocks):
        m1, c1, m2, c2, w = (np.array(x) for x in zip(*blocks))
        try:
            ref = w2_gaussian_2x2_loop(m1, c1, m2, c2, w)
        except InvalidDomainError as e:
            with pytest.raises(InvalidDomainError, match=f"^{e}$"):
                w2_gaussian_2x2(m1, c1, m2, c2, position_weight=w)
            return
        got = w2_gaussian_2x2(m1, c1, m2, c2, position_weight=w)
        assert got.shape == (len(blocks),)
        assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in ref]
        singles = [w2_gaussian_2x2(*b[:4], position_weight=b[4]) for b in blocks]
        assert all(type(x) is float for x in singles)
        assert [float.hex(x) for x in singles] == [float.hex(x) for x in ref]

    def test_shared_blocks_broadcast(self):
        rng = stream(9, 0)
        m1 = rng.standard_normal((7, 2))
        g = rng.standard_normal((7, 2, 2))
        c1 = g @ g.transpose(0, 2, 1)
        c2 = np.array([[1.5, 0.2], [0.2, 0.8]])
        w = 1.0 + rng.uniform(0, 50, 7)
        got = w2_gaussian_2x2(m1, c1, np.zeros(2), c2, position_weight=w)
        ref = w2_gaussian_2x2_loop(m1, c1, [np.zeros(2)] * 7, [c2] * 7, w)
        assert got.tolist() == ref

    @pytest.mark.parametrize("where", [0, 117, 199])
    @pytest.mark.parametrize(
        "bad, side, message",
        [
            (np.array([[1.0, 0.5], [0.1, 1.0]]), 0, "symmetric"),
            (np.array([[1.0, 0.5], [0.1, 1.0]]), 1, "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), 0, "PSD"),
            (np.array([[-1e-3, 0.0], [0.0, 1.0]]), 1, "PSD"),
        ],
    )
    def test_one_bad_block_among_valid_ones_raises(self, where, bad, side, message):
        rng = stream(9, 1)
        g = rng.standard_normal((2, 200, 2, 2))
        covs = g @ g.transpose(0, 1, 3, 2)
        covs[side, where] = bad
        means = rng.standard_normal((200, 2))
        w = 1.0 + rng.uniform(0, 1e3, 200)
        with pytest.raises(InvalidDomainError, match=message):
            w2_gaussian_2x2_loop(means, covs[0], means[::-1], covs[1], w)
        with pytest.raises(InvalidDomainError, match=message):
            w2_gaussian_2x2(means, covs[0], means[::-1], covs[1], position_weight=w)

    def test_first_bad_block_decides_the_message(self):
        good = np.eye(2)
        asym = np.array([[1.0, 0.5], [0.1, 1.0]])
        c1 = np.stack([good, good, asym, good])
        w = np.array([1.0, 2.0, 3.0, -1.0])
        with pytest.raises(InvalidDomainError, match="symmetric"):
            w2_gaussian_2x2(np.zeros(2), c1, np.zeros(2), good, position_weight=w)
        with pytest.raises(InvalidDomainError, match="position weight"):
            w2_gaussian_2x2(np.zeros(2), c1[::-1], np.zeros(2), good, position_weight=w[::-1])


def mp_sqrtm(m):
    """The PSD square root of a 2x2 mpmath block: mpmath.sqrtm of the block
    over its trace with 40 more working digits (its iteration loses about
    the digits of the block's condition number, up to 10^24 here), or, where
    it does not converge or meets a singular block, the identity
    sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))."""
    t = m[0, 0] + m[1, 1]
    if t == 0:
        return m
    try:
        with mpmath.workdps(mpmath.mp.dps + 40):
            return (mpmath.sqrtm(m / t) * mpmath.sqrt(t)).apply(mpmath.re)
    except (mpmath.libmp.libhyper.NoConvergence, ZeroDivisionError):
        s = mpmath.sqrt(max(mpmath.det(m), 0))
        return (m + s * mpmath.eye(2)) / mpmath.sqrt(t + 2 * s)


def mp_bures(a, d, lost):
    """W2(N(0, A), N(0, A - D)) at 50 digits: A - D formed exactly, and
    Gelbrich's tr A + tr B - 2 tr sqrt(sqrt(A) B sqrt(A)) with ``lost`` more
    working digits, the ones its difference cancels."""
    with mpmath.workdps(60 + lost):
        if np.ndim(a) == 0:
            a, b = mpmath.mpf(a), mpmath.mpf(a) - mpmath.mpf(d)
            return mpmath.sqrt(a) - mpmath.sqrt(b)
        a = mpmath.matrix(a.tolist())
        b = a - mpmath.matrix(d.tolist())
        root = mp_sqrtm(a)
        m = mp_sqrtm(root * b * root)
        sq = a[0, 0] + a[1, 1] + b[0, 0] + b[1, 1] - 2 * (m[0, 0] + m[1, 1])
        return mpmath.sqrt(max(sq, 0))


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@st.composite
def bures_blocks(draw):
    """(A, D, k): A a 2x2 PSD block with trace 10^[-300, 300] and eigenvalue
    ratio 10^[-12, 0], and D = k A^{1/2} K A^{1/2} with K a PSD block of
    eigenvalues 1 and [0, 1], so that A - D is PSD: k = 1 with K = I (D = A,
    t = 0), k = 0 (D = 0), or |D| / |A| = k from 10^-300 (bounded so that
    D's entries stay normal) up to 1/2."""
    log_tr = draw(st.floats(-300.0, 300.0))
    a = rotation(draw(st.floats(0.0, math.pi))) @ np.diag(
        [1.0, 10.0 ** draw(st.floats(-12.0, 0.0))])
    a = 10.0 ** log_tr * (a @ a.T) / np.trace(a @ a.T)
    a = (a + a.T) / 2
    kind = draw(st.sampled_from(["equal", "zero", "deficit"]))
    low = max(-300.0, -280.0 - log_tr)  # D's entries stay normal for k >= 10^low
    if kind == "equal" or low > math.log10(0.5):  # below trace 10^-279.7 no k fits
        return a, a.copy(), 1.0
    if kind == "zero":
        return a, np.zeros((2, 2)), 0.0
    k = 10.0 ** draw(st.floats(low, math.log10(0.5)))
    vals, vecs = np.linalg.eigh(a)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    r = rotation(draw(st.floats(0.0, math.pi)))
    kk = k * r @ np.diag([1.0, draw(st.floats(0.0, 1.0))]) @ r.T
    d = root @ kk @ root
    return a, (d + d.T) / 2, k


class TestBures:
    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-300.0, 300.0), log_k=st.floats(-300.0, 0.0),
           kind=st.sampled_from(["equal", "zero", "deficit"]))
    def test_1x1_blocks_match_a_50_digit_oracle(self, log_a, log_k, kind):
        a = 10.0 ** log_a
        d = {"equal": a, "zero": 0.0, "deficit": a * 10.0 ** log_k}[kind]
        got = float(bures(np.array([a]), np.array([d]), np.array([a - d]))[0])
        want = mp_bures(a, d, int(-log_k) if kind == "deficit" else 0)
        assert abs(got - want) <= 4e-16 * want + 1e-310

    @settings(max_examples=40, deadline=None)
    @given(blocks=bures_blocks())
    def test_2x2_blocks_match_a_50_digit_sqrtm_oracle(self, blocks):
        a, d, k = blocks
        got = float(bures(a[None], d[None], a[None] - d[None])[0])
        if k == 0:  # the oracle's root of a cancelled difference is noise
            assert got == 0.0
            return
        want = mp_bures(a, d, 2 * int(-math.log10(k)) if k < 1 else 0)
        assert abs(got - want) <= 1e-14 * want + 1e-300

    def test_zero_blocks_and_the_law_at_time_zero(self):
        a = np.array([[[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.3], [0.3, 1.0]]])
        got = bures(a, a, np.zeros_like(a))  # t = 0: A - D = 0, the distance is sqrt(tr A)
        assert got[0] == 0.0 and got[1] == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert not np.any(bures(a, np.zeros_like(a), a))
        assert not np.any(bures(np.zeros(3), np.zeros(3), np.zeros(3)))

    def test_huge_and_tiny_traces_in_one_stack(self):
        # the equilibrium of a near-zero eigenvalue, 5e298, next to a block
        # of 1e-300: no product of two determinants is formed
        a = np.array([np.diag([5e298, 0.05]), np.diag([1e-300, 3e-301])])
        d = np.array([1e-8 * a[0], 0.25 * a[1]])
        got = bures(a, d, a - d)
        for g, ai, di in zip(got, a, d):
            assert abs(g - mp_bures(ai, di, 20)) <= 1e-14 * g

    def test_a_law_that_is_not_psd_raises(self):
        a = np.array([np.eye(2), np.eye(2)])
        d = np.array([0.5 * np.eye(2), np.diag([1.0 + 1e-6, 0.5])])
        with pytest.raises(InvalidDomainError, match="^covariance blocks must be PSD$"):
            bures(a, d, a - d)
        with pytest.raises(InvalidDomainError, match="^covariance blocks must be PSD$"):
            bures(np.ones(2), np.array([0.5, 1.5]), np.array([0.5, -0.5]))


class TestRootSumSq:
    def test_plain_norm_bits_where_the_squares_are_safe(self):
        x = np.random.default_rng(4).normal(size=1000)
        assert root_sum_sq(x).hex() == float(np.linalg.norm(x)).hex()

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_squares_that_underflow_or_overflow(self, scale):
        x = scale * np.array([3.0, 4.0])
        assert root_sum_sq(x) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_a_norm_beyond_the_largest_double_is_inf(self):
        assert root_sum_sq(np.array([1.7e308, 1.7e308])) == math.inf
        assert root_sum_sq(np.array([math.inf, 1.0])) == math.inf
        assert root_sum_sq(np.zeros(4)) == 0.0


class TestEmpirical1d:
    def test_identical_samples(self):
        x = np.array([3.0, 1.0, 2.0])
        assert wp_empirical_1d(x, x, 2.0) == 0.0

    def test_pure_shift_any_p(self):
        rng = stream(8, 0)
        x = rng.standard_normal(1000)
        for p in (0.5, 1.0, 2.0, 3.0):
            got = wp_empirical_1d(x + 1.0, x, p)
            want = 1.0 if p >= 1 else 1.0**p
            assert got == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidDomainError):
            wp_empirical_1d(np.zeros(3), np.zeros(4), 2.0)


def band_passes(res):
    """The shift-linearity row's verdict: the one pass rule, with the band's
    lower end as the lower allowance."""
    return passes(res["estimate"], res["target"], res["bound"], res["target"] - res["lower"])


def budget_passes(res):
    """The homogeneity row's verdict: the one pass rule around 0."""
    return passes(res["estimate"], 0.0, res["budget"])


class TestShiftAndHomogeneity:
    def test_shift_linearity_gaussian_p2(self):
        res = shift_linearity_check(2.0, 2.0, *sorted_normal_pair(50_000, stream(21, 0)))
        assert band_passes(res)
        assert res["target"] == 2.0 and res["lower"] == 2.0 - res["bound"]
        assert abs(res["estimate"] - 2.0) <= res["bound"]

    def test_shift_bounds_p_half(self):
        # E|N(0,1)|^(1/2) via the Gaussian moment formula
        moment = float(norm.expect(lambda x: abs(x) ** 0.5))
        lo, hi = shift_bounds(2.0, 0.5, moment)
        assert hi == pytest.approx(math.sqrt(2.0))
        assert lo == 0.0  # sqrt(2) - 2 * 0.82... < 0

    def test_shift_sandwich_p_half_mc(self):
        res = shift_linearity_check(2.0, 0.5, *sorted_normal_pair(50_000, stream(22, 0)))
        assert band_passes(res)
        assert res["target"] == math.sqrt(2.0)
        assert res["lower"] < shift_bounds(2.0, 0.5, gaussian_abs_moment(0.5))[0] == 0.0
        assert res["lower"] <= res["estimate"] <= res["target"] + res["bound"]

    def test_shift_linearity_at_u_0(self):
        # wasserstein-test with {"u": 0, "p_grid": [2]} at master_seed 0: the
        # estimate 0.0084 is the empirical measures' own distance, which the
        # band covers (4 se = 0.0018 of 20 repetitions did not)
        res = shift_linearity_check(0.0, 2.0, *sorted_normal_pair(100_000, stream(0, 7, 0)))
        assert band_passes(res), res
        assert 0.008 < res["estimate"] <= res["bound"]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        n=st.integers(2, 400),
        p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
        u=st.sampled_from([0.0, 1e-3, 2.0, -3.0]),
    )
    def test_shift_band_holds_for_every_seed(self, seed, n, p, u):
        # each example fails with probability at most SHIFT_ALPHA = 1e-6
        res = shift_linearity_check(u, p, *sorted_normal_pair(n, stream(seed, 7, 0)))
        assert band_passes(res), res

    @pytest.mark.parametrize("wrong", ["unsorted", "no-root"])
    def test_shift_band_catches_a_wrong_estimator(self, monkeypatch, wrong):
        rng = stream(0, 7, 0)
        x, y = rng.standard_normal(100_000), rng.standard_normal(100_000)
        good = shift_linearity_check(2.0, 2.0, np.sort(x), np.sort(y))
        assert band_passes(good) and good["bound"] < 0.45
        if wrong == "unsorted":  # pairs the samples in draw order
            res = shift_linearity_check(2.0, 2.0, x, y)
        else:  # drops the 1/p root at p >= 1
            monkeypatch.setattr(wasserstein, "_wp_sorted",
                                lambda xs, ys, p: float(np.mean(np.abs(xs - ys) ** p)))
            res = shift_linearity_check(2.0, 2.0, np.sort(x), np.sort(y))
        assert not band_passes(res)
        assert res["estimate"] - 2.0 > res["bound"]  # unsorted: sqrt(6) = 2.449

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_gaussian_abs_moment_matches_a_30_digit_quadrature(self, p):
        with mpmath.workdps(30):
            want = 2 * mpmath.quad(lambda x: x ** p * mpmath.npdf(x), [0, 1, 4, mpmath.inf])
            assert abs(gaussian_abs_moment(p) - want) <= 4e-16 * want

    @pytest.mark.parametrize("q, scipy_value", [(1.0, 1.6147438516726604), (1.5, None),
                                                (2.0, 1.6844404493841783), (3.0, None)])
    def test_the_quantile_integral_bound_is_an_upper_bound(self, q, scipy_value):
        # I_q = int |x|^(q-1) sqrt(Phi (1 - Phi)) dx at 30 digits
        with mpmath.workdps(30):
            exact = 2 * mpmath.quad(
                lambda x: x ** (q - 1) * mpmath.sqrt(mpmath.ncdf(x) * mpmath.ncdf(-x)),
                [0, 1, 4, 10, mpmath.inf])
        if scipy_value is not None:  # scipy.integrate.quad at its default tolerance
            assert float(exact) == pytest.approx(scipy_value, rel=1e-8)
        bound = math.exp(log_quantile_integral_bound(q))
        assert exact < bound < 1.5 * exact

    def test_homogeneity(self):
        for p in (2.0, 0.5):
            res = homogeneity_check(3.0, p, *sorted_normal_pair(30_000, stream(23, int(p * 2))))
            assert budget_passes(res)
            assert abs(res["estimate"]) <= res["budget"]
            assert res["factor"] == pytest.approx(3.0 ** min(1.0, p))

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**63 - 1),
        n=st.integers(1, 400),
        p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
        c=st.sampled_from([3.0, -3.0, 0.1, 7.5e3]),
    )
    def test_homogeneity_passes_for_every_seed(self, seed, n, p, c):
        res = homogeneity_check(c, p, *sorted_normal_pair(n, stream(seed, 7, 0)))
        assert budget_passes(res), res

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
        c=st.sampled_from([3.0, -3.0, 0.1, 7.5e3]),
    )
    def test_homogeneity_equals_the_three_sort_body(self, seed, n, p, c):
        x, y = awkward_pair(seed, n)
        got = homogeneity_check(c, p, np.sort(x), np.sort(y))
        want = reference_homogeneity_check(c, normal_law, p, n, Replay(x, y))
        assert hex_dict(got) == hex_dict(want)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        u=st.sampled_from([0.0, 1e-3, 2.0, -3.0, 1.7e308]),
        p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
        c=st.sampled_from([3.0, -3.0, 0.1, 7.5e3]),
    )
    def test_both_checks_equal_the_per_p_bodies(self, seed, n, u, p, c):
        # one sorted pair read by both checks gives the bits of the bodies
        # that drew and sorted their own pair for every p
        x, y = awkward_pair(seed, n)
        xs, ys = np.sort(x), np.sort(y)
        with np.errstate(over="ignore"):  # u = 1.7e308: the p-th powers overflow alike
            got = shift_linearity_check(u, p, xs, ys)
            want = reference_shift_linearity_check(u, p, n, Replay(x, y))
        assert hex_dict(got) == hex_dict(want)
        got = homogeneity_check(c, p, xs, ys)
        want = reference_homogeneity_check(c, normal_law, p, n, Replay(x, y))
        assert hex_dict(got) == hex_dict(want)

    def test_homogeneity_catches_a_wrong_factor(self, monkeypatch):
        # |c| in place of |c|^p at p = 1/2: off by O(1), far above the budget
        monkeypatch.setattr(wasserstein, "concentration_exponent", lambda p: 1.0)
        res = homogeneity_check(3.0, 0.5, *sorted_normal_pair(2000, stream(23, 1)))
        assert not budget_passes(res)
        assert abs(res["estimate"]) > 1e6 * res["budget"]

    def test_translation_invariance(self):
        rng = stream(24, 0)
        x = rng.standard_normal(20_000)
        y = rng.standard_normal(20_000) + 0.7
        base = wp_empirical_1d(x, y, 2.0)
        shifted = wp_empirical_1d(x + 5.0, y + 5.0, 2.0)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestOnePairRunner:
    """wasserstein-test draws one sorted pair, x then y from stream(seed, 7, 0),
    for every p and both row kinds."""

    @pytest.mark.parametrize("seed", range(12))
    def test_the_first_shift_row_is_the_per_p_runners(self, seed):
        report = cli.run_wasserstein_test({}, seed)
        want = reference_shift_linearity_check(2.0, 2.0, 100_000, stream(seed, 7, 0))
        row = report.rows[0]
        assert (row["case"], row["p"]) == ("shift-linearity", 2.0)
        got = {"estimate": row["renormalized"], "target": row["profile"],
               "bound": row["bound"], "lower": report.meta["shift_lower"][0]}
        assert hex_dict(got) == hex_dict(want)

    def test_a_run_draws_and_sorts_two_samples(self, monkeypatch):
        draws, sorts = [], []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, n):
                draws.append(n)
                return self.rng.standard_normal(n)

        np_sort = np.sort
        monkeypatch.setattr(cli, "stream", lambda *key: Counting(stream(*key)))
        monkeypatch.setattr(np, "sort", lambda a: sorts.append(len(a)) or np_sort(a))
        report = cli.run_wasserstein_test({"n": 1000, "p_grid": [0.25, 0.5, 1, 2, 3]}, 0)
        assert len(report.rows) == 10 and all(r["pass"] for r in report.rows)
        assert draws == [1000, 1000] and sorts == [1000, 1000]


class Replay:
    """Stands in for a generator: ``standard_normal`` returns the given
    samples in turn."""

    def __init__(self, *samples):
        self.samples = iter(samples)

    def standard_normal(self, n):
        sample = next(self.samples)
        assert sample.size == n
        return sample.copy()


def normal_law(n, rng):
    return rng.standard_normal(n)


def awkward_pair(seed, n):
    """Two samples of size n with ties, signed zeros and subnormals that
    c = 0.1 rounds to +-0."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, -1e-320])
    samples = []
    for _ in range(2):
        x = rng.uniform(-1e3, 1e3, n)
        x[rng.random(n) < 0.2] = x[0]
        pick = rng.random(n) < 0.3
        x[pick] = rng.choice(special, int(pick.sum()))
        samples.append(x)
    return samples


def hex_dict(res):
    return {k: v.hex() if isinstance(v, float) else v for k, v in res.items()}


def reference_shift_linearity_check(u, p, n, rng):
    """shift_linearity_check as it drew x then y from its own ``rng`` for
    every p and sorted both in the estimate."""
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    est = wp_empirical_1d(x + u, y, p)
    beta = empirical_distance_bound(max(p, 1.0), n)
    if p >= 1.0:
        lo = hi = abs(u)
        below = above = 2.0 * beta
    else:
        lo, hi = shift_bounds(u, p, gaussian_abs_moment(p))
        below, above = 2.0 * beta ** p, (2.0 * beta) ** p
    unit = 2.0 ** -53
    delta = 3.0 * unit * (abs(u) + float(np.abs(x).max() + np.abs(y).max()))
    rounding = (delta ** concentration_exponent(p)
                + ((n - 1).bit_length() + 25) * unit * (est + hi))
    grow = 1.0 + 2.0 ** -40
    lower = lo - grow * (below + rounding)
    bound = grow * (above + rounding)
    return {"estimate": est, "target": hi, "bound": bound, "lower": lower}


def reference_homogeneity_check(c, law_sampler, p, n, rng):
    """homogeneity_check as it sorted each sample three times: in both
    estimates and again for the rounding budget."""
    xs = law_sampler(n, rng)
    ys = law_sampler(n, rng) + 1.0
    base = wp_empirical_1d(xs, ys, p)
    scaled = wp_empirical_1d(c * xs, c * ys, p)
    factor = abs(c) ** concentration_exponent(p)
    u = 2.0 ** -53
    delta = 3.0 * u * abs(c) * (np.abs(np.sort(xs)) + np.abs(np.sort(ys)))
    if p >= 1.0:
        pairwise = float(np.mean(delta ** p) ** (1.0 / p))
    else:
        pairwise = float(np.mean(delta ** p))
    ceil_log2_n = (n - 1).bit_length()
    evaluation = (ceil_log2_n + 25) * u * (scaled + factor * base)
    budget = (1.0 + 2.0 ** -40) * (pairwise + evaluation)
    return {"estimate": scaled - factor * base, "budget": budget, "factor": factor}
