"""Eigensystem and wave-spectrum tests.

Eigenvalues are cross-checked against a finite-difference discretization of
the interval Laplacian, wave roots against numpy's polynomial root finder
and a 50-digit mpmath oracle, and modal splits against dense 2x2 linear
solves.
"""
import itertools
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from spdecutoff import (
    EigenSystem,
    ModeCoefficients,
    build_box_eigensystem,
    heat_leading_data,
    wave_decompose,
    wave_overdamped_leader,
    wave_spectrum,
)
from spdecutoff.errors import GapOverflowError, InvalidDomainError, ZeroInitialDatumError
from spdecutoff.spectral_core import HeatLeadingData, _sum3


def fd_interval_eigenvalues(L, n_modes, n_grid=6000):
    """Finite-difference oracle for -u'' on (0, L) with Dirichlet ends."""
    h = L / (n_grid + 1)
    d = np.full(n_grid, 2.0) / h**2
    e = np.full(n_grid - 1, -1.0) / h**2
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, n_modes - 1),
                            eigvals_only=True)
    return vals


class TestBoxSpectrum:
    def test_unit_pi_interval_squares(self):
        system = build_box_eigensystem([(math.pi, 5)])
        assert np.allclose(system.lambdas, [1, 4, 9, 16, 25], rtol=1e-14)

    def test_fd_oracle_pi_interval(self):
        system = build_box_eigensystem([(math.pi, 3)])
        oracle = fd_interval_eigenvalues(math.pi, 3)
        assert np.allclose(system.lambdas, oracle, rtol=1e-5)

    def test_fd_oracle_unit_interval(self):
        system = build_box_eigensystem([(1.0, 2)])
        oracle = fd_interval_eigenvalues(1.0, 2)
        assert np.allclose(system.lambdas, [math.pi**2, 4 * math.pi**2], rtol=1e-14)
        assert np.allclose(system.lambdas, oracle, rtol=1e-5)

    def test_square_box_sum_rule(self):
        system = build_box_eigensystem([(math.pi, 1), (math.pi, 1)])
        assert system.lambdas.shape == (1,)
        assert system.lambdas[0] == pytest.approx(2.0, rel=1e-14)

    def test_square_box_exact_ties_and_lexicographic_order(self):
        system = build_box_eigensystem([(math.pi, 3), (math.pi, 3)])
        # (1,2) and (2,1) tie exactly at 5; lexicographic tie-break
        i5 = [i for i, lam in enumerate(system.lambdas) if lam == 5.0]
        assert len(i5) == 2
        assert system.index_map[i5[0]] == (1, 2)
        assert system.index_map[i5[1]] == (2, 1)

    def test_sorted_regardless_of_enumeration(self):
        system = build_box_eigensystem([(1.5, 4), (2.5, 3)])
        brute = sorted(
            (k1 * math.pi / 1.5) ** 2 + (k2 * math.pi / 2.5) ** 2
            for k1 in range(1, 5)
            for k2 in range(1, 4)
        )
        assert np.allclose(system.lambdas, brute, rtol=1e-13)
        assert np.all(np.diff(system.lambdas) >= 0)

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomainError):
            build_box_eigensystem([(-1.0, 3)])
        with pytest.raises(InvalidDomainError):
            build_box_eigensystem([(1.0, 0)])
        with pytest.raises(InvalidDomainError):
            build_box_eigensystem([])

    def test_json_roundtrip(self):
        system = build_box_eigensystem([(math.pi, 3), (2.0, 2)])
        obj = json.loads(system.to_json())
        assert np.array_equal(np.asarray(obj["lambdas"]), system.lambdas)
        assert [tuple(k) for k in obj["index_map"]] == list(system.index_map)
        assert [tuple(d) for d in obj["dims"]] == list(system.dims)


def box_eigensystem_loop(dims):
    """Reference build: one Python tuple per mode, each eigenvalue the fsum
    of its sorted terms, then a (lambda, multi-index) tuple sort."""
    coeffs = [(math.pi / L) ** 2 for L, _ in dims]
    entries = []
    for multi in itertools.product(*(range(1, m + 1) for _, m in dims)):
        terms = sorted(k * k * c for k, c in zip(multi, coeffs))
        entries.append((math.fsum(terms), multi))
    entries.sort(key=lambda e: (e[0], e[1]))
    return np.array([e[0] for e in entries]), tuple(e[1] for e in entries)


def assert_matches_loop(dims):
    system = build_box_eigensystem(dims)
    lam, idx = box_eigensystem_loop(dims)
    assert system.lambdas.tobytes() == lam.tobytes()
    assert system.index_map == idx


@st.composite
def boxes(draw):
    """1-4 axes with 1-12 modes each; sides equal, integer multiples of one
    base length, or independent, so that exact ties occur."""
    d = draw(st.integers(1, 4))
    modes = draw(st.lists(st.integers(1, 12), min_size=d, max_size=d))
    base = draw(st.sampled_from([1.0, math.pi, 0.7, 2.5]))
    kind = draw(st.sampled_from(["equal", "ratio", "random"]))
    if kind == "equal":
        sides = [base] * d
    elif kind == "ratio":
        sides = [base * r for r in draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))]
    else:
        sides = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    return list(zip(sides, modes))


class TestVectorisedBuild:
    @settings(max_examples=150)
    @given(boxes())
    def test_matches_loop(self, dims):
        assert_matches_loop(dims)

    def test_matches_loop_on_tied_cube(self):
        dims = [(math.pi, 6)] * 3
        assert_matches_loop(dims)
        assert np.any(np.diff(build_box_eigensystem(dims).lambdas) == 0.0)

    def test_matches_loop_on_3d_benchmark_box(self):
        assert_matches_loop([(math.pi, 30), (1.1 * math.pi, 30), (1.3 * math.pi, 30)])


HEAT_3D_BOX = [(math.pi, 30), (1.1 * math.pi, 30), (1.3 * math.pi, 30)]


def box_spectrum_json_fsum(dims):
    """Reference ``spectrum`` output: the build with one math.fsum per mode
    and an eager tuple index map, serialised as EigenSystem.to_json does."""
    coeffs = [(math.pi / L) ** 2 for L, _ in dims]
    grids = np.meshgrid(*(np.arange(1, m + 1) for _, m in dims), indexing="ij")
    axes = [g.ravel() for g in grids]
    terms = [((k * k).astype(float) * c).tolist() for k, c in zip(axes, coeffs)]
    lam = np.fromiter(map(math.fsum, zip(*terms)), float, axes[0].size)
    order = np.argsort(lam, kind="stable")
    idx = tuple(zip(*(k[order].tolist() for k in axes)))
    return json.dumps({"dims": [[float(L), int(m)] for L, m in dims],
                       "lambdas": [float(x) for x in lam[order]],
                       "index_map": [list(k) for k in idx]})


def random_triples(rng, n):
    """n positive triples: magnitudes spread over 1e-300..1e300, subnormals,
    terms a few ulps apart, and sums that fall exactly halfway between two
    doubles or just above the halfway point."""
    x = 10.0 ** rng.uniform(-300.0, 300.0, (n, 3))
    kind = rng.integers(0, 4, n)
    sub = rng.uniform(0.0, 2.2250738585072014e-308, (n, 3)) * 10.0 ** rng.uniform(-16, 0, (n, 3))
    near = (10.0 ** rng.uniform(-300.0, 300.0, (n, 1))
            * (1.0 + rng.integers(-3, 4, (n, 3)) * 2.0 ** -52)
            * 2.0 ** rng.integers(-60, 2, (n, 3)).astype(float))
    e = rng.integers(-900, 900, n).astype(float)
    a = 2.0 ** e * (1.0 + 2.0 ** -52 * rng.integers(0, 2, n))  # even or odd significand
    half = 2.0 ** (e - 53)  # half an ulp of a
    c = rng.choice([0.0, 2.0 ** -200], n) * 2.0 ** e  # exactly halfway, or just above
    split = np.stack([a, 0.5 * half, 0.5 * half], axis=1)  # the half ulp in two parts
    tie = np.stack([a, half, c], axis=1)
    x = np.where((kind == 0)[:, None], sub, x)
    x = np.where((kind == 1)[:, None], near, x)
    x = np.where((kind == 2)[:, None], tie, x)
    x = np.where((kind == 3)[:, None] & (rng.random((n, 1)) < 0.5), split, x)
    return x[:, rng.permutation(3)]


class TestCorrectlyRoundedBuild:
    def test_three_term_sum_equals_fsum(self):
        x = random_triples(np.random.default_rng(17), 100_000)
        assert np.count_nonzero(x < 2.2250738585072014e-308) > 10_000  # subnormals
        got = _sum3(x[:, 0].copy(), x[:, 1].copy(), x[:, 2].copy())
        want = np.array([math.fsum(t) for t in x.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_zero_padding_gives_the_term_and_one_add(self):
        x = random_triples(np.random.default_rng(18), 10_000)
        a, b = x[:, 0].copy(), x[:, 1].copy()
        zero = np.zeros(())
        assert _sum3(a, zero, zero).tobytes() == a.tobytes()
        assert _sum3(a, b, zero).tobytes() == (a + b).tobytes()

    @pytest.mark.parametrize("dims", [HEAT_3D_BOX, [(math.pi, 12), (math.pi, 12), (math.pi, 6)]],
                             ids=["heat-3d", "tied-12x12x6"])
    def test_spectrum_json_equals_the_fsum_build(self, dims):
        system = build_box_eigensystem(dims)
        if dims[0][1] == 12:
            assert np.count_nonzero(np.diff(system.lambdas) == 0.0) > 200
        assert system.to_json() == box_spectrum_json_fsum(dims)

    def test_index_map_is_built_on_first_read(self):
        system = build_box_eigensystem([(1.0, 3), (2.0, 2)])
        assert "index_map" not in vars(system)
        assert system.index_map == ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
        assert "index_map" in vars(system)
        assert all(type(k) is int for multi in system.index_map for k in multi)
        assert EigenSystem.from_lambdas([3.0, 1.0, 2.0]).index_map == ((1,), (2,), (3,))

    @pytest.mark.parametrize("dims", [[(3.2e-154, 1)] * 2, [(3.2e-154, 1)] * 3,
                                      [(1e-153, 30)]])
    def test_overflowing_eigenvalue_is_rejected(self, dims):
        with np.errstate(over="ignore"):  # the last box overflows its term
            with pytest.raises(InvalidDomainError, match="positive and finite"):
                build_box_eigensystem(dims)


def heat_leading_data_loop(h):
    """Reference: the leading data with one Python test of exact equality per
    supported mode and a membership test for the rest."""
    support = h.nonzero_indices()
    lam = h.system.lambdas
    first = int(support[0])
    leaders = tuple(int(i) for i in support if float(lam[i]) == float(lam[first]))
    rest = [int(i) for i in support if int(i) not in leaders]
    values = np.zeros_like(h.values)
    for i in leaders:
        values[i] = h.values[i]
    v = ModeCoefficients(h.system, values)
    return HeatLeadingData(first=first, leaders=leaders, next_index=min(rest) if rest else None,
                           v=v, shape_norm=v.norm, amplitude=h.norm)


def assert_same_leading_data(h):
    got, want = heat_leading_data(h), heat_leading_data_loop(h)
    for name in ("first", "leaders", "next_index"):
        assert getattr(got, name) == getattr(want, name)
        assert repr(getattr(got, name)) == repr(getattr(want, name))
    assert got.v.values.tobytes() == want.v.values.tobytes()
    assert got.shape_norm.hex() == want.shape_norm.hex()
    assert got.amplitude.hex() == want.amplitude.hex()


class TestVectorisedLeadingData:
    def test_dense_datum_on_the_heat_3d_box(self):
        system = build_box_eigensystem(HEAT_3D_BOX)
        rng = np.random.default_rng(19)
        values = rng.normal(size=system.n_modes)
        values[rng.random(system.n_modes) < 0.1] = 0.0
        assert_same_leading_data(ModeCoefficients(system, values))

    def test_exact_ties_on_a_cube(self):
        system = build_box_eigensystem([(math.pi, 6)] * 3)
        values = np.zeros(system.n_modes)
        values[1:40] = np.arange(1.0, 40.0)  # modes 1-3 tie at 6
        h = ModeCoefficients(system, values)
        assert heat_leading_data(h).leaders == (1, 2, 3)
        assert_same_leading_data(h)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_tied_spectra(self, n, seed):
        # runs of eigenvalues that tie exactly or differ by 1e-14 to 1e-9
        # relative: only the exact ties lead together
        rng = np.random.default_rng(seed)
        base = np.repeat(rng.uniform(0.1, 100.0, n), rng.integers(1, 5, n))
        rel = rng.choice([0.0, 1e-14, 0.5e-12, 1e-12, 2e-12, 1e-9], base.size)
        system = EigenSystem.from_lambdas(base * (1.0 + rel))
        values = rng.normal(size=system.n_modes)
        values[rng.random(system.n_modes) < 0.4] = 0.0
        values[rng.integers(system.n_modes)] = 1.0  # never the zero datum
        assert_same_leading_data(ModeCoefficients(system, values))


class TestHeatLeadingData:
    def test_single_leader(self):
        system = build_box_eigensystem([(math.pi, 4)])
        h = ModeCoefficients(system, np.array([0.0, 1.0, 0.5, 0.0]))
        lead = heat_leading_data(h)
        assert lead.first == 1
        assert lead.leaders == (1,)
        assert lead.next_index == 2
        assert lead.lambda_lead == pytest.approx(4.0)
        assert lead.lambda_next == pytest.approx(9.0)
        assert lead.shape_norm == pytest.approx(1.0)
        # the leader interface shared with the overdamped wave leader
        assert lead.rate == lead.lambda_lead
        assert lead.margin == lead.lambda_lead - lead.lambda_next
        assert lead.amplitude == h.norm

    def test_tied_leaders_pythagoras(self):
        system = EigenSystem.from_lambdas([2.0, 2.0, 5.0])
        h = ModeCoefficients(system, np.array([3.0, 4.0, 1.0]))
        lead = heat_leading_data(h)
        assert lead.leaders == (0, 1)
        assert lead.next_index == 2
        assert lead.shape_norm == pytest.approx(5.0)

    def test_concentrated_datum_has_no_next(self):
        system = build_box_eigensystem([(math.pi, 3)])
        h = ModeCoefficients(system, np.array([0.0, 2.0, 0.0]))
        lead = heat_leading_data(h)
        assert lead.next_index is None and lead.lambda_next is None
        assert lead.margin == -math.inf

    def test_a_near_tie_is_the_next_eigenvalue(self):
        system = EigenSystem.from_lambdas([1.0, 1.0000000000005, 4.0])
        lead = heat_leading_data(ModeCoefficients(system, np.array([1.0, 1.0, 0.5])))
        assert lead.leaders == (0,)
        assert lead.next_index == 1
        assert lead.margin == 1.0 - 1.0000000000005

    def test_zero_datum_rejected(self):
        system = build_box_eigensystem([(math.pi, 3)])
        with pytest.raises(ZeroInitialDatumError):
            heat_leading_data(ModeCoefficients(system, np.zeros(3)))

    def test_projection_support(self):
        system = EigenSystem.from_lambdas([1.0, 1.0, 3.0, 7.0])
        h = ModeCoefficients(system, np.array([0.5, -0.5, 0.0, 2.0]))
        lead = heat_leading_data(h)
        assert lead.leaders == (0, 1)
        assert np.array_equal(lead.v.values, [0.5, -0.5, 0.0, 0.0])
        assert lead.next_index == 3

    def test_support_keeps_nan_and_inf_and_drops_signed_zeros(self):
        values = np.array([0.0, -0.0, np.nan, 1e-320, -np.inf, 0.0, -2.0])
        h = ModeCoefficients(EigenSystem.from_lambdas(np.arange(1.0, 8.0)), values)
        assert np.array_equal(h.nonzero_indices(), np.flatnonzero(values))
        assert h.nonzero_indices().tolist() == [2, 3, 4, 6]


class TestWaveSpectrum:
    def test_roots_against_numpy(self):
        system = EigenSystem.from_lambdas([2.0])
        sp = wave_spectrum(3.0, system)
        assert sp.n_over == 1
        oracle = np.sort(np.roots([1.0, 3.0, 2.0]))
        assert -1.5 - sp.s[0] == pytest.approx(oracle[0], rel=1e-12)  # -2
        assert sp.root_slow[0] == pytest.approx(oracle[1], rel=1e-12)  # -1

    @pytest.mark.parametrize("gamma", [10.0, 1e3, 1e5, 1e8, 1e200])
    def test_slow_root_under_strong_damping(self, gamma):
        # -gamma/2 + sqrt(gamma^2/4 - lambda) cancels in floats, Vieta's form
        # does not; 450 digits carry the direct form past gamma^2/lambda = 1e400
        sp = wave_spectrum(gamma, EigenSystem.from_lambdas([math.pi ** 2]))
        with mpmath.workdps(450):
            h, lam = mpmath.mpf(gamma) / 2, mpmath.mpf(math.pi ** 2)
            exact = -h + mpmath.sqrt(h * h - lam)
            assert abs(sp.root_slow[0] - exact) <= 2e-16 * abs(exact)
            assert abs(sp.s[0] - mpmath.sqrt(h * h - lam)) <= 2e-16 * sp.s[0]

    def test_oscillatory_theta(self):
        system = EigenSystem.from_lambdas([1.0])
        sp = wave_spectrum(1.0, system)
        assert sp.n_over == 0
        assert sp.theta[0] == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
        om = -0.5 + 1j * sp.theta[0]
        assert abs(om**2 + 1.0 * om + 1.0) < 1e-14
        assert abs(om) ** 2 == pytest.approx(1.0, rel=1e-14)

    def test_overdamped_prefix_count(self):
        system = build_box_eigensystem([(math.pi, 8)])
        sp = wave_spectrum(9.0, system)
        # gamma^2 = 81 > 4 k^2 iff k <= 4
        brute = sum(1 for k in range(1, 9) if 81.0 > 4.0 * k**2)
        assert sp.n_over == brute == 4

    def test_critical_damping_accepted(self):
        # gamma^2 == 4 lambda: a critically damped mode (s = 0), kept with
        # the overdamped prefix and its double root -gamma/2
        sp = wave_spectrum(2.0, EigenSystem.from_lambdas([1.0, 1.0 + 2.0 ** -52]))
        assert sp.n_over == 1
        assert sp.s[0] == 0.0 and sp.root_slow[0] == -1.0
        # one ulp above critical: oscillatory, theta = sqrt(lambda - 1) to full accuracy
        assert sp.theta[0] == pytest.approx(2.0 ** -26, rel=1e-15)

    def test_tied_spectrum_accepted(self):
        # lambda = 2, 5, 5, 8: each mode is its own block, tied modes share roots
        system = build_box_eigensystem([(math.pi, 2), (math.pi, 2)])
        assert system.lambdas[1] == system.lambdas[2]
        sp = wave_spectrum(1.0, system)
        assert sp.n_over == 0 and sp.theta[1] == sp.theta[2]
        sp = wave_spectrum(5.0, system)
        assert sp.n_over == 3 and sp.root_slow[1] == sp.root_slow[2]

    def test_slow_rate_rounding_to_zero_rejected(self):
        with pytest.raises(InvalidDomainError, match="too small"):
            wave_spectrum(1e300, EigenSystem.from_lambdas([1e-10]))
        with pytest.raises(InvalidDomainError, match="too small"):
            wave_spectrum(1e-307, EigenSystem.from_lambdas([1.0]))

    def test_invalid_gamma(self):
        system = EigenSystem.from_lambdas([1.0])
        with pytest.raises(InvalidDomainError):
            wave_spectrum(-1.0, system)

    @pytest.mark.parametrize("gamma", [1.0, 3.0, 1e300])
    def test_gap_overflow_rejected(self, gamma):
        # at lambda = DBL_MAX damping_gap gives (inf, inf), which would count
        # the mode as overdamped and move mode 0 into the overdamped prefix
        big = sys.float_info.max
        with pytest.raises(GapOverflowError, match=r"mode 1: lambda = 1\.79.* not finite"):
            wave_spectrum(gamma, EigenSystem.from_lambdas([1.0, big]))
        # just below the overflow both modes keep their class
        sp = wave_spectrum(1.0, EigenSystem.from_lambdas([1.0, big * (1.0 - 2.0 ** -25)]))
        assert sp.n_over == 0 and np.isfinite(sp.theta).all()


class TestWaveDecompose:
    def test_pure_slow_mode(self):
        system = EigenSystem.from_lambdas([2.0])
        sp = wave_spectrum(3.0, system)
        lead = wave_overdamped_leader(wave_decompose(sp, np.array([1.0]),
                                                     np.array([sp.root_slow[0]])))
        assert lead.case == "slow"
        assert lead.coefficient == pytest.approx(1.0, rel=1e-14)
        assert lead.margin == -math.inf  # fast coordinate 0

    def test_example_against_dense_solve(self):
        system = EigenSystem.from_lambdas([2.0])
        sp = wave_spectrum(3.0, system)
        z = wave_decompose(sp, np.array([1.0]), np.array([0.0]))
        A = np.array([[1.0, 1.0], [sp.root_slow[0], -1.5 - sp.s[0]]])
        a = np.linalg.solve(A, np.array([1.0, 0.0]))
        lead = wave_overdamped_leader(z)
        assert lead.coefficient == pytest.approx(a[0], rel=1e-13)  # 2
        assert lead.coefficient == pytest.approx(2.0)
        # the fast coordinate a[1] = -1 is the rest of the certificate
        assert lead.amplitude == pytest.approx(abs(a[1]) * math.sqrt(3.0 + A[1, 1] ** 2),
                                               rel=1e-13)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        system = build_box_eigensystem([(1.0, 6)])
        sp = wave_spectrum(9.0, system)
        for _ in range(25):
            u = rng.standard_normal(6)
            w = rng.standard_normal(6)
            z = wave_decompose(sp, u, w)
            assert np.allclose(z.position, u, atol=1e-12)
            assert np.allclose(z.velocity, w, atol=1e-12)

    def test_graph_norm(self):
        system = EigenSystem.from_lambdas([2.0])
        sp = wave_spectrum(3.0, system)
        z = wave_decompose(sp, np.array([1.0]), np.array([-1.0]))
        # (1 + 2) * 1 + 1 = 4
        assert z.norm == pytest.approx(2.0, rel=1e-14)

    def test_zero_state(self):
        system = EigenSystem.from_lambdas([2.0, 9.0])
        sp = wave_spectrum(3.0, system)
        z = wave_decompose(sp, np.zeros(2), np.zeros(2))
        assert z.is_zero() and z.norm == 0.0
