"""Kernel parameter selection and Gaussian coefficient tests."""
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from reflectsim.cli import kernel_report
from reflectsim.gaussian_kernel import (
    KernelParams,
    _grid_range,
    alpha_coeffs,
    arc_values,
    circle_values,
    kernel_sup_on_gap,
    kernel_value,
    phi_amplitudes,
    poisson_check,
    psi_amplitudes,
    select_params,
    trig_poly,
)
from oracles import (
    chernoff_tail,
    gaussian_kernel_sum,
    kernel_sup_dense_grid,
    phi_norm_reversed,
    trig_poly_direct,
    trig_poly_mp,
)

GRID = [(e, d) for e in (1e-1, 1e-2, 1e-3) for d in (0.5, 0.1, 0.02)]


class TestSelectParams:
    def test_frozen_snapshots(self):
        p = select_params(1e-2, 0.5)
        assert (p.L, p.m, p.Lstar) == (128, 8, 8)
        p = select_params(1e-3, 0.5)
        assert (p.L, p.m, p.Lstar) == (128, 8, 11)
        p = select_params(0.2, 1.5)
        assert (p.L, p.m, p.Lstar) == (16, 5, 5)
        p = select_params(1e-3, 0.05)
        assert (p.L, p.m, p.Lstar) == (1024, 11, 11)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_params(0.3, 0.5)
        with pytest.raises(ValueError):
            select_params(0.0, 0.5)
        with pytest.raises(ValueError):
            select_params(1e-2, math.pi + 1e-9)
        with pytest.raises(ValueError):
            select_params(1e-2, 0.5, c=1.0)
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError):
                select_params(1e-2, 0.5, c=c)
            with pytest.raises(ValueError):
                dataclasses.replace(select_params(1e-2, 0.5), c=c)

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_invariants_hold(self, eps, delta):
        # KernelParams.__post_init__ re-validates every inequality
        p = select_params(eps, delta)
        assert p.L == 1 << (p.m - 1)
        assert 1 <= p.Lstar <= p.L

    def test_gap_pi_accepted(self):
        # the same (0, pi] domain as synth_unitary and choose_pea_params
        p = select_params(1e-2, math.pi)
        assert p.delta == math.pi

    def test_eps_shrink_at_most_doubles_L(self):
        for delta in (0.9, 0.3, 0.08):
            for eps in (1e-1, 1e-2):
                l_hi = select_params(eps, delta).L
                l_lo = select_params(eps / 10, delta).L
                assert l_hi <= l_lo <= 2 * l_hi

    def test_delta_halving_doubles_L_up_to_rounding(self):
        for eps in (1e-1, 1e-3):
            deltas = (0.8, 0.4, 0.2, 0.1)
            ls = [select_params(eps, d).L for d in deltas]
            for a, b in zip(ls, ls[1:]):
                assert a <= b <= 4 * a
            assert 4 * ls[0] <= ls[-1] <= 16 * ls[0]

    def test_lstar_stable_across_delta(self):
        for eps in (1e-1, 1e-2, 1e-3):
            lstars = [select_params(eps, d).Lstar
                      for d in (0.5, 0.05, 0.005)]
            assert max(lstars) - min(lstars) <= 1

    def test_params_validation_catches_bad_dz(self):
        p = select_params(1e-2, 0.5)
        with pytest.raises(ValueError):
            KernelParams(epsilon=p.epsilon, delta=p.delta, c=p.c,
                         dz=p.dz * 10, L=p.L, Lstar=p.Lstar, m=p.m)


class TestAlphaCoeffs:
    def test_alpha_zero(self):
        p = select_params(1e-2, 0.5)
        alphas = alpha_coeffs(p)
        assert alphas[p.L] == pytest.approx(p.dz / math.sqrt(2 * math.pi),
                                            rel=1e-15)

    def test_even_symmetry(self):
        p = select_params(1e-2, 0.5)
        alphas = alpha_coeffs(p)
        for l in (1, 2, 17, p.L - 1):
            assert alphas[p.L + l] == alphas[p.L - l]

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_sum_near_one(self, eps, delta):
        p = select_params(eps, delta)
        total = float(np.sum(alpha_coeffs(p)))
        assert 1 - eps <= total <= 1 + eps

    def test_positive_strictly_decreasing(self):
        p = select_params(1e-1, 0.5)
        vals = alpha_coeffs(p)
        assert vals.min() > 0
        right = vals[p.L:]  # l = 0 .. L-1
        assert np.all(np.diff(right) < 0)


class TestKernelValue:
    def test_matches_reverse_order_oracle(self):
        p = select_params(1e-1, 0.5)
        for lam in (0.0, 0.3, 2.2, 5.9):
            got = kernel_value(lam, p)
            want = gaussian_kernel_sum(lam, p.dz, p.L)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_lemma_bounds(self, eps, delta):
        p = select_params(eps, delta)
        assert abs(kernel_value(0.0, p) - 1.0) <= eps
        assert kernel_sup_on_gap(p, alpha_coeffs(p), points=1000) <= eps

    def test_conjugate_symmetry(self):
        p = select_params(1e-2, 0.5)
        for lam in (0.4, 1.9, 3.3):
            assert kernel_value(lam, p) == pytest.approx(
                np.conj(kernel_value(-lam, p)), abs=1e-14)

    def test_vectorized_matches_scalar(self):
        p = select_params(1e-2, 0.5)
        lams = np.array([0.0, 0.7, 4.4])
        vec = kernel_value(lams, p)
        for i, lam in enumerate(lams):
            assert vec[i] == pytest.approx(kernel_value(float(lam), p))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("eps,delta", [(1.166e-3, 0.01858),
                                           (8.371e-4, 0.01822)])
    def test_long_double_reference_at_both_gap_edges(self, eps, delta):
        # L = 4096: l lam formed in double near 2 pi - delta errs by 1e-14
        p = select_params(eps, delta)
        alphas = alpha_coeffs(p)
        two_pi = 8 * np.arctan(np.longdouble(1))
        ls = np.arange(-p.L, p.L).astype(np.longdouble)
        weights = alphas.astype(np.longdouble)
        h = 2 * math.pi / (4 * p.L)
        lo, hi = p.delta, 2 * math.pi - p.delta
        lams = np.concatenate([np.linspace(lo, lo + 2 * h, 64),
                               np.linspace(hi - 2 * h, hi, 64)])
        got = trig_poly(alphas, lams)
        angles = np.outer(lams.astype(np.longdouble), ls) % two_pi
        assert np.max(np.abs(got.real - np.cos(angles) @ weights)) <= 1.5e-15
        assert np.max(np.abs(got.imag - np.sin(angles) @ weights)) <= 1.5e-15

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_chernoff_tail_budget(self, eps, delta):
        p = select_params(eps, delta)
        tail, bound = chernoff_tail(p)
        assert tail <= bound <= eps / (2 * p.c) * (1 + 1e-9)


def _gap_edge_table(L):
    """(coefficients, gap) of a kernel of size L: ``select_params`` at
    eps = 1/5 and the largest sampled gap that gives L. No eps <= 1/5
    selects L < 8; there it is the Gaussian with L dz = sqrt(12 ln 5) and
    gap 1."""
    if L < 8:
        dz = math.sqrt(12 * math.log(5)) / L
        ls = np.arange(-L, L)
        return (dz / math.sqrt(2 * math.pi)) * np.exp(-((ls * dz) ** 2) / 2), 1.0
    gap = next(g for g in np.geomspace(math.pi, 1e-6, 600)
               if select_params(0.2, g).L == L)
    return alpha_coeffs(select_params(0.2, gap)), gap


class TestTrigPoly:
    @pytest.mark.parametrize("L", [1 << k for k in range(1, 20, 2)])
    def test_no_less_accurate_than_direct_sum(self, L):
        # both sums sit at the roundoff floor on the gap edges: the
        # evaluator may err by no more than the direct sum there, or than
        # two units of roundoff of the coefficient mass
        coeffs, gap = _gap_edge_table(L)
        lams = np.array([gap, 2 * math.pi - gap])
        want = trig_poly_mp(coeffs, lams)

        def error(got):
            return max(float(abs(mpmath.mpc(g) - w)) for g, w in zip(got, want))

        floor = 2.0 ** -52 * float(np.abs(coeffs).sum())
        assert error(trig_poly(coeffs, lams)) <= max(
            error(trig_poly_direct(coeffs, lams)), floor)

    @pytest.mark.parametrize("half", [1, 2, 3, 5, 32, 100, 256])
    def test_matches_direct_sum(self, half):
        # powers of two and not, so the split pads its last giant step
        rng = np.random.default_rng(half)
        coeffs = rng.normal(size=2 * half) + 1j * rng.normal(size=2 * half)
        lams = np.concatenate([rng.uniform(0, 2 * math.pi, 50),
                               [0.0, math.pi, 2 * math.pi]])
        tol = 1e-13 * np.abs(coeffs).sum()
        got = trig_poly(coeffs, lams)
        assert got.shape == lams.shape
        assert np.max(np.abs(got - trig_poly_direct(coeffs, lams))) <= tol
        scalar = trig_poly(coeffs, 0.7)
        assert isinstance(scalar, complex)
        assert abs(scalar - trig_poly_direct(coeffs, 0.7)) <= tol

    def test_working_set_does_not_grow_with_L(self):
        # 2^14 angles at L = 2^12: a direct sum in chunks of 2^22 entries
        # holds a 64 MiB exponential table
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=1 << 13)
        lams = rng.uniform(0, 2 * math.pi, 1 << 14)
        tracemalloc.start()
        try:
            trig_poly(coeffs, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def _whole_array_circle(coeffs, n):
    """circle_values as one np.add.at fold and one scaled inverse FFT."""
    half = coeffs.shape[0] // 2
    folded = np.zeros(n, dtype=np.complex128)
    np.add.at(folded, np.arange(-half, half) % n, coeffs)
    return n * np.fft.ifft(folded)


def _whole_array_arc(coeffs, start, stop, num):
    """arc_values with each array made whole, as one expression."""
    size = coeffs.shape[0]
    half = size // 2
    step = (stop - start) / (num - 1) if num > 1 else 0.0
    start_hi = float(np.float32(start))
    ls = np.arange(-half, half)
    x = (coeffs * np.exp(1j * (ls * start_hi))
         * np.exp(1j * (ls * (start - start_hi) + 0.5 * step * ls * ls)))
    fft_len = 1 << (size + num - 2).bit_length()
    m = np.arange(1 - half, half + num)
    chirp = np.zeros(fft_len, dtype=np.complex128)
    chirp[(m - half) % fft_len] = np.exp(-0.5j * step * m * m)
    y = np.fft.ifft(np.fft.fft(x, fft_len) * np.fft.fft(chirp))[:num]
    k = np.arange(num)
    return y * np.exp(0.5j * step * k * k)


class TestInPlaceBits:
    """The in-place FFT paths give the bits of the whole-array forms."""

    @pytest.mark.parametrize("n", [3, 48, 64, 65, 128, 1000])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_circle_values(self, n, complex_coeffs):
        # 2L = 64: n >= 64 folds by two slices, n < 64 by np.add.at
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=64)
        if complex_coeffs:
            coeffs = coeffs + 1j * rng.normal(size=64)
        assert np.array_equal(circle_values(coeffs, n),
                              _whole_array_circle(coeffs, n))

    @pytest.mark.parametrize("start,stop,num", [
        (0.1, 0.2, 200), (3.0, 3.0001, 200), (-1.0, 5.0, 7), (1.0, 1.0, 1),
        (2.0, 2.5, 2), (6.2, 0.3, 33)])
    @pytest.mark.parametrize("size", [2, 64, 1000])
    def test_arc_values(self, start, stop, num, size):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert np.array_equal(arc_values(coeffs, start, stop, num),
                              _whole_array_arc(coeffs, start, stop, num))

    @pytest.mark.parametrize("n", [4, 1000, 1024, 1 << 14])
    def test_grid_range_is_the_float_mask(self, n):
        h = 2 * math.pi / n
        grid = h * np.arange(n)
        # gap edges on grid points, one ulp either side, between points,
        # and gaps with no grid point
        edges = [grid[1], grid[n // 3], np.nextafter(grid[n // 3], 0),
                 np.nextafter(grid[n // 3], 7), grid[2] + h / 3,
                 math.pi, 1e-300, 0.0]
        for lo in edges:
            for hi in [2 * math.pi - lo, lo, np.nextafter(lo, 0),
                       2 * math.pi]:
                want = np.flatnonzero((grid >= lo) & (grid <= hi))
                first, last = _grid_range(h, n, float(lo), float(hi))
                assert list(range(first, last + 1)) == want.tolist()

    def test_declared_numpy_floor_has_fft_out(self):
        # np.fft.fft and ifft take out= from numpy 2.0 on; an older floor
        # would admit a numpy on which these paths raise TypeError
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        floor = re.findall(r'"numpy([^"]*)"', pyproject.read_text())
        assert floor == [">=2.0"]


class TestCircleValues:
    @pytest.mark.parametrize("n", [5, 48, 64, 100, 256])
    def test_matches_direct_sum(self, n):
        # 2L = 64 coefficients: n < 2L folds several onto one frequency
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=64) + 1j * rng.normal(size=64)
        lams = 2 * math.pi * np.arange(n) / n
        want = trig_poly_direct(coeffs, lams)
        assert np.max(np.abs(circle_values(coeffs, n) - want)) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    def test_long_double_reference_on_gap_edge_cell(self):
        p = select_params(1e-3, 0.02)
        n = 4 * p.L
        alphas = alpha_coeffs(p)
        ks = np.random.default_rng(5).choice(n, size=64, replace=False)
        got = circle_values(alphas, n)[ks]
        # l k mod n is exact, so each angle 2 pi (l k mod n) / n is
        # rounded once, in long double
        two_pi = 8 * np.arctan(np.longdouble(1))
        ls = np.arange(-p.L, p.L)
        angles = two_pi * (np.outer(ks, ls) % n).astype(np.longdouble) / n
        weights = alphas.astype(np.longdouble)
        want_re = np.cos(angles) @ weights
        want_im = np.sin(angles) @ weights
        assert np.max(np.abs(got.real - want_re)) <= 1e-15
        assert np.max(np.abs(got.imag - want_im)) <= 1e-15


class TestArcValues:
    @pytest.mark.parametrize("half,num", [(32, 200), (32, 7), (256, 200),
                                          (4, 1), (1, 3)])
    @pytest.mark.parametrize("start,stop", [
        (0.0, 0.05), (0.3, 0.3 + 1e-3), (2.0, 2.6), (math.pi, math.pi),
        (4.5, 4.1), (6.2, 2 * math.pi), (0.0, 2 * math.pi), (5.9, 0.4)])
    def test_matches_direct_sum(self, half, num, start, stop):
        # num above and below 2L, ascending, descending and collapsed
        # windows (start == stop, as the gap = pi cell refines)
        rng = np.random.default_rng(half + num)
        coeffs = rng.normal(size=2 * half) + 1j * rng.normal(size=2 * half)
        want = trig_poly_direct(coeffs, np.linspace(start, stop, num))
        got = arc_values(coeffs, start, stop, num)
        assert got.shape == (num,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(coeffs).sum()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    def test_long_double_reference_on_gap_edge_cell(self):
        p = select_params(1e-3, 0.02)
        alphas = alpha_coeffs(p)
        two_pi = 8 * np.arctan(np.longdouble(1))
        ls = np.arange(-p.L, p.L).astype(np.longdouble)
        weights = alphas.astype(np.longdouble)

        def error(start, stop, num=32):
            got = arc_values(alphas, start, stop, num)
            # the angles start + k step, rounded once, in long double
            lams = start + np.arange(num) * np.longdouble((stop - start)
                                                          / (num - 1))
            angles = np.outer(lams, ls) % two_pi
            return max(np.max(np.abs(got.real - np.cos(angles) @ weights)),
                       np.max(np.abs(got.imag - np.sin(angles) @ weights)))

        # refinement windows two grid steps wide, as kernel_sup_on_gap
        # takes, across the whole gap and in both directions
        h = 2 * math.pi / (4 * p.L)
        lo, hi = p.delta, 2 * math.pi - p.delta
        for centre in np.linspace(lo + h, hi - h, 7):
            assert error(centre - h, centre + h) <= 1e-15
            assert error(centre + h, centre - h) <= 1e-15
        # a window 0.1 wide: chirp phases reach 10^4, so roundoff depends
        # on centring them on l = 0, where the kernel's weight sits
        assert error(lo, lo + 0.1) <= 1e-14


class TestKernelSupOnGap:
    @pytest.mark.parametrize("eps,delta", GRID)
    def test_agrees_with_dense_grid(self, eps, delta):
        p = select_params(eps, delta)
        sup = kernel_sup_on_gap(p, alpha_coeffs(p))
        want = kernel_sup_dense_grid(p)
        if sup > 1e-12:
            # a sup at a gap edge can be as small as 1.9e-11 (eps = 1e-3,
            # delta = 0.5), where 1e-6 relative is below the roundoff of a
            # gap-edge sum; allow twice the oracle's floor there
            assert sup == pytest.approx(want, rel=1e-6,
                                        abs=2 * self._oracle_edge_floor(p))
        else:
            assert sup == pytest.approx(want, rel=0, abs=1e-13)

    @staticmethod
    def _oracle_edge_floor(params):
        """Roundoff floor of the oracle's gap-edge sum: the error of
        ``trig_poly_direct`` against a 40-digit sum at the two gap edges.
        The evaluator under test takes no part in it."""
        coeffs = alpha_coeffs(params)
        edges = [params.delta, 2 * math.pi - params.delta]
        exact = np.array([abs(complex(v)) for v in trig_poly_mp(coeffs, edges)])
        return float(np.abs(np.abs(trig_poly_direct(coeffs, edges))
                            - exact).max())

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_not_below_random_samples(self, eps, delta):
        p = select_params(eps, delta)
        sup = kernel_sup_on_gap(p, alpha_coeffs(p))
        lams = np.random.default_rng(17).uniform(delta, 2 * math.pi - delta,
                                                 4096)
        sampled = float(np.abs(kernel_value(lams, p)).max())
        assert sup >= sampled - max(1e-6 * sup, 1e-13)

    @staticmethod
    def _traced_peak(params):
        tracemalloc.start()
        try:
            kernel_sup_on_gap(params, alpha_coeffs(params))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_guard(self):
        p = select_params(1.2e-3, 0.0162)
        assert p.L == 4096
        assert self._traced_peak(p) < 64 * 2 ** 20

    def test_memory_guard_largest_kernel(self):
        # L = 65536: the refinement is one chirp-z transform, not 200
        # direct sums of 2L terms
        p = select_params(1e-3, 1e-3)
        assert p.L == 65536
        assert self._traced_peak(p) < 40 * 2 ** 20

    def test_working_set_at_L_2_19(self):
        # kernel --eps 1e-3 --gap 1e-4: a float grid of the circle, two
        # bool masks, index arrays for the fold and out-of-place FFTs
        # traced 168 MiB, 21 times the 8 MiB table; the index range, the
        # slice fold and the in-place transforms trace 96 MiB, the table
        # included. The value is the one that the whole-array forms gave.
        p = select_params(1e-3, 1e-4)
        assert p.L == 1 << 19
        tracemalloc.start()
        try:
            sup = kernel_sup_on_gap(p, alpha_coeffs(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 104 * 2 ** 20
        assert sup == float.fromhex("0x1.0e8b79ddcb27fp-24")

    def test_kernel_report_holds_one_table(self):
        # one 8 MiB table at L = 2^19 serves the report, the zero defect
        # and the sup: 96.3 MiB traced, where a table each traced 104.3
        tracemalloc.start()
        try:
            report = kernel_report(1e-3, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["params"]["L"] == 1 << 19
        assert peak <= 100 * 2 ** 20
        assert report["kernel_gap_sup"] == float.fromhex(
            "0x1.0e8b79ddcb27fp-24")


class TestPoisson:
    def test_identity_at_zero(self):
        lhs, rhs = poisson_check(0.0, 0.5, 20)
        assert abs(lhs - rhs) < 1e-12

    def test_shift_invariance(self):
        a = poisson_check(1.3, 0.5, 20)
        b = poisson_check(1.3 + 2 * math.pi, 0.5, 20)
        assert abs(a[0] - b[0]) < 1e-12
        assert abs(a[1] - b[1]) < 1e-12

    def test_wide_gaussian(self):
        lhs, rhs = poisson_check(0.2, 10.0, 20)
        assert abs(lhs - rhs) < 1e-12

    def test_grid_agreement(self):
        for lam in np.linspace(0, 2 * math.pi, 7):
            for dz in (0.3, 0.7, 2.0):
                lhs, rhs = poisson_check(float(lam), dz, 25)
                assert abs(lhs - rhs) < 1e-10

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            poisson_check(0.0, 0.5, 0)


class TestPhiPsi:
    def test_phi_normalized(self):
        p = select_params(1e-2, 0.5)
        assert abs(np.linalg.norm(phi_amplitudes(p)) - 1) < 1e-12

    def test_phi_symmetry(self):
        p = select_params(1e-2, 0.5)
        phi = phi_amplitudes(p)
        mid = p.Lstar
        for l in range(1, p.Lstar):
            assert phi[mid + l] == pytest.approx(phi[mid - l])

    def test_phi_norm_matches_reversed_oracle(self):
        p = select_params(1e-2, 0.5)
        want = phi_norm_reversed(p.Lstar, p.L, p.dz)
        ls = np.arange(-p.Lstar, p.Lstar)
        got = float(np.sum(np.exp(-2 * (ls * math.pi / (p.L * p.dz)) ** 2)))
        assert abs(got - want) < 1e-12

    def test_psi_entries_are_sqrt_alpha(self):
        p = select_params(1e-2, 0.5)
        psi = psi_amplitudes(p)
        alphas = alpha_coeffs(p)
        assert np.abs(psi.real ** 2 - alphas).max() < 1e-15

    @pytest.mark.parametrize("eps,delta", GRID)
    def test_psi_norm(self, eps, delta):
        p = select_params(eps, delta)
        sq = float(np.linalg.norm(psi_amplitudes(p)) ** 2)
        assert 1 - eps <= sq <= 1 + eps

    def test_psi_peak_at_center(self):
        p = select_params(1e-2, 0.5)
        psi = np.abs(psi_amplitudes(p))
        assert int(np.argmax(psi)) == p.L
