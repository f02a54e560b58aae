"""Gaussian kernel parameters and coefficient tables.

Selects (dz, L, L*) so that the truncated Gaussian-weighted sum of unitary
powers behaves as a reflection kernel: value 1 at eigenphase 0, magnitude
at most eps on the gapped region [delta, 2*pi - delta]. ``kernel_value`` is
the scalar oracle that every operator-level test compares against; it
evaluates the coefficient sum with ``trig_poly``, a baby-step giant-step
evaluator whose working set does not grow with L.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import sys

import numpy as np

from .core_sim import require_memory

DEFAULT_C = 40.0
SUP_POINTS = 1000  # the least grid size of kernel_sup_on_gap
REFINE_POINTS = 200

# 2 pi - fl(2 pi), the part of 2 pi that the double 2 * math.pi drops
_TWO_PI_LO = 2.4492935982947064e-16

# relative slack for float-edge re-validation of the selection inequalities
_REL_TOL = 1e-9

# the most entries one array of a trig_poly chunk holds: 1 MiB of complex
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelParams:
    """All kernel-selection parameters. L is a power of two, m = log2(2L)."""

    epsilon: float
    delta: float
    c: float
    dz: float
    L: int
    Lstar: int
    m: int

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.2:
            raise ValueError("epsilon must lie in (0, 1/5]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 1 < self.c < math.inf:
            raise ValueError("c must be finite and exceed 1")
        if self.dz <= 0:
            raise ValueError("dz must be positive")
        if self.L != 1 << (self.m - 1):
            raise ValueError("L must equal 2**(m-1)")
        if not 1 <= self.Lstar <= self.L:
            raise ValueError("Lstar must lie in [1, L]")
        e, c, dz, L = self.epsilon, self.c, self.dz, self.L
        slack = 1 + _REL_TOL
        if dz > slack * math.pi / math.sqrt(math.log(2 * c / e)):
            raise ValueError("dz violates the pi/sqrt(log(2c/eps)) cap")
        if dz > slack * self.delta / math.sqrt(2 * math.log(4 * c / e)):
            raise ValueError("dz violates the delta/sqrt(2 log(4c/eps)) cap")
        if (L - 1) * dz * slack < math.sqrt(2 * math.log(4 * c / e)):
            raise ValueError("(L-1)*dz violates the tail condition")
        if L * dz * slack < math.sqrt(12 * math.log(1 / e)):
            raise ValueError("L*dz violates the sqrt(12 log(1/eps)) condition")
        if (L * dz) ** 2 * slack < 4 * math.log(1 / e):
            raise ValueError("(L*dz)^2 violates the 4 log(1/eps) condition")


def select_params(epsilon: float, delta: float, c: float = DEFAULT_C) -> KernelParams:
    """Choose (dz, L, L*) for the requested precision and gap.

    dz starts at min(pi/sqrt(log(2c/eps)), delta/sqrt(2 log(4c/eps))); L is
    the smallest power of two meeting the tail conditions at that dz. dz is
    then shrunk so that L*dz sits exactly on the binding lower bound, which
    keeps L* a function of eps alone instead of inheriting up to a factor 2
    of power-of-two rounding slack through L.
    """
    if not 0 < epsilon <= 0.2:
        raise ValueError("epsilon must lie in (0, 1/5]")
    if not 0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    if not 1 < c < math.inf:
        raise ValueError("c must be finite and exceed 1")
    # below about 4c / 1.8e308 the logarithms of the selection overflow
    if not 4 * c / epsilon < math.inf:
        raise ValueError(f"epsilon {epsilon!r} is too small: 4c/epsilon "
                         "overflows a double")

    dz0 = min(
        math.pi / math.sqrt(math.log(2 * c / epsilon)),
        delta / math.sqrt(2 * math.log(4 * c / epsilon)),
    )
    need_tail = math.sqrt(2 * math.log(4 * c / epsilon))
    need_prep = max(
        math.sqrt(12 * math.log(1 / epsilon)),
        math.sqrt(4 * math.log(1 / epsilon)),
    )
    L = 1
    while not ((L - 1) * dz0 >= need_tail and L * dz0 >= need_prep):
        # L must stay a finite float
        if L.bit_length() >= sys.float_info.max_exp:
            raise ValueError(f"gap {delta!r} is too small: the kernel size "
                             "L cannot be represented")
        L <<= 1

    target = max(need_prep, need_tail * L / (L - 1))
    dz = min(dz0, target / L)

    lstar = 1 + math.ceil((L * dz / math.pi) * math.sqrt(math.log(c / epsilon)))
    lstar = max(1, min(lstar, L))
    m = int(math.log2(2 * L))
    return KernelParams(epsilon=epsilon, delta=delta, c=c, dz=dz, L=L,
                        Lstar=lstar, m=m)


def alpha_coeffs(params: KernelParams) -> np.ndarray:
    """alpha_l = (dz/sqrt(2 pi)) exp(-(l dz)^2 / 2) for -L <= l <= L-1,
    entry l + L, after ``require_memory`` for the 2L = 2^m entries."""
    require_memory(params.m)
    ls = np.arange(-params.L, params.L)
    return (params.dz / math.sqrt(2 * math.pi)) * np.exp(-((ls * params.dz) ** 2) / 2)


def trig_poly(coeffs: np.ndarray, lam):
    """sum_l coeffs[l + L] e^{i l lam} over l = -L .. L-1, by baby-step
    giant-step evaluation (Paterson and Stockmeyer, SIAM J. Comput. 1973).

    With B a power of two near sqrt(2L) and l = r B - L + b, 0 <= b < B,
    the sum is sum_r e^{i (r B - L) lam} sum_b coeffs[r B + b] e^{i b lam}.
    Per angle that takes B baby and 2L/B giant exponentials, one row of a
    (k x B) @ (B x 2L/B) product and a row-wise dot, in place of 2L
    exponentials. Angles go in chunks of k, so no array of a chunk holds
    more than ``_CHUNK_ENTRIES`` entries, whatever the size of L.

    Accepts a scalar or an array of angles. Angles above pi are first
    moved down by 2 pi, taken as fl(2 pi) plus its remainder, so l lam
    rounds at the size of the reduced angle: near 2 pi - delta that is
    delta, not 2 pi. The giant steps run from -L to L - B, so the
    exponents stay centred as well.
    """
    size = coeffs.shape[0]
    baby = 1 << (size.bit_length() // 2)
    giant = -(-size // baby)
    table = np.zeros(giant * baby, dtype=np.complex128)
    table[:size] = coeffs
    table = table.reshape(giant, baby).T
    bs = np.arange(baby)
    gs = np.arange(giant) * baby - size // 2
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = np.where(lam_arr > math.pi,
                       (lam_arr - 2 * math.pi) - _TWO_PI_LO, lam_arr)
    out = np.empty(lam_arr.shape[0], dtype=np.complex128)
    step = max(1, _CHUNK_ENTRIES // max(baby, giant))
    for i in range(0, lam_arr.shape[0], step):
        chunk = lam_arr[i:i + step]
        inner = np.exp(1j * np.outer(chunk, bs)) @ table
        out[i:i + step] = np.einsum("ij,ij->i", inner,
                                    np.exp(1j * np.outer(chunk, gs)))
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(out[0])
    return out


def kernel_value(lam, params: KernelParams):
    """(dz/sqrt(2 pi)) sum_l exp(-(l dz)^2/2) exp(i l lam), by ``trig_poly``.

    Accepts a scalar or an array of angles; this is the scalar oracle every
    operator-level check compares against.
    """
    return trig_poly(alpha_coeffs(params), lam)


def circle_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """trig_poly(coeffs, 2 pi k / n) for k = 0 .. n-1, by one inverse FFT of
    the coefficients folded modulo n: exact for any n, including n < 2L."""
    half = coeffs.shape[0] // 2
    folded = np.zeros(n, dtype=np.complex128)
    if n >= 2 * half:
        # l >= 0 at index l and l < 0 at n + l: each coefficient is added
        # to its own zero, as np.add.at adds it, without the index arrays
        folded[:half] += coeffs[half:]
        folded[n - half:] += coeffs[:half]
    else:
        np.add.at(folded, np.arange(-half, half) % n, coeffs)
    values = np.fft.ifft(folded, out=folded)
    values *= n
    return values


def arc_values(coeffs: np.ndarray, start: float, stop: float,
               num: int) -> np.ndarray:
    """trig_poly(coeffs, np.linspace(start, stop, num)), by one Bluestein
    chirp-z transform: an FFT convolution of power-of-two length
    >= 2L + num - 1.

    With step = (stop - start) / (num - 1), the identity
    l k = (l^2 + k^2 - (k - l)^2) / 2 turns the sum at start + k step into
    a convolution with the chirp e^{-i step m^2 / 2}. Every phase is
    centred on l = 0, so a kernel's large central coefficients carry the
    smallest ones, and l start rounds only in its part below 2^-24 start.
    Roundoff then grows with the largest chirp phase,
    |step| (L + num)^2 / 2: on windows a few grid steps wide, as
    ``kernel_sup_on_gap`` refines, it is far below the direct sum's.
    """
    size = coeffs.shape[0]
    half = size // 2
    step = (stop - start) / (num - 1) if num > 1 else 0.0
    fft_len = 1 << (size + num - 2).bit_length()
    # circular kernel: entry (k - l - half) mod fft_len holds chirp(k - l),
    # for the 2L + num - 1 <= fft_len values k - l = m; transformed first,
    # in place, so that it is one array while x is made
    m = np.arange(1 - half, half + num)
    values = (-0.5j * step) * m
    values *= m
    np.exp(values, out=values)
    chirp = np.zeros(fft_len, dtype=np.complex128)
    chirp[:num] = values[size - 1:]
    chirp[fft_len - size + 1:] = values[:size - 1]
    del m, values
    chirp = np.fft.fft(chirp, out=chirp)
    # start_hi has 24 significant bits, so l * start_hi is exact
    start_hi = float(np.float32(start))
    ls = np.arange(-half, half)
    # x = coeffs e^{i l start_hi} e^{i (l (start - start_hi) + step l^2 / 2)},
    # one factor at a time, in the zero-padded buffer that is transformed
    padded = np.zeros(fft_len, dtype=np.complex128)
    x = padded[:size]
    np.multiply(1j, ls * start_hi, out=x)
    np.exp(x, out=x)
    np.multiply(coeffs, x, out=x)
    phase = ls * (start - start_hi)
    quad = (0.5 * step) * ls
    quad *= ls
    phase += quad
    del ls, quad
    turn = 1j * phase
    np.exp(turn, out=turn)
    x *= turn
    y = np.fft.fft(padded, out=padded)
    y *= chirp
    y = np.fft.ifft(y, out=y)[:num]
    k = np.arange(num)
    return y * np.exp(0.5j * step * k * k)


def _grid_range(h: float, n: int, lo: float, hi: float) -> tuple[int, int]:
    """(first, last): the grid points fl(h k), 0 <= k < n, that lie in
    [lo, hi] are k = first .. last (none when first > last). fl(h k) grows
    with k, so they are one run of indices, found in the same float
    arithmetic from an estimate."""
    first = max(0, math.ceil(lo / h) - 1)
    while first < n and h * first < lo:
        first += 1
    last = min(n - 1, math.floor(hi / h) + 1)
    while last >= first and h * last > hi:
        last -= 1
    return first, last


def kernel_sup_on_gap(params: KernelParams, alphas: np.ndarray,
                      points: int = SUP_POINTS) -> float:
    """sup of |kernel_value| over [delta, 2 pi - delta].

    One FFT samples the circle at 2 pi k / n, n the next power of two >=
    max(points, 4L) (twice the Nyquist rate), after ``require_memory``. The
    two gap edges are summed directly, and ``arc_values`` evaluates
    ``REFINE_POINTS`` points within one step of the best grid point in the
    gap. ``alphas`` is the caller's ``alpha_coeffs(params)``.
    """
    n = 1 << (max(points, 4 * params.L) - 1).bit_length()
    require_memory(n.bit_length() - 1)
    lo, hi = params.delta, 2 * math.pi - params.delta
    h = 2 * math.pi / n
    first, last = _grid_range(h, n, lo, hi)
    # the gap's values; the whole circle is freed with the slice
    vals = np.abs(circle_values(alphas, n)[first:last + 1])
    top = float(vals.max()) if vals.size else 0.0
    # a gap without a positive grid value leaves grid point 0 as the best
    best = h * (first + int(np.argmax(vals))) if top > 0 else 0.0
    del vals  # before the chirp-z transform's arrays
    edges = np.abs(trig_poly(alphas, [lo, hi]))
    fine = np.abs(arc_values(alphas, max(lo, best - h), min(hi, best + h),
                             REFINE_POINTS))
    return max(top, float(edges.max()), float(fine.max()))


def poisson_check(lam: float, dz: float, K: int) -> tuple[float, complex]:
    """Both sides of the Gaussian Poisson-summation identity, truncated.

    lhs = sum_{|k|<=K} exp(-((lam + 2 pi k)/dz)^2 / 2)
    rhs = (dz/sqrt(2 pi)) sum_{|l|<=K/dz} exp(-(l dz)^2/2) exp(i l lam)
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ks = np.arange(-K, K + 1)
    lhs = float(np.sum(np.exp(-(((lam + 2 * math.pi * ks) / dz) ** 2) / 2)))
    lmax = max(1, int(math.ceil(K / dz)))
    ls = np.arange(-lmax, lmax + 1)
    rhs = complex(
        (dz / math.sqrt(2 * math.pi))
        * np.sum(np.exp(-((ls * dz) ** 2) / 2) * np.exp(1j * ls * lam))
    )
    return lhs, rhs


def phi_amplitudes(params: KernelParams) -> np.ndarray:
    """Normalized source Gaussian over 2 L* basis states.

    Entry index j holds the amplitude for l = j - L*:
    exp(-(l pi / (L dz))^2) / sqrt(N), N = sum of squared weights.
    """
    ls = np.arange(-params.Lstar, params.Lstar)
    w = np.exp(-((ls * math.pi / (params.L * params.dz)) ** 2))
    norm = math.sqrt(float(np.sum(w * w)))
    return (w / norm).astype(np.complex128)


def psi_amplitudes(params: KernelParams) -> np.ndarray:
    """Target Gaussian over 2L basis states, entry j for l = j - L.

    Equals sqrt(alpha_l) entrywise; its squared norm is sum alpha_l, within
    eps of 1 but deliberately not renormalized.
    """
    ls = np.arange(-params.L, params.L)
    w = (params.dz / math.sqrt(2 * math.pi)) ** 0.5 * np.exp(
        -((ls * params.dz) ** 2) / 4
    )
    return w.astype(np.complex128)
