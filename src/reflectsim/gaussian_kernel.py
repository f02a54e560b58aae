"""Gaussian kernel parameters and coefficient tables.

Selects (dz, L, L*) so that the truncated Gaussian-weighted sum of unitary
powers behaves as a reflection kernel: value 1 at eigenphase 0, magnitude
at most eps on the gapped region [delta, 2*pi - delta]. ``kernel_value`` is
the scalar brute-force oracle that every operator-level test compares
against.
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
    """sum_l coeffs[l + L] e^{i l lam} over l = -L .. L-1, by direct summation.

    Accepts a scalar or an array of angles. Angles above pi are first
    moved down by 2 pi, taken as fl(2 pi) plus its remainder, so l lam
    rounds at the size of the reduced angle: near 2 pi - delta that is
    delta, not 2 pi.
    """
    half = coeffs.shape[0] // 2
    ls = np.arange(-half, half)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = np.where(lam_arr > math.pi,
                       (lam_arr - 2 * math.pi) - _TWO_PI_LO, lam_arr)
    out = np.empty(lam_arr.shape[0], dtype=np.complex128)
    # chunked so large-L parameter sets do not allocate a huge outer product
    step = max(1, (1 << 22) // (2 * half))
    for i in range(0, lam_arr.shape[0], step):
        chunk = lam_arr[i:i + step]
        out[i:i + step] = np.exp(1j * np.outer(chunk, ls)) @ coeffs
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(out[0])
    return out


def kernel_value(lam, params: KernelParams):
    """(dz/sqrt(2 pi)) sum_l exp(-(l dz)^2/2) exp(i l lam), by direct summation.

    Accepts a scalar or an array of angles; this is the scalar oracle every
    operator-level check compares against.
    """
    return trig_poly(alpha_coeffs(params), lam)


def circle_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """trig_poly(coeffs, 2 pi k / n) for k = 0 .. n-1, by one inverse FFT of
    the coefficients folded modulo n: exact for any n, including n < 2L."""
    half = coeffs.shape[0] // 2
    folded = np.zeros(n, dtype=np.complex128)
    np.add.at(folded, np.arange(-half, half) % n, coeffs)
    return n * np.fft.ifft(folded)


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
    # start_hi has 24 significant bits, so l * start_hi is exact
    start_hi = float(np.float32(start))
    ls = np.arange(-half, half)
    x = (coeffs * np.exp(1j * (ls * start_hi))
         * np.exp(1j * (ls * (start - start_hi) + 0.5 * step * ls * ls)))
    # circular kernel: entry (k - l - half) mod fft_len holds chirp(k - l)
    fft_len = 1 << (size + num - 2).bit_length()
    m = np.arange(1 - half, half + num)
    chirp = np.zeros(fft_len, dtype=np.complex128)
    chirp[(m - half) % fft_len] = np.exp(-0.5j * step * m * m)
    y = np.fft.ifft(np.fft.fft(x, fft_len) * np.fft.fft(chirp))[:num]
    k = np.arange(num)
    return y * np.exp(0.5j * step * k * k)


def kernel_sup_on_gap(params: KernelParams, points: int = SUP_POINTS) -> float:
    """sup of |kernel_value| over [delta, 2 pi - delta].

    One FFT samples the circle at 2 pi k / n, n the next power of two >=
    max(points, 4L) (twice the Nyquist rate), after ``require_memory``. The
    two gap edges are summed directly, and ``arc_values`` evaluates
    ``REFINE_POINTS`` points within one step of the best grid point in the
    gap.
    """
    n = 1 << (max(points, 4 * params.L) - 1).bit_length()
    require_memory(n.bit_length() - 1)
    lo, hi = params.delta, 2 * math.pi - params.delta
    alphas = alpha_coeffs(params)
    h = 2 * math.pi / n
    grid = h * np.arange(n)
    vals = np.where((grid >= lo) & (grid <= hi),
                    np.abs(circle_values(alphas, n)), 0.0)
    best = grid[np.argmax(vals)]
    edges = np.abs(trig_poly(alphas, [lo, hi]))
    fine = np.abs(arc_values(alphas, max(lo, best - h), min(hi, best + h),
                             REFINE_POINTS))
    return max(float(vals.max()), float(edges.max()), float(fine.max()))


def chernoff_tail(params: KernelParams) -> tuple[float, float]:
    """(directly summed |l| >= L tail, Chernoff bound 2 exp(-((L-1)dz)^2/2)).

    The direct sum runs to 8L terms, far past where the Gaussian underflows.
    """
    ls = np.arange(params.L, 8 * params.L)
    tail = 2 * (params.dz / math.sqrt(2 * math.pi)) * float(
        np.sum(np.exp(-((ls * params.dz) ** 2) / 2))
    )
    bound = 2 * math.exp(-(((params.L - 1) * params.dz) ** 2) / 2)
    return tail, bound


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
