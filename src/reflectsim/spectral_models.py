"""Builders for unitaries with a certified eigenphase gap.

Synthetic Haar instances, the Grover lower-bound family, and the
Hamiltonian front-end U = exp(i(H - lambda0)). Both reflections reach the
system register only through controlled powers of U, so in U's eigenbasis
every circuit depends on the instance only through its eigenphases: an
instance is its eigenphases and gap, and no builder forms or stores an
eigenbasis. The reference bases that the tests simulate in are rebuilt
from what built each instance, in ``tests/oracles.py``.

Seeded draws reproduce numpy's SeedSequence/PCG64 streams (O'Neill,
HMC-CS-2014-0905) bit for bit without importing ``numpy.random``, which
adds about 6 MiB to a process.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
import operator

import numpy as np

from .core_sim import require_memory


# eq=False: instances compare by identity; == on the phase array has no
# single truth value
@dataclass(frozen=True, eq=False)
class EigenUnitary:
    """A unitary given by its eigenphases.

    eigenphases[0] is exactly 0 and belongs to the unique target
    eigenvector; all other phases lie in [gap, 2 pi - gap]. ``step_cost``
    lets the ledger charge a user-supplied per-power query cost (e.g. when
    U itself is a simulated evolution), default 1. Instances are immutable.
    """

    dimension: int
    eigenphases: np.ndarray
    gap: float
    step_cost: int = 1

    def __post_init__(self):
        phases = np.asarray(self.eigenphases, dtype=float)
        # an array that is read-only and owns its memory is kept as it is
        # (the builders freeze the one they made); any other could still be
        # written by the caller, so it is copied
        if phases.flags.writeable or phases.base is not None:
            phases = phases.copy()
        if (not isinstance(self.dimension, numbers.Integral)
                or self.dimension < 1 or phases.shape != (self.dimension,)):
            raise ValueError("dimension must be the positive integer "
                             "eigenphase count")
        # min and max propagate NaN: two reductions check every phase
        # without a D-length temporary
        others = phases[1:]
        low, high = (others.min(), others.max()) if others.size else (0.0, 0.0)
        if not (math.isfinite(phases[0]) and math.isfinite(low)
                and math.isfinite(high)):
            raise ValueError("eigenphases must be finite")
        # written so that a NaN gap fails too; the reflectors need gap <= pi
        if not 0 < self.gap <= math.pi:
            raise ValueError("gap must lie in (0, pi]")
        if not isinstance(self.step_cost, numbers.Integral) or self.step_cost < 1:
            raise ValueError("step_cost must be an integer >= 1")
        if phases[0] != 0.0:
            raise ValueError("target eigenphase must be exactly 0")
        tol = 1e-9
        if others.size and (low < self.gap - tol
                            or high > 2 * math.pi - self.gap + tol):
            raise ValueError("gapped eigenphases must lie in [gap, 2 pi - gap]")
        # the tolerance must not admit a second target, where r would be +1;
        # only a gap below it lets a phase reach 0 or 2 pi
        if (low <= 0.0 or high >= 2 * math.pi) and np.any(
                (others == 0.0) | (others == 2 * math.pi)):
            raise ValueError("only the target eigenphase may be 0 or 2 pi")
        phases.setflags(write=False)
        object.__setattr__(self, "eigenphases", phases)

    @property
    def system_qubits(self) -> int:
        n = self.dimension.bit_length() - 1
        if (1 << n) != self.dimension:
            raise ValueError("dimension is not a power of two")
        return n


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, h: int, mult: int) -> tuple[int, int]:
    """SeedSequence's hash of a 32-bit word, and its next hash constant."""
    h_next = h * mult & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16, h_next


def _pcg64(entropy: int, spawn_key: tuple[int, ...] = ()) -> tuple[int, int]:
    """(state, increment) of ``PCG64(SeedSequence(entropy, spawn_key))``."""
    entropy = operator.index(entropy)
    if entropy < 0:  # its 32-bit words would never end
        raise ValueError("expected non-negative integer")
    words = [entropy >> i & _M32 for i in range(0, entropy.bit_length() or 1, 32)]
    words += [0] * (4 - len(words)) + list(spawn_key)
    # hash four words into the pool, then each pool word into the others
    # and each further word into all four
    h, pool = 0x43B0D7E5, []
    for word in words[:4]:
        value, h = _hashmix(word, h, 0x931E8875)
        pool.append(value)
    for src, word in enumerate(words):
        for dst in range(4):
            if dst != src:
                value, h = _hashmix(pool[src] if src < 4 else word, h, 0x931E8875)
                x = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
                pool[dst] = x ^ x >> 16
    # generate_state(4, uint64): the initial state, then the sequence
    h, seed = 0x8B51F9DD, 0
    for i in range(8):
        value, h = _hashmix(pool[i % 4], h, 0x58F38DED)
        seed |= value << 32 * (i ^ 2)  # low word first in each uint64
    inc = (seed >> 128 << 1 | 1) & _M128
    # pcg64_srandom_r: step from 0, add the initial state, step again
    return ((inc + (seed & _M128)) * _PCG_MULT + inc) & _M128, inc


def _xsl_rr(hi, lo):
    """PCG64's output of the state with 64-bit halves hi and lo (Python
    ints or uint64 arrays): their xor rotated right by hi's top 6 bits."""
    x, r = hi ^ lo, hi >> 58
    return (x >> r | x << (64 - r & 63)) & _M64


def _uniform(entropy: int, spawn_key: tuple[int, ...], size: int,
             low: float, high: float) -> np.ndarray:
    """``default_rng(SeedSequence(entropy, spawn_key)).uniform(low, high,
    size)`` bit for bit: low + (high - low) * ((x >> 11) * 2^-53) over the
    outputs x, where (high - low) 2^-53 is exact."""
    state, inc = _pcg64(entropy, spawn_key)
    scale = (high - low) * 2.0 ** -53
    if size < 128:  # below this the loop beats numpy's per-call cost
        out = []
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _M128
            out.append(low + (_xsl_rr(state >> 64, state & _M64) >> 11) * scale)
        return np.array(out)
    # state 1 + i C + j is f^(j+1) of row start i, for the step f: s -> a s
    # + inc: about 2 sqrt(size) Python steps, then a 128-bit multiply-add in
    # 32-bit limbs per block of rows
    cols = 1 << (size.bit_length() + 1) // 2
    col_a, col_c, a, c = [], [], 1, 0
    for _ in range(cols):
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + inc) & _M128
        col_a.append(a)
        col_c.append(c)
    starts = [state]
    while len(starts) * cols < size:
        starts.append((starts[-1] * a + c) & _M128)
    lo, hi = np.frombuffer(b"".join([v.to_bytes(16, "little") for v in
                                     col_a + col_c + starts]), "<u8").reshape(-1, 2).T
    al, cl, sl = lo[:cols], lo[cols:2 * cols], lo[2 * cols:]
    ah, ch, sh = hi[:cols], hi[cols:2 * cols], hi[2 * cols:]
    a0, a1 = al & _M32, al >> 32
    out = np.empty((len(starts), cols))
    step = max(1, (1 << 14) // cols)
    for r in range(0, len(starts), step):
        s_hi, s_lo = sh[r:r + step, None], sl[r:r + step, None]
        s0, s1 = s_lo & _M32, s_lo >> 32
        t = s1 * a0 + (s0 * a0 >> 32)  # the high word of s_lo al, in halves
        w = (t & _M32) + s0 * a1
        hi = s1 * a1 + (t >> 32) + (w >> 32) + s_hi * al + s_lo * ah
        lo = s_lo * al + cl
        hi += ch + (lo < cl)
        out[r:r + step] = low + (_xsl_rr(hi, lo) >> 11) * scale
    return out.ravel()[:size]


def synth_unitary(dimension: int, gap: float, seed: int) -> EigenUnitary:
    """Random instance: lambda_0 = 0, the rest uniform in [gap, 2 pi - gap].
    Deterministic for a fixed seed. The phases come from the first of two
    streams spawned from it; the second is the Haar eigenbasis's, which
    only the tests draw."""
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    # gap == pi is allowed: the interval collapses to the single point pi
    if not 0 < gap <= math.pi:
        raise ValueError("gap must lie in (0, pi]")
    # the reflectors' working arrays are a few eigenphase-length vectors
    require_memory((dimension - 1).bit_length())
    phases = np.zeros(dimension)
    phases[1:] = _uniform(seed, (0,), dimension - 1, gap, 2 * math.pi - gap)
    phases.setflags(write=False)  # handed over, not copied
    return EigenUnitary(dimension=dimension, eigenphases=phases, gap=gap)


def _require_grover_dimension(dimension: int) -> None:
    if dimension < 4 or (dimension & (dimension - 1)) != 0:
        raise ValueError("dimension must be a power of two >= 4")


def grover_marked(dimension: int, seed: int) -> int:
    """``default_rng(seed).integers(dimension)`` bit for bit. For a power of
    two, Lemire's bounded draw rejects nothing: numpy scales the first
    output's low 32 bits up to D = 2^32, and all 64 above."""
    _require_grover_dimension(dimension)
    state, inc = _pcg64(seed)
    state = (state * _PCG_MULT + inc) & _M128
    x = _xsl_rr(state >> 64, state & _M64)
    if dimension > 1 << 32:
        return x * dimension >> 64
    return (x & _M32) * dimension >> 32


def grover_plane(dimension: int) -> EigenUnitary:
    """``grover_unitary`` on the plane of its first two eigenvectors, which
    holds |s> and the marked state: phases 0 and 2 pi - 2 theta, gap
    2 theta. From D = 2^55 on 1 - 2/D rounds to 1 and theta to 0."""
    _require_grover_dimension(dimension)
    if dimension >= 1 << 55:
        raise ValueError(f"dimension 2^{dimension.bit_length() - 1} is too "
                         "large: 1 - 2/D rounds to 1 in double precision")
    theta = math.acos(1 - 2 / dimension)
    return EigenUnitary(dimension=2,
                        eigenphases=(0.0, 2 * math.pi - 2 * theta),
                        gap=2 * theta)


def grover_unitary(dimension: int, marked: int) -> EigenUnitary:
    """The search-derived unitary with a unique eigenvalue-1 eigenvector.

    U = -exp(-i theta) V^dagger R_s R_t V with theta = arccos(1 - 2/D),
    V = 1 + (i - 1)|s><s|, R_s = 2|s><s| - 1 and R_t = 2|t><t| - 1 for the
    marked state |t>. Its eigensystem is known in closed form, so U is
    never formed:

    - On span{|t>, |s>}, with a = <t|s> = 1/sqrt(D), b = sqrt(1 - a^2) and
      |s_perp> = (|s> - a|t>)/b, R_s R_t is -exp(-+i theta) on
      (|t> -+ i|s_perp>)/sqrt(2). So U is 1 on V^dagger (|t> + i|s_perp>)
      / sqrt(2) and exp(-2 i theta) on V^dagger (|t> - i|s_perp>)/sqrt(2).
      Up to unit phases these are the real vectors
      (a + b, a (b - a)/b, ...)/sqrt(2) and (b - a, -a (a + b)/b, ...)
      / sqrt(2), marked entry first; their overlaps with |s> are
      1/sqrt(2) and -1/sqrt(2).
    - On the complement V = 1 and R_s = R_t = -1, so U = -exp(-i theta)
      there.

    The eigenphases are 0, 2 pi - 2 theta and pi - theta (D - 2 times),
    and the gap is 2 theta: pi - theta >= 2 theta for D >= 4. They do not
    depend on the marked index; the first two and the gap are
    ``grover_plane``'s, which is all that the ``grover`` report reads.
    """
    plane = grover_plane(dimension)
    if not 0 <= marked < dimension:
        raise ValueError("marked index out of range")
    # the eigenphases are the one D-length array
    require_memory((dimension - 1).bit_length())
    phases = np.full(dimension, math.pi - plane.gap / 2)
    phases[:2] = plane.eigenphases
    phases.setflags(write=False)  # handed over, not copied
    return EigenUnitary(dimension=dimension, eigenphases=phases,
                        gap=plane.gap)


def _target_first(angles: np.ndarray, i0: int) -> tuple[np.ndarray, float]:
    """Eigenphases angles - angles[i0] mod 2 pi, with the target i0's
    exactly 0 and moved to the front; and the gap, the least distance of
    another phase from 0."""
    others = np.mod(np.delete(angles, i0) - angles[i0], 2 * math.pi)
    gap = float(np.minimum(others, 2 * math.pi - others).min())
    return np.concatenate(([0.0], others)), gap


def hamiltonian_unitary(hamiltonian: np.ndarray, lambda0: float) -> EigenUnitary:
    """U = exp(i (H - lambda0)) from the eigenvalues of H.

    Requires ||H|| <= 1, lambda0 within 1e-8 of a non-degenerate eigenvalue.
    """
    h = np.asarray(hamiltonian, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be square")
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian entries must be finite")
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    evals = np.linalg.eigvalsh(h)
    if np.abs(evals).max() > 1 + 1e-10:
        raise ValueError("Hamiltonian norm exceeds 1")
    near = np.where(np.abs(evals - lambda0) <= 1e-8)[0]
    if near.size == 0:
        raise ValueError("lambda0 is not an eigenvalue of H (tolerance 1e-8)")
    if near.size > 1:
        raise ValueError("target eigenvalue is degenerate")
    # |H - lambda0| <= 2 < pi, so phases never wrap past the gap region
    phases, gap = _target_first(evals, int(near[0]))
    phases.setflags(write=False)  # handed over, not copied
    return EigenUnitary(dimension=h.shape[0], eigenphases=phases, gap=gap)
