"""Builders for unitaries with a certified eigenphase gap.

Synthetic Haar instances, the Grover lower-bound family, and the
Hamiltonian front-end U = exp(i(H - lambda0)). Both reflections reach the
system register only through controlled powers of U, so in U's eigenbasis
every circuit depends on the instance only through its eigenphases: an
instance is its eigenphases and gap, and no builder forms or stores an
eigenbasis. The reference bases that the tests simulate in are rebuilt
from what built each instance, in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

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
        phases = np.asarray(self.eigenphases, dtype=float).copy()
        if (not isinstance(self.dimension, numbers.Integral)
                or self.dimension < 1 or phases.shape != (self.dimension,)):
            raise ValueError("dimension must be the positive integer "
                             "eigenphase count")
        if not np.isfinite(phases).all():
            raise ValueError("eigenphases must be finite")
        # written so that a NaN gap fails too; the reflectors need gap <= pi
        if not 0 < self.gap <= math.pi:
            raise ValueError("gap must lie in (0, pi]")
        if not isinstance(self.step_cost, numbers.Integral) or self.step_cost < 1:
            raise ValueError("step_cost must be an integer >= 1")
        if phases[0] != 0.0:
            raise ValueError("target eigenphase must be exactly 0")
        others = phases[1:]
        tol = 1e-9
        if others.size and (
            others.min() < self.gap - tol
            or others.max() > 2 * math.pi - self.gap + tol
        ):
            raise ValueError("gapped eigenphases must lie in [gap, 2 pi - gap]")
        # the tolerance must not admit a second target, where r would be +1
        if np.any((others == 0.0) | (others == 2 * math.pi)):
            raise ValueError("only the target eigenphase may be 0 or 2 pi")
        phases.setflags(write=False)
        object.__setattr__(self, "eigenphases", phases)

    @property
    def system_qubits(self) -> int:
        n = self.dimension.bit_length() - 1
        if (1 << n) != self.dimension:
            raise ValueError("dimension is not a power of two")
        return n


@dataclass(frozen=True)
class GroverInstance:
    """The search-derived unitary and the marked index that defines it."""

    dimension: int
    marked: int
    unitary: EigenUnitary

    @property
    def gap(self) -> float:
        return self.unitary.gap


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
    phase_seed, _ = np.random.SeedSequence(seed).spawn(2)
    phases = np.zeros(dimension)
    phases[1:] = np.random.default_rng(phase_seed).uniform(
        gap, 2 * math.pi - gap, size=dimension - 1)
    return EigenUnitary(dimension=dimension, eigenphases=phases, gap=gap)


def grover_unitary(dimension: int, marked: int) -> GroverInstance:
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
    depend on the marked index.
    """
    if dimension < 4 or (dimension & (dimension - 1)) != 0:
        raise ValueError("dimension must be a power of two >= 4")
    if not 0 <= marked < dimension:
        raise ValueError("marked index out of range")
    # the eigenphases are the one D-length array
    require_memory((dimension - 1).bit_length())
    d = dimension
    theta = math.acos(1 - 2 / d)
    phases = np.full(d, math.pi - theta)
    phases[0] = 0.0
    phases[1] = 2 * math.pi - 2 * theta
    unitary = EigenUnitary(dimension=d, eigenphases=phases, gap=2 * theta)
    return GroverInstance(dimension=d, marked=marked, unitary=unitary)


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
    return EigenUnitary(dimension=h.shape[0], eigenphases=phases, gap=gap)
