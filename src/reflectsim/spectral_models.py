"""Builders for unitaries with a certified eigenphase gap.

Synthetic Haar instances, the Grover lower-bound family, and the
Hamiltonian front-end U = exp(i(H - lambda0)). Every instance is stored by
eigendecomposition. The reflectors act on the system register in U's
eigenbasis, where every controlled power of U is diagonal, and read only
the eigenphases; system vectors enter and leave through
``EigenUnitary.to_eigenbasis`` and ``eigenbasis``. A synthetic instance
draws its D x D Haar basis on demand, the first time something reads
``eigenbasis`` (``psi0``, ``power_matrix``, ``to_eigenbasis``), so
building and verifying a reflector on it never
holds a D x D array. A Grover instance's eigensystem is known in closed
form: its eigenphases and target eigenvector (``GroverInstance.psi0``)
are written down at construction in O(D), and its real basis is drawn,
like the Haar one, on first read of ``eigenbasis``. A Hamiltonian
instance's comes from ``numpy.linalg.eigh``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import functools
import math

import numpy as np

from .core_sim import require_memory

_BASIS_ATOL = 1e-10


class EigenUnitary:
    """A unitary stored as eigenphases plus an orthonormal eigenbasis.

    eigenphases[0] is exactly 0 and belongs to the unique target eigenvector
    (column 0 of ``eigenbasis``); all other phases lie in [gap, 2 pi - gap].
    ``step_cost`` lets the ledger charge a user-supplied per-power query
    cost (e.g. when U itself is a simulated evolution), default 1.

    ``eigenbasis`` is given as a D x D array, checked at once, or as a
    function of no arguments that draws it: then the draw, its memory
    preflight and its unitarity check run the first time something reads
    ``eigenbasis``. The reflectors read only the eigenphases. Instances are
    immutable.
    """

    def __init__(self, dimension: int, eigenphases: np.ndarray,
                 eigenbasis: np.ndarray | Callable[[], np.ndarray],
                 gap: float, step_cost: int = 1):
        phases = np.asarray(eigenphases, dtype=float).copy()
        if phases.shape != (dimension,):
            raise ValueError("eigenphase count does not match dimension")
        if gap <= 0:
            raise ValueError("gap must be positive")
        if step_cost < 1:
            raise ValueError("step_cost must be >= 1")
        if phases[0] != 0.0:
            raise ValueError("target eigenphase must be exactly 0")
        others = phases[1:]
        tol = 1e-9
        if others.size and (
            others.min() < gap - tol or others.max() > 2 * math.pi - gap + tol
        ):
            raise ValueError("gapped eigenphases must lie in [gap, 2 pi - gap]")
        # the tolerance must not admit a second target, where r would be +1
        if np.any((others == 0.0) | (others == 2 * math.pi)):
            raise ValueError("only the target eigenphase may be 0 or 2 pi")
        phases.setflags(write=False)
        for name, value in (("dimension", dimension), ("eigenphases", phases),
                            ("gap", gap), ("step_cost", step_cost)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_basis", eigenbasis if callable(eigenbasis)
                           else self._checked_basis(eigenbasis))

    def __setattr__(self, name, value):
        raise AttributeError(f"EigenUnitary is immutable: cannot set {name}")

    def _checked_basis(self, eigenbasis: np.ndarray) -> np.ndarray:
        basis = np.asarray(eigenbasis)
        if basis.shape != (self.dimension, self.dimension):
            raise ValueError("eigenbasis shape does not match dimension")
        # V^H V in the given dtype: a real basis (Grover's) takes the real
        # product, a quarter of the complex one's work
        gram = basis.conj().T @ basis
        gram[np.diag_indices(self.dimension)] -= 1.0
        defect = np.abs(gram).max()
        if defect > _BASIS_ATOL:
            raise ValueError(f"eigenbasis is not unitary (defect {defect:.3e})")
        basis = basis.astype(np.complex128)
        basis.setflags(write=False)
        return basis

    @property
    def eigenbasis(self) -> np.ndarray:
        """V, eigenvector j in column j; drawn on first read if the instance
        was given a function for it."""
        if callable(self._basis):
            object.__setattr__(self, "_basis", self._checked_basis(self._basis()))
        return self._basis

    @property
    def system_qubits(self) -> int:
        n = self.dimension.bit_length() - 1
        if (1 << n) != self.dimension:
            raise ValueError("dimension is not a power of two")
        return n

    def psi0(self) -> np.ndarray:
        return self.eigenbasis[:, 0].copy()

    def power_matrix(self, k: int) -> np.ndarray:
        """U^k in the computational basis (exact for any signed integer k);
        a reference for tests, never built by the reflectors."""
        phase = np.exp(1j * k * self.eigenphases)
        return (self.eigenbasis * phase) @ self.eigenbasis.conj().T

    def to_eigenbasis(self, columns: np.ndarray) -> np.ndarray:
        """V^H columns: computational-basis system columns in U's
        eigenbasis, without forming V^H."""
        return (columns.T.conj() @ self.eigenbasis).conj().T


@dataclass(frozen=True)
class GroverInstance:
    """The search-derived unitary together with its exact ingredients.
    ``psi0`` is ``unitary.eigenbasis[:, 0]`` in closed form, so reading it
    draws no basis."""

    dimension: int
    marked: int
    unitary: EigenUnitary
    s_state: np.ndarray
    psi_tilde: np.ndarray
    psi0: np.ndarray

    @property
    def gap(self) -> float:
        return self.unitary.gap


def synth_unitary(dimension: int, gap: float, seed: int) -> EigenUnitary:
    """Random instance: lambda_0 = 0, the rest uniform in [gap, 2 pi - gap],
    and a Haar eigenbasis drawn when first read. Deterministic for a fixed
    seed; the phases and the basis come from independent streams spawned
    from it, so the phases do not depend on whether the basis is read."""
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    # gap == pi is allowed: the interval collapses to the single point pi
    if not 0 < gap <= math.pi:
        raise ValueError("gap must lie in (0, pi]")
    # the reflectors' working arrays are a few eigenphase-length vectors
    require_memory((dimension - 1).bit_length())
    phase_seed, basis_seed = np.random.SeedSequence(seed).spawn(2)
    phases = np.zeros(dimension)
    phases[1:] = np.random.default_rng(phase_seed).uniform(
        gap, 2 * math.pi - gap, size=dimension - 1)
    return EigenUnitary(dimension=dimension, eigenphases=phases,
                        eigenbasis=functools.partial(_haar_basis, dimension,
                                                     basis_seed),
                        gap=gap)


def _haar_basis(dimension: int, seed: np.random.SeedSequence) -> np.ndarray:
    """A Haar-random D x D unitary: QR of a complex Gaussian matrix, with
    R's diagonal phases moved into Q."""
    _require_square(dimension)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _require_square(dimension: int) -> None:
    """Refuse an instance whose D x D matrices would not fit in memory."""
    require_memory((dimension * dimension - 1).bit_length())


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
      there. The Helmert basis spans it: over the unmarked indices,
      column k is (1, ..., 1, -k, 0, ..., 0)/sqrt(k (k + 1)), k ones.

    The eigenphases are 0, 2 pi - 2 theta and pi - theta (D - 2 times),
    and the gap is 2 theta: pi - theta >= 2 theta for D >= 4. The phases,
    psi0, |s> and psi~ are O(D) vectors; the D x D basis is drawn when
    ``eigenbasis`` is first read.
    """
    if dimension < 4 or (dimension & (dimension - 1)) != 0:
        raise ValueError("dimension must be a power of two >= 4")
    if not 0 <= marked < dimension:
        raise ValueError("marked index out of range")
    # the report reads a few D-length vectors; the basis is drawn on demand
    require_memory((dimension - 1).bit_length())
    d = dimension
    theta = math.acos(1 - 2 / d)
    phases = np.full(d, math.pi - theta)
    phases[0] = 0.0
    phases[1] = 2 * math.pi - 2 * theta
    unitary = EigenUnitary(dimension=d, eigenphases=phases,
                           eigenbasis=functools.partial(_grover_basis, d,
                                                        marked),
                           gap=2 * theta)
    a = 1 / math.sqrt(d)
    s = np.full(d, a)
    psi_tilde = (s + _basis_vec(d, marked)) / math.sqrt(2 * (1 + a))
    # complex, as the drawn basis is, so that the two agree bit for bit
    psi0 = _grover_plane(d, marked)[:, 0].astype(np.complex128)
    return GroverInstance(dimension=d, marked=marked, unitary=unitary,
                          s_state=s, psi_tilde=psi_tilde, psi0=psi0)


def _grover_plane(d: int, marked: int) -> np.ndarray:
    """The real eigenvectors of phases 0 and 2 pi - 2 theta, as the two
    columns of a D x 2 array (see ``grover_unitary``)."""
    a = 1 / math.sqrt(d)
    b = math.sqrt(1 - 1 / d)
    plane = np.empty((d, 2))
    plane[:, 0] = a * (b - a) / b
    plane[marked, 0] = a + b
    plane[:, 1] = -a * (a + b) / b
    plane[marked, 1] = b - a
    plane /= math.sqrt(2)
    return plane


def _grover_basis(d: int, marked: int) -> np.ndarray:
    """The real D x D eigenbasis: the plane vectors, then the Helmert
    basis of the complement over the unmarked indices."""
    _require_square(d)
    basis = np.zeros((d, d))
    basis[:, :2] = _grover_plane(d, marked)
    k = np.arange(1.0, d - 1)
    norms = 1 / np.sqrt(k * (k + 1))
    helmert = np.triu(np.ones((d - 1, d - 2))) * norms
    helmert[np.arange(1, d - 1), np.arange(d - 2)] = -k * norms
    basis[np.arange(d) != marked, 2:] = helmert
    return basis


def _basis_vec(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def _target_first(angles: np.ndarray, basis: np.ndarray,
                  i0: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenphases angles - angles[i0] mod 2 pi, with the target's exactly
    0, and the basis columns, both with the target eigenvector i0 moved to
    the front; and the gap, the least distance of another phase from 0."""
    phases = np.mod(angles - angles[i0], 2 * math.pi)
    phases[i0] = 0.0
    order = [i0] + [j for j in range(phases.size) if j != i0]
    phases = phases[order]
    gap = float(np.minimum(phases[1:], 2 * math.pi - phases[1:]).min())
    return phases, basis[:, order], gap


def hamiltonian_unitary(hamiltonian: np.ndarray, lambda0: float) -> EigenUnitary:
    """U = exp(i (H - lambda0)) by exact eigendecomposition of H.

    Requires ||H|| <= 1, lambda0 within 1e-8 of a non-degenerate eigenvalue.
    """
    h = np.asarray(hamiltonian, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be square")
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    evals, evecs = np.linalg.eigh(h)
    if np.abs(evals).max() > 1 + 1e-10:
        raise ValueError("Hamiltonian norm exceeds 1")
    near = np.where(np.abs(evals - lambda0) <= 1e-8)[0]
    if near.size == 0:
        raise ValueError("lambda0 is not an eigenvalue of H (tolerance 1e-8)")
    if near.size > 1:
        raise ValueError("target eigenvalue is degenerate")
    # |H - lambda0| <= 2 < pi, so phases never wrap past the gap region
    phases, basis, gap = _target_first(evals, evecs, int(near[0]))
    return EigenUnitary(dimension=h.shape[0], eigenphases=phases,
                        eigenbasis=basis, gap=gap)
