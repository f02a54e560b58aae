"""State preparation: Ry cascade, centering, (centered) QFT, operator B.

B prepares the 2L+3 coefficient superposition for the LCU route: a
two-qubit header carrying the amplification padding terms, then the
Gaussian body B-hat applied to the data register conditional on the header
being |00>.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .core_sim import (
    CNOT,
    PAULI_X,
    PAULI_Z,
    CircuitOp,
    ControlledOp,
    DenseOp,
    QftOp,
    ResourceFootprint,
    SequenceOp,
    adjoint,
    apply_batch,
    require_memory,
)
from .gaussian_kernel import KernelParams, phi_amplitudes

OAA_ANGLE = math.pi / 10

_AMP_ATOL = 1e-10


# ---------------------------------------------------------------------------
# rotation-tree amplitude encoding


def rotation_tree_prep(amplitudes: np.ndarray) -> CircuitOp:
    """Uniformly controlled Ry cascade sending |0...0> to a real
    non-negative amplitude vector of length 2**k (Grover and Rudolph,
    quant-ph/0208112; Mottonen et al., PRL 93, 130502).

    Level d rotates qubit d by 2 arctan(sqrt(right mass / left mass)) of
    the node that qubits 0..d-1 select, so the cascade splits each node's
    mass between its two children; zero-mass nodes get angle 0 so tail
    underflow stays deterministic. The footprint charges the standard
    decomposition: 2**d CNOTs and 2**d rotations at level d >= 1, one
    rotation at the root.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    k = int(amps.shape[0]).bit_length() - 1
    if amps.ndim != 1 or (1 << k) != amps.shape[0] or k < 1:
        raise ValueError("amplitude length must be a power of two >= 2")
    if abs(np.linalg.norm(amps) - 1.0) > _AMP_ATOL:
        raise ValueError("amplitudes must be normalized")
    if np.abs(amps.imag).max() > _AMP_ATOL or amps.real.min() < -_AMP_ATOL:
        raise ValueError("rotation tree requires non-negative real amplitudes")
    # masses[k - d] holds the 2**d node masses of level d: leaves first
    masses = [np.clip(amps.real, 0, None) ** 2]
    while masses[-1].shape[0] > 1:
        masses.append(masses[-1].reshape(-1, 2).sum(axis=1))
    steps = []
    for d in range(k):
        child = masses[k - d - 1].reshape(-1, 2)
        theta = 2 * np.arctan2(np.sqrt(child[:, 1]), np.sqrt(child[:, 0]))
        theta[masses[k - d] == 0] = 0.0
        count = 1 << d
        # block diagonal: Ry(theta[i]) on qubit d where qubits 0..d-1 read i
        blocks = np.zeros((count, 2, count, 2), dtype=np.complex128)
        for i, t in enumerate(theta):
            c, s = math.cos(t / 2), math.sin(t / 2)
            blocks[i, :, i, :] = [[c, -s], [s, c]]
        cost = ResourceFootprint(two_qubit_gates=count if d else 0,
                                 one_qubit_gates=count)
        steps.append((DenseOp(blocks.reshape(2 * count, 2 * count), cost),
                      tuple(range(d + 1))))
    return SequenceOp(k, steps)


# ---------------------------------------------------------------------------
# centering


def centering_circuit(k: int, m: int) -> CircuitOp:
    """Embed a 2**k-state block into the middle of an m-qubit register.

    (m - k) stages of {CNOT(top data qubit -> appended qubit), X(old top)};
    on the embedded range this is the index shift j -> j + 2**(m-1) - 2**(k-1).
    """
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    steps = []
    for width in range(k, m):
        top = m - width          # current top data qubit; qubit top-1 is appended
        steps.append((CNOT, (top, top - 1)))
        steps.append((PAULI_X, (top,)))
    return SequenceOp(m, steps)


def centering_offset(k: int, m: int) -> int:
    return (1 << (m - 1)) - (1 << (k - 1))


# ---------------------------------------------------------------------------
# QFT variants


@dataclass(frozen=True)
class QftSpec:
    """m-qubit QFT with the controlled phases below 2 pi / 2**cutoff_b left
    out. ``exact`` is cutoff_b > m: no phase is left out."""

    m: int
    cutoff_b: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.cutoff_b < 1:
            raise ValueError("cutoff_b must be >= 1")

    @property
    def exact(self) -> bool:
        return self.cutoff_b > self.m

    @classmethod
    def exact_for(cls, m: int) -> "QftSpec":
        return cls(m=m, cutoff_b=m + 1)

    @classmethod
    def for_budget(cls, m: int, eps_qft: float) -> "QftSpec":
        """Cutoff guaranteeing ||F~ - F||_2 <= eps_qft for m <= 12."""
        if eps_qft <= 0:
            raise ValueError("eps_qft must be positive")
        b = math.ceil(math.log2(m / eps_qft)) + 2
        return cls(m=m, cutoff_b=b)


def prep_qft_spec(params: KernelParams) -> QftSpec:
    """Truncation budget of a stand-alone preparation chain at the kernel's
    eps: half of eps to the QFT side, a third of that per factor of the
    centered transform."""
    eps = params.epsilon
    return QftSpec.for_budget(params.m, eps / 6)


def qft(spec: QftSpec) -> CircuitOp:
    """The textbook circuit, H plus kept controlled phases, then reversal
    swaps, as one layered ``QftOp`` charged that circuit's gates.

    Matches the DFT with kernel exp(+2 pi i jk / 2**m) when exact.
    """
    cost = ResourceFootprint(
        two_qubit_gates=qft_two_qubit_count(spec.m, spec.cutoff_b),
        one_qubit_gates=spec.m)
    return QftOp(spec.m, spec.cutoff_b, cost)


def qft_two_qubit_count(m: int, cutoff_b: int) -> int:
    """Closed-form two-qubit gate count of the QFT circuit at that cutoff."""
    total = 0
    for k in range(2, m + 1):
        if k <= cutoff_b:
            total += m - k + 1
    return total + (m // 2)


def centered_qft(spec: QftSpec) -> CircuitOp:
    """Five-factor centered transform F . sz . F . sz . F^-1.

    sz acts on the least significant qubit, which makes the operator equal
    X^L . F . X^L (X the cyclic shift) when the QFT is exact.
    """
    f = qft(spec)
    f_inv = adjoint(f)
    sz = PAULI_Z
    m = spec.m
    lsq = (m - 1,)
    every = tuple(range(m))
    return SequenceOp(m, [
        (f_inv, every), (sz, lsq), (f, every), (sz, lsq), (f, every),
    ])


# ---------------------------------------------------------------------------
# B-hat and B


def _padded_phi(params: KernelParams) -> tuple[np.ndarray, int]:
    """phi placed symmetrically on the smallest power-of-two register.

    When 2 L* is not a power of two the amplitudes sit centered at index
    2**(k-1), so the centering shift lands l exactly on index l + L.
    """
    phi = phi_amplitudes(params)
    two_lstar = phi.shape[0]
    k = max(1, math.ceil(math.log2(two_lstar)))
    padded = np.zeros(1 << k, dtype=np.complex128)
    mid = 1 << (k - 1)
    padded[mid - params.Lstar: mid + params.Lstar] = phi
    return padded, k


def build_B_hat(params: KernelParams, spec: QftSpec) -> CircuitOp:
    """Gaussian body: rotation tree, centering, centered QFT on m qubits."""
    if spec.m != params.m:
        raise ValueError("QFT width must equal params.m")
    padded, k = _padded_phi(params)
    m = params.m
    if k > m:
        raise ValueError("Lstar register exceeds the data register")
    tree = rotation_tree_prep(padded)
    steps = [(tree, tuple(range(m - k, m)))]
    if k < m:
        steps.append((centering_circuit(k, m), tuple(range(m))))
    steps.append((centered_qft(spec), tuple(range(m))))
    return SequenceOp(m, steps)


@dataclass(frozen=True)
class BOperator:
    """The full coefficient-preparation unitary on n = m + 2 qubits.

    ``bhat_column`` is B-hat|0...0> on the m data qubits.
    ``beta_magnitudes[i]`` holds |beta_l| for l = i - L, covering the body
    (-L .. L-1), read off that column as 2 |amplitude(l + L)|^2, and the
    three header terms (L, L+1, L+2); ``s`` is their sum.
    """

    n: int
    op: CircuitOp
    bhat_column: np.ndarray
    beta_magnitudes: np.ndarray
    s: float

    @property
    def footprint(self) -> ResourceFootprint:
        return self.op.footprint


def header_beta() -> float:
    """(1/sin(pi/10) - 3) / 2, the two matched padding coefficients."""
    return (1 / math.sin(OAA_ANGLE) - 3) / 2


def build_B(params: KernelParams, spec: QftSpec) -> BOperator:
    """Header preparation plus B-hat conditioned on the header being |00>.

    The header column is (sqrt(2), sqrt(beta_L), sqrt(beta_{L+1}),
    sqrt(beta_{L+2})) / sqrt(s) with positive square roots; beta_L = 1 and
    the last two terms cancel in the LCU, making s = 1/sin(pi/10) exactly.
    B-hat is built once and simulated once, after ``require_memory``.
    """
    m = params.m
    require_memory(m)
    n = m + 2
    b_pad = header_beta()
    s = 2.0 + 1.0 + 2.0 * b_pad
    column = np.array([math.sqrt(2.0), 1.0, math.sqrt(b_pad), math.sqrt(b_pad)])
    column /= math.sqrt(s)
    header = DenseOp(
        _householder_completion(column),
        ResourceFootprint(two_qubit_gates=3, one_qubit_gates=4,
                          modeled=frozenset({"header_prep_const"})),
    )

    bhat = build_B_hat(params, spec)
    # decomposition model for the |00>-conditioned body: twice the
    # uncontrolled two-qubit count
    ctrl_cost = ResourceFootprint(
        queries_u=bhat.footprint.queries_u,
        two_qubit_gates=2 * bhat.footprint.two_qubit_gates,
        one_qubit_gates=bhat.footprint.one_qubit_gates,
        ancilla_qubits=bhat.footprint.ancilla_qubits,
        modeled=bhat.footprint.modeled | {"controlled_prep_x2"},
    )
    conditioned = ControlledOp(bhat, num_controls=2, pattern=0,
                               footprint=ctrl_cost)

    op = SequenceOp(n, [(header, (0, 1)), (conditioned, tuple(range(n)))])

    zero = np.zeros((1 << m, 1), dtype=np.complex128)
    zero[0] = 1.0
    bhat_column = apply_batch(bhat, zero, m)[:, 0]
    betas = np.concatenate([2 * np.abs(bhat_column) ** 2, [1.0, b_pad, b_pad]])
    return BOperator(n=n, op=op, bhat_column=bhat_column,
                     beta_magnitudes=betas, s=float(np.sum(betas)))


def _householder_completion(column: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector."""
    dim = column.shape[0]
    e0 = np.zeros(dim)
    e0[0] = 1.0
    w = e0 - column
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(dim)
    w /= nw
    return np.eye(dim) - 2 * np.outer(w, w)
