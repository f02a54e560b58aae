"""Dense statevector simulation substrate.

Operator kinds with their declared footprints, one entry point that applies
an operator to column arrays (``apply_batch``), and the memory preflight.

Conventions used by every module in this package:

* a state is a complex (2**n, batch) array of column vectors; there is no
  separate state type;
* qubit 0 is the **most significant** index bit of a register;
* ancilla qubits occupy the most-significant block, the system the least;
* sequences list their members in application (time) order, so the matrix
  of ``SequenceOp([a, b])`` is ``M_b @ M_a``;
* all amplitudes are complex128. Unitarity is enforced at construction to
  max-norm 1e-10; permutation/identity equalities are checked at 1e-12.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from decimal import Decimal
import math
import os

import numpy as np

UNITARY_ATOL = 1e-10
EXACT_ATOL = 1e-12


# ---------------------------------------------------------------------------
# resource footprints


@dataclass(frozen=True)
class ResourceFootprint:
    """Declared cost of applying an operator once.

    ``queries_u`` counts controlled-U/U^dagger invocations, ``two_qubit_gates``
    the U-independent two-qubit gates. ``ancilla_qubits`` is peak extra
    workspace, not additive. ``modeled`` labels costs that come from an
    analytic model rather than from simulated gates.
    """

    queries_u: int = 0
    two_qubit_gates: int = 0
    one_qubit_gates: int = 0
    ancilla_qubits: int = 0
    modeled: frozenset = frozenset()

    def merge(self, other: "ResourceFootprint") -> "ResourceFootprint":
        """Sequential composition: counters add, ancilla peaks, labels join."""
        return ResourceFootprint(
            queries_u=self.queries_u + other.queries_u,
            two_qubit_gates=self.two_qubit_gates + other.two_qubit_gates,
            one_qubit_gates=self.one_qubit_gates + other.one_qubit_gates,
            ancilla_qubits=max(self.ancilla_qubits, other.ancilla_qubits),
            modeled=self.modeled | other.modeled,
        )

    __add__ = merge

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "modeled": sorted(self.modeled)}


ZERO_COST = ResourceFootprint()


# ---------------------------------------------------------------------------
# states and operator kinds


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    dim = 1 << num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class CircuitOp:
    """An applicable unitary with a declared resource footprint."""

    num_qubits: int
    footprint: ResourceFootprint

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def _transform(self, block: np.ndarray) -> np.ndarray:
        """Apply to a (dim, batch) array of column vectors."""
        raise NotImplementedError


class DenseOp(CircuitOp):
    def __init__(self, matrix: np.ndarray, footprint: ResourceFootprint = ZERO_COST):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        n = int(mat.shape[0]).bit_length() - 1
        if (1 << n) != mat.shape[0]:
            raise ValueError("matrix dimension must be a power of two")
        defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        if defect > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        self.matrix = mat
        self.num_qubits = n
        self.footprint = footprint

    def _transform(self, block):
        return self.matrix @ block


class DiagonalOp(CircuitOp):
    def __init__(self, diagonal: np.ndarray, footprint: ResourceFootprint = ZERO_COST):
        diag = np.asarray(diagonal, dtype=np.complex128)
        n = int(diag.shape[0]).bit_length() - 1
        if diag.ndim != 1 or (1 << n) != diag.shape[0]:
            raise ValueError("diagonal length must be a power of two")
        if np.abs(np.abs(diag) - 1.0).max() > UNITARY_ATOL:
            raise ValueError("diagonal entries must have unit modulus")
        self.diagonal = diag
        self.num_qubits = n
        self.footprint = footprint

    def _transform(self, block):
        return self.diagonal[:, None] * block


class EigenPowersOp(CircuitOp):
    """Signed powers of U controlled on an ancilla register, in U's
    eigenbasis: sign_a U^(k_a) on ancilla value a, which is
    sign_a exp(i k_a lambda_j) on eigenvector j.

    Stores the integer powers, the +-1 signs and the eigenphases, and makes
    the phases only when applied, so no 2^(n + s) diagonal is held.
    """

    def __init__(self, powers: np.ndarray, signs: np.ndarray,
                 eigenphases: np.ndarray,
                 footprint: ResourceFootprint = ZERO_COST):
        k = np.asarray(powers, dtype=np.int64)
        sg = np.asarray(signs, dtype=float)
        lam = np.asarray(eigenphases, dtype=float)
        n_anc = int(k.shape[0]).bit_length() - 1
        n_sys = int(lam.shape[0]).bit_length() - 1
        if k.ndim != 1 or (1 << n_anc) != k.shape[0] or sg.shape != k.shape:
            raise ValueError("powers and signs need one entry per ancilla value")
        if lam.ndim != 1 or (1 << n_sys) != lam.shape[0]:
            raise ValueError("eigenphase count must be a power of two")
        if not np.all(np.abs(sg) == 1):
            raise ValueError("signs must be +1 or -1")
        self.powers = k
        self.signs = sg
        self.eigenphases = lam
        self.num_qubits = n_anc + n_sys
        self.footprint = footprint

    def _transform(self, block):
        phases = np.exp(1j * np.outer(self.powers, self.eigenphases))
        phases *= self.signs[:, None]
        batch = block.shape[1]
        rows = block.reshape(self.powers.shape[0], -1, batch)
        return (phases[:, :, None] * rows).reshape(self.dim, batch)


class PermutationOp(CircuitOp):
    """Basis permutation |j> -> |perm[j]>."""

    def __init__(self, perm: np.ndarray, footprint: ResourceFootprint = ZERO_COST):
        p = np.asarray(perm, dtype=np.int64)
        n = int(p.shape[0]).bit_length() - 1
        if p.ndim != 1 or (1 << n) != p.shape[0]:
            raise ValueError("permutation length must be a power of two")
        if not np.array_equal(np.sort(p), np.arange(p.shape[0])):
            raise ValueError("not a permutation")
        self.perm = p
        self.num_qubits = n
        self.footprint = footprint

    def _transform(self, block):
        out = np.empty_like(block)
        out[self.perm] = block
        return out


class ZeroReflectionOp(CircuitOp):
    """2|0><0| - 1: keeps the all-zero amplitude and negates the rest."""

    def __init__(self, num_qubits: int, footprint: ResourceFootprint = ZERO_COST):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self.footprint = footprint

    def _transform(self, block):
        out = -block
        out[0] = block[0]
        return out


class ControlledOp(CircuitOp):
    """Apply ``sub`` on the low qubits when the leading control qubits match
    ``pattern`` (a basis index over the control register, big-endian)."""

    def __init__(self, sub: CircuitOp, num_controls: int, pattern: int,
                 footprint: ResourceFootprint | None = None):
        if num_controls < 1:
            raise ValueError("need at least one control qubit")
        if not 0 <= pattern < (1 << num_controls):
            raise ValueError("control pattern out of range")
        self.sub = sub
        self.num_controls = num_controls
        self.pattern = pattern
        self.num_qubits = num_controls + sub.num_qubits
        # Controlled-U counts like U in the query model; gate-model overrides
        # are supplied by the builders that know their decomposition cost.
        self.footprint = sub.footprint if footprint is None else footprint

    def _transform(self, block):
        batch = block.shape[1]
        out = block.copy().reshape(1 << self.num_controls, self.sub.dim, batch)
        out[self.pattern] = self.sub._transform(out[self.pattern])
        return out.reshape(self.dim, batch)


class SequenceOp(CircuitOp):
    """A sequence of (op, targets) steps on a fixed-width register.

    Steps are applied first-to-last; the footprint is always the merge of
    the members' footprints.
    """

    def __init__(self, num_qubits: int, steps):
        self.num_qubits = num_qubits
        norm_steps = []
        for op, targets in steps:
            tg = _check_targets(op, num_qubits, targets)
            norm_steps.append((op, tg))
        self.steps = tuple(norm_steps)
        self.footprint = sum((op.footprint for op, _ in self.steps), ZERO_COST)

    def _transform(self, block):
        # stay in tensor form between steps; only generic members copy
        batch = block.shape[1]
        tensor = block.reshape((2,) * self.num_qubits + (batch,))
        for op, targets in self.steps:
            tensor = _embed_tensor(op, tensor, self.num_qubits, targets)
        return _fresh_columns(tensor, block, (self.dim, batch))


def _check_targets(op: CircuitOp, num_qubits: int, targets) -> tuple:
    if targets is None:
        targets = tuple(range(op.num_qubits))
    tg = tuple(int(t) for t in targets)
    if len(tg) != op.num_qubits:
        raise ValueError(
            f"operator acts on {op.num_qubits} qubits but {len(tg)} targets given"
        )
    if len(set(tg)) != len(tg):
        raise ValueError("duplicate target qubit")
    if any(t < 0 or t >= num_qubits for t in tg):
        raise ValueError("target qubit out of range")
    return tg


_X_PERM = (1, 0)
_SWAP_PERM = (0, 2, 1, 3)


def _embed_tensor(op: CircuitOp, tensor: np.ndarray, num_qubits: int,
                  targets: tuple) -> np.ndarray:
    """Tensor-form embedding: input and output have shape (2,)*n + (batch,).

    The output may be a strided view of the input (X and SWAP), so callers
    copy before handing it out. Diagonals, X, SWAP and controlled ops work
    on the tensor's own axes; other kinds move their axes to the front and
    run on one contiguous copy."""
    k = op.num_qubits
    if isinstance(op, DiagonalOp):
        # op axis i is register axis targets[i]; order the axes by target
        # and broadcast over every other axis
        order = sorted(range(k), key=targets.__getitem__)
        diag = op.diagonal.reshape((2,) * k).transpose(order)
        shape = [1] * (num_qubits + 1)
        for t in targets:
            shape[t] = 2
        return diag.reshape(shape) * tensor
    if isinstance(op, PermutationOp):
        perm = tuple(op.perm.tolist())
        if perm == _X_PERM:
            return np.flip(tensor, axis=targets[0])
        if perm == _SWAP_PERM:
            return np.swapaxes(tensor, *targets)
    if isinstance(op, ControlledOp):
        # fix each control axis at its pattern bit; the slice drops those
        # axes, so renumber the sub-op's targets
        c = op.num_controls
        controls = targets[:c]
        index = [slice(None)] * (num_qubits + 1)
        for i, t in enumerate(controls):
            index[t] = (op.pattern >> (c - 1 - i)) & 1
        index = tuple(index)
        sub_targets = tuple(t - sum(q < t for q in controls)
                            for t in targets[c:])
        out = tensor.copy()
        out[index] = _embed_tensor(op.sub, out[index], num_qubits - c,
                                   sub_targets)
        return out
    moved = np.moveaxis(tensor, targets, range(k))
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(1 << k, -1)
    out = op._transform(flat)
    return np.moveaxis(out.reshape(shape), range(k), targets)


def _fresh_columns(tensor: np.ndarray, source: np.ndarray,
                   shape: tuple) -> np.ndarray:
    """``tensor`` as a contiguous (dim, batch) array that shares no memory
    with ``source``: view kernels can hand back the source itself."""
    if np.may_share_memory(tensor, source):
        return np.array(tensor, order="C").reshape(shape)
    return np.ascontiguousarray(tensor).reshape(shape)


# ---------------------------------------------------------------------------
# application and metrics


def apply_batch(op: CircuitOp, columns: np.ndarray, num_qubits: int,
                targets=None) -> np.ndarray:
    """Return op applied to every column of a (2**num_qubits, batch) array.
    The input is never written.

    targets[i] is the register qubit carrying op's qubit i (op's most
    significant qubit first). Defaults to the whole register.
    """
    tg = _check_targets(op, num_qubits, targets)
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2 or cols.shape[0] != (1 << num_qubits):
        raise ValueError("columns must be a (2**num_qubits, batch) array")
    if tg == tuple(range(num_qubits)):
        return op._transform(cols)
    tensor = cols.reshape((2,) * num_qubits + (cols.shape[1],))
    tensor = _embed_tensor(op, tensor, num_qubits, tg)
    return _fresh_columns(tensor, cols, cols.shape)


def op_matrix(op: CircuitOp) -> np.ndarray:
    """Dense matrix of an operator (columns are images of basis states)."""
    return op._transform(np.eye(op.dim, dtype=np.complex128))


def densify(op: CircuitOp) -> DenseOp:
    """Collapse a narrow operator to one dense matrix with the same
    footprint. Purely a simulation speedup: the matrix is the exact product
    of the member gates, so semantics (including any QFT truncation) are
    unchanged."""
    return DenseOp(op_matrix(op), op.footprint)


def unitarity_defect(op: CircuitOp) -> float:
    """max-norm of Op^dagger.Op - I, computed densely."""
    mat = op_matrix(op)
    return float(np.abs(mat.conj().T @ mat - np.eye(op.dim)).max())


def adjoint(op: CircuitOp) -> CircuitOp:
    """Inverse operator; same declared footprint.

    The inverse of a checked operator is exact (a conjugate transpose, a
    conjugate, an inverse permutation, reversed steps on the same targets),
    so it is built without re-running the constructors' checks."""
    if isinstance(op, DenseOp):
        return _like(op, matrix=op.matrix.conj().T)
    if isinstance(op, DiagonalOp):
        return _like(op, diagonal=op.diagonal.conj())
    if isinstance(op, EigenPowersOp):
        return _like(op, powers=-op.powers)
    if isinstance(op, PermutationOp):
        inv = np.empty_like(op.perm)
        inv[op.perm] = np.arange(op.perm.shape[0])
        return _like(op, perm=inv)
    if isinstance(op, ZeroReflectionOp):
        return op
    if isinstance(op, ControlledOp):
        return _like(op, sub=adjoint(op.sub))
    if isinstance(op, SequenceOp):
        return _like(op, steps=tuple((adjoint(o), tg)
                                     for o, tg in reversed(op.steps)))
    raise TypeError(f"cannot invert {type(op).__name__}")


def _like(op: CircuitOp, **changes) -> CircuitOp:
    """A copy of ``op`` with some attributes replaced, built without its
    constructor's checks."""
    new = object.__new__(type(op))
    new.__dict__.update(op.__dict__, **changes)
    return new


# ---------------------------------------------------------------------------
# memory preflight


# apply_batch keeps the input, a moved copy and each step's output alive: a
# dense reflect pea --dim 8 verification peaked at 7.3x its 128 MiB state
WORKING_COPIES = 7.3


def working_set_bytes(total_qubits: int) -> float:
    """Estimated peak memory of simulating one state of ``total_qubits``
    qubits."""
    return 16 * (1 << total_qubits) * WORKING_COPIES


def require_memory(total_qubits: int) -> None:
    """Raise ValueError, with the GiB needed, when working on an array of
    2^total_qubits entries (a state of that many qubits, or a table or grid
    of that length) would not fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # from have's bit length on, 2^total_qubits alone exceeds it, and the
    # float estimate could overflow
    if (total_qubits >= have.bit_length()
            or working_set_bytes(total_qubits) > have):
        # the size in exact arithmetic: it may be past the float range
        need = Decimal(WORKING_COPIES) * (16 << total_qubits)
        raise ValueError(
            f"an array of 2^{total_qubits} entries needs about "
            f"{need / 2 ** 30:.3g} GiB, more than the "
            f"{have / 2 ** 30:.1f} GiB of physical memory")


# ---------------------------------------------------------------------------
# elementary gates

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)

_ONE_Q = ResourceFootprint(one_qubit_gates=1)
_TWO_Q = ResourceFootprint(two_qubit_gates=1)


def hadamard() -> CircuitOp:
    return DenseOp(_H, _ONE_Q)


def pauli_x() -> CircuitOp:
    return PermutationOp(np.array([1, 0]), _ONE_Q)


def pauli_z() -> CircuitOp:
    return DiagonalOp(np.array([1.0, -1.0]), _ONE_Q)


def ry(theta: float) -> CircuitOp:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return DenseOp(np.array([[c, -s], [s, c]]), _ONE_Q)


def cnot() -> CircuitOp:
    return ControlledOp(pauli_x(), 1, pattern=1, footprint=_TWO_Q)


def cphase(angle: float) -> CircuitOp:
    """Symmetric controlled phase: e^{i angle} on |11>."""
    return DiagonalOp(np.array([1.0, 1.0, 1.0, np.exp(1j * angle)]), _TWO_Q)


def swap_gate() -> CircuitOp:
    return PermutationOp(np.array([0, 2, 1, 3]), _TWO_Q)
