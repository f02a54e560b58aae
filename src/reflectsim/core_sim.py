"""Dense statevector simulation substrate.

Operator kinds with their declared footprints, one entry point that applies
an operator to column arrays (``apply_batch``), and the memory preflight.
The seven kinds are dense, eigen-powers, the layered (banded) QFT
``QftOp``, permutation, zero reflection, controlled and sequence. Every
controlled power of U is an ``EigenPowersOp``, the ladder U^(start + a)
on ancilla value a, which stores no table: select's body, the PEA ladders
and ``cphase``'s. Inside a register every ladder takes one broadcast
kernel, a zero reflection one negation, X is the one view kernel, and
every other leaf kind runs on a contiguous copy of its axes. The fixed
gates (``HADAMARD``, ``PAULI_X``, ``PAULI_Z``, a zero reflection,
``CNOT``, ``SWAP``) are shared constants with read-only tables.

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

from dataclasses import dataclass
import math
import os

import numpy as np

UNITARY_ATOL = 1e-10
EXACT_ATOL = 1e-12
# column_blocks and unitarity_defect work on blocks of columns with at most
# this many amplitudes (and at least one column): 64 columns of a 256 x 256
# matrix
BLOCK_AMPLITUDES = 1 << 14


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

    def merge(self, *others: "ResourceFootprint") -> "ResourceFootprint":
        """Sequential composition, built as one footprint: counters add,
        ancilla peaks, labels join."""
        fps = (self, *others)
        return ResourceFootprint(
            queries_u=sum(f.queries_u for f in fps),
            two_qubit_gates=sum(f.two_qubit_gates for f in fps),
            one_qubit_gates=sum(f.one_qubit_gates for f in fps),
            ancilla_qubits=max(f.ancilla_qubits for f in fps),
            modeled=frozenset().union(*(f.modeled for f in fps)),
        )

    def as_dict(self) -> dict:
        return {"queries_u": self.queries_u,
                "two_qubit_gates": self.two_qubit_gates,
                "one_qubit_gates": self.one_qubit_gates,
                "ancilla_qubits": self.ancilla_qubits,
                "modeled": sorted(self.modeled)}


ZERO_COST = ResourceFootprint()


# ---------------------------------------------------------------------------
# operator kinds


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


class EigenPowersOp(CircuitOp):
    """A ladder of powers of U controlled on an ancilla register, in U's
    eigenbasis: U^(start + a) on ancilla value a, which is
    exp(i (start + a) lambda_j) on eigenvector j, or its inverse.

    Holds the ancilla width, the first power, the eigenphases and the
    ``inverse`` flag, as ``QftOp`` holds its own, and makes the phases
    only when applied, so no table of powers and no 2^(n + s) diagonal is
    held. The inverse negates the integer powers before the exponential,
    so its phases are bit for bit those of the powers -(start + a).
    """

    def __init__(self, num_ancilla: int, start: int, eigenphases: np.ndarray,
                 footprint: ResourceFootprint = ZERO_COST,
                 inverse: bool = False):
        lam = np.asarray(eigenphases, dtype=float)
        n_sys = int(lam.shape[0]).bit_length() - 1
        if num_ancilla < 0:
            raise ValueError("num_ancilla must be >= 0")
        if lam.ndim != 1 or (1 << n_sys) != lam.shape[0]:
            raise ValueError("system dimension is not a power of two")
        self.num_ancilla = num_ancilla
        self.start = start
        self.eigenphases = lam
        self.num_qubits = num_ancilla + n_sys
        self.footprint = footprint
        self.inverse = inverse

    def diagonal(self) -> np.ndarray:
        """The 2^(n + s) diagonal, exp(+-i (start + a) lambda_j) at index
        (a, j), made on each call."""
        powers = np.arange(self.start, self.start + (1 << self.num_ancilla))
        if self.inverse:
            powers = -powers
        return np.exp(1j * np.outer(powers, self.eigenphases)).reshape(-1)

    def _transform(self, block):
        return self.diagonal()[:, None] * block


class QftOp(CircuitOp):
    """The m-qubit QFT, kernel exp(+2 pi i jk / 2**m), with the controlled
    phases below 2 pi / 2**cutoff_b left out (Coppersmith's banded QFT),
    or its inverse.

    The textbook circuit gives qubit j a Hadamard, then the phases
    2 pi / 2**k from qubit j + k - 1 for k = 2..cutoff_b, then reverses the
    qubits. The banded QFT's matrix is symmetric (whether it keeps the phase
    between an input bit and an output bit depends on the sum of their
    weights), so it equals that circuit transposed, which is applied here:
    one axis reversal, then m layers from the last qubit to the first, each
    one multiply of qubit j's |1> half by its kept phases and one Hadamard
    butterfly. The inverse conjugates the phases. Every cutoff takes this
    one arithmetic path, so amplitudes that meet only unit phases come out
    bit for bit the same at every cutoff. No table is stored: layer j's
    phases, which depend only on the next min(cutoff_b - 1, m - 1 - j)
    qubits, are a strided slice of one root-of-unity table made per
    application.
    """

    def __init__(self, num_qubits: int, cutoff_b: int,
                 footprint: ResourceFootprint, inverse: bool = False):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if cutoff_b < 1:
            raise ValueError("cutoff_b must be >= 1")
        self.num_qubits = num_qubits
        self.cutoff_b = cutoff_b
        self.footprint = footprint
        self.inverse = inverse

    def _transform(self, block):
        m = self.num_qubits
        batch = block.shape[1]
        axes = (2,) * m + (batch,)
        # the swap network, with the 2^(-m/2) of the m Hadamards, in one copy
        out = np.empty(block.shape, dtype=np.complex128)
        np.multiply(block.reshape(axes).transpose(*range(m - 1, -1, -1), m),
                    2.0 ** (-m / 2), out=out.reshape(axes))
        top = min(self.cutoff_b - 1, m - 1)
        sign = -1j if self.inverse else 1j
        root = np.exp(sign * (math.pi / (1 << top)) * np.arange(1 << top))
        work = np.empty(out.size // 2, dtype=np.complex128)
        for j in range(m - 1, -1, -1):
            keep = min(top, m - 1 - j)
            phases = root[::1 << (top - keep)][:, None]
            pair = out.reshape(1 << j, 2, 1 << keep, -1)
            low, high = pair[:, 0], pair[:, 1]
            kicked = work.reshape(low.shape)
            # numpy runs its inner loop over the contiguous rows: at two
            # amplitudes a row, looping down the columns is 2.5-5x faster
            order = "F" if kicked[0].size == 2 else "K"
            np.multiply(high, phases, out=kicked, order=order)
            np.subtract(low, kicked, out=high, order=order)
            np.add(low, kicked, out=low, order=order)
        return out


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
        self.steps = tuple((op, _check_targets(op, num_qubits, targets))
                           for op, targets in steps)
        self.footprint = ZERO_COST.merge(*(op.footprint
                                           for op, _ in self.steps))

    def _transform(self, block):
        # stay in tensor form between steps; only generic members copy
        batch = block.shape[1]
        tensor = block.reshape((2,) * self.num_qubits + (batch,))
        for op, targets in self.steps:
            tensor = _embed_tensor(op, tensor, self.num_qubits, targets)
        return _fresh_columns(tensor, block, (self.dim, batch))


def _check_targets(op: CircuitOp, num_qubits: int, targets) -> tuple:
    tg = (tuple(range(op.num_qubits)) if targets is None
          else tuple(map(int, targets)))
    if len(tg) != op.num_qubits:
        raise ValueError(
            f"operator acts on {op.num_qubits} qubits but {len(tg)} targets given"
        )
    if len(set(tg)) != len(tg):
        raise ValueError("duplicate target qubit")
    if tg and (min(tg) < 0 or max(tg) >= num_qubits):
        raise ValueError("target qubit out of range")
    return tg


def _embed_tensor(op: CircuitOp, tensor: np.ndarray, num_qubits: int,
                  targets: tuple) -> np.ndarray:
    """Tensor-form embedding: input and output have shape (2,)*n + (batch,).

    The output may be a strided view of the input (X), so callers copy
    before handing it out. Ladders, X, zero reflections (negating all but
    the targets' all-zero slice) and controlled ops work on the tensor's
    own axes; other kinds move their axes to the front and run on one
    contiguous copy."""
    k = op.num_qubits
    if isinstance(op, EigenPowersOp):
        # op axis i is register axis targets[i]; order the axes by target
        # and broadcast over every other axis
        order = sorted(range(k), key=targets.__getitem__)
        diag = op.diagonal().reshape((2,) * k).transpose(order)
        shape = [1] * (num_qubits + 1)
        for t in targets:
            shape[t] = 2
        return diag.reshape(shape) * tensor
    if isinstance(op, PermutationOp) and op.perm.tolist() == [1, 0]:
        return np.flip(tensor, axis=targets[0])
    if isinstance(op, ZeroReflectionOp):
        zero = tuple(0 if i in targets else slice(None)
                     for i in range(num_qubits + 1))
        out = -tensor
        out[zero] = tensor[zero]
        return out
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
    # targets first, the other axes after them in order (np.moveaxis's
    # order, without its per-call axis normalisation); when the targets
    # already lead, both transposes are free views
    perm = targets + tuple(i for i in range(tensor.ndim) if i not in targets)
    moved = tensor.transpose(perm)
    flat = np.ascontiguousarray(moved).reshape(1 << k, -1)
    out = op._transform(flat)
    return out.reshape(moved.shape).transpose(np.argsort(perm))


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


def column_blocks(op: CircuitOp):
    """The dense matrix of an operator as (first column, block) pairs, in
    column order: the operator applied to one block of columns of the
    identity at a time, each block ``BLOCK_AMPLITUDES`` amplitudes (and at
    least one column), so no working copy holds the whole matrix."""
    dim = op.dim
    width = max(1, BLOCK_AMPLITUDES // dim)
    for j in range(0, dim, width):
        yield j, op._transform(
            np.eye(dim, min(width, dim - j), -j, dtype=np.complex128))


def op_matrix(op: CircuitOp) -> np.ndarray:
    """Dense matrix of an operator (columns are images of basis states),
    filled from ``column_blocks``."""
    mat = np.empty((op.dim, op.dim), dtype=np.complex128)
    for j, block in column_blocks(op):
        mat[:, j:j + block.shape[1]] = block
    return mat


def unitarity_defect(op: CircuitOp) -> float:
    """max-norm of Op^dagger.Op - I, computed densely, one block of rows of
    Op^dagger.Op at a time, with 1 taken off its diagonal in place."""
    mat = op_matrix(op)
    width = max(1, BLOCK_AMPLITUDES // op.dim)
    defect = 0.0
    for j in range(0, op.dim, width):
        gram = mat[:, j:j + width].conj().T @ mat
        rows = np.arange(gram.shape[0])
        gram[rows, rows + j] -= 1.0
        defect = max(defect, float(np.abs(gram).max()))
    return defect


def adjoint(op: CircuitOp) -> CircuitOp:
    """Inverse operator; same declared footprint.

    The inverse of a checked operator is exact (a conjugate transpose,
    a negated ladder, conjugated QFT phases, an inverse
    permutation, reversed steps on the same targets), so it is built
    without re-running the constructors' checks. A sequence inverts each
    distinct member once and reuses that inverse wherever the member
    repeats."""
    if isinstance(op, DenseOp):
        return _like(op, matrix=op.matrix.conj().T)
    if isinstance(op, (EigenPowersOp, QftOp)):
        return _like(op, inverse=not op.inverse)
    if isinstance(op, PermutationOp):
        inv = np.empty_like(op.perm)
        inv[op.perm] = np.arange(op.perm.shape[0])
        return _like(op, perm=inv)
    if isinstance(op, ZeroReflectionOp):
        return op
    if isinstance(op, ControlledOp):
        return _like(op, sub=adjoint(op.sub))
    if isinstance(op, SequenceOp):
        # keyed by identity: op.steps keeps every member alive meanwhile
        inverses = {}
        steps = []
        for o, tg in reversed(op.steps):
            if id(o) not in inverses:
                inverses[id(o)] = adjoint(o)
            steps.append((inverses[id(o)], tg))
        return _like(op, steps=tuple(steps))
    raise TypeError(f"cannot invert {type(op).__name__}")


def _like(op: CircuitOp, **changes) -> CircuitOp:
    """A copy of ``op`` with some attributes replaced, built without its
    constructor's checks."""
    new = object.__new__(type(op))
    new.__dict__.update(op.__dict__, **changes)
    return new


# ---------------------------------------------------------------------------
# memory preflight


# apply_batch keeps the input, a moved copy and each step's output alive:
# build_B traced 705 MiB (5.5x) for its 128 MiB B-hat state at L = 2^22
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
        # the size in exact arithmetic: it may be past the float range.
        # decimal is imported only here, since it adds to every process
        from decimal import Decimal
        need = Decimal(WORKING_COPIES) * (16 << total_qubits)
        raise ValueError(
            f"an array of 2^{total_qubits} entries needs about "
            f"{need / 2 ** 30:.3g} GiB, more than the "
            f"{have / 2 ** 30:.1f} GiB of physical memory")


# ---------------------------------------------------------------------------
# elementary gates

_ONE_Q = ResourceFootprint(one_qubit_gates=1)
_TWO_Q = ResourceFootprint(two_qubit_gates=1)


def _frozen(op: CircuitOp, *tables: str) -> CircuitOp:
    """``op`` with its tables made read-only, so one instance can be shared
    by every circuit."""
    for table in tables:
        getattr(op, table).flags.writeable = False
    return op


HADAMARD = _frozen(DenseOp(np.array([[1, 1], [1, -1]], dtype=np.complex128)
                           / math.sqrt(2), _ONE_Q), "matrix")
PAULI_X = _frozen(PermutationOp(np.array([1, 0]), _ONE_Q), "perm")
PAULI_Z = ZeroReflectionOp(1, _ONE_Q)
CNOT = ControlledOp(PAULI_X, 1, pattern=1, footprint=_TWO_Q)
SWAP = _frozen(PermutationOp(np.array([0, 2, 1, 3]), _TWO_Q), "perm")


def ry(theta: float) -> CircuitOp:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return DenseOp(np.array([[c, -s], [s, c]]), _ONE_Q)


def cphase(angle: float) -> CircuitOp:
    """Symmetric controlled phase e^{i angle} on |11>: a controlled ladder."""
    return ControlledOp(EigenPowersOp(1, 0, [angle]), 1, 1, _TWO_Q)
