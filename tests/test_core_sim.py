"""Substrate tests: operator kinds, application to column arrays, metrics."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from reflectsim import core_sim, suite
from reflectsim.core_sim import (
    BLOCK_AMPLITUDES,
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    SWAP,
    CircuitOp,
    ControlledOp,
    DenseOp,
    EigenPowersOp,
    PermutationOp,
    QftOp,
    ResourceFootprint,
    SequenceOp,
    ZeroReflectionOp,
    adjoint,
    apply_batch,
    cphase,
    op_matrix,
    ry,
    unitarity_defect,
)
from reflectsim.lcu_reflector import (
    ancilla_reflection,
    build_A,
    build_select,
    build_W,
)
from reflectsim.spectral_models import synth_unitary
from oracles import embed_moveaxis, kron_chain, random_state


def _basis(num_qubits: int, index: int = 0) -> np.ndarray:
    col = np.zeros((1 << num_qubits, 1), dtype=np.complex128)
    col[index] = 1.0
    return col


def _random_columns(num_qubits: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_state(num_qubits, rng) for _ in range(batch)],
                    axis=1)


def _random_unitary(num_qubits: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(_random_columns(num_qubits, 1 << num_qubits, seed))
    return q


class TestApply:
    def test_x_flips(self):
        out = apply_batch(PAULI_X, _basis(1, 0), 1)
        assert abs(out[1, 0] - 1) < 1e-15

    def test_hadamard_plus_state(self):
        out = apply_batch(HADAMARD, _basis(1, 0), 1)
        assert np.allclose(out[:, 0], [1 / math.sqrt(2)] * 2)

    def test_qft_roundtrip_random_state(self):
        # apply F then F^dagger restores every column to 1e-12
        from reflectsim.state_prep import QftSpec, qft
        op = qft(QftSpec.exact_for(3))
        cols = _random_columns(3, 4, seed=1)
        back = apply_batch(adjoint(op), apply_batch(op, cols, 3), 3)
        for c in range(cols.shape[1]):
            assert np.abs(back[:, c] - cols[:, c]).max() < 1e-12

    def test_targets_embedding_matches_kron(self):
        h = op_matrix(HADAMARD)
        x = op_matrix(PAULI_X)
        eye = np.eye(2)
        cols = _random_columns(3, 3, seed=2)
        out = apply_batch(HADAMARD, cols, 3, targets=(1,))
        out2 = apply_batch(PAULI_X, cols, 3, targets=(2,))
        for c in range(cols.shape[1]):
            expect = kron_chain(eye, h, eye) @ cols[:, c]
            assert np.abs(out[:, c] - expect).max() < 1e-14
            expect2 = kron_chain(eye, eye, x) @ cols[:, c]
            assert np.abs(out2[:, c] - expect2).max() < 1e-14

    def test_two_qubit_reversed_targets(self):
        cols = _random_columns(2, 3, seed=3)
        out = apply_batch(CNOT, cols, 2, targets=(1, 0))
        for c in range(cols.shape[1]):
            # control on qubit 1 (LSB), target qubit 0
            expect = cols[[0, 3, 2, 1], c]
            assert np.abs(out[:, c] - expect).max() < 1e-15

    def test_norm_preserved(self):
        state = _random_columns(4, 1, seed=4)
        out = apply_batch(SWAP, state, 4, targets=(0, 3))
        assert abs(np.linalg.norm(out) - 1) < 1e-10

    def test_errors(self):
        state = _basis(2)
        with pytest.raises(ValueError):
            apply_batch(CNOT, state, 2, targets=(0, 0))
        with pytest.raises(ValueError):
            apply_batch(CNOT, state, 2, targets=(0, 2))
        with pytest.raises(ValueError):
            apply_batch(CNOT, state, 2, targets=(0,))
        with pytest.raises(ValueError):
            apply_batch(CNOT, state, 2, targets=(-1, 0))
        # columns must be a (2**num_qubits, batch) array
        with pytest.raises(ValueError):
            apply_batch(CNOT, np.ones((3, 1)), 2)
        with pytest.raises(ValueError):
            apply_batch(CNOT, np.ones(4), 2)

    @pytest.mark.parametrize("targets", [(0, 1), (2, 0)])
    def test_input_columns_unchanged(self, targets):
        # states are plain arrays: no op kind may write its input or hand
        # it back as its output. X returns a view of its input, and two
        # X's in a row give back the input's own layout.
        ops = (DenseOp(op_matrix(SWAP)), cphase(0.4), CNOT,
               PermutationOp(np.array([3, 0, 1, 2])), ZeroReflectionOp(2),
               EigenPowersOp(np.array([1, -2]), np.array([1, -1]),
                             np.array([0.0, 0.3])),
               QftOp(2, 2, ResourceFootprint()),
               SequenceOp(2, [(HADAMARD, (1,)), (SWAP, (0, 1))]),
               PAULI_X, SWAP,
               ControlledOp(SequenceOp(1, [(PAULI_X, (0,)),
                                           (HADAMARD, (0,))]), 1, 1),
               SequenceOp(1, [(PAULI_X, (0,)), (PAULI_X, (0,))]))
        cols = _random_columns(3, 3, seed=9)
        before = cols.copy()
        for op in ops:
            out = apply_batch(op, cols, 3, targets[:op.num_qubits])
            assert np.array_equal(cols, before)
            assert not np.shares_memory(out, cols)
        seq = SequenceOp(3, [(op, targets[:op.num_qubits]) for op in ops])
        out = apply_batch(seq, cols, 3)
        assert np.array_equal(cols, before)
        assert not np.shares_memory(out, cols)


def _phase_diagonal(phases) -> EigenPowersOp:
    """diag(exp(i phases)): power 1 on a zero-qubit ancilla."""
    return EigenPowersOp(np.ones(1), np.ones(1), phases)


def _phases(num_qubits: int, seed: int) -> EigenPowersOp:
    rng = np.random.default_rng(seed)
    return _phase_diagonal(rng.uniform(0, 2 * math.pi, 1 << num_qubits))


# leading, trailing, reversed and non-adjacent targets on a 4-qubit register
_TARGETS = {1: [(0,), (3,), (2,)],
            2: [(0, 1), (1, 0), (3, 1), (0, 2)],
            3: [(0, 1, 2), (1, 2, 3), (2, 1, 0), (3, 0, 2), (0, 3, 1)]}


def _kernel_cases():
    cases = [pytest.param(_phases(k, seed=k), id=f"diag{k}")
             for k in (1, 2, 3)]
    cases += [pytest.param(PAULI_X, id="x"),
              pytest.param(SWAP, id="swap")]
    for controls in (1, 2):
        for pattern in range(1 << controls):
            for name, sub in (("x", PAULI_X), ("ry", ry(0.7)),
                              ("diag", _phases(1, seed=5))):
                cases.append(pytest.param(
                    ControlledOp(sub, controls, pattern),
                    id=f"c{controls}p{pattern}-{name}"))
    body = SequenceOp(2, [(HADAMARD, (1,)), (cphase(0.9), (1, 0)),
                          (SWAP, (0, 1)), (PAULI_X, (0,))])
    cases.append(pytest.param(ControlledOp(body, 1, 0), id="c1p0-sequence"))
    # shaped like select and a PEA ladder: signed powers on one ancilla
    # qubit over two system qubits, at (1, 2, 3) neither leading nor whole
    cases.append(pytest.param(
        EigenPowersOp(np.array([3, -2]), np.array([1, -1]),
                      np.array([0.0, 0.4, 2.1, 5.0])), id="select"))
    return cases


class TestKernelsMatchMoveaxis:
    """Diagonals, X and controlled ops skip the moveaxis embedding; their
    output must equal it bit for bit. SWAP takes the generic path."""

    @pytest.mark.parametrize("op", _kernel_cases())
    def test_bit_identical(self, op):
        cols = _random_columns(4, 3, seed=11)
        for targets in _TARGETS[op.num_qubits]:
            got = apply_batch(op, cols, 4, targets)
            assert np.array_equal(got, embed_moveaxis(op, cols, 4, targets))
            # the same step inside a sequence, between two generic steps
            seq = SequenceOp(4, [(HADAMARD, (2,)), (op, targets),
                                 (ry(0.3), (0,))])
            assert np.array_equal(apply_batch(seq, cols, 4),
                                  embed_moveaxis(seq, cols, 4))


class TestOperatorKinds:
    def test_dense_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            DenseOp(np.array([[1, 0], [0, 2.0]]))

    def test_eigen_powers_match_their_diagonal(self):
        powers, signs = np.array([3, -2, 0, 5]), np.array([1, -1, -1, 1])
        phases = np.array([0.0, 0.4, 2.1, 5.0])
        op = EigenPowersOp(powers, signs, phases)
        assert op.num_qubits == 4
        want = (signs[:, None] * np.exp(1j * np.outer(powers, phases))).ravel()
        assert np.abs(op_matrix(op) - np.diag(want)).max() < 1e-15

    def test_eigen_powers_reject_bad_tables(self):
        with pytest.raises(ValueError):
            EigenPowersOp(np.arange(3), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            EigenPowersOp(np.arange(2), np.ones(2), np.zeros(3))
        with pytest.raises(ValueError):
            EigenPowersOp(np.arange(2), np.array([1.0, 0.5]), np.zeros(2))

    def test_permutation_rejects_nonbijection(self):
        with pytest.raises(ValueError):
            PermutationOp(np.array([0, 0]))

    def test_controlled_pattern(self):
        op = ControlledOp(PAULI_X, num_controls=2, pattern=2)
        mat = op_matrix(op)
        # fires only on control value 2 = |10>
        state = np.zeros(8)
        state[4] = 1.0  # |10>|0>
        assert mat[5, 4] == pytest.approx(1.0)
        state_idx = 0  # |00>|0> unaffected
        assert mat[state_idx, state_idx] == pytest.approx(1.0)

    def test_sequence_equals_member_composition(self):
        state = _random_columns(3, 1, seed=8)
        phase = _phase_diagonal([0.0, 0.7])
        seq = SequenceOp(3, [(HADAMARD, (0,)), (CNOT, (0, 2)),
                             (phase, (2,))])
        out = apply_batch(seq, state, 3)
        step = apply_batch(HADAMARD, state, 3, targets=(0,))
        step = apply_batch(CNOT, step, 3, targets=(0, 2))
        step = apply_batch(phase, step, 3, targets=(2,))
        assert np.array_equal(out, step)

    def test_sequence_footprint_sums(self):
        seq = SequenceOp(2, [(HADAMARD, (0,)), (CNOT, (0, 1)),
                             (CNOT, (1, 0))])
        assert seq.footprint.two_qubit_gates == 2
        assert seq.footprint.one_qubit_gates == 1

    def test_sequence_footprint_is_the_merge_of_its_members(self):
        labelled = EigenPowersOp(np.zeros(1), np.ones(1), np.zeros(2),
                                 ResourceFootprint(
            queries_u=3, ancilla_qubits=2, modeled=frozenset({"b", "a"})))
        other = EigenPowersOp(np.zeros(1), np.ones(1), np.zeros(4),
                              ResourceFootprint(
            queries_u=1, two_qubit_gates=4, ancilla_qubits=1,
            modeled=frozenset({"c"})))
        steps = [(labelled, (1,)), (other, (0, 1)), (HADAMARD, (0,)),
                 (labelled, (0,))]
        seq = SequenceOp(2, steps)
        want = ResourceFootprint()
        for op, _ in steps:
            want = want.merge(op.footprint)
        assert seq.footprint == want
        assert SequenceOp(2, []).footprint == ResourceFootprint()


class TestSharedGates:
    @pytest.mark.parametrize("gate,table", [
        (HADAMARD, "matrix"), (PAULI_X, "perm"), (PAULI_Z, "powers"),
        (SWAP, "perm"), (PAULI_Z, "signs"), (PAULI_Z, "eigenphases")])
    def test_tables_read_only(self, gate, table):
        values = getattr(gate, table)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = values[-1]

    def test_cnot_controls_the_shared_x(self):
        assert CNOT.sub is PAULI_X
        assert not CNOT.sub.perm.flags.writeable


_ADJOINT_CASES = [
    *(pytest.param(lambda gate=gate: gate, id=name) for name, gate in (
        ("hadamard", HADAMARD), ("pauli_x", PAULI_X), ("pauli_z", PAULI_Z),
        ("cnot", CNOT), ("swap_gate", SWAP))),
    lambda: _phase_diagonal([0.0, 0.3]), lambda: ry(1.2), lambda: cphase(0.9),
    lambda: SequenceOp(2, [(HADAMARD, (0,)), (CNOT, (0, 1))]),
    lambda: ControlledOp(ry(0.4), 1, 1),
    lambda: EigenPowersOp(np.array([1, -3]), np.array([-1, 1]),
                          np.array([0.0, 1.3])),
    lambda: DenseOp(_random_unitary(3, 11),
                    ResourceFootprint(queries_u=2, ancilla_qubits=1)),
    lambda: EigenPowersOp(np.ones(1), np.ones(1), np.arange(8.0),
                          ResourceFootprint(modeled=frozenset({"d"}))),
    lambda: PermutationOp(np.random.default_rng(4).permutation(8)),
    lambda: ZeroReflectionOp(3, ResourceFootprint(two_qubit_gates=5)),
    lambda: EigenPowersOp(np.array([0, 3, -2, 5]), np.array([1, -1, -1, 1]),
                          np.array([0.0, 0.4, 2.5, 4.0]),
                          ResourceFootprint(queries_u=5)),
    lambda: ControlledOp(ControlledOp(DenseOp(_random_unitary(1, 2)), 1, 0),
                         2, 2, ResourceFootprint(two_qubit_gates=9)),
    lambda: ControlledOp(
        SequenceOp(2, [(HADAMARD, (1,)), (cphase(0.3), (0, 1))]), 1, 0),
    lambda: SequenceOp(2, [(PAULI_X, (1,)), (SWAP, (1, 0))]),
    lambda: QftOp(3, 2, ResourceFootprint(two_qubit_gates=4)),
]


class TestAdjoint:
    @pytest.mark.parametrize("op_factory", _ADJOINT_CASES)
    def test_adjoint_inverts(self, op_factory):
        op = op_factory()
        inv = adjoint(op)
        mat = op_matrix(op) @ op_matrix(inv)
        assert np.abs(mat - np.eye(op.dim)).max() < 1e-12
        # no constructor re-checks the inverse, so check it entry by entry
        assert type(inv) is type(op)
        assert inv.num_qubits == op.num_qubits
        assert inv.footprint == op.footprint
        assert np.array_equal(op_matrix(inv), op_matrix(op).conj().T)
        assert np.array_equal(op_matrix(adjoint(inv)), op_matrix(op))

    def test_eigen_powers_adjoint_negates_powers(self):
        op = EigenPowersOp(np.array([2, -1]), np.array([1, -1]),
                           np.array([0.0, 0.7]))
        inv = adjoint(op)
        assert np.array_equal(inv.powers, [-2, 1])
        assert np.array_equal(inv.signs, op.signs)

    def test_sequence_inverts_each_distinct_member_once(self):
        shared = SequenceOp(2, [(HADAMARD, (0,)), (CNOT, (0, 1))])
        seq = SequenceOp(3, [(shared, (0, 1)), (ry(0.2), (2,)),
                             (shared, (1, 2)), (shared, (2, 0))])
        inv = adjoint(seq)
        ops = [op for op, _ in inv.steps]
        assert ops[0] is ops[1] is ops[3]
        assert ops[0] is not shared
        diff = op_matrix(inv) - op_matrix(seq).conj().T
        assert np.abs(diff).max() <= 1e-15

    def test_adjoint_preserves_footprint(self):
        seq = SequenceOp(2, [(HADAMARD, (0,)), (CNOT, (0, 1))])
        assert adjoint(seq).footprint == seq.footprint

    def test_nested_sequence_reverses_exact_steps(self):
        seq = SequenceOp(4, [
            (HADAMARD, (2,)),
            (ControlledOp(DenseOp(_random_unitary(2, 5)), 1, 1), (3, 0, 2)),
            (SequenceOp(2, [(SWAP, (0, 1)), (ry(1.1), (1,))]), (1, 3)),
            (_phase_diagonal(0.3 * np.arange(4.0)), (0, 2)),
            (ControlledOp(PAULI_X, 2, 3), (1, 2, 0)),
        ])
        inv = adjoint(seq)
        assert inv.footprint == seq.footprint
        assert len(inv.steps) == len(seq.steps)
        for (op, tg), (inv_op, inv_tg) in zip(seq.steps, reversed(inv.steps)):
            assert inv_tg == tg
            assert np.array_equal(op_matrix(inv_op), op_matrix(op).conj().T)
        # the product of the steps rounds in a different order
        diff = op_matrix(inv) - op_matrix(seq).conj().T
        assert np.abs(diff).max() <= 1e-15


class TestFootprint:
    def test_merge_commutative_associative(self):
        a = ResourceFootprint(queries_u=1, two_qubit_gates=2, ancilla_qubits=1,
                              modeled=frozenset({"x"}))
        b = ResourceFootprint(queries_u=5, one_qubit_gates=3, ancilla_qubits=2)
        c = ResourceFootprint(two_qubit_gates=7)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c)) == a.merge(b, c)
        assert a.merge() == a

    def test_unitarity_of_gates(self):
        for op in (HADAMARD, PAULI_X, PAULI_Z, CNOT, SWAP,
                   cphase(1.1), ry(0.2)):
            assert unitarity_defect(op) <= 1e-10

    def test_as_dict_lists_the_fields(self):
        fp = ResourceFootprint(queries_u=4, two_qubit_gates=7,
                               one_qubit_gates=2, ancilla_qubits=3,
                               modeled=frozenset({"y", "x"}))
        got = fp.as_dict()
        want = {**dataclasses.asdict(fp), "modeled": ["x", "y"]}
        assert got == want and list(got) == list(want)


class TestEveryKind:
    """Every operator kind keeps its references: an adjoint case above,
    and its own whole-block ``_transform``, which ``oracles.embed_moveaxis``
    compares the embedding kernels against."""

    KINDS = [kind for kind in CircuitOp.__subclasses__()
             if kind.__module__ == core_sim.__name__]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_kind_has_adjoint_case(self, kind):
        factories = [case.values[0] if hasattr(case, "values") else case
                     for case in _ADJOINT_CASES]
        assert kind in {type(make()) for make in factories}

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_kind_has_whole_block_transform(self, kind):
        assert "_transform" in vars(kind)


def _full_lcu(b, sel):
    """select, W and A of an LCU reflector on the whole register."""
    w = build_W(b, sel)
    return sel.op, w, build_A(w, ancilla_reflection(b.n), b.n)


def _zoo_a():
    """The 8-qubit A (7 ancilla qubits, 1 system qubit) whose eigenvector
    sectors the verify suite's structural check builds."""
    _, _, b, sel = suite._zoo_lcu()
    return _full_lcu(b, sel)[2]


def _zoo_b_select(dimension):
    """The structural check's B, and its select on the zoo's D = 2 instance
    or on a D = 4 one."""
    params, _, b, sel = suite._zoo_lcu()
    if dimension != 2:
        sel = build_select(params, synth_unitary(dimension, 1.0, seed=5))
    return b, sel


class TestEigenSectors:
    """The full-register select, W and A are block diagonal over U's
    eigenvectors, with the suite's sector operators as their blocks."""

    @pytest.mark.parametrize("dimension", [2, 4])
    def test_blocks_are_the_sectors(self, dimension):
        b, sel = _zoo_b_select(dimension)
        sectors = list(suite._sectors(b, sel))
        assert len(sectors) == dimension
        for k, full in enumerate(_full_lcu(b, sel)):
            mat = op_matrix(full)
            off_block = np.ones(mat.shape, dtype=bool)
            for j, ops in enumerate(sectors):
                assert ops[k].num_qubits == full.num_qubits - (
                    dimension.bit_length() - 1)
                assert np.array_equal(mat[j::dimension, j::dimension],
                                      op_matrix(ops[k]))
                off_block[j::dimension, j::dimension] = False
            assert not mat[off_block].any()
            worst = max(unitarity_defect(ops[k]) for ops in sectors)
            if dimension == 2:
                # the structural check's bits
                assert unitarity_defect(full) == worst
            else:
                # the full Gram sums D times as many products, the extra
                # ones exact zeros, which BLAS groups otherwise
                assert abs(unitarity_defect(full) - worst) <= 1e-15

    def test_sectors_keep_select_footprint(self):
        b, sel = _zoo_b_select(2)
        full = _full_lcu(b, sel)
        for ops in suite._sectors(b, sel):
            assert np.array_equal(ops[0].powers, sel.op.powers)
            assert np.array_equal(ops[0].signs, sel.op.signs)
            assert [op.footprint for op in ops] == [op.footprint for op in full]


class TestDenseBlocks:
    def test_op_matrix_in_blocks_equals_whole_application(self):
        a = _zoo_a()
        widths = []
        transform = a._transform

        def recorded(block):
            widths.append(block.shape[1])
            return transform(block)

        a._transform = recorded
        mat = op_matrix(a)
        assert widths == [BLOCK_AMPLITUDES // a.dim] * (
            a.dim * a.dim // BLOCK_AMPLITUDES)
        whole = transform(np.eye(a.dim, dtype=np.complex128))
        assert np.abs(mat - whole).max() <= 1e-15

    def test_unitarity_defect_working_set(self):
        # the whole-matrix form held M, I, M^H M and their difference:
        # 5.2 MiB at 256 x 256
        a = _zoo_a()
        tracemalloc.start()
        try:
            defect = unitarity_defect(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20
        mat = op_matrix(a)
        whole = float(np.abs(mat.conj().T @ mat - np.eye(a.dim)).max())
        assert abs(defect - whole) <= 1e-15
