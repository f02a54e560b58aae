"""Substrate tests: states, registers, operator kinds, application, metrics."""
import math

import numpy as np
import pytest

from reflectsim.core_sim import (
    ControlledOp,
    DenseOp,
    DiagonalOp,
    EigenPowersOp,
    PermutationOp,
    RegisterLayout,
    ResourceFootprint,
    SequenceOp,
    StateVector,
    adjoint,
    apply,
    audit_footprint,
    cnot,
    cphase,
    densify,
    distance,
    embed_system,
    hadamard,
    inner,
    op_matrix,
    pauli_x,
    pauli_z,
    phase_gate,
    project_ancilla_zero,
    random_state,
    ry,
    swap_gate,
    unitarity_defect,
)
from oracles import kron_chain


class TestStateVector:
    def test_computational_basis(self):
        s = StateVector.computational(2, 3)
        assert s.amplitudes[3] == 1.0 and abs(s.norm() - 1) < 1e-15

    def test_length_validation(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3))

    def test_immutable_buffer(self):
        s = StateVector.computational(1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_input_buffer_not_aliased(self):
        raw = np.array([1.0, 0.0], dtype=complex)
        s = StateVector(1, raw)
        raw[0] = 5.0
        assert s.amplitudes[0] == 1.0


class TestRegisterLayout:
    def test_index_split_roundtrip(self):
        layout = RegisterLayout(2, 3)
        for anc in range(4):
            for sys in range(8):
                idx = layout.index(anc, sys)
                assert layout.split(idx) == (anc, sys)

    def test_total_index_space(self):
        layout = RegisterLayout(3, 2)
        assert layout.ancilla_dim * layout.system_dim == 1 << layout.total_qubits

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterLayout(-1, 2)
        with pytest.raises(ValueError):
            RegisterLayout(1, 0)


class TestApply:
    def test_x_flips(self):
        out = apply(pauli_x(), StateVector.computational(1, 0))
        assert abs(out.amplitudes[1] - 1) < 1e-15

    def test_hadamard_plus_state(self):
        out = apply(hadamard(), StateVector.computational(1, 0))
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_qft_roundtrip_random_state(self):
        # apply F then F^dagger restores the state to 1e-12
        from reflectsim.state_prep import QftSpec, qft
        op = qft(QftSpec.exact_for(3))
        state = random_state(3, np.random.default_rng(1))
        back = apply(adjoint(op), apply(op, state))
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12

    def test_targets_embedding_matches_kron(self):
        h = op_matrix(hadamard())
        x = op_matrix(pauli_x())
        eye = np.eye(2)
        state = random_state(3, np.random.default_rng(2))
        out = apply(hadamard(), state, targets=(1,))
        expect = kron_chain(eye, h, eye) @ state.amplitudes
        assert np.abs(out.amplitudes - expect).max() < 1e-14
        out2 = apply(pauli_x(), state, targets=(2,))
        expect2 = kron_chain(eye, eye, x) @ state.amplitudes
        assert np.abs(out2.amplitudes - expect2).max() < 1e-14

    def test_two_qubit_reversed_targets(self):
        state = random_state(2, np.random.default_rng(3))
        out = apply(cnot(), state, targets=(1, 0))
        # control on qubit 1 (LSB), target qubit 0
        expect = state.amplitudes[[0, 3, 2, 1]]
        assert np.abs(out.amplitudes - expect).max() < 1e-15

    def test_norm_preserved(self):
        state = random_state(4, np.random.default_rng(4))
        out = apply(swap_gate(), state, targets=(0, 3))
        assert abs(out.norm() - 1) < 1e-10

    def test_errors(self):
        state = StateVector.computational(2)
        with pytest.raises(ValueError):
            apply(cnot(), state, targets=(0, 0))
        with pytest.raises(ValueError):
            apply(cnot(), state, targets=(0, 2))
        with pytest.raises(ValueError):
            apply(cnot(), state, targets=(0,))


class TestInnerAndDistance:
    def test_inner_trivial(self):
        zero = StateVector.computational(1, 0)
        one = StateVector.computational(1, 1)
        plus = apply(hadamard(), zero)
        assert inner(zero, zero) == pytest.approx(1)
        assert inner(zero, one) == pytest.approx(0)
        assert inner(plus, zero) == pytest.approx(1 / math.sqrt(2))

    def test_inner_conjugate_linear_first(self):
        rng = np.random.default_rng(5)
        a, b = random_state(2, rng), random_state(2, rng)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_distance_values(self):
        zero = StateVector.computational(1, 0)
        one = StateVector.computational(1, 1)
        plus = apply(hadamard(), zero)
        assert distance(zero, zero) == pytest.approx(0.0)
        assert distance(zero, one) == pytest.approx(math.sqrt(2))
        assert distance(zero, plus) == pytest.approx(math.sqrt(2 - math.sqrt(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(StateVector.computational(1), StateVector.computational(2))
        with pytest.raises(ValueError):
            distance(StateVector.computational(1), StateVector.computational(2))


class TestProjection:
    def test_fixed_point(self):
        layout = RegisterLayout(1, 1)
        state = embed_system(np.array([0, 1.0]), layout, ancilla_index=0)
        proj, weight = project_ancilla_zero(state, layout)
        assert weight == pytest.approx(1.0)
        assert np.allclose(proj.amplitudes, state.amplitudes)

    def test_orthogonal_complement(self):
        layout = RegisterLayout(1, 1)
        state = embed_system(np.array([0, 1.0]), layout, ancilla_index=1)
        proj, weight = project_ancilla_zero(state, layout)
        assert weight == pytest.approx(0.0)
        assert np.abs(proj.amplitudes).max() == 0.0

    def test_half_weight(self):
        layout = RegisterLayout(1, 1)
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[2] = 1 / math.sqrt(2)  # (|0>+|1>)_anc |0>_sys
        proj, weight = project_ancilla_zero(StateVector(2, amps), layout)
        assert weight == pytest.approx(0.5)

    def test_idempotent(self):
        layout = RegisterLayout(2, 2)
        state = random_state(4, np.random.default_rng(6))
        proj, w1 = project_ancilla_zero(state, layout)
        proj2, w2 = project_ancilla_zero(proj, layout)
        assert np.allclose(proj.amplitudes, proj2.amplitudes)
        assert w2 == pytest.approx(w1)

    def test_weight_is_amplitude_sum(self):
        layout = RegisterLayout(2, 2)
        state = random_state(4, np.random.default_rng(7))
        _, weight = project_ancilla_zero(state, layout)
        expect = sum(
            abs(state.amplitudes[layout.index(0, s)]) ** 2 for s in range(4)
        )
        assert weight == pytest.approx(expect, abs=1e-14)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            project_ancilla_zero(StateVector.computational(3),
                                 RegisterLayout(1, 1))


class TestOperatorKinds:
    def test_dense_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            DenseOp(np.array([[1, 0], [0, 2.0]]))

    def test_diagonal_rejects_nonunit_modulus(self):
        with pytest.raises(ValueError):
            DiagonalOp(np.array([1.0, 0.5]))

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
        op = ControlledOp(pauli_x(), num_controls=2, pattern=2)
        mat = op_matrix(op)
        # fires only on control value 2 = |10>
        state = np.zeros(8)
        state[4] = 1.0  # |10>|0>
        assert mat[5, 4] == pytest.approx(1.0)
        state_idx = 0  # |00>|0> unaffected
        assert mat[state_idx, state_idx] == pytest.approx(1.0)

    def test_sequence_equals_member_composition(self):
        rng = np.random.default_rng(8)
        state = random_state(3, rng)
        seq = SequenceOp(3, [(hadamard(), (0,)), (cnot(), (0, 2)),
                             (phase_gate(0.7), (2,))])
        out = apply(seq, state)
        step = apply(hadamard(), state, targets=(0,))
        step = apply(cnot(), step, targets=(0, 2))
        step = apply(phase_gate(0.7), step, targets=(2,))
        assert np.array_equal(out.amplitudes, step.amplitudes)

    def test_sequence_footprint_sums(self):
        seq = SequenceOp(2, [(hadamard(), (0,)), (cnot(), (0, 1)),
                             (cnot(), (1, 0))])
        assert seq.footprint.two_qubit_gates == 2
        assert seq.footprint.one_qubit_gates == 1
        assert audit_footprint(seq) == seq.footprint

    def test_densify_matches(self):
        seq = SequenceOp(2, [(hadamard(), (0,)), (cnot(), (0, 1))])
        dense = densify(seq)
        assert np.abs(op_matrix(dense) - op_matrix(seq)).max() < 1e-15
        assert dense.footprint == seq.footprint


class TestAdjoint:
    @pytest.mark.parametrize("op_factory", [
        hadamard, pauli_x, pauli_z, cnot, swap_gate,
        lambda: phase_gate(0.3), lambda: ry(1.2), lambda: cphase(0.9),
        lambda: SequenceOp(2, [(hadamard(), (0,)), (cnot(), (0, 1))]),
        lambda: ControlledOp(ry(0.4), 1, 1),
        lambda: EigenPowersOp(np.array([1, -3]), np.array([-1, 1]),
                              np.array([0.0, 1.3])),
    ])
    def test_adjoint_inverts(self, op_factory):
        op = op_factory()
        mat = op_matrix(op) @ op_matrix(adjoint(op))
        assert np.abs(mat - np.eye(op.dim)).max() < 1e-12

    def test_eigen_powers_adjoint_negates_powers(self):
        op = EigenPowersOp(np.array([2, -1]), np.array([1, -1]),
                           np.array([0.0, 0.7]))
        inv = adjoint(op)
        assert np.array_equal(inv.powers, [-2, 1])
        assert np.array_equal(inv.signs, op.signs)

    def test_adjoint_preserves_footprint(self):
        seq = SequenceOp(2, [(hadamard(), (0,)), (cnot(), (0, 1))])
        assert adjoint(seq).footprint == seq.footprint


class TestFootprint:
    def test_merge_commutative_associative(self):
        a = ResourceFootprint(queries_u=1, two_qubit_gates=2, ancilla_qubits=1,
                              modeled=frozenset({"x"}))
        b = ResourceFootprint(queries_u=5, one_qubit_gates=3, ancilla_qubits=2)
        c = ResourceFootprint(two_qubit_gates=7)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_times(self):
        a = ResourceFootprint(queries_u=2, two_qubit_gates=3, ancilla_qubits=1)
        t = a.times(4)
        assert t.queries_u == 8 and t.two_qubit_gates == 12
        assert t.ancilla_qubits == 1

    def test_unitarity_of_gates(self):
        for op in (hadamard(), pauli_x(), pauli_z(), cnot(), swap_gate(),
                   cphase(1.1), ry(0.2), phase_gate(2.2)):
            assert unitarity_defect(op) <= 1e-10
