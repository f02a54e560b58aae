"""Rotation tree, centering, QFT variants, and the B operator."""
import math

import numpy as np
import pytest

import reflectsim.cli as cli_mod
import reflectsim.state_prep as state_prep_mod
import reflectsim.suite as suite_mod
from reflectsim.cli import run
from reflectsim.core_sim import (
    HADAMARD,
    SWAP,
    QftOp,
    SequenceOp,
    adjoint,
    apply_batch,
    cphase,
    op_matrix,
    unitarity_defect,
)
from reflectsim.gaussian_kernel import (
    phi_amplitudes,
    psi_amplitudes,
    select_params,
)
from reflectsim.state_prep import (
    OAA_ANGLE,
    QftSpec,
    build_B,
    centered_qft,
    centering_circuit,
    centering_offset,
    header_beta,
    prep_qft_spec,
    qft,
    qft_two_qubit_count,
    rotation_tree_prep,
)
from oracles import centered_dft, dft_matrix, spectral_norm, spectral_norm_implicit


def _basis_output(op, index=0):
    """op|index> on op's whole register, as a vector."""
    column = np.zeros((op.dim, 1), dtype=np.complex128)
    column[index] = 1.0
    return apply_batch(op, column, op.num_qubits)[:, 0]


def _prep_state(amplitudes):
    return _basis_output(rotation_tree_prep(amplitudes))


class TestRotationTree:
    def test_basis_state_is_identity_action(self):
        out = _prep_state(np.array([1.0, 0.0]))
        assert np.abs(out - [1, 0]).max() < 1e-12

    def test_uniform_pair_is_hadamard_like(self):
        out = _prep_state(np.array([1, 1]) / math.sqrt(2))
        assert np.abs(out - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12

    def test_random_positive_vector_roundtrip(self):
        rng = np.random.default_rng(3)
        amps = np.abs(rng.normal(size=32)) + 1e-3
        amps /= np.linalg.norm(amps)
        assert np.abs(_prep_state(amps) - amps).max() < 1e-10

    def test_phi_for_small_gap_roundtrip(self):
        params = select_params(1e-3, 0.05)
        phi = phi_amplitudes(params)
        k = math.ceil(math.log2(phi.shape[0]))
        padded = np.zeros(1 << k, dtype=complex)
        mid = 1 << (k - 1)
        padded[mid - params.Lstar: mid + params.Lstar] = phi
        assert np.abs(_prep_state(padded) - padded).max() < 1e-10

    def test_zero_mass_subtrees(self):
        amps = np.zeros(8)
        amps[5] = 1.0
        assert np.abs(_prep_state(amps) - amps).max() < 1e-12

    def test_footprint_order(self):
        rng = np.random.default_rng(5)
        amps = np.abs(rng.normal(size=16))
        amps /= np.linalg.norm(amps)
        op = rotation_tree_prep(amps)
        assert op.footprint.two_qubit_gates == 16 - 2
        assert op.footprint.one_qubit_gates == 16 - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rotation_tree_prep(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            rotation_tree_prep(np.ones(3) / math.sqrt(3))
        with pytest.raises(ValueError):
            rotation_tree_prep(np.array([1j, 0.0]))


class TestCentering:
    def test_fig_example_shift(self):
        op = centering_circuit(2, 3)
        state = _basis_output(op, 0b00)
        assert abs(state[0b010] - 1) < 1e-15
        state = _basis_output(op, 0b11)
        assert abs(state[0b101] - 1) < 1e-15

    def test_single_stage_general(self):
        m = 5
        op = centering_circuit(m - 1, m)
        mat = op_matrix(op)
        for j in range(1 << (m - 1)):
            assert abs(mat[j + (1 << (m - 2)), j] - 1) < 1e-15

    @pytest.mark.parametrize("m", range(2, 9))
    def test_exact_stated_permutation(self, m):
        for k in range(1, m):
            mat = op_matrix(centering_circuit(k, m))
            off = centering_offset(k, m)
            for j in range(1 << k):
                assert abs(mat[j + off, j] - 1.0) < 1e-12
            # pure permutation matrix: single unit entry per column
            assert ((np.abs(mat) > 1e-12).sum(axis=0) == 1).all()
            assert np.abs(np.abs(mat[np.abs(mat) > 1e-12]) - 1).max() < 1e-12

    def test_gate_counts(self):
        op = centering_circuit(2, 6)
        assert op.footprint.two_qubit_gates == 4
        assert op.footprint.one_qubit_gates == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            centering_circuit(3, 3)
        with pytest.raises(ValueError):
            centering_circuit(0, 3)


class TestQft:
    def test_single_qubit_is_hadamard(self):
        mat = op_matrix(qft(QftSpec.exact_for(1)))
        assert np.abs(mat - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-15

    def test_exact_matches_dft(self):
        mat = op_matrix(qft(QftSpec.exact_for(3)))
        assert np.abs(mat - dft_matrix(8)).max() < 1e-12

    @pytest.mark.parametrize("m,eps", [(4, 0.3), (6, 0.2), (9, 0.4)])
    def test_budget_cutoff_meets_norm_bound(self, m, eps):
        spec = QftSpec.for_budget(m, eps)
        mat = op_matrix(qft(spec))
        assert spectral_norm(mat - dft_matrix(1 << m)) <= eps

    def test_budget_cutoff_norm_bound_m12(self):
        # widest claimed register; matrix-free norm via circuit matvecs
        m, eps = 12, 0.5
        dim = 1 << m
        approx = qft(QftSpec.for_budget(m, eps))
        exact = dft_matrix(dim)
        inv = adjoint(approx)

        def matvec(v):
            return apply_batch(approx, v[:, None], m)[:, 0] - exact @ v

        def rmatvec(v):
            return apply_batch(inv, v[:, None], m)[:, 0] - exact.conj().T @ v

        norm = spectral_norm_implicit(matvec, rmatvec, dim, iters=40)
        assert norm <= eps

    def test_budget_cutoff_formula(self):
        spec = QftSpec.for_budget(8, 0.125)
        assert spec.cutoff_b == math.ceil(math.log2(8 / 0.125)) + 2

    def test_truncated_unitary(self):
        assert unitarity_defect(qft(QftSpec(m=6, cutoff_b=3))) < 1e-12

    def test_gate_count_matches_footprint(self):
        for m, cutoff in ((5, None), (8, 4), (6, 3)):
            spec = QftSpec.exact_for(m) if cutoff is None else \
                QftSpec(m=m, cutoff_b=cutoff)
            op = qft(spec)
            assert op.footprint.two_qubit_gates == qft_two_qubit_count(
                m, spec.cutoff_b)


# (m, eps_qft) pairs whose budget cutoffs fall on both sides of m
BUDGET_GRID = [(m, eps) for m in range(1, 15)
               for eps in (0.5, 0.2, 0.1, 1e-2, 1e-3, 1e-4, 1e-8)]


def _stored_exact(m: int, eps_qft: float) -> bool:
    """The flag ``QftSpec.for_budget`` stored before exactness was derived
    from the cutoff: the budget cutoff exceeds m."""
    return math.ceil(math.log2(m / eps_qft)) + 2 > m


def _former_qft_gates(m: int, cutoff_b: int, exact: bool) -> SequenceOp:
    """The gate circuit ``qft`` built when it read a stored ``exact`` flag:
    every controlled phase when exact, else those with k <= cutoff_b. The
    reference oracle for the layered ``QftOp``."""
    gates = []
    for j in range(m):
        gates.append((HADAMARD, (j,)))
        for j2 in range(j + 1, m):
            k = j2 - j + 1
            if exact or k <= cutoff_b:
                gates.append((cphase(2 * math.pi / (1 << k)), (j2, j)))
    for i in range(m // 2):
        gates.append((SWAP, (i, m - 1 - i)))
    return SequenceOp(m, gates)


class TestQftSpecExact:
    """``QftSpec.exact`` is derived from the cutoff, and agrees with the
    flag both constructors used to store."""

    def test_for_budget_matches_stored_flag(self):
        got = [QftSpec.for_budget(m, eps).exact for m, eps in BUDGET_GRID]
        assert got == [_stored_exact(m, eps) for m, eps in BUDGET_GRID]
        assert set(got) == {True, False}

    def test_exact_for(self):
        assert all(QftSpec.exact_for(m).exact is True for m in range(1, 15))

    @pytest.mark.parametrize("spec,stored", [
        *[(QftSpec.exact_for(m), True) for m in range(1, 9)],
        *[(QftSpec.for_budget(m, eps), _stored_exact(m, eps))
          for m, eps in BUDGET_GRID if m <= 8],
        (QftSpec(m=6, cutoff_b=3), False),
        (QftSpec(m=8, cutoff_b=4), False),
        (QftSpec(m=5, cutoff_b=5), False),
        # every cutoff from 1 to past exact, on every width up to 9
        *[(QftSpec(m, b), b > m) for m in range(1, 10)
          for b in range(1, m + 3)],
    ])
    def test_qft_keeps_former_gates(self, spec, stored):
        # the layered op and its inverse against the gate circuit; the
        # butterfly layers round differently, so equal within 1e-14
        op = qft(spec)
        former = _former_qft_gates(spec.m, spec.cutoff_b, stored)
        assert np.abs(op_matrix(op) - op_matrix(former)).max() <= 1e-14
        assert np.abs(op_matrix(adjoint(op))
                      - op_matrix(adjoint(former))).max() <= 1e-14
        assert op.footprint == former.footprint

    @pytest.mark.parametrize("m", range(1, 21))
    def test_footprint_is_former_gates(self, m):
        for b in range(1, m + 3):
            former = _former_qft_gates(m, b, b > m)
            assert qft(QftSpec(m, b)).footprint == former.footprint, b

    def test_holds_no_array(self):
        # layer phases are made per application, never stored
        op = qft(QftSpec.exact_for(12))
        for each in (op, adjoint(op)):
            assert not any(isinstance(v, np.ndarray)
                           for v in vars(each).values())

    def test_rejects_empty_register_and_cutoff(self):
        footprint = qft(QftSpec.exact_for(2)).footprint
        with pytest.raises(ValueError):
            QftOp(0, 1, footprint)
        with pytest.raises(ValueError):
            QftOp(2, 0, footprint)


class TestCenteredQft:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_dense_identity(self, m):
        mat = op_matrix(centered_qft(QftSpec.exact_for(m)))
        assert np.abs(mat - centered_dft(1 << m)).max() < 1e-12

    def test_unitary(self):
        assert unitarity_defect(centered_qft(QftSpec.exact_for(4))) < 1e-12

    def test_truncation_error_three_factors(self):
        m, eps = 6, 0.2
        approx = op_matrix(centered_qft(QftSpec.for_budget(m, eps)))
        exact = op_matrix(centered_qft(QftSpec.exact_for(m)))
        assert spectral_norm(approx - exact) <= 3 * eps


class TestBHat:
    def test_matches_centered_transform_of_phi(self):
        # oracle: dense centered DFT applied to the centered source Gaussian
        params = select_params(1e-2, 0.5)
        phi = phi_amplitudes(params)
        vec = np.zeros(2 * params.L, dtype=complex)
        vec[params.L - params.Lstar: params.L + params.Lstar] = phi
        want = centered_dft(2 * params.L) @ vec
        got = build_B(params, prep_qft_spec(params)).bhat_column
        assert np.linalg.norm(got - want) <= 10 * 1e-2

    @pytest.mark.parametrize("eps,delta", [(1e-1, 0.5), (1e-2, 0.1), (1e-3, 0.02)])
    def test_close_to_target_gaussian(self, eps, delta):
        params = select_params(eps, delta)
        got = build_B(params, prep_qft_spec(params)).bhat_column
        assert np.linalg.norm(psi_amplitudes(params) - got) <= 10 * eps

    def test_beta_normalization_exact(self):
        params = select_params(1e-2, 0.5)
        betas = 2 * np.abs(build_B(
            params, prep_qft_spec(params)).bhat_column) ** 2
        assert abs(betas.sum() - 2.0) < 1e-12


@pytest.fixture(scope="module")
def built():
    params = select_params(1e-2, 0.5)
    spec = prep_qft_spec(params)
    return params, build_B(params, spec)


class TestBuildB:

    def test_s_value(self, built):
        _, b = built
        assert abs(b.s - 1 / math.sin(OAA_ANGLE)) < 1e-10

    def test_header_amplitudes(self, built):
        params, b = built
        state = _basis_output(b.op)
        m = params.m
        assert abs(state[1 << m]) ** 2 == pytest.approx(1 / b.s, abs=1e-12)
        pad = header_beta()
        assert pad == pytest.approx(0.1180339887, abs=1e-9)
        assert abs(state[2 << m]) ** 2 == pytest.approx(pad / b.s, abs=1e-12)
        assert abs(state[3 << m]) ** 2 == pytest.approx(pad / b.s, abs=1e-12)

    def test_amplitudes_match_beta_table(self, built):
        params, b = built
        state = _basis_output(b.op)
        m, L = params.m, params.L
        for i, beta in enumerate(b.beta_magnitudes):
            l = i - L
            if l < L:
                idx = l + L
            else:
                idx = (l - L + 1) << m
            assert abs(state[idx]) ** 2 == pytest.approx(beta / b.s, abs=1e-12)

    def test_body_amplitudes_nearly_real_nonnegative(self, built):
        # the unpaired -Lstar Gaussian tail term caps realness at the
        # truncation scale, far below eps but far above roundoff
        params, b = built
        state = _basis_output(b.op)
        eps = params.epsilon
        assert np.abs(state.imag).max() <= 1e-3 * eps
        assert state.real.min() >= -1e-3 * eps

    def test_unitary(self, built):
        _, b = built
        assert unitarity_defect(b.op) < 1e-10

    def test_footprint_composition(self, built):
        params, b = built
        assert b.op.footprint.two_qubit_gates > 0
        assert "controlled_prep_x2" in b.op.footprint.modeled
        assert "header_prep_const" in b.op.footprint.modeled
        assert b.n == params.m + 2


class TestBHatBuiltOnce:
    """B-hat is built and simulated once per ``build_B``, and a ``prep``
    report reads that one column."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"built": 0, "simulated": 0}
        built = []
        build, apply = state_prep_mod.build_B_hat, state_prep_mod.apply_batch

        def counting_build(*args, **kwargs):
            op = build(*args, **kwargs)
            tally["built"] += 1
            built.append(op)
            return op

        def counting_apply(op, *args, **kwargs):
            tally["simulated"] += any(op is b for b in built)
            return apply(op, *args, **kwargs)

        monkeypatch.setattr(state_prep_mod, "build_B_hat", counting_build)
        monkeypatch.setattr(state_prep_mod, "apply_batch", counting_apply)
        return tally

    def test_build_B(self, counts):
        params = select_params(1e-2, 0.5)
        build_B(params, prep_qft_spec(params))
        assert counts == {"built": 1, "simulated": 1}

    def test_prep_op(self, counts):
        assert run(["prep", "--eps", "1e-2", "--gap", "0.5"]) == 0
        assert counts == {"built": 1, "simulated": 1}

    def test_suite_cells_shared(self, counts):
        # the state-prep and scalar-LCU checks share one B per (eps, delta)
        # cell within a run, and the next run builds its own
        argv = ["verify-suite", "--only",
                "state_prep_chain,scalar_lcu_consistency"]
        assert run(argv) == 0
        assert counts == {"built": 9, "simulated": 9}
        assert run(argv) == 0
        assert counts == {"built": 18, "simulated": 18}


def test_suite_run_builds_B_once_per_cell(monkeypatch):
    # the two checks read one cached prep report per cell, so one run of
    # both over the nine acceptance cells calls build_B nine times
    calls = []
    build = state_prep_mod.build_B

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (cli_mod, suite_mod):
        monkeypatch.setattr(module, "build_B", counting_build)
    results = suite_mod.run_all({"state_prep_chain", "scalar_lcu_consistency"})
    assert all(r.passed for r in results)
    assert len(calls) == 9
