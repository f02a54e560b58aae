"""select dispatch, OAA operator assembly, and reflection verification."""
import math

import numpy as np
import pytest

from oracles import (
    dense_misses,
    exact_reflection,
    gap_edge_unitary,
    grover_basis,
    grover_states,
    haar_basis,
    in_eigenbasis,
    lift,
    power_matrix,
    random_state,
    unit_vector,
)
from reflectsim.cli import grover_benchmark
from reflectsim.core_sim import (
    DenseOp,
    apply_batch,
    op_matrix,
    unitarity_defect,
    working_set_bytes,
)
from reflectsim.gaussian_kernel import alpha_coeffs, select_params
from reflectsim.lcu_reflector import (
    ReflectorA,
    ancilla_reflection,
    build_A,
    build_reflector,
    build_select,
    build_W,
    eigen_profile,
    miss,
    mcx_two_qubit_cost,
    oaa_expansion_check,
    worst_case,
)
from reflectsim.spectral_models import synth_unitary
from reflectsim.state_prep import OAA_ANGLE, QftSpec, build_B


@pytest.fixture(scope="module")
def small():
    """8-qubit-total instance: m = 5, 2 header, 1 system qubit."""
    params = select_params(0.2, 1.5)
    spec = QftSpec.for_budget(params.m, 0.05)
    unitary = synth_unitary(2, 1.5, seed=3)
    b = build_B(params, spec)
    sel = build_select(params, unitary)
    w = build_W(b, sel)
    r = ancilla_reflection(b.n)
    a = build_A(w, r, b.n)
    return params, unitary, b, sel, w, r, a


@pytest.fixture(scope="module")
def medium():
    unitary = synth_unitary(8, 0.5, seed=7)
    return unitary, build_reflector(unitary, 1e-2)


# the Haar eigenbases of ``small``'s and ``medium``'s instances; the
# second is also ``gap_edge_unitary``'s
SMALL_BASIS = haar_basis(2, 3)
MEDIUM_BASIS = haar_basis(8, 7)


class TestSelect:
    def test_block_structure_over_all_ancilla_states(self, small):
        # every ancilla basis state must act as exactly +-U^k on the system
        params, unitary, b, sel, *_ = small
        m, L = params.m, params.L
        mat = op_matrix(sel.op)
        d = unitary.dimension
        for anc in range(1 << sel.n):
            block = mat[anc * d:(anc + 1) * d, anc * d:(anc + 1) * d]
            header, data = anc >> m, anc & ((1 << m) - 1)
            sign = -1.0 if header in (1, 3) else 1.0
            power = data - L if header == 0 else 0
            expect = sign * in_eigenbasis(
                SMALL_BASIS, power_matrix(unitary, SMALL_BASIS, power))
            assert np.abs(block - expect).max() < 1e-10
            # and nothing off the block diagonal
            off = mat[anc * d:(anc + 1) * d].copy()
            off[:, anc * d:(anc + 1) * d] = 0
            assert np.abs(off).max() < 1e-12

    def test_paper_table_branches(self, small):
        params, unitary, b, sel, *_ = small
        m, L = params.m, params.L
        total = sel.op.num_qubits
        xi = np.array([0.6, 0.8], dtype=complex)
        for header, sign in ((1, -1), (2, 1), (3, -1)):
            anc = header << m
            state = lift(xi, sel.n, ancilla_index=anc)
            out = apply_batch(sel.op, state, total)
            assert np.abs(out - sign * state).max() < 1e-12

    def test_data_l_equals_L_is_identity(self, small):
        params, unitary, b, sel, *_ = small
        xi = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
        state = lift(xi, sel.n, ancilla_index=params.L)  # header 00
        out = apply_batch(sel.op, state, sel.op.num_qubits)
        assert np.abs(out - state).max() < 1e-12

    def test_query_ledger(self, small):
        params, unitary, b, sel, w, r, a = small
        assert sel.op.footprint.queries_u == 3 * params.L - 1
        # the max-power convention, L per select use, is the reflector's
        refl = ReflectorA(w=w, r=r, a=a, params=params, b=b, select=sel,
                          qft_spec=QftSpec.for_budget(params.m, 0.05),
                          unitary=unitary)
        _, ledger = refl.entries()
        assert ledger["queries_max_power_convention"] == 5 * params.L

    def test_six_ancilla_eight_power_instance(self):
        # the documented dispatch table at its literal size: n = 6, L = 8
        params = select_params(0.2, 2.5)
        assert params.L == 8 and params.m == 4
        unitary = synth_unitary(2, 2.5, seed=1)
        sel = build_select(params, unitary)
        assert sel.n == 6
        xi = np.array([0.28 + 0.4j, 0.87], dtype=complex)
        xi /= np.linalg.norm(xi)
        basis = haar_basis(2, 1)
        vh = basis.conj().T
        for l in range(16):
            state = lift(vh @ xi, 6, ancilla_index=l)  # header |00>
            out = apply_batch(sel.op, state, 7)
            want = lift(vh @ (power_matrix(unitary, basis, l - 8) @ xi), 6,
                        ancilla_index=l)
            assert np.abs(out - want).max() < 1e-12
        for header, sign in ((0b01, -1), (0b10, 1), (0b11, -1)):
            anc = header << 4
            state = lift(xi, 6, ancilla_index=anc)
            out = apply_batch(sel.op, state, 7)
            assert np.abs(out - sign * state).max() < 1e-12


class TestAncillaReflection:
    def test_action(self):
        r = ancilla_reflection(3)
        xi = np.array([0.8, 0.6j])
        keep = lift(xi, 3, ancilla_index=0)
        out = apply_batch(r, keep, 4, targets=(0, 1, 2))
        assert np.abs(out - keep).max() < 1e-15
        flip = lift(xi, 3, ancilla_index=5)
        out = apply_batch(r, flip, 4, targets=(0, 1, 2))
        assert np.abs(out + flip).max() < 1e-15

    def test_involution(self):
        r = ancilla_reflection(4)
        mat = op_matrix(r)
        assert np.abs(mat @ mat - np.eye(16)).max() < 1e-12

    def test_modeled_footprint(self):
        r = ancilla_reflection(5)
        assert r.footprint.two_qubit_gates == mcx_two_qubit_cost(4)
        assert r.footprint.one_qubit_gates == 12
        assert r.footprint.ancilla_qubits == 1
        assert "mcx_linear" in r.footprint.modeled

    def test_mcx_cost_linear(self):
        assert mcx_two_qubit_cost(1) == 1
        assert [mcx_two_qubit_cost(k) for k in (2, 3, 4)] == [6, 12, 18]


class TestW:
    def test_zero_block_is_scaled_lcu_sum(self, small):
        params, unitary, b, sel, w, *_ = small
        block = np.diag(eigen_profile(w, b.n)[0])
        # structural identity: <0|W|0> = (1/s) (sum |beta_l| U^l - 1)
        acc = -np.eye(unitary.dimension, dtype=complex)
        for i in range(2 * params.L):
            acc = acc + b.beta_magnitudes[i] * power_matrix(
                unitary, SMALL_BASIS, i - params.L)
        assert np.abs(block - in_eigenbasis(SMALL_BASIS, acc) / b.s).max() < 1e-10

    def test_zero_block_near_kernel_weighted_sum(self, small):
        params, unitary, b, sel, w, *_ = small
        block = np.diag(eigen_profile(w, b.n)[0])
        alphas = alpha_coeffs(params)
        acc = -np.eye(unitary.dimension, dtype=complex)
        for i in range(2 * params.L):
            acc = acc + 2 * alphas[i] * power_matrix(
                unitary, SMALL_BASIS, i - params.L)
        want = in_eigenbasis(SMALL_BASIS, acc) / b.s
        assert np.linalg.norm(block - want, 2) <= 10 * params.epsilon

    def test_zero_weight_on_target(self, small):
        params, unitary, b, sel, w, *_ = small
        state = lift(unit_vector(unitary.dimension, 0), b.n)
        out = apply_batch(w, state, w.num_qubits)
        weight = float(np.sum(np.abs(out[:unitary.dimension]) ** 2))
        assert math.sqrt(weight) == pytest.approx(1 / b.s, abs=10 * params.epsilon)

    def test_unitary(self, small):
        *_, w, r, a = small
        assert unitarity_defect(w) <= 1e-10


class TestA:
    def test_footprint_counts(self, small):
        params, unitary, b, sel, w, r, a = small
        assert a.footprint.queries_u == 5 * sel.op.footprint.queries_u
        assert a.footprint.two_qubit_gates == \
            5 * w.footprint.two_qubit_gates + 4 * r.footprint.two_qubit_gates

    def test_unitary(self, small):
        *_, a = small
        assert unitarity_defect(a) <= 1e-10

    def test_eigenvector_actions(self, small, medium):
        # A fixes eigenvector 0 and negates the gapped ones, which are e_j in
        # U's eigenbasis; D = 2 alone cannot tell e_j from the wrong basis
        params, unitary, b, sel, w, r, a = small
        unitary8, refl = medium
        for u, op, n_anc, eps in ((unitary, a, b.n, params.epsilon),
                                  (unitary8, refl.a, refl.n_ancilla, 1e-2)):
            for j in range(u.dimension):
                state = lift(unit_vector(u.dimension, j), n_anc)
                out = apply_batch(op, state, op.num_qubits)
                sign = 1 if j == 0 else -1
                assert np.linalg.norm(out - sign * state) <= 10 * eps

    def test_two_round_oaa_exact_for_synthetic_block(self):
        # W = [[aV, bV], [bV, -aV]] with a = sin(pi/10): A|0>|xi> = |0>V|xi>
        rng = np.random.default_rng(9)
        ds = 4
        v = np.linalg.qr(rng.normal(size=(ds, ds))
                         + 1j * rng.normal(size=(ds, ds)))[0]
        aa = math.sin(OAA_ANGLE)
        bb = math.sqrt(1 - aa * aa)
        w = DenseOp(np.block([[aa * v, bb * v], [bb * v, -aa * v]]))
        r = ancilla_reflection(1)
        a = build_A(w, r, 1)
        xi = rng.normal(size=ds) + 1j * rng.normal(size=ds)
        xi /= np.linalg.norm(xi)
        out = apply_batch(a, lift(xi, 1), 3)
        want = lift(v @ xi, 1)
        assert np.abs(out - want).max() < 1e-12


class TestOaaExpansion:
    def test_expansion_and_coefficients(self, medium):
        unitary, refl = medium
        stats = oaa_expansion_check(refl)
        assert stats["expansion_maxnorm"] <= 1e-10
        assert stats["coefficient_defect"] <= 10 * 1e-2
        assert stats["rtilde_unitarity"] <= 10 * 1e-2

    def test_pap_close_to_exact_reflection(self, medium):
        unitary, refl = medium
        block = np.diag(eigen_profile(refl.a, refl.n_ancilla)[0])
        want = in_eigenbasis(MEDIUM_BASIS, exact_reflection(MEDIUM_BASIS))
        assert np.linalg.norm(block - want, 2) <= 10 * 1e-2

    def test_pap_close_to_ap(self, small):
        # || PAP - AP || small: A maps the P image near the P image
        params, unitary, b, sel, w, r, a = small
        mat = op_matrix(a)
        d = unitary.dimension
        proj = np.zeros((mat.shape[0], mat.shape[0]))
        proj[:d, :d] = np.eye(d)
        pap = proj @ mat @ proj
        ap = mat @ proj
        assert np.linalg.norm(pap - ap, 2) <= 10 * params.epsilon


class TestVerifyReflection:
    def test_small_instance_bounds(self, medium):
        unitary, refl = medium
        err, _ = worst_case(refl)
        assert err <= 10 * 1e-2

    def test_eigenvector_trials(self, medium):
        unitary, refl = medium
        states = MEDIUM_BASIS[:, [0, 3]]
        misses = dense_misses(refl, MEDIUM_BASIS, states)
        assert misses.max() <= 10 * 1e-2
        # the dense misses are e_0 and e_3
        assert np.abs(misses - miss(refl, unitary.eigenphases)[[0, 3]]
                      ).max() <= 1e-13

    def test_monotone_in_eps(self):
        unitary = synth_unitary(8, 0.5, seed=7)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            refl = build_reflector(unitary, eps)
            errs.append(worst_case(refl)[0])
        assert errs[0] >= errs[1] >= errs[2]

    def test_exact_qft_variant(self):
        unitary = synth_unitary(4, 0.8, seed=5)
        refl = build_reflector(unitary, 1e-2, exact_qft=True)
        err, _ = worst_case(refl)
        assert err <= 10 * 1e-2


class TestGapEdge:
    """Eigenphases exactly at +-gap, where the kernel is largest: errors
    there measure the construction rather than roundoff."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_edge_eigenvectors_within_bound(self, eps):
        refl = build_reflector(gap_edge_unitary(), eps)
        assert dense_misses(refl, MEDIUM_BASIS,
                            MEDIUM_BASIS[:, :3]).max() <= 10 * eps

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_exact_worst_case(self, eps):
        # max_j ||A(lambda_j)|0> - r_j|0>|| bounds every input |0>|xi>
        # and is attained on eigenvector argmax
        unitary = gap_edge_unitary()
        refl = build_reflector(unitary, eps)
        per_eigenvector = miss(refl, unitary.eigenphases)
        worst = per_eigenvector.max()
        assert worst <= 10 * eps
        for seed in range(3):
            rng = np.random.default_rng(seed)
            haar = np.stack([random_state(unitary.system_qubits, rng)
                             for _ in range(20)], axis=1)
            assert dense_misses(refl, MEDIUM_BASIS, haar).max() <= worst
        j = int(per_eigenvector.argmax())
        attained = dense_misses(refl, MEDIUM_BASIS, MEDIUM_BASIS[:, j])[0]
        assert attained == pytest.approx(worst, rel=0, abs=1e-13)
        assert worst_case(refl) == (worst, unitary.eigenphases[j])


class TestMemoryPreflight:
    def test_estimate_scales_with_state(self):
        one = working_set_bytes(20)
        assert one == pytest.approx(7.3 * 16 * 2 ** 20)
        assert working_set_bytes(21) == 2 * one

    def test_refuses_before_allocating(self, monkeypatch, medium):
        unitary, refl = medium
        # a 64 KiB machine: one 13-qubit column needs about 0.95 MiB
        monkeypatch.setattr("os.sysconf", lambda name: 256)
        with pytest.raises(ValueError, match="GiB"):
            eigen_profile(refl.a, refl.n_ancilla)


class TestGroverStep:
    @pytest.mark.parametrize("dim", [16, 64])
    def test_nu_matches_exact_reflection(self, dim):
        report = grover_benchmark(dim, 0.02, 7)
        marked = report["marked"]
        s, _ = grover_states(dim, marked)
        hit = (exact_reflection(grover_basis(dim, marked)) @ s)[marked]
        assert report["nu"] == pytest.approx(1 - abs(hit) ** 2, rel=0,
                                             abs=1e-13)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_defect_and_fidelity_match_dense_reflections(self, dim):
        # the report's O(D) forms against the D x D reflections
        report = grover_benchmark(dim, 0.02, 7)
        marked = report["marked"]
        s, tilde = grover_states(dim, marked)
        defect = abs(s @ exact_reflection(grover_basis(dim, marked)) @ s)
        assert report["s_reflection_defect"] == pytest.approx(
            defect, rel=0, abs=1e-14)
        r = 2 * np.outer(tilde, tilde) - np.eye(dim)
        assert report["exact_target_fidelity"] == pytest.approx(
            (r @ s)[marked] ** 2, rel=0, abs=1e-14)


class TestReflectorLedger:
    def test_query_accounting(self, medium):
        unitary, refl = medium
        assert refl.ledger.queries_u == 5 * (3 * refl.params.L - 1)
        _, ledger = refl.entries()
        assert ledger["queries_max_power_convention"] == 5 * refl.params.L
        assert refl.n_ancilla == refl.params.m + 2

    def test_kernel_fraction_validation(self):
        unitary = synth_unitary(4, 0.8, seed=5)
        with pytest.raises(ValueError):
            build_reflector(unitary, 1e-2, kernel_fraction=1.0)


class TestHamiltonianFrontEnd:
    def test_reflect_over_hamiltonian_eigenstate(self):
        # exp(i(H - lambda0)) feeds the same pipeline as any gapped unitary
        from reflectsim.spectral_models import hamiltonian_unitary
        rng = np.random.default_rng(21)
        basis = np.linalg.qr(rng.normal(size=(8, 8))
                             + 1j * rng.normal(size=(8, 8)))[0]
        evals = np.array([-0.5, -0.1, 0.05, 0.2, 0.35, 0.5, 0.7, 0.9])
        h = (basis * evals) @ basis.conj().T
        unitary = hamiltonian_unitary(h, -0.5)
        assert unitary.gap == pytest.approx(0.4)
        refl = build_reflector(unitary, 1e-2)
        err, _ = worst_case(refl)
        assert err <= 10 * 1e-2

    def test_step_cost_scales_select_charge(self):
        from reflectsim.spectral_models import EigenUnitary
        base = synth_unitary(2, 1.5, seed=3)
        costly = EigenUnitary(base.dimension, base.eigenphases, base.gap,
                              step_cost=4)
        params = select_params(0.2, 1.5)
        sel = build_select(params, costly)
        assert sel.op.footprint.queries_u == 4 * (3 * params.L - 1)
        refl = build_reflector(costly, 0.2)
        _, ledger = refl.entries()
        assert ledger["queries_max_power_convention"] == 4 * 5 * refl.params.L
