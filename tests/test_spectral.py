"""Gapped-unitary builders: synthetic, Grover family, Hamiltonian front-end."""
import math
import os

import numpy as np
import pytest
import scipy.linalg

import oracles
from reflectsim import cli, spectral_models
from reflectsim.core_sim import DiagonalOp, apply_batch, working_set_bytes
from reflectsim.gaussian_kernel import select_params
from reflectsim.lcu_reflector import build_reflector, build_select, worst_case
from reflectsim.pea_reflector import build_pea_reflector, pea_block
from reflectsim.spectral_models import (
    EigenUnitary,
    grover_unitary,
    hamiltonian_unitary,
    synth_unitary,
)
from reflectsim.state_prep import QftSpec


class TestSynthUnitary:
    def test_deterministic(self):
        a = synth_unitary(8, 0.5, seed=7)
        b = synth_unitary(8, 0.5, seed=7)
        assert np.array_equal(a.eigenbasis, b.eigenbasis)
        assert np.array_equal(a.eigenphases, b.eigenphases)

    def test_basis_drawn_on_first_read_only(self, monkeypatch):
        draws = []
        draw = spectral_models._haar_basis

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(spectral_models, "_haar_basis", counted)
        u = synth_unitary(64, 0.5, seed=3)
        for refl in (build_reflector(u, 1e-2), build_pea_reflector(u, 0.2)):
            worst_case(refl)
        assert draws == []
        assert u.eigenbasis is u.eigenbasis
        assert np.array_equal(u.psi0(), u.eigenbasis[:, 0])
        assert len(draws) == 1

    def test_phases_independent_of_basis_read(self):
        read = synth_unitary(16, 0.5, seed=4)
        assert read.eigenbasis.shape == (16, 16)
        unread = synth_unitary(16, 0.5, seed=4)
        assert np.array_equal(read.eigenphases, unread.eigenphases)
        assert np.array_equal(read.eigenbasis, unread.eigenbasis)

    def test_oversized_basis_refused_on_read(self):
        # 2^15 eigenphases fit; the 2^30-entry basis is refused when read,
        # before the Gaussian draw
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if working_set_bytes(30) <= physical:
            pytest.skip("this machine could hold the 2^30-entry basis")
        u = synth_unitary(1 << 15, 0.5, seed=1)
        with pytest.raises(ValueError, match="2\\^30 entries"):
            u.eigenbasis

    def test_immutable(self):
        u = synth_unitary(4, 0.5, seed=1)
        with pytest.raises(AttributeError):
            u.gap = 1.0
        with pytest.raises(ValueError):
            u.eigenphases[1] = 1.0

    def test_gap_pi_collapses_interval(self):
        u = synth_unitary(2, math.pi, seed=1)
        assert sorted(u.eigenphases) == pytest.approx([0.0, math.pi])

    def test_phases_verified_by_rediagonalization(self):
        # oracle: Schur-diagonalize the assembled matrix independently
        u = synth_unitary(8, 0.5, seed=3)
        t, _ = scipy.linalg.schur(u.power_matrix(1), output="complex")
        phases = np.sort(np.mod(np.angle(np.diag(t)), 2 * math.pi))
        phases[phases > 2 * math.pi - 1e-9] = 0.0
        got = np.sort(np.mod(u.eigenphases, 2 * math.pi))
        assert np.abs(np.sort(phases) - got).max() < 1e-8
        gapped = got[got > 1e-12]
        assert gapped.min() >= 0.5 - 1e-12
        assert gapped.max() <= 2 * math.pi - 0.5 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_unitary(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            synth_unitary(4, 3.5, seed=0)

    @pytest.mark.parametrize("second", [0.0, 2 * math.pi])
    def test_target_phase_unique(self, second):
        # within the gap tolerance, but a second eigenphase equal to the
        # target's would make the reflection's sign vector +1 twice
        with pytest.raises(ValueError, match="only the target"):
            EigenUnitary(2, [0.0, second], np.eye(2), 1e-10)

    def test_fixes_target(self):
        for seed in (0, 1, 2):
            u = synth_unitary(6, 0.3, seed=seed)
            psi = u.psi0()
            assert np.abs(u.power_matrix(1) @ psi - psi).max() < 1e-10


def _ladder(unitary, n_prime):
    """The controlled-power ladder of a PEA block."""
    block = pea_block(unitary, n_prime, QftSpec.exact_for(n_prime))
    return block.steps[1][0]


class TestPowers:
    """power_matrix is the computational-basis reference; the reflectors
    apply powers as lazily phased eigenbasis diagonals (``EigenPowersOp``)
    that charge the cascade's queries."""

    def test_zero_power_identity_and_free(self):
        u = synth_unitary(4, 0.5, seed=2)
        assert np.abs(u.power_matrix(0) - np.eye(4)).max() < 1e-12
        # data l = L selects U^0: exactly the identity, and select still
        # charges only its 3L - 1 cascade queries
        params = select_params(0.2, 1.5)
        sel = build_select(params, u)
        L, d = params.L, u.dimension
        cols = np.zeros((sel.op.dim, d), dtype=complex)
        cols[L * d:(L + 1) * d] = np.eye(d)
        out = apply_batch(sel.op, cols, sel.op.num_qubits)
        assert np.array_equal(out, cols)
        assert sel.footprint.queries_u == 3 * L - 1

    def test_eigen_relation(self):
        u = synth_unitary(4, 0.5, seed=2)
        j = 2
        psi = u.eigenbasis[:, j]
        out = u.power_matrix(1) @ psi
        assert np.abs(out - np.exp(1j * u.eigenphases[j]) * psi).max() < 1e-12

    def test_inverse_composition(self):
        u = synth_unitary(8, 0.5, seed=4)
        state = u.eigenbasis @ (np.ones(8) / math.sqrt(8))
        back = u.power_matrix(3) @ (u.power_matrix(-3) @ state)
        assert np.abs(back - state).max() < 1e-12

    def test_additivity(self):
        u = synth_unitary(8, 0.5, seed=5)
        state = np.eye(8)[5]
        one = u.power_matrix(7) @ state
        two = u.power_matrix(3) @ (u.power_matrix(4) @ state)
        assert np.abs(one - two).max() < 1e-11

    def test_to_eigenbasis(self):
        u = synth_unitary(8, 0.5, seed=6)
        cols = u.to_eigenbasis(u.eigenbasis[:, [0, 5]])
        assert np.abs(cols - np.eye(8)[:, [0, 5]]).max() < 1e-12
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        assert np.abs(u.to_eigenbasis(x) - u.eigenbasis.conj().T @ x).max() < 1e-12

    def test_query_charges(self):
        u = synth_unitary(4, 0.5, seed=2)
        # select: U^-L plus the legs 2^(m-1), ..., 1
        for eps, gap in ((0.2, 1.5), (0.2, 2.5), (1e-2, 0.5)):
            params = select_params(eps, gap)
            assert build_select(params, u).footprint.queries_u == \
                params.L + (2 * params.L - 1)
        # PEA ladder: legs 2^(n'-1), ..., 1
        assert _ladder(u, 3).footprint.queries_u == 7
        assert _ladder(u, 5).footprint.queries_u == 31

    def test_step_cost_multiplies(self):
        u = synth_unitary(4, 0.5, seed=2)
        costly = EigenUnitary(u.dimension, u.eigenphases, u.eigenbasis,
                              u.gap, step_cost=3)
        params = select_params(0.2, 1.5)
        assert build_select(params, costly).footprint.queries_u == \
            3 * (3 * params.L - 1)
        assert _ladder(costly, 3).footprint.queries_u == 21

    def test_dimension_mismatch(self):
        u = synth_unitary(4, 0.5, seed=2)
        state = np.eye(8)[:, :1]  # |0> on three qubits
        u_eig = DiagonalOp(np.exp(1j * u.eigenphases))
        with pytest.raises(ValueError):
            apply_batch(u_eig, state, u.system_qubits)


class TestGrover:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            grover_unitary(12, 0)

    @pytest.mark.parametrize("d", [4, 16, 64, 256, 1024])
    def test_closed_form_diagonalises_dense_matrix(self, d):
        for marked in sorted({0, d // 2 + 1, d - 1}):
            inst = grover_unitary(d, marked)
            basis = inst.unitary.eigenbasis
            u = oracles.grover_matrix(d, marked)
            residual = u @ basis - basis * np.exp(1j * inst.unitary.eigenphases)
            assert np.abs(residual).max() <= 1e-13, marked
            gram = basis.conj().T @ basis - np.eye(d)
            assert np.abs(gram).max() <= 1e-13, marked

    @pytest.mark.parametrize("d", [4, 16, 256, 1024])
    def test_closed_form_psi0_is_drawn_column(self, d):
        for marked in sorted({0, d // 2 + 1, d - 1}):
            inst = grover_unitary(d, marked)
            assert np.array_equal(inst.psi0, inst.unitary.eigenbasis[:, 0]), \
                marked

    def test_basis_never_drawn_for_report(self, monkeypatch):
        draws = []
        draw = spectral_models._grover_basis

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(spectral_models, "_grover_basis", counted)
        grover_unitary(4096, 5).psi0
        for seed in (1, 2):
            assert cli.grover_benchmark(4096, 0.02, seed)["passed"]
        assert draws == []
        u = grover_unitary(16, 3).unitary
        assert u.eigenbasis is u.eigenbasis
        assert draws == [(16, 3)]

    def test_oversized_basis_refused_on_read(self):
        # 2^15 entries per vector fit; the 2^30-entry basis is refused when
        # read, before it is allocated
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if working_set_bytes(30) <= physical:
            pytest.skip("this machine could hold the 2^30-entry basis")
        inst = grover_unitary(1 << 15, 1)
        assert inst.psi0.shape == (1 << 15,)
        with pytest.raises(ValueError, match="2\\^30 entries"):
            inst.unitary.eigenbasis

    @pytest.mark.parametrize("d", [4, 16, 64, 256])
    def test_phases_match_schur_spectrum(self, d):
        inst = grover_unitary(d, d - 3)
        t = scipy.linalg.schur(oracles.grover_matrix(d, d - 3),
                               output="complex")[0]
        # angles in (-pi, pi]: no eigenvalue sits near -1
        closed = np.angle(np.exp(1j * inst.unitary.eigenphases))
        assert np.sort(np.angle(np.diag(t))) == pytest.approx(
            np.sort(closed), rel=0, abs=1e-13)

    @pytest.mark.parametrize("d", [4, 16, 64, 256, 1024])
    def test_eigenphases_are_exact(self, d):
        theta = math.acos(1 - 2 / d)
        phases = grover_unitary(d, d // 2).unitary.eigenphases
        assert phases[0] == 0.0
        assert phases[1] == 2 * math.pi - 2 * theta
        assert np.all(phases[2:] == math.pi - theta)

    @pytest.mark.parametrize("d", [16, 64])
    def test_gap_does_not_depend_on_marked(self, d):
        gaps = {grover_unitary(d, marked).gap for marked in range(d)}
        assert gaps == {2 * math.acos(1 - 2 / d)}

    @pytest.mark.parametrize("real", [True, False])
    def test_corrupted_column_rejected(self, real):
        inst = grover_unitary(64, 5)
        basis = inst.unitary.eigenbasis.real if real else inst.unitary.eigenbasis
        phases = inst.unitary.eigenphases
        for col in (0, 1, 40):
            # the 1e-10 tolerance: a column scaled by 1 + 2e-11 passes
            # (Gram defect 4e-11), one scaled by 1 + 1e-10 does not
            ok = basis.copy()
            ok[:, col] *= 1 + 2e-11
            EigenUnitary(64, phases, ok, gap=inst.gap)
            bad = basis.copy()
            bad[:, col] *= 1 + 1e-10
            with pytest.raises(ValueError, match="eigenbasis is not unitary"):
                EigenUnitary(64, phases, bad, gap=inst.gap)

    def test_s_reflection_is_zero(self):
        inst = grover_unitary(64, 3)
        r = oracles.exact_reflection(inst.unitary)
        val = inst.s_state @ (r @ inst.s_state)
        assert abs(val) <= 1e-10

    def test_gap_scales_like_inverse_sqrt_dimension(self):
        gaps = {d: grover_unitary(d, 1).gap for d in (16, 64, 256)}
        scaled = [gaps[d] * math.sqrt(d) for d in (16, 64, 256)]
        assert max(scaled) <= 2 * min(scaled)
        for d, g in gaps.items():
            # closed form: the 2D invariant subspace gives gap 2 arccos(1-2/D)
            assert g == pytest.approx(2 * math.acos(1 - 2 / d), abs=1e-10)

    def test_overlap_with_exact_target(self):
        inst = grover_unitary(64, 5)
        ov = abs(np.vdot(inst.unitary.psi0(), inst.psi_tilde)) ** 2
        assert ov >= 0.9

    def test_exact_target_reflection_maps_s_to_t(self):
        inst = grover_unitary(32, 9)
        r = 2 * np.outer(inst.psi_tilde, inst.psi_tilde.conj()) - np.eye(32)
        out = r @ inst.s_state
        t = np.zeros(32)
        t[9] = 1.0
        assert np.abs(out - t).max() < 1e-10

    def test_exact_reflection_failure_probability(self):
        # nu = 1 - |<t| R_psi0 |s>|^2 equals exactly 1/D at eps_num = 0
        for d in (16, 64):
            inst = grover_unitary(d, 2)
            out = oracles.exact_reflection(inst.unitary) @ inst.s_state
            nu = 1 - abs(out[2]) ** 2
            assert nu == pytest.approx(1 / d, abs=1e-10)

    def test_unique_unit_eigenvalue(self):
        inst = grover_unitary(16, 0)
        phases = inst.unitary.eigenphases
        assert (np.abs(phases) < 1e-12).sum() == 1


class TestHamiltonian:
    def test_diagonal_case(self):
        u = hamiltonian_unitary(np.diag([0.2, 0.9]), 0.2)
        assert sorted(u.eigenphases) == pytest.approx([0.0, 0.7])

    def test_pauli_x_over_two(self):
        h = np.array([[0, 0.5], [0.5, 0]])
        u = hamiltonian_unitary(h, -0.5)
        assert sorted(u.eigenphases) == pytest.approx([0.0, 1.0])

    def test_random_hermitian_unitary(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (g + g.conj().T) / 2
        h /= np.abs(np.linalg.eigvalsh(h)).max() * 1.5
        lam0 = float(np.linalg.eigvalsh(h)[0])
        u = hamiltonian_unitary(h, lam0)
        mat = u.power_matrix(1)
        assert np.abs(mat.conj().T @ mat - np.eye(8)).max() < 1e-10
        # agrees with the direct exponential
        direct = scipy.linalg.expm(1j * (h - lam0 * np.eye(8)))
        assert np.abs(mat - direct).max() < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            hamiltonian_unitary(np.diag([1.5, 0.0]), 0.0)
        with pytest.raises(ValueError):
            hamiltonian_unitary(np.diag([0.2, 0.9]), 0.5)
        with pytest.raises(ValueError):
            hamiltonian_unitary(np.diag([0.3, 0.3, 0.9]), 0.3)
        with pytest.raises(ValueError):
            hamiltonian_unitary(np.array([[0, 1.0], [0, 0]]), 0.0)


class TestEigenUnitaryType:
    def test_fixes_psi0_across_builders(self):
        for u in (synth_unitary(8, 0.5, 7), grover_unitary(16, 3).unitary,
                  hamiltonian_unitary(np.diag([0.1, 0.6, 0.9]), 0.1)):
            psi = u.psi0()
            assert np.abs(u.power_matrix(1) @ psi - psi).max() < 1e-10

    def test_rejects_nonzero_target_phase(self):
        with pytest.raises(ValueError):
            EigenUnitary(2, np.array([0.1, 1.0]), np.eye(2), gap=0.5)

    def test_rejects_phase_outside_gap(self):
        with pytest.raises(ValueError):
            EigenUnitary(2, np.array([0.0, 0.1]), np.eye(2), gap=0.5)

    def test_drawn_basis_checked_on_read(self):
        u = EigenUnitary(2, np.array([0.0, math.pi]), lambda: np.ones((2, 2)),
                         gap=0.5)
        assert u.eigenphases[1] == math.pi
        with pytest.raises(ValueError, match="eigenbasis is not unitary"):
            u.eigenbasis

    @pytest.mark.parametrize("row,col", [(3, 40), (40, 3)])
    def test_rejects_basis_perturbed_off_diagonal(self, row, col):
        # the Gram check reads one triangle: an entry above or below the
        # diagonal moves a whole row and column of V^H V, so both show
        base = synth_unitary(64, 0.5, seed=3)
        basis = np.array(base.eigenbasis)
        basis[row, col] += 1e-8
        with pytest.raises(ValueError, match="eigenbasis is not unitary"):
            EigenUnitary(64, base.eigenphases, basis, gap=0.5)
