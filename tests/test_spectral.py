"""Gapped-unitary builders: synthetic, Grover family, Hamiltonian front-end."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from oracles import grover_basis, grover_states, haar_basis, power_matrix
from reflectsim.core_sim import EigenPowersOp, apply_batch
from reflectsim.gaussian_kernel import select_params
from reflectsim.lcu_reflector import build_select
from reflectsim.pea_reflector import pea_block
from reflectsim.spectral_models import (
    EigenUnitary,
    grover_marked,
    grover_unitary,
    hamiltonian_unitary,
    synth_unitary,
)
from reflectsim.state_prep import QftSpec


class TestSynthUnitary:
    def test_deterministic(self):
        a = synth_unitary(8, 0.5, seed=7)
        b = synth_unitary(8, 0.5, seed=7)
        assert np.array_equal(a.eigenphases, b.eigenphases)

    @pytest.mark.parametrize("seed,dim", [
        (seed, dim) for seed in (0, 1, 4, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 64 + 3)
        # 127 draws and fewer run in Python, more in numpy blocks of about
        # 2^14 states: both sides of that threshold, of a full last row of
        # the block (256 = 8 x 32 draws) and of a second block (16384)
        for dim in (2, 3, 16, 128, 129, 257, 258, 1024, 16385, 16386)
    ] + [(1, 2 ** 20)])
    def test_phases_independent_of_basis_read(self, seed, dim):
        # the phases are numpy's first of the two streams spawned from the
        # seed, bit for bit; ``haar_basis`` draws the second
        stream = np.random.SeedSequence(seed).spawn(2)[0]
        want = np.random.default_rng(stream).uniform(0.5, 2 * math.pi - 0.5,
                                                     dim - 1)
        got = synth_unitary(dim, 0.5, seed=seed).eigenphases
        assert got[0] == 0.0
        assert np.array_equal(got[1:].view(np.uint64), want.view(np.uint64))

    def test_large_dimension_in_linear_memory(self):
        # the draw holds the phases and the drawn block, 8 MiB each: the
        # traced peak measured 17.3 MiB (18.0 when the instance copied the
        # phases), and one more D-length array adds 8 MiB
        tracemalloc.start()
        try:
            synth_unitary(2 ** 20, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2 ** 20

    @pytest.mark.parametrize("freeze", [False, True],
                             ids=["writable", "read_only_view"])
    def test_caller_array_not_shared(self, freeze):
        # an array the caller can still write, itself or through its base,
        # is copied: writing it later leaves the instance as built
        phases = np.array([0.0, 1.0, 2.0, 3.0])
        given = phases[:]
        given.flags.writeable = not freeze
        u = EigenUnitary(4, given, 0.5)
        phases[1:] = 4.0
        assert u.eigenphases.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert not u.eigenphases.flags.writeable

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
        t, _ = scipy.linalg.schur(power_matrix(u, haar_basis(8, 3), 1),
                                  output="complex")
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
            EigenUnitary(2, [0.0, second], 1e-10)

    def test_fixes_target(self):
        for seed in (0, 1, 2):
            u = synth_unitary(6, 0.3, seed=seed)
            basis = haar_basis(6, seed)
            psi = basis[:, 0]
            assert np.abs(power_matrix(u, basis, 1) @ psi - psi).max() < 1e-10


def _ladder(unitary, n_prime):
    """The controlled-power ladder of a PEA block."""
    block = pea_block(unitary, n_prime, QftSpec.exact_for(n_prime))
    return block.steps[1][0]


class TestPowers:
    """``oracles.power_matrix`` is the computational-basis reference; the
    reflectors apply powers as lazily phased eigenbasis diagonals (``EigenPowersOp``)
    that charge the cascade's queries."""

    def test_zero_power_identity_and_free(self):
        u = synth_unitary(4, 0.5, seed=2)
        assert np.abs(power_matrix(u, haar_basis(4, 2), 0)
                      - np.eye(4)).max() < 1e-12
        # data l = L selects U^0: exactly the identity, and select still
        # charges only its 3L - 1 cascade queries
        params = select_params(0.2, 1.5)
        sel = build_select(params, u)
        L, d = params.L, u.dimension
        cols = np.zeros((sel.op.dim, d), dtype=complex)
        cols[L * d:(L + 1) * d] = np.eye(d)
        out = apply_batch(sel.op, cols, sel.op.num_qubits)
        assert np.array_equal(out, cols)
        assert sel.op.footprint.queries_u == 3 * L - 1

    def test_eigen_relation(self):
        u = synth_unitary(4, 0.5, seed=2)
        basis = haar_basis(4, 2)
        j = 2
        psi = basis[:, j]
        out = power_matrix(u, basis, 1) @ psi
        assert np.abs(out - np.exp(1j * u.eigenphases[j]) * psi).max() < 1e-12

    def test_inverse_composition(self):
        u = synth_unitary(8, 0.5, seed=4)
        basis = haar_basis(8, 4)
        state = basis @ (np.ones(8) / math.sqrt(8))
        back = power_matrix(u, basis, 3) @ (power_matrix(u, basis, -3) @ state)
        assert np.abs(back - state).max() < 1e-12

    def test_additivity(self):
        u = synth_unitary(8, 0.5, seed=5)
        basis = haar_basis(8, 5)
        state = np.eye(8)[5]
        one = power_matrix(u, basis, 7) @ state
        two = power_matrix(u, basis, 3) @ (power_matrix(u, basis, 4) @ state)
        assert np.abs(one - two).max() < 1e-11

    def test_to_eigenbasis(self):
        # V^H, the change of basis the dense references make, sends the
        # eigenvectors to unit vectors (the oracle basis's Gram check) and
        # diagonalises every power
        u = synth_unitary(8, 0.5, seed=6)
        basis = haar_basis(8, 6)
        assert np.abs(basis.conj().T @ basis - np.eye(8)).max() < 1e-12
        diag = oracles.in_eigenbasis(basis, power_matrix(u, basis, 3))
        assert np.abs(diag - np.diag(np.exp(3j * u.eigenphases))).max() < 1e-12

    def test_query_charges(self):
        u = synth_unitary(4, 0.5, seed=2)
        # select: U^-L plus the legs 2^(m-1), ..., 1
        for eps, gap in ((0.2, 1.5), (0.2, 2.5), (1e-2, 0.5)):
            params = select_params(eps, gap)
            assert build_select(params, u).op.footprint.queries_u == \
                params.L + (2 * params.L - 1)
        # PEA ladder: legs 2^(n'-1), ..., 1
        assert _ladder(u, 3).footprint.queries_u == 7
        assert _ladder(u, 5).footprint.queries_u == 31

    def test_step_cost_multiplies(self):
        u = synth_unitary(4, 0.5, seed=2)
        costly = EigenUnitary(u.dimension, u.eigenphases, u.gap, step_cost=3)
        params = select_params(0.2, 1.5)
        assert build_select(params, costly).op.footprint.queries_u == \
            3 * (3 * params.L - 1)
        assert _ladder(costly, 3).footprint.queries_u == 21

    def test_dimension_mismatch(self):
        u = synth_unitary(4, 0.5, seed=2)
        state = np.eye(8)[:, :1]  # |0> on three qubits
        u_eig = EigenPowersOp(np.ones(1), np.ones(1), u.eigenphases)
        with pytest.raises(ValueError):
            apply_batch(u_eig, state, u.system_qubits)


class TestGrover:
    def test_large_dimension_in_linear_memory(self):
        # the phases alone, 8.0 MiB (18.0 with the instance's copy and its
        # three D-length bool checks): one more 1 MiB bool array fails
        tracemalloc.start()
        try:
            grover_unitary(2 ** 20, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2 ** 20

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            grover_unitary(12, 0)

    @pytest.mark.parametrize("d", [4, 256, 2 ** 20, 2 ** 29, 2 ** 32, 2 ** 40])
    def test_marked_is_numpy_draw(self, d):
        # numpy draws 32 bits up to 2^32 and 64 above
        for seed in range(21):
            want = int(np.random.default_rng(seed).integers(d))
            assert grover_marked(d, seed) == want, seed

    @pytest.mark.parametrize("d", [4, 16, 64, 256, 1024])
    def test_closed_form_diagonalises_dense_matrix(self, d):
        for marked in sorted({0, d // 2 + 1, d - 1}):
            inst = grover_unitary(d, marked)
            basis = grover_basis(d, marked)
            u = oracles.grover_matrix(d, marked)
            residual = u @ basis - basis * np.exp(1j * inst.unitary.eigenphases)
            assert np.abs(residual).max() <= 1e-13, marked
            gram = basis.conj().T @ basis - np.eye(d)
            assert np.abs(gram).max() <= 1e-13, marked

    @pytest.mark.parametrize("d", [4, 16, 256, 1024])
    def test_closed_form_psi0_is_drawn_column(self, d):
        # psi0 holds two values, the marked entry and the D - 1 others,
        # which ``grover_benchmark`` reads in closed form
        a, b = 1 / math.sqrt(d), math.sqrt(1 - 1 / d)
        for marked in sorted({0, d // 2 + 1, d - 1}):
            psi0 = grover_basis(d, marked)[:, 0]
            assert psi0[marked] == (a + b) / math.sqrt(2), marked
            assert np.all(np.delete(psi0, marked)
                          == a * (b - a) / b / math.sqrt(2)), marked

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

    def test_s_reflection_is_zero(self):
        s, _ = grover_states(64, 3)
        r = oracles.exact_reflection(grover_basis(64, 3))
        val = s @ (r @ s)
        assert abs(val) <= 1e-10

    def test_gap_scales_like_inverse_sqrt_dimension(self):
        gaps = {d: grover_unitary(d, 1).gap for d in (16, 64, 256)}
        scaled = [gaps[d] * math.sqrt(d) for d in (16, 64, 256)]
        assert max(scaled) <= 2 * min(scaled)
        for d, g in gaps.items():
            # closed form: the 2D invariant subspace gives gap 2 arccos(1-2/D)
            assert g == pytest.approx(2 * math.acos(1 - 2 / d), abs=1e-10)

    def test_overlap_with_exact_target(self):
        _, tilde = grover_states(64, 5)
        ov = abs(np.vdot(grover_basis(64, 5)[:, 0], tilde)) ** 2
        assert ov >= 0.9

    def test_exact_target_reflection_maps_s_to_t(self):
        s, tilde = grover_states(32, 9)
        r = 2 * np.outer(tilde, tilde.conj()) - np.eye(32)
        out = r @ s
        t = np.zeros(32)
        t[9] = 1.0
        assert np.abs(out - t).max() < 1e-10

    def test_exact_reflection_failure_probability(self):
        # nu = 1 - |<t| R_psi0 |s>|^2 equals exactly 1/D at eps_num = 0
        for d in (16, 64):
            s, _ = grover_states(d, 2)
            out = oracles.exact_reflection(grover_basis(d, 2)) @ s
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
        basis = oracles.hamiltonian_basis(h, lam0)
        assert np.abs(basis.conj().T @ basis - np.eye(8)).max() < 1e-10
        mat = power_matrix(u, basis, 1)
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

    def test_rejects_non_finite_entry(self):
        # NaN passes the Hermitian and norm comparisons
        with pytest.raises(ValueError, match="Hamiltonian entries"):
            hamiltonian_unitary(np.array([[np.nan, 0], [0, 0.5]]), 0.5)


class TestEigenUnitaryType:
    def test_fixes_psi0_across_builders(self):
        h = np.diag([0.1, 0.6, 0.9])
        for u, basis in ((synth_unitary(8, 0.5, 7), haar_basis(8, 7)),
                         (grover_unitary(16, 3).unitary, grover_basis(16, 3)),
                         (hamiltonian_unitary(h, 0.1),
                          oracles.hamiltonian_basis(h, 0.1))):
            psi = basis[:, 0]
            assert np.abs(power_matrix(u, basis, 1) @ psi - psi).max() < 1e-10

    def test_rejects_nonzero_target_phase(self):
        with pytest.raises(ValueError):
            EigenUnitary(2, np.array([0.1, 1.0]), gap=0.5)

    def test_rejects_phase_outside_gap(self):
        with pytest.raises(ValueError):
            EigenUnitary(2, np.array([0.0, 0.1]), gap=0.5)

    @pytest.mark.parametrize("field,message", [
        ({"eigenphases": [0.0, np.nan]}, "eigenphases must be finite"),
        ({"gap": np.nan}, "gap must lie in"),
        ({"eigenphases": [0.0, math.pi], "gap": math.pi + 1e-10},
         "gap must lie in"),
        ({"step_cost": 1.5}, "step_cost must be an integer"),
        ({"dimension": 2.0}, "dimension must be the positive integer"),
        ({"dimension": 0, "eigenphases": []}, "dimension must be the positive"),
    ])
    def test_rejects_non_finite_or_fractional_input(self, field, message):
        # NaN passes every comparison the range checks make, the phase
        # tolerance admits a gap just above pi, and the shape (2,) equals
        # (2.0,)
        with pytest.raises(ValueError, match=message):
            EigenUnitary(**{"dimension": 2, "eigenphases": [0.0, 1.0],
                            "gap": 0.5, **field})
