"""The eigenbasis simulation against first-principles oracles, and the
allocation footprint it buys.

Every operator tree acts on the system register in U's eigenbasis V, so a
system block must equal V^H M V for the computational-basis operator M of
the paper.
"""
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_layers,
    gap_edge_unitary,
    haar_basis,
    in_eigenbasis,
    lifted_action,
    pea_zero_amplitude,
    power_matrix,
)
from reflectsim import core_sim, lcu_reflector
from reflectsim.cli import reflect_report
from reflectsim.core_sim import DenseOp, apply_batch
from reflectsim.gaussian_kernel import select_params
from reflectsim.lcu_reflector import (
    ancilla_reflection,
    build_A,
    build_reflector,
    build_select,
    build_W,
    eigen_profile,
    miss,
    worst_case,
)
from reflectsim.pea_reflector import build_pea_reflector, pea_block
from reflectsim.spectral_models import synth_unitary
from reflectsim.state_prep import OAA_ANGLE, QftSpec, build_B

DIMS = (2, 8, 64)
TOL = 1e-12


@pytest.fixture(scope="module", params=DIMS)
def lcu_parts(request):
    params = select_params(0.2, 1.5)
    unitary = synth_unitary(request.param, 1.5, seed=request.param)
    b = build_B(params, QftSpec.for_budget(params.m, 0.05))
    sel = build_select(params, unitary)
    return params, unitary, b, sel, haar_basis(request.param, request.param)


class TestLcuAgreement:
    def test_select_blocks_are_signed_powers(self, lcu_parts):
        params, unitary, _, sel, basis = lcu_parts
        m, L, d = params.m, params.L, unitary.dimension
        total = sel.n + unitary.system_qubits
        for anc in range(1 << sel.n):
            cols = np.zeros((1 << total, d), dtype=complex)
            cols[anc * d:(anc + 1) * d] = np.eye(d)
            out = apply_batch(sel.op, cols, total)
            block = out[anc * d:(anc + 1) * d].copy()
            out[anc * d:(anc + 1) * d] = 0
            assert np.abs(out).max() == 0
            header, data = anc >> m, anc & ((1 << m) - 1)
            sign = -1.0 if header in (1, 3) else 1.0
            power = data - L if header == 0 else 0
            want = in_eigenbasis(basis, sign * power_matrix(unitary, basis, power))
            assert np.abs(block - want).max() <= TOL

    def test_w_zero_block_is_scaled_lcu_sum(self, lcu_parts):
        params, unitary, b, sel, basis = lcu_parts
        w = build_W(b, sel)
        block = np.diag(eigen_profile(w, b.n)[0])
        want = -np.eye(unitary.dimension, dtype=complex)
        for i in range(2 * params.L):
            want += b.beta_magnitudes[i] * power_matrix(unitary, basis,
                                                        i - params.L)
        want = in_eigenbasis(basis, want / b.s)
        assert np.abs(block - want).max() <= TOL


class TestPeaAgreement:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("spec", [QftSpec.exact_for(5),
                                      QftSpec(m=5, cutoff_b=2)],
                             ids=["exact", "truncated"])
    def test_zero_amplitude_matches_phase_sum(self, dim, spec):
        unitary = synth_unitary(dim, 0.5, seed=dim + 1)
        block = pea_block(unitary, 5, spec)
        got = np.diag(eigen_profile(block, 5)[0])
        want = np.diag([pea_zero_amplitude(lam, 5)
                        for lam in unitary.eigenphases])
        assert np.abs(got - want).max() <= TOL


def _profile_mismatch(op, n_ancilla: int, dim: int) -> float:
    """max |A|0>|xi> - (profile * xi).ravel()| over three Haar columns xi,
    with A|0>|xi> simulated column by column."""
    rng = np.random.default_rng(dim)
    xi = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    xi /= np.linalg.norm(xi, axis=0)
    profile = eigen_profile(op, n_ancilla)
    predicted = (profile[:, :, None] * xi).reshape(-1, 3)
    return float(np.abs(lifted_action(op, n_ancilla, xi) - predicted).max())


class TestBlockDiagonality:
    """One simulated column holds every eigenvector's block only if the
    operator is block diagonal in U's eigenbasis: the profile must predict
    the column-by-column simulation of A|0>|xi>."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_lcu_reflector(self, dim):
        refl = build_reflector(synth_unitary(dim, 0.5, seed=dim), 1e-2)
        assert _profile_mismatch(refl.a, refl.n_ancilla, dim) <= TOL

    @pytest.mark.parametrize("dim", (2, 8))
    def test_pea_reflector(self, dim):
        refl = build_pea_reflector(synth_unitary(dim, 0.5, seed=dim), 0.2)
        assert _profile_mismatch(refl.a, refl.n_ancilla, dim) <= TOL

    def test_rejects_dense_system_mixing(self):
        # the synthetic W = [[aV, bV], [bV, -aV]] of the two-round OAA test
        # applies a dense V to the system, so it is not block diagonal
        rng = np.random.default_rng(9)
        v = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        aa = math.sin(OAA_ANGLE)
        bb = math.sqrt(1 - aa * aa)
        w = DenseOp(np.block([[aa * v, bb * v], [bb * v, -aa * v]]))
        a = build_A(w, ancilla_reflection(1), 1)
        assert _profile_mismatch(a, 1, 4) > 1e-2


def _own_misses(refl) -> np.ndarray:
    """``miss`` at the eigenphases of the reflector's own instance."""
    return miss(refl, refl.unitary.eigenphases)


def _dense_eigen_errors(refl) -> np.ndarray:
    """||A(lambda_j)|0> - r_j|0>|| for every j, read off the dense column
    of the whole 2^(n + s) register."""
    miss = eigen_profile(refl.a, refl.n_ancilla)
    miss[0] -= np.where(np.arange(miss.shape[1]) == 0, 1.0, -1.0)
    return np.linalg.norm(miss, axis=0)


class TestLcuEigenErrors:
    """The subspace misses of the LCU reflector, read off B's table,
    against the dense column of A."""

    @staticmethod
    def _assert_matches_dense(refl):
        dense_a0 = eigen_profile(refl.a, refl.n_ancilla)[0]
        a0, _ = refl.a_column(refl.unitary.eigenphases)
        assert np.abs(a0 - dense_a0).max() <= 1e-13
        assert np.abs(_own_misses(refl)
                      - _dense_eigen_errors(refl)).max() <= 1e-13

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("eps", (0.2, 1e-2, 1e-3))
    def test_matches_dense_column(self, dim, eps):
        unitary = synth_unitary(dim, 0.5, seed=dim)
        self._assert_matches_dense(build_reflector(unitary, eps))

    @pytest.mark.parametrize("eps", (1e-2, 1e-3))
    def test_matches_dense_column_on_gap_edge(self, eps):
        self._assert_matches_dense(build_reflector(gap_edge_unitary(), eps))

    @pytest.mark.parametrize("eps", (0.2, 1e-2))
    def test_depends_on_lambda_alone(self, eps):
        # a reflector built on one instance, evaluated at another's phases,
        # misses as that instance's own reflector does
        a = synth_unitary(8, 0.5, seed=7)
        b = synth_unitary(64, 0.5, seed=3)
        on_a = build_reflector(a, eps)
        on_b = build_reflector(b, eps)
        assert on_a.params == on_b.params
        assert np.abs(miss(on_a, b.eigenphases)
                      - _own_misses(on_b)).max() <= 1e-15


QFTS = pytest.mark.parametrize("exact_qft", [True, False],
                               ids=["exact", "truncated"])


class TestPeaEigenErrors:
    """The product-state misses of the PEA reflector against the dense
    column, and against the phase-sum oracle where that column is out of
    reach."""

    @pytest.mark.parametrize("dim", (2, 8))
    @pytest.mark.parametrize("eps", (0.2, 1e-2))
    @QFTS
    def test_matches_dense_column(self, dim, eps, exact_qft):
        unitary = synth_unitary(dim, 0.5, seed=dim)
        refl = build_pea_reflector(unitary, eps, exact_qft=exact_qft)
        got = _own_misses(refl)
        # D = 8 at eps 1e-2 is a 23-qubit column: dense layers keep it fast
        dense = _dense_eigen_errors(dense_layers(refl))
        assert np.abs(got - dense).max() <= 1e-14

    @pytest.mark.parametrize("eps", (1e-3, 1e-4))
    @QFTS
    def test_matches_phase_sum_oracle(self, eps, exact_qft):
        # q n' + s = 33 and 43 qubits: no dense column to compare with.
        # On a gapped eigenvector A|0> = 2 a^q chi^(x q) - |0> and r_j = -1,
        # so e_j = 2 |a|^q with a = <0|block|0>; the target is fixed.
        unitary = synth_unitary(8, 0.5, seed=7)
        refl = build_pea_reflector(unitary, eps, exact_qft=exact_qft)
        n_prime, q = refl.params.n_prime, refl.params.q
        want = [2 * abs(pea_zero_amplitude(lam, n_prime)) ** q
                for lam in unitary.eigenphases[1:]]
        got = _own_misses(refl)
        assert got[1:] == pytest.approx(want, rel=1e-10)
        assert got[0] <= 1e-12

    @pytest.mark.parametrize("unitary", [synth_unitary(8, 0.5, seed=7),
                                         gap_edge_unitary()],
                             ids=["seed7", "gap_edge"])
    @pytest.mark.parametrize("eps", (0.2, 1e-2, 1e-3))
    @QFTS
    def test_gapped_errors_from_one_column(self, unitary, eps, exact_qft):
        # the misses read the Fejer kernel x = |<0|block|0>|^2 alone; on
        # gapped eigenvectors they are 2 |a|^q, a = <0|block|0>, summed
        # phase by phase in the oracle
        refl = build_pea_reflector(unitary, eps, exact_qft=exact_qft)
        n_prime, q = refl.params.n_prime, refl.params.q
        want = [2 * abs(pea_zero_amplitude(lam, n_prime)) ** q
                for lam in unitary.eigenphases[1:]]
        assert np.abs(_own_misses(refl)[1:] - want).max() <= 1e-15


# (method, eps, dense tolerance): LCU misses are roundoff at eps = 1e-2 and
# gap 0.5, not at 0.2; the PEA column at eps = 0.2 and D = 64 is 2^16
# amplitudes, at eps = 1e-2 it would be 2^26
ROUTES = pytest.mark.parametrize("method,eps,tol", [
    ("lcu", 0.2, 1e-13), ("lcu", 1e-2, 1e-13), ("pea", 0.2, 1e-14)])


def _build(method, unitary, eps):
    if method == "lcu":
        return build_reflector(unitary, eps)
    return build_pea_reflector(unitary, eps)


class TestWorstCase:
    """``reflect``'s max_error is max_j e_j and its worst_eigenphase the
    lambda_j where that sits, against the dense column of A."""

    @staticmethod
    def _assert_matches_dense(err, phase, unitary, refl, tol):
        dense = _dense_eigen_errors(refl)
        assert err == pytest.approx(dense.max(), rel=0, abs=tol)
        j = list(unitary.eigenphases).index(phase)
        assert dense[j] >= dense.max() - 2 * tol

    @ROUTES
    @pytest.mark.parametrize("dim", DIMS)
    def test_report_matches_dense(self, method, eps, tol, dim):
        report = reflect_report(method, dim, 0.5, eps, dim, 40.0, 0.5, False)
        unitary = synth_unitary(dim, 0.5, dim)
        self._assert_matches_dense(report["max_error"],
                                   report["worst_eigenphase"], unitary,
                                   _build(method, unitary, eps), tol)

    @ROUTES
    def test_gap_edge_matches_dense(self, method, eps, tol):
        unitary = gap_edge_unitary()
        refl = _build(method, unitary, eps)
        self._assert_matches_dense(*worst_case(refl), unitary, refl,
                                   tol)

    @pytest.mark.parametrize("method", ("lcu", "pea"))
    def test_reads_own_instance(self, method):
        # the eigenphase comes from the instance the reflector was built on
        unitary = synth_unitary(8, 0.5, 7)
        refl = _build(method, unitary, 0.2)
        assert refl.unitary is unitary
        e = _own_misses(refl)
        j = int(e.argmax())
        assert worst_case(refl) == (e[j], unitary.eigenphases[j])
        other = synth_unitary(8, 0.5, 8)
        assert worst_case(_build(method, other, 0.2))[1] in other.eigenphases

    def test_simulates_nothing(self, monkeypatch):
        # once built, neither route applies an operator to verify
        unitary = synth_unitary(8, 0.5, 7)
        refls = [_build(method, unitary, 1e-2) for method in ("lcu", "pea")]
        want = [worst_case(refl) for refl in refls]

        def fail(*args, **kwargs):
            pytest.fail("verification simulated a state")

        for module in (core_sim, lcu_reflector):
            monkeypatch.setattr(module, "apply_batch", fail)
        monkeypatch.setattr(lcu_reflector, "eigen_profile", fail)
        assert [worst_case(refl) for refl in refls] == want


def _traced_peak_mib(build) -> float:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestAllocation:
    """No D x D power matrix, no 2^n diagonal for R and no 2^(n + s)
    diagonal for select or the PEA ladder: what a build allocates is
    B|0> and the ancilla-local layers. Verification simulates nothing: LCU
    reads B's table and the eigenphases, PEA the eigenphases alone."""

    def test_lcu_build_at_d1024(self):
        unitary = synth_unitary(1024, 0.5, 1)
        assert _traced_peak_mib(lambda: build_reflector(unitary, 1e-2)) <= 64

    def test_lcu_build_and_verify_at_d1024(self):
        # the dense column of A would be 2^(12 + 10) amplitudes
        unitary = synth_unitary(1024, 0.5, 1)
        peak = _traced_peak_mib(
            lambda: worst_case(build_reflector(unitary, 1e-2)))
        assert peak <= 16

    def test_pea_build_at_d8(self):
        unitary = synth_unitary(8, 0.5, 7)
        assert _traced_peak_mib(lambda: build_pea_reflector(unitary, 1e-2)) <= 4

    def test_pea_verification_at_d8(self):
        # the dense column of A would be 2^23 amplitudes
        unitary = synth_unitary(8, 0.5, 7)
        refl = build_pea_reflector(unitary, 1e-2)
        peak = _traced_peak_mib(lambda: worst_case(refl))
        assert peak <= 4

    def test_pea_report_at_d1024(self):
        # n' = 10, q = 6: a block column would be 2^20 amplitudes, 16 MiB,
        # and the dense H wall and inverse QFT 16 MiB each
        report = {}
        peak = _traced_peak_mib(lambda: report.update(reflect_report(
            "pea", 1024, 1e-2, 1e-3, 7, 40.0, 0.5, False)))
        assert (report["params"]["n_prime"], report["params"]["q"]) == (10, 6)
        assert report["passed"] is True
        assert peak <= 4
