"""Phase-estimation baseline: parameters, blocks, and the W' R W operator."""
import math

import numpy as np
import pytest

from oracles import dense_misses, gap_edge_unitary, lift, unit_vector
from reflectsim.core_sim import apply_batch, op_matrix, unitarity_defect
from reflectsim.lcu_reflector import worst_case
from reflectsim.pea_reflector import (
    PeaParams,
    PeaReflector,
    build_A_pea,
    build_pea_reflector,
    build_W_pea,
    choose_pea_params,
    leakage_amplitude_bound,
    pea_block,
    pea_budget,
)
from reflectsim.spectral_models import EigenUnitary, synth_unitary
from reflectsim.state_prep import QftSpec


def _phase_unitary(phases, gap):
    """Diagonal test unitary with prescribed eigenphases."""
    phases = np.asarray(phases, dtype=float)
    return EigenUnitary(phases.shape[0], phases, np.eye(phases.shape[0]),
                        gap=gap)


class TestChoosePeaParams:
    def test_full_gap_needs_two_qubits(self):
        assert choose_pea_params(0.1, math.pi).n_prime == 2

    def test_coarse_eps_single_round(self):
        assert choose_pea_params(0.2, 0.5).q == 2
        # the boundary case from the geometric bound: eps = 1/2 gives q = 1,
        # but eps is capped at 1/5; check the formula directly
        assert math.ceil(math.log(4 / 0.5 ** 2, 16)) == 1

    def test_frozen_instance(self):
        p = choose_pea_params(1e-2, 0.5)
        assert (p.n_prime, p.q) == (5, 4)
        assert p.total_ancilla == 20

    def test_amplitude_bound_met_on_grid(self):
        for delta in (0.5, 0.1, 0.02):
            p = choose_pea_params(1e-2, delta)
            m_dim = 1 << p.n_prime
            lams = np.linspace(delta, 2 * math.pi - delta, 800)
            amps = np.abs(np.exp(1j * np.outer(lams, np.arange(m_dim)))
                          .sum(axis=1)) / m_dim
            assert amps.max() <= 1 / 4
            assert amps.max() <= leakage_amplitude_bound(p.n_prime, delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_pea_params(0.5, 0.5)
        with pytest.raises(ValueError):
            choose_pea_params(0.1, 0.0)


class TestPeaBlock:
    def test_zero_phase_exact_return(self):
        u = _phase_unitary([0.0, 1.2], gap=1.2)
        block = pea_block(u, 4, QftSpec.exact_for(4))
        state = lift(u.psi0(), 4)
        out = apply_batch(block, state, 5)
        assert np.abs(out - state).max() < 1e-12

    def test_representable_phase_lands_on_basis_state(self):
        n_prime = 4
        m_dim = 1 << n_prime
        k = 5
        u = _phase_unitary([0.0, 2 * math.pi * k / m_dim],
                           gap=2 * math.pi * k / m_dim)
        block = pea_block(u, n_prime, QftSpec.exact_for(n_prime))
        state = lift(u.eigenbasis[:, 1], n_prime)
        out = apply_batch(block, state, n_prime + 1)
        hit = (k << 1) | 1  # ancilla k, system 1
        assert abs(out[hit, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_generic_phase_leakage_below_bound(self):
        u = synth_unitary(8, 0.5, seed=7)
        leak = build_pea_reflector(u, 1e-2).block_leakage()
        assert leak.shape == (8,)
        assert leak[1:].max() <= 1 / 16

    def test_query_footprint(self):
        u = synth_unitary(4, 0.5, seed=1)
        block = pea_block(u, 3, QftSpec.exact_for(3))
        assert block.footprint.queries_u == 7

    def test_unitary(self):
        u = synth_unitary(4, 0.5, seed=1)
        assert unitarity_defect(pea_block(u, 3, QftSpec.exact_for(3))) <= 1e-10


class TestWPea:
    def test_single_round_reduces_to_block(self):
        u = synth_unitary(4, 0.8, seed=2)
        params = PeaParams(n_prime=4, q=1, epsilon=0.2, delta=0.8)
        spec = QftSpec.for_budget(params.n_prime, 0.05)
        single = pea_block(u, params.n_prime, spec)
        w = build_W_pea(u, params, spec)
        assert np.abs(op_matrix(w) - op_matrix(single)).max() < 1e-12

    def test_amplitude_factorization(self):
        # blocks act on the same eigenvector: the all-zero ancilla amplitude
        # is the q-th power of the single-register amplitude
        u = synth_unitary(8, 0.5, seed=7)
        n_prime, q = 5, 2
        params = choose_pea_params(1e-2, 0.5)
        params = type(params)(n_prime=n_prime, q=q, epsilon=1e-2, delta=0.5)
        spec = QftSpec.for_budget(n_prime, 0.05)
        w = build_W_pea(u, params, spec)
        j = 2
        state = lift(unit_vector(8, j), n_prime * q)
        out = apply_batch(w, state, w.num_qubits)
        weight = float(np.sum(np.abs(out[:8]) ** 2))
        # the default budget at eps 1e-2 builds the same n' = 5 block
        block_refl = build_pea_reflector(u, 1e-2)
        assert block_refl.qft_spec == spec
        single = block_refl.block_leakage()[j]
        # ancilla-zero weight multiplies across registers on an eigenvector
        assert weight == pytest.approx(single ** q, abs=1e-10)

    def test_fixes_target_eigenvector(self):
        u = synth_unitary(8, 0.5, seed=7)
        params = choose_pea_params(0.2, 0.5)
        spec = QftSpec.exact_for(params.n_prime)
        w = build_W_pea(u, params, spec)
        state = lift(unit_vector(8, 0), params.total_ancilla)
        out = apply_batch(w, state, w.num_qubits)
        assert np.abs(out - state).max() < 1e-12


class TestPeaBudget:
    @pytest.mark.parametrize("exact_qft", [False, True])
    def test_reflector_uses_budget(self, exact_qft):
        u = synth_unitary(8, 0.5, seed=7)
        refl = build_pea_reflector(u, 1e-2, exact_qft=exact_qft)
        params, spec = pea_budget(1e-2, u.gap, exact_qft)
        assert refl.params == params
        assert refl.qft_spec == spec


@pytest.fixture(scope="module")
def setup():
    u = synth_unitary(8, 0.5, seed=7)
    eps = 0.2
    refl = build_pea_reflector(u, eps)
    return u, eps, refl


class TestAPea:

    def test_exact_qft_fixes_target(self, setup):
        u, eps, _ = setup
        refl = build_pea_reflector(u, eps, exact_qft=True)
        state = lift(unit_vector(8, 0), refl.n_ancilla)
        out = apply_batch(refl.a, state, refl.a.num_qubits)
        assert np.linalg.norm(out - state) <= 1e-10

    def test_truncated_qft_still_fixes_target(self, setup):
        # dropped controlled phases act on |0> controls: exact invariance
        u, eps, refl = setup
        state = lift(unit_vector(8, 0), refl.n_ancilla)
        out = apply_batch(refl.a, state, refl.a.num_qubits)
        assert np.linalg.norm(out - state) <= 1e-10

    def test_gapped_expectation_value(self, setup):
        u, eps, refl = setup
        j = 4
        p_single = refl.block_leakage()[j]
        state = lift(unit_vector(8, j), refl.n_ancilla)
        out = apply_batch(refl.a, state, refl.a.num_qubits)
        val = complex(np.vdot(state, out))
        p_total = p_single ** refl.params.q
        assert val == pytest.approx(-1 + 2 * p_total, abs=1e-10)
        assert p_total <= eps ** 2 / 4

    def test_shared_verification_harness(self, setup):
        u, eps, refl = setup
        # every eigenvector, simulated densely, against the harness the
        # LCU route shares
        misses = dense_misses(refl, u.eigenbasis)
        assert misses.max() <= 10 * eps
        assert misses.max() == pytest.approx(worst_case(refl)[0], rel=0,
                                             abs=1e-13)

    def test_query_ledger(self, setup):
        u, eps, refl = setup
        m_dim = 1 << refl.params.n_prime
        assert refl.ledger.queries_u == 2 * refl.params.q * (m_dim - 1)


def _reflector_with_spec(u, params, spec):
    """The PEA reflector of ``params`` with every register's inverse QFT
    built from ``spec``."""
    w = build_W_pea(u, params, spec)
    a = build_A_pea(w, params.total_ancilla)
    return PeaReflector(w=w, a=a, params=params, qft_spec=spec,
                        n_ancilla=params.total_ancilla, unitary=u,
                        ledger=a.footprint)


class TestBlockLeakage:
    """<0|block|0> meets the inverse QFT only through F|0>, which no
    controlled phase changes: the leakage is the same, bit for bit, at every
    truncation."""

    @pytest.mark.parametrize("u", [synth_unitary(8, 0.5, seed=7),
                                   gap_edge_unitary()],
                             ids=["seed7", "gap_edge"])
    def test_independent_of_truncation(self, u):
        params = choose_pea_params(1e-2, u.gap)
        n_prime = params.n_prime
        exact = _reflector_with_spec(u, params, QftSpec.exact_for(n_prime))
        want = exact.block_leakage()
        for b in range(1, n_prime + 1):
            refl = _reflector_with_spec(u, params, QftSpec(n_prime, b))
            assert np.array_equal(refl.block_leakage(), want), b

    def test_independent_of_budget_truncation_past_dense_width(self):
        # n' = 11: the inverse QFT is simulated gate by gate, and the
        # budget drops its phases below cutoff 10
        u = synth_unitary(2, 0.006, seed=7)
        refl = build_pea_reflector(u, 0.2)
        assert refl.params.n_prime == 11 and not refl.qft_spec.exact
        exact = build_pea_reflector(u, 0.2, exact_qft=True)
        assert np.array_equal(refl.block_leakage(), exact.block_leakage())

    def test_column_simulated_once(self, setup, monkeypatch):
        u, eps, _ = setup
        refl = build_pea_reflector(u, eps)
        first = refl.eigen_errors()
        monkeypatch.setattr("reflectsim.pea_reflector.eigen_profile",
                            lambda *args: pytest.fail("resimulated"))
        assert np.array_equal(refl.eigen_errors(), first)
        assert refl.block_leakage().shape == (8,)
