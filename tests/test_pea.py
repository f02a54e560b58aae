"""Phase-estimation baseline: parameters, blocks, and the W' R W operator."""
from fractions import Fraction
import math

import numpy as np
import pytest

from oracles import (
    dense_layers,
    dense_misses,
    gap_edge_unitary,
    haar_basis,
    leakage_amplitude_bound,
    lift,
    pea_zero_amplitude,
    unit_vector,
)
import reflectsim.core_sim as core_sim
from reflectsim.cli import reflect_report
from reflectsim.core_sim import (
    adjoint,
    apply_batch,
    op_matrix,
    unitarity_defect,
)
from reflectsim.lcu_reflector import eigen_profile, worst_case
from reflectsim.pea_reflector import (
    PeaParams,
    PeaReflector,
    build_A_pea,
    build_pea_reflector,
    build_W_pea,
    choose_pea_params,
    fejer,
    pea_block,
    pea_budget,
)
from reflectsim.spectral_models import EigenUnitary, synth_unitary
from reflectsim.state_prep import QftSpec


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

    def test_register_capped_where_fejer_is_finite(self):
        # sin(delta/2) = 2^-1019 gives n' = 1021, the widest register whose
        # 2^n' lambda stays finite for every lambda < 2 pi; the next gap
        # down would give n' = 1022, where it overflows
        delta = 2.0 ** -1018
        p = choose_pea_params(0.1, delta)
        assert p.n_prime == 1021
        lambdas = np.array([0.0, delta, math.pi, 2 * math.pi - delta])
        with np.errstate(over="raise"):
            x = fejer(lambdas, p.n_prime)
        assert np.isfinite(x).all() and x[0] == 1.0
        with pytest.raises(ValueError, match="too small"):
            choose_pea_params(0.1, math.nextafter(delta, 0))


def _least_q(eps: float) -> int:
    """The least q >= 1 with 2 (1/4)^q <= eps, in exact rational
    arithmetic, searched from a float estimate in both directions."""
    def holds(q):
        return Fraction(2, 4 ** q) <= Fraction(eps)
    q = max(1, round(-math.log2(eps) / 2))
    while q > 1 and holds(q - 1):
        q -= 1
    while not holds(q):
        q += 1
    return q


def _dyadic_and_neighbours():
    """Every power of two in (0, 1/5], from 2^-3 down to the smallest
    subnormal, each with its positive float neighbours."""
    for k in range(3, 1075):
        eps = math.ldexp(1.0, -k)
        yield from (math.nextafter(eps, 0), eps, math.nextafter(eps, 1))


class TestRepetitionCount:
    """q is the least integer with 2 (1/4)^q <= eps, at every float eps."""

    def test_exact_on_dyadic_and_adjacent_eps(self):
        for eps in filter(None, _dyadic_and_neighbours()):
            assert choose_pea_params(eps, 0.5).q == _least_q(eps), eps

    @pytest.mark.parametrize("eps,q", [(0.12499999999999999, 3),
                                       (1e-160, 267), (1e-300, 499),
                                       (5e-324, 538)])
    def test_exact_where_the_log_formula_fails(self, eps, q):
        # ceil(log16(4 / eps^2)) is 2 at 0.125 - 2^-56; 4 / eps^2 overflows
        # below about 1.5e-154 and divides by zero below about 1e-162
        assert choose_pea_params(eps, 0.5).q == _least_q(eps) == q

    def test_unchanged_at_the_eps_in_use(self):
        # the eps of the golden reports, the suite and the benchmark, with
        # the q of ceil(log16(4 / eps^2)), which is right at each of them
        want = {1e-1: 3, 0.2: 2, 1e-2: 4, 1e-3: 6, 1e-4: 8, 1e-8: 14,
                1e-12: 21}
        for eps, q in want.items():
            assert choose_pea_params(eps, 0.5).q == _least_q(eps) == q


class TestPeaBlock:
    def test_zero_phase_exact_return(self):
        # eigenvector j is e_j in U's eigenbasis, where the block acts
        u = EigenUnitary(2, [0.0, 1.2], gap=1.2)
        block = pea_block(u, 4, QftSpec.exact_for(4))
        state = lift(unit_vector(2, 0), 4)
        out = apply_batch(block, state, 5)
        assert np.abs(out - state).max() < 1e-12

    def test_representable_phase_lands_on_basis_state(self):
        n_prime = 4
        m_dim = 1 << n_prime
        k = 5
        lam = 2 * math.pi * k / m_dim
        u = EigenUnitary(2, [0.0, lam], gap=lam)
        block = pea_block(u, n_prime, QftSpec.exact_for(n_prime))
        state = lift(unit_vector(2, 1), n_prime)
        out = apply_batch(block, state, n_prime + 1)
        hit = (k << 1) | 1  # ancilla k, system 1
        assert abs(out[hit, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_generic_phase_leakage_below_bound(self):
        u = synth_unitary(8, 0.5, seed=7)
        n_prime = build_pea_reflector(u, 1e-2).params.n_prime
        leak = fejer(u.eigenphases, n_prime)
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
        single = fejer(u.eigenphases, block_refl.params.n_prime)[j]
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
        p_single = fejer(u.eigenphases, refl.params.n_prime)[j]
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
        basis = haar_basis(8, 7)  # the eigenbasis of setup's instance
        misses = dense_misses(refl, basis, basis)
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
    return PeaReflector(w=w, a=a, params=params, qft_spec=spec, unitary=u)


def _simulated_leakage(refl) -> np.ndarray:
    """|<0|block|0>|^2 on every eigenvector, read off the simulated column
    of the reflector's first block."""
    (_, block, _), *_ = refl.layers
    return np.abs(eigen_profile(block, refl.params.n_prime)[0]) ** 2


class TestBlockLeakage:
    """<0|block|0> meets the inverse QFT only through F|0>, which no
    controlled phase changes: the simulated leakage is the same, bit for
    bit, at every truncation. That is what the closed form ``fejer`` rests
    on, and the simulated column must match it."""

    @pytest.mark.parametrize("u", [synth_unitary(8, 0.5, seed=7),
                                   gap_edge_unitary()],
                             ids=["seed7", "gap_edge"])
    def test_independent_of_truncation(self, u):
        params = choose_pea_params(1e-2, u.gap)
        n_prime = params.n_prime
        exact = _reflector_with_spec(u, params, QftSpec.exact_for(n_prime))
        want = _simulated_leakage(exact)
        for b in range(1, n_prime + 1):
            refl = _reflector_with_spec(u, params, QftSpec(n_prime, b))
            assert np.array_equal(_simulated_leakage(refl), want), b
        assert np.abs(fejer(u.eigenphases, n_prime) - want).max() <= 1e-14

    def test_independent_of_budget_truncation_past_dense_width(self):
        # n' = 11: the inverse QFT is simulated layer by layer, not as a
        # dense matrix, and the budget drops its phases below cutoff 10
        u = synth_unitary(2, 0.006, seed=7)
        refl = build_pea_reflector(u, 0.2)
        assert refl.params.n_prime == 11 and not refl.qft_spec.exact
        exact = build_pea_reflector(u, 0.2, exact_qft=True)
        want = _simulated_leakage(exact)
        assert np.array_equal(_simulated_leakage(refl), want)
        # the layered column returns 1 - 1.6e-15 on the target
        assert np.abs(fejer(u.eigenphases, refl.params.n_prime)
                      - want).max() <= 1e-14


def _gap_region_grid(gap: float) -> np.ndarray:
    """Both gap edges, 64 points across the gap region, and points from
    1e-12 to 1e-3 inside the upper edge 2 pi - gap."""
    edge = 2 * math.pi - gap
    return np.concatenate([[gap, edge], np.linspace(gap, edge, 64),
                           edge - np.logspace(-12, -3, 28)])


class TestFejer:
    """The closed-form leakage of one register against the phase sum
    2^-n' sum_a e^{i a lambda}, and against a 50-digit reference."""

    @pytest.mark.parametrize("n_prime,gap", [(1, 0.5), (5, 0.5), (5, 0.02),
                                             (11, 0.006), (11, 0.5)])
    def test_matches_phase_sum(self, n_prime, gap):
        lams = _gap_region_grid(gap)
        want = [abs(pea_zero_amplitude(lam, n_prime)) ** 2 for lam in lams]
        # the phase sum rounds a lambda at the size of 2^n' lambda
        tol = 2e-15 + (1 << n_prime) * 1e-18
        assert np.abs(fejer(lams, n_prime) - want).max() <= tol

    @pytest.mark.parametrize("n_prime", (1, 5, 11))
    def test_relative_to_high_precision(self, n_prime):
        # N lambda/2 is exact and np.sin reduces it exactly, so x keeps its
        # relative accuracy even near the kernel's zeros and at 2 pi - gap
        mpmath = pytest.importorskip("mpmath")
        lams = _gap_region_grid(0.006)
        with mpmath.workdps(50):
            big_n = 2 ** n_prime
            want = np.array([float((mpmath.sin(big_n * mpmath.mpf(lam) / 2)
                                    / (big_n * mpmath.sin(mpmath.mpf(lam) / 2)))
                                   ** 2) for lam in lams])
        got = fejer(lams, n_prime)
        assert np.abs(got - want).max() <= 1e-15 * want.max()
        assert (np.abs(got - want) / want).max() <= 4e-15

    def test_target_is_fixed_exactly(self):
        assert fejer(np.array([0.0, 0.5]), 5)[0] == 1.0
        refl = build_pea_reflector(synth_unitary(8, 0.5, seed=7), 1e-2)
        a0, rest = refl.a_column(np.array([0.0]))
        assert (a0[0], rest[0]) == (1.0, 0.0)


class TestNoDenseWorkAtBuild:
    """Building a PEA reflector, or its report, makes no dense matrix, at
    n' = 5 (gap 0.5) and at n' = 10 (gap 1e-2)."""

    @pytest.fixture
    def dense_calls(self, monkeypatch):
        calls = {"op_matrix": 0, "DenseOp": 0}
        op_matrix_ = core_sim.op_matrix
        dense_init = core_sim.DenseOp.__init__

        def counted_op_matrix(op):
            calls["op_matrix"] += 1
            return op_matrix_(op)

        def counted_init(self, *args, **kwargs):
            calls["DenseOp"] += 1
            dense_init(self, *args, **kwargs)

        monkeypatch.setattr(core_sim, "op_matrix", counted_op_matrix)
        monkeypatch.setattr(core_sim.DenseOp, "__init__", counted_init)
        return calls

    @pytest.mark.parametrize("exact_qft", [False, True])
    @pytest.mark.parametrize("dim,gap,n_prime",
                             [(2, 0.5, 5), (4, 0.5, 5), (8, 0.5, 5),
                              (8, 1e-2, 10)],
                             ids=["2", "4", "8", "8-gap0.01"])
    def test_report_builds_no_matrix(self, dense_calls, dim, gap, n_prime,
                                     exact_qft):
        report = reflect_report("pea", dim, gap, 1e-2, 3, exact_qft=exact_qft)
        assert report["passed"]
        assert report["params"]["n_prime"] == n_prime
        assert dense_calls == {"op_matrix": 0, "DenseOp": 0}


class TestAdjointSharesBlocks:
    def test_one_inverse_per_distinct_block(self):
        refl = build_pea_reflector(synth_unitary(2, 1.0, 4), 0.2)
        w, w_inv = refl.w, refl.a.steps[2][0]
        assert refl.params.q == len(w.steps) == len(w_inv.steps) == 2
        (_, block, _), *_ = refl.layers
        assert all(op is block for op, _ in w.steps)
        inverse = w_inv.steps[0][0]
        assert all(op is inverse for op, _ in w_inv.steps)
        assert inverse is not block

    def test_inverse_matrix_is_conjugate_transpose(self):
        refl = build_pea_reflector(synth_unitary(2, 1.0, 4), 0.2)
        w_mat = op_matrix(refl.w)
        diff = op_matrix(adjoint(refl.w)) - w_mat.conj().T
        assert np.abs(diff).max() <= 1e-14


class TestDenseLayers:
    """The test-side dense rebuild is the production operator."""

    def test_same_operator_and_footprint(self):
        refl = build_pea_reflector(synth_unitary(2, 1.0, 4), 0.2)
        dense = dense_layers(refl)
        assert dense.a.footprint == refl.a.footprint
        diff = op_matrix(dense.a) - op_matrix(refl.a)
        assert np.abs(diff).max() <= 1e-14
