"""The eigenbasis simulation against first-principles oracles, and the
allocation footprint it buys.

Every operator tree acts on the system register in U's eigenbasis V, so a
system block must equal V^H M V for the computational-basis operator M of
the paper.
"""
import tracemalloc

import numpy as np
import pytest

from oracles import in_eigenbasis, pea_zero_amplitude
from reflectsim.core_sim import RegisterLayout, apply_batch
from reflectsim.gaussian_kernel import select_params
from reflectsim.lcu_reflector import (
    ancilla_zero_block,
    apply_lifted,
    build_reflector,
    build_select,
    build_W,
)
from reflectsim.pea_reflector import build_pea_reflector, pea_block
from reflectsim.spectral_models import synth_unitary
from reflectsim.state_prep import QftSpec, build_B

DIMS = (2, 8, 64)
TOL = 1e-12


@pytest.fixture(scope="module", params=DIMS)
def lcu_parts(request):
    params = select_params(0.2, 1.5)
    unitary = synth_unitary(request.param, 1.5, seed=request.param)
    b = build_B(params, QftSpec.for_budget(params.m, 0.05))
    sel = build_select(params, unitary)
    return params, unitary, b, sel


class TestLcuAgreement:
    def test_select_blocks_are_signed_powers(self, lcu_parts):
        params, unitary, _, sel = lcu_parts
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
            want = in_eigenbasis(unitary.eigenbasis,
                                 sign * unitary.power_matrix(power))
            assert np.abs(block - want).max() <= TOL

    def test_w_zero_block_is_scaled_lcu_sum(self, lcu_parts):
        params, unitary, b, sel = lcu_parts
        w = build_W(b, sel)
        block = ancilla_zero_block(
            w, RegisterLayout(b.n, unitary.system_qubits))
        want = -np.eye(unitary.dimension, dtype=complex)
        for i in range(2 * params.L):
            want += b.beta_magnitudes[i] * unitary.power_matrix(i - params.L)
        want = in_eigenbasis(unitary.eigenbasis, want / b.s)
        assert np.abs(block - want).max() <= TOL


class TestPeaAgreement:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("spec", [QftSpec.exact_for(5),
                                      QftSpec(m=5, cutoff_b=2, exact=False)],
                             ids=["exact", "truncated"])
    def test_zero_amplitude_matches_phase_sum(self, dim, spec):
        unitary = synth_unitary(dim, 0.5, seed=dim + 1)
        block = pea_block(unitary, 5, spec)
        got = apply_lifted(block, 5, np.eye(dim))[:dim]
        want = np.diag([pea_zero_amplitude(lam, 5)
                        for lam in unitary.eigenphases])
        assert np.abs(got - want).max() <= TOL


def _traced_peak_mib(build) -> float:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestAllocation:
    """No D x D power matrix and no 2^n diagonal for R: what a build
    allocates is the select diagonal and the ancilla-local layers."""

    def test_lcu_build_at_d1024(self):
        unitary = synth_unitary(1024, 0.5, 1)
        assert _traced_peak_mib(lambda: build_reflector(unitary, 1e-2)) <= 64

    def test_pea_build_at_d8(self):
        unitary = synth_unitary(8, 0.5, 7)
        assert _traced_peak_mib(lambda: build_pea_reflector(unitary, 1e-2)) <= 4
