"""Gate-level oracle at the acceptance cells' gaps.

Verification reads closed forms: ``a_column``/``miss`` for the LCU route
and ``fejer`` for a PEA block. Here the circuits themselves are simulated
at every acceptance cell, including gaps 0.1 and 0.02 where L reaches 4096:
select, W, R and both OAA rounds, and one PEA block. A reflector depends on
its instance only through the gap and the eigenphases, so one D = 8
instance puts both gap edges, a point near pi and four seeded draws under
the production reflector of each cell; ``eigen_profile`` simulates the
2^(n + 3) amplitudes of all eight eigenvectors at once. The whole PEA
operator A = W' R W is simulated on a D = 2 instance, the target and one
gap edge, at the cells where its q n' + 1 qubits number at most 22.

Tolerances are about twice the worst agreement measured over the nine cells:
1.9e-15 in <0|A|0>, 6.1e-15 in the norm of the rest of A|0>, 6.0e-15 in
the miss and 1.3e-15 in a block's leakage; for the PEA A over its three
cells, 3.2e-15 in <0|A|0> and 7.5e-17 in the norm of the rest.
"""
import itertools
import math

import numpy as np
import pytest

from reflectsim.lcu_reflector import build_reflector, eigen_profile, miss
from reflectsim.pea_reflector import build_pea_reflector, fejer
from reflectsim.spectral_models import EigenUnitary
from reflectsim.suite import DELTA_GRID, EPS_GRID

A0_TOL = 4e-15
REST_TOL = 1.2e-14
MISS_TOL = 1.2e-14
LEAKAGE_TOL = 3e-15
PEA_A0_TOL = 6.4e-15
PEA_REST_TOL = 1.5e-16
# the acceptance cells (eps, gap)
CELLS = tuple(itertools.product(EPS_GRID, DELTA_GRID))


def _instance(gap: float) -> EigenUnitary:
    """Target, both gap edges, pi + 1e-3 and four seeded draws."""
    draws = np.random.default_rng(1).uniform(gap, 2 * math.pi - gap, 4)
    phases = np.concatenate([[0.0, gap, 2 * math.pi - gap, math.pi + 1e-3],
                             draws])
    return EigenUnitary(8, phases, gap)


@pytest.mark.parametrize("eps,gap", CELLS)
def test_lcu_circuit_matches_closed_form(eps, gap):
    unitary = _instance(gap)
    phases = unitary.eigenphases
    refl = build_reflector(unitary, eps)
    profile = eigen_profile(refl.a, refl.n_ancilla)
    a0, rest = refl.a_column(phases)
    rest_norm = np.linalg.norm(profile[1:], axis=0)
    assert np.abs(profile[0] - a0).max() <= A0_TOL
    # a_column gives <perp|A|0> with its sign; the simulation its norm
    assert np.abs(rest_norm - np.abs(rest)).max() <= REST_TOL
    r = np.where(phases == 0, 1.0, -1.0)
    simulated_miss = np.sqrt(np.abs(profile[0] - r) ** 2 + rest_norm ** 2)
    assert np.abs(simulated_miss - miss(refl, phases)).max() <= MISS_TOL


@pytest.mark.parametrize("eps,gap", CELLS)
def test_pea_block_matches_fejer(eps, gap):
    unitary = _instance(gap)
    refl = build_pea_reflector(unitary, eps)
    (_, block, _), *_ = refl.layers
    profile = eigen_profile(block, refl.params.n_prime)
    leakage = np.abs(profile[0]) ** 2
    want = fejer(unitary.eigenphases, refl.params.n_prime)
    assert np.abs(leakage - want).max() <= LEAKAGE_TOL


# 16, 21 and 22 qubits
@pytest.mark.parametrize("eps,gap", [(0.1, 0.5), (0.01, 0.5), (0.1, 0.1)])
def test_pea_circuit_matches_closed_form(eps, gap):
    unitary = EigenUnitary(2, [0.0, gap], gap)
    refl = build_pea_reflector(unitary, eps)
    profile = eigen_profile(refl.a, refl.n_ancilla)
    a0, rest = refl.a_column(unitary.eigenphases)
    rest_norm = np.linalg.norm(profile[1:], axis=0)
    assert np.abs(profile[0] - a0).max() <= PEA_A0_TOL
    assert np.abs(rest_norm - rest).max() <= PEA_REST_TOL
