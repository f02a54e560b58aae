"""Phase-estimation baseline reflector: q parallel PEA registers, inverse
(optionally truncated) QFTs, the multiply-controlled ancilla reflection and
A = W' R W.

Blocks are applied sequentially to a shared system register, in U's
eigenbasis. On an eigenvector the q registers stay a product state until R,
so verification simulates one block on n' + s qubits, never the
2^(q n' + s) register of A.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .core_sim import (
    CircuitOp,
    EigenPowersOp,
    ResourceFootprint,
    SequenceOp,
    adjoint,
    densify,
    hadamard,
)
from .lcu_reflector import ancilla_reflection, eigen_profile
from .spectral_models import EigenUnitary
from .state_prep import QftSpec, qft

# "constant precision" per-QFT truncation; correctness is insensitive to it
# because the all-zero ancilla amplitude is unchanged by dropped phases
DEFAULT_PEA_QFT_EPS = 0.05


@dataclass(frozen=True)
class PeaParams:
    """Register width n' and repetition count q for target (eps, delta)."""

    n_prime: int
    q: int
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.n_prime < 1 or self.q < 1:
            raise ValueError("n_prime and q must be >= 1")

    @property
    def total_ancilla(self) -> int:
        return self.n_prime * self.q


def choose_pea_params(epsilon: float, delta: float) -> PeaParams:
    """n' = ceil(log2(4 / sin(delta/2))) caps the per-register ancilla-zero
    amplitude at 1/4 on the gapped region; q = ceil(log16(4/eps^2)) then
    forces 2 (1/4)^q <= eps."""
    if not 0 < epsilon <= 0.2:
        raise ValueError("epsilon must lie in (0, 1/5]")
    if not 0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    n_prime = math.ceil(math.log2(4 / math.sin(delta / 2)))
    q = math.ceil(math.log(4 / epsilon ** 2) / math.log(16))
    return PeaParams(n_prime=max(1, n_prime), q=max(1, q),
                     epsilon=epsilon, delta=delta)


def pea_budget(eps: float, gap: float,
               exact_qft: bool = False) -> tuple[PeaParams, QftSpec]:
    """n' and q from ``choose_pea_params``, and each register's inverse QFT,
    exact or truncated at the constant ``DEFAULT_PEA_QFT_EPS``."""
    params = choose_pea_params(eps, gap)
    if exact_qft:
        return params, QftSpec.exact_for(params.n_prime)
    return params, QftSpec.for_budget(params.n_prime, DEFAULT_PEA_QFT_EPS)


def pea_block(unitary: EigenUnitary, n_prime: int,
              qft_spec: QftSpec) -> CircuitOp:
    """One phase-estimation register: Hadamards, the controlled U^(2^j)
    ladder, then the inverse QFT.

    In U's eigenbasis the ladder is one ``EigenPowersOp``, exp(i a lambda_j)
    on ancilla value a and eigenvector j, charging the 2^n' - 1 queries of
    its legs. The ancilla-local layers (the Hadamard wall and the inverse QFT)
    are collapsed to dense matrices when narrow enough; this changes nothing
    semantically, halves the cost of verifying a block, and keeps the dense
    whole-register reference simulation affordable.
    """
    if qft_spec.m != n_prime:
        raise ValueError("QFT width must equal n_prime")
    total = n_prime + unitary.system_qubits
    anc = tuple(range(n_prime))
    h_wall = SequenceOp(n_prime, [(hadamard(), (q,)) for q in range(n_prime)])
    iqft = adjoint(qft(qft_spec))
    if n_prime <= 10:
        h_wall = densify(h_wall)
        iqft = densify(iqft)
    ladder = EigenPowersOp(
        np.arange(1 << n_prime), np.ones(1 << n_prime), unitary.eigenphases,
        ResourceFootprint(queries_u=((1 << n_prime) - 1) * unitary.step_cost))
    return SequenceOp(total, [(h_wall, anc), (ladder, tuple(range(total))),
                              (iqft, anc)])


def build_W_pea(unitary: EigenUnitary, params: PeaParams,
                qft_spec: QftSpec) -> CircuitOp:
    """q blocks on disjoint ancilla registers sharing the system."""
    sys_q = unitary.system_qubits
    n_total = params.total_ancilla
    total = n_total + sys_q
    block = pea_block(unitary, params.n_prime, qft_spec)
    sys_targets = tuple(range(n_total, total))
    steps = []
    for i in range(params.q):
        anc = tuple(range(i * params.n_prime, (i + 1) * params.n_prime))
        steps.append((block, anc + sys_targets))
    return SequenceOp(total, steps)


def build_A_pea(w: CircuitOp, n_total_ancilla: int) -> CircuitOp:
    """A = W' R W with R the multiply-controlled ancilla reflection."""
    total = w.num_qubits
    r = ancilla_reflection(n_total_ancilla)
    anc = tuple(range(n_total_ancilla))
    every = tuple(range(total))
    return SequenceOp(total, [(w, every), (r, anc), (adjoint(w), every)])


@dataclass(frozen=True)
class PeaReflector:
    """Assembled PEA reflector; shares the verification harness with the
    LCU route through ``eigen_errors``."""

    w: CircuitOp
    a: CircuitOp
    params: PeaParams
    qft_spec: QftSpec
    n_ancilla: int
    system_qubits: int
    ledger: ResourceFootprint

    def eigen_errors(self) -> np.ndarray:
        """e_j = ||A(lambda_j)|0> - r_j|0>|| for every eigenvector j, with
        r = (1, -1, ..., -1), from one column of one block.

        Every register runs the same block, so W|0>|e_j> = phi^(x q) with
        phi = block|0>. R makes that 2 phi_0^q |0> - phi^(x q) and W'W = 1,
        so A|0>|e_j> = 2 phi_0^q chi^(x q) - |0> with chi = block'|0>.
        The block is unitary, so chi_0 = conj(phi_0) and ||chi|| = ||phi||:
        with x = |phi_0|^2 and y = ||phi||^2 - x, the all-zero amplitude is
        2 x^q - 1, and the rest of chi^(x q) has squared norm
        (x + y)^q - x^q = sum_k C(q, k) x^(q-k) y^k, a sum of non-negative
        terms (as 1 - x^q it would leave e_0 ~ 2e-8 of roundoff).
        Subtracting r_j|0> doubles the -1 on the target (r_0 = 1) and
        cancels it elsewhere (r_j = -1).
        """
        block, _ = self.w.steps[0]
        n_prime, q = self.params.n_prime, self.params.q
        phi = eigen_profile(block, n_prime)
        x = np.abs(phi[0]) ** 2
        y = np.sum(np.abs(phi[1:]) ** 2, axis=0)
        zero = 2 * x ** q
        zero[0] -= 2.0
        rest = sum(math.comb(q, k) * x ** (q - k) * y ** k
                   for k in range(1, q + 1))
        return np.sqrt(zero ** 2 + 4 * x ** q * rest)


def build_pea_reflector(unitary: EigenUnitary, eps: float, *,
                        exact_qft: bool = False) -> PeaReflector:
    params, spec = pea_budget(eps, unitary.gap, exact_qft)
    w = build_W_pea(unitary, params, spec)
    a = build_A_pea(w, params.total_ancilla)
    return PeaReflector(w=w, a=a, params=params, qft_spec=spec,
                        n_ancilla=params.total_ancilla,
                        system_qubits=unitary.system_qubits,
                        ledger=a.footprint)


def block_leakage(unitary: EigenUnitary, n_prime: int,
                  qft_spec: QftSpec) -> np.ndarray:
    """|p_j| = squared ancilla-|0> amplitude of one block on eigenvector j,
    for every j at once."""
    block = pea_block(unitary, n_prime, qft_spec)
    return np.abs(eigen_profile(block, n_prime)[0]) ** 2


def leakage_amplitude_bound(n_prime: int, delta: float) -> float:
    """Geometric-series bound 1 / (2^n' sin(delta/2)) on the per-register
    ancilla-zero amplitude over the gapped region."""
    return 1 / ((1 << n_prime) * math.sin(delta / 2))
