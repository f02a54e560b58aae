"""Phase-estimation baseline reflector: q parallel PEA registers, inverse
(optionally truncated) QFTs, the multiply-controlled ancilla reflection and
A = W' R W.

Blocks are applied sequentially to a shared system register, in U's
eigenbasis. On an eigenvector the q registers stay a product state until R,
and each register's all-zero amplitude is the Fejer kernel of lambda, so
verification is a closed form in the eigenphases and simulates nothing.
Building the operator tree makes no dense matrix either: every layer of a
block is applied gate by gate (the Hadamard wall) or layer by layer (the
inverse QFT), at every n'.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
import math
import sys

import numpy as np

from .core_sim import (
    HADAMARD,
    CircuitOp,
    EigenPowersOp,
    ResourceFootprint,
    SequenceOp,
    adjoint,
    require_memory,
)
from .lcu_reflector import ancilla_reflection
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
    amplitude at 1/4 on the gapped region; q, the least integer with
    2 (1/4)^q <= eps (16^q eps^2 >= 4), then bounds the miss by eps.

    q is exact and never forms eps^2, which underflows below about 1e-154:
    with eps = m 2^e, 1/2 <= m < 1, it needs the integer 2q - 1 + e to be
    at least log2(1/m), which lies in (0, 1], so 2q >= 2 - e."""
    if not 0 < epsilon <= 0.2:
        raise ValueError("epsilon must lie in (0, 1/5]")
    if not 0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    # 2^n' must be a finite float: 4 / sin(delta/2) at most 2^(max_exp - 1)
    if math.sin(delta / 2) < 2.0 ** (3 - sys.float_info.max_exp):
        raise ValueError(f"gap {delta!r} is too small: the phase-estimation "
                         "register 2^n' cannot be represented")
    n_prime = math.ceil(math.log2(4 / math.sin(delta / 2)))
    q = (3 - math.frexp(epsilon)[1]) // 2
    return PeaParams(n_prime=max(1, n_prime), q=q, epsilon=epsilon,
                     delta=delta)


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
    its legs. The Hadamard wall is a sequence of the shared ``HADAMARD``
    and the inverse QFT one layered ``QftOp``, at every n', so building
    computes no matrix: verification reads only the eigenphases.
    """
    if qft_spec.m != n_prime:
        raise ValueError("QFT width must equal n_prime")
    total = n_prime + unitary.system_qubits
    # the ladder holds 2^n' powers
    require_memory(n_prime)
    anc = tuple(range(n_prime))
    h_wall = SequenceOp(n_prime, [(HADAMARD, (q,)) for q in range(n_prime)])
    iqft = adjoint(qft(qft_spec))
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
    """A = W' R W with R the multiply-controlled ancilla reflection. W holds
    q copies of one block, so W' holds q copies of one inverse block."""
    total = w.num_qubits
    r = ancilla_reflection(n_total_ancilla)
    anc = tuple(range(n_total_ancilla))
    every = tuple(range(total))
    return SequenceOp(total, [(w, every), (r, anc), (adjoint(w), every)])


def fejer(lambdas: np.ndarray, n_prime: int) -> np.ndarray:
    """|<0|block(lambda)|0>|^2 = sin^2(N lambda/2) / (N sin(lambda/2))^2,
    N = 2^n', the Fejer kernel, at each eigenphase; 1 at lambda = 0.

    The inverse QFT meets <0| as <0|H^(x n'), the uniform bra, at every
    truncation: no controlled phase of the QFT fires on |0...0>. N lambda/2
    is exact, and ``np.sin`` reduces it exactly, so angles are not moved
    below pi first (that would round lambda - 2 pi)."""
    lambdas = np.asarray(lambdas, dtype=float)
    n = float(1 << n_prime)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (np.sin(n * lambdas / 2) / (n * np.sin(lambdas / 2))) ** 2
    return np.where(lambdas == 0, 1.0, x)


@dataclass(frozen=True)
class PeaReflector:
    """Assembled PEA reflector on ``unitary``, the instance it was built on;
    ``miss`` reads its ``a_column``, as it does the LCU reflector's."""

    w: CircuitOp
    a: CircuitOp
    params: PeaParams
    qft_spec: QftSpec
    unitary: EigenUnitary

    @property
    def ledger(self) -> ResourceFootprint:
        return self.a.footprint

    @property
    def n_ancilla(self) -> int:
        return self.params.total_ancilla

    @property
    def system_qubits(self) -> int:
        return self.unitary.system_qubits

    @property
    def layers(self) -> tuple:
        """(name, op, targets) of each layer on the whole register."""
        every = tuple(range(self.a.num_qubits))
        (block, targets), (r, anc) = self.w.steps[0], self.a.steps[1]
        return (("block", block, targets), ("W", self.w, every),
                ("R", r, anc), ("A", self.a, every))

    def entries(self) -> tuple[dict, dict]:
        """The route's report entries (head, ledger)."""
        return ({"params": asdict(self.params), "n_ancilla": self.n_ancilla},
                self.ledger.as_dict())

    def a_column(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A(lambda)|0> as (<0|A|0>, norm of the rest) at each eigenphase.

        Every register runs the same block, phi = block|0>, so W|0> is
        phi^(x q) and A|0> = W' R W|0> = 2 phi_0^q W'|0> - |0>: its all-zero
        amplitude is 2 x^q - 1, x = |phi_0|^2 (``fejer``): a unit vector."""
        xq = fejer(lambdas, self.params.n_prime) ** self.params.q
        return 2 * xq - 1, 2 * np.sqrt(xq * (1 - xq))


def build_pea_reflector(unitary: EigenUnitary, eps: float, *,
                        exact_qft: bool = False) -> PeaReflector:
    """The PEA reflector for ``unitary`` at ``eps``. A dimension that is
    not a power of two is refused first, as ``build_reflector`` does."""
    unitary.system_qubits
    params, spec = pea_budget(eps, unitary.gap, exact_qft)
    w = build_W_pea(unitary, params, spec)
    a = build_A_pea(w, params.total_ancilla)
    return PeaReflector(w=w, a=a, params=params, qft_spec=spec,
                        unitary=unitary)
