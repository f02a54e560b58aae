"""select(U-bar), W, the ancilla reflection R and the two-round OAA operator A.

The ancilla register is n = m + 2 qubits: a two-qubit header followed by m
data qubits. select applies U^(l - L) when the header is |00> (l the data
value), and the header-conditioned signs via Z on the second header qubit.
A = W R W' R W R W' R W amplifies the ancilla-|0> block of W into the
approximate reflection. Every operator acts on the system register in U's
eigenbasis (see ``spectral_models``), where select is one
``EigenPowersOp``. On eigenvector j the ancilla |0> stays in
span{|0>, W(lambda_j)|0>}, so A(lambda_j)|0> follows from the scalar
w_j = <0|W(lambda_j)|0> alone: verification simulates nothing.
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
    ZeroReflectionOp,
    adjoint,
    apply_batch,
    require_memory,
)
from .gaussian_kernel import DEFAULT_C, KernelParams, select_params, trig_poly
from .spectral_models import EigenUnitary
from .state_prep import OAA_ANGLE, BOperator, QftSpec, build_B

DEFAULT_KERNEL_FRACTION = 0.5


def mcx_two_qubit_cost(num_controls: int) -> int:
    """Linear decomposition model for a multiply-controlled X with one
    helper qubit: 6 two-qubit gates per control beyond the first."""
    if num_controls <= 0:
        return 0
    if num_controls == 1:
        return 1
    return 6 * (num_controls - 1)


@dataclass(frozen=True)
class SelectU:
    """Controlled dispatch of the LCU unitaries.

    The footprint charges the raw cascade (the U^-L leg plus the binary
    cascade, 3L - 1 queries); ``queries_max_power`` reports the max-power
    counting convention of L queries per application used by the
    complexity comparison.
    """

    n: int
    L: int
    unitary: EigenUnitary
    op: CircuitOp
    queries_max_power: int

    @property
    def footprint(self) -> ResourceFootprint:
        return self.op.footprint


def build_select(params: KernelParams, unitary: EigenUnitary) -> SelectU:
    """select(U-bar) on (m + 2) ancilla plus system qubits, as one
    ``EigenPowersOp`` in U's eigenbasis.

    Header |00> with data l gives exp(i lambda_j (l - L)) on eigenvector j;
    headers |01>, |10>, |11> give the signs -1/+1/-1 of Z on the second
    header qubit. The footprint is that of the gate cascade: the Z, then,
    conditioned on header |00>, U^-L and a controlled U^(2^i) leg per data
    bit, 3L - 1 queries in all.
    """
    m, L = params.m, params.L
    powers = np.zeros((4, 2 * L), dtype=np.int64)
    powers[0] = np.arange(-L, L)
    signs = np.repeat([1.0, -1.0, 1.0, -1.0], 2 * L)
    cost = ResourceFootprint(queries_u=(3 * L - 1) * unitary.step_cost,
                             one_qubit_gates=1)
    op = EigenPowersOp(powers.reshape(-1), signs, unitary.eigenphases, cost)
    return SelectU(n=m + 2, L=L, unitary=unitary, op=op,
                   queries_max_power=L * unitary.step_cost)


def ancilla_reflection(n: int) -> CircuitOp:
    """R = 2|0><0| - 1 on n qubits, applied without a 2^n diagonal.

    Gate cost follows the standard X-conjugated circuit: 2n X, 2 H, and
    a multiply-controlled X decomposed linearly with one helper qubit
    (modeled, not simulated).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cost = ResourceFootprint(
        two_qubit_gates=mcx_two_qubit_cost(n - 1) if n > 1 else 0,
        one_qubit_gates=2 * n + 2,
        ancilla_qubits=1 if n > 2 else 0,
        modeled=frozenset({"mcx_linear"}),
    )
    return ZeroReflectionOp(n, cost)


def build_W(b: BOperator, sel: SelectU) -> CircuitOp:
    """W = (B' x 1) select(U-bar) (B x 1)."""
    total = sel.op.num_qubits
    if b.n != sel.n:
        raise ValueError("ancilla widths of B and select differ")
    anc = tuple(range(b.n))
    every = tuple(range(total))
    return SequenceOp(total, [
        (b.op, anc), (sel.op, every), (adjoint(b.op), anc),
    ])


@dataclass(frozen=True)
class ReflectorA:
    """The assembled LCU reflector and its bookkeeping."""

    w: CircuitOp
    r: CircuitOp
    a: CircuitOp
    params: KernelParams
    ledger: ResourceFootprint
    b: BOperator
    select: SelectU
    s: float
    n_ancilla: int
    system_qubits: int
    qft_spec: QftSpec

    @property
    def unitary(self) -> EigenUnitary:
        """The instance the reflector was built on."""
        return self.select.unitary

    def w_amplitudes(self) -> np.ndarray:
        """w_j = <0|W(lambda_j)|0> for every eigenvector j, from B's table.

        <0|W|0> = sum_a |b_a|^2 sign_a U^(k_a) with b = B|0>: the body
        weights |beta_l| / s on U^l and the header weights, whose signs
        give -beta_L + beta_{L+1} - beta_{L+2}. Here s = 1/sin(pi/10) is
        the header column's normalisation, not the sum ``self.s``.
        """
        betas, L = self.b.beta_magnitudes, self.params.L
        body = trig_poly(betas[:2 * L], self.unitary.eigenphases)
        header = -betas[2 * L] + betas[2 * L + 1] - betas[2 * L + 2]
        return (body + header) * math.sin(OAA_ANGLE)

    def eigen_errors(self) -> np.ndarray:
        """e_j = ||A(lambda_j)|0> - r_j|0>|| for every eigenvector j, with
        r = (1, -1, ..., -1), from ``oaa_column``."""
        a0, perp = oaa_column(self.w_amplitudes())
        r = np.full(a0.shape[0], -1.0)
        r[0] = 1.0
        return np.sqrt(np.abs(a0 - r) ** 2 + perp ** 2)


def oaa_column(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<0|A|0>, <perp|A|0>) on each eigenvector, from its w = <0|W|0>,
    for A = W R W' R W R W' R W; A|0> has no other component.

    In the basis (|0>, |perp>) of span{|0>, W|0>}, W|0> = (w, c) with
    c = sqrt(1 - x), x = |w|^2, and W R W' R is
    [[2x - 1, -2wc], [2 conj(w) c, 2x - 1]]. Its square sends (w, c) to
    (w (16x^2 - 20x + 5), c (16x^2 - 12x + 1)).
    """
    x = np.abs(w) ** 2
    return (w * (16 * x ** 2 - 20 * x + 5),
            np.sqrt(1 - x) * (16 * x ** 2 - 12 * x + 1))


def build_A(w: CircuitOp, r: CircuitOp, n_ancilla: int) -> CircuitOp:
    """A = W R W' R W R W' R W; five W/W' uses, four R uses."""
    total = w.num_qubits
    anc = tuple(range(n_ancilla))
    every = tuple(range(total))
    wd = adjoint(w)
    return SequenceOp(total, [
        (w, every), (r, anc), (wd, every), (r, anc),
        (w, every), (r, anc), (wd, every), (r, anc),
        (w, every),
    ])


def lcu_budget(eps: float, gap: float, c: float = DEFAULT_C,
               kernel_fraction: float = DEFAULT_KERNEL_FRACTION,
               exact_qft: bool = False) -> tuple[KernelParams, QftSpec]:
    """Split the error budget eps of the LCU route.

    kernel_fraction of eps goes to the Gaussian kernel chain and the rest
    to QFT truncation, a third of it per QFT factor of the centered
    transform.
    """
    if not 0 < kernel_fraction < 1:
        raise ValueError("kernel_fraction must lie strictly between 0 and 1")
    params = select_params(eps * kernel_fraction, gap, c)
    if exact_qft:
        return params, QftSpec.exact_for(params.m)
    return params, QftSpec.for_budget(params.m, eps * (1 - kernel_fraction) / 3)


def build_reflector(unitary: EigenUnitary, eps: float, *,
                    c: float = DEFAULT_C,
                    kernel_fraction: float = DEFAULT_KERNEL_FRACTION,
                    exact_qft: bool = False) -> ReflectorA:
    """One-stop pipeline from a gapped unitary to the reflector A, with
    the error budget split by ``lcu_budget``."""
    system_qubits = unitary.system_qubits
    params, spec = lcu_budget(eps, unitary.gap, c, kernel_fraction, exact_qft)
    b = build_B(params, spec)
    sel = build_select(params, unitary)
    w = build_W(b, sel)
    r = ancilla_reflection(b.n)
    a = build_A(w, r, b.n)
    return ReflectorA(
        w=w, r=r, a=a, params=params, ledger=a.footprint, b=b, select=sel,
        s=b.s, n_ancilla=b.n, system_qubits=system_qubits,
        qft_spec=spec,
    )


# ---------------------------------------------------------------------------
# block extraction and verification


def eigen_profile(op: CircuitOp, n_ancilla: int) -> np.ndarray:
    """op(lambda_j)|0> for every eigenvector j, from one simulated column.

    Precondition: op touches the system register only through
    whole-register ``EigenPowersOp``s, as every tree the builders make
    does. Then op = sum_j op(lambda_j) (x) |e_j><e_j|, and
    op |0>(sum_j |e_j>) holds all D ancilla blocks at once. Returns that
    column, after ``require_memory``, as a (2^n_ancilla, D) array whose
    column j is op(lambda_j)|0>.
    """
    d = 1 << (op.num_qubits - n_ancilla)
    require_memory(op.num_qubits)
    lifted = np.zeros((1 << op.num_qubits, 1), dtype=np.complex128)
    lifted[:d] = 1.0
    return apply_batch(op, lifted, op.num_qubits).reshape(1 << n_ancilla, d)


def oaa_expansion_check(refl: ReflectorA) -> dict:
    """Compare PAP, simulated densely for the reflector's A, against
    ``oaa_column``.

    Returns the max-norm mismatch of
    P A P = 5 PWP - 20 PWPW'PWP + 16 PWPW'PWPW'PWP
    (as system blocks), the coefficient defect |1 - 5/s + 20/s^3 - 16/s^5|,
    and the unitarity defect of the implied R-tilde = s <0|W|0>. The system
    blocks are diagonal in U's eigenbasis, so the products are elementwise
    on row 0 of the profiles.
    """
    m_w = eigen_profile(refl.w, refl.n_ancilla)[0]
    m_a = eigen_profile(refl.a, refl.n_ancilla)[0]
    weight = np.abs(m_w) ** 2
    expansion = float(np.abs(m_a - oaa_column(m_w)[0]).max())

    x = 1 / refl.s
    coeff = abs(1 - 5 * x + 20 * x ** 3 - 16 * x ** 5)

    runitary = float(np.abs(1 - refl.s ** 2 * weight).max())
    return {
        "expansion_maxnorm": expansion,
        "coefficient_defect": float(coeff),
        "rtilde_unitarity": runitary,
    }


def worst_case(reflector) -> tuple[float, float]:
    """(max_j e_j, lambda_j at that j): the exact worst case over all
    inputs of || A |0>|xi> - |0> R_psi0 |xi> ||, and the eigenphase of the
    reflector's own instance where it sits.

    Works for either route: the reflector exposes ``eigen_errors()``, the
    per-eigenvector misses e_j = ||A(lambda_j)|0> - r_j|0>|| with
    r = (1, -1, ..., -1), the sign vector of R_psi0 in U's eigenbasis, and
    ``unitary``, the instance it was built on. An input with
    eigen-coordinates xi_j misses by sqrt(sum_j |xi_j|^2 e_j^2), at most
    max_j e_j, with equality on eigenvector argmax. Reads only the
    eigenphases.
    """
    e = reflector.eigen_errors()
    j = int(np.argmax(e))
    return float(e[j]), float(reflector.unitary.eigenphases[j])
