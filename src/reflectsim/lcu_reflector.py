"""select(U-bar), W, the ancilla reflection R and the two-round OAA operator A.

The ancilla register is n = m + 2 qubits: a two-qubit header followed by m
data qubits. select is the cascade its footprint charges: Z on the second
header qubit, then, when the header is |00>, the ladder U^(l - L) (l the
data value). A = W R W' R W R W' R W amplifies the ancilla-|0> block of W
into the approximate reflection. Every operator acts on the system
register in U's eigenbasis (see ``spectral_models``), where the ladder is
one ``EigenPowersOp``. On eigenvector j the ancilla |0> stays in
span{|0>, W(lambda_j)|0>}, so A(lambda_j)|0> follows from the scalar
w_j = <0|W(lambda_j)|0> alone: verification simulates nothing.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
import math

import numpy as np

from .core_sim import (
    PAULI_Z,
    CircuitOp,
    ControlledOp,
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
    """Controlled dispatch of the LCU unitaries on n ancilla qubits. Its
    footprint charges the raw cascade, 3L - 1 queries; the reflector's
    ``entries`` add the max-power convention of L per application."""

    n: int
    op: CircuitOp


def build_select(params: KernelParams, eigenphases: np.ndarray,
                 step_cost: int) -> SelectU:
    """select(U-bar) on (m + 2) ancilla plus system qubits, in U's
    eigenbasis, built as the gate cascade its footprint charges: the Z on
    the second header qubit (signs -1/+1/-1 on headers |01>, |10>, |11>),
    then, conditioned on header |00>, U^-L and a controlled U^(2^i) leg
    per data bit, 3L - 1 queries of ``step_cost`` each. That is one
    ``EigenPowersOp`` ladder from -L: exp(i lambda_j (l - L)) on data l
    and eigenvector j.
    """
    L = params.L
    cost = ResourceFootprint(queries_u=(3 * L - 1) * step_cost)
    body = ControlledOp(EigenPowersOp(params.m, -L, eigenphases, cost), 2, 0)
    op = SequenceOp(body.num_qubits, [(PAULI_Z, (1,)), (body, None)])
    return SelectU(n=params.m + 2, op=op)


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
    """The assembled LCU reflector on ``unitary`` and its bookkeeping."""

    w: CircuitOp
    r: CircuitOp
    a: CircuitOp
    params: KernelParams
    b: BOperator
    select: SelectU
    qft_spec: QftSpec
    unitary: EigenUnitary

    @property
    def ledger(self) -> ResourceFootprint:
        return self.a.footprint

    @property
    def s(self) -> float:
        return self.b.s

    @property
    def n_ancilla(self) -> int:
        return self.b.n

    @property
    def system_qubits(self) -> int:
        return self.unitary.system_qubits

    @property
    def layers(self) -> tuple:
        """(name, op, targets) of each layer on the whole register."""
        anc = tuple(range(self.n_ancilla))
        every = tuple(range(self.a.num_qubits))
        return (("B", self.b.op, anc), ("select", self.select.op, every),
                ("W", self.w, every), ("R", self.r, anc), ("A", self.a, every))

    def entries(self) -> tuple[dict, dict]:
        """The route's report entries (head, ledger); the ledger adds the
        max-power count of A's five select uses, L queries each."""
        return ({"params": asdict(self.params), "s": self.s,
                 "n_ancilla": self.n_ancilla},
                {**self.ledger.as_dict(), "queries_max_power_convention":
                 5 * self.params.L * self.unitary.step_cost})

    def w_amplitudes(self, lambdas: np.ndarray) -> np.ndarray:
        """w(lambda) = <0|W(lambda)|0> at each eigenphase, from B's table.

        <0|W|0> = sum_a |b_a|^2 select_a with b = B|0>: the body weights
        |beta_l| / s on U^l and the header weights, whose Z signs give
        -beta_L + beta_{L+1} - beta_{L+2}. Here s = 1/sin(pi/10) is the
        header column's normalisation, not the sum ``self.s``.
        """
        betas, L = self.b.beta_magnitudes, self.params.L
        body = trig_poly(betas[:2 * L], lambdas)
        header = -betas[2 * L] + betas[2 * L + 1] - betas[2 * L + 2]
        return (body + header) * math.sin(OAA_ANGLE)

    def a_column(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A(lambda)|0> as (<0|A|0>, <perp|A|0>) at each eigenphase."""
        return oaa_column(self.w_amplitudes(lambdas))


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
    share = eps * kernel_fraction
    # a share too small for select_params is eps's fault: say so
    if 0 < eps <= 0.2 and 1 < c < math.inf and not (
            share > 0 and 4 * c / share < math.inf):
        raise ValueError(f"epsilon {eps!r} is too small: its kernel share "
                         f"{share!r} makes 4c/share overflow a double")
    params = select_params(share, gap, c)
    if exact_qft:
        return params, QftSpec.exact_for(params.m)
    return params, QftSpec.for_budget(params.m, eps * (1 - kernel_fraction) / 3)


def build_reflector(unitary: EigenUnitary, eps: float, *,
                    c: float = DEFAULT_C,
                    kernel_fraction: float = DEFAULT_KERNEL_FRACTION,
                    exact_qft: bool = False) -> ReflectorA:
    """One-stop pipeline from a gapped unitary to the reflector A, with
    the error budget split by ``lcu_budget``. A dimension that is not a
    power of two is refused first, before B is simulated."""
    unitary.system_qubits
    params, spec = lcu_budget(eps, unitary.gap, c, kernel_fraction, exact_qft)
    b = build_B(params, spec)
    sel = build_select(params, unitary.eigenphases, unitary.step_cost)
    w = build_W(b, sel)
    r = ancilla_reflection(b.n)
    a = build_A(w, r, b.n)
    return ReflectorA(w=w, r=r, a=a, params=params, b=b, select=sel,
                      qft_spec=spec, unitary=unitary)


# ---------------------------------------------------------------------------
# block extraction and verification


def eigen_profile(op: CircuitOp, n_ancilla: int) -> np.ndarray:
    """op(lambda_j)|0> for every eigenvector j, from one simulated column.

    Precondition: op touches the system register only through
    ``EigenPowersOp``s on every system qubit, controlled or not, as every
    tree the builders make does. Then op = sum_j op(lambda_j) (x)
    |e_j><e_j|, and op |0>(sum_j |e_j>) holds all D ancilla blocks at
    once. Returns that column, after ``require_memory``, as a
    (2^n_ancilla, D) array whose column j is op(lambda_j)|0>.
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


def miss(reflector, lambdas: np.ndarray) -> np.ndarray:
    """e(lambda) = ||A(lambda)|0> - r(lambda)|0>|| at each eigenphase, for
    either route, from its ``a_column`` (a0, b): A(lambda)|0> = a0|0> + b|v>
    with |v> a unit vector orthogonal to |0>. R_psi0 is r = +1 on the
    target, the one eigenphase exactly 0, and -1 elsewhere."""
    lambdas = np.asarray(lambdas, dtype=float)
    a0, rest = reflector.a_column(lambdas)
    r = np.where(lambdas == 0, 1.0, -1.0)
    return np.sqrt(np.abs(a0 - r) ** 2 + rest ** 2)


def worst_case(reflector) -> tuple[float, float]:
    """(max_j e_j, lambda_j at that j): the exact worst case over all
    inputs of || A |0>|xi> - |0> R_psi0 |xi> ||, and the eigenphase of the
    reflector's own instance where it sits. Works for either route: e_j
    is ``miss`` at the eigenphases of ``unitary``, the instance the
    reflector was built on. An input with eigen-coordinates xi_j misses by
    sqrt(sum_j |xi_j|^2 e_j^2), at most max_j e_j, with equality on
    eigenvector argmax."""
    phases = reflector.unitary.eigenphases
    e = miss(reflector, phases)
    j = int(np.argmax(e))
    return float(e[j]), float(phases[j])
