"""select(U-bar), W, the ancilla reflection R and the two-round OAA operator A.

The ancilla register is n = m + 2 qubits: a two-qubit header followed by m
data qubits. select applies U^(l - L) when the header is |00> (l the data
value), and the header-conditioned signs via Z on the second header qubit.
A = W R W' R W R W' R W amplifies the ancilla-|0> block of W into the
approximate reflection. Every operator acts on the system register in U's
eigenbasis (see ``spectral_models``), where select is one diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import os

import numpy as np

from .core_sim import (
    CircuitOp,
    DiagonalOp,
    RegisterLayout,
    ResourceFootprint,
    SequenceOp,
    ZeroReflectionOp,
    adjoint,
    apply_batch,
    random_state,
)
from .gaussian_kernel import KernelParams, select_params
from .spectral_models import EigenUnitary, GroverInstance, exact_reflection
from .state_prep import BOperator, QftSpec, build_B

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
    """select(U-bar) on (m + 2) ancilla plus system qubits, as one diagonal
    in U's eigenbasis.

    Header |00> with data l gives exp(i lambda_j (l - L)) on eigenvector j;
    headers |01>, |10>, |11> give the signs -1/+1/-1 of Z on the second
    header qubit. The footprint is that of the gate cascade: the Z, then,
    conditioned on header |00>, U^-L and a controlled U^(2^i) leg per data
    bit, 3L - 1 queries in all.
    """
    m, L = params.m, params.L
    diag = np.empty((4, 2 * L, unitary.dimension), dtype=np.complex128)
    diag[0] = np.exp(1j * np.outer(np.arange(-L, L), unitary.eigenphases))
    diag[1], diag[2], diag[3] = -1, 1, -1
    cost = ResourceFootprint(queries_u=(3 * L - 1) * unitary.step_cost,
                             one_qubit_gates=1)
    return SelectU(n=m + 2, L=L, unitary=unitary,
                   op=DiagonalOp(diag.reshape(-1), cost),
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

    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.n_ancilla, self.system_qubits)


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


def lcu_budget(eps: float, gap: float, c: float = 40.0,
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
                    c: float = 40.0,
                    kernel_fraction: float = DEFAULT_KERNEL_FRACTION,
                    exact_qft: bool = False) -> ReflectorA:
    """One-stop pipeline from a gapped unitary to the reflector A, with
    the error budget split by ``lcu_budget``."""
    params, spec = lcu_budget(eps, unitary.gap, c, kernel_fraction, exact_qft)
    b = build_B(params, spec)
    sel = build_select(params, unitary)
    w = build_W(b, sel)
    r = ancilla_reflection(b.n)
    a = build_A(w, r, b.n)
    return ReflectorA(
        w=w, r=r, a=a, params=params, ledger=a.footprint, b=b, select=sel,
        s=b.s, n_ancilla=b.n, system_qubits=unitary.system_qubits,
        qft_spec=spec,
    )


# ---------------------------------------------------------------------------
# block extraction and verification


# apply keeps the input, a moved copy and each step's output alive: a
# reflect pea --dim 8 verification peaked at 7.3x its 128 MiB state
WORKING_COPIES = 7.3


def working_set_bytes(total_qubits: int, columns: int) -> float:
    """Estimated peak memory of simulating ``columns`` states of
    ``total_qubits`` qubits at once."""
    return 16 * (1 << total_qubits) * columns * WORKING_COPIES


def require_memory(total_qubits: int, columns: int) -> None:
    """Raise ValueError, with the GiB needed, when simulating ``columns``
    states of ``total_qubits`` qubits would not fit in physical memory."""
    need = working_set_bytes(total_qubits, columns)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"simulating {columns} state(s) of {total_qubits} qubits needs "
            f"about {need / 2 ** 30:.1f} GiB, more than the "
            f"{have / 2 ** 30:.1f} GiB of physical memory")


def apply_lifted(op: CircuitOp, n_ancilla: int,
                 columns: np.ndarray) -> np.ndarray:
    """op |0_anc>|xi> for each system column xi, as full-register columns,
    after ``require_memory``."""
    d = 1 << (op.num_qubits - n_ancilla)
    if columns.ndim != 2 or columns.shape[0] != d:
        raise ValueError("system columns do not match the operator's system register")
    require_memory(op.num_qubits, columns.shape[1])
    lifted = np.zeros((1 << op.num_qubits, columns.shape[1]), dtype=np.complex128)
    lifted[:d] = columns
    return apply_batch(op, lifted, op.num_qubits)


def ancilla_zero_block(op: CircuitOp, layout: RegisterLayout) -> np.ndarray:
    """<0_anc| op |0_anc> as a system-dimension matrix in U's eigenbasis."""
    if op.num_qubits != layout.total_qubits:
        raise ValueError("operator width does not match layout")
    d = layout.system_dim
    return apply_lifted(op, layout.ancilla_qubits, np.eye(d))[:d, :]


def oaa_expansion_check(w: CircuitOp, r: CircuitOp, layout: RegisterLayout,
                        s: float) -> dict:
    """Compare PAP against the exact three-term expansion.

    Returns the max-norm mismatch of
    P A P = 5 PWP - 20 PWPW'PWP + 16 PWPW'PWPW'PWP
    (as system blocks), the coefficient defect |1 - 5/s + 20/s^3 - 16/s^5|,
    and the unitarity defect of the implied R-tilde = s <0|W|0>.
    """
    a = build_A(w, r, layout.ancilla_qubits)
    m_w = ancilla_zero_block(w, layout)
    m_a = ancilla_zero_block(a, layout)
    m_wd = m_w.conj().T
    rhs = 5 * m_w - 20 * m_w @ m_wd @ m_w \
        + 16 * m_w @ m_wd @ m_w @ m_wd @ m_w
    expansion = float(np.abs(m_a - rhs).max())

    x = 1 / s
    coeff = abs(1 - 5 * x + 20 * x ** 3 - 16 * x ** 5)

    r_tilde = s * m_w
    runitary = float(np.abs(
        np.eye(layout.system_dim) - r_tilde.conj().T @ r_tilde
    ).max())
    return {
        "expansion_maxnorm": expansion,
        "coefficient_defect": float(coeff),
        "rtilde_unitarity": runitary,
    }


def reflection_error(reflector, unitary: EigenUnitary, trials: int, seed: int,
                     states: list[np.ndarray] | None = None) -> float:
    """max over trial states of || A |0>|xi> - |0> R_psi0 |xi> ||.

    Works for any reflector exposing ``.a`` and ``.n_ancilla``. The states
    are system vectors in the computational basis; they are simulated in
    U's eigenbasis, where R_psi0 is the sign vector (1, -1, ..., -1) and the
    norm is the same. Haar trial states are drawn from the seed unless
    explicit system vectors are supplied.
    """
    if trials < 1 and not states:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    if states is None:
        states = [random_state(unitary.system_qubits, rng).amplitudes
                  for _ in range(trials)]
    d = unitary.dimension
    coords = unitary.to_eigenbasis(np.stack(states, axis=1))
    sign = -np.ones(d)
    sign[0] = 1.0
    # chunk the batch so big registers never hold more than ~2^23 amplitudes
    chunk = max(1, (1 << 23) >> (reflector.n_ancilla + unitary.system_qubits))
    worst = 0.0
    for start in range(0, coords.shape[1], chunk):
        part = coords[:, start:start + chunk]
        out = apply_lifted(reflector.a, reflector.n_ancilla, part)
        for i in range(part.shape[1]):
            # the target |0> R xi has no amplitude past the first d entries
            miss = np.linalg.norm(out[:d, i] - sign * part[:, i])
            leak = np.linalg.norm(out[d:, i])
            worst = max(worst, math.sqrt(miss ** 2 + leak ** 2))
    return worst


def grover_step(inst: GroverInstance, eps: float):
    """One LCU reflection about the search target, started from |s>.

    Returns (s_defect, nu, envelope, reflector): the exact reflection's
    |<s|R|s>|, the failure probability nu = 1 - |<0, marked|A|0, s>|^2,
    its envelope 4 (1/sqrt(D) + 10 eps)^2, and the reflector used.
    """
    s_defect = abs(inst.s_state @ (exact_reflection(inst.unitary) @ inst.s_state))
    refl = build_reflector(inst.unitary, eps)
    out = apply_lifted(refl.a, refl.n_ancilla,
                       inst.unitary.to_eigenbasis(inst.s_state[:, None]))
    # back to the computational basis for the marked amplitude
    hit = inst.unitary.eigenbasis[inst.marked] @ out[:inst.dimension, 0]
    nu = 1 - abs(hit) ** 2
    envelope = 4 * (1 / math.sqrt(inst.dimension) + 10 * eps) ** 2
    return s_defect, nu, envelope, refl
