"""Runnable verification suite.

Each check evaluates one acceptance property end to end and returns a
CheckResult with the measured numbers; the pytest acceptance module and
the ``verify-suite`` CLI subcommand both drive these functions. What a
CLI report measures is read from that report, so both share one path:
the kernel bounds from ``kernel``, the truncated chain and the betas from
``prep`` (one report per cell and run), the LCU and PEA worst cases from
``reflect``, the scaling table from ``compare`` and the search benchmark
from ``grover``. No report measures the rest: the exact-transform chain,
the OAA algebra, the structural identities, and the PEA leakage and psi0
fix, which the suite reads from one simulated exact-QFT PEA block column,
the library's only PEA simulation outside tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import functools
import itertools
import math
import time

import numpy as np

from . import cli
from .core_sim import (
    EigenPowersOp,
    apply_batch,
    column_blocks,
    op_matrix,
    unitarity_defect,
)
from .gaussian_kernel import (
    KernelParams,
    alpha_coeffs,
    circle_values,
    phi_amplitudes,
    poisson_check,
    psi_amplitudes,
    select_params,
)
from .lcu_reflector import (
    ancilla_reflection,
    build_A,
    build_reflector,
    build_select,
    build_W,
    eigen_profile,
    oaa_expansion_check,
)
from .pea_reflector import build_pea_reflector, choose_pea_params, fejer
from .spectral_models import grover_unitary, synth_unitary
from .state_prep import (
    OAA_ANGLE,
    QftSpec,
    build_B,
    build_B_hat,
    centered_qft,
    centering_circuit,
    centering_offset,
    prep_qft_spec,
    qft,
    rotation_tree_prep,
)

EPS_GRID = (1e-1, 1e-2, 1e-3)
DELTA_GRID = (0.5, 0.1, 0.02)
# the acceptance cells (eps, delta)
_CELLS = tuple(itertools.product(EPS_GRID, DELTA_GRID))

# the D = 8 instance shared by the end-to-end checks: dimension, gap, seed
_DIM, _GAP, _SEED = 8, 0.5, 7


@dataclass(frozen=True)
class CheckResult:
    """A check's verdict and measured numbers. Wall-clock ``seconds`` stay
    out of ``details`` so reports built from them are deterministic."""

    name: str
    passed: bool
    details: dict
    seconds: float = 0.0


def check_kernel_bounds() -> CheckResult:
    """Value 1 at phase 0 and magnitude <= eps on the gapped region, for
    every (eps, delta) pair on the acceptance grid. Each report is folded
    into the maxima as it arrives, so one alpha table is held at a time."""
    t0 = time.perf_counter()
    worst_zero = 0.0
    worst_sup = 0.0
    ok = True
    for eps, delta in _CELLS:
        report = cli.kernel_report(eps, delta)
        worst_zero = max(worst_zero, report["kernel_zero_defect"] / eps)
        worst_sup = max(worst_sup, report["kernel_gap_sup"] / eps)
        ok = ok and report["passed"]
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 10.0
    return CheckResult("kernel_bounds", ok, {
        "max_zero_defect_over_eps": worst_zero,
        "max_gap_sup_over_eps": worst_sup,
    }, seconds)


def check_state_prep_chain(prep=None) -> CheckResult:
    """||psi - Fc phi|| <= eps with the exact transform and
    ||psi - Bhat|0>|| <= 2 eps at the default truncation budget."""
    t0 = time.perf_counter()
    prep = prep or cli.prep_report
    worst_exact = 0.0
    worst_trunc = 0.0
    ok = True
    for eps, delta in _CELLS:
        report = prep(eps, delta)
        params = KernelParams(**report["params"])
        phi_vec = np.zeros(2 * params.L, dtype=np.complex128)
        phi_vec[params.L - params.Lstar:params.L + params.Lstar] = \
            phi_amplitudes(params)
        fc = centered_qft(QftSpec.exact_for(params.m))
        out = apply_batch(fc, phi_vec[:, None], params.m)[:, 0]
        err_exact = float(np.linalg.norm(psi_amplitudes(params) - out))
        worst_exact = max(worst_exact, err_exact / eps)
        worst_trunc = max(worst_trunc, report["chain_error"] / eps)
        ok = ok and err_exact <= eps and report["passed"]
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 30.0
    return CheckResult("state_prep_chain", ok, {
        "max_exact_err_over_eps": worst_exact,
        "max_trunc_err_over_eps": worst_trunc,
    }, seconds)


def check_scalar_lcu(prep=None) -> CheckResult:
    """|sum (alpha_l - |beta_l|/2) e^{i l lam}| <= 10 eps at the 1000 points
    lam = 2 pi k / 1000, with beta extracted from the built B-hat."""
    t0 = time.perf_counter()
    prep = prep or cli.prep_report
    worst = 0.0
    ok = True
    for eps, delta in _CELLS:
        report = prep(eps, delta)
        params = KernelParams(**report["params"])
        betas = np.asarray(report["beta_table"]["values"])
        diff = alpha_coeffs(params) - betas[:2 * params.L] / 2
        sup = float(np.abs(circle_values(diff, 1000)).max())
        worst = max(worst, sup / eps)
        ok = ok and sup <= 10 * eps
    seconds = time.perf_counter() - t0
    return CheckResult("scalar_lcu_consistency", ok, {
        "max_sup_over_eps": worst,
    }, seconds)


def _instance():
    return synth_unitary(_DIM, _GAP, _SEED)


def _worst_error(method: str, eps: float) -> float:
    """The ``reflect`` report's max_j e_j on the shared instance."""
    return cli.reflect_report(method, _DIM, _GAP, eps, _SEED)["max_error"]


def check_lcu_reflection() -> CheckResult:
    """End-to-end ||A|0>|xi> - |0> R |xi>|| <= 10 eps in the exact worst
    case over all xi, max_j e_j, improving when eps shrinks tenfold."""
    t0 = time.perf_counter()
    err2 = _worst_error("lcu", 1e-2)
    err3 = _worst_error("lcu", 1e-3)
    seconds = time.perf_counter() - t0
    ok = err2 <= 10 * 1e-2 and err3 <= 10 * 1e-3 and err3 < err2
    ok = ok and seconds < 120.0
    return CheckResult("lcu_reflection", ok, {
        "max_err_eps2": err2,
        "max_err_eps3": err3,
    }, seconds)


def check_oaa_algebra() -> CheckResult:
    """Three-term PAP expansion at 1e-10, s pinned to 1/sin(pi/10), and the
    degree-five sine identity at 1e-12."""
    t0 = time.perf_counter()
    unitary = _instance()
    refl = build_reflector(unitary, 1e-2)
    stats = oaa_expansion_check(refl)
    s_defect = abs(refl.s - 1 / math.sin(OAA_ANGLE))
    x = math.sin(OAA_ANGLE)
    cheb = abs(5 * x - 20 * x ** 3 + 16 * x ** 5 - 1.0)
    ok = (
        stats["expansion_maxnorm"] <= 1e-10
        and s_defect <= 10 * 1e-2
        and cheb <= 1e-12
    )
    seconds = time.perf_counter() - t0
    return CheckResult("oaa_algebra", ok, {
        "expansion_maxnorm": stats["expansion_maxnorm"],
        "s_defect": s_defect,
        "chebyshev_defect": cheb,
    }, seconds)


def check_pea_baseline() -> CheckResult:
    """Per-block leakage below 1/16 on every gapped eigenvector, end-to-end
    worst-case error max_j e_j <= 10 eps, and exact-QFT invariance of
    |0>|psi_0> at 1e-10, read off one simulated exact-QFT block column,
    whose leakage |phi_0|^2 must also match ``fejer`` at 1e-14."""
    t0 = time.perf_counter()
    eps = 1e-2
    err = _worst_error("pea", eps)
    exact = build_pea_reflector(_instance(), eps, exact_qft=True)
    params = exact.params
    block = {name: op for name, op, _ in exact.layers}["block"]
    column = eigen_profile(block, params.n_prime)
    leakage = np.abs(column[0]) ** 2
    worst_p = float(leakage[1:].max())
    closed_form = float(np.abs(
        leakage - fejer(exact.unitary.eigenphases, params.n_prime)).max())
    fix_err = float(np.linalg.norm(column[:, 0] - np.eye(len(column))[0]))
    seconds = time.perf_counter() - t0
    ok = (worst_p <= 1 / 16 and err <= 10 * eps and fix_err <= 1e-10
          and closed_form <= 1e-14)
    return CheckResult("pea_baseline", ok, {
        "max_block_leakage": worst_p,
        "max_err": err,
        "psi0_fix_err": fix_err,
        "n_prime": params.n_prime,
        "q": params.q,
    }, seconds)


def check_ancilla_scaling() -> CheckResult:
    """The headline comparison on eps {1e-2, 1e-4, 1e-8} at delta 1e-2."""
    t0 = time.perf_counter()
    report = cli.compare_report((1e-2, 1e-4, 1e-8), (1e-2,))
    rows = sorted(report["rows"], key=lambda r: -r["epsilon"])
    n_lcu = [r["n_lcu"] for r in rows]
    qs = [choose_pea_params(r["epsilon"], r["delta"]).q for r in rows]
    ok = (
        qs[-1] >= 2 * qs[0]
        and n_lcu[-1] - n_lcu[0] <= 2
        and all(r["n_lcu"] <= r["n_pea"] for r in rows)
        and report["passed"]
    )
    seconds = time.perf_counter() - t0
    return CheckResult("ancilla_scaling", ok, {
        "n_lcu": tuple(n_lcu),
        "n_pea": tuple(r["n_pea"] for r in rows),
        "q": tuple(qs),
    }, seconds)


def check_grover_benchmark() -> CheckResult:
    """Search-derived family: failure probability inside the envelope,
    <s|R|s> = 0, and gap scaling ~ D^(-1/2)."""
    t0 = time.perf_counter()
    report = cli.grover_benchmark(64, 0.02, _SEED)
    gaps = {d: grover_unitary(d, marked=1).gap for d in (16, 64, 256)}
    scaled = [gaps[d] * math.sqrt(d) for d in (16, 64, 256)]
    scaling_ok = max(scaled) <= 2 * min(scaled)
    seconds = time.perf_counter() - t0
    ok = report["passed"] and scaling_ok and seconds < 120.0
    return CheckResult("grover_benchmark", ok, {
        "nu": report["nu"],
        "nu_envelope": report["nu_envelope"],
        "s_reflection_defect": report["s_reflection_defect"],
        "gap_times_sqrtD": tuple(scaled),
    }, seconds)


def _zoo_lcu():
    """Kernel parameters, QFT spec, B and select of the structural check's
    LCU reflector, on a D = 2 instance: 7 ancilla qubits and 1 system
    qubit."""
    params = select_params(0.2, 1.5)
    spec = prep_qft_spec(params)
    b = build_B(params, spec)
    return params, spec, b, build_select(params, synth_unitary(2, 1.0, seed=3))


def _sectors(b, sel):
    """(select_j, W_j, A_j) on the ancilla register, for each eigenvector
    j of select's instance.

    The circuits touch the system register only through select's
    ``EigenPowersOp``, so each of select, W and A is
    sum_j M(lambda_j) (x) |e_j><e_j|: its full matrix is exactly zero off
    the blocks M[j::D, j::D], and block j is sector j's matrix, made by the
    same floating-point operations.
    """
    phases = sel.op.eigenphases
    for j in range(len(phases)):
        op = EigenPowersOp(sel.op.powers, sel.op.signs, phases[j:j + 1],
                           sel.op.footprint)
        w = build_W(b, replace(sel, op=op))
        yield op, w, build_A(w, ancilla_reflection(b.n), b.n)


def _structural_op_zoo():
    """Representative operators capped at 8 qubits for dense unitarity;
    the LCU reflector's select, W and A one eigenvector sector at a time."""
    from .core_sim import CNOT, HADAMARD, PAULI_X, PAULI_Z, SWAP, cphase, ry
    params, spec, b, sel = _zoo_lcu()
    sectors = [(f"{name}_{j}", op)
               for j, ops in enumerate(_sectors(b, sel))
               for name, op in zip(("select", "w", "a"), ops)]
    amps = np.sqrt(np.arange(1.0, 17.0))
    amps /= np.linalg.norm(amps)
    return [
        ("hadamard", HADAMARD),
        ("pauli_x", PAULI_X),
        ("pauli_z", PAULI_Z),
        ("cnot", CNOT),
        ("cphase", cphase(0.3)),
        ("swap", SWAP),
        ("ry", ry(1.1)),
        ("qft_exact_m5", qft(QftSpec.exact_for(5))),
        ("qft_trunc_m8", qft(QftSpec(m=8, cutoff_b=4))),
        ("centered_qft_m5", centered_qft(QftSpec.exact_for(5))),
        ("centering_3_7", centering_circuit(3, 7)),
        ("rotation_tree", rotation_tree_prep(amps)),
        ("bhat", build_B_hat(params, spec)),
        ("b_full", b.op),
        *sectors,
        ("ancilla_reflection", ancilla_reflection(6)),
    ]


def check_structural() -> CheckResult:
    """Unitarity of every built operator, exact centering permutations,
    the dense centered-transform identity, and the Poisson identity."""
    t0 = time.perf_counter()
    worst_unitarity = 0.0
    for _, op in _structural_op_zoo():
        worst_unitarity = max(worst_unitarity, unitarity_defect(op))

    perm_ok = True
    for m in range(2, 9):
        for k in range(1, m):
            off = centering_offset(k, m)
            # each block of columns as it is made: one entry of modulus 1
            # per column, and the embedded columns j < 2^k at row j + off
            for j, block in column_blocks(centering_circuit(k, m)):
                mag = np.abs(block)
                cols_one = (np.abs(mag - 1) < 1e-12).sum(axis=0)
                nonzero = (mag > 1e-12).sum(axis=0)
                js = np.arange(j, min(j + block.shape[1], 1 << k))
                perm_ok = perm_ok and bool(
                    (cols_one == 1).all() and (nonzero == 1).all()
                    and (np.abs(block[js + off, js - j] - 1.0) < 1e-12).all())

    fc_defect = 0.0
    for m in range(1, 7):
        big_l = 1 << (m - 1)
        n = 1 << m
        js = np.arange(n)
        dft = np.exp(2j * math.pi * np.outer(js, js) / n) / math.sqrt(n)
        shift = np.roll(np.eye(n), big_l, axis=1)
        oracle = shift @ dft @ shift
        mat = op_matrix(centered_qft(QftSpec.exact_for(m)))
        fc_defect = max(fc_defect, float(np.abs(mat - oracle).max()))

    poisson_defect = 0.0
    for lam, dz, K in ((0.0, 0.5, 20), (1.3, 0.5, 20), (0.2, 10.0, 20),
                       (1.3 + 2 * math.pi, 0.5, 20), (2.8, 0.25, 30)):
        lhs, rhs = poisson_check(lam, dz, K)
        poisson_defect = max(poisson_defect, abs(lhs - rhs))

    seconds = time.perf_counter() - t0
    ok = (
        worst_unitarity <= 1e-10
        and perm_ok
        and fc_defect <= 1e-12
        and poisson_defect <= 1e-10
    )
    return CheckResult("structural", ok, {
        "max_unitarity_defect": worst_unitarity,
        "centering_exact": perm_ok,
        "centered_qft_defect": fc_defect,
        "poisson_defect": poisson_defect,
    }, seconds)


# the checks that read a prep report on every acceptance cell
_SHARE_CELLS = ("state_prep_chain", "scalar_lcu_consistency")

ALL_CHECKS = (
    ("kernel_bounds", check_kernel_bounds),
    ("state_prep_chain", check_state_prep_chain),
    ("scalar_lcu_consistency", check_scalar_lcu),
    ("lcu_reflection", check_lcu_reflection),
    ("oaa_algebra", check_oaa_algebra),
    ("pea_baseline", check_pea_baseline),
    ("ancilla_scaling", check_ancilla_scaling),
    ("grover_benchmark", check_grover_benchmark),
    ("structural", check_structural),
)


def run_all(names=None) -> list[CheckResult]:
    valid = [name for name, _ in ALL_CHECKS]
    unknown = sorted(set(names or ()) - set(valid))
    if unknown:
        raise ValueError(f"unknown check(s) {', '.join(unknown)}; "
                         f"valid checks: {', '.join(valid)}")
    selected = [(name, fn) for name, fn in ALL_CHECKS
                if not names or name in names]
    readers = [name for name, _ in selected if name in _SHARE_CELLS]
    # one prep report, so one B, per cell and run, dropped after the last
    # check that reads it
    prep = functools.cache(cli.prep_report)
    results = []
    for name, fn in selected:
        if name in readers:
            results.append(fn(prep))
            if name == readers[-1]:
                prep.cache_clear()
        else:
            results.append(fn())
    return results
