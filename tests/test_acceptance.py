"""Acceptance gate: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or in captured output)
and carries the measured numbers in its assertion message. The same checks
back the ``verify-suite`` CLI subcommand.
"""
import pytest

from reflectsim import suite
from reflectsim.core_sim import CNOT, SequenceOp


def _summary(result) -> str:
    status = "PASS" if result.passed else "FAIL"
    items = {**result.details, "seconds": result.seconds}
    keys = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in items.items())
    return f"{status} {result.name}: {keys}"


def _run(check):
    result = check()
    print(_summary(result))
    assert result.passed, _summary(result)
    return result


def test_criterion_1_kernel_bounds():
    # |kernel(0) - 1| <= eps and sup over the gapped region <= eps for
    # eps in {1e-1, 1e-2, 1e-3} x delta in {0.5, 0.1, 0.02}, c = 40,
    # within 10 s
    _run(suite.check_kernel_bounds)


def test_criterion_2_state_prep_chain():
    # ||psi - Fc phi|| <= eps (exact QFT) and <= 2 eps truncated, within 30 s
    _run(suite.check_state_prep_chain)


def test_criterion_3_scalar_lcu_consistency():
    # sup_lam |sum (alpha_l - |beta_l|/2) e^{i l lam}| <= 10 eps with the
    # betas read from the built preparation circuit
    _run(suite.check_scalar_lcu)


def test_criterion_4_lcu_reflection():
    # D = 8, gap 0.5: exact worst-case error max_j e_j <= 10 eps at
    # eps = 1e-2, decreasing at eps = 1e-3, within 2 min
    result = _run(suite.check_lcu_reflection)
    assert result.details["max_err_eps3"] < result.details["max_err_eps2"]


def test_criterion_5_oaa_algebra():
    # exact three-term PAP expansion at 1e-10, s = 1/sin(pi/10) within
    # 10 eps, quintic sine identity at 1e-12
    _run(suite.check_oaa_algebra)


def test_criterion_6_pea_baseline():
    # per-block |p| <= 1/16 on every gapped eigenvector, exact worst-case
    # error <= 10 eps, exact-QFT variant fixes |0>|psi0> at 1e-10
    _run(suite.check_pea_baseline)


def test_criterion_7_ancilla_scaling():
    # eps {1e-2, 1e-4, 1e-8} at delta 1e-2: q at least doubles, n_lcu grows
    # by at most 2 qubits, and n_lcu <= n_pea everywhere
    result = _run(suite.check_ancilla_scaling)
    n_lcu = result.details["n_lcu"]
    assert n_lcu[-1] - n_lcu[0] <= 2


def test_criterion_8_grover_benchmark():
    # D = 64, eps = 0.02: nu <= 4 (1/sqrt(D) + 10 eps)^2, <s|R|s> = 0 at
    # 1e-10, gap ~ D^(-1/2) within factor 2 over {16, 64, 256}, within 2 min
    _run(suite.check_grover_benchmark)


def test_criterion_9_structural():
    # unitarity <= 1e-10 across the operator zoo, exact centering
    # permutations (m <= 8), dense centered-transform identity (m <= 6) at
    # 1e-12, Poisson identity at 1e-10
    _run(suite.check_structural)


@pytest.mark.parametrize("k,m,edit", [
    (1, 2, lambda steps: steps[:-1]),
    (7, 8, lambda steps: steps[:-1]),
    # swaps embedded columns 64..127 in pairs before centering: only the
    # second of the two 64-column blocks is misplaced
    (7, 8, lambda steps: ((CNOT, (1, 7)),) + steps),
], ids=["drop_last_gate_m2", "drop_last_gate_m8", "second_block_only"])
def test_criterion_9_detects_broken_centering(monkeypatch, k, m, edit):
    # a centering circuit that still permutes the basis but misplaces
    # embedded columns fails the check block by block
    build = suite.centering_circuit

    def broken(kk, mm):
        op = build(kk, mm)
        if (kk, mm) != (k, m):
            return op
        return SequenceOp(mm, edit(op.steps))

    monkeypatch.setattr(suite, "centering_circuit", broken)
    result = suite.check_structural()
    assert result.details["centering_exact"] is False
    assert not result.passed
