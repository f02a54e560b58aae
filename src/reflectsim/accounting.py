"""Closed-form gate models and the ancilla/query/gate scaling comparison.

Ledgers are the ``ResourceFootprint`` values of built operators. The
comparison engine evaluates the closed-form parameter formulas of both
reflection routes on an (eps, delta) grid; query counts in the table use
the per-application conventions of the complexity analysis (L per select
leg for the LCU route, 2^n' - 1 per PEA register), while built operators
additionally carry the raw cascade charge in their footprints.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
import math

from .gaussian_kernel import DEFAULT_C
from .lcu_reflector import lcu_budget, mcx_two_qubit_cost
from .pea_reflector import choose_pea_params, pea_budget
from .state_prep import QftSpec, qft_two_qubit_count

DEFAULT_EPS_GRID = (1e-2, 1e-4, 1e-8)
DEFAULT_DELTA_GRID = (0.5, 0.1, 1e-2)


def lcu_gate_model(params, qft_spec: QftSpec) -> dict:
    """Closed-form two-qubit counts for the LCU route, matching the numbers
    the builders declare (tree, centering, three QFT factors, header x3,
    conditioned body x2, four modeled MCX reflections)."""
    m = params.m
    k = max(1, math.ceil(math.log2(2 * params.Lstar)))
    tree = max(0, (1 << k) - 2)
    centering = m - k
    bhat = tree + centering + 3 * qft_two_qubit_count(m, qft_spec.cutoff_b)
    b = 2 * bhat + 3
    w = 2 * b
    n = m + 2
    r = mcx_two_qubit_cost(n - 1)
    a = 5 * w + 4 * r
    return {
        "bhat_two_qubit": bhat,
        "b_two_qubit": b,
        "w_two_qubit": w,
        "a_two_qubit": a,
        "n_ancilla": n,
        "cu_max_power": 5 * params.L,
        "cu_raw": 5 * (3 * params.L - 1),
    }


def pea_gate_model(params, qft_spec: QftSpec) -> dict:
    """Closed-form counts for the PEA route: 2q truncated QFTs plus the
    modeled MCX reflection."""
    w = params.q * qft_two_qubit_count(params.n_prime, qft_spec.cutoff_b)
    n = params.total_ancilla
    a = 2 * w + mcx_two_qubit_cost(n - 1)
    return {
        "w_two_qubit": w,
        "a_two_qubit": a,
        "n_ancilla": n,
        "cu": 2 * params.q * ((1 << params.n_prime) - 1),
    }


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    delta: float
    n_lcu: int
    n_pea: int
    cu_lcu: int
    cu_pea: int
    cb_lcu_model: int
    cb_pea_model: int


CSV_COLUMNS = tuple(f.name for f in fields(ScalingRow))


@dataclass(frozen=True)
class ScalingTable:
    rows: tuple
    claims: dict

    @property
    def passed(self) -> bool:
        return all(self.claims.values())


def compare_scaling(eps_grid=DEFAULT_EPS_GRID, delta_grid=DEFAULT_DELTA_GRID,
                    c: float = DEFAULT_C) -> ScalingTable:
    """Evaluate both routes' parameter formulas on the grid.

    Also evaluates the structural claims: n_lcu <= n_pea everywhere; per
    delta, n_lcu grows by at most one qubit per squaring of 1/eps while the
    PEA register count q never shrinks and keeps at least half-linear pace
    in log(1/eps).
    """
    if not eps_grid or not delta_grid:
        raise ValueError("grids must be nonempty")
    eps_sorted = tuple(sorted(set(float(e) for e in eps_grid), reverse=True))
    # each delta once, in the order given: the growth checks pair rows
    deltas = tuple(dict.fromkeys(float(d) for d in delta_grid))
    rows = []
    for delta in deltas:
        for eps in eps_sorted:
            lcu = lcu_gate_model(*lcu_budget(eps, delta, c))
            pea = pea_gate_model(*pea_budget(eps, delta))
            rows.append(ScalingRow(
                epsilon=eps, delta=delta,
                n_lcu=lcu["n_ancilla"], n_pea=pea["n_ancilla"],
                cu_lcu=lcu["cu_max_power"], cu_pea=pea["cu"],
                cb_lcu_model=lcu["a_two_qubit"],
                cb_pea_model=pea["a_two_qubit"],
            ))

    claims = {
        "n_lcu_le_n_pea": all(r.n_lcu <= r.n_pea for r in rows),
    }
    growth_ok = True
    pea_ok = True
    for delta in deltas:
        sub = [r for r in rows if r.delta == delta]
        for prev, cur in zip(sub, sub[1:]):
            log_ratio = math.log(1 / cur.epsilon) / math.log(1 / prev.epsilon)
            allowed = max(1, math.ceil(math.log2(log_ratio)))
            if cur.n_lcu - prev.n_lcu > allowed:
                growth_ok = False
            q_prev = prev.n_pea // choose_pea_params(prev.epsilon, delta).n_prime
            q_cur = cur.n_pea // choose_pea_params(cur.epsilon, delta).n_prime
            if q_cur < q_prev or q_cur < q_prev * log_ratio / 2:
                pea_ok = False
    claims["n_lcu_growth_bounded"] = growth_ok
    claims["n_pea_growth_linear"] = pea_ok
    return ScalingTable(rows=tuple(rows), claims=claims)
