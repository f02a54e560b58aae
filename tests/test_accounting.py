"""Ledger semantics and the scaling-comparison engine."""
import pytest

from reflectsim.accounting import (
    CSV_COLUMNS,
    compare_scaling,
    lcu_gate_model,
    pea_gate_model,
)
from reflectsim.core_sim import ResourceFootprint
from reflectsim.gaussian_kernel import select_params
from reflectsim.lcu_reflector import build_reflector
from reflectsim.pea_reflector import (
    build_pea_reflector,
    choose_pea_params,
    pea_budget,
)
from reflectsim.spectral_models import synth_unitary
from reflectsim.state_prep import QftSpec


class TestLedgerType:
    def test_ledger_is_footprint(self):
        refl = build_reflector(synth_unitary(2, 1.5, seed=3), 0.2)
        assert isinstance(refl.ledger, ResourceFootprint)
        assert refl.ledger == refl.a.footprint

    def test_merge_counters(self):
        a = ResourceFootprint(queries_u=3, two_qubit_gates=1)
        b = ResourceFootprint(queries_u=4, ancilla_qubits=2)
        m = a.merge(b)
        assert m.queries_u == 7 and m.ancilla_qubits == 2


class TestCompareScaling:
    def test_deterministic(self):
        a = compare_scaling()
        b = compare_scaling()
        assert a.rows == b.rows and a.claims == b.claims

    def test_frozen_headline_row(self):
        table = compare_scaling(eps_grid=(1e-2, 1e-4, 1e-8),
                                delta_grid=(1e-2,))
        by_eps = {r.epsilon: r for r in table.rows}
        assert by_eps[1e-2].n_lcu == 15 and by_eps[1e-2].n_pea == 40
        assert by_eps[1e-4].n_lcu == 16 and by_eps[1e-4].n_pea == 80
        assert by_eps[1e-8].n_lcu == 17 and by_eps[1e-8].n_pea == 140
        assert by_eps[1e-2].cu_pea == 2 * 4 * (2 ** 10 - 1)

    def test_default_grid_claims_hold(self):
        table = compare_scaling()
        assert table.passed

    def test_query_ratio_same_order(self):
        # both routes' query counts stay within a factor 8 on the grid
        table = compare_scaling()
        for row in table.rows:
            ratio = row.cu_lcu / row.cu_pea
            assert 1 / 8 <= ratio <= 8

    def test_ancilla_formulas(self):
        table = compare_scaling(eps_grid=(1e-2,), delta_grid=(0.5,))
        row = table.rows[0]
        kp = select_params(1e-2 * 0.5, 0.5)
        pp = choose_pea_params(1e-2, 0.5)
        assert row.n_lcu == kp.m + 2
        assert row.n_pea == pp.n_prime * pp.q

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            compare_scaling(eps_grid=(), delta_grid=(0.5,))


# (eps, gap) cells of the per-layer checks
LAYER_CELLS = ((1e-2, 0.5), (1e-3, 0.1), (0.1, 0.02))


class TestNoDrift:
    """Closed-form models must equal the footprints the builders declare."""

    def test_lcu_model_matches_built_reflector(self):
        unitary = synth_unitary(8, 0.5, seed=7)
        eps = 1e-2
        refl = build_reflector(unitary, eps)
        model = lcu_gate_model(refl.params, refl.qft_spec)
        assert refl.ledger.two_qubit_gates == model["a_two_qubit"]
        assert refl.ledger.queries_u == model["cu_raw"]
        _, ledger = refl.entries()
        assert ledger["queries_max_power_convention"] == model["cu_max_power"]
        assert refl.n_ancilla == model["n_ancilla"]

    def test_pea_model_matches_built_reflector(self):
        unitary = synth_unitary(8, 0.5, seed=7)
        refl = build_pea_reflector(unitary, 0.2)
        model = pea_gate_model(refl.params, refl.qft_spec)
        assert refl.ledger.two_qubit_gates == model["a_two_qubit"]
        assert refl.ledger.queries_u == model["cu"]
        assert refl.n_ancilla == model["n_ancilla"]

    @staticmethod
    def _layers(refl, names):
        """Each layer's footprint by name, after checking the names, their
        order, and that each layer sits on the whole register."""
        assert [name for name, _, _ in refl.layers] == names
        total = refl.n_ancilla + refl.system_qubits
        for _, op, targets in refl.layers:
            assert len(targets) == op.num_qubits
            assert set(targets) <= set(range(total))
        return {name: op.footprint for name, op, _ in refl.layers}

    @pytest.mark.parametrize("eps,gap", LAYER_CELLS)
    def test_lcu_layers_match_model(self, eps, gap):
        refl = build_reflector(synth_unitary(8, gap, seed=7), eps)
        model = lcu_gate_model(refl.params, refl.qft_spec)
        fp = self._layers(refl, ["B", "select", "W", "R", "A"])
        assert fp["B"].two_qubit_gates == model["b_two_qubit"]
        assert fp["W"].two_qubit_gates == model["w_two_qubit"]
        assert fp["A"].two_qubit_gates == model["a_two_qubit"]
        # W = B' select B and A = W R W' R W R W' R W compose to the ledger
        assert fp["W"] == fp["B"].merge(fp["select"], fp["B"])
        assert fp["A"] == fp["W"].merge(*[fp["W"]] * 4, *[fp["R"]] * 4)
        _, ledger = refl.entries()
        max_power = model["cu_max_power"]
        assert ledger == {**fp["A"].as_dict(),
                          "queries_max_power_convention": max_power}

    @pytest.mark.parametrize("eps,gap", LAYER_CELLS)
    def test_pea_layers_match_model(self, eps, gap):
        refl = build_pea_reflector(synth_unitary(8, gap, seed=7), eps)
        model = pea_gate_model(refl.params, refl.qft_spec)
        fp = self._layers(refl, ["block", "W", "R", "A"])
        assert fp["W"].two_qubit_gates == model["w_two_qubit"]
        assert fp["A"].two_qubit_gates == model["a_two_qubit"]
        # W is q blocks and A = W' R W
        q = refl.params.q
        assert fp["W"] == fp["block"].merge(*[fp["block"]] * (q - 1))
        assert fp["A"] == fp["W"].merge(fp["R"], fp["W"])
        _, ledger = refl.entries()
        assert ledger == fp["A"].as_dict()

    def test_compare_pea_columns_match_budget(self):
        table = compare_scaling()
        for row in table.rows:
            model = pea_gate_model(*pea_budget(row.epsilon, row.delta))
            assert row.n_pea == model["n_ancilla"]
            assert row.cu_pea == model["cu"]
            assert row.cb_pea_model == model["a_two_qubit"]

    def test_csv_columns_stable(self):
        assert CSV_COLUMNS == ("epsilon", "delta", "n_lcu", "n_pea",
                               "cu_lcu", "cu_pea", "cb_lcu_model",
                               "cb_pea_model")


class TestGateCountTrends:
    """Modeled gate counts track their asymptotic forms: the ratio to the
    predicted product stays in a narrow band while the counts themselves
    span an order of magnitude across the grid."""

    GRID = [(e, d) for e in (1e-2, 1e-4, 1e-8) for d in (1e-1, 1e-2, 1e-3)]

    def test_pea_gate_trend(self):
        import math
        ratios = []
        counts = []
        for eps, delta in self.GRID:
            cb = pea_gate_model(*pea_budget(eps, delta))["a_two_qubit"]
            pred = (math.log(1 / eps) * math.log(1 / delta)
                    * math.log(math.log(1 / delta)))
            ratios.append(cb / pred)
            counts.append(cb)
        assert max(counts) / min(counts) > 5
        assert max(ratios) / min(ratios) <= 4

    def test_lcu_gate_trend(self):
        import math
        ratios = []
        counts = []
        for eps, delta in self.GRID:
            kp = select_params(eps * 0.5, delta)
            spec = QftSpec.for_budget(kp.m, eps * 0.5 / 3)
            cb = lcu_gate_model(kp, spec)["a_two_qubit"]
            pred = math.log(1 / delta) * math.log(math.log(1 / delta) / eps)
            ratios.append(cb / pred)
            counts.append(cb)
        assert max(counts) / min(counts) > 2
        assert max(ratios) / min(ratios) <= 6
