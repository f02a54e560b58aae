"""Tests of the benchmark's own logic: span arithmetic, instrumentation,
failure counting, end-to-end metric arithmetic, seed determinism and the
memory preflight."""
import json
import types

import pytest

import checks
import child
import run
import spans
import workloads


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_nested_children():
    rec = spans.Recorder(clock=_clock(0, 10, 30, 40, 45, 50, 70, 100))
    with rec.span("outer"):
        with rec.span("first"):
            pass
        with rec.span("second"):
            with rec.span("inner"):
                pass
    assert [s[spans.PARENT] for s in rec.spans] == [None, 0, 0, 2]
    assert spans.self_times_ns(rec.spans) == [50, 20, 25, 5]
    seconds, calls = spans.totals(rec.spans)
    assert seconds["outer"] == pytest.approx(50e-9)
    assert calls == {"outer": 1, "first": 1, "second": 1, "inner": 1}


def test_self_time_counts_overlapping_children_once():
    records = [["p", 0, 100, None, 0], ["a", 10, 60, 0, 0], ["b", 40, 80, 0, 0]]
    assert spans.self_times_ns(records)[0] == 30


def _fake_package():
    low = types.ModuleType("fake.low")
    exec("def work(n):\n    return n + 1\n", low.__dict__)
    high = types.ModuleType("fake.high")
    high.work = low.work
    exec("def top(n):\n    return work(n) * 2\n", high.__dict__)
    return low, high


def test_instrument_spans_imported_names_and_restores():
    low, high = _fake_package()
    original = low.work
    rec = spans.Recorder()
    restore = spans.instrument(
        rec, {"low": low, "high": high},
        counters={"low.work": lambda a: {"low.items": a["n"]}}, keep=("low.work",))
    assert high.top(3) == 8
    assert [s[spans.NAME] for s in rec.spans] == ["high.top", "low.work"]
    assert rec.spans[1][spans.PARENT] == 0
    assert rec.counts["low.items"] == 3 and rec.kept["low.work"] == 4
    restore()
    assert low.work is original and high.work is original


def _report(passed=True, ledger=None):
    return {"command": "reflect", "passed": passed, "n_ancilla": 10,
            "ledger": ledger or {"queries_u": 5, "two_qubit_gates": 7}}


GOLDEN = {"reflect lcu --dim 4": {"queries_u": 5, "two_qubit_gates": 7,
                                  "n_ancilla": 10}}
ARGV = ["reflect", "lcu", "--dim", "4", "--seed", "3"]


def _printing(report, code=0):
    def run(argv):
        print(json.dumps(report))
        return code
    return run


def _raising(argv):
    raise ValueError("bad gap")


@pytest.mark.parametrize("run, reason", [
    (_printing(_report()), None),
    (_printing(_report(passed=False)), "report not passed"),
    (_printing(_report(passed=False), code=2), "exit code 2"),
    (_printing(_report(ledger={"queries_u": 6, "two_qubit_gates": 7})),
     "ledger drift: queries_u is 6, exact count 5"),
    (_raising, "raised ValueError: bad gap"),
])
def test_run_op_failure_reasons(run, reason):
    _, _, failure = checks.run_op(run, ARGV, GOLDEN)
    assert failure == reason


def test_each_failure_counts_once():
    outcomes = iter([_printing(_report()), _printing(_report(passed=False)),
                     _printing(_report(ledger={"queries_u": 5,
                                               "two_qubit_gates": 8})),
                     _raising])
    cli = types.SimpleNamespace(run=lambda argv: next(outcomes)(argv))
    plan = [(ARGV, 0, False)] * 4 + [(ARGV, 1 << 40, True)]
    loop = child.Loop(cli, plan, GOLDEN)
    loop.one_pass()
    failed = [op for op in loop.ops if op["failure"]]
    assert len(loop.ops) == 5 and len(failed) == 4
    assert failed[-1]["failure"].startswith("refused")


def test_end_to_end_metrics_skip_refused_ops():
    result = {"walls": [3.0, 1.0, 2.0], "peak_rss_mib": 100.0,
              "ops": [{"op": "a", "seconds": 1.0}, {"op": "a", "seconds": 3.0},
                      {"op": "b", "seconds": 8.0}, {"op": "c", "seconds": 0.0}]}
    metrics = run.end_to_end(result, [0.5, 0.7, 0.6])
    assert metrics["setup_s"] == 0.6 and metrics["wall_s"] == 2.0
    assert metrics["op_geomean_s"] == pytest.approx(4.0)  # sqrt(2 * 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_argv_lists_follow_the_seed(workload):
    first = workloads.ops_for(workload, 11)
    assert first == workloads.ops_for(workload, 11)
    assert first != workloads.ops_for(workload, 12)


def test_sweep_cells_keep_the_grid_kernel_size():
    ops = workloads.sweep_ops(5)
    kernels = [op for op in ops if op[0] == "kernel"]
    grid = [(e, g) for e in workloads.SWEEP_EPS for g in workloads.SWEEP_GAPS]
    assert len(kernels) == len(grid)
    for op, (eps, gap) in zip(kernels, grid):
        e = float(workloads.option(op, "--eps"))
        g = float(workloads.option(op, "--gap"))
        assert workloads.kernel_size(e, g) == workloads.kernel_size(eps, gap)
        assert abs(e / eps - 1) <= workloads.CELL_FACTOR - 1


def test_golden_ledgers_cover_every_ledger_op():
    golden = checks.load_golden()
    for workload in workloads.WORKLOADS:
        for op in workloads.ops_for(workload, 0):
            if op[0] in checks.LEDGER_COMMANDS:
                assert checks.ledger_key(op) in golden


def test_memory_preflight():
    pea8 = workloads.ops_for("pea_reflect", 0)[-1]
    predicted = workloads.predicted_state_bytes(pea8)
    assert predicted == 16 << 23  # 20 ancilla + 3 system qubits, one column
    assert workloads.refuses(predicted, 512 << 20)
    assert not workloads.refuses(predicted, 8 << 30)
    assert workloads.predicted_state_bytes(["compare"]) == 0
