"""CLI contract: subcommands, formats, determinism, exit codes."""
import csv
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import reflectsim.suite as suite_mod
from reflectsim import cli
from reflectsim.cli import _build_parser, reflect_report, run
from reflectsim.core_sim import apply_batch, working_set_bytes
from reflectsim.lcu_reflector import build_reflector
from reflectsim.pea_reflector import build_pea_reflector
from reflectsim.spectral_models import synth_unitary
from reflectsim.suite import CheckResult


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _traced_call(fn):
    """(fn(), tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced(argv):
    """(exit code, tracemalloc peak in bytes) of one run."""
    return _traced_call(lambda: run(argv))


def _skip_unless_oversized():
    # gap 1e-7 gives m = 30 data qubits, so B|0> alone is 2^30 amplitudes
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if working_set_bytes(30) <= physical:
        pytest.skip("this machine could hold the 2^30-amplitude state")


def _assert_refused(capsys, argv):
    code, peak = _traced(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "GiB" in captured.err
    assert peak <= 4 * 2 ** 20
    return captured.err


class TestKernelCommand:
    def test_json_report(self, capsys):
        code, out = _capture(capsys, ["kernel", "--eps", "1e-2", "--gap", "0.5"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert abs(report["alpha_sum"] - 1) <= 1e-2
        assert report["params"]["L"] == 128

    def test_csv_table(self, capsys):
        code, out = _capture(capsys, ["kernel", "--eps", "1e-1", "--gap", "0.8",
                                      "--format", "csv"])
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))
                if r and not r[0].startswith("#")]
        assert rows[0] == ["l", "value"]
        params = [line for line in out.splitlines() if line.startswith("#")]
        assert any("kernel_gap_sup" in line for line in params)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        code = run(["kernel", "--eps", "1e-1", "--gap", "0.8",
                    "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["passed"] is True

    def test_oversized_kernel_refused(self, capsys):
        # the 2^30-entry alpha table is refused before it is allocated
        _skip_unless_oversized()
        err = _assert_refused(capsys, ["kernel", "--eps", "1e-2", "--gap", "1e-7"])
        assert "an array of 2^30 entries needs about" in err

    def test_oversized_points_refused(self, capsys):
        # 10^9 points round up to a 2^30-point grid, refused before it exists
        _skip_unless_oversized()
        err = _assert_refused(capsys, ["kernel", "--eps", "0.1", "--gap", "0.5",
                                       "--points", "1000000000"])
        assert "an array of 2^30 entries needs about" in err

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_below_one_refused(self, capsys, points):
        code = run(["kernel", "--eps", "0.1", "--gap", "0.5",
                    "--points", points])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"--points must be at least 1, got {points}" in captured.err
        assert "Traceback" not in captured.err


class TestOversizedInstance:
    """Refused before the random draw, not a numpy allocation error:
    ``reflect`` at D = 2^30 asks for eigenphase-length working arrays of
    2^30 entries, ``grover`` at D = 2^15 for D x D = 2^30-entry matrices."""

    @pytest.mark.parametrize("argv", [
        ["reflect", "lcu", "--dim", str(1 << 30), "--gap", "0.5",
         "--eps", "1e-2"],
        ["grover", "--dim", "32768", "--eps", "0.02"],
    ])
    def test_refused(self, capsys, argv):
        _skip_unless_oversized()
        err = _assert_refused(capsys, argv)
        assert "an array of 2^30 entries needs about" in err
        assert "Traceback" not in err


def _tiny_gap_argvs():
    """Gaps whose kernel size L or PEA register 2^n' is past the float
    range (or, at 1e-305, whose arrays are 2^1019 entries)."""
    for gap in ("1e-305", "1e-307", "1e-308", "4e-308", "5e-324"):
        yield ["kernel", "--eps", "0.1", "--gap", gap]
        yield ["prep", "--eps", "0.1", "--gap", gap]
        yield ["reflect", "lcu", "--dim", "2", "--gap", gap, "--eps", "0.1"]
        yield ["reflect", "pea", "--dim", "2", "--gap", gap, "--eps", "0.1"]
        if gap != "1e-305":  # compare models L without building it
            yield ["compare", "--eps-grid", "0.1", "--delta-grid", gap]


class TestTinyGap:
    """Out-of-domain gaps exit 1 with a one-line message, never with a
    traceback."""

    @pytest.mark.parametrize("argv", list(_tiny_gap_argvs()), ids=" ".join)
    def test_refused(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        # a readable size, not inf or a 300-digit number
        assert "inf" not in captured.err
        assert not re.search(r"\d{20}", captured.err)

    @pytest.mark.parametrize("gap", ["0.01", "1e-11"])
    def test_pea_ladder_refused_before_allocating(self, capsys, monkeypatch,
                                                  gap):
        # a 64 KiB machine: n' = 10 needs a 2^11-amplitude column, n' = 40
        # a 2^41-amplitude one, and the ladder alone 2^40 entries
        monkeypatch.setattr("os.sysconf", lambda name: 256)
        code, peak = _traced(["reflect", "pea", "--dim", "2", "--gap", gap,
                              "--eps", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "GiB" in captured.err
        assert "Traceback" not in captured.err
        assert peak <= 2 ** 20


class TestPrepCommand:
    def test_prep_passes(self, capsys):
        code, out = _capture(capsys, ["prep", "--eps", "1e-1", "--gap", "0.8"])
        assert code == 0
        report = json.loads(out)
        assert report["chain_error"] <= report["chain_bound"]
        assert "beta_table" in report

    def test_oversized_prep_refused(self, capsys):
        _skip_unless_oversized()
        _assert_refused(capsys, ["prep", "--eps", "1e-2", "--gap", "1e-7"])


class TestReflectCommand:
    def test_lcu_small(self, capsys):
        code, out = _capture(capsys, [
            "reflect", "lcu", "--dim", "4", "--gap", "0.8", "--eps", "1e-1",
            "--trials", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["max_error"] <= report["error_bound"]
        assert report["ledger"]["queries_max_power_convention"] == \
            5 * report["params"]["L"]

    def test_pea_small(self, capsys):
        code, out = _capture(capsys, [
            "reflect", "pea", "--dim", "2", "--gap", "1.0", "--eps", "0.2",
            "--trials", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "pea"
        assert report["max_error"] <= report["error_bound"]

    def test_lcu_gap_pi(self, capsys):
        code, out = _capture(capsys, [
            "reflect", "lcu", "--dim", "4", "--gap", repr(math.pi),
            "--eps", "1e-1"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_oversized_run_refused(self, capsys):
        # the refusal comes from B|0> on the 30 data qubits; the system
        # register is never simulated
        _skip_unless_oversized()
        _assert_refused(capsys, ["reflect", "lcu", "--dim", "2", "--gap",
                                 "1e-7", "--eps", "1e-2"])

    def test_lcu_wide_register(self, capsys):
        # 19 ancilla: the dense column would be 2^22 amplitudes, but only
        # B|0> on 17 data qubits is simulated
        code, peak = _traced(["reflect", "lcu", "--dim", "8", "--gap", "1e-3",
                              "--eps", "1e-2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"] is True
        assert report["n_ancilla"] == 19
        assert peak <= 64 * 2 ** 20

    def test_pea_beyond_dense_simulation(self, capsys):
        # 30 ancilla plus 3 system qubits: a dense column would be 2^33
        # amplitudes, the product-state verification needs 2^8 per block
        code, out = _capture(capsys, ["reflect", "pea", "--dim", "8",
                                      "--gap", "0.5", "--eps", "1e-3"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["n_ancilla"] == 30
        n_prime, q = report["params"]["n_prime"], report["params"]["q"]
        assert n_prime * q == 30
        assert report["ledger"]["queries_u"] == 2 * q * ((1 << n_prime) - 1)

    @pytest.mark.parametrize("method", ["lcu", "pea"])
    def test_dimension_not_power_of_two(self, capsys, method):
        code = run(["reflect", method, "--dim", "6", "--gap", "0.5",
                    "--eps", "0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "dimension is not a power of two" in captured.err

    @pytest.mark.parametrize("method", ["lcu", "pea"])
    def test_trials_ignored(self, capsys, method):
        # --trials still parses, for old command lines, and changes nothing
        argv = ["reflect", method, "--dim", "8", "--gap", "0.5", "--eps", "0.1"]
        code, without = _capture(capsys, argv)
        assert code == 0
        assert _capture(capsys, argv + ["--trials", "3"]) == (0, without)
        assert "trials" not in json.loads(without)

    def test_phase_only_instance_beyond_dense_basis(self, capsys):
        # the D x D basis would be 2^30 entries; reflect reads only the
        # 2^15 eigenphases
        code, peak = _traced(["reflect", "lcu", "--dim", "32768", "--gap",
                              "0.5", "--eps", "1e-2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"] is True
        assert peak <= 512 * 2 ** 20

    def test_lcu_report_allocates_no_square_array(self):
        # one D x D complex array at D = 1024 is 16 MiB
        report, peak = _traced_call(lambda: reflect_report(
            "lcu", 1024, 0.5, 1e-2, 3, 40.0, 0.5, False))
        assert report["passed"] is True
        assert peak < 16 * 2 ** 20

    def test_schema_field_compatible(self, capsys):
        _, out_l = _capture(capsys, [
            "reflect", "lcu", "--dim", "4", "--gap", "0.8", "--eps", "1e-1",
            "--trials", "1"])
        _, out_p = _capture(capsys, [
            "reflect", "pea", "--dim", "4", "--gap", "0.8", "--eps", "0.2",
            "--trials", "1"])
        rep_l, rep_p = json.loads(out_l), json.loads(out_p)
        shared = {"command", "method", "dimension", "gap", "epsilon", "seed",
                  "params", "n_ancilla", "max_error", "worst_eigenphase",
                  "error_bound", "ledger", "passed"}
        assert shared <= set(rep_l) and shared <= set(rep_p)


class TestTraceProbePaths:
    """The benchmark's traced mode applies each layer of the reflectors that
    ``reflect`` builds, reached through these attribute paths."""

    @staticmethod
    def _apply_layers(refl, layers):
        total = refl.n_ancilla + refl.system_qubits
        cols = np.zeros((1 << total, 1), dtype=np.complex128)
        cols[0] = 1.0
        for op, targets in layers:
            out = apply_batch(op, cols, total, targets)
            assert out.shape == cols.shape

    def test_lcu_layers(self):
        refl = build_reflector(synth_unitary(2, 1.0, seed=3), 0.2)
        anc = tuple(range(refl.n_ancilla))
        self._apply_layers(refl, [(refl.b.op, anc), (refl.select.op, None),
                                  (refl.w, None), (refl.r, anc), (refl.a, None)])

    def test_pea_layers(self):
        refl = build_pea_reflector(synth_unitary(2, 1.0, seed=3), 0.2)
        assert not hasattr(refl, "select")
        block, targets = refl.w.steps[0]
        self._apply_layers(refl, [(block, targets), (refl.w, None),
                                  (refl.a, None)])


class TestCompareCommand:
    def test_csv_columns(self, capsys):
        code, out = _capture(capsys, ["compare", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["epsilon", "delta", "n_lcu", "n_pea", "cu_lcu",
                           "cu_pea", "cb_lcu_model", "cb_pea_model"]
        assert len(rows) == 1 + 9

    def test_json_claims(self, capsys):
        code, out = _capture(capsys, ["compare"])
        assert code == 0
        report = json.loads(out)
        assert all(report["claims"].values())


class TestGroverCommand:
    def test_small_benchmark(self, capsys):
        code, out = _capture(capsys, ["grover", "--dim", "16", "--eps", "0.05"])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] <= report["nu_envelope"]
        assert report["s_reflection_defect"] <= 1e-10
        assert report["exact_target_fidelity"] == pytest.approx(1.0, abs=1e-10)


class TestContract:
    def test_usage_error_unknown_flag(self):
        assert run(["kernel", "--nope", "1"]) == 1

    def test_usage_error_bad_value(self):
        assert run(["kernel", "--eps", "0.9", "--gap", "0.5"]) == 1

    @pytest.mark.parametrize("argv", [
        ["kernel", "--eps", "1e-2", "--gap", "0.5", "--c", "nan"],
        ["reflect", "lcu", "--dim", "8", "--gap", "0.5", "--eps", "1e-2",
         "--c", "inf"],
    ])
    def test_non_finite_c(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "c must be finite" in captured.err
        assert "Traceback" not in captured.err

    def test_usage_error_no_command(self):
        assert run([]) == 1

    def test_unwritable_output_path(self):
        assert run(["kernel", "--eps", "1e-1", "--gap", "0.8",
                    "--out", "/nonexistent-dir/report.json"]) == 1

    def test_assertion_failure_exits_two(self, monkeypatch):
        failing = ("always_fails",
                   lambda: CheckResult("always_fails", False, {}))
        monkeypatch.setattr(suite_mod, "ALL_CHECKS", (failing,))
        assert run(["verify-suite"]) == 2

    def test_deterministic_reports(self, capsys):
        argv = ["reflect", "lcu", "--dim", "4", "--gap", "0.8",
                "--eps", "1e-1", "--trials", "2", "--seed", "3"]
        _, first = _capture(capsys, argv)
        _, second = _capture(capsys, argv)
        assert first == second
        # check timings stay out of the suite report
        argv = ["verify-suite", "--only", "kernel_bounds,ancilla_scaling"]
        _, first = _capture(capsys, argv)
        _, second = _capture(capsys, argv)
        assert first == second

    def test_parser_built_once(self, capsys):
        # a usage error between two runs leaves the shared parser intact
        assert _build_parser() is _build_parser()
        argv = ["reflect", "pea", "--dim", "2", "--gap", "1.0",
                "--eps", "0.2", "--trials", "1"]
        code, first = _capture(capsys, argv)
        assert code == 0
        assert run(["reflect", "lcu", "--gap", "0.5", "--eps", "1e-2"]) == 1
        assert "--dim" in capsys.readouterr().err
        code, again = _capture(capsys, argv)
        assert code == 0
        assert again == first

    def test_suite_subset(self, capsys):
        code, out = _capture(capsys, ["verify-suite", "--only",
                                      "ancilla_scaling"])
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["name"] == "ancilla_scaling"

    def test_suite_unknown_check(self, capsys):
        code = run(["verify-suite", "--only", "ancilla_scaling,nosuch"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "nosuch" in captured.err
        assert all(name in captured.err for name, _ in suite_mod.ALL_CHECKS)

    def test_every_json_roundtrips(self, capsys):
        for argv in (["kernel", "--eps", "1e-1", "--gap", "0.8"],
                     ["compare"],
                     ["grover", "--dim", "16", "--eps", "0.05"]):
            _, out = _capture(capsys, argv)
            assert json.loads(out)


BUILTIN_LEAVES = (bool, int, float, str, type(None))


def _non_builtin_leaves(value, path="report"):
    """(path, type name) of every leaf of a report whose type is not one of
    BUILTIN_LEAVES exactly; numpy floats subclass float, so isinstance
    would let them through."""
    if isinstance(value, dict):
        found = [(f"{path} key {k!r}", type(k).__name__)
                 for k in value if type(k) is not str]
        for k, v in value.items():
            found += _non_builtin_leaves(v, f"{path}.{k}")
        return found
    if isinstance(value, (list, tuple)):
        return [leaf for i, v in enumerate(value)
                for leaf in _non_builtin_leaves(v, f"{path}[{i}]")]
    return [] if type(value) in BUILTIN_LEAVES else [(path, type(value).__name__)]


class TestBuiltinReports:
    """Reports are built from builtin types at the source, so json.dumps
    writes them as they stand."""

    @pytest.mark.parametrize("build", [
        lambda: cli.kernel_report(1e-3, 0.05, 40.0, 1000),
        lambda: cli.prep_report(1e-2, 0.5, 40.0, False),
        lambda: cli.prep_report(1e-2, 0.5, 40.0, True),
        lambda: reflect_report("lcu", 8, 0.5, 1e-2, 7, 40.0, 0.5, False),
        lambda: reflect_report("lcu", 8, 0.5, 1e-2, 7, 40.0, 0.5, True),
        lambda: reflect_report("pea", 2, 1.0, 0.2, 7, 40.0, 0.5, False),
        lambda: reflect_report("pea", 4, 1.0, 0.2, 7, 40.0, 0.5, True),
        lambda: cli.compare_report((1e-2, 1e-4, 1e-8), (0.5, 0.1, 1e-2), 40.0),
        lambda: cli.grover_benchmark(64, 0.02, 7),
    ], ids=["kernel", "prep", "prep_exact_qft", "reflect_lcu",
            "reflect_lcu_exact_qft", "reflect_pea", "reflect_pea_exact_qft",
            "compare", "grover"])
    def test_report_leaves_builtin(self, build):
        assert _non_builtin_leaves(build()) == []

    def test_full_suite_leaves_builtin(self):
        # the checks' own results, which verify-suite reports unchanged
        results = suite_mod.run_all()
        assert [r.name for r in results] == [n for n, _ in suite_mod.ALL_CHECKS]
        leaves = [leaf for r in results for leaf in _non_builtin_leaves(
            {"passed": r.passed, "details": r.details}, r.name)]
        assert leaves == []
        report = cli.suite_report(None)
        assert _non_builtin_leaves(report) == []


class TestDocumentedInvocations:
    """The exact invocations promised by the interface docs."""

    def test_reflect_lcu_dim8(self, capsys):
        code, out = _capture(capsys, [
            "reflect", "lcu", "--dim", "8", "--gap", "0.5", "--eps", "1e-2"])
        assert code == 0
        assert json.loads(out)["max_error"] <= 0.1

    def test_grover_dim64(self, capsys):
        code, out = _capture(capsys, ["grover", "--dim", "64",
                                      "--eps", "0.05"])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] <= report["nu_envelope"]
        assert report["s_reflection_defect"] <= 1e-10

    def test_kernel_csv_alpha_sums(self, capsys):
        code, out = _capture(capsys, ["kernel", "--eps", "1e-3",
                                      "--gap", "0.05", "--format", "csv"])
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out))
                if r and not r[0].startswith("#") and r[0] != "l"]
        total = sum(float(v) for _, v in rows)
        assert 1 - 1e-3 <= total <= 1 + 1e-3
