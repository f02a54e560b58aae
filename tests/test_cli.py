"""CLI contract: subcommands, formats, determinism, exit codes."""
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np

import pytest

import reflectsim.suite as suite_mod
from reflectsim import cli
from reflectsim.cli import _build_parser, reflect_report, run
from reflectsim.core_sim import working_set_bytes
from reflectsim.lcu_reflector import build_reflector
from reflectsim.spectral_models import (
    grover_marked,
    grover_plane,
    grover_unitary,
)
from reflectsim.suite import CheckResult
from oracles import grover_basis, grover_hit_via_basis
from test_golden_reports import CASES as GOLDEN_CASES


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


def _skip_unless_oversized(total_qubits: int = 30):
    # gap 1e-7 gives m = 30 data qubits, so B|0> alone is 2^30 amplitudes
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if working_set_bytes(total_qubits) <= physical:
        pytest.skip(f"this machine could hold the 2^{total_qubits}-amplitude "
                    "state")


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
    2^30 entries. (``grover`` reads two eigenphases; see
    ``TestGroverCommand``.)"""

    @pytest.mark.parametrize("argv", [
        ["reflect", "lcu", "--dim", str(1 << 30), "--gap", "0.5",
         "--eps", "1e-2"],
    ])
    def test_refused(self, capsys, argv):
        _skip_unless_oversized()
        err = _assert_refused(capsys, argv)
        assert "an array of 2^30 entries needs about" in err
        assert "Traceback" not in err


def _tiny_gap_argvs():
    """Gaps whose kernel size L or PEA register 2^n' is past the float
    range (or, at 1e-305, whose kernel arrays are 2^1019 entries; the PEA
    route runs there, see ``test_pea_ladder_runs_in_small_memory``)."""
    for gap in ("1e-305", "1e-307", "1e-308", "4e-308", "5e-324"):
        yield ["kernel", "--eps", "0.1", "--gap", gap]
        yield ["prep", "--eps", "0.1", "--gap", gap]
        yield ["reflect", "lcu", "--dim", "2", "--gap", gap, "--eps", "0.1"]
        if gap != "1e-305":
            yield ["reflect", "pea", "--dim", "2", "--gap", gap,
                   "--eps", "0.1"]
            # compare models L without building it
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

    @pytest.mark.parametrize("gap", ["0.01", "1e-11", "1e-305"])
    def test_pea_ladder_runs_in_small_memory(self, capsys, monkeypatch, gap):
        # n' = 10, 40 and 1017 on a 64 KiB machine: the ladder holds no
        # 2^n'-entry table, so nothing is refused or allocated for it
        monkeypatch.setattr("os.sysconf", lambda name: 256)
        code, peak = _traced(["reflect", "pea", "--dim", "2", "--gap", gap,
                              "--eps", "0.1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert peak <= 4 * 2 ** 20


class TestTinyEps:
    """eps whose square underflows runs: q is exact without forming eps^2.
    n' is 5 at gap 0.5, so the PEA route holds 5 q ancilla. Where the LCU
    kernel cannot be chosen, the message names eps, not the (0, 1/5]
    range it lies in, nor the gap."""

    def test_reflect_pea(self, capsys):
        code, out = _capture(capsys, ["reflect", "pea", "--dim", "8",
                                      "--gap", "0.5", "--eps", "1e-160"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["params"]["q"] == 267
        assert report["n_ancilla"] == 5 * 267

    @pytest.mark.parametrize("eps,q", [("1e-160", 267), ("1e-300", 499)])
    def test_compare(self, capsys, eps, q):
        code, out = _capture(capsys, ["compare", "--eps-grid", eps,
                                      "--delta-grid", "0.5"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [row["n_pea"] for row in report["rows"]] == [5 * q]

    @pytest.mark.parametrize("argv", [
        ["reflect", "lcu", "--dim", "2", "--gap", "0.5", "--eps", "5e-324"],
        ["reflect", "lcu", "--dim", "2", "--gap", "0.5", "--eps", "1e-310"],
        ["compare", "--eps-grid", "5e-324", "--delta-grid", "0.5"],
        ["compare", "--eps-grid", "1e-310", "--delta-grid", "0.5"],
        ["kernel", "--eps", "5e-324", "--gap", "0.5"],
        ["kernel", "--eps", "1e-310", "--gap", "0.5"],
    ])
    def test_kernel_names_eps(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        eps = argv[argv.index("--eps-grid" if "compare" in argv else "--eps") + 1]
        assert captured.err.startswith(f"error: epsilon {eps} is too small")


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
        # both routes refuse in the instance, before building anything
        assert captured.err == "error: dimension is not a power of two\n"

    @pytest.mark.parametrize("argv", [
        ["reflect", "lcu", "--dim", "8", "--gap", "0.5", "--eps", "1e-2",
         "--seed", "-1"],
        ["reflect", "pea", "--dim", "8", "--gap", "0.5", "--eps", "1e-2",
         "--seed", "-1"],
        ["grover", "--dim", "16", "--eps", "0.05", "--seed", "-3"],
    ], ids=["lcu", "pea", "grover"])
    def test_negative_seed_refused(self, capsys, argv):
        # refused before the seed is split into 32-bit words, which for a
        # negative seed would never end
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: expected non-negative integer\n"

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeated_delta_counts_once(self, capsys, fmt):
        # the per-delta growth checks pair consecutive rows of one delta
        once = _capture(capsys, ["compare", "--delta-grid", "0.5",
                                 "--format", fmt])
        assert once[0] == 0
        assert _capture(capsys, ["compare", "--delta-grid", "0.5,0.5",
                                 "--format", fmt]) == once


class TestGroverCommand:
    def test_small_benchmark(self, capsys):
        code, out = _capture(capsys, ["grover", "--dim", "16", "--eps", "0.05"])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] <= report["nu_envelope"]
        assert report["s_reflection_defect"] <= 1e-10
        assert report["exact_target_fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_runs_where_a_square_basis_would_not_fit(self, capsys):
        # the D x D basis, 2^30 entries, is never drawn
        code, out = _capture(capsys, ["grover", "--dim", "32768",
                                      "--eps", "0.02"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_large_dimension_in_linear_memory(self, capsys):
        # the report reads the plane of two eigenvectors: the traced peak
        # at D = 2^20 measured 4.5 MiB, and the 8 MiB array of all D
        # eigenphases would take the whole bound
        code, peak = _traced(["grover", "--dim", "1048576", "--eps", "0.02"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert peak <= 8 * 2 ** 20

    def test_no_dimension_length_array(self, capsys):
        # D = 2^26: one D-length float array alone is 512 MiB; the kernel
        # (L = 2^17) sets the traced peak, measured at 34.1 MiB
        code, peak = _traced(["grover", "--dim", str(1 << 26),
                              "--eps", "0.02"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert peak <= 64 * 2 ** 20

    def test_runs_where_the_spectrum_would_not_fit(self, capsys):
        # the 2^30 eigenphases would need about 117 GiB of working set
        code, out = _capture(capsys, ["grover", "--dim", str(1 << 30),
                                      "--eps", "0.02"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_kernel_preflight_refuses(self, capsys):
        # at D = 2^44 and eps = 0.02 the kernel is L = 2^26, a table of
        # 2^27 entries
        _skip_unless_oversized(27)
        err = _assert_refused(capsys, ["grover", "--dim", str(1 << 44),
                                       "--eps", "0.02"])
        assert "an array of 2^27 entries needs about" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("power", [55, 1100])
    def test_dimension_past_double_precision_refused(self, capsys, power):
        # 1 - 2/D rounds to 1 from 2^55 on, and sqrt(2^1100) overflows a
        # float: both are refused before D meets a float
        code = run(["grover", "--dim", str(1 << power), "--eps", "0.02"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: dimension 2^{power} is too large: "
                                "1 - 2/D rounds to 1 in double precision\n")

    @pytest.mark.parametrize("dim", [1 << k for k in range(2, 13)])
    def test_plane_report_is_whole_spectrum_report(self, monkeypatch, dim):
        """The reflector built on ``grover_plane`` gives the entries and
        the ``a_column`` of one built on ``grover_unitary``, bit for bit, so
        every key of the report is the one the whole spectrum gives."""
        for eps in (0.2, 0.05, 0.02):
            on_plane = build_reflector(grover_plane(dim), eps)
            for seed in (1, 2, 3):
                whole = grover_unitary(dim, grover_marked(dim, seed))
                refl = build_reflector(whole, eps)
                assert on_plane.entries() == refl.entries()
                got = on_plane.a_column(on_plane.unitary.eigenphases)
                want = refl.a_column(whole.eigenphases[:2])
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
                report = json.dumps(cli.grover_benchmark(dim, eps, seed))
                with monkeypatch.context() as m:
                    m.setattr(cli, "build_reflector",
                              lambda unitary, eps: refl)
                    assert json.dumps(cli.grover_benchmark(dim, eps, seed)) \
                        == report

    @pytest.mark.parametrize("dim", ["0", "-4", "6"])
    def test_dimension_refused_before_draw(self, capsys, dim):
        code = run(["grover", "--dim", dim, "--eps", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: dimension must be a power of two >= 4\n"

    @pytest.mark.parametrize("dim", [4, 16, 64, 256, 1024])
    def test_report_accuracy(self, dim):
        for seed in range(1, 11):
            report = cli.grover_benchmark(dim, 0.02, seed)
            assert report["s_reflection_defect"] <= 1e-13
            assert report["exact_target_fidelity"] == pytest.approx(
                1.0, rel=0, abs=1e-13)
            assert report["gap"] == pytest.approx(
                2 * math.acos(1 - 2 / dim), rel=1e-15, abs=0)


    @pytest.mark.parametrize("dim", [4, 16, 64, 256, 1024])
    def test_nu_without_cancellation(self, dim):
        """nu is a sum of non-negative terms: within 1e-15 relative of a
        40-digit evaluation of that sum from the same ``a_column`` values.
        1 - |hit|^2 loses about log10 D digits, 1e-13 at D = 1024."""
        for seed in range(1, 4):
            marked = int(np.random.default_rng(seed).integers(dim))
            u = grover_unitary(dim, marked)
            a0, rest = build_reflector(u, 0.02).a_column(u.eigenphases[:2])
            nu = cli.grover_benchmark(dim, 0.02, seed)["nu"]
            with localcontext() as ctx:
                ctx.prec = 40
                a = 1 / Decimal(dim).sqrt()
                b = (1 - 1 / Decimal(dim)).sqrt()
                re_, im_ = ((b - a) * Decimal(part(a0[0]))
                            + (a + b) * Decimal(part(a0[1]))
                            for part in (np.real, np.imag))
                exact = ((re_ * re_ + im_ * im_) / 4
                         + (Decimal(rest[0]) ** 2 + Decimal(rest[1]) ** 2) / 2)
            assert abs(Decimal(nu) - exact) <= Decimal("1e-15") * exact

    @pytest.mark.parametrize("dim", [4, 16, 64, 256, 1024])
    def test_nu_from_two_eigenvectors(self, dim):
        """nu reads <0|A|0> at two eigenphases. It agrees with the
        whole-basis form, and lies within 1e-12 relative of a 40-digit
        evaluation of the two-vector form from the same <0|A|0> values;
        the whole-basis form errs by up to 2.3e-12 there at D = 1024. The
        s-reflection defect is read off the first column of the oracle
        basis as (marked entry, other entries), the pair the report uses."""
        for seed in range(1, 11):
            marked = int(np.random.default_rng(seed).integers(dim))
            u = grover_unitary(dim, marked)
            refl = build_reflector(u, 0.02)
            report = cli.grover_benchmark(dim, 0.02, seed)
            nu = report["nu"]
            via_basis = 1 - abs(grover_hit_via_basis(refl, marked)) ** 2
            assert nu == pytest.approx(via_basis, rel=1e-11, abs=0)
            psi0 = grover_basis(dim, marked)[:, 0].real
            a = 1 / math.sqrt(dim)
            # psi0[marked - 1] is unmarked (it wraps to the last entry at 0)
            overlap = a * (psi0[marked] + (dim - 1) * psi0[marked - 1])
            assert report["s_reflection_defect"] == abs(2 * overlap ** 2 - 1)
            a0, _ = refl.a_column(u.eigenphases[:2])
            with localcontext() as ctx:
                ctx.prec = 40
                a = 1 / Decimal(dim).sqrt()
                b = (1 - 1 / Decimal(dim)).sqrt()
                re_, im_ = (((a + b) * Decimal(part(a0[0]))
                             - (b - a) * Decimal(part(a0[1]))) / 2
                            for part in (np.real, np.imag))
                exact = 1 - (re_ * re_ + im_ * im_)
            assert abs(Decimal(nu) - exact) <= Decimal("1e-12") * exact


# every subcommand on small inputs, in a process that imports nothing else
_NUMPY_ONLY = """
import contextlib, io, json, sys
import reflectsim, reflectsim.cli, reflectsim.suite
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert reflectsim.cli.run(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "decimal", "_decimal")
                        or m.split(".")[:2] == ["numpy", "random"])))
"""


class TestNumpyOnly:
    def test_no_scipy_module_loaded(self):
        """No scipy, no ``numpy.random`` and no ``decimal`` module is
        loaded: seeded draws reproduce numpy.random's streams, and importing
        it adds about 6 MiB to a process; ``decimal`` is imported only to
        word a memory refusal."""
        argvs = [
            ["kernel", "--eps", "1e-1", "--gap", "0.8"],
            ["prep", "--eps", "1e-2", "--gap", "0.5"],
            ["reflect", "lcu", "--dim", "8", "--gap", "0.5", "--eps", "1e-2"],
            ["reflect", "pea", "--dim", "8", "--gap", "0.5", "--eps", "1e-2"],
            ["grover", "--dim", "16", "--eps", "0.05"],
            ["compare"],
            ["verify-suite"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY, json.dumps(argvs)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


# Domain edges of every numeric flag: non-finite, zero, negative, subnormal,
# powers of two and not. Beside running values none builds more than a few
# thousand amplitudes: the preflight refuses the LCU kernel at gaps below
# 2^-50 and eigenphase arrays of 2^40, and the PEA route, whose ladder holds
# no table, runs at gap 2^-60 with a 63-qubit register. grover reads two
# eigenphases at every dimension; its --dim edge is 2^30, which runs in
# under a second, where each 2^40 report takes about 20 s and 1.8 GiB.
_EDGES = {float: (math.nan, math.inf, -math.inf, 0.0, -0.25, -1.0, 5e-324,
                  1e-308, 2.0 ** -60, 2.0 ** -3, 0.5, 1.0, 2.0, 2.0 ** 40,
                  0.03, 0.3, 3.0),
          int: (-3, 0, 1, 2, 3, 4, 12, 64, 1000, 1024, 2 ** 40)}
_GROVER_DIM_EDGES = _EDGES[int][:-1] + (2 ** 30,)
_REFLECT = {"--dim": 8, "--gap": 0.5, "--eps": 0.1, "--seed": 7,
            "--trials": 1, "--c": 40.0, "--kernel-fraction": 0.5}
# each subcommand's numeric flags, at values that run
_COMMANDS = {
    "kernel": {"--eps": 0.1, "--gap": 0.5, "--c": 40.0, "--points": 64},
    "prep": {"--eps": 0.1, "--gap": 0.5, "--c": 40.0},
    "reflect-lcu": _REFLECT,
    "reflect-pea": _REFLECT,
    "compare": {"--eps-grid": 0.1, "--delta-grid": 0.5, "--c": 40.0},
    "grover": {"--dim": 16, "--eps": 0.1, "--seed": 7},
}


@st.composite
def _edged_argv(draw, command):
    """The subcommand with one or two numeric flags at domain edges of their
    type and the rest at their running values, so that an edge is reached
    past the other flags' checks."""
    flags = _COMMANDS[command]
    edged = draw(st.sets(st.sampled_from(sorted(flags)), min_size=1,
                         max_size=2))
    argv = command.split("-")
    for flag, running in flags.items():
        edges = (_GROVER_DIM_EDGES if (command, flag) == ("grover", "--dim")
                 else _EDGES[type(running)])
        value = draw(st.sampled_from(edges)) if flag in edged else running
        argv += [flag, repr(value)]
    return argv


class TestDomain:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None)
    @given(data=st.data())
    def test_every_input_runs_or_exits_with_a_message(self, command, data):
        """Exit 0, 1 or 2, and on 1 one ``error:`` line; an exception other
        than ValueError escapes run() and fails the test."""
        argv = data.draw(_edged_argv(command))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            lines = err.getvalue().splitlines()
            assert [line.startswith("error:") for line in lines].count(True) == 1
            assert "Traceback" not in err.getvalue()


class TestLibrarySource:
    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parents[1] / "src" / "reflectsim").glob("*.py")),
        ids=lambda path: path.name)
    def test_no_basis_and_numpy_only(self, path):
        """An instance is its eigenphases: no library module names an
        eigenbasis or numpy.linalg's eigh and qr, which build one, or a
        random module, whose streams ``spectral_models`` reproduces; and
        the library imports numpy and the standard library only.
        Docstrings are prose and do not count."""
        banned = {"eigenbasis", "power_matrix", "to_eigenbasis", "eigh", "qr",
                  "random"}
        allowed = sys.stdlib_module_names | {"numpy"}
        for node in ast.walk(ast.parse(path.read_text())):
            line = getattr(node, "lineno", None)
            names = {getattr(node, key, None)
                     for key in ("id", "attr", "name", "arg")}
            assert not names & banned, line
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] in allowed
                           for alias in node.names), line
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                assert node.module.split(".")[0] in allowed, line

    @pytest.mark.parametrize("name", ["cli.py", "suite.py"])
    def test_no_route_branches(self, name):
        """Once a reflector is built, the front ends read what both routes
        share (``entries``, ``layers``, ``a_column``): they ask no
        ``hasattr`` and reach into no route's operator tree or counts."""
        path = Path(__file__).resolve().parents[1] / "src/reflectsim" / name
        banned = {"steps", "queries_max_power", "block_leakage"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "hasattr", node.lineno
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, node.lineno


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

    def test_suite_subset_working_set(self, capsys):
        # the benchmark's verify-suite op traced 3.5 MiB while the kernel
        # check held all nine reports, the prep reports outlived their
        # checks and the centering check held whole matrices, and 2.7 MiB
        # while the structural check made the dense 8-qubit select, W and A
        # (A alone traces 2.56 MiB); with those checked one 7-qubit
        # eigenvector sector at a time it traces 2.28 MiB, set by the
        # 8-qubit truncated QFT (2.13 MiB)
        argv = ["verify-suite", "--only", "kernel_bounds,state_prep_chain,"
                "scalar_lcu_consistency,ancilla_scaling,structural"]
        assert run(argv) == 0  # first-call set-up stays out of the peak
        capsys.readouterr()
        code, peak = _traced(argv)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert peak <= 2.4 * 2 ** 20

    def test_suite_unknown_check(self, capsys):
        code = run(["verify-suite", "--only", "ancilla_scaling,nosuch"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "nosuch" in captured.err
        assert all(name in captured.err for name, _ in suite_mod.ALL_CHECKS)

    def test_suite_empty_check_name(self, capsys):
        # a trailing comma leaves an empty name, shown as ''
        code = run(["verify-suite", "--only", "kernel_bounds,"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown check(s) ''; valid checks: kernel_bounds, ")

    def test_suite_empty_only_list(self, capsys):
        # an empty list is one empty name, not "no filter"
        code = run(["verify-suite", "--only", ""])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown check(s) ''; valid checks: kernel_bounds, ")

    def test_every_json_roundtrips(self, capsys):
        for argv in (["kernel", "--eps", "1e-1", "--gap", "0.8"],
                     ["compare"],
                     ["grover", "--dim", "16", "--eps", "0.05"]):
            _, out = _capture(capsys, argv)
            assert json.loads(out)


# the golden invocations, each with JSON output
JSON_CASES = {name: [a for a in argv if a not in ("--format", "csv")]
              for name, argv in GOLDEN_CASES.items()}


class TestJsonWriter:
    """The report writer gives the bytes of ``json.dumps(report, indent=2)``."""

    @pytest.mark.parametrize("name", sorted(JSON_CASES))
    def test_golden_reports(self, capsys, monkeypatch, name):
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit",
                            lambda r, *rest: (reports.append(r), emit(r, *rest)))
        code, out = _capture(capsys, JSON_CASES[name])
        assert code == 0
        assert out == json.dumps(reports[0], indent=2) + "\n"
        # no table is longer than a chunk: the report goes out in one write
        assert len(list(cli._json_pieces(reports[0]))) == 1

    @pytest.mark.parametrize("value", [
        math.nan, [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300, 3],
        [], {}, [[]], {"a": {}, "b": []}, [True, False, 1, 2.5], [None],
        {"x": [1, [2.5, [3]], "a, b", ["c, d", 4]]}, "s, t", None, True,
        (1, 2), {"k": (1, [2.0])}, {1: 2, "1.5": [1]}, {"a": {2: [1.5]}},
        {"deep": [{"values": [1.0, 2]}, {"name": "é\n"}]},
    ])
    def test_special_values(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("odd", [False, True],
                             ids=["floats", "odd_entries"])
    @pytest.mark.parametrize("size", [-1, 0, 1, "2x+1"],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_long_tables_at_chunk_edges(self, capsys, tmp_path, size, odd):
        """Tables around the chunk length, with or without entries that
        ``float.__repr__`` does not write as json does, chunked in a dict
        and whole in a list, to stdout and to --out, give the bytes of
        json.dumps: one piece per chunk, and one per gap between tables."""
        chunk = cli.CHUNK_ENTRIES
        n = 2 * chunk + 1 if size == "2x+1" else chunk + size
        table = (np.arange(n) * (math.pi / 7) - 1e3).tolist()
        if odd:
            for i, value in enumerate((math.nan, math.inf, -math.inf, -0.0,
                                       7, True, [1.5])):
                table[i * (n - 1) // 6] = value
        report = {"command": "kernel",
                  "table": {"lmin": -(n // 2), "values": table},
                  "nested": {"list": [table]}, "passed": True}
        want = json.dumps(report, indent=2) + "\n"
        cli._emit(report, None, "json")
        assert capsys.readouterr().out == want
        path = tmp_path / "report.json"
        cli._emit(report, str(path), "json")
        assert path.read_text() == want
        pieces = list(cli._json_pieces(report))
        assert len(pieces) == (1 if n <= chunk else -(-n // chunk) + 1)

    def test_long_table_written_in_bounded_memory(self):
        # a 2^20-entry table, the size of the kernel and prep tables at
        # L = 2^19, whose text is 21 MiB: the whole-text writer traced
        # 108 MiB over such a report; this one traces 2.9 MiB, about one
        # chunk's reprs and their join
        values = (np.arange(1 << 20) * (math.pi / 7) - 1e3).tolist()
        report = {"command": "kernel", "alpha_table": {"lmin": -(1 << 19),
                                                       "values": values}}
        _, peak = _traced_call(lambda: cli._emit(report, os.devnull, "json"))
        assert peak <= 4 * 2 ** 20


def _whole_text_csv(report):
    """A kernel or prep report's CSV, built whole with csv.writer, a row a
    call."""
    key = "alpha_table" if report["command"] == "kernel" else "beta_table"
    buf = io.StringIO()
    for name, value in report.items():
        if name not in (key, "rows") and not isinstance(value, dict):
            buf.write(f"# {name}={value!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["l", "value"])
    table = report[key]
    for i, v in enumerate(table["values"]):
        writer.writerow([table["lmin"] + i, repr(float(v))])
    return buf.getvalue()


class TestCsvWriter:
    """kernel and prep tables go out CHUNK_ENTRIES rows a write, with the
    bytes of the whole-text csv.writer output."""

    @pytest.mark.parametrize("argv", [
        ["kernel", "--eps", "1e-3", "--gap", "0.05"],
        ["prep", "--eps", "1e-2", "--gap", "0.5"],
        ["prep", "--eps", "1e-3", "--gap", "0.02", "--exact-qft"],
    ], ids=["kernel", "prep", "prep_exact_qft"])
    def test_reports(self, capsys, monkeypatch, argv):
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit",
                            lambda r, *rest: (reports.append(r), emit(r, *rest)))
        code, out = _capture(capsys, argv + ["--format", "csv"])
        assert code == 0
        assert out == _whole_text_csv(reports[0])

    @pytest.mark.parametrize("command", ["kernel", "prep"])
    @pytest.mark.parametrize("size", [0, -1, 1, "2x+1", "empty"],
                             ids=["chunk", "chunk-1", "chunk+1", "2chunk+1",
                                  "empty"])
    def test_tables_at_chunk_edges(self, capsys, tmp_path, size, command):
        chunk = cli.CHUNK_ENTRIES
        n = {"2x+1": 2 * chunk + 1, "empty": 0}.get(size)
        n = chunk + size if n is None else n
        table = (np.arange(n) * (math.pi / 7) - 1e3).tolist()
        for i, value in enumerate((math.nan, math.inf, -math.inf, -0.0, 7,
                                   True, 1e-300)):
            if n:
                table[i * (n - 1) // 6] = value
        key = "alpha_table" if command == "kernel" else "beta_table"
        report = {"command": command, "params": {"L": n // 2},
                  "s": 1.5, "note": "a, b", key: {"lmin": -(n // 2),
                                                   "values": table},
                  "passed": True}
        want = _whole_text_csv(report)
        cli._emit(report, None, "csv")
        assert capsys.readouterr().out == want
        path = tmp_path / "report.csv"
        cli._emit(report, str(path), "csv")
        assert path.read_text() == want
        pieces = list(cli._csv_pieces(report))
        assert len(pieces) == max(1, -(-n // chunk))

    def test_long_table_written_in_bounded_memory(self):
        # 2^18 rows, a quarter of the table at L = 2^19 (each traced row
        # is slow): the whole-text writer traced 12.6 MiB over their 6.5 MB
        # of text, this one 2.1 MiB, about one chunk's rows and their join
        values = (np.arange(1 << 18) * (math.pi / 7) - 1e3).tolist()
        report = {"command": "prep", "beta_table": {"lmin": -(1 << 17),
                                                    "values": values}}
        _, peak = _traced_call(lambda: cli._emit(report, os.devnull, "csv"))
        assert peak <= 4 * 2 ** 20


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
