"""One workload in one fresh process: a closed loop over the workload's ops.

    python3 perfbench/child.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Imports reflectsim from the checkout's ``src``, generates the op list from
the seed, runs whole passes over it until ``--seconds`` have passed, and
prints one JSON line. ``--setup-only`` stops once the first op is ready.
``--trace`` runs an untraced warm-up pass, then instruments the package and
runs traced passes (ops of the first one each followed by the
operator-application probe), then one more untraced pass to compare with.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# the layers, then the two front ends whose time is split differently below
LAYERS = ("core_sim", "gaussian_kernel", "spectral_models", "state_prep",
          "lcu_reflector", "pea_reflector", "accounting")
MODULES = LAYERS + ("suite", "cli")
TIMED = (
    "core_sim.apply", "core_sim.apply_batch", "core_sim.DenseOp_init",
    "core_sim.adjoint", "core_sim.op_matrix",
    "spectral_models.synth_unitary", "spectral_models.grover_unitary",
    "spectral_models.power_op", "spectral_models.exact_reflection",
    "gaussian_kernel.select_params", "gaussian_kernel.kernel_value",
    "gaussian_kernel.kernel_sup_on_gap",
    "state_prep.build_B", "state_prep.bhat_state", "state_prep.qft",
    "state_prep.centered_qft",
    "lcu_reflector.build_reflector", "lcu_reflector.build_select",
    "lcu_reflector.build_W", "lcu_reflector.build_A",
    "lcu_reflector.reflection_error",
    "pea_reflector.build_pea_reflector", "pea_reflector.pea_block",
    "accounting.compare_scaling",
)
CALLED = ("core_sim.apply", "core_sim.apply_batch", "core_sim.DenseOp_init",
          "spectral_models.power_op")
REPORTS = ("cli.kernel_report", "cli.prep_report", "cli.reflect_report",
           "cli.compare_report", "cli.grover_benchmark", "cli.suite_report")
KEPT = ("lcu_reflector.build_reflector", "pea_reflector.build_pea_reflector")
PROBED = tuple(f"lcu_reflector.apply_{layer}_s" for layer in ("B", "select", "W", "R", "A")) \
    + tuple(f"pea_reflector.apply_{layer}_s" for layer in ("block", "W", "A"))


# boundary counts: {span: arguments -> {counter: value}}
COUNTERS = {
    "core_sim.apply": lambda a: {
        "core_sim.apply_amplitudes": 1 << a["state"].num_qubits},
    "core_sim.apply_batch": lambda a: {
        "core_sim.apply_amplitudes":
            (1 << a["num_qubits"]) * np.shape(a["columns"])[1]},
    "gaussian_kernel.kernel_value": lambda a: {
        "gaussian_kernel.kernel_value_points": int(np.size(a["lam"]))},
    "lcu_reflector.reflection_error": lambda a: {
        "lcu_reflector.reflection_error_columns":
            a["trials"] if a["states"] is None else len(a["states"])},
}


def import_program():
    """The reflectsim package of this checkout, by short module name."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("reflectsim")
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"reflectsim imported from {package.__file__}, "
                         f"not from {SRC}")
    modules = {name: importlib.import_module(f"reflectsim.{name}")
               for name in MODULES}
    return package, modules


def input_batch(total_qubits: int, system_qubits: int, columns: int, seed: int):
    """Haar system vectors with every ancilla in |0>, one per column."""
    rng = np.random.default_rng(seed)
    d = 1 << system_qubits
    cols = np.zeros((1 << total_qubits, columns), dtype=np.complex128)
    xi = rng.normal(size=(d, columns)) + 1j * rng.normal(size=(d, columns))
    cols[:d] = xi / np.linalg.norm(xi, axis=0)
    return cols


def probe(apply_batch, reflector, argv) -> dict:
    """Seconds of apply_batch per layer of the reflector on one batch."""
    total = reflector.n_ancilla + reflector.system_qubits
    columns = 1 if argv[0] == "grover" else int(workloads.option(argv, "--trials"))
    columns = min(columns, max(1, workloads.CHUNK_AMPLITUDES >> total))
    cols = input_batch(total, reflector.system_qubits, columns,
                       int(workloads.option(argv, "--seed")))
    anc = tuple(range(reflector.n_ancilla))
    if hasattr(reflector, "select"):
        prefix = "lcu_reflector"
        layers = {"B": (reflector.b.op, anc), "select": (reflector.select.op, None),
                  "W": (reflector.w, None), "R": (reflector.r, anc),
                  "A": (reflector.a, None)}
    else:
        prefix = "pea_reflector"
        block, targets = reflector.w.steps[0]
        layers = {"block": (block, targets), "W": (reflector.w, None),
                  "A": (reflector.a, None)}
    out = {}
    for name, (op, targets) in layers.items():
        start = time.perf_counter()
        apply_batch(op, cols, total, targets)
        out[f"{prefix}.apply_{name}_s"] = time.perf_counter() - start
    return out


def layer_metrics(recorder: spans.Recorder, passes: int) -> dict:
    """Per-pass self times, calls and boundary counts from the traced passes."""
    seconds, calls = spans.totals(recorder.spans)
    out = {f"{name}_s": seconds.get(name, 0.0) for name in TIMED}
    out.update({f"{name}_calls": calls.get(name, 0) for name in CALLED})
    for module in LAYERS:
        out[f"{module}.self_s"] = sum(v for k, v in seconds.items()
                                      if k.startswith(module + "."))
    out["cli.report_s"] = sum(seconds.get(name, 0.0) for name in REPORTS)
    out["cli.overhead_s"] = seconds.get("cli.run", 0.0)
    out["suite.check_s"] = sum(v for k, v in seconds.items()
                               if k.startswith("suite."))
    for key in ("core_sim.apply_amplitudes", "gaussian_kernel.kernel_value_points",
                "lcu_reflector.reflection_error_columns"):
        out[key] = recorder.counts.get(key, 0)
    out = {k: v / passes for k, v in out.items()}
    out["core_sim.state_bytes_peak"] = 16 * recorder.peaks.get(
        "core_sim.apply_amplitudes", 0)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ledger_totals(reports) -> dict:
    ledgers = [r for r in reports if r and "ledger" in r]
    return {
        "accounting.queries_u": sum(r["ledger"]["queries_u"] for r in ledgers),
        "accounting.two_qubit_gates":
            sum(r["ledger"]["two_qubit_gates"] for r in ledgers),
        "accounting.ancilla_qubits_max":
            max((r.get("n_ancilla", 0) for r in ledgers), default=0),
    }


class Loop:
    """Runs passes over the planned ops and keeps every op's outcome."""

    def __init__(self, cli, plan, golden):
        self.cli = cli
        self.plan = plan
        self.golden = golden
        self.ops = []
        self.walls = []

    def one_pass(self, recorder=None, after_op=None) -> list:
        reports = []
        start = time.perf_counter()
        excluded = 0.0
        for index, (argv, predicted, refused) in enumerate(self.plan):
            record = {"op": checks.ledger_key(argv), "pass": len(self.walls)}
            if refused:
                record.update(seconds=0.0, failure=(
                    f"refused: needs {predicted * workloads.WORKING_COPIES >> 20}"
                    " MiB, more than MemAvailable"))
            else:
                # cli.run is looked up per op so that a traced pass calls
                # the instrumented function
                if recorder is not None:
                    recorder.op_id = f"{len(self.walls)}:{index}"
                    with recorder.span(f"bench.{argv[0]}"):
                        result = checks.run_op(self.cli.run, argv, self.golden)
                else:
                    result = checks.run_op(self.cli.run, argv, self.golden)
                seconds, report, failure = result
                record.update(seconds=seconds, failure=failure)
                reports.append(report)
                if after_op is not None:
                    t = time.perf_counter()
                    after_op(argv)
                    excluded += time.perf_counter() - t
            self.ops.append(record)
        self.walls.append(time.perf_counter() - start - excluded)
        return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package, modules = import_program()
    ops = workloads.ops_for(args.workload, args.seed)
    available = workloads.mem_available_bytes()
    plan = []
    for op in ops:
        predicted = workloads.predicted_state_bytes(op)
        plan.append((op, predicted, workloads.refuses(predicted, available)))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "ready": ready,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "predicted_state_mib": max(p for _, p, _ in plan) / 2 ** 20,
        "mem_available_mib": available / 2 ** 20,
    }
    loop = Loop(modules["cli"], plan, checks.load_golden())
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        loop.one_pass()  # warm-up: a process's first pass runs cold
        result["peak_rss_mib"] = peak_rss_mib()
        apply_batch = modules["core_sim"].apply_batch
        recorder = spans.Recorder()
        restore = spans.instrument(recorder, {**modules, "reflectsim": package},
                                   COUNTERS, KEPT)
        probes = dict.fromkeys(PROBED, 0.0)

        def after_op(argv):
            # probe in the first traced pass only; never keep a reflector
            # alive past its op
            reflector = next((recorder.kept.pop(k) for k in KEPT
                              if k in recorder.kept), None)
            if (reflector is not None and len(loop.walls) == 1
                    and argv[0] in checks.LEDGER_COMMANDS):
                for key, value in probe(apply_batch, reflector, argv).items():
                    probes[key] += value

        reports = loop.one_pass(recorder, after_op)
        while time.perf_counter() < deadline:
            loop.one_pass(recorder, after_op)
        traced_walls = loop.walls[1:]
        restore()
        loop.one_pass()  # untraced, as warm as the traced passes
        result["wall_untraced_s"] = loop.walls[-1]
        result["wall_traced_s"] = statistics.median(traced_walls)
        metrics = layer_metrics(recorder, len(traced_walls))
        metrics.update(probes)
        metrics.update(ledger_totals(reports))
        result["layers"] = metrics
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": recorder.spans}, fh)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        reports = loop.one_pass()
        result["peak_rss_mib"] = peak_rss_mib()
        while time.perf_counter() < deadline:
            loop.one_pass()
    result["ledger_per_pass"] = ledger_totals(reports)
    result["walls"] = loop.walls
    result["ops"] = loop.ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
