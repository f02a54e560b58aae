"""reflectsim benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in its own fresh
process (``child.py``), one op at a time, with one BLAS thread: on a
shared host of a few cores, a second thread that waits for a descheduled
sibling made pass times spread far more than it sped them up. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` gives the per-layer metrics
from a separate traced process. Each workload's report ends with one JSON
line: correct, attempted, failed, metrics, with the metric names and units
listed in ``BENCHMARK.json``. The failed fraction is printed above it; it is
not a metric because it is 0 when everything passes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30
TOTAL_BUDGET_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


class BenchmarkError(RuntimeError):
    pass


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def spawn_child(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """(monotonic time before the spawn, the child's JSON result)."""
    command = [sys.executable, str(HERE / "child.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    """setup_s: median time from spawning a fresh process to its first op
    being ready. wall_s: median time of one pass over the op list.
    op_geomean_s: geometric mean over the op list of each op's median
    latency. A median over the op list would be the latency of whichever op
    sits in the middle, and the seeded sweep points reorder ops whose costs
    differ by half; every op weighs the same in the geometric mean, so the
    many small classical ops carry per-call overhead into it. peak_rss_mib: ru_maxrss of the workload process after its
    first pass; later passes add a few MiB of heap growth, and how many
    passes fit in a run varies with the host's speed."""
    latencies = {}
    for op in result["ops"]:
        if op["seconds"] > 0:  # refused ops did not run
            latencies.setdefault(op["op"], []).append(op["seconds"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(result["walls"]),
        "op_geomean_s": statistics.geometric_mean(
            statistics.median(v) for v in latencies.values()),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def trace_metrics(result: dict) -> dict:
    metrics = dict(result["layers"])
    metrics["trace.wall_untraced_s"] = result["wall_untraced_s"]
    metrics["trace.wall_traced_s"] = result["wall_traced_s"]
    metrics["trace.overhead_s"] = result["wall_traced_s"] - result["wall_untraced_s"]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 wanted: list, facts: dict, env: dict) -> None:
    """Measure one workload; print its report and, last, its JSON result."""
    begun = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup_samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            started, ready = spawn_child(common + ["--setup-only"], env,
                                         SETUP_TIMEOUT_S)
            setup_samples.append(ready["ready"] - started)
    remaining = TOTAL_BUDGET_S - (time.monotonic() - begun)
    started, result = spawn_child(common + (["--trace"] if trace else []),
                                  env, remaining)
    setup_samples.append(result["ready"] - started)

    computed = trace_metrics(result) if trace else end_to_end(result, setup_samples)
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise BenchmarkError(f"metrics not computed: {', '.join(missing)}")
    failed = [op for op in result["ops"] if op["failure"]]

    facts = dict(facts, numpy=result["numpy"], scipy=result["scipy"],
                 blas=result["blas"])
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {workload} seed {seed} "
          f"({'traced' if trace else 'untraced'}, closed loop, one op at a time): "
          f"{workloads.WORKLOADS[workload]}")
    for op in failed:
        print(f"  FAILED pass {op['pass']} {op['op']}: {op['failure']}")
    print(f"  {len(result['walls'])} passes, {len(result['ops'])} ops, "
          f"{len(setup_samples)} set-ups; predicted largest state "
          f"{result['predicted_state_mib']:.1f} MiB, peak RSS "
          f"{result['peak_rss_mib']:.1f} MiB, MemAvailable "
          f"{result['mem_available_mib']:.0f} MiB")
    print("  exact counts per pass: " + ", ".join(
        f"{k}={v}" for k, v in result["ledger_per_pass"].items()))
    if trace:
        print(f"  tracing overhead {computed['trace.overhead_s']:+.3f} s per pass "
              f"(traced wall {computed['trace.wall_traced_s']:.3f} s, "
              f"untraced wall {computed['trace.wall_untraced_s']:.3f} s); "
              f"spans in {result['trace_file']}")
    print(f"  {'failed_fraction':<44} {len(failed) / len(result['ops']):>16.6f} "
          f"fraction ({len(failed)}/{len(result['ops'])})")
    for m in wanted:
        print(f"  {m['name']:<44} {computed[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(result["ops"]),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "reflectsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no reflectsim sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    facts = machine_facts()
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    facts["blas_threads"] = BLAS_THREADS
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), wanted,
                     facts, env)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(1)
