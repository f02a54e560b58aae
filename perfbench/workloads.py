"""Workload op lists generated from a seed, and the memory preflight.

Each op is the argv of one ``reflectsim.cli.run`` call. The same seed gives
the same argv lists.
"""
from __future__ import annotations

import math
import random

# Why each workload is in the benchmark.
WORKLOADS = {
    "lcu_reflect": "LCU route end to end: dense U^k builds at D=1024, a "
                   "10-column verify at D=256, a wide ancilla register at "
                   "D=16, Grover, and the classical side (kernel, prep, "
                   "compare, suite checks)",
    "pea_reflect": "PEA route: one column of 2^21-2^23 amplitudes, memory "
                   "bound; the single-vector path of the same simulator",
}

LCU_CASES = (("1024", "0.5", "1e-2", "1"),
             ("256", "0.5", "1e-3", "10"),
             ("16", "0.1", "1e-2", "10"))
PEA_DIMS = ("2", "4", "8")
SWEEP_EPS = (1e-1, 1e-2, 1e-3)
SWEEP_GAPS = (0.5, 0.1, 0.02)
# A sweep cell is the log-box [v / CELL_FACTOR, v * CELL_FACTOR] around a grid
# value, cut down to the points whose kernel size L equals the grid point's.
# The cost of kernel and prep ops follows L, so every seed does the same work
# on different numbers.
CELL_FACTOR = 1.25
CELL_DRAWS = 200
SUITE_CHECKS = ("kernel_bounds,state_prep_chain,scalar_lcu_consistency,"
                "ancilla_scaling,structural")

# reflect pea --dim 8 --eps 1e-2 peaks at 0.93 GiB over a 128 MiB state:
# apply keeps the input, a moved copy and the output of every step alive.
WORKING_COPIES = 8
# reflection_error verifies at most this many amplitudes per batch.
CHUNK_AMPLITUDES = 1 << 23


def kernel_size(eps: float, gap: float) -> int:
    from reflectsim.gaussian_kernel import select_params
    return select_params(eps, gap).L


def _draw_in_cell(rng: random.Random, eps: float, gap: float, size) -> tuple:
    want = size(eps, gap)
    spread = math.log(CELL_FACTOR)
    for _ in range(CELL_DRAWS):
        e = eps * math.exp(rng.uniform(-spread, spread))
        g = gap * math.exp(rng.uniform(-spread, spread))
        if size(e, g) == want:
            return e, g
    return eps, gap


def sweep_ops(seed: int, size=kernel_size) -> list[list[str]]:
    """The classical side: kernel and prep on one seeded point per sweep
    cell, the two scaling tables and the suite checks that need no
    system-sized state. ``size(eps, gap)`` is the kernel size L that bounds
    the sweep cells."""
    rng = random.Random(seed)
    ops = []
    for eps in SWEEP_EPS:
        for gap in SWEEP_GAPS:
            e, g = _draw_in_cell(rng, eps, gap, size)
            ops.append(["kernel", "--eps", repr(e), "--gap", repr(g)])
            ops.append(["prep", "--eps", repr(e), "--gap", repr(g)])
    return ops + [
        ["compare"],
        ["compare", "--eps-grid", "1e-2,1e-4,1e-8,1e-12",
         "--delta-grid", "0.5,0.1,1e-2,1e-3"],
        ["verify-suite", "--only", SUITE_CHECKS],
    ]


def ops_for(workload: str, seed: int, size=kernel_size) -> list[list[str]]:
    """The workload's op list."""
    s = str(seed)
    if workload == "lcu_reflect":
        ops = [["reflect", "lcu", "--dim", d, "--gap", g, "--eps", e,
                "--trials", t, "--seed", s] for d, g, e, t in LCU_CASES]
        ops.append(["grover", "--dim", "256", "--eps", "0.02", "--seed", s])
        return ops + sweep_ops(seed, size)
    if workload == "pea_reflect":
        return [["reflect", "pea", "--dim", d, "--gap", "0.5", "--eps", "1e-2",
                 "--trials", "1", "--seed", s] for d in PEA_DIMS]
    raise ValueError(f"unknown workload {workload!r}")


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def predicted_state_bytes(argv: list[str]) -> int:
    """Size of the largest dense state the op simulates:
    2^(ancilla + system) amplitudes x columns x 16 B. Ops without a system
    register (kernel, prep, compare, verify-suite subsets) predict 0."""
    from reflectsim.gaussian_kernel import select_params
    from reflectsim.lcu_reflector import DEFAULT_KERNEL_FRACTION
    from reflectsim.pea_reflector import choose_pea_params
    from reflectsim.spectral_models import grover_unitary

    if argv[0] not in ("reflect", "grover"):
        return 0
    dim = int(option(argv, "--dim"))
    eps = float(option(argv, "--eps"))
    if argv[0] == "grover":
        gap = grover_unitary(dim, 0).gap
        ancilla = select_params(eps * DEFAULT_KERNEL_FRACTION, gap).m + 2
        columns = 1
    else:
        gap = float(option(argv, "--gap"))
        if argv[1] == "lcu":
            ancilla = select_params(eps * DEFAULT_KERNEL_FRACTION, gap).m + 2
        else:
            ancilla = choose_pea_params(eps, gap).total_ancilla
        columns = int(option(argv, "--trials"))
    amplitudes = 1 << (ancilla + dim.bit_length() - 1)
    columns = min(columns, max(1, CHUNK_AMPLITUDES // amplitudes))
    return 16 * amplitudes * columns


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def refuses(predicted_bytes: int, available_bytes: int) -> bool:
    """True when the op's working set would not fit in available memory."""
    return predicted_bytes * WORKING_COPIES > available_bytes
