"""Command-line entry point.

Subcommands: kernel, prep, reflect lcu, reflect pea, compare, grover,
verify-suite. Reports go to stdout or --out as JSON (default) or CSV.
Exit codes: 0 all embedded assertions pass, 2 an assertion failed,
1 usage error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import accounting
from .gaussian_kernel import (
    DEFAULT_C,
    SUP_POINTS,
    alpha_coeffs,
    kernel_sup_on_gap,
    kernel_value,
    psi_amplitudes,
    select_params,
)
from .lcu_reflector import (
    DEFAULT_KERNEL_FRACTION,
    build_reflector,
    oaa_column,
    worst_case,
)
from .pea_reflector import build_pea_reflector
from .spectral_models import exact_reflection, grover_unitary, synth_unitary
from .state_prep import QftSpec, build_B, prep_qft_spec

USAGE_ERROR = 1
ASSERTION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the report contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="reflectsim",
                     description="Approximate reflection operators: build, "
                                 "simulate, verify, and count resources.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_kernel = sub.add_parser("kernel", help="kernel parameters and bounds")
    p_kernel.add_argument("--eps", type=float, required=True)
    p_kernel.add_argument("--gap", type=float, required=True)
    p_kernel.add_argument("--c", type=float, default=DEFAULT_C)
    p_kernel.add_argument("--points", type=int, default=SUP_POINTS)
    common(p_kernel)

    p_prep = sub.add_parser("prep", help="state-preparation chain report")
    p_prep.add_argument("--eps", type=float, required=True)
    p_prep.add_argument("--gap", type=float, required=True)
    p_prep.add_argument("--c", type=float, default=DEFAULT_C)
    p_prep.add_argument("--exact-qft", action="store_true")
    common(p_prep)

    p_reflect = sub.add_parser("reflect", help="build and verify a reflector")
    p_reflect.add_argument("method", choices=("lcu", "pea"))
    p_reflect.add_argument("--dim", type=int, required=True)
    p_reflect.add_argument("--gap", type=float, required=True)
    p_reflect.add_argument("--eps", type=float, required=True)
    p_reflect.add_argument("--seed", type=int, default=7)
    p_reflect.add_argument("--trials", type=int, default=None,
                           help="accepted and ignored: the report gives the "
                                "exact worst case over all inputs; removed "
                                "with the benchmark's use of it (ROADMAP "
                                "item 2)")
    p_reflect.add_argument("--c", type=float, default=DEFAULT_C)
    p_reflect.add_argument("--kernel-fraction", type=float,
                           default=DEFAULT_KERNEL_FRACTION)
    p_reflect.add_argument("--exact-qft", action="store_true")
    common(p_reflect)

    p_cmp = sub.add_parser("compare", help="ancilla/query/gate scaling table")
    p_cmp.add_argument("--eps-grid", default="1e-2,1e-4,1e-8")
    p_cmp.add_argument("--delta-grid", default="0.5,0.1,1e-2")
    p_cmp.add_argument("--c", type=float, default=DEFAULT_C)
    common(p_cmp)

    p_grover = sub.add_parser("grover", help="search-derived benchmark")
    p_grover.add_argument("--dim", type=int, required=True)
    p_grover.add_argument("--eps", type=float, required=True)
    p_grover.add_argument("--seed", type=int, default=7)
    common(p_grover)

    p_suite = sub.add_parser("verify-suite", help="run the acceptance checks")
    p_suite.add_argument("--only", default=None,
                         help="comma-separated check names")
    common(p_suite)
    return parser


# ---------------------------------------------------------------------------
# report assembly


def kernel_report(eps: float, gap: float, c: float = DEFAULT_C,
                  points: int = SUP_POINTS) -> dict:
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    params = select_params(eps, gap, c)
    alphas = alpha_coeffs(params)
    zero_defect = abs(kernel_value(0.0, params) - 1.0)
    sup = kernel_sup_on_gap(params, points=points)
    return {
        "command": "kernel",
        "params": dataclasses.asdict(params),
        "alpha_sum": float(np.sum(alphas)),
        "kernel_zero_defect": zero_defect,
        "kernel_gap_sup": sup,
        "alpha_table": {"lmin": -params.L, "values": alphas.tolist()},
        "passed": bool(zero_defect <= eps and sup <= eps),
    }


def prep_report(eps: float, gap: float, c: float = DEFAULT_C,
                exact_qft: bool = False) -> dict:
    params = select_params(eps, gap, c)
    spec = QftSpec.exact_for(params.m) if exact_qft else prep_qft_spec(params)
    b = build_B(params, spec)
    chain_err = float(np.linalg.norm(psi_amplitudes(params) - b.bhat_column))
    bound = eps if exact_qft else 2 * eps
    return {
        "command": "prep",
        "params": dataclasses.asdict(params),
        "qft": {"cutoff_b": spec.cutoff_b, "exact": spec.exact},
        "chain_error": chain_err,
        "chain_bound": bound,
        "s": b.s,
        "footprint": b.footprint.as_dict(),
        "beta_table": {"lmin": -params.L,
                       "values": b.beta_magnitudes.tolist()},
        "passed": bool(chain_err <= bound),
    }


def _ledger(refl) -> dict:
    """The reflector's ledger; LCU reflectors add the max-power query
    count of their five select applications."""
    ledger = refl.ledger.as_dict()
    if hasattr(refl, "select"):
        ledger["queries_max_power_convention"] = 5 * refl.select.queries_max_power
    return ledger


def reflect_report(method: str, dim: int, gap: float, eps: float, seed: int,
                   c: float = DEFAULT_C,
                   kernel_fraction: float = DEFAULT_KERNEL_FRACTION,
                   exact_qft: bool = False) -> dict:
    """Build the reflector on a seeded instance and check its exact worst
    case, max_j e_j over U's eigenvectors, against 10 eps; reads only the
    instance's eigenphases."""
    unitary = synth_unitary(dim, gap, seed)
    if method == "lcu":
        refl = build_reflector(unitary, eps, c=c,
                               kernel_fraction=kernel_fraction,
                               exact_qft=exact_qft)
    else:
        refl = build_pea_reflector(unitary, eps, exact_qft=exact_qft)
    err, worst_phase = worst_case(refl)
    return {
        "command": "reflect",
        "method": method,
        "dimension": dim, "gap": gap, "epsilon": eps, "seed": seed,
        "params": dataclasses.asdict(refl.params),
        **({"s": refl.s} if method == "lcu" else {}),
        "n_ancilla": refl.n_ancilla,
        "max_error": err,
        "worst_eigenphase": worst_phase,
        "error_bound": 10 * eps,
        "ledger": _ledger(refl),
        "passed": bool(err <= 10 * eps),
    }


def compare_report(eps_grid, delta_grid, c: float = DEFAULT_C) -> dict:
    table = accounting.compare_scaling(eps_grid, delta_grid, c=c)
    return {
        "command": "compare",
        "rows": [dataclasses.asdict(r) for r in table.rows],
        "claims": dict(table.claims),
        "passed": bool(table.passed),
    }


def grover_benchmark(dim: int, eps: float, seed: int) -> dict:
    """Reflect over the search target with the LCU route, from |s>:
    nu = 1 - |<0, marked|A|0, s>|^2 against 4 (1/sqrt(D) + 10 eps)^2, and
    the exact reflection's |<s|R|s>|."""
    rng = np.random.default_rng(seed)
    marked = int(rng.integers(dim))
    inst = grover_unitary(dim, marked)
    u = inst.unitary
    s_defect = float(abs(inst.s_state @ (exact_reflection(u) @ inst.s_state)))
    refl = build_reflector(u, eps)
    a0, _ = oaa_column(refl.w_amplitudes())
    # back to the computational basis for the marked amplitude
    hit = u.eigenbasis[marked] @ (a0 * u.to_eigenbasis(inst.s_state))
    nu = float(1 - abs(hit) ** 2)
    envelope = 4 * (1 / math.sqrt(dim) + 10 * eps) ** 2
    exact_hit = abs(
        (2 * np.outer(inst.psi_tilde, inst.psi_tilde.conj())
         - np.eye(dim)) @ inst.s_state
    )[marked]
    return {
        "command": "grover",
        "dimension": dim, "epsilon": eps, "seed": seed, "marked": marked,
        "gap": inst.gap,
        "nu": nu,
        "nu_envelope": envelope,
        "s_reflection_defect": s_defect,
        "exact_target_fidelity": float(exact_hit ** 2),
        "ledger": _ledger(refl),
        "passed": bool(nu <= envelope and s_defect <= 1e-10),
    }


def suite_report(only) -> dict:
    # imported here: the suite's checks read this module's report builders
    from . import suite
    names = set(only.split(",")) if only else None
    results = suite.run_all(names=names)
    return {
        "command": "verify-suite",
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "passed": bool(results) and all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# output


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = report.get("command")
    if cmd == "compare":
        writer.writerow(accounting.CSV_COLUMNS)
        for row in report["rows"]:
            writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in accounting.CSV_COLUMNS])
    elif cmd in ("kernel", "prep"):
        key = "alpha_table" if cmd == "kernel" else "beta_table"
        for name, value in report.items():
            if name in (key, "rows"):
                continue
            if not isinstance(value, dict):
                buf.write(f"# {name}={value!r}\n")
        writer.writerow(["l", "value"])
        table = report[key]
        for i, v in enumerate(table["values"]):
            writer.writerow([table["lmin"] + i, repr(float(v))])
    elif cmd == "verify-suite":
        writer.writerow(["name", "passed"])
        for chk in report["checks"]:
            writer.writerow([chk["name"], chk["passed"]])
    else:
        writer.writerow(["key", "value"])
        for name, value in report.items():
            if not isinstance(value, (dict, list)):
                writer.writerow([name, repr(value) if isinstance(value, float)
                                 else value])
    return buf.getvalue()


def _emit(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _to_csv(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "kernel":
            report = kernel_report(args.eps, args.gap, args.c, args.points)
        elif args.command == "prep":
            report = prep_report(args.eps, args.gap, args.c, args.exact_qft)
        elif args.command == "reflect":
            report = reflect_report(args.method, args.dim, args.gap, args.eps,
                                    args.seed, args.c, args.kernel_fraction,
                                    args.exact_qft)
        elif args.command == "compare":
            eps_grid = tuple(float(x) for x in args.eps_grid.split(","))
            delta_grid = tuple(float(x) for x in args.delta_grid.split(","))
            report = compare_report(eps_grid, delta_grid, args.c)
        elif args.command == "grover":
            report = grover_benchmark(args.dim, args.eps, args.seed)
        elif args.command == "verify-suite":
            report = suite_report(args.only)
        else:  # pragma: no cover - argparse enforces choices
            return USAGE_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    try:
        _emit(report, args.out, args.format)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report: {exc}\n")
        return USAGE_ERROR
    return 0 if report.get("passed", False) else ASSERTION_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
