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
    psi_amplitudes,
    select_params,
    trig_poly,
)
from .lcu_reflector import (
    DEFAULT_KERNEL_FRACTION,
    build_reflector,
    worst_case,
)
from .pea_reflector import build_pea_reflector
from .spectral_models import grover_marked, grover_unitary, synth_unitary
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
                                "item 1)")
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
    zero_defect = abs(trig_poly(alphas, 0.0) - 1.0)
    sup = kernel_sup_on_gap(params, alphas, points=points)
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
    head, ledger = refl.entries()
    return {
        "command": "reflect",
        "method": method,
        "dimension": dim, "gap": gap, "epsilon": eps, "seed": seed,
        **head,
        "max_error": err,
        "worst_eigenphase": worst_phase,
        "error_bound": 10 * eps,
        "ledger": ledger,
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
    the exact reflection's |<s|R|s>| = |2 |<psi0|s>|^2 - 1|, both without
    a D-length vector.

    |s> lies in the plane of U's first two eigenvectors, with overlaps
    1/sqrt(2) and -1/sqrt(2), and their marked entries are (a + b)/sqrt(2)
    and (b - a)/sqrt(2), a = 1/sqrt(D), b = sqrt(1 - 1/D) (see
    ``grover_unitary``). So A|0, s> reads ``a_column`` at two eigenphases
    only, 0 and 2 pi - 2 theta. It is a unit vector, so nu is its weight
    off |0, marked>: the ancilla-zero part's unmarked entries lie along one
    unit vector, with amplitude -((b - a) a0(0) + (a + b) a0(1)) / 2, and
    each eigenvector adds half its weight off the ancilla zero. That is a
    sum of non-negative terms; 1 - |hit|^2 loses about log10 D digits."""
    marked = grover_marked(dim, seed)
    inst = grover_unitary(dim, marked)
    u = inst.unitary
    a = 1 / math.sqrt(dim)
    b = math.sqrt(1 - 1 / dim)
    # psi0 = (a + b, a (b - a)/b, ...)/sqrt(2), marked entry first, and
    # |s> = (a, ..., a): each holds two values, so the overlap reads pairs
    overlap = a * ((a + b) / math.sqrt(2)
                   + (dim - 1) * (a * (b - a) / b / math.sqrt(2)))
    s_defect = abs(2 * overlap ** 2 - 1)
    refl = build_reflector(u, eps)
    a0, rest = refl.a_column(u.eigenphases[:2])
    # (b - a) a0(0) + (a + b) a0(1), grouped so that the nearly cancelling
    # a0(0) + a0(1) is formed from the inputs, before any rounded product
    unmarked = b * (a0[0] + a0[1]) + a * (a0[1] - a0[0])
    nu = float(abs(unmarked) ** 2 / 4 + (rest[0] ** 2 + rest[1] ** 2) / 2)
    envelope = 4 * (1 / math.sqrt(dim) + 10 * eps) ** 2
    # <marked|(2|psi~><psi~| - 1)|s>, psi~ = (|s> + |marked>)/sqrt(2 (1 + a))
    norm = math.sqrt(2 * (1 + a))
    tilde_marked, tilde_other = (a + 1) / norm, a / norm
    exact_hit = (2 * tilde_marked
                 * (a * tilde_marked + (dim - 1) * (a * tilde_other)) - a)
    return {
        "command": "grover",
        "dimension": dim, "epsilon": eps, "seed": seed, "marked": marked,
        "gap": inst.gap,
        "nu": nu,
        "nu_envelope": envelope,
        "s_reflection_defect": s_defect,
        "exact_target_fidelity": exact_hit ** 2,
        "ledger": refl.entries()[1],
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


def _csv_pieces(report: dict):
    """The CSV text of a report in pieces: a ``kernel`` or ``prep`` table
    ``CHUNK_ENTRIES`` rows a piece, after its ``# name=value`` lines, and
    any other report in one piece."""
    cmd = report.get("command")
    if cmd in ("kernel", "prep"):
        key = "alpha_table" if cmd == "kernel" else "beta_table"
        head = "".join([f"# {name}={value!r}\n"
                        for name, value in report.items()
                        if name not in (key, "rows")
                        and not isinstance(value, dict)]) + "l,value\n"
        lmin, values = report[key]["lmin"], report[key]["values"]
        for start in range(0, len(values), CHUNK_ENTRIES):
            # what csv.writer writes for (int, float repr): neither is quoted
            yield head + "".join([
                f"{lmin + start + i},{float(v)!r}\n"
                for i, v in enumerate(values[start:start + CHUNK_ENTRIES])])
            head = ""
        if head:
            yield head
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if cmd == "compare":
        writer.writerow(accounting.CSV_COLUMNS)
        for row in report["rows"]:
            writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in accounting.CSV_COLUMNS])
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
    yield buf.getvalue()


_encode_str = json.encoder.encode_basestring_ascii
# a list longer than this is written this many entries at a time (a CSV
# table this many rows at a time), so the text of a 2L-entry coefficient
# table is never held whole
CHUNK_ENTRIES = 1 << 14


def _to_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value nested at
    ``indent``: the join of ``_json_pieces``."""
    return "".join(_json_pieces(value, indent))


def _json_pieces(value, indent: str = "", end: str = ""):
    """The text of ``_to_json(value, indent) + end`` in pieces. A list of
    more than ``CHUNK_ENTRIES`` entries in a dict comes ``CHUNK_ENTRIES``
    entries a piece, and the text between two such lists is one piece, so a
    report without one is one piece."""
    kind = type(value)
    if kind is list and len(value) > CHUNK_ENTRIES:
        inner = indent + "  "
        head = "[\n" + inner
        for start in range(0, len(value), CHUNK_ENTRIES):
            yield head + _json_items(value[start:start + CHUNK_ENTRIES], inner)
            head = ",\n" + inner
        yield "\n" + indent + "]" + end
    elif kind is dict and value and all(type(k) is str for k in value):
        inner = indent + "  "
        parts, sep = [], "{\n"
        for k, v in value.items():
            parts.append(f"{sep}{inner}{_encode_str(k)}: ")
            sep = ",\n"
            if type(v) is dict or type(v) is list and len(v) > CHUNK_ENTRIES:
                pieces = _json_pieces(v, inner)
                parts.append(next(pieces))
                for piece in pieces:
                    yield "".join(parts)
                    parts = [piece]
            else:
                parts.append(_json_text(v, inner))
        parts.append("\n" + indent + "}" + end)
        yield "".join(parts)
    else:
        yield _json_text(value, indent) + end


def _json_items(items, inner: str) -> str:
    """The entries of a list, joined as json.dumps joins them at ``inner``.
    A run of finite floats is one join of ``float.__repr__``."""
    sep = ",\n" + inner
    if type(items[0]) is float:
        try:
            text = sep.join(map(float.__repr__, items))
        except TypeError:  # a later entry is not a float
            pass
        else:
            if "n" not in text:  # no nan or inf, which json spells otherwise
                return text
    return sep.join([_json_text(v, inner) for v in items])


def _json_text(value, indent: str) -> str:
    """``_to_json(value, indent)`` as one string. The indented encoder is
    pure Python and yields every bracket, separator and leaf as its own
    string through nested generators; here each container is one join and
    the common leaves (exact str, finite float, int, bool and None) are
    written directly."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict and value and all(type(k) is str for k in value):
        return _to_json(value, indent)
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        return "[\n" + inner + _json_items(value, inner) + "\n" + indent + "]"
    # non-finite floats, subclasses, empty containers and dicts with keys
    # that json turns into strings
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit(report: dict, out: str | None, fmt: str) -> None:
    pieces = (_json_pieces(report, end="\n") if fmt == "json"
              else _csv_pieces(report))
    if out:
        with open(out, "w") as fh:
            for piece in pieces:
                fh.write(piece)
    else:
        for piece in pieces:
            sys.stdout.write(piece)


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
