"""Run one CLI op and decide whether it failed.

An op fails when it raises, exits non-zero (the report's ``passed`` is false
or the arguments were refused), reports ``passed: false``, or carries a
ledger that differs from the exact count in ``golden_ledgers.json``.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_ledgers.json"
LEDGER_COMMANDS = ("reflect", "grover")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def ledger_key(argv: list[str]) -> str:
    """The op without its seed: ledgers do not depend on the instance."""
    if "--seed" in argv:
        i = argv.index("--seed")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


def ledger_drift(argv: list[str], report: dict, golden: dict) -> str | None:
    """Why the report's counts differ from the golden ones, or None."""
    expected = golden.get(ledger_key(argv))
    if expected is None:
        return f"no golden ledger for {ledger_key(argv)!r}"
    for field, want in expected.items():
        got = report.get(field) if field == "n_ancilla" else \
            report.get("ledger", {}).get(field)
        if got != want:
            return f"ledger drift: {field} is {got}, exact count {want}"
    return None


def run_op(run, argv: list[str], golden: dict) -> tuple[float, dict | None, str | None]:
    """(seconds inside ``run``, parsed report, failure reason or None)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = run(list(argv))
    except Exception as exc:  # a raising op is one failed op; the run goes on
        return time.perf_counter() - start, None, \
            f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, None, f"exit code {code}"
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return seconds, None, "report is not JSON"
    if report.get("passed") is not True:
        return seconds, report, "report not passed"
    if argv[0] in LEDGER_COMMANDS:
        return seconds, report, ledger_drift(argv, report, golden)
    return seconds, report, None
