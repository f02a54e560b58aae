"""The CLI reports match reports recorded from the reference implementation.

Keys, key order, integers, strings and ledgers must match exactly; floats
to a relative 1e-12. ``max_error`` is a sum of rounded squares and may move
by at most 1e-15 absolute.
"""
import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from reflectsim.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "kernel.json": ["kernel", "--eps", "1e-3", "--gap", "0.05"],
    "prep.json": ["prep", "--eps", "1e-2", "--gap", "0.5"],
    "reflect_lcu.json": ["reflect", "lcu", "--dim", "8", "--gap", "0.5",
                         "--eps", "1e-2"],
    "reflect_pea.json": ["reflect", "pea", "--dim", "2", "--gap", "1.0",
                         "--eps", "0.2", "--trials", "2"],
    "compare.csv": ["compare", "--format", "csv"],
    "grover.json": ["grover", "--dim", "64", "--eps", "0.02"],
    "verify_suite.json": ["verify-suite"],
}


def _same(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), path
        for key in want:
            _same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if path.endswith(".max_error"):
            assert got == pytest.approx(want, rel=0, abs=1e-15), path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0), path
    else:
        assert type(got) is type(want) and got == want, path


def _csv_cells(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[json.loads(cell) for cell in row] for row in rows[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(CASES[name])
    assert code == 0
    want = (GOLDEN / name).read_text()
    if name.endswith(".csv"):
        _same(_csv_cells(out.getvalue()), _csv_cells(want))
    else:
        _same(json.loads(out.getvalue()), json.loads(want))
