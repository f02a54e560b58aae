"""The committed benchmark records (``BENCH_*.json``) agree with their runs.

For each workload and each end-to-end metric, each side's summary must
recompute from the runs it lists: one run per seed, the median by
``statistics.median`` and the quartiles by ``statistics.quantiles`` with
the exclusive method, as the records say they were computed.
"""
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("setup_s", "wall_s", "op_geomean_s", "peak_rss_mib")
SIDES = ("parent", "change")


def _summaries():
    for path in RECORDS:
        record = json.loads(path.read_text())
        for workload, metrics in record["workloads"].items():
            for metric in METRICS:
                yield pytest.param(record["seeds"], metrics[metric],
                                   id=f"{path.stem}-{workload}-{metric}")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("seeds,summary", _summaries())
def test_summary_recomputes_from_runs(seeds, summary):
    for side in SIDES:
        runs = summary[side]["runs"]
        assert len(runs) == len(seeds), side
        assert summary[side]["median"] == statistics.median(runs), side
        q1, _, q3 = statistics.quantiles(runs, n=4, method="exclusive")
        assert (summary[side]["q1"], summary[side]["q3"]) == (q1, q3), side
