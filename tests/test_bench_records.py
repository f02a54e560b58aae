"""The committed benchmark records (``BENCH_*.json``) agree with their runs.

For each workload and each end-to-end metric, each side's summary must
recompute from the runs it lists: one run per seed, the median by
``statistics.median`` and the quartiles by ``statistics.quantiles`` with
the exclusive method, as the records say they were computed. A claim of
a gain, "at least N of M pairs", must count the pairs the record holds:
M is the number of seeds, and N is at most M.
"""
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("setup_s", "wall_s", "op_geomean_s", "peak_rss_mib")
SIDES = ("parent", "change")
CLAIM_PAIRS = re.compile(r"at least (\d+) of (\d+) pairs")
# committed records whose claim fails the pair count, with the reason; the
# files stay as they were recorded
STALE_CLAIMS = {
    "BENCH_10": "claims at least 9 of 5 pairs: the record holds 5 pairs "
                "(seeds 6-10), and its claim was written for 10",
}


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


def _claims():
    for path in RECORDS:
        record = json.loads(path.read_text())
        found = CLAIM_PAIRS.search(record.get("claim") or "")
        if found:
            yield pytest.param(path.stem, record["seeds"], int(found[1]),
                               int(found[2]), id=path.stem)


@pytest.mark.parametrize("stem,seeds,wins,pairs", _claims())
def test_claim_counts_recorded_pairs(stem, seeds, wins, pairs):
    holds = pairs == len(seeds) and wins <= pairs
    # a listed record must still fail, so the exception cannot go stale
    assert holds is (stem not in STALE_CLAIMS), STALE_CLAIMS.get(stem)


def test_stale_claims_name_committed_records():
    assert set(STALE_CLAIMS) <= {path.stem for path in RECORDS}
