"""Limit truths of the single-sequence conditions on gevrey and ptt.

Each row of data/truth_single.csv names an input, a condition, whether
the condition holds in the limit, and the source of that truth.  A
finite window may leave a row Undetermined, but a decided verdict must
equal the truth.  Rows decided wrong today are strict xfails that name
the measured verdict.  Run with -s to see the tally of verdicts by truth.
"""

import csv
import pathlib
from collections import Counter
from functools import cache

import pytest

from wcalc import FAILS, HOLDS, UNDETERMINED, check_condition, gevrey, ptt

ROWS = list(csv.DictReader(
    (pathlib.Path(__file__).parent / "data" / "truth_single.csv")
    .read_text(encoding="utf-8").splitlines()))
HORIZONS = (512, 4096)
FAMILIES = {"gevrey": gevrey, "ptt": ptt}
# (family, params, condition) -> the verdict wcalc gives at both horizons
KNOWN_WRONG = {
    ("ptt", "1:1", "beta1"): HOLDS,      # mu_Qj / mu_j -> Q, margin ~ 1/h
    ("ptt", "1:1.01", "mg"): HOLDS,      # defect ~ j^(sigma-1) ln j, slope
    ("ptt", "1:1.05", "mg"): HOLDS,      # under LOG_SLOPE_TOL in the window
}


@cache
def _sequence(family: str, params: str):
    return FAMILIES[family](*map(float, params.split(":")))


def _cases():
    for h in HORIZONS:
        for row in ROWS:
            key = (row["family"], row["params"], row["condition"])
            marks = ()
            if key in KNOWN_WRONG:
                marks = pytest.mark.xfail(
                    strict=True, reason=f"measured {KNOWN_WRONG[key]}")
            yield pytest.param(
                row, h, marks=marks,
                id=f"{key[0]}({key[1]})-{key[2]}-h{h}")


@pytest.fixture(scope="module")
def tally():
    counts = Counter()
    yield counts
    print("\ntruth table tally (horizon, truth, verdict): count")
    for key, n in sorted(counts.items()):
        print(f"  {key}: {n}")


@pytest.mark.parametrize(("row", "h"), _cases())
def test_truth_table_rows_agree_with_the_limit(row, h, tally):
    assert row["source"] in ("Komatsu 1973", "Petzsche 1988",
                             "Pilipović–Teofanov–Tomić 2016")
    truth = {"true": HOLDS, "false": FAILS}[row["truth"]]
    got = check_condition(_sequence(row["family"], row["params"]),
                          row["condition"], h).status
    tally[h, truth, got] += 1
    assert got in (truth, UNDETERMINED)
