"""Witness series bounds, seminorms, and class membership."""

import json
import math

import pytest

from wcalc import (
    FAILS,
    HOLDS,
    DerivBounds,
    InvalidParameterError,
    PreconditionError,
    classify_membership,
    linear_exponents,
    load_bounds_csv,
    load_bounds_json,
    ptt_matrix,
    regularize_slc,
    scale_family,
    seminorm,
    seminorm_trajectory,
    synthetic_bounds,
    table,
    theta_bounds,
    theta_derivative_log_bound,
    theta_eval,
)
from wcalc import witness
from wcalc.config import THETA_COUNT_CAP, THETA_TERM_CAP

LN2 = math.log(2.0)


def test_deriv_bounds_validation():
    b = DerivBounds((0.0, 1.0, 3.0), label="demo")
    assert b.top_index() == 2
    assert b.to_json() == {"label": "demo", "source": "user",
                           "bounds": [0.0, 1.0, 3.0]}
    with pytest.raises(InvalidParameterError):
        DerivBounds(())
    with pytest.raises(InvalidParameterError):
        DerivBounds((0.0, float("inf")))
    with pytest.raises(InvalidParameterError):
        DerivBounds((0.0,), source="oracle")


def test_synthetic_bounds(g2):
    f = synthetic_bounds(g2, 16)
    assert f.source == "synthetic"
    assert f.top_index() == 16
    assert f.bounds[7] == g2.log_term(7)
    with pytest.raises(InvalidParameterError):
        synthetic_bounds(g2, -1)


def test_load_bounds_csv(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("j,log_bound\n2,5.0\n0,0.0\n1,1.5\n")
    f = load_bounds_csv(str(path))
    assert f.bounds == (0.0, 1.5, 5.0)
    assert f.source == "user"
    gap = tmp_path / "gap.csv"
    gap.write_text("j,log_bound\n0,0.0\n2,5.0\n")
    with pytest.raises(InvalidParameterError):
        load_bounds_csv(str(gap))
    empty = tmp_path / "empty.csv"
    empty.write_text("j,log_bound\n")
    with pytest.raises(InvalidParameterError):
        load_bounds_csv(str(empty))
    # a negative order is an error, not a row left out
    negative = tmp_path / "negative.csv"
    negative.write_text("j,log_bound\n0,0.0\n1,1.5\n-3,9.0\n")
    with pytest.raises(InvalidParameterError, match="negative.csv"):
        load_bounds_csv(str(negative))


def test_load_bounds_json(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps([0.0, 1.0, 2.5]))
    f = load_bounds_json(str(plain))
    assert f.bounds == (0.0, 1.0, 2.5)
    rich = tmp_path / "rich.json"
    rich.write_text(json.dumps(
        {"bounds": [0.0, 2.0], "label": "probe", "source": "theta"}))
    g = load_bounds_json(str(rich))
    assert g.label == "probe" and g.source == "theta"


# --- witness series ---------------------------------------------------------


def test_theta_at_zero_matches_direct_sum(g1):
    re, im = theta_eval(g1, 0.0, 40)
    want = math.fsum(
        math.exp(math.lgamma(j + 1) - j * (LN2 + (math.log(j) if j else 0.0)))
        for j in range(41))
    assert im == 0.0
    assert re == pytest.approx(want, rel=1e-12)
    assert re == pytest.approx(1.660137747076813, abs=1e-12)


def test_theta_modulus_bound(g1):
    # lc + normalized force term moduli below 2^-j: the sum stays below 2
    for i in range(100):
        t = -5.0 + 0.1 * i
        re, im = theta_eval(g1, t, 40)
        assert math.hypot(re, im) <= 2.0 + 2.0 ** -40 + 1e-12


def test_theta_truncation_tail_budget(g1):
    a = theta_eval(g1, 1.5, 50)
    b = theta_eval(g1, 1.5, 60)
    assert abs(a[0] - b[0]) <= 2.0 ** -49
    assert abs(a[1] - b[1]) <= 2.0 ** -49


def test_theta_phase_guard_extreme_argument(g2):
    # at huge |t| the largest frequencies would overflow exp; the guard
    # drops only terms already below the truncation budget
    re, im = theta_eval(g2, 1e300, 60)
    assert math.isfinite(re) and math.isfinite(im)
    assert math.hypot(re, im) <= 2.0 + 1e-9


def test_theta_preconditions_and_validation(g1):
    humped = table(log_values=[0.0, 1.0, 3.0, 4.0, 6.0, 9.0, 12.5, 17.0,
                               22.0, 28.0, 35.0])
    with pytest.raises(PreconditionError):
        theta_eval(humped, 1.0, 10)
    denorm = table([2.0, 3.0, 9.0, 81.0, 1e4, 1e6])
    with pytest.raises(PreconditionError):
        theta_eval(denorm, 1.0, 5)
    with pytest.raises(InvalidParameterError):
        theta_eval(g1, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        theta_eval(g1, float("inf"), 10)


def test_derivative_bound_dominates_terms(g1, g2, p12):
    # the k-th term of the log-sum is exactly log N_k; the sum can only add
    for n in (g1, g2, regularize_slc(p12, 128)):
        for k in range(51):
            assert theta_derivative_log_bound(n, k) >= n.log_term(k)


def test_derivative_bound_frozen_value(g2):
    got = theta_derivative_log_bound(g2, 5)
    assert got == pytest.approx(10.958740450508552, abs=1e-12)
    assert got >= 2.0 * math.lgamma(6.0)


def test_derivative_bound_validation(g1):
    with pytest.raises(InvalidParameterError):
        theta_derivative_log_bound(g1, -1)
    with pytest.raises(InvalidParameterError):
        theta_derivative_log_bound(g1, 10, truncation=15)
    # explicit truncation above the floor is accepted
    v = theta_derivative_log_bound(g1, 10, truncation=25)
    assert v >= g1.log_term(10)


def test_theta_count_past_its_ceiling_raises_before_any_bound(g1, monkeypatch):
    monkeypatch.setattr(witness, "theta_derivative_log_bound",
                        lambda *a: pytest.fail("a bound was computed"))
    with pytest.raises(InvalidParameterError, match="need count <= 4096"):
        theta_bounds(g1, THETA_COUNT_CAP + 1)


def test_theta_work_past_its_ceiling_raises_before_any_bound(g1, monkeypatch):
    # THETA_TERM_CAP = 4097 * 2099: the largest default call's term reads
    calls = []
    monkeypatch.setattr(witness, "theta_derivative_log_bound",
                        lambda n, k, truncation: calls.append(k) or 0.0)
    assert THETA_TERM_CAP == sum(k + 51 for k in range(THETA_COUNT_CAP + 1))
    assert len(theta_bounds(g1, THETA_COUNT_CAP, 2098).bounds) == 4097
    assert len(theta_bounds(g1, 0, THETA_TERM_CAP - 1).bounds) == 1
    calls.clear()
    for count, truncation in [(THETA_COUNT_CAP, 2099), (0, THETA_TERM_CAP),
                              (4096, 1_000_000)]:
        with pytest.raises(InvalidParameterError,
                           match=r"truncation: need \(count \+ 1\) \* "
                                 r"\(truncation \+ 1\) <= 8599603"):
            theta_bounds(g1, count, truncation)
    assert calls == []


def test_theta_bounds_dataset(g1):
    f = theta_bounds(g1, 12)
    assert f.source == "theta"
    assert f.top_index() == 12
    assert f.label.startswith("theta(")


# --- seminorms --------------------------------------------------------------


def test_seminorm_exact_saturation(g2):
    f = synthetic_bounds(g2, 64)
    assert seminorm(f, g2, None, 1.0) == 0.0


def test_seminorm_h_monotone(g1):
    f = theta_bounds(g1, 40)
    s_half = seminorm(f, g1, None, 0.5)
    s_two = seminorm(f, g1, None, 2.0)
    s_four = seminorm(f, g1, None, 4.0)
    assert s_half >= s_two >= s_four
    assert s_two < 1.0
    with pytest.raises(InvalidParameterError):
        seminorm(f, g1, None, 0.0)


def test_seminorm_trajectory_respects_table_length(g1):
    f = synthetic_bounds(g1, 40)
    short = table(log_values=[0.0, 0.0, 1.0, 3.0, 6.0, 10.0])
    vals = seminorm_trajectory(f, short, linear_exponents(), 1.0)
    assert len(vals) == 6


# --- membership -------------------------------------------------------------


@pytest.fixture(scope="module")
def ptt_mm():
    return ptt_matrix(1.0, 2.0)


def test_membership_separates_flavors(ptt_mm):
    f = synthetic_bounds(ptt_mm.element(2.0), 128)
    rep = classify_membership(f, ptt_mm)
    assert rep.roumieu.status == HOLDS
    assert rep.roumieu.witness == (0.5, 4.0)  # seminorm enters through c*h
    assert rep.beurling.status == FAILS
    assert rep.beurling.witness == (0.0625, 0.5)
    # every cell with c*h >= 2 saturates the defining element exactly
    for c, h in ((2.0, 1.0), (1.0, 2.0), (4.0, 1.0), (2.0, 4.0)):
        assert rep.table[(c, h)]["stabilized"], (c, h)


def test_membership_factorial_data_in_both(ptt_mm):
    f = synthetic_bounds(table(log_values=[math.lgamma(j + 1)
                                           for j in range(129)]), 128)
    rep = classify_membership(f, ptt_mm)
    assert rep.roumieu.status == HOLDS
    assert rep.beurling.status == HOLDS
    assert rep.beurling.witness == 0.0625


def test_membership_json_layout(ptt_mm):
    f = synthetic_bounds(ptt_mm.element(1.0), 64)
    rep = classify_membership(f, ptt_mm, index_grid=(0.5, 1.0, 2.0))
    d = rep.to_json()
    assert set(d) == {"subject", "roumieu", "beurling", "table"}
    assert len(d["table"]) == 3 * 4
    cell = d["table"][0]
    assert {"c", "h", "sup", "stabilized"} <= set(cell)


def test_membership_validation(ptt_mm):
    # the Beurling cells sit at the first index, so the grid must ascend
    f = synthetic_bounds(ptt_mm.element(1.0), 32)
    for grid in [(), (4.0, 2.0, 1.0), (1.0, 1.0, 2.0), (1.0, -2.0),
                 (1.0, math.inf)]:
        with pytest.raises(InvalidParameterError) as err:
            classify_membership(f, ptt_mm, index_grid=grid)
        assert err.value.field == "index_grid"


def test_membership_with_theta_data(g1):
    mm = scale_family(g1, linear_exponents(), (0.5, 1.0, 2.0, 4.0))
    f = theta_bounds(g1, 40)
    rep = classify_membership(f, mm)
    assert rep.roumieu.status == HOLDS
