"""Witness series bounds, seminorms, and class membership."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

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
    WeightSequence,
    ptt_matrix,
    regularize_slc,
    scale_family,
    seminorm,
    synthetic_bounds,
    table,
    theta_bounds,
    theta_derivative_log_bound,
    theta_eval,
)
from wcalc import conditions, witness
from wcalc.config import THETA_COUNT_CAP, THETA_TERM_CAP
from wcalc.logdomain import log_sum

LN2 = math.log(2.0)


def test_deriv_bounds_validation():
    b = DerivBounds((0.0, 1.0, 3.0), label="demo")
    assert b.top_index() == 2
    assert (b.label, b.source, b.bounds) == ("demo", "user", (0.0, 1.0, 3.0))
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
    monkeypatch.setattr(witness, "_theta_log_bounds",
                        lambda *a: pytest.fail("a bound was computed"))
    with pytest.raises(InvalidParameterError, match="need count <= 4096"):
        theta_bounds(g1, THETA_COUNT_CAP + 1)


def test_theta_work_past_its_ceiling_raises_before_any_bound(g1, monkeypatch):
    # THETA_TERM_CAP = 4097 * 2099: the largest default call's term reads
    calls = []
    monkeypatch.setattr(witness, "_theta_log_bounds",
                        lambda n, orders, truncation:
                        calls.append(orders) or [0.0] * len(orders))
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


def per_order_theta_bounds(n, count, truncation=None):
    """theta_bounds as a loop over the orders, each checking lc and
    normalized at its own truncation: the oracle of the one-scan check."""
    out = []
    for k in range(count + 1):
        top = k + 50 if truncation is None else truncation
        if top < k + 10:
            raise InvalidParameterError(
                "truncation", f"need truncation >= k + 10 = {k + 10}, got {top}")
        for tag in ("lc", "normalized"):
            v = conditions.check_condition(n, tag, top)
            if not v.holds:
                raise PreconditionError(
                    f"witness series needs {tag} to hold on {n.label()} "
                    f"up to {top}; got {v.status}", witness=v.witness)
        window = n.log_terms(top)
        out.append(log_sum([window[j] + (k - j) * (LN2 + (window[j] - window[j - 1] if j else 0.0))
                            for j in range(top + 1)]))
    return tuple(out)


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type, message and witness
        return type(exc), str(exc), getattr(exc, "witness", None)


@st.composite
def theta_cases(draw):
    """(log terms, count, truncation): log-convex tables of 60..160 terms,
    normalized or not (M_0 != 1, or M_1 < M_0), some with one quotient
    drop, large or near the lc slack, mostly where a later order's
    truncation first reaches it; the counts and truncations mostly fit
    the table."""
    quotients = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=59, max_size=159)))
    head = 0.0
    denormal = draw(st.sampled_from([None, None, None, "head", "first"]))
    if denormal == "head":
        head = draw(st.floats(-1.0, 1.0))
    elif denormal == "first":
        quotients[0] = -draw(st.floats(1e-6, 0.5))
    top = len(quotients)
    if draw(st.booleans()):
        truncation = None
        count = draw(st.integers(0, top - 48))
        first, last = 50, count + 50
    else:
        truncation = draw(st.integers(8, top + 2))
        count = draw(st.integers(0, truncation - 8))
        first = last = truncation
    # quotient at (0-based) is log M_{at+1} - log M_at, first read at
    # truncation at + 1; an explicit truncation has no later one
    later = range(min(first, top - 1), min(last, top)) or range(1, top)
    drop = draw(st.one_of(st.none(), st.tuples(
        st.one_of(st.sampled_from(later), st.integers(1, top - 1)),
        st.one_of(st.sampled_from([1.0, 1e-3]),
                  # in lc slacks at the drop: 1e-12 max(1, |log M_j|), j <= at + 1
                  st.sampled_from([0.5, 0.99, 1.01, 2.0]).map(lambda r: -r)))))
    logs = list(itertools.accumulate(quotients, initial=head))
    if drop is not None:
        at, size = drop
        if size < 0.0:
            size *= -1e-12 * max(1.0, max(map(abs, logs[:at + 2])))
        quotients[at] = quotients[at - 1] - size
        logs = list(itertools.accumulate(quotients, initial=head))
    return logs, count, truncation


@settings(deadline=None, max_examples=300)
@given(theta_cases())
def test_theta_bounds_checks_once_as_every_order_did(case):
    """Bit-identical bounds, or the same error with the same message and
    witness, as checking the preconditions at every order's truncation."""
    logs, count, truncation = case
    want = outcome(lambda: per_order_theta_bounds(table(log_values=logs), count,
                                                  truncation))
    got = outcome(lambda: theta_bounds(table(log_values=logs), count,
                                       truncation).bounds)
    assert got == want


def test_theta_bounds_runs_two_checks(g1, monkeypatch):
    calls = []
    real = conditions.check_condition

    def counted(m, cond, *args, **kwargs):
        calls.append((cond, *args))
        return real(m, cond, *args, **kwargs)

    monkeypatch.setattr(conditions, "check_condition", counted)
    got = theta_bounds(g1, 64).bounds
    # both checks at the first truncation, and lc once more at the last
    assert calls == [("lc", 50), ("normalized", 50), ("lc", 114)]
    monkeypatch.undo()
    assert got == per_order_theta_bounds(g1, 64)


def test_theta_bounds_match_each_order_bit_for_bit(g1, g2, p12):
    for n in (g1, g2, regularize_slc(p12, 128)):
        for truncation in (None, 60):
            got = theta_bounds(n, 40, truncation).bounds
            want = [theta_derivative_log_bound(n, k, truncation)
                    for k in range(41)]
            assert [v.hex() for v in got] == [v.hex() for v in want]


def _lc_then_bad_term(drop_at, bad_at):
    """A log-convex sequence whose quotient drops at drop_at and whose
    term at bad_at cannot be read (None: neither)."""
    def fn(j):
        if j == bad_at:
            return math.nan
        return j * j / 8.0 - (1.0 if drop_at is not None and j >= drop_at else 0.0)
    return WeightSequence("probe", {}, fn)


@pytest.mark.parametrize("drop_at, bad_at, error", [
    (70, 90, PreconditionError), (70, 71, PreconditionError),
    (70, None, PreconditionError), (30, 70, PreconditionError),
    (90, 70, InvalidParameterError), (70, 70, InvalidParameterError),
    (None, 70, InvalidParameterError)])
def test_theta_bounds_past_a_bad_term_raise_as_every_order_did(
        drop_at, bad_at, error):
    # a term that cannot be read past the first truncation: the drop or
    # the term error that the first order to reach it meets is raised
    want = outcome(lambda: per_order_theta_bounds(
        _lc_then_bad_term(drop_at, bad_at), 64))
    got = outcome(lambda: theta_bounds(_lc_then_bad_term(drop_at, bad_at),
                                       64).bounds)
    assert want[0] is error
    assert got == want


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
    vals = witness._seminorm_trajectories(f, short, linear_exponents(), (1.0,))[0]
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
