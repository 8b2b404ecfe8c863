"""Witness series bounds, seminorms, and class membership."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    DerivBounds,
    InvalidParameterError,
    PreconditionError,
    TableExhaustedError,
    classify_membership,
    generic_matrix,
    gevrey,
    linear_exponents,
    load_bounds_csv,
    load_bounds_json,
    power_exponents,
    WeightSequence,
    ptt,
    ptt_matrix,
    regularize_slc,
    scale_family,
    scaled,
    seminorm,
    synthetic_bounds,
    table,
    table_exponents,
    theta_bounds,
    theta_derivative_log_bound,
    theta_eval,
)
from wcalc import conditions, sequences, witness
from wcalc.config import THETA_COUNT_CAP, THETA_TERM_CAP
from wcalc.dsl import execute, parse
from wcalc.logdomain import log_sum
from wcalc.sequences import ExponentSequence

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


def test_load_bounds_csv_rejects_a_missing_column_and_a_short_row(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("j,bound\n0,0.0\n")
    with pytest.raises(InvalidParameterError, match="need columns j, log_bound"):
        load_bounds_csv(str(path))
    path.write_text("j,log_bound\n0,0.0\n1\n")
    with pytest.raises(InvalidParameterError, match="short row"):
        load_bounds_csv(str(path))


def test_load_bounds_csv_rejects_a_repeated_order(tmp_path):
    # the later row would otherwise replace the earlier one unseen
    twice = tmp_path / "twice.csv"
    twice.write_text("j,log_bound\n0,0.0\n1,5.0\n2,1.0\n1,-3.0\n")
    with pytest.raises(InvalidParameterError) as err:
        load_bounds_csv(str(twice))
    assert err.value.field == "path"
    assert str(err.value) == (
        f"path: derivative order 1 appears twice in {twice}")


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


def test_theta_bounds_runs_two_checks(monkeypatch):
    """lc and normalized run once, at the first truncation, and lc is a
    read of the sequence's first_drop: one quotient scan at each
    truncation 50..114 and no lc check.  normalized is not rerun; a later
    truncation whose first_drop finds a drop raises lc with its witness."""
    calls, scans = [], []
    check, scan = conditions.check_condition, sequences.first_drop

    def counted(m, cond, *args, **kwargs):
        calls.append((cond, *args))
        return check(m, cond, *args, **kwargs)

    def counted_scan(values, terms):
        scans.append(len(values))
        return scan(values, terms)

    monkeypatch.setattr(conditions, "check_condition", counted)
    monkeypatch.setattr(sequences, "first_drop", counted_scan)
    got = theta_bounds(gevrey(1.0), 64).bounds
    assert calls == [("normalized", 50)]
    assert scans == list(range(50, 115))
    logs = list(itertools.accumulate(
        [0.0, *[1.0] * 79, 0.5, *[1.0] * 60], initial=0.0))
    del calls[:], scans[:]
    with pytest.raises(PreconditionError) as err:
        theta_bounds(table(log_values=logs), 64)
    assert err.value.witness == 81
    assert "needs lc to hold" in str(err.value)
    assert calls == [("normalized", 50)]
    assert scans == list(range(50, 82))
    monkeypatch.undo()
    assert got == per_order_theta_bounds(gevrey(1.0), 64)


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


def test_theta_eval_drops_the_orders_whose_phase_overflows(g1):
    """At t = 1e303 the phase 2 nu_j t of gevrey(1) would overflow from
    order 6 on: truncation 8 sums orders 0..5, as truncation 5 does."""
    got = theta_eval(g1, 1e303, 8)
    assert all(map(math.isfinite, got))
    assert got == theta_eval(g1, 1e303, 6) == theta_eval(g1, 1e303, 5)
    assert got != theta_eval(g1, 1e303, 4)


def test_theta_eval_forms_a_phase_past_exp_overflow_in_log_space():
    """scale(gevrey(1.5), j^2, c = DBL_MAX) has log nu_1 near 709.78, where
    2 nu_1 overflows though 2 nu_1 t at t = 1e-300 is about 3.6e8: the
    record holds the value a phase formed in log space gives."""
    [rec] = execute(parse("""
        seq g = gevrey(s=1.5);
        exp p = power(sigma=2);
        seq m = scale(base=g, phi=p, c=1.7976931348623157e308);
        eval theta(m, 1e-300);
    """))
    assert "error" not in rec
    t = 1e-300
    terms = scaled(gevrey(1.5), power_exponents(2.0),
                   1.7976931348623157e308).log_terms(40)
    re_parts, im_parts = [], []
    for j in range(41):
        freq = terms[j] - terms[j - 1] if j else 0.0
        log_phase = freq + math.log(2.0 * t)
        if log_phase > 700.0:
            continue
        mag = math.exp(terms[j] - j * (LN2 + freq))
        re_parts.append(mag * math.cos(math.exp(log_phase)))
        im_parts.append(mag * math.sin(math.exp(log_phase)))
    assert len(re_parts) == 2  # orders 2 on have phases past e^700
    assert rec["real"] == pytest.approx(math.fsum(re_parts), rel=1e-12)
    assert rec["imaginary"] == pytest.approx(math.fsum(im_parts), rel=1e-12)


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
    """Bounds past the end of a table raise: the sup is never taken over
    fewer orders than the bounds have."""
    short = table(log_values=[0.0, 0.0, 1.0, 3.0, 6.0, 10.0])
    with pytest.raises(TableExhaustedError):
        seminorm(synthetic_bounds(g1, 40), short, None, 1.0)
    f = synthetic_bounds(g1, 5)
    assert seminorm(f, short, None, 1.0) == max(
        b - t for b, t in zip(f.bounds, short.log_terms(5)))


def test_a_table_shorter_than_theta_bounds_is_an_error_record():
    """An 11-term table under family_scale against 41 theta bounds: the
    seminorm and the membership cells do not stop at the table's end."""
    recs = execute(parse(
        f"seq g = gevrey(s=1); seq t = table([{', '.join(['1'] * 11)}]);\n"
        "exp q = linear(); seq f = theta_bounds(g, count=40);\n"
        "matrix m = family_scale(t, q, grid=[1, 2, 4]);\n"
        "eval seminorm(f, t, q, 1);\n"
        "classify membership(f, m);\n"))
    assert [r["error"]["type"] for r in recs] == ["TableExhaustedError"] * 2


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


def test_membership_reads_phi_once(ptt_mm, monkeypatch):
    """The seminorm rows of the 13 grid elements share one read of phi
    (the elements' own windows are filled first, since a scaled element
    reads its phi block when it fills)."""
    f = synthetic_bounds(ptt_mm.element(2.0), 128)
    for c in ptt_mm.index_grid:
        ptt_mm.element(c).log_terms(128)
    reads = []
    values = ExponentSequence.values

    def counted(self, lo, hi):
        reads.append((lo, hi))
        return values(self, lo, hi)

    monkeypatch.setattr(ExponentSequence, "values", counted)
    classify_membership(f, ptt_mm)
    assert len(ptt_mm.index_grid) == 13
    assert reads == [(0, 128)]


SHORT, LONG = ([0.5 * j * j for j in range(n)] for n in (6, 12))


@pytest.mark.parametrize("phi_length", [4, 6, 9, 12, 30])
def test_membership_rows_and_errors_match_per_element_reads(phi_length):
    """Elements of different lengths under a phi table that may end below
    either: membership gives the rows, or the first error, that reading
    each element's seminorm afresh gives, and bounds past the end of an
    element or of phi raise."""
    mm = generic_matrix([(1.0, table(log_values=SHORT)),
                         (2.0, table(log_values=LONG))])
    phi = table_exponents([0.25 * j for j in range(phi_length)])
    hs = witness.DEFAULT_H_GRID
    for top in (5, 11):  # inside both elements, past the short one
        f = synthetic_bounds(table(log_values=LONG), top)
        fresh = outcome(lambda: [seminorm(f, mm.element(c), phi, h)
                                 for c in mm.index_grid for h in hs])
        got = outcome(lambda: classify_membership(f, mm, phi).to_json())
        if top == 11 or phi_length <= top:
            assert got[0] is TableExhaustedError
            assert got == fresh
        else:
            assert len(got["table"]) == 2 * len(hs)
            assert [cell["sup"] for cell in got["table"]] == fresh


def test_membership_fails_in_both_flavors_on_faster_bounds(ptt_mm):
    # j^2.2 ln j outgrows every element's j^2 ln j + j^2 ln c at every h
    rep = classify_membership(synthetic_bounds(ptt(1.0, 2.2), 128), ptt_mm)
    assert all(not cell["stabilized"] and cell["trend"] == "up"
               for cell in rep.table.values())
    assert rep.roumieu.status == FAILS and rep.roumieu.witness is None
    assert rep.roumieu.evidence == {"diverging": True}
    assert rep.beurling.status == FAILS


def test_membership_undetermined_in_both_flavors():
    """Each seminorm row sinks until a late spike sets its sup: no cell
    stabilizes and none trends up, so neither flavor is decided."""
    t = table(log_values=[math.lgamma(j + 1) for j in range(65)])
    mm = generic_matrix([(1.0, t), (2.0, scaled(t, linear_exponents(), 2.0))])
    f = DerivBounds(tuple(b - 3.0 * j + (400.0 if j == 64 else 0.0)
                          for j, b in enumerate(t.log_terms(64))))
    rep = classify_membership(f, mm)
    assert not any(cell["stabilized"] or cell["trend"] == "up"
                   for cell in rep.table.values())
    assert rep.roumieu.status == UNDETERMINED
    assert (rep.roumieu.witness, rep.roumieu.evidence) == (None, {})
    assert rep.beurling.status == UNDETERMINED
    assert rep.beurling.witness == 1.0


def test_membership_cells_read_order_j_at_index_j(ptt_mm, monkeypatch):
    starts = []
    entry = witness.classify_trajectory

    def spy(indices, values):
        starts.append(indices[0])
        return entry(indices, values)

    monkeypatch.setattr(witness, "classify_trajectory", spy)
    classify_membership(synthetic_bounds(ptt_mm.element(2.0), 64), ptt_mm)
    assert len(starts) == len(ptt_mm.index_grid) * len(witness.DEFAULT_H_GRID)
    assert set(starts) == {0}


def test_membership_with_theta_data(g1):
    mm = scale_family(g1, linear_exponents(), (0.5, 1.0, 2.0, 4.0))
    f = theta_bounds(g1, 40)
    rep = classify_membership(f, mm)
    assert rep.roumieu.status == HOLDS
