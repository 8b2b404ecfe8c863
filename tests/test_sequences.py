"""Constructors, derived views, and the head-patching regularizer."""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import (
    HOLDS,
    InvalidParameterError,
    PreconditionError,
    TableExhaustedError,
    check_condition,
    constant_family,
    gevrey,
    linear_exponents,
    power_exponents,
    ptt,
    regularize_slc,
    scaled,
    table,
    table_exponents,
)
from wcalc.config import WINDOW_CAP
from wcalc.errors import HorizonError
from wcalc.matrices import matrix_scale, sigma_matrix
from wcalc.sequences import ExponentFamily, ExponentSequence, WeightSequence


def test_gevrey_terms_are_factorial_powers():
    g = gevrey(2.0)
    for j in range(40):
        assert g.log_term(j) == pytest.approx(2.0 * math.lgamma(j + 1), abs=1e-12)
    assert g.log_term(0) == 0.0


def test_ptt_closed_form():
    p = ptt(1.5, 2.0)
    assert p.log_term(0) == 0.0
    assert p.log_term(1) == 0.0
    for j in range(2, 60):
        assert p.log_term(j) == pytest.approx(1.5 * j**2 * math.log(j), rel=1e-15)


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        gevrey(0.0)
    with pytest.raises(InvalidParameterError):
        ptt(1.0, 0.5)  # growth exponent below 1 is outside the family
    with pytest.raises(InvalidParameterError):
        ptt(-1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        table([])
    with pytest.raises(InvalidParameterError):
        table([1.0, -2.0])
    with pytest.raises(InvalidParameterError):
        table(values=[1.0], log_values=[0.0])


def test_table_bounds_and_exhaustion():
    t = table([1.0, 2.0, 8.0])
    assert t.length == 3
    assert (t.last_index(1), t.last_index(2), t.last_index(64)) == (1, 2, 2)
    assert gevrey(1.0).last_index(64) == 64
    assert t.log_term(2) == pytest.approx(math.log(8.0))
    with pytest.raises(TableExhaustedError):
        t.log_term(3)


def test_negative_index_rejected():
    g = gevrey(1.0)
    with pytest.raises(InvalidParameterError):
        g.log_term(-1)


def test_quotient_reduced_root_views(g2):
    # quotient at 0 is log 1 by convention
    assert g2.quotient_log(0) == 0.0
    for j in range(1, 30):
        assert g2.quotient_log(j) == pytest.approx(2.0 * math.log(j), abs=1e-10)
        assert g2.reduced_log(j) == pytest.approx(math.lgamma(j + 1), abs=1e-10)
        assert g2.root_log(j) == pytest.approx(2.0 * math.lgamma(j + 1) / j, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        g2.root_log(0)


def test_scaled_adds_weighted_log_factor(p12):
    s = scaled(p12, power_exponents(2.0), 0.5)
    for j in range(30):
        want = p12.log_term(j) + j**2 * math.log(0.5)
        assert s.log_term(j) == pytest.approx(want, rel=1e-14, abs=1e-12)


def test_scaled_inherits_table_length():
    s = scaled(table([1.0, 2.0, 6.0]), linear_exponents(), 3.0)
    assert s.length == 3
    with pytest.raises(TableExhaustedError):
        s.log_term(3)


def test_exponent_sequences():
    lin = linear_exponents()
    pw = power_exponents(1.5)
    tb = table_exponents([0, 1, 1, 2])
    assert lin.value(7) == 7.0
    assert pw.value(0) == 0.0
    assert pw.value(4) == pytest.approx(8.0)
    assert tb.value(3) == 2.0
    with pytest.raises(TableExhaustedError):
        tb.value(4)


def test_exponent_families():
    fam = constant_family(power_exponents(2.0))
    assert fam.sequence(0.5).value(3) == fam.sequence(4.0).value(3) == 9.0
    custom = ExponentFamily("indexed", {"label": "powers"}, power_exponents)
    assert custom.sequence(1.0).value(5) == 5.0
    assert custom.sequence(2.0).value(5) == 25.0


def test_callable_sequence_wraps_fn():
    s = WeightSequence("demo", {"k": 1}, lambda j: float(j), length=10)
    assert s.log_term(9) == 9.0
    assert s.length == 10


# --- head regularization -----------------------------------------------

# scaled-down quadratic-growth fixture: reduced quotients decrease until
# index 3 and stay negative through index 7, so the patch lands at 8
@pytest.fixture
def dented():
    return scaled(ptt(1.0, 2.0), power_exponents(2.0), 0.1)


def slc_violations(m, horizon):
    q = [m.reduced_log(j) - m.reduced_log(j - 1) for j in range(1, horizon + 1)]
    drops = [j + 1 for j in range(1, len(q)) if q[j] < q[j - 1] - 1e-9]
    negative = [j + 1 for j, v in enumerate(q) if v < -1e-9]
    return drops, negative


def test_regularize_patches_reported_head(dented):
    r = regularize_slc(dented, 128)
    assert r.params["patch_index"] == 8
    drops, negative = slc_violations(r, 128)
    assert drops == [] and negative == []
    # patched head is exactly factorial
    for j in range(8):
        assert r.log_term(j) == pytest.approx(math.lgamma(j + 1), abs=1e-12)
    # tail differs from the input by one fixed constant
    shift = r.log_term(8) - dented.log_term(8)
    for j in range(8, 128):
        assert r.log_term(j) - dented.log_term(j) == pytest.approx(shift, abs=1e-9)


def test_regularize_noop_when_clean(g2):
    r = regularize_slc(g2, 64)
    assert r.params["patch_index"] == 0
    for j in range(65):
        assert r.log_term(j) == g2.log_term(j)


def test_regularize_idempotent(dented):
    r1 = regularize_slc(dented, 96)
    r2 = regularize_slc(r1, 96)
    assert r2.params["patch_index"] == 0
    for j in range(97):
        assert r2.log_term(j) == r1.log_term(j)


def test_regularize_patches_an_early_drop_past_large_late_terms():
    # reduced quotients 1, ..., 1 then 1 - 5e-11 at j = 6, then climbing:
    # the drop is past the slack of log M_0..M_6, so the head is patched
    # through it at every horizon and the output passes the slc check
    reduced = [1.0] * 5 + [1.0 - 5e-11] + [1.0 + 0.05 * k for k in range(1, 395)]
    m = table(log_values=list(itertools.accumulate(
        (r + math.log(j) for j, r in enumerate(reduced, 1)), initial=0.0)))
    for h in (8, 64, 399):
        r = regularize_slc(m, h)
        assert r.params["patch_index"] == 6, h
        assert check_condition(r, "slc", h).status == HOLDS, h


def test_regularize_rejects_hopeless_input():
    # strictly log-concave: no onset exists inside any window
    bad = WeightSequence("concave", {}, lambda j: math.sqrt(j))
    with pytest.raises(PreconditionError):
        regularize_slc(bad, 64)


@given(st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=6, max_size=24))
def test_regularize_output_always_clean(increments):
    # arbitrary positive-quotient tables: output must be normalized with
    # non-decreasing reduced quotients whenever regularization succeeds
    logs = [0.0]
    for step in increments:
        logs.append(logs[-1] + step)
    m = table(log_values=logs)
    h = len(logs) - 1
    try:
        r = regularize_slc(m, h)
    except PreconditionError:
        return
    drops, negative = slc_violations(r, h)
    assert drops == [] and negative == []
    assert r.log_term(0) == 0.0


def _regularize_patch(logs, h):
    """The patch index of regularize_slc, from the two scans it ran before
    the drop rule moved into logdomain.last_drop, copied as they were."""
    tol = [1e-12 * max(1.0, max(map(abs, logs[:k + 1]))) for k in range(h + 1)]
    q = [logs[j] - logs[j - 1] - math.log(j) for j in range(1, h + 1)]
    mono_onset = next((i + 1 for i in range(len(q) - 1, 0, -1)
                       if q[i] < q[i - 1] - tol[i + 1]), 1)
    neg_onset = next((i + 2 for i in range(len(q) - 1, -1, -1)
                      if q[i] < -tol[i + 1]), 1)
    return max(mono_onset, neg_onset)


@st.composite
def _near_slc_logs(draw):
    """Log tables whose reduced quotients climb, or tie the one before or
    zero, missed by 0.5 to 2 times 1e-12 of the term they make."""
    logs = [draw(st.sampled_from([0.0, 1e-13, 2.0, 40.0]))]
    r = draw(st.sampled_from([0.0, 1.0, -1.0]))
    for j in range(1, draw(st.integers(6, 40))):
        kind = draw(st.sampled_from(["up", "tie", "zero"]))
        if kind == "up":
            r += draw(st.floats(0.0, 2.0))
        else:
            base = (r if kind == "tie" else 0.0)
            guess = logs[-1] + base + math.log(j)
            miss = draw(st.sampled_from([0.5, 0.99, 0.999, 1.001, 1.01, 2.0]))
            r = base - draw(st.sampled_from([1.0, -1.0])) * miss * 1e-12 * max(1.0, abs(guess))
        logs.append(logs[-1] + r + math.log(j))
    return logs


@settings(max_examples=200)
@given(_near_slc_logs())
def test_regularize_patch_matches_the_scans_it_replaced(logs):
    h = len(logs) - 1
    patch = _regularize_patch(logs, h)
    try:
        got = regularize_slc(table(log_values=logs), h).params["patch_index"]
    except PreconditionError as exc:
        assert (patch, exc.witness) == (h + 1, h)
        return
    assert got == (0 if patch == 1 and logs[0] == 0.0 else patch)


# --- term windows --------------------------------------------------------

WINDOW_FAMILIES = {
    "gevrey": lambda: gevrey(1.5),
    "ptt": lambda: ptt(1.0, 2.0),
    "table": lambda: table(log_values=[0.5 * j * math.log(j + 1) for j in range(60)]),
    "scaled": lambda: scaled(gevrey(1.0), power_exponents(2.0), 0.5),
    "regularized": lambda: regularize_slc(
        scaled(ptt(1.0, 2.0), power_exponents(2.0), 0.1), 48),
    "sigma_element": lambda: sigma_matrix(2.0).element(3.0),
    "scaled_of_scaled": lambda: scaled(
        scaled(ptt(1.0, 2.0), power_exponents(1.5), 3.0), linear_exponents(), 0.25),
    "matrix_scale": lambda: matrix_scale(
        sigma_matrix(2.0), power_exponents(2.0)).element(0.5),
}


def bits(values):
    return [float(v).hex() for v in values]


@given(
    st.sampled_from(sorted(WINDOW_FAMILIES)),
    st.lists(st.integers(0, 59), max_size=6),
    st.integers(0, 59),
    st.lists(st.integers(0, 59), max_size=6),
)
def test_log_terms_match_point_reads(family, before, n, after):
    make = WINDOW_FAMILIES[family]
    ref = make()  # only ever read one index at a time
    m = make()
    for j in before:
        assert bits([m.log_term(j)]) == bits([ref.log_term(j)])
    window = m.log_terms(n)
    assert bits(window) == bits([ref.log_term(j) for j in range(n + 1)])
    assert bits(m.log_terms(n // 2)) == bits(window[:n // 2 + 1])
    for j in after:
        assert bits([m.log_term(j)]) == bits([ref.log_term(j)])


def test_point_reads_leave_the_window_alone():
    calls = []

    def fn(j):
        calls.append(j)
        return float(j * j)

    m = WeightSequence("squares", {}, fn)
    assert m.log_term(65536) == 65536.0 ** 2
    assert calls == [65536]
    assert m.log_term(20) == 400.0
    assert m.log_terms(12) == [float(j * j) for j in range(13)]
    assert len(calls) == 2 + 13
    assert m.log_term(5) == 25.0 and m.log_terms(10) == [float(j * j) for j in range(11)]
    assert len(calls) == 2 + 13
    m.log_terms(25)  # a fill evaluates index 20 again and keeps its memo entry
    assert len(calls) == 2 + 13 + 13
    assert m._memo == {65536: 65536.0 ** 2, 20: 400.0}


def test_log_terms_error_parity():
    short = table(log_values=[0.0, 1.0, 3.0])
    assert short.log_terms(2) == [0.0, 1.0, 3.0]
    with pytest.raises(TableExhaustedError) as windowed:
        short.log_terms(7)
    with pytest.raises(TableExhaustedError) as pointwise:
        table(log_values=[0.0, 1.0, 3.0]).log_term(3)
    assert str(windowed.value) == str(pointwise.value)
    with pytest.raises(InvalidParameterError):
        short.log_terms(-1)


def outcome(read):
    """The bits of read(), or the type and message of what it raised."""
    try:
        return bits(read())
    except Exception as exc:
        return type(exc), str(exc)


def read_both_ways(make, n):
    """(outcome, window left) of log_terms(n) on one fresh sequence, and
    (outcome, terms read) of log_term(0..n) in index order on another."""
    m, ref = make(), make()
    windowed = outcome(lambda: m.log_terms(n)), bits(m._window)
    read = []

    def pointwise():
        for j in range(n + 1):
            read.append(ref.log_term(j))
        return read

    return windowed, (outcome(pointwise), bits(read))


# what a custom term or exponent function does at a drawn index
BAD_KINDS = {
    "nan": lambda j: math.nan,
    "inf": lambda j: math.inf,
    "-inf": lambda j: -math.inf,
    "negative": lambda j: -1.0,
    "raises": lambda j: float(10.0 ** 400),  # OverflowError
}


def holey(bad: dict):
    """A term function that is j * 0.5 except at the indices in bad."""
    return lambda j: BAD_KINDS[bad[j]](j) if j in bad else j * 0.5


bad_indices = st.dictionaries(st.integers(0, 40), st.sampled_from(sorted(BAD_KINDS)),
                              max_size=3)


@given(bad_indices, st.lists(st.integers(0, 45), max_size=4), st.integers(0, 45))
@example({3: "nan", 7: "raises"}, [9, 3], 12)  # NaN below a raise; 9 memoized
def test_block_fill_errors_match_term_by_term_reads(bad, before, n):
    """NaN or +inf terms, a function that raises, and -inf terms (which
    are allowed): the window fill raises the same error as term-by-term
    reads and leaves the same valid prefix, with or without earlier point
    reads in the memo."""
    def make():
        m = WeightSequence("holey", {}, holey(bad))
        for j in before:
            try:
                m.log_term(j)
            except Exception:
                pass
        return m

    windowed, pointwise = read_both_ways(make, n)
    assert windowed == pointwise


@given(st.sampled_from(["linear", "power", "table"]),
       st.integers(0, 40), st.integers(0, 40))
def test_phi_values_match_point_reads(kind, lo, hi):
    phi = {"linear": linear_exponents(), "power": power_exponents(1.7),
           "table": table_exponents([0.25 * j for j in range(30)])}[kind]

    assert outcome(lambda: phi.values(lo, hi)) == outcome(
        lambda: [phi.value(j) for j in range(lo, hi + 1)])


@given(bad_indices, st.integers(0, 45), st.integers(0, 45))
@example({4: "negative", 6: "raises"}, 2, 12)
def test_phi_values_errors_match_point_reads(bad, lo, hi):
    """Negative, NaN or infinite exponents and a function that raises: the
    block reader raises what value raises at the lowest bad index."""
    phi = ExponentSequence("holey", {}, holey(bad))

    assert outcome(lambda: phi.values(lo, hi)) == outcome(
        lambda: [phi.value(j) for j in range(lo, hi + 1)])


@given(bad_indices, bad_indices, st.integers(0, 45))
@example({5: "nan"}, {5: "negative"}, 8)  # the base term fails first
@example({6: "inf"}, {2: "raises"}, 8)
def test_scaled_errors_match_term_by_term_reads(base_bad, phi_bad, n):
    """A scaled sequence whose base and phi may both fail: within one index
    the base term is checked before phi, in both modes."""
    def make():
        return scaled(WeightSequence("holey", {}, holey(base_bad)),
                      ExponentSequence("holey", {}, holey(phi_bad)), 2.0)

    windowed, pointwise = read_both_ways(make, n)
    assert windowed == pointwise


def test_window_ceiling_evaluates_nothing():
    calls = []

    def fn(j):
        calls.append(j)
        return float(j)

    m = WeightSequence("counted", {}, fn)
    with pytest.raises(HorizonError):
        m.log_terms(WINDOW_CAP + 1)
    assert calls == [] and m._window == []
    # a scaled sequence checks its own window before reading its base's
    with pytest.raises(HorizonError):
        scaled(m, linear_exponents(), 2.0).log_terms(WINDOW_CAP + 1)
    assert calls == []
    # point reads past the ceiling stay allowed: they allocate no window
    assert m.log_term(WINDOW_CAP + 1) == float(WINDOW_CAP + 1)


QUOTIENT_FAMILIES = ("gevrey", "ptt", "scaled", "table")


@given(
    st.sampled_from(QUOTIENT_FAMILIES),
    st.lists(st.integers(0, 59), max_size=6),
    st.integers(0, 40),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-40, 19)), max_size=12),
)
def test_quotient_reads_match_term_differences(family, before, n, offsets):
    """quotient_log(j) is log_term(j) - log_term(j - 1) to the bit, whether
    j lies inside the window, at its edge, or past it where only the
    point memo holds the terms."""
    make = WINDOW_FAMILIES[family]
    ref = make()  # only ever read one index at a time
    m = make()
    for j in before:
        m.log_term(j)
    m.log_terms(n)
    for j in sorted({min(59, max(0, n + d)) for d in offsets} | set(before)):
        want = 0.0 if j == 0 else ref.log_term(j) - ref.log_term(j - 1)
        assert bits([m.quotient_log(j)]) == bits([want])
        if j:
            assert bits([m.quotient_log(j)]) == bits(
                [m.log_term(j) - m.log_term(j - 1)])
    if family != "table":  # far out: two point-memo reads
        far = 65536 + n
        assert bits([m.quotient_log(far)]) == bits(
            [ref.log_term(far) - ref.log_term(far - 1)])


def test_quotient_read_errors_match_term_reads():
    short = table(log_values=[0.0, 1.0, 3.0])
    short.log_terms(2)
    with pytest.raises(TableExhaustedError):
        short.quotient_log(3)
    for bad in (-1, 1.0, True):
        with pytest.raises(InvalidParameterError):
            short.quotient_log(bad)
