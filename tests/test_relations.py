"""Pairwise sequence relations: domination, strict smallness, pointwise."""

import math

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    InvalidParameterError,
    TableExhaustedError,
    compare,
    compare_phi_constancy,
    gevrey,
    linear_exponents,
    power_exponents,
    ptt,
    scaled,
    table,
    table_exponents,
)
from wcalc.relations import RATIO_TOL, RELATIONS

H = 64


def test_preceq_direction(g1, g2):
    v = compare(g1, g2, "preceq", horizon=H)
    assert v.status == HOLDS
    # ratio peaks at index 1 and sinks
    assert v.evidence["trajectory"]["log_constant"] == 0.0
    w = compare(g2, g1, "preceq", horizon=H)
    assert w.status == FAILS
    assert w.witness == H  # growing ratio peaks at the window edge
    assert w.evidence["left"] == g2.label()
    assert w.evidence["right"] == g1.label()


def test_preceq_reflexive(g1):
    assert compare(g1, g1, "preceq", horizon=H).status == HOLDS


def test_triangle_strictness(g1, g2):
    assert compare(g1, g2, "triangle", horizon=H).status == HOLDS
    v = compare(g2, g1, "triangle", horizon=H)
    assert v.status == FAILS
    assert v.witness == 49  # tail minimum sits at the start of the last quarter
    # equal sequences: the ratio neither sinks nor clears zero
    assert compare(g1, g1, "triangle", horizon=H).status == UNDETERMINED


def test_triangle_constant_gap_is_not_strict(g2):
    # in the phi-weighted scale two scalings differ by a constant; that
    # bounds one by the other but is not strict smallness
    a = scaled(g2, power_exponents(2.0), 1.0)
    b = scaled(g2, power_exponents(2.0), 2.0)
    phi = power_exponents(2.0)
    v = compare(a, b, "triangle", horizon=H, phi=phi)
    assert v.status == UNDETERMINED
    p = compare(a, b, "preceq", horizon=H, phi=phi)
    assert p.status == HOLDS
    assert p.evidence["trajectory"]["log_constant"] == pytest.approx(
        -math.log(2.0), abs=1e-12)


def test_a_phi_that_leaves_one_index_fits_no_trend():
    # one ratio point: no trend and no slope, so preceq is decided by its
    # settled running sup and triangle by the sign of that point
    phi = table_exponents([0.0, 0.0, 0.0, 0.0, 2.0])
    v = compare(gevrey(2.0), gevrey(1.0), "preceq", 4, phi=phi)
    assert v.status == HOLDS and v.evidence["excluded_indices"] == [1, 2, 3]
    assert set(v.evidence["trajectory"]) == {"stabilized", "log_constant", "defects"}
    w = compare(gevrey(2.0), gevrey(1.0), "triangle", 4, phi=phi)
    assert (w.status, w.witness) == (FAILS, 4)


def test_approx_two_sided(g1, g2):
    shifted = scaled(g1, linear_exponents(), 2.0)
    v = compare(shifted, g1, "approx", horizon=H)
    assert v.status == HOLDS
    assert v.evidence["forward"]["status"] == HOLDS
    assert v.evidence["backward"]["status"] == HOLDS
    w = compare(g1, g2, "approx", horizon=H)
    assert w.status == FAILS
    assert compare(g1, g1, "approx", horizon=H).status == HOLDS


def test_pointwise_relations(g1, g2):
    assert compare(g1, g2, "pointwise_le", horizon=H).status == HOLDS
    v = compare(g2, g1, "pointwise_le", horizon=H)
    assert v.status == FAILS
    assert v.witness == 2
    assert v.evidence["gap_log"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert compare(g1, g2, "quotient_le", horizon=H).status == HOLDS
    q = compare(g2, g1, "quotient_le", horizon=H)
    assert q.status == FAILS and q.witness == 2


def test_pointwise_on_a_table_shorter_than_the_horizon(g1):
    # 12 entries; index 3 exceeds 3! = 6, long before the table ends
    bad = table(log_values=[0.0, 0.0, math.log(2.0), math.log(50.0)]
                + [math.log(10.0 * k) for k in range(6, 14)])
    for rel in ("pointwise_le", "quotient_le"):
        v = compare(bad, g1, rel, horizon=H)
        assert (v.status, v.witness) == (FAILS, 3)
    # no violation before the end: the exhausted table raises
    big = table(log_values=[j * math.log(2.0) + math.lgamma(j + 1) for j in range(12)])
    for left, right in ((g1, big), (big, big)):
        for rel in ("pointwise_le", "quotient_le"):
            with pytest.raises(TableExhaustedError, match="index 12 "):
                compare(left, right, rel, horizon=H)


def test_pointwise_rejects_phi(g1, g2):
    with pytest.raises(InvalidParameterError):
        compare(g1, g2, "pointwise_le", horizon=H, phi=linear_exponents())


def test_relation_validation(g1, g2):
    with pytest.raises(InvalidParameterError):
        compare(g1, g2, "subseteq", horizon=H)
    with pytest.raises(InvalidParameterError):
        compare(g1, g2, "preceq", horizon=2)
    assert set(RELATIONS) == {"preceq", "approx", "triangle", "pointwise_le", "quotient_le"}


def test_relation_id_carries_phi(g1, g2):
    v = compare(g1, g2, "preceq", horizon=H, phi=power_exponents(2.0))
    assert v.subject.startswith("preceq[phi=")
    assert "phi" in v.evidence


def test_vanishing_phi_indices_are_excluded(g1):
    phi = table_exponents([0.0, 0.0] + [float(j) for j in range(2, H + 1)])
    v = compare(g1, g1, "preceq", horizon=H, phi=phi)
    assert v.status == HOLDS
    assert 1 in v.evidence["excluded_indices"]
    all_zero = table_exponents([0.0] * (H + 1))
    with pytest.raises(InvalidParameterError):
        compare(g1, g1, "preceq", horizon=H, phi=all_zero)


def test_triangle_reports_the_indices_where_phi_vanishes(g1, g2):
    phi = table_exponents([0.0 if j % 10 == 0 else float(j)
                           for j in range(H + 1)])
    v = compare(g1, g2, "triangle", horizon=H, phi=phi)
    assert v.status == HOLDS
    assert v.evidence["excluded_indices"] == [10, 20, 30, 40, 50, 60]


@pytest.mark.parametrize("s1,s2", [(1.0, 1.5), (1.0, 2.0), (0.5, 3.0)])
def test_gevrey_scale_is_ordered(s1, s2):
    a, b = gevrey(s1), gevrey(s2)
    assert compare(a, b, "preceq", horizon=H).status == HOLDS
    assert compare(a, b, "triangle", horizon=H).status == HOLDS
    assert compare(b, a, "preceq", horizon=H).status == FAILS


def test_phi_constancy_exact_ratio(g2):
    phi = power_exponents(2.0)
    fam = [scaled(g2, phi, c) for c in (0.5, 1.0, 2.0)]
    v = compare_phi_constancy(fam, phi, horizon=H)
    assert v.status == HOLDS
    pairs = v.evidence["pairs"]
    assert len(pairs) == 3
    for p in pairs:
        assert p["mode"] == "exact_ratio"
        assert p["max_deviation"] <= RATIO_TOL
    assert pairs[0]["expected_log_ratio"] == pytest.approx(math.log(0.5), abs=1e-12)


def test_phi_constancy_mixed_mode(g1, g2):
    phi = power_exponents(2.0)
    fam = [scaled(g2, phi, 1.0), g2]
    v = compare_phi_constancy(fam, phi, horizon=H)
    assert v.status == HOLDS
    assert v.evidence["pairs"][0]["mode"] == "approx"
    w = compare_phi_constancy([g2, g1], linear_exponents(), horizon=H)
    assert w.status == FAILS


def test_phi_constancy_exact_ratio_skips_zero_exponents(g2):
    phi = table_exponents([0.0, 0.0, 0.0] + [float(j) for j in range(3, H + 1)])
    v = compare_phi_constancy([scaled(g2, phi, c) for c in (0.5, 2.0)], phi,
                              horizon=H)
    assert v.status == HOLDS
    assert v.evidence["pairs"][0]["mode"] == "exact_ratio"
    assert v.evidence["pairs"][0]["max_deviation"] <= RATIO_TOL


@pytest.mark.parametrize("gap,want", (
    (lambda j: math.lgamma(j + 1), FAILS),   # gevrey(2) over gevrey(1)
    (lambda j: j % 2, HOLDS),                # a bounded gap
), ids=("moving", "bounded"))
def test_phi_constancy_tables_of_one_length_are_two_families(gap, want):
    # two tables of one length share a label, but only scaled elements of
    # one base object have a constant ratio: this pair takes the approx
    # comparison, as compare does
    lin = linear_exponents()
    a = table(log_values=[math.lgamma(j + 1) for j in range(257)])
    b = table(log_values=[math.lgamma(j + 1) + gap(j) for j in range(257)])
    m, n = scaled(a, lin, 0.5), scaled(b, lin, 2.0)
    assert m.params["base"] == n.params["base"]
    v = compare_phi_constancy([m, n], lin, horizon=256)
    approx = compare(m, n, "approx", 256, phi=lin)
    assert v.evidence["pairs"][0]["mode"] == "approx"
    assert (v.status, v.witness) == (approx.status, approx.witness)
    assert v.status == want


def test_phi_constancy_exact_ratio_needs_the_given_phi():
    # both elements are scaled by linear(); their ratio per power(2) unit
    # is not constant, so this pair takes the approx comparison, as
    # compare does
    g, lin, p2 = gevrey(2.0), linear_exponents(), power_exponents(2.0)
    m, n = scaled(g, lin, 0.5), scaled(g, lin, 2.0)
    v = compare_phi_constancy([m, n], p2, horizon=256)
    approx = compare(m, n, "approx", 256, phi=p2)
    assert v.evidence["pairs"][0]["mode"] == "approx"
    assert (v.status, v.witness) == (approx.status, approx.witness)
    assert v.status == UNDETERMINED


def test_phi_constancy_undetermined_pair(g1):
    # j^j / j! ~ e^j / sqrt(2 pi j): the window leaves the pair open
    v = compare_phi_constancy([g1, ptt(1.0, 1.0)], linear_exponents(),
                              horizon=H)
    assert v.status == UNDETERMINED and v.witness is None
    assert v.evidence["pairs"][0] == {
        "pair": [g1.label(), "ptt(sigma=1.0,tau=1.0)"], "mode": "approx",
        "status": UNDETERMINED}


def test_phi_constancy_needs_two(g1):
    with pytest.raises(InvalidParameterError):
        compare_phi_constancy([g1], linear_exponents(), horizon=H)


# certificate properties: preceq is reflexive and approx is symmetric,
# on sequences from each family kind at a drawn horizon
@st.composite
def _weight(draw, h):
    kind = draw(st.sampled_from(["gevrey", "ptt", "table"]))
    if kind == "gevrey":
        return gevrey(draw(st.floats(0.1, 4.0)))
    if kind == "ptt":
        return ptt(draw(st.floats(0.1, 4.0)), draw(st.floats(1.0, 3.0)))
    # log-convex table of at least h + 1 terms: non-decreasing quotients
    steps = draw(st.lists(st.floats(0.0, 2.0), min_size=h, max_size=h + 8))
    quotients = itertools.accumulate(steps, initial=draw(st.floats(-2.0, 2.0)))
    return table(log_values=list(itertools.accumulate(quotients, initial=0.0)))


@st.composite
def _phi_nonzero_somewhere(draw, h):
    kind = draw(st.sampled_from(["linear", "power", "table"]))
    if kind == "linear":
        return linear_exponents()
    if kind == "power":
        return power_exponents(draw(st.floats(1.0, 3.0)))
    vals = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                         min_size=h + 1, max_size=h + 1))
    vals[draw(st.integers(1, h))] = 1.0
    return table_exponents(vals)


@settings(deadline=None, max_examples=60)
@given(st.integers(8, 96).flatmap(
    lambda h: st.tuples(st.just(h), _weight(h), _phi_nonzero_somewhere(h))))
def test_preceq_is_reflexive(case):
    h, m, phi = case
    assert compare(m, m, "preceq", h).status == HOLDS
    assert compare(m, m, "preceq", h, phi=phi).status == HOLDS


@settings(deadline=None, max_examples=60)
@given(st.integers(8, 96).flatmap(
    lambda h: st.tuples(st.just(h), _weight(h), _weight(h))))
def test_approx_is_symmetric(case):
    h, m, n = case
    assert compare(m, n, "approx", h).status == compare(n, m, "approx", h).status
