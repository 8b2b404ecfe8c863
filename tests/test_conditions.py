"""Single-sequence growth conditions on the standard families."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (
    EXPONENT_GAP_FLOOR,
    FAILS,
    HOLDS,
    UNDETERMINED,
    InvalidParameterError,
    check_condition,
    compare,
    exponent_growth_report,
    gamma_lower_bound,
    gevrey,
    linear_exponents,
    power_exponents,
    ptt,
    root_growth_profile,
    sample_pairs,
    scaled,
    table,
    table_exponents,
)
from wcalc.conditions import CONDITIONS, check_sc

H = 256

# status matrix over the standard families: exact conditions hold on all
# three; the asymptotic ones separate factorial from faster-than-factorial
# growth, staying Undetermined where the window cannot certify a limit
FAMILY_FACTS = {
    "g1": {
        "lc": HOLDS, "slc": HOLDS, "normalized": HOLDS,
        "mg": HOLDS, "dc": HOLDS,
        "nq": UNDETERMINED, "nq_carleman": UNDETERMINED,
        "beta1": UNDETERMINED, "beta3": HOLDS, "gamma1": UNDETERMINED,
    },
    "g2": {
        "lc": HOLDS, "slc": HOLDS, "normalized": HOLDS,
        "mg": HOLDS, "dc": HOLDS,
        "nq": HOLDS, "nq_carleman": HOLDS,
        "beta1": HOLDS, "beta3": HOLDS, "gamma1": HOLDS,
    },
    "p12": {
        "lc": HOLDS, "slc": HOLDS, "normalized": HOLDS,
        "mg": UNDETERMINED, "dc": UNDETERMINED,
        "nq": HOLDS, "nq_carleman": HOLDS,
        "beta1": HOLDS, "beta3": HOLDS, "gamma1": HOLDS,
    },
}


@pytest.mark.parametrize("fam", sorted(FAMILY_FACTS))
@pytest.mark.parametrize("cond", CONDITIONS)
def test_family_fact_matrix(request, fam, cond):
    m = request.getfixturevalue(fam)
    v = check_condition(m, cond, horizon=H)
    assert v.status == FAMILY_FACTS[fam][cond], (fam, cond, v.evidence)


def test_mg_constant_bounded_for_factorials(g1):
    v = check_condition(g1, "mg", horizon=H)
    # binomial defect: the per-index constant tends to 2 from below
    assert 0.5 < v.evidence["log_constant"] < math.log(2.0) + 1e-9
    assert "diverging" not in v.evidence


def test_mg_divergence_evidence(p12):
    v = check_condition(p12, "mg", horizon=H)
    assert v.evidence["diverging"] is True
    assert v.evidence["trajectory"]["trend"] == "up"
    assert "log_constant" not in v.evidence


def test_dc_constant_for_factorials(g1):
    v = check_condition(g1, "dc", horizon=H)
    # sup of (log mu_j) / j sits at j = 3 for factorial quotients
    assert v.evidence["log_constant"] == pytest.approx(math.log(3.0) / 3.0, abs=1e-12)


def test_nq_total_matches_zeta_two(g2):
    v = check_condition(g2, "nq", horizon=H)
    assert v.evidence["fitted_exponent"] == pytest.approx(2.0, abs=1e-9)
    assert v.evidence["total_log"] == pytest.approx(math.log(math.pi**2 / 6.0), abs=1e-3)


def test_beta1_boundary_family(g1, g2):
    # quotient doubling gains exactly log Q on factorials: at the floor
    v1 = check_condition(g1, "beta1", horizon=H, Q=2)
    assert v1.status == UNDETERMINED
    assert v1.evidence["tail_min_log"] == pytest.approx(math.log(2.0), abs=1e-9)
    v2 = check_condition(g2, "beta1", horizon=H, Q=2)
    assert v2.evidence["tail_min_log"] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    v4 = check_condition(g2, "beta1", horizon=H, Q=4)
    assert v4.status == HOLDS
    assert v4.evidence["Q"] == 4


def test_condition_id_dispatch(g2):
    v = check_condition(g2, "beta1", horizon=H, Q=4)
    assert v.evidence["Q"] == 4


def test_lc_failure_witness():
    m = table(log_values=[0.0, 1.0, 3.0, 4.0, 6.0])
    v = check_condition(m, "lc", horizon=4)
    assert v.status == FAILS
    assert v.witness == 3  # quotient at index 3 drops below its predecessor
    assert v.evidence["drop"] == pytest.approx(-1.0)


def test_slc_failure_witness():
    m = table(log_values=[0.0, 0.0, 0.5, 0.9, 3.0, 6.0])
    v = check_condition(m, "slc", horizon=5)
    assert v.status == FAILS
    assert v.witness == 2


def test_sc_certificate(g1):
    ok = check_sc(g1, 64)
    assert ok.status == HOLDS
    assert ok.evidence == {"lc": HOLDS, "normalized": HOLDS,
                           "roots_divergent": True}
    bad = check_sc(table(log_values=[0.0, 1.0, 3.0, 4.0, 6.0]), 4)
    assert (bad.status, bad.witness) == (FAILS, 3)  # the lc witness
    slow = check_sc(gevrey(0.01), 64)
    assert slow.status == UNDETERMINED
    assert slow.evidence["roots_divergent"] is False


def test_normalized_failures():
    v0 = check_condition(table([2.0, 3.0, 9.0, 81.0, 1000.0]), "normalized", horizon=4)
    assert v0.status == FAILS and v0.witness == 0
    v1 = check_condition(table(log_values=[0.0, -0.5, 0.0, 1.0, 3.0]), "normalized", horizon=4)
    assert v1.status == FAILS and v1.witness == 1


def test_scan_slack_scales_with_magnitude():
    # a dip far below the jitter floor of 1e8-sized terms is not a failure
    logs = [1e8 * j for j in range(17)]
    logs[5] -= 1e-6
    assert check_condition(table(log_values=logs), "lc", horizon=16).status == HOLDS
    logs[5] -= 1.0
    v = check_condition(table(log_values=logs), "lc", horizon=16)
    assert v.status == FAILS and v.witness == 5


def test_early_lc_drop_keeps_failing_past_large_late_terms():
    # quotients 1, 1, 1, 1, 1 - 5e-11, then climbing by 0.05: the drop at
    # j = 5 is past the slack of log M_0..M_5 but inside that of the
    # whole window from h = 64 on, where late terms are in the thousands
    quotients = [1.0] * 4 + [1.0 - 5e-11] + [1.0 + 0.05 * k for k in range(1, 396)]
    m = table(log_values=list(itertools.accumulate(quotients, initial=0.0)))
    for h in (8, 16, 64, 128, 399, 400):
        v = check_condition(m, "lc", horizon=h)
        assert (v.status, v.witness) == (FAILS, 5), h


def test_early_gamma_lb_drop_is_not_hidden_by_large_late_terms():
    # quotients 1 (x39), 1 - 5e-11 at j = 40, then climbing by 0.05: the
    # drop is past the slack of log M_0..M_40 but inside that of the whole
    # window from h = 64 on; past 3h/4 it fails, in (h/2, 3h/4] the onset
    # is too late for Holds
    quotients = [1.0] * 39 + [1.0 - 5e-11] + [1.0 + 0.05 * k for k in range(1, 60)]
    m = table(log_values=list(itertools.accumulate(quotients, initial=0.0)))
    for h, want in ((48, (FAILS, 40)), (64, (UNDETERMINED, None)),
                    (79, (UNDETERMINED, None))):
        v = gamma_lower_bound(m, [0], h)[0.0]
        assert (v.status, v.witness, v.evidence["onset"]) == (*want, 40), h
        assert (check_condition(m, "lc", h).status,
                check_condition(m, "lc", h).witness) == (FAILS, 40), h
    # a drop of 1.5e-9 at j = 41, past the slack of log M_0..M_40 (about
    # 1e-9) but inside that of log M_0..M_41 (about 2e-9): like lc, the
    # drop's own term counts, so it is no violation
    quotients = [1.0] * 39 + [1000.0, 1000.0 - 1.5e-9] + [1000.0 + 0.05 * k for k in range(1, 30)]
    m = table(log_values=list(itertools.accumulate(quotients, initial=0.0)))
    assert check_condition(m, "lc", 64).status == HOLDS
    v = gamma_lower_bound(m, [0], 64)[0.0]
    assert (v.status, v.evidence["onset"]) == (HOLDS, 1)


def test_condition_validation(g1):
    with pytest.raises(InvalidParameterError):
        check_condition(g1, "no_such_condition")
    with pytest.raises(InvalidParameterError):
        check_condition(g1, "lc", horizon=3)
    with pytest.raises(InvalidParameterError):
        check_condition(g1, "beta1", Q=1)
    with pytest.raises(InvalidParameterError):
        check_condition(g1, "beta1", Q=2.5)


def test_sample_pairs_deterministic_and_bounded():
    a = sample_pairs(128, 64, seed=0)
    b = sample_pairs(128, 64, seed=0)
    assert a == b
    assert sample_pairs(128, 64, seed=1) != a
    assert isinstance(a, tuple) and a is b  # shared, so immutable
    assert len(a) == 64
    for j, k in a:
        assert j >= 1 and k >= 1 and j + k <= 128


# --- growth profiles -----------------------------------------------------


def test_root_growth_profile_divergent(p12, g1):
    prof = root_growth_profile(p12, horizon=H)
    assert prof["divergent"] is True
    assert prof["sandwich_ok"] is True
    assert prof["root_liminf_log"] <= prof["mu_limsup_log"]
    assert root_growth_profile(g1, horizon=H)["divergent"] is True


def test_root_growth_profile_bounded():
    flat = table(log_values=[0.0] * 65)
    prof = root_growth_profile(flat, horizon=64)
    assert prof["divergent"] is False
    assert prof["mu_liminf_log"] == prof["root_limsup_log"] == 0.0


def test_gamma_lower_bound_gevrey_boundary():
    for s in (1.0, 2.0):
        m = gevrey(s)
        out = gamma_lower_bound(m, [0.5, s, s + 0.5], horizon=512)
        assert out[0.5].status == HOLDS
        assert out[s].status == HOLDS
        v = out[s + 0.5]
        assert v.status == FAILS
        # the defect persists to the very end of the window
        assert v.witness == 512


def test_gamma_lower_bound_scaled_ptt_head():
    m = scaled(ptt(1.0, 2.0), power_exponents(2.0), 0.5)
    out = gamma_lower_bound(m, [20.0], horizon=512)
    v = out[20.0]
    assert v.status == HOLDS
    assert 1 < v.evidence["onset"] <= 256  # early dips, then clean growth
    assert v.evidence["divided_root_divergent"] is True


def test_gamma_lower_bound_late_onset_undetermined():
    logs = [0.0]
    for j in range(1, 513):
        q = 2.0 * math.log(j) if j != 300 else 2.0 * math.log(j) - 5.0
        logs.append(logs[-1] + q)
    out = gamma_lower_bound(table(log_values=logs), [1.0], horizon=512)
    v = out[1.0]
    assert v.status == UNDETERMINED
    assert v.evidence["onset"] == 300


def test_gamma_lower_bound_decaying_roots_undetermined():
    logs = [math.lgamma(j + 1) + max(0.0, 30.0 - 3.0 * j) for j in range(65)]
    out = gamma_lower_bound(table(log_values=logs), [1.0], horizon=64)
    v = out[1.0]
    assert v.status == UNDETERMINED
    assert v.evidence["decaying_roots"] is True


def test_exponent_growth_report_families():
    for phi, tail in ((linear_exponents(), 1.0), (power_exponents(2.0), None)):
        rep = exponent_growth_report(phi, horizon=512)
        assert rep["positive_gap"] is True
        assert not rep["decaying"]
        if tail is not None:
            assert rep["tail_liminf"] == pytest.approx(tail)
    rep = exponent_growth_report(power_exponents(1.5), horizon=512)
    assert rep["positive_gap"] is True

    sqrt_tab = table_exponents([math.ceil(math.sqrt(j)) for j in range(513)])
    rep = exponent_growth_report(sqrt_tab, horizon=512)
    assert rep["decaying"] is True
    assert rep["positive_gap"] is False
    # the decay veto is what catches it: the raw tail is still above floor
    assert rep["tail_liminf"] > EXPONENT_GAP_FLOOR
    assert rep["quarter_mins"] == sorted(rep["quarter_mins"], reverse=True)


# --- window-stability property -------------------------------------------


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([64, 128, 256, 512]))
def test_exact_conditions_window_independent(h):
    # per-index certificates never flip when the window merely grows
    for m in (gevrey(1.0), gevrey(2.0), ptt(1.0, 2.0)):
        for cond in ("lc", "slc", "normalized"):
            assert check_condition(m, cond, horizon=h).status == HOLDS


@st.composite
def _near_tie_logs(draw, n):
    """n log terms whose quotients climb by random steps, by late jumps
    that make later terms far larger than earlier ones, or by ties of the
    lc or the slc quotients missed by -10 to 10 times 1e-12 of the terms
    so far."""
    logs = [draw(st.sampled_from([0.0, 1e-13, -1e-13, 2.0]))]
    q = draw(st.floats(-2.0, 2.0))
    for j in range(1, n):
        kind = draw(st.sampled_from(["up", "jump", "lc", "slc", "slc"]))
        if kind == "up":
            q += draw(st.floats(0.0, 2.0))
        elif kind == "jump":
            q += draw(st.floats(10.0, 1e4))
        else:
            tie = math.log(j / (j - 1)) if kind == "slc" and j > 1 else 0.0
            q += tie - draw(st.floats(-10.0, 10.0)) * 1e-12 * max(1.0, abs(logs[-1]))
        logs.append(logs[-1] + q)
    return logs


@st.composite
def _near_tie_pair(draw):
    """(m, n) log tables of one length: n is m moved at some indices by
    ties, near-ties at 1e-12 of the term, or whole units."""
    m = draw(_near_tie_logs(draw(st.integers(12, 64))))
    n = [t + draw(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5e-12, -0.5e-12,
                                   2e-12, -2e-12])) * max(1.0, abs(t))
         for t in m]
    return m, n


_EXACT = {
    "lc": lambda m, n, h: check_condition(m, "lc", h),
    "slc": lambda m, n, h: check_condition(m, "slc", h),
    "normalized": lambda m, n, h: check_condition(m, "normalized", h),
    "pointwise_le": lambda m, n, h: compare(m, n, "pointwise_le", h),
    "quotient_le": lambda m, n, h: compare(m, n, "quotient_le", h),
}


@pytest.mark.parametrize("tag", sorted(_EXACT))
@settings(deadline=None, max_examples=100)
@given(logs=_near_tie_pair())
def test_exact_verdicts_are_stable_in_the_horizon(tag, logs):
    # a Fails witness w at h is the witness at every h' in [w, end], and a
    # Holds at h holds at every h' <= h
    m, n = (table(log_values=v) for v in logs)
    end = len(logs[0]) - 1
    got = {h: _EXACT[tag](m, n, h) for h in range(4, end + 1)}
    for h, v in got.items():
        if v.status == FAILS:
            assert all((got[k].status, got[k].witness) == (FAILS, v.witness)
                       for k in range(max(4, v.witness), end + 1)), h
        else:
            assert v.status == HOLDS, h
            assert all(got[k].status == HOLDS for k in range(4, h)), h


def test_holds_never_claimed_for_diverging_defect(p12):
    # widening the window must not flip an Undetermined divergence to Holds
    for h in (64, 128, 256):
        for cond in ("mg", "dc"):
            v = check_condition(p12, cond, horizon=h)
            assert v.status == UNDETERMINED
            assert v.evidence["diverging"] is True


# --- gamma_lb against a plain per-alpha computation -----------------------


def gamma_evidence(logs, a, h):
    """(status, witness, onset, tail min, first max) of gamma_lb(alpha=a),
    written out per alpha as a reference.  The drop with j-value i + 1
    gets the slack of log M_0..M_(i+1)."""
    vals = [logs[j] - logs[j - 1] - a * math.log(j) for j in range(1, h + 1)]
    last = next((i + 1 for i in range(h - 1, 0, -1)
                 if vals[i] < vals[i - 1]
                 - 1e-12 * max(1.0, max(map(abs, logs[:i + 2])))), 0)
    roots = [(logs[j] - a * math.lgamma(j + 1)) / j for j in range(1, h + 1)]
    first_max = max(roots[:max(1, h // 4)])
    tail_min = min(roots[(3 * h) // 4:])
    if last > (3 * h) // 4:
        status, witness = FAILS, last
    elif max(1, last) > h // 2 or tail_min < first_max - math.log(10.0):
        status, witness = UNDETERMINED, None
    else:
        status, witness = HOLDS, None
    return status, witness, max(1, last), tail_min, first_max


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 2.0), min_size=40, max_size=80),
    st.lists(st.tuples(st.integers(1, 79), st.floats(-3.0, 0.0)), max_size=3),
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
)
def test_gamma_lower_bound_matches_reference(steps, drops, alphas):
    quotients = [sum(steps[:i + 1]) for i in range(len(steps))]
    for i, d in drops:
        if i < len(quotients):
            quotients[i] += d
    logs = [0.0]
    for q in quotients:
        logs.append(logs[-1] + q)
    h = len(quotients)
    got = gamma_lower_bound(table(log_values=logs), alphas, h)
    for a in alphas:
        v = got[a]
        ev = v.evidence
        assert (v.status, v.witness, ev["onset"], ev["divided_root_tail_min"],
                ev["divided_root_first_max"]) == gamma_evidence(logs, a, h)
