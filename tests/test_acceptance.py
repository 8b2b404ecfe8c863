"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line so a plain `pytest -v -s
tests/test_acceptance.py` reads as a checklist.  Tolerances are part of
the contract and are asserted as stated, not relaxed to fit the output.
"""

import json
import math
import pathlib
import random
import time


from wcalc import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    LogGrid,
    OmegaFunction,
    assoc_relation_check,
    check_matrix_condition,
    classify_membership,
    cli,
    composition_sequence,
    condition_id,
    gamma_lower_bound,
    gevrey,
    linear_exponents,
    power_exponents,
    ptt,
    ptt_matrix,
    recover_term,
    regularize_slc,
    scale_family,
    scaled,
    sigma_matrix,
    synthetic_bounds,
    table,
    table_exponents,
    theta_derivative_log_bound,
)
from wcalc.config import CONTINUATION_STEPS
from wcalc.dsl import parse, print_program

SMOKE = pathlib.Path(__file__).parent / "data" / "smoke.wsq"


def report(num: int, label: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_roundtrip_recovery():
    # sequence -> associated function -> sequence, 1e-2 in log scale
    start = time.monotonic()
    grid = LogGrid(1.0, 1e70, 400)
    worst = 0.0
    for m in (gevrey(1), gevrey(2), ptt(1, 2)):
        om = OmegaFunction.from_sequence(m)
        for j in range(1, 21):
            err = abs(recover_term(om, j, grid) - m.log_term(j))
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-2 and elapsed < 5.0
    report(1, f"round-trip recovery (worst {worst:.2e}, {elapsed:.2f}s)", ok)
    assert worst <= 1e-2
    assert elapsed < 5.0


def test_criterion_02_witness_derivative_bounds_dominate():
    # the log-sum bound contains the k-th term itself: >= with no tolerance
    reg = regularize_slc(ptt_matrix(1.0, 2.0).element(1.0), 128)
    ok = all(theta_derivative_log_bound(n, k) >= n.log_term(k)
             for n in (gevrey(1), gevrey(2), reg) for k in range(51))
    report(2, "witness derivative bounds dominate every term", ok)
    assert ok


def test_criterion_03_geometric_scaling_law_exact():
    mm = ptt_matrix(1.0, 2.0)
    worst = 0.0
    for c1, c2 in ((1.0, 2.0), (0.5, 4.0)):
        gap = math.log(c2) - math.log(c1)
        lo, hi = mm.element(c1), mm.element(c2)
        for j in range(1, 257):
            got = (hi.log_term(j) - lo.log_term(j)) / j
            worst = max(worst, abs(got - j * gap))
    ok = worst <= 1e-9
    report(3, f"per-index scaling law exact (worst {worst:.2e})", ok)
    assert worst <= 1e-9


def test_criterion_04_moderate_growth_contrast():
    cid = condition_id("mg", "roumieu")
    res_p = check_matrix_condition(ptt_matrix(1.0, 2.0, (1.0, 2.0, 4.0, 8.0)),
                                   cid, None, 128)
    ptt_ok = all(v.status == UNDETERMINED and v.evidence["diverging"]
                 for v in res_p.values())
    sigma = 2.0
    grid = (1.0, 2.0, 4.0, 16.0, 256.0)
    res_s = check_matrix_condition(sigma_matrix(sigma, grid), cid, None, 128)
    holds_ok = all(v.status == HOLDS for v in res_s.values())
    beta_map = {alpha: v.witness for alpha, v in res_s.items()}
    # For sigma_matrix(sigma) the diagonal defect is
    #   log M^alpha_{2j} - 2 log M^beta_j
    #     = j^sigma [2^sigma log alpha + 2^sigma alpha log 2 - 2 log beta]
    #       + j^sigma log j [2^sigma alpha - 2 beta],
    # and j^sigma log j outgrows any log C^(2j+1), so the defect is bounded
    # only when beta > 2^(sigma-1) alpha; a partner at or below that is a
    # false Holds.  The search tries grid points >= alpha, then
    # grid[-1] * r^i for i = 1..continuation_steps with r = grid[-1]/grid[-2],
    # so the first of those above the threshold is the partner it must
    # report: skipping it overshoots.
    ratio = grid[-1] / grid[-2]
    order = list(grid) + [grid[-1] * ratio ** i
                          for i in range(1, CONTINUATION_STEPS + 1)]
    want = {alpha: next(b for b in order
                        if b >= alpha and b > 2.0 ** (sigma - 1.0) * alpha)
            for alpha in grid}
    beta_ok = beta_map == want
    ok = ptt_ok and holds_ok and beta_ok
    report(4, f"moderate-growth contrast (partners {beta_map})", ok)
    assert ptt_ok
    assert holds_ok
    assert beta_ok, (f"partner map {beta_map} is not the first candidate "
                     f"above 2^(sigma-1)*alpha: {want}")


def test_criterion_05_scaling_stability_matches_exponent_growth():
    cases = [
        ("linear", linear_exponents(), HOLDS),
        ("power-1.5", power_exponents(1.5), HOLDS),
        ("power-2", power_exponents(2.0), HOLDS),
        ("sqrt-table",
         table_exponents([math.ceil(math.sqrt(j)) for j in range(1025)]),
         UNDETERMINED),
    ]
    ok = True
    for _, phi, want in cases:
        mm = scale_family(gevrey(1), phi, (0.5, 1.0, 2.0, 4.0))
        for flavor in ("roumieu", "beurling"):
            res = check_matrix_condition(mm, condition_id("L", flavor),
                                         None, 512)
            for v in res.values():
                ok = ok and v.status == want
                if want == UNDETERMINED:
                    ok = ok and v.evidence["exponent_growth"]["decaying"]
    report(5, "scaling stability tracks exponent growth rate", ok)
    assert ok


def test_criterion_06_one_sided_domination_and_ratio_decay():
    g1, g2 = gevrey(1), gevrey(2)
    v = assoc_relation_check(g2, g1, "bigO", 4, 256)
    cell = v.evidence["per_c"][2]
    bound_ok = (v.status == HOLDS and cell["stabilized"]
                and math.exp(cell["log_constant"]) <= math.e)
    om1 = OmegaFunction.from_sequence(g1)
    om2 = OmegaFunction.from_sequence(g2)
    tail = [(t, om2.eval(t).value / om1.eval(t).value)
            for t in LogGrid(10.0, 1e6, 200).values() if t >= 1e5]
    tail_ok = max(r for _, r in tail) < 1.0
    mono_ok = all(tail[i + 1][1] <= tail[i][1] * 1.05
                  for i in range(len(tail) - 1))
    ok = bound_ok and tail_ok and mono_ok
    report(6, "one-sided domination with decaying growth ratio", ok)
    assert bound_ok
    assert tail_ok
    assert mono_ok


def test_criterion_07_two_sided_equivalence_within_family():
    mm = sigma_matrix(2.0)
    e1, e3 = mm.element(1.0), mm.element(3.0)
    s1 = scaled(e1, power_exponents(2.0), 2.0)
    oms = {id(m): OmegaFunction.from_sequence(m)
           for m in (e1, e3, s1)}
    ratio_ok = True
    for t in LogGrid(10.0, 1e6, 200).values():
        base = oms[id(e1)].eval(t).value
        for other in (e3, s1):
            r = oms[id(other)].eval(t).value / base
            ratio_ok = ratio_ok and 1.0 / 50.0 <= r <= 50.0
    both_ok = True
    for m, n in ((e3, e1), (e1, e3), (s1, e1), (e1, s1)):
        v = assoc_relation_check(m, n, "bigO", 8, 512)
        both_ok = both_ok and v.status == HOLDS
    ok = ratio_ok and both_ok
    report(7, "index/geometric variants stay mutually bounded", ok)
    assert ratio_ok
    assert both_ok


def _partition_maximum(logs, top):
    def partitions(k, cap):
        if k == 0:
            yield ()
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    out = [0.0]
    for k in range(1, top + 1):
        out.append(max(logs[len(p)] + math.fsum(logs[q] for q in p)
                       for p in partitions(k, k)))
    return out


def test_criterion_08_composition_dp_vs_enumeration():
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(50):
        steps = sorted(rng.uniform(0.0, 3.0) for _ in range(11))
        logs = [0.0, 0.0]
        for step in steps:
            logs.append(2 * logs[-1] - logs[-2] + step)
        got = composition_sequence(logs, 12)
        want = _partition_maximum(logs, 12)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    dp_ok = worst <= 1e-9
    res = check_matrix_condition(ptt_matrix(1.0, 2.0, (1.0, 2.0, 4.0, 8.0)),
                                 condition_id("FdB", "roumieu"), None, 48)
    fdb_ok = all(v.status == HOLDS for v in res.values())
    ok = dp_ok and fdb_ok
    report(8, f"composition dp equals enumeration (worst {worst:.2e})", ok)
    assert dp_ok
    assert fdb_ok


def test_criterion_09_root_growth_floor():
    mm = ptt_matrix(1.0, 2.0)
    elems_ok = all(
        v.status == HOLDS
        for c in (0.5, 1.0, 2.0)
        for v in gamma_lower_bound(mm.element(c), (1.0, 5.0, 20.0),
                                   512).values())
    gevrey_ok = True
    for s in (1.0, 2.0):
        res = gamma_lower_bound(gevrey(s), (0.5, s, s + 0.5), 512)
        gevrey_ok = (gevrey_ok and res[0.5].status == HOLDS
                     and res[s].status == HOLDS
                     and res[s + 0.5].status == FAILS)
    ok = elems_ok and gevrey_ok
    report(9, "divided-root growth floor per index", ok)
    assert elems_ok
    assert gevrey_ok


def test_criterion_10_membership_classification():
    mm = ptt_matrix(1.0, 2.0)
    rep = classify_membership(synthetic_bounds(mm.element(2.0), 128), mm)
    sep_ok = rep.roumieu.status == HOLDS and rep.beurling.status == FAILS
    fact = synthetic_bounds(
        table(log_values=[math.lgamma(j + 1) for j in range(129)]), 128)
    both_ok = True
    for fixture in (mm, ptt_matrix(2.0, 3.0)):
        r = classify_membership(fact, fixture)
        both_ok = (both_ok and r.roumieu.status == HOLDS
                   and r.beurling.status == HOLDS)
    ok = sep_ok and both_ok
    report(10, "membership split between the two quantifier flavors", ok)
    assert sep_ok
    assert both_ok


def test_criterion_11_determinism_and_interfaces(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    codes = [cli.main(["run", str(SMOKE), "--out", str(p)]) for p in (a, b)]
    golden_ok = (codes == [0, 0] and a.read_bytes() == b.read_bytes())
    cli.main(["run", str(SMOKE), "--horizon", "64", "--out", str(c)])
    golden_ok = golden_ok and a.read_bytes() != c.read_bytes()

    text = SMOKE.read_text()
    first = parse(text)
    roundtrip_ok = parse(print_program(first)).statements == first.statements

    exit_ok = (
        cli.main(["compare", "--left", "gevrey:1", "--right", "gevrey:0.5",
                  "--rel", "preceq"]) == 1
        and cli.main(["check", "--family", "ptt:1:2", "--cond", "mg"]) == 1
        and cli.main(["check", "--family", "ptt:1:2", "--cond", "mg",
                      "--allow-undetermined"]) == 0
        and cli.main(["check", "--family", "nope:1", "--cond", "lc"]) == 2
        and cli.main(["run", str(tmp_path / "missing.wsq")]) == 3
    )
    records = json.loads(a.read_bytes())["records"]
    clean_ok = all("error" not in r for r in records)
    ok = golden_ok and roundtrip_ok and exit_ok and clean_ok
    report(11, "deterministic reports, stable grammar, exit codes", ok)
    assert golden_ok
    assert roundtrip_ok
    assert exit_ok
    assert clean_ok
