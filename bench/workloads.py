"""Seeded workload generators.

Each generator turns a seed into the inputs the program sees (a .wsq
script, or a list of CLI argument vectors plus the files they read) and
into one check per operation.  A check returns None when the program's
output matches the expectation, else a one-line reason.  Expected
verdicts come from expected.py; numbers come from reference.py.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

import expected as X
import reference as R

_ANY = object()


@dataclass
class Workload:
    name: str
    # script workloads: the .wsq text and one check per query record
    script: str | None = None
    checks: list = field(default_factory=list)
    # cli workload: argument vectors, one check per call, files to write
    calls: list = field(default_factory=list)
    files: dict = field(default_factory=dict)
    # extra library-level operations checked once per pass: (label, fn)
    extras: list = field(default_factory=list)
    # scripts the set-up child parses (cli: the ones `run` reads)
    setup_scripts: list = field(default_factory=list)


def _uniform(rng: random.Random, key: str) -> float:
    lo, hi = X.RANGES[key]
    return rng.uniform(lo, hi)


def _num(v: float) -> str:
    return repr(float(v))


def _list(vals) -> str:
    return "[" + ", ".join(_num(v) for v in vals) + "]"


# ---------------------------------------------------------------------------
# record checks


def _no_error(rec):
    if "error" in rec:
        err = rec["error"]
        return f"error {err.get('type')}: {err.get('message')}"
    return None


def status(want, witness=_ANY):
    def check(rec):
        bad = _no_error(rec)
        if bad:
            return bad
        if rec.get("status") != want:
            return f"status {rec.get('status')}, expected {want}"
        if witness is not _ANY and rec.get("witness") != witness:
            return f"witness {rec.get('witness')!r}, expected {witness!r}"
        return None
    return check


def statuses(want):
    want = list(want)

    def check(rec):
        bad = _no_error(rec)
        if bad:
            return bad
        got = rec.get("statuses")
        if got != want:
            return f"statuses {got}, expected {want}"
        return None
    return check


def _letters(code: str):
    return [{"H": X.H, "F": X.F, "U": X.U}[c] for c in code]


def all_of(*checks):
    def check(rec):
        for c in checks:
            bad = c(rec)
            if bad:
                return bad
        return None
    return check


def value(ref, tol, key="value", attained=_ANY):
    def check(rec):
        bad = _no_error(rec)
        if bad:
            return bad
        got = rec.get(key)
        if not isinstance(got, float) or abs(got - ref) > tol:
            return f"{key} {got!r}, reference {ref!r} (tolerance {tol:g})"
        if attained is not _ANY and rec.get("attained_at") != attained:
            return f"attained_at {rec.get('attained_at')}, reference {attained}"
        return None
    return check


# ---------------------------------------------------------------------------
# seq_scan


def _convex_table(rng: random.Random, length: int) -> list[float]:
    """Linear-scale values of a normalized log-convex table whose log
    quotients rise strictly and stay bounded (about 0.1), so the terms
    stay finite as plain floats."""
    logs = [0.0, 0.0]
    q = 0.0
    for i in range(2, length):
        q += rng.uniform(0.5, 1.5) * 0.15 / (i * i)
        logs.append(logs[-1] + q)
    return [math.exp(v) for v in logs]


def seq_scan(seed: int) -> Workload:
    h = 4096
    rng = random.Random(seed)
    s_hi = _uniform(rng, "ghi.s")
    s_lo = _uniform(rng, "glo.s")
    tau = _uniform(rng, "pt.tau")
    sigma = _uniform(rng, "pt.sigma")
    phi = _uniform(rng, "ph.sigma")
    c = _uniform(rng, "sc.c")
    values = _convex_table(rng, h + 1)

    terms = {
        "ghi": R.gevrey_log(s_hi),
        "glo": R.gevrey_log(s_lo),
        "pt": R.ptt_log(tau, sigma),
        "sc": R.scaled_log(R.gevrey_log(s_hi), phi, c),
        "tb": R.table_log(values),
    }
    lines = [
        f"seq ghi = gevrey(s={_num(s_hi)});",
        f"seq glo = gevrey(s={_num(s_lo)});",
        f"seq pt = ptt(tau={_num(tau)}, sigma={_num(sigma)});",
        f"exp ph = power(sigma={_num(phi)});",
        f"seq sc = scale(base=ghi, phi=ph, c={_num(c)});",
        f"seq tb = table(values={_list(values)});",
    ]
    gevrey_s = {"ghi": s_hi, "glo": s_lo, "sc": s_hi}  # sc scales ghi
    checks = []
    for name, table in X.SEQ_SCAN.items():
        for cond in X.SEQ_CONDITIONS:
            hq = X.TABLE_BETA_HORIZON if (name == "tb" and cond in ("beta1", "beta3")) else h
            lines.append(f"check {cond}({name}) horizon {hq};")
            want = table[cond]
            rule = R.EXACT_RULES.get(cond)
            if rule is None:
                checks.append(status(want))
                continue
            ref_status, ref_witness = rule(terms[name], hq)
            if ref_status != want:
                raise AssertionError(f"expected table and reference disagree "
                                     f"on {cond}({name}): {want} vs {ref_status}")
            checks.append(status(want, ref_witness))
        s = gevrey_s.get(name)
        alphas = X.GAMMA_LB_FIXED_ALPHAS.get(name) or (s / 2, s, s + 0.5)
        lines.append(f"check gamma_lb({name}, {_list(alphas)}) horizon {h};")
        checks.append(statuses(X.GAMMA_LB[name]))
    for rel, left, right, want in X.RELATIONS:
        lines.append(f"compare {rel}({left}, {right}) horizon {h};")
        if rel in ("pointwise_le", "quotient_le"):
            rule = R.pointwise_le if rel == "pointwise_le" else R.quotient_le
            ref_status, ref_witness = rule(terms[left], terms[right], h)
            if ref_status != want:
                raise AssertionError(f"expected table and reference disagree "
                                     f"on {rel}({left}, {right})")
            checks.append(status(want, ref_witness))
        else:
            checks.append(status(want))
    text = "\n".join(lines) + "\n"
    return Workload("seq_scan", script=text, checks=checks, setup_scripts=[text])


# ---------------------------------------------------------------------------
# matrix_search


def _composition_extra(rng: random.Random):
    """composition_sequence at K = 12 on a seeded convex reduced sequence,
    against partition enumeration (criterion 08)."""
    k_top = 12
    logs = [0.0, 0.0]
    for step in sorted(rng.uniform(0.0, 3.0) for _ in range(k_top - 1)):
        logs.append(2 * logs[-1] - logs[-2] + step)
    want = R.partition_maximum(logs, k_top)

    def run(wcalc):
        got = wcalc.composition_sequence(logs, k_top)
        worst = max(abs(a - b) for a, b in zip(got, want))
        if len(got) != len(want) or worst > 1e-9:
            return f"composition_sequence differs from enumeration by {worst:g}"
        return None
    return ("composition_sequence K=12", run)


def matrix_search(seed: int) -> Workload:
    rng = random.Random(seed)
    tau = _uniform(rng, "pm.tau")
    sigma = _uniform(rng, "pm.sigma")
    s_sigma = _uniform(rng, "sm.sigma")
    phi = _uniform(rng, "ms.sigma")
    lines = [
        f"matrix pm = ptt_matrix(tau={_num(tau)}, sigma={_num(sigma)});",
        f"matrix sm = sigma_matrix(sigma={_num(s_sigma)});",
        f"exp ph = power(sigma={_num(phi)});",
        "matrix ms = matrix_scale(base=pm, phi=ph);",
    ]
    checks = []
    for m in ("pm", "sm", "ms"):
        for cond in X.MATRIX_CONDITIONS:
            for flavor in ("r", "b"):
                lines.append(f"mcheck {cond}({m}) horizon 512 flavor {flavor};")
                checks.append(statuses(_letters(X.MATRIX[(m, cond, flavor)])))
    text = "\n".join(lines) + "\n"
    return Workload("matrix_search", script=text, checks=checks,
                    extras=[_composition_extra(rng)], setup_scripts=[text])


# ---------------------------------------------------------------------------
# omega_roundtrip


def omega_roundtrip(seed: int) -> Workload:
    rng = random.Random(seed)
    s = _uniform(rng, "g.s")
    tau = _uniform(rng, "p.tau")
    sigma = _uniform(rng, "p.sigma")
    terms = {"g": R.gevrey_log(s), "p": R.ptt_log(tau, sigma)}
    lines = [
        f"seq g = gevrey(s={_num(s)});",
        f"seq g2 = gevrey(s={_num(s + 1.0)});",
        f"seq p = ptt(tau={_num(tau)}, sigma={_num(sigma)});",
        "omega wg = assoc(m=g);",
        "omega wp = assoc(m=p);",
    ]
    checks = []
    # omega at seeded t in [10, 1e4]; the maximizer of gevrey(s) sits near
    # t^(1/s), past the default horizon 512 for the larger t, so the
    # queries carry an explicit horizon
    for _ in range(6):
        t = 10.0 ** rng.uniform(1.0, 4.0)
        for w, name in (("wg", "g"), ("wp", "p")):
            lines.append(f"eval omega({w}, {_num(t)}) horizon 65536;")
            ref, arg = R.omega_brute(terms[name], t, R.omega_scan_limit(1.0, t))
            checks.append(value(ref, 1e-9 * max(1.0, abs(ref)), attained=arg))
    # recovery, criterion 01: log M_j back from omega within 1e-2
    for j in range(1, 21):
        for w, name in (("wg", "g"), ("wp", "p")):
            lines.append(f"eval recover({w}, {j}) grid [1, 1e70, 400];")
            checks.append(value(terms[name](j), R.RECOVERY_TOL))
    # conjugate at non-integer s: the chord of log M
    for _ in range(4):
        x = rng.uniform(1.0, 15.0)
        for w, name in (("wg", "g"), ("wp", "p")):
            lines.append(f"eval conjugate({w}, {_num(x)}) grid [1, 1e70, 400];")
            checks.append(value(R.conjugate_interp(terms[name], x), R.RECOVERY_TOL))
    lines.append("seq rg = from_omega(w=wg);")
    for rel, left, right, want in X.OMEGA_RELATIONS:
        hq = 24 if rel == "approx" else 256
        lines.append(f"compare {rel}({left}, {right}) horizon {hq};")
        checks.append(status(want))
    for t in (0.0, rng.uniform(0.1, 2.0)):
        lines.append(f"eval theta(g, {_num(t)});")
        re, im = R.theta_value(terms["g"], t, 40)
        checks.append(all_of(value(re, 1e-12, key="real"),
                             value(im, 1e-12, key="imaginary")))
    lines += [
        "seq f = theta_bounds(n=g, count=64);",
        "matrix pm = ptt_matrix(tau=1, sigma=2);",
        "classify membership(f, pm);",
    ]
    checks.append(statuses(X.MEMBERSHIP))
    text = "\n".join(lines) + "\n"
    return Workload("omega_roundtrip", script=text, checks=checks,
                    setup_scripts=[text])


# ---------------------------------------------------------------------------
# cli_oneshot


def _json_statuses(want_per_record):
    """Check for a call whose stdout is a JSON report."""
    def check(out: str):
        try:
            rep = json.loads(out)
        except ValueError as exc:
            return f"stdout is not a JSON report: {exc}"
        recs = rep.get("records", [])
        if len(recs) != len(want_per_record):
            return f"{len(recs)} records, expected {len(want_per_record)}"
        for rec, want in zip(recs, want_per_record):
            got = rec.get("statuses") or [rec.get("status")]
            if got != list(want):
                return f"statuses {got}, expected {list(want)}"
        return None
    return check


def _bounds_csv(log_m, count: int) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["j", "log_bound"])
    for j in range(count + 1):
        w.writerow([j, repr(log_m(j))])
    return buf.getvalue()


def _omega_csv_check(log_m, s_min: float, grid):
    t_lo, t_hi, n = grid
    step = (math.log(t_hi) - math.log(t_lo)) / (n - 1)
    refs = []
    for i in range(n):
        t = math.exp(math.log(t_lo) + i * step)
        refs.append(R.omega_brute(log_m, t, R.omega_scan_limit(s_min, t)))

    def check(text: str):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[:1] != [["t", "omega", "attained_at"]] or len(rows) != n + 1:
            return f"omega CSV has {len(rows)} rows, expected header + {n}"
        for row, (ref, arg) in zip(rows[1:], refs):
            got = float(row[1])
            if not R.close(got, ref) or int(row[2]) != arg:
                return f"omega CSV row t={row[0]}: {got} at {row[2]}, reference {ref} at {arg}"
        return None
    return check


def cli_oneshot(seed: int, scratch: str) -> Workload:
    """In-process wcalc CLI calls; file paths are relative to the checkout
    root and live under `scratch`."""
    rng = random.Random(seed)
    s_hi = _uniform(rng, "ghi.s")
    s_lo = _uniform(rng, "glo.s")
    tau = _uniform(rng, "pt.tau")
    sigma = _uniform(rng, "pt.sigma")
    s_sigma = _uniform(rng, "sm.sigma")
    c = rng.uniform(1.0, 4.0)

    fact = _bounds_csv(lambda j: math.lgamma(j + 1), 128)
    ptt_elem = _bounds_csv(R.ptt_element_log(1.0, 2.0, 2.0), 128)
    small = "\n".join([
        f"seq g = gevrey(s={_num(s_hi)});",
        f"seq p = ptt(tau={_num(tau)}, sigma={_num(sigma)});",
        "check lc(g) horizon 128;",
        "check dc(p) horizon 128;",
        "compare preceq(g, p) horizon 128;",
    ]) + "\n"
    mat = "\n".join([
        f"matrix sm = sigma_matrix(sigma={_num(s_sigma)}, grid=[1, 2, 4, 16, 256]);",
        "mcheck mg(sm) horizon 128 flavor r;",
        f"seq g = gevrey(s={_num(s_lo)});",
        "check slc(g) horizon 128;",
    ]) + "\n"
    files = {
        f"{scratch}/fact.csv": fact,
        f"{scratch}/ptt_elem.csv": ptt_elem,
        f"{scratch}/small.wsq": small,
        f"{scratch}/matrix.wsq": mat,
    }
    omega_csv = f"{scratch}/omega.csv"
    omega_grid = (1.0, 1e4, 50)
    H, F, U = X.H, X.F, X.U
    calls = [
        # (argv, exit code, stdout check, (written file, check) or None)
        (["check", "--family", f"gevrey:{s_hi!r}", "--cond", "mg",
          "--horizon", "256", "--format", "json"],
         X.EXIT_OK, _json_statuses([[H]]), None),
        (["check", "--family", f"ptt:{tau!r}:{sigma!r}", "--cond", "mg",
          "--horizon", "256", "--format", "json"],
         X.EXIT_VERDICT, _json_statuses([[U]]), None),
        (["check", "--family", f"ptt:{tau!r}:{sigma!r}", "--cond", "mg",
          "--horizon", "256", "--allow-undetermined"],
         X.EXIT_OK, None, None),
        (["check", "--family", f"ptt-matrix:1:2:{c!r}", "--cond", "lc",
          "--horizon", "256", "--format", "json"],
         X.EXIT_OK, _json_statuses([[H]]), None),
        (["check", "--family", f"sigma-matrix:{s_sigma!r}", "--cond", "mg",
          "--flavor", "r", "--grid", "1,2,4,16,256", "--horizon", "128",
          "--format", "json"],
         X.EXIT_OK, _json_statuses([[H] * 5]), None),
        (["compare", "--left", f"gevrey:{s_hi!r}", "--right", f"gevrey:{s_lo!r}",
          "--rel", "preceq", "--horizon", "256"],
         X.EXIT_VERDICT, None, None),
        (["compare", "--left", f"gevrey:{s_lo!r}", "--right", f"gevrey:{s_hi!r}",
          "--rel", "preceq", "--horizon", "256", "--format", "json"],
         X.EXIT_OK, _json_statuses([[H]]), None),
        (["omega", "--family", f"gevrey:{s_hi!r}", "--t-grid", "1:1e4:50",
          "--csv", omega_csv],
         X.EXIT_OK, None,
         (omega_csv, _omega_csv_check(R.gevrey_log(s_hi), s_hi, omega_grid))),
        (["classify", "--bounds", f"{scratch}/ptt_elem.csv",
          "--matrix", "ptt-matrix:1:2", "--format", "json"],
         X.EXIT_VERDICT, _json_statuses([[H, F]]), None),
        (["classify", "--bounds", f"{scratch}/fact.csv",
          "--matrix", "ptt-matrix:1:2", "--format", "json"],
         X.EXIT_OK, _json_statuses([[H, H]]), None),
        (["run", f"{scratch}/small.wsq", "--format", "json"],
         X.EXIT_OK, _json_statuses([[H], [H], [H]]), None),
        (["run", f"{scratch}/matrix.wsq", "--format", "csv",
          "--allow-undetermined"],
         X.EXIT_VERDICT, None, None),
        (["check", "--family", "nope:1", "--cond", "lc"],
         X.EXIT_USAGE, None, None),
        (["run", f"{scratch}/missing.wsq"],
         X.EXIT_RUNTIME, None, None),
    ]
    return Workload("cli_oneshot", calls=calls, files=files,
                    setup_scripts=[small, mat])


GENERATORS = {
    "seq_scan": seq_scan,
    "matrix_search": matrix_search,
    "omega_roundtrip": omega_roundtrip,
    "cli_oneshot": cli_oneshot,
}
