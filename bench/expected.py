"""Hand-written expected verdicts for every benchmark workload.

Each entry follows from the definitions in PAPER.md and the acceptance
criteria, applied to the finite window the query asks for.  The seeded
parameter draws in workloads.py stay inside RANGES, and every entry below
holds on the whole range.  H, F and U abbreviate Holds, Fails and
Undetermined in the per-grid-index strings of the matrix table.
"""

H, F, U = "Holds", "Fails", "Undetermined"

# seeded parameter ranges, (low, high); the tables hold on all of them
RANGES = {
    # seq_scan
    "ghi.s": (1.5, 3.0),       # gevrey, s > 1: non-quasianalytic
    "glo.s": (0.5, 0.9),       # gevrey, s < 1: quasianalytic, not slc
    "pt.tau": (1.0, 2.0),      # ptt: tau >= 1 keeps slc from j = 1
    "pt.sigma": (1.3, 1.6),    # 1 < sigma < 2: dc holds, mg does not
    "ph.sigma": (1.3, 2.0),    # exponent of the scaled sequence
    "sc.c": (1.5, 4.0),        # c > 1 keeps the scaled sequence normalized
    # matrix_search
    # narrow: the window outcome of mg (see MATRIX) and of the Beurling FdB
    # search shifts by one grid index just outside these ranges
    "pm.tau": (1.0, 1.02),
    "pm.sigma": (1.96, 1.98),
    "sm.sigma": (1.9, 2.0),
    "ms.sigma": (1.45, 1.55),
    # omega_roundtrip
    "g.s": (1.25, 1.35),       # peak memory grows as s nears 1
    # log mu_21 of ptt stays below log 1e70, the end of the recovery grid
    "p.tau": (1.0, 1.05),
    "p.sigma": (1.8, 2.0),
}

# ---------------------------------------------------------------------------
# seq_scan: all ten single-sequence conditions at horizon 4096.
#   ghi = gevrey(s > 1), glo = gevrey(s < 1), pt = ptt(tau, sigma),
#   sc  = ghi scaled by c^(j^phi_sigma), tb = convex table, bounded quotients

SEQ_CONDITIONS = ("lc", "slc", "normalized", "mg", "dc", "nq",
                  "nq_carleman", "beta1", "beta3", "gamma1")

SEQ_SCAN = {
    # log mu_j = s log j: every condition holds for s > 1 (criterion 09)
    "ghi": dict(lc=H, slc=H, normalized=H, mg=H, dc=H, nq=H,
                nq_carleman=H, beta1=H, beta3=H, gamma1=H),
    # s < 1: reduced quotients (s - 1) log j fall from j = 2, the sum of
    # 1/j^s diverges and mu_2j / mu_j = 2^s < 2, so the series and
    # beta1/gamma1 conditions cannot be certified
    "glo": dict(lc=H, slc=F, normalized=H, mg=H, dc=H, nq=U,
                nq_carleman=U, beta1=U, beta3=H, gamma1=U),
    # log M_j = tau j^sigma ln j with 1 < sigma < 2: quotients grow faster
    # than any power (series conditions hold) but M_2j / M_j^2 grows like
    # exp(j^sigma), so the mg defect diverges
    "pt": dict(lc=H, slc=H, normalized=H, mg=U, dc=H, nq=H,
               nq_carleman=H, beta1=H, beta3=H, gamma1=H),
    # the c^(j^phi) factor with phi > 1 behaves like ptt
    "sc": dict(lc=H, slc=H, normalized=H, mg=U, dc=H, nq=H,
               nq_carleman=H, beta1=H, beta3=H, gamma1=H),
    # bounded, strictly increasing quotients: geometric-type growth, so
    # slc fails at j = 2 and the reciprocal quotient series diverges;
    # beta3 only needs mu_2j > mu_j on the window
    "tb": dict(lc=H, slc=F, normalized=H, mg=H, dc=H, nq=U,
               nq_carleman=U, beta1=U, beta3=H, gamma1=U),
}

# gamma_lb alphas per family and the verdict for each.  For gevrey(s),
# and for sc with the s of its gevrey base, the alphas are
# (s/2, s, s + 0.5): mu_j / j^alpha is non-decreasing exactly when
# alpha <= s (criterion 09).  ptt and the scaled sequence grow faster than
# every power; the bounded table quotients fail every positive alpha.
GAMMA_LB = {
    "ghi": (H, H, F),
    "glo": (H, H, F),
    "pt": (H, H, H),
    "sc": (H, H, H),
    "tb": (F, F, F),
}
GAMMA_LB_FIXED_ALPHAS = {"pt": (0.5, 1.0, 2.0), "tb": (0.5, 1.0, 2.0)}

# (relation, left, right, status).  Exact relations are also recomputed
# in reference.py, witness included.
RELATIONS = (
    ("preceq", "glo", "ghi", H),        # (s_lo - s_hi) log j! / j sinks
    ("approx", "ghi", "sc", F),         # ratio c^(j^(phi-1)) is unbounded
    ("triangle", "glo", "ghi", H),
    ("pointwise_le", "ghi", "glo", F),  # first violated at j = 2
    ("quotient_le", "glo", "ghi", H),
)

# the convex table has 4097 entries; beta1/beta3 read index 2h, so on the
# table they run at half the horizon
TABLE_BETA_HORIZON = 2048

# ---------------------------------------------------------------------------
# matrix_search: eight matrix conditions x both flavors on the default
# 13-point grid 2^-4 .. 2^8 at horizon 512.
#   pm = ptt_matrix(tau, sigma ~ 2), sm = sigma_matrix(sigma ~ 2),
#   ms = matrix_scale(base=pm, phi=power(~1.5))
#
# L, dc, rai, FdB and BR hold everywhere: the c^(j^sigma) factor of a
# larger index absorbs any geometric factor.  sc fails for the four
# indices below 1 (log M_1 = ln c < 0, not normalized).  constant holds
# only at the anchor index itself.  mg of ptt-type matrices fails in the
# limit (criterion 04), yet for the indices up to 2 a partner far beyond
# the grid makes the defect negative over the whole 512 window, so those
# indices hold on the window; the Beurling search, whose partner sits
# below the index, finds a stabilized trajectory at every index.  The
# Beurling FdB search from the two smallest indices of sigma_matrix finds
# no partner within the capped composition horizon (fdb_horizon = 60).

_ALL_H = "HHHHHHHHHHHHH"
_SC = "FFFFHHHHHHHHH"
_CONST = "HFFFFFFFFFFFF"

MATRIX = {}
for _m in ("pm", "sm", "ms"):
    for _c in ("L", "dc", "rai", "FdB", "BR"):
        for _f in ("r", "b"):
            MATRIX[(_m, _c, _f)] = _ALL_H
    for _f in ("r", "b"):
        MATRIX[(_m, "sc", _f)] = _SC
        MATRIX[(_m, "constant", _f)] = _CONST
MATRIX[("pm", "mg", "r")] = "HHHHHHUUUUUUU"
MATRIX[("pm", "mg", "b")] = _ALL_H
MATRIX[("sm", "mg", "r")] = _ALL_H   # criterion 04: sigma_matrix mg holds
MATRIX[("sm", "mg", "b")] = _ALL_H
MATRIX[("sm", "FdB", "b")] = "UUHHHHHHHHHHH"
MATRIX[("ms", "mg", "r")] = "HHHHHHUUUUUUU"
MATRIX[("ms", "mg", "b")] = _ALL_H

MATRIX_CONDITIONS = ("L", "mg", "dc", "rai", "FdB", "BR", "sc", "constant")

# ---------------------------------------------------------------------------
# omega_roundtrip

OMEGA_RELATIONS = (
    ("approx", "rg", "g", H),      # from_omega(assoc(g)) recovers g
    ("bigO", "g2", "g", H),        # criterion 06
    ("smallO", "g", "g2", H),
    ("numeric_ratio", "g2", "g", H),
)
# theta bounds of gevrey(s) against ptt_matrix(1, 2): gevrey growth sits
# far below every ptt element, so both flavors hold (criterion 10).  The
# workload asks for 65 derivative orders: with 25, the Beurling trajectory
# of the smallest index has not turned within the data yet.
MEMBERSHIP = (H, H)

# ---------------------------------------------------------------------------
# cli_oneshot: documented exit codes (README): 0 all verdicts acceptable,
# 1 any Fails or Undetermined without --allow-undetermined, 2 usage
# errors, 3 runtime errors.

EXIT_OK, EXIT_VERDICT, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2, 3
