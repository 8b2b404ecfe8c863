"""Weight sequences and exponent sequences, evaluated in log scale.

A weight sequence M = (M_j) is exposed only through log M_j (a float per
index, -inf unused: weights are positive).  Families are closed-form where
possible so indices far beyond any memo stay O(1):

    gevrey(s):        log M_j = s * lgamma(j + 1)
    ptt(tau, sigma):  log M_j = tau * j^sigma * ln j   (0^0 := 1, so j=0 -> 0)
    scaled(M, phi, c): log M_j + phi_j * ln c
    table(values):    finite data, never extrapolates

Two readers serve the two access patterns.  Scans over an index window
(conditions, relations, matrix pair tests, the witness series) call
log_terms(n), which returns the cached prefix [log M_0, ..., log M_n].  It
grows the prefix by evaluating the whole missing range as one block: a
family's block function where it has one (scaled reads its base's window
and one block of phi), else a map over the term function.  One sum over
the block validates it; only when that sum is NaN or +inf, or the block
raised, does a per-index pass run, which raises the same error at the
same lowest index, leaving the same valid prefix, as reading term by term
would.  Point reads (omega bisection and evaluation) call log_term(j),
which reads the prefix when j lies inside it and a per-index memo
otherwise, so a point read far out never allocates a window.  A fill
evaluates its whole range and leaves the memo as it is; log_term reads
the prefix first.  A window never reaches past WINDOW_CAP (config):
log_terms raises HorizonError above it before it evaluates a term.

Exponent sequences phi = (phi_j) are plain nonnegative floats (they live in
the exponent, not in the log domain).  value(j) reads one; values(lo, hi)
reads a block under the same checks, and every window read of phi goes
through it.  Phi blocks are not cached.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import islice

from .config import COMPARISON_SLACK, need_horizon
from .errors import InvalidParameterError, PreconditionError, TableExhaustedError
from .logdomain import last_drop, ln_axis, prefix_max_abs, slack


def _check_index(j: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool) or j < 0:
        raise InvalidParameterError("j", f"index must be a nonnegative integer, got {j!r}")
    return j


def _extend_checked(out: list, block, ok, point, lo: int, hi: int) -> None:
    """Append the values at lo..hi to out.

    block(lo, hi) evaluates them in one pass and ok(values) is a cheap
    check of the whole block.  When the block raises or fails the check,
    point(j) runs index by index instead: it raises the error of the
    lowest bad index after appending the valid values below it.
    """
    try:
        got = block(lo, hi)
    except Exception:  # the per-index pass raises what reading term by term raises
        got = None
    if got is not None and ok(got):
        out.extend(got)
        return
    for j in range(lo, hi + 1):
        out.append(point(j))


def _map_block(fn: Callable[[int], float]):
    """The block function of a family without one: fn over lo..hi."""
    return lambda lo, hi: list(map(float, map(fn, range(lo, hi + 1))))


def _terms_ok(block: list) -> bool:
    # a NaN or +inf term makes the sum NaN or +inf; -inf terms are allowed
    return sum(block) < math.inf


def _exponents_ok(block: list) -> bool:
    return sum(block) < math.inf and min(block) >= 0.0


# ---------------------------------------------------------------------------
# exponent sequences


class ExponentSequence:
    """Nonnegative exponent sequence phi, one float per index; compared and
    hashed by identity.

    _fn evaluates one value; _block, when given, evaluates the values at
    lo..hi in one pass with the same float operations.
    """

    def __init__(self, kind: str, params: dict, _fn: Callable[[int], float],
                 length: int | None = None,
                 _block: Callable[[int, int], list] | None = None) -> None:
        self.kind = kind
        self.params = params
        self._fn = _fn
        self.length = length
        self._block = _block

    def value(self, j: int) -> float:
        _check_index(j)
        if self.length is not None and j >= self.length:
            raise TableExhaustedError(j, self.length)
        v = float(self._fn(j))
        if math.isnan(v) or v < 0.0 or math.isinf(v):
            raise InvalidParameterError("phi", f"phi_{j} = {v!r} is not a finite nonnegative value")
        return v

    def values(self, lo: int, hi: int) -> list[float]:
        """[phi_lo, ..., phi_hi] read as one block, under value's checks:
        the lowest bad index raises the error value raises there."""
        _check_index(lo)
        _check_index(hi)
        top = hi if self.length is None else min(hi, self.length - 1)
        out: list[float] = []
        if lo <= top:
            _extend_checked(out, self._block or _map_block(self._fn),
                            _exponents_ok, self.value, lo, top)
        if top < hi and lo <= hi:
            raise TableExhaustedError(max(lo, self.length), self.length)
        return out

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


def linear_exponents() -> ExponentSequence:
    """phi_j = j."""
    return ExponentSequence("linear", {}, float)


def power_exponents(sigma: float) -> ExponentSequence:
    """phi_j = j^sigma, sigma >= 1."""
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma < 1.0:
        raise InvalidParameterError("sigma", f"need sigma >= 1, got {sigma!r}")
    return ExponentSequence(
        "power", {"sigma": sigma}, lambda j: float(j) ** sigma,
        _block=lambda lo, hi: [float(j) ** sigma for j in range(lo, hi + 1)])


def table_exponents(values) -> ExponentSequence:
    vals = [float(v) for v in values]
    if not vals:
        raise InvalidParameterError("values", "empty exponent table")
    for j, v in enumerate(vals):
        if math.isnan(v) or math.isinf(v) or v < 0.0:
            raise InvalidParameterError("values", f"entry {j} = {v!r} not finite nonnegative")
    return ExponentSequence("table", {"length": len(vals)}, vals.__getitem__, length=len(vals))


class ExponentFamily:
    """Indexed family a -> phi^(a) of exponent sequences, a > 0."""

    def __init__(self, kind: str, params: dict,
                 _fn: Callable[[float], ExponentSequence]) -> None:
        self.kind = kind
        self.params = params
        self._fn = _fn

    def sequence(self, a: float) -> ExponentSequence:
        a = float(a)
        if not (a > 0.0) or math.isinf(a):
            raise InvalidParameterError("a", f"family index must be finite positive, got {a!r}")
        return self._fn(a)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"family:{self.kind}({inner})"


def constant_family(phi: ExponentSequence) -> ExponentFamily:
    """Every family index shares the same exponent sequence."""
    return ExponentFamily("constant", {"phi": phi.label()}, lambda a: phi)


# ---------------------------------------------------------------------------
# weight sequences


class WeightSequence:
    """Positive sequence handled through log-scale terms; compared and
    hashed by identity.

    Terms live in a cached prefix (_window, grown by log_terms) and, for
    point reads beyond it, in a per-index memo (_memo).  _fn evaluates one
    term; _block, when given, evaluates the terms at lo..hi in one pass with
    the same float operations.

    The memo holds one entry per distinct index read while it lay past the
    window, keeps it when a later fill covers that index, and dies with the
    sequence.  A script drops its binding of a sequence after
    the last statement that reads it (a sequence built on it keeps it
    alive), and each query adds only the indices it reads: O(log cap) for
    an omega evaluation, a few for a conjugate or a recovered term.  It
    grows without bound only for a long-lived Python caller that keeps one
    sequence and reads ever new indices past its window.
    """

    def __init__(self, family: str, params: dict, _fn: Callable[[int], float],
                 length: int | None = None,
                 _block: Callable[[int, int], list] | None = None) -> None:
        self.family = family
        self.params = params
        self._fn = _fn
        self.length = length
        self._memo: dict[int, float] = {}
        self._window: list[float] = []
        self._block = _block

    def _eval(self, j: int) -> float:
        if self.length is not None and j >= self.length:
            raise TableExhaustedError(j, self.length)
        got = float(self._fn(j))
        if math.isnan(got) or got == math.inf:
            raise InvalidParameterError("term", f"log M_{j} = {got!r} not finite")
        return got

    def log_term(self, j: int) -> float:
        """log M_j.  Raises TableExhaustedError past table data."""
        window = self._window
        if type(j) is int and 0 <= j < len(window):
            return window[j]
        _check_index(j)
        got = self._memo.get(j)
        if got is None:
            got = self._eval(j)
            self._memo[j] = got
        return got

    def log_terms(self, n: int) -> list[float]:
        """[log M_0, ..., log M_n], the shared cached prefix: do not mutate.

        Same errors as reading the terms with log_term in index order.
        """
        _check_index(n)
        window = self._window
        if n >= len(window):
            need_horizon(n, 0)  # the window ceiling, before any term is evaluated
            top = n if self.length is None else min(n, self.length - 1)
            if len(window) <= top:
                _extend_checked(window, self._block or _map_block(self._fn),
                                _terms_ok, self._eval, len(window), top)
            if top < n:
                raise TableExhaustedError(self.length, self.length)
        return window if len(window) == n + 1 else window[:n + 1]

    def quotient_log(self, j: int) -> float:
        """log(M_j / M_{j-1}); the j = 0 quotient is defined as 1."""
        window = self._window
        if type(j) is int and 0 < j < len(window):
            return window[j] - window[j - 1]
        _check_index(j)
        if j == 0:
            return 0.0
        return self.log_term(j) - self.log_term(j - 1)

    def reduced_log(self, j: int) -> float:
        """log(M_j / j!)."""
        return self.log_term(j) - math.lgamma(j + 1)

    def root_log(self, j: int) -> float:
        """log((M_j)^(1/j)), j >= 1."""
        if _check_index(j) == 0:
            raise InvalidParameterError("j", "root is defined for j >= 1")
        return self.log_term(j) / j

    def last_index(self, h: int) -> int:
        """h clamped to the last index the sequence has."""
        return h if self.length is None else min(h, self.length - 1)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()) if not k.startswith("_"))
        return f"{self.family}({inner})"


def gevrey(s: float) -> WeightSequence:
    """log M_j = s * log j!  (factorial-power scale)."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise InvalidParameterError("s", f"need s > 0, got {s!r}")
    return WeightSequence(
        "gevrey", {"s": s}, lambda j: s * math.lgamma(j + 1),
        _block=lambda lo, hi: [s * math.lgamma(j + 1) for j in range(lo, hi + 1)])


def ptt(tau: float, sigma: float) -> WeightSequence:
    """log M_j = tau * j^sigma * ln j, with the j = 0 term equal to 1."""
    tau = float(tau)
    sigma = float(sigma)
    if not math.isfinite(tau) or tau <= 0.0:
        raise InvalidParameterError("tau", f"need tau > 0, got {tau!r}")
    if not math.isfinite(sigma) or sigma < 1.0:
        raise InvalidParameterError("sigma", f"need sigma >= 1, got {sigma!r}")

    def term(j: int) -> float:
        if j == 0:
            return 0.0
        return tau * float(j) ** sigma * math.log(j)

    def block(lo: int, hi: int) -> list[float]:
        return [tau * float(j) ** sigma * math.log(j) if j else 0.0
                for j in range(lo, hi + 1)]

    return WeightSequence("ptt", {"tau": tau, "sigma": sigma}, term,
                          _block=block)


def table(values=None, log_values=None) -> WeightSequence:
    """Finite sequence from linear-scale values (or ready log values)."""
    if (values is None) == (log_values is None):
        raise InvalidParameterError("values", "pass exactly one of values / log_values")
    if values is not None:
        logs = []
        for j, v in enumerate(values):
            v = float(v)
            if not (v > 0.0) or math.isinf(v):
                raise InvalidParameterError("values", f"entry {j} = {v!r} not finite positive")
            logs.append(math.log(v))
    else:
        logs = [float(v) for v in log_values]
        for j, v in enumerate(logs):
            if math.isnan(v) or math.isinf(v):
                raise InvalidParameterError("log_values", f"entry {j} = {v!r} not finite")
    if not logs:
        raise InvalidParameterError("values", "empty table")
    return WeightSequence(
        "table", {"length": len(logs)}, logs.__getitem__, length=len(logs))


def scaled(base: WeightSequence, phi: ExponentSequence, c: float) -> WeightSequence:
    """log M_j + phi_j * ln c: exponent-weighted rescaling of a base sequence."""
    c = float(c)
    if not (c > 0.0) or math.isinf(c):
        raise InvalidParameterError("c", f"need finite c > 0, got {c!r}")
    log_c = math.log(c)
    length = base.length
    if phi.length is not None:
        length = phi.length if length is None else min(length, phi.length)

    def block(lo: int, hi: int) -> list[float]:
        return [b + p * log_c for b, p in
                zip(islice(base.log_terms(hi), lo, None), phi.values(lo, hi))]

    return WeightSequence(
        "scaled",
        {"base": base.label(), "phi": phi.label(), "c": c, "_base": base, "_phi": phi},
        lambda j: base.log_term(j) + phi.value(j) * log_c,
        length=length, _block=block)


def regularize_slc(m: WeightSequence, horizon: int | None) -> WeightSequence:
    """Patch the head of M so the reduced quotients are non-decreasing.

    Scans for the smallest index from which (a) the reduced quotients
    mu_j / j are non-decreasing through the horizon and (b) mu_j / j >= 1.
    (a) is logdomain.last_drop at alpha = 1, so a drop counts under the
    same slack as in the slc check, and (b) reads the same slack.
    Below that index the reduced quotients are replaced by exactly 1, which
    keeps the output equivalent to the input (the tail terms differ from
    M_j by one fixed constant) while making it normalized and strongly
    log-convex on [0, horizon].  Output params carry patch_index (0 when
    the input already qualifies and is unchanged).
    """
    horizon = need_horizon(horizon, 4)
    terms = m.log_terms(horizon)
    # quotient jitter scales with the term magnitude, not the quotient
    # itself: the reduced quotient mu[j-1] - ln j gets the slack of
    # terms[0..j], as in the slc check
    big = prefix_max_abs(terms)
    mu = [terms[j] - terms[j - 1] for j in range(1, horizon + 1)]
    # the last pair (j-1, j) that violates; monotone from j on
    mono_onset = max(1, last_drop(mu, 1.0, big))
    ln = ln_axis(horizon)
    neg_onset = 1
    for j in range(horizon, 0, -1):
        if mu[j - 1] - ln[j] < -slack(COMPARISON_SLACK, big[j]):
            neg_onset = j + 1
            break
    patch = max(mono_onset, neg_onset)
    if patch > horizon:
        raise PreconditionError(
            "no index below the horizon from which the reduced quotients are "
            "non-decreasing and at least 1; largest violating index "
            f"{patch - 1}", witness=patch - 1,
        )

    base_anchor = terms[patch - 1]
    head = math.lgamma(patch)  # log (patch-1)!

    unchanged = patch == 1 and abs(terms[0]) == 0.0
    if unchanged:
        reported = 0
    else:
        reported = patch if patch >= 2 else 1

    def term(j: int) -> float:
        if j < patch:
            return math.lgamma(j + 1)
        return head + (m.log_term(j) - base_anchor)

    return WeightSequence(
        "regularized",
        {"base": m.label(), "patch_index": reported, "_base": m},
        m.log_term if unchanged else term,
        length=m.length)

