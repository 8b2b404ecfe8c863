"""Per-layer tracing from outside the program.

Wrappers go around the public functions of each wcalc layer, in every
place a caller looks the name up: the defining module, each module that
bound it with `from .x import name`, the package namespace, and class
attributes for methods.  Nothing inside src/wcalc changes; uninstall()
puts every original back.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the part its wrapped children cover.  Coarse layers also
record a span (name, start, end, parent) kept in memory; the hot leaf
layers (term reads, log-domain sums, omega evaluations, matrix element
lookups) only add to their layer's count and self time, so a traced pass
does not hold millions of spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, owner path, attribute, record spans)
# owner path is a module name, or "module:Class" for methods
TARGETS = (
    ("sequences.term", "wcalc.sequences:WeightSequence", "log_term", False),
    ("sequences.term", "wcalc.sequences:WeightSequence", "quotient_log", False),
    ("sequences.term", "wcalc.sequences:WeightSequence", "reduced_log", False),
    ("sequences.term", "wcalc.sequences:WeightSequence", "root_log", False),
    ("logdomain", "wcalc.logdomain", "log_add", False),
    ("logdomain", "wcalc.logdomain", "log_sub", False),
    ("logdomain", "wcalc.logdomain", "log_sum", False),
    ("verdicts.classify", "wcalc.verdicts", "classify_trajectory", True),
    ("conditions.check", "wcalc.conditions", "check_condition", True),
    ("conditions.check", "wcalc.conditions", "gamma_lower_bound", True),
    ("conditions.check", "wcalc.conditions", "root_growth_profile", True),
    ("conditions.check", "wcalc.conditions", "exponent_growth_report", True),
    ("relations.compare", "wcalc.relations", "compare", True),
    ("relations.compare", "wcalc.relations", "compare_phi_constancy", True),
    ("matrices.build", "wcalc.matrices", "ptt_matrix", True),
    ("matrices.build", "wcalc.matrices", "sigma_matrix", True),
    ("matrices.build", "wcalc.matrices", "matrix_scale", True),
    ("matrices.build", "wcalc.matrices", "scale_family", True),
    ("matrices.build", "wcalc.matrices", "exponent_family_scale", True),
    ("matrices.build", "wcalc.matrices", "generic_matrix", True),
    ("matrices.element", "wcalc.matrices:WeightMatrix", "element", False),
    ("matrices.mcheck", "wcalc.matrices", "check_matrix_condition", True),
    ("matrices.mcheck", "wcalc.matrices", "check_exponent_family_absorption", True),
    ("matrices.fdb", "wcalc.matrices", "composition_sequence", True),
    ("associated.from_sequence", "wcalc.associated:OmegaFunction", "from_sequence", True),
    ("associated.eval", "wcalc.associated:OmegaFunction", "eval", False),
    ("associated.conjugate", "wcalc.associated", "young_conjugate", True),
    ("associated.conjugate", "wcalc.associated", "recover_term", True),
    ("associated.conjugate", "wcalc.associated", "assoc_matrix_term", True),
    ("associated.relation", "wcalc.associated", "assoc_relation_check", True),
    ("associated.relation", "wcalc.associated", "omega_doubling_probe", True),
    ("witness.theta", "wcalc.witness", "theta_eval", True),
    ("witness.theta", "wcalc.witness", "theta_derivative_log_bound", True),
    ("witness.theta", "wcalc.witness", "theta_bounds", True),
    ("witness.classify", "wcalc.witness", "classify_membership", True),
    ("dsl.parse", "wcalc.dsl", "parse", True),
    ("dsl.execute", "wcalc.dsl", "execute", True),
    ("report.emit", "wcalc.report", "emit", True),
    ("report.emit", "wcalc.report", "emit_json", True),
    ("report.emit", "wcalc.report", "emit_csv", True),
    ("report.emit", "wcalc.report", "emit_text", True),
    ("cli.main", "wcalc.cli", "main", True),
)

# emitters whose returned bytes count toward report.bytes (emit() only
# dispatches to one of them)
_BYTE_COUNTERS = {"emit_json", "emit_csv", "emit_text"}


class Tracer:
    def __init__(self) -> None:
        # the wrappers keep references to these containers, so reset()
        # clears them in place
        self.stack: list[float] = []       # child coverage of open frames
        self.open_spans: list[int] = []
        self.spans: list = []              # [name, start, end, parent]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        for container in (self.stack, self.open_spans, self.spans,
                          self.calls, self.self_s):
            container.clear()
        self.mcheck_depth = 0
        self.element_in_mcheck = 0
        self.matrix_verdicts = 0
        self.report_bytes = 0

    # -- frames --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, record: bool):
        perf = time.perf_counter
        stack = self.stack
        calls = self.calls
        self_s = self.self_s

        if not record:
            def leaf(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    child = stack.pop()
                    calls[layer] += 1
                    self_s[layer] += dur - child
                    if stack:
                        stack[-1] += dur

            if layer == "matrices.element":
                def element(*args, **kwargs):
                    if self.mcheck_depth:
                        self.element_in_mcheck += 1
                    return leaf(*args, **kwargs)
                return element
            return leaf

        spans = self.spans
        open_spans = self.open_spans
        is_mcheck = layer == "matrices.mcheck"
        counts_bytes = name in _BYTE_COUNTERS

        def span(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            stack.append(0.0)
            if is_mcheck:
                self.mcheck_depth += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                child = stack.pop()
                open_spans.pop()
                calls[layer] += 1
                self_s[layer] += dur - child
                if stack:
                    stack[-1] += dur
                spans[sid] = [layer + ":" + name, t0, t1, parent]
                if is_mcheck:
                    self.mcheck_depth -= 1
            if is_mcheck and isinstance(out, dict):
                self.matrix_verdicts += len(out)
            elif counts_bytes:
                self.report_bytes += len(out)
            return out
        return span

    def root(self, fn):
        """Run fn as the root span of one traced pass."""
        self.reset()
        return self._wrap("pass", "pass", fn, True)()

    # -- installation ----------------------------------------------------------

    def install(self) -> list:
        """Wrap every target; returns the patch list for uninstall()."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wcalc" or n.startswith("wcalc."))]
        patches = []
        for layer, owner_path, attr, record in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, attr, raw.__func__, record))
                else:
                    wrapped = self._wrap(layer, attr, raw, record)
                patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(layer, attr, original, record)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        patches.append((m, key, original))
                        setattr(m, key, wrapped)
        return patches

    @staticmethod
    def uninstall(patches: list) -> None:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the last traced pass, by metric name."""
        c, s = self.calls, self.self_s
        tries = self.element_in_mcheck / 2.0
        verdicts = self.matrix_verdicts
        return {
            "sequences.term_calls": (c["sequences.term"], "count"),
            "sequences.term_s": (s["sequences.term"], "s"),
            "conditions.check_calls": (c["conditions.check"], "count"),
            "conditions.check_s": (s["conditions.check"], "s"),
            "relations.compare_calls": (c["relations.compare"], "count"),
            "relations.compare_s": (s["relations.compare"], "s"),
            "matrices.mcheck_s": (s["matrices.mcheck"], "s"),
            "matrices.partner_tries": (tries, "count"),
            "matrices.tries_per_verdict": (tries / verdicts if verdicts else 0.0,
                                           "tries/verdict"),
            "matrices.fdb_calls": (c["matrices.fdb"], "count"),
            "matrices.fdb_s": (s["matrices.fdb"], "s"),
            "matrices.build_s": (s["matrices.build"], "s"),
            "verdicts.classify_calls": (c["verdicts.classify"], "count"),
            "verdicts.classify_s": (s["verdicts.classify"], "s"),
            "associated.from_sequence_s": (s["associated.from_sequence"], "s"),
            "associated.eval_calls": (c["associated.eval"], "count"),
            "associated.eval_s": (s["associated.eval"], "s"),
            "associated.conjugate_s": (s["associated.conjugate"], "s"),
            "associated.relation_s": (s["associated.relation"], "s"),
            "witness.theta_s": (s["witness.theta"], "s"),
            "witness.classify_s": (s["witness.classify"], "s"),
            "logdomain.calls": (c["logdomain"], "count"),
            "dsl.parse_s": (s["dsl.parse"], "s"),
            "report.emit_s": (s["report.emit"], "s"),
            "report.bytes": (self.report_bytes, "bytes"),
            "cli.main_s": (s["cli.main"], "s"),
        }

    def span_dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, a - t0, b - t0, p] for n, a, b, p in self.spans],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
        }
