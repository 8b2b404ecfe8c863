#!/usr/bin/env python3
"""Time-to-verdict benchmark for wcalc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The seed makes the workload's inputs (see workloads.py), every output is
checked against hand-written verdicts and wcalc-independent references,
and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(tracing.py) plus the tracing overhead; the spans of the last traced pass
go to .bench_out/.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
# the tail metric needs ten samples beyond it
MIN_PASSES = 11
MIN_TRACED_PASSES = 3
# set-up spawns counted per run, after one uncounted spawn
SETUP_SPAWNS = 7
# stop starting passes this long after the run began, whatever --seconds says
HARD_STOP_S = 140.0
# iterations of the calibration loop (0.5 to 1 ms on a 2-core x86 KVM
# guest), run as a speed probe every PROBE_EVERY_S of wall time in a pass
CAL_N = 2000
PROBE_EVERY_S = 0.02

_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import wcalc
from wcalc import dsl
if sys.argv[2] == "cli":
    from wcalc import cli
    cli.build_parser()
for text in sys.stdin.read().split("\\0"):
    dsl.parse(text)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_wcalc():
    """Import wcalc from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "wcalc" / "__init__.py").is_file():
        fail(f"no wcalc sources under {src}; run from a full checkout")
    if not (ROOT / "docs" / "report-schema.json").is_file():
        fail("docs/report-schema.json is missing")
    sys.path.insert(0, str(src))
    import wcalc
    import wcalc.cli  # noqa: F401  (traced runs wrap cli.main)
    if Path(wcalc.__file__).resolve().parent != (src / "wcalc").resolve():
        fail(f"imported wcalc from {wcalc.__file__}, not from {src}")
    return wcalc


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python job shaped like wcalc's inner loops:
    memo dict lookups, lgamma/log calls, float division, list appends."""
    t0 = time.perf_counter()
    memo = {}
    acc = []
    for i in range(1, CAL_N):
        k = i & 511
        v = memo.get(k)
        if v is None:
            v = math.lgamma(k + 1)
            memo[k] = v
        acc.append((v - math.log(i)) / i)
    math.fsum(acc)
    return time.perf_counter() - t0


class CalibratedTimer:
    """Wall time of one pass, and the same pass in calibration loops.

    The machine's speed changes within seconds, often within one pass, so
    it is sampled during the pass: a SIGALRM timer runs the calibration
    loop every PROBE_EVERY_S of wall time.  The probes' time is taken out
    of the pass time, and the pass's work in calibration loops is that
    time multiplied by the mean probe rate (loops per second)."""

    def __init__(self):
        self.probes: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        self.probes.append(calibration_loop())

    def __call__(self, fn):
        self.probes.clear()
        self._probe()  # one sample even for a pass shorter than the period
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.probes[1:])
        rate = statistics.fmean(1.0 / d for d in self.probes)
        return out, wall, wall * rate


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one pass per workload kind


class ScriptPass:
    """dsl.parse -> dsl.execute -> report.emit_json, cold: every pass
    parses the script again, so no sequence memo survives between passes."""

    def __init__(self, wl, wcalc):
        self.wl = wl
        self.wcalc = wcalc

    def __call__(self):
        w = self.wcalc
        program = w.dsl.parse(self.wl.script)
        records = w.dsl.execute(program, w.Config())
        return records, w.report.emit_json(w.report.Report(w.Config(), records))

    def verify(self, outcome):
        """(operations, failures, digest, JSON reports)."""
        records, data = outcome
        failures = []
        if len(records) != len(self.wl.checks):
            failures.append(f"{len(records)} records for {len(self.wl.checks)} queries")
        for rec, check in zip(records, self.wl.checks):
            bad = check(rec)
            if bad:
                failures.append(f"{rec.get('query', '?')} -> {bad}")
        for label, extra in self.wl.extras:
            bad = extra(self.wcalc)
            if bad:
                failures.append(f"{label} -> {bad}")
        ops = len(self.wl.checks) + len(self.wl.extras)
        return ops, failures, digest(data), [data]


class CliPass:
    """In-process cli.main calls with stdout and stderr captured."""

    def __init__(self, wl, wcalc):
        self.wl = wl
        self.cli = wcalc.cli
        for rel, text in wl.files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def __call__(self):
        results = []
        for argv, *_ in self.wl.calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                # looked up per call, so a traced pass sees the wrapper
                code = self.cli.main(list(argv))
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def verify(self, outcome):
        failures, parts, reports = [], [], []
        for (argv, want_code, out_check, file_check), (code, out, err) in zip(
                self.wl.calls, outcome):
            parts += [str(code).encode(), out.encode(), err.encode()]
            if "--format" in argv and argv[argv.index("--format") + 1] == "json":
                reports.append(out.encode())
            bad = None
            if code != want_code:
                bad = f"exit {code}, expected {want_code}: {err.strip()}"
            elif out_check is not None:
                bad = out_check(out)
            if file_check is not None:
                path, check = file_check
                written = ROOT / path
                # removed once read, so each pass has to write it again
                text = written.read_text() if written.exists() else ""
                written.unlink(missing_ok=True)
                parts.append(text.encode())
                bad = bad or check(text)
            if bad:
                failures.append(f"wcalc {' '.join(argv[:3])} -> {bad}")
        return len(self.wl.calls), failures, digest(*parts), reports


# ---------------------------------------------------------------------------
# measurement


class Verifier:
    """Counts operations and failures over every pass of a run and guards
    determinism: each pass must reproduce the first pass's bytes, and every
    distinct report must validate against docs/report-schema.json."""

    def __init__(self, runner):
        import jsonschema
        self.runner = runner
        self.validator = jsonschema.Draft7Validator(
            json.loads((ROOT / "docs" / "report-schema.json").read_text()))
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest = None
        self.validated: set[str] = set()

    def __call__(self, outcome) -> None:
        ops, failures, dig, reports = self.runner.verify(outcome)
        ops += 1  # the report itself: schema and byte identity
        self.attempted += ops
        self.failures += failures
        report_bad = None
        if self.first_digest is None:
            self.first_digest = dig
        elif dig != self.first_digest:
            report_bad = f"output bytes differ between passes ({dig[:12]} vs {self.first_digest[:12]})"
        if dig not in self.validated:
            for data in reports:
                try:
                    doc = json.loads(data)
                except ValueError as exc:
                    report_bad = report_bad or f"report is not JSON: {exc}"
                    continue
                errors = sorted(self.validator.iter_errors(doc), key=str)
                if errors:
                    report_bad = report_bad or f"report fails the schema: {errors[0].message}"
            self.validated.add(dig)
        if report_bad:
            self.failures.append(report_bad)

    @property
    def failed(self) -> int:
        return len(self.failures)


class SetUp:
    """Wall seconds from spawning a fresh interpreter to a parsed program.

    The spawns are spread over the timed loop rather than made back to
    back, so their median samples the same stretch of machine speed as
    the passes do."""

    def __init__(self, wl, mode: str):
        self.payload = "\0".join(wl.setup_scripts).encode()
        self.cmd = [sys.executable, "-I", "-c", _SETUP_CHILD, str(ROOT / "src"), mode]
        self.times: list[float] = []
        self.spawn()      # uncounted: it may compile bytecode
        self.times.clear()

    def spawn(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, input=self.payload, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail("set-up child failed: " + proc.stderr.decode(errors="replace")[-400:])
        self.times.append(dt)


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it: the value
    with ten samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(runner, verifier, wl, mode, seconds, started):
    setup = SetUp(wl, mode)

    # first pass: peak memory, full verification, and warm-up
    tracemalloc.start()
    outcome = runner()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    verifier(outcome)

    timer = CalibratedTimer()
    passes, ratios, probes = [], [], []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - started > HARD_STOP_S:
            break
        if (now - loop_start >= seconds and len(passes) >= MIN_PASSES
                and len(setup.times) >= SETUP_SPAWNS):
            break
        if len(setup.times) < SETUP_SPAWNS and (
                now - loop_start >= seconds * len(setup.times) / SETUP_SPAWNS):
            setup.spawn()
        outcome, wall, cal = timer(runner)
        passes.append(wall)
        ratios.append(cal)
        probes += timer.probes
        verifier(outcome)

    cal_tail, pct = tail(ratios)
    raw_tail, _ = tail(passes)
    attempted = verifier.attempted
    metrics = {
        "script_cal": (statistics.median(ratios), "cal"),
        "script_cal_tail": (cal_tail, "cal"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
        "ok_share": ((attempted - verifier.failed) / attempted, "share"),
    }
    notes = [
        f"passes {len(passes)}; the tails are p{pct:.1f} of {len(passes)} samples",
        f"raw wall time per pass: script_s {statistics.median(passes):.6g} s, "
        f"script_s_tail {raw_tail:.6g} s (not steady across runs; see NOTES.md)",
        f"speed probes {len(probes)}: median {statistics.median(probes) * 1e3:.3f} ms "
        f"(min {min(probes) * 1e3:.3f}, max {max(probes) * 1e3:.3f})",
        f"set-up spawns {', '.join(f'{t:.3f}' for t in setup.times)} s",
    ]
    return metrics, notes


def per_layer(runner, verifier, wl, seconds, started, seed):
    outcome = runner()
    verifier(outcome)
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - started > HARD_STOP_S:
            break
        if now - loop_start >= seconds and len(traced) >= MIN_TRACED_PASSES:
            break
        t0 = time.perf_counter()
        outcome = runner()
        plain.append(time.perf_counter() - t0)
        verifier(outcome)

        patches = tracer.install()
        try:
            t0 = time.perf_counter()
            outcome = tracer.root(runner)
            traced.append(time.perf_counter() - t0)
        finally:
            tracing.Tracer.uninstall(patches)
        layers.append(tracer.layer_metrics())
        verifier(outcome)

    metrics = {}
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(row[name][0] for row in layers), unit)
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                 "ratio")
    out = ROOT / OUT_DIR / f"trace_{wl.name}_seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(tracer.span_dump()))
    covered = sum(tracer.self_s.values())
    notes = [
        f"traced passes {len(traced)}, untraced {len(plain)}; spans of the last "
        f"traced pass in {out.relative_to(ROOT)} ({len(tracer.spans)} spans)",
        f"self time over all layers {covered:.4f} s of a {traced[-1]:.4f} s traced pass",
    ]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    wcalc = load_wcalc()
    os.chdir(ROOT)
    os.environ.pop(wcalc.ENV_HORIZON, None)

    scratch = f"{OUT_DIR}/{args.workload}_seed{args.seed}"
    if args.workload == "cli_oneshot":
        wl = workloads.cli_oneshot(args.seed, scratch)
        runner, mode = CliPass(wl, wcalc), "cli"
    else:
        wl = workloads.GENERATORS[args.workload](args.seed)
        runner, mode = ScriptPass(wl, wcalc), "script"
    verifier = Verifier(runner)

    try:
        if args.trace:
            metrics, notes = per_layer(runner, verifier, wl, args.seconds, started, args.seed)
        else:
            metrics, notes = end_to_end(runner, verifier, wl, mode, args.seconds, started)
    finally:
        shutil.rmtree(ROOT / scratch, ignore_errors=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"output sha256 {verifier.first_digest}")
    for line in notes:
        print(line)
    for name, (v, unit) in metrics.items():
        print(f"  {name:28s} {v:14.6g} {unit}")
    for line in verifier.failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
