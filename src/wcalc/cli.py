"""Command-line front end.

Exit codes: 0 all verdicts acceptable, 1 any Fails (or Undetermined
without --allow-undetermined), 2 usage or script-parse errors, 3 runtime
errors.  The default horizon honors the WCALC_HORIZON environment
variable; an explicit --horizon flag beats per-query script options.

An option, --params key or colon part that does not apply to the call
is a usage error rather than being ignored.

Subcommands build their objects with the script constructors
(dsl.build) and reach verdicts through the script query runners
(dsl.run_query), so a CLI call and the equivalent .wsq query give the
same record.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .config import default_config
from .errors import InvalidParameterError, SourceError, WcalcError
from . import associated as _assoc
from . import dsl as _dsl
from . import report as _report
from . import witness as _witness

# spec name -> (script constructor, kind it builds, its parameters in
# colon order): the constructors whose required parameters are all
# numbers; a matrix spec takes one more colon part, the element index C
SPECS = {name.replace("_", "-"): (name, kind, tuple(p.name for p in sig.params
                                                     if p.required))
         for (kind, name), sig in _dsl.SIGNATURES.items()
         if kind in _dsl.BINDING_KINDS
         and all(p.type == _dsl.NUMBER for p in sig.params if p.required)}


class UsageError(Exception):
    pass


def _parse_params(text: str | None) -> dict:
    out: dict[str, float] = {}
    if not text:
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"--params entries look like k=v, got {part!r}")
        key, _, val = part.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"--params value for {key!r} is not a number: {val!r}")
    return out


def _parse_number_list(text: str, what: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated number list, got {text!r}")


def _resolve(spec: str, params: str | None, cfg, grid: str | None = None,
             kinds=("seq", "matrix")):
    """(kind, object, label) for a spec like gevrey:1 or ptt-matrix:1:2:3,
    built by the script constructor; kinds limits the spec names accepted.

    Colon parts fill the constructor's parameters in order; --params
    entries fill or override them, and --grid sets a matrix index grid.
    For a matrix, c= in --params or one more colon part selects an
    element, which is returned as a "seq".  A part, key or grid the family
    does not take is a usage error.
    """
    params = _parse_params(params)
    grid = _parse_number_list(grid, "--grid") if grid else ()
    name, *rest = spec.split(":")
    name = name.strip().lower()
    names = tuple(n for n, (_, kind, _) in SPECS.items() if kind in kinds)
    if name not in names:
        raise UsageError(f"unknown family {name!r}; expected one of {names}")
    ctor, kind, keys = SPECS[name]
    accepted = keys + ("c",) if kind == "matrix" else keys
    if len(rest) > len(accepted):
        raise UsageError(f"{spec!r} has more colon parts than {name!r} "
                         f"takes ({':'.join((name,) + accepted)})")
    bad = next((k for k in params if k not in accepted), None)
    if bad is not None:
        raise UsageError(f"parameter {bad!r} does not apply to family "
                         f"{name!r}; it takes {accepted}")
    if grid and kind != "matrix":
        raise UsageError(f"--grid applies only to matrix families, "
                         f"got {name!r}")
    values = {}
    for key, part in zip(accepted, rest):
        try:
            values[key] = float(part)
        except ValueError:
            raise UsageError(f"bad numeric parameter {part!r} in {spec!r}")
    values.update(params)
    args = []
    for key in keys:
        if key not in values:
            raise UsageError(f"family {name!r} needs parameter {key!r}")
        args.append((key, values[key]))
    if grid:
        args.append(("grid", grid))
    obj = _dsl.build(_dsl.Call(ctor, tuple(args)), {}, cfg)
    c = values.get("c")
    if c is None:
        return kind, obj, spec
    label = ":".join([name] + rest[:len(keys)])
    return "seq", obj.element(c), f"{label}@c={c:g}"


def _unused(value, option: str, applies_to: str) -> None:
    """Reject an option given where it does not apply."""
    if value is not None:
        raise UsageError(f"{option} applies only to {applies_to}")


def _sequence(kind: str, obj, label: str):
    """The weight sequence of a _resolve result, with its label."""
    if kind != "seq":
        raise UsageError(f"matrix family {label!r} needs an element index "
                         "(c= in --params or a trailing :C)")
    return obj, label


def _op(kind: str, spelling: str) -> str | None:
    """The dsl.QUERY_OPS[kind] name a user spelling means: case ignored,
    '-' read as '_'."""
    key = spelling.strip().replace("-", "_").lower()
    return next((op for op in _dsl.QUERY_OPS[kind] if op.lower() == key), None)


def _answer(kind: str, op: str, cfg, h: int, env: dict, flavor=None,
            **numbers) -> dict:
    """What dsl.run_query answers to `kind op(...)` with every env binding
    passed under its name, plus the number arguments."""
    call = _dsl.Call(op, tuple((k, _dsl.Ref(k)) for k in env)
                     + tuple(numbers.items()))
    return _dsl.run_query(_dsl.Query(kind, call, flavor=flavor), env, cfg, h)


def _parse_t_grid(text: str) -> _assoc.LogGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--t-grid looks like a:b:n, got {text!r}")
    try:
        return _assoc.LogGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UsageError(str(exc))


def _exit_code(records, allow_undetermined: bool) -> int:
    if _report.has_errors(records):
        return 3
    statuses = _report.collect_statuses(records)
    if any(s == "Fails" for s in statuses):
        return 1
    if not allow_undetermined and any(s == "Undetermined" for s in statuses):
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands: each returns the report records


def _cmd_run(args, cfg, h) -> list:
    with open(args.script, encoding="utf-8") as fh:
        program = _dsl.parse(fh.read())
    return _dsl.execute(program, cfg, horizon_override=args.horizon)


def _cmd_check(args, cfg, h) -> list:
    kind, obj, label = _resolve(args.family, args.params, cfg, args.grid)
    op = _op("mcheck", args.cond) if kind == "matrix" else None
    if op is not None:
        _unused(args.alphas, "--alphas", "--cond gamma-lb")
        out = _answer("mcheck", op, cfg, h, {"mm": ("matrix", obj)},
                      flavor=args.flavor)
        return [{"query": f"check {op}({label}) horizon {h} "
                          f"flavor {out['flavor']};", **out}]
    _unused(args.flavor, "--flavor", "matrix conditions")
    seq, label = _sequence(kind, obj, label)
    op = _op("check", args.cond)
    if op is None:
        raise UsageError(f"unknown condition {args.cond!r}")
    env = {"m": ("seq", seq)}
    if op != "gamma_lb":
        _unused(args.alphas, "--alphas", "--cond gamma-lb")
        return [{"query": f"check {op}({label}) horizon {h};",
                 **_answer("check", op, cfg, h, env)}]
    if not args.alphas:
        raise UsageError("--cond gamma-lb needs --alphas")
    alphas = _parse_number_list(args.alphas, "--alphas")
    return [{"query": f"check gamma_lb({label}, {list(alphas)}) horizon {h};",
             **_answer("check", op, cfg, h, env, alphas=alphas)}]


def _cmd_omega(args, cfg, h) -> list:
    # tabulation wants the sup actually attained: only an explicit
    # --horizon caps the index search, not the check horizon
    seq, label = _sequence(*_resolve(args.family, args.params, cfg))
    grid = _parse_t_grid(args.t_grid) if args.t_grid \
        else _assoc.LogGrid()
    omega = _dsl.build(_dsl.Call("assoc", (("m", _dsl.Ref("m")),)),
                       {"m": ("seq", seq)}, cfg)
    rows = _assoc.export_csv(omega, grid, args.csv, args.horizon)
    return [{"query": f"omega({label}) grid [{grid.t_min:g}, {grid.t_max:g}, "
                      f"{grid.points}];",
             "rows": rows, "csv": args.csv}]


def _cmd_compare(args, cfg, h) -> list:
    left, llabel = _sequence(*_resolve(args.left, args.left_params, cfg))
    right, rlabel = _sequence(*_resolve(args.right, args.right_params, cfg))
    op = _op("compare", args.rel)
    if op is None:
        raise UsageError(f"unknown relation {args.rel!r}; expected one of "
                         f"{sorted(_dsl.QUERY_OPS['compare'])}")
    if op not in ("bigO", "smallO"):
        _unused(args.c_max, "--c-max", "--rel bigO and smallO")
    numbers = {} if args.c_max is None else {"c_max": float(args.c_max)}
    out = _answer("compare", op, cfg, h,
                  {"m": ("seq", left), "n": ("seq", right)}, **numbers)
    return [{"query": f"compare {op}({llabel}, {rlabel}) horizon {h};", **out}]


def _cmd_classify(args, cfg, h) -> list:
    _unused(args.horizon, "--horizon", "check, compare, omega and run")
    kind, mm, label = _resolve(args.matrix, args.params, cfg, args.grid)
    if kind != "matrix":
        raise UsageError(f"--matrix needs a matrix family, got {args.matrix!r}")
    load = _witness.load_bounds_json if args.bounds.endswith(".json") \
        else _witness.load_bounds_csv
    env = {"f": ("seq", load(args.bounds)), "mm": ("matrix", mm)}
    if args.phi is not None:
        env["phi"] = ("exp", _resolve(args.phi, None, cfg, kinds=("exp",))[1])
    out = _answer("classify", "membership", cfg, h, env)
    return [{"query": f"classify membership({args.bounds}, {label});", **out}]


# ---------------------------------------------------------------------------
# argument wiring


@cache
def _specs(kinds, element: str = "") -> str:
    """The spec forms of the families of these kinds, for help text."""
    return " | ".join(
        ":".join([name, *(k.upper() for k in keys)])
        + (element if kind == "matrix" else "")
        for name, (_, kind, keys) in SPECS.items() if kind in kinds)


@cache
def _ops(kind: str) -> str:
    return "|".join(op.replace("_", "-") for op in _dsl.QUERY_OPS[kind])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=None,
                   help="index horizon (beats script options and "
                        "WCALC_HORIZON)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the off-diagonal pair sample")
    p.add_argument("--out", default=None, help="write canonical JSON here")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                   help="stdout format (default text)")
    p.add_argument("--allow-undetermined", action="store_true",
                   help="exit 0 even when verdicts are Undetermined")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcalc",
        description="Finite-horizon calculus for weight sequences, weight "
                    "matrices, and their associated functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a .wsq script")
    p.add_argument("script")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check", help="one-shot condition check on a family")
    p.add_argument("--family", required=True,
                   help=_specs(("seq", "matrix"), "[:C]"))
    p.add_argument("--params", default=None, help="k=v,... family parameters")
    p.add_argument("--cond", required=True,
                   help=f"{_ops('check')} or a matrix condition "
                        f"({_ops('mcheck')})")
    p.add_argument("--flavor", default=None, help="r|b for matrix conditions")
    p.add_argument("--alphas", default=None, help="comma list for gamma-lb")
    p.add_argument("--grid", default=None, help="matrix index grid, comma list")
    _add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("omega", help="tabulate an associated function to CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None,
                   help="a:b:n geometric evaluation grid")
    p.add_argument("--csv", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(fn=_cmd_omega)

    c_max = next(q.default for q in _dsl.SIGNATURES["compare", "bigO"].params
                 if q.name == "c_max")
    p = sub.add_parser("compare", help="order relation between two sequences")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-params", dest="left_params", default=None)
    p.add_argument("--right-params", dest="right_params", default=None)
    p.add_argument("--rel", required=True, help=_ops("compare"))
    p.add_argument("--c-max", dest="c_max", type=int, default=None,
                   help=f"largest scale for bigO/smallO (default {c_max})")
    _add_common(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("classify", help="membership of derivative-bound data")
    p.add_argument("--bounds", required=True, help="CSV (j,log_bound) or JSON")
    p.add_argument("--matrix", required=True, help=_specs(("matrix",)))
    p.add_argument("--params", default=None)
    p.add_argument("--phi", default=None, help=_specs(("exp",)))
    p.add_argument("--grid", default=None, help="matrix index grid, comma list")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = default_config()
        if args.seed is not None:
            cfg = cfg.replace(seed=args.seed)
        h = args.horizon if args.horizon is not None else cfg.horizon
        records = args.fn(args, cfg, h)
        report = _report.Report(cfg, records)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(_report.emit_json(report))
        sys.stdout.write(_report.emit(report, args.format).decode("utf-8"))
        return _exit_code(records, args.allow_undetermined)
    except (UsageError, SourceError, InvalidParameterError) as exc:
        print(f"wcalc: {exc}", file=sys.stderr)
        return 2
    except (WcalcError, OSError, ValueError, ArithmeticError) as exc:
        print(f"wcalc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
