"""Script language: tokenizer, parser, printer round-trip, execution."""

import collections
import gc
import math
import pathlib
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import Config, SourceError, WcalcError, cli, dsl
from wcalc import conditions as _conditions
from wcalc import matrices as _matrices
from wcalc import sequences as _sequences
from wcalc.dsl import (
    BINDING_KINDS,
    BOUNDS,
    INT,
    LOG_GRID,
    NAME,
    NUMBER,
    NUMBERS,
    OPT_KEYS,
    SIGNATURES,
    Binding,
    Call,
    Program,
    Query,
    Ref,
    Token,
    execute,
    format_statement,
    parse,
    print_program,
    tokenize,
)

DATA = pathlib.Path(__file__).parent / "data"

# one valid program touching every grammar production
CORPUS = """\
# corpus exercising the whole grammar
seq a = gevrey(s=1);
seq b = ptt(tau=1, sigma=2);
seq c = table(values=[1, 1.5, 4.5, 20, 1.2e2]);
exp p = power(sigma=2);
exp q = linear();
seq d = scale(base=b, phi=p, c=0.5);
matrix m1 = ptt_matrix(tau=1, sigma=2);
matrix m2 = sigma_matrix(sigma=2, grid=[1, 2, 4]);
matrix m3 = family_scale(a, q);
matrix m4 = matrix_scale(m1, p, grid=[0.5, 1, 2]);
omega w = assoc(m=a);
seq e = from_omega(w=w, ell=2);
seq f = theta_bounds(n=a, count=12);
check lc(a);
check slc(b) horizon 64;
check normalized(c);
check mg(a) horizon 128;
check dc(b);
check nq(a);
check beta1(d);
check nq_carleman(a);
check beta3(d);
check gamma1(b);
check gamma_lb(b, [1, 5, 20]) horizon 64;
compare preceq(a, b);
compare triangle(a, b);
compare approx(a, b);
compare pointwise_le(a, c);
compare quotient_le(a, c);
compare bigO(b, a, 2) horizon 64;
compare smallO(b, a);
compare numeric_ratio(a, b) grid [1, 1e6, 50];
eval omega(w, 2.5);
eval conjugate(w, 3) grid [0.05, 100, 200];
eval recover(w, 4);
eval theta(a, 0.5, 30);
eval theta_deriv(a, 3);
eval seminorm(f, a, q, 2);
mcheck mg(m1) horizon 64 flavor r;
mcheck L(m2) flavor b;
mcheck sc(m3) grid [1, 2] flavor r;
mcheck dc(m1);
mcheck rai(m1) flavor b;
mcheck FdB(m2);
mcheck BR(m4);
mcheck constant(m1);
classify membership(f, m1, p);
"""

ALL_PRODUCTIONS = frozenset({
    "program", "binding", "query", "call", "arg_named", "arg_positional",
    "value_number", "value_ref", "value_list",
    "opt_horizon", "opt_grid", "opt_flavor",
})


def test_tokenizer_positions():
    toks = tokenize("seq M =\n  ptt(tau=1, sigma=2e0);")
    assert [(t.kind, t.text) for t in toks[:3]] == [
        ("IDENT", "seq"), ("IDENT", "M"), ("PUNCT", "=")]
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (1, 5)
    assert (toks[3].line, toks[3].col) == (2, 3)  # ptt after the newline
    assert toks[-1].kind == "EOF"
    nums = [t.text for t in toks if t.kind == "NUMBER"]
    assert nums == ["1", "2e0"]


def test_a_plain_number_list_is_one_token():
    """The scan reads a list of plain numbers as one block on its "[":
    a token per item would cost seq_scan's 4097-entry table several
    times the parse time and memory."""
    values = [repr(j * 0.37 + 1) for j in range(1000)]
    text = f"seq t = table(values=[{', '.join(values)}]);"
    toks = tokenize(text)
    assert len(toks) == 11
    assert toks[7].text == "[" and toks[7].values == tuple(map(float, values))
    assert [t.text for t in toks[8:]] == [")", ";", ""]
    assert parse(text).statements[0].call.args[0][1] == toks[7].values


def test_numbers_reads_plain_finite_lists_only():
    assert dsl.numbers("1, -2.5,\n.5e1 ") == (1.0, -2.5, 5.0)
    assert dsl.numbers("x[1,2]y", 2, 5) == (1.0, 2.0)
    # a sum past the float range is no bar: each item is finite
    assert dsl.numbers("1e308,1e308") == (1e308, 1e308)
    for text in ("", "1,", ",1", "1,,2", "nan", "inf", "1e400", "1_0",
                 "1 2", "1..2", "x", "[1]", "1,\xa02", "# 1"):
        assert dsl.numbers(text) is None, text


def test_tokenizer_rejects_garbage():
    with pytest.raises(SourceError) as err:
        tokenize("seq M @ gevrey(s=1);")
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(SourceError):
        tokenize("check lc(1..2);")


def test_parse_smoke_statement_shapes():
    p = parse("seq M = ptt(tau=1, sigma=2); check lc(M) horizon 256;")
    assert len(p.statements) == 2
    b, q = p.statements
    assert isinstance(b, Binding) and b.kind == "seq" and b.name == "M"
    assert isinstance(q, Query) and q.horizon == 256
    assert format_statement(b) == "seq M = ptt(tau=1, sigma=2);"


def test_parse_reports_missing_semicolon():
    with pytest.raises(SourceError) as err:
        parse("seq M = ptt(tau=1)")
    e = err.value
    assert (e.line, e.column) == (1, 19)  # just past the closing paren
    assert ";" in e.expected


def test_parse_reports_unbound_name():
    with pytest.raises(SourceError) as err:
        parse("check lc(Q);")
    e = err.value
    assert (e.line, e.column) == (1, 10)
    assert "unbound" in str(e) and "Q" in str(e)


def test_parse_rejects_rebinding():
    with pytest.raises(SourceError) as err:
        parse("seq M = gevrey(s=1); seq M = gevrey(s=2);")
    assert "already bound" in str(err.value)
    assert err.value.column == 26


def test_parse_rejects_kind_mismatch():
    with pytest.raises(SourceError) as err:
        parse("exp e = gevrey(s=1);")
    assert "builds a 'seq'" in str(err.value)


def test_parse_rejects_reserved_names():
    with pytest.raises(SourceError):
        parse("seq gevrey = gevrey(s=1);")
    with pytest.raises(SourceError):
        parse("seq check = gevrey(s=1);")


def test_parse_rejects_unknown_operations():
    with pytest.raises(SourceError) as err:
        parse("seq M = mystery(1);")
    assert "unknown constructor" in str(err.value)
    with pytest.raises(SourceError) as err:
        parse("seq M = gevrey(s=1); check bogus(M);")
    assert "unknown check operation" in str(err.value)
    assert "lc" in err.value.expected


def test_parse_rejects_option_values_of_the_wrong_shape():
    with pytest.raises(SourceError) as err:
        parse("seq M = gevrey(s=1); check lc(M) horizon x;")
    assert "horizon needs a number" in str(err.value)
    assert (err.value.column, err.value.expected) == (42, ("number",))
    with pytest.raises(SourceError) as err:
        parse("matrix mm = ptt_matrix(tau=1, sigma=2); mcheck mg(mm) grid 3;")
    assert "grid needs a list" in str(err.value)
    assert (err.value.column, err.value.expected) == (60, ("[",))


def _productions(program: Program) -> set:
    """The grammar productions the statements of a parsed program use."""
    found = {"program"}

    def value(v):
        if isinstance(v, Ref):
            found.add("value_ref")
        elif isinstance(v, tuple):
            found.add("value_list")
            for x in v:
                value(x)
        else:
            found.add("value_number")

    for stmt in program.statements:
        found |= {"binding" if isinstance(stmt, Binding) else "query", "call"}
        for key, v in stmt.call.args:
            found.add("arg_named" if key else "arg_positional")
            value(v)
        for key in OPT_KEYS if isinstance(stmt, Query) else ():
            v = getattr(stmt, key)
            if v is not None:
                found.add("opt_" + key)
                if key == "grid":
                    value(v)
    return found


def test_roundtrip_and_production_coverage():
    first = parse(CORPUS)
    assert _productions(first) == ALL_PRODUCTIONS
    # every constructor and query operation of the signature table
    assert {(s.kind, s.call.name) for s in first.statements} == set(SIGNATURES)
    printed = print_program(first)
    second = parse(printed)
    assert second.statements == first.statements
    assert print_program(second) == printed


def test_execute_pinned_eval_records():
    recs = execute(parse(
        "seq g = gevrey(s=1);\n"
        "omega w = assoc(m=g);\n"
        "eval omega(w, 2.718281828459045);\n"
        "eval conjugate(w, 3) grid [0.05, 100, 300];\n"
        "eval recover(w, 4);\n"))
    assert [r["op"] for r in recs] == ["omega", "conjugate", "recover"]
    assert recs[0]["value"] == pytest.approx(2.0 - math.log(2.0), abs=1e-12)
    assert recs[0]["attained_at"] == 2
    assert recs[1]["value"] == pytest.approx(math.log(6.0), abs=1e-9)
    assert recs[2]["value"] == pytest.approx(math.log(24.0), abs=1e-9)


def test_execute_poisons_failed_bindings():
    recs = execute(parse(
        "seq bad = gevrey(s=-1);\n"
        "seq ok = gevrey(s=1);\n"
        "check lc(bad);\n"
        "compare preceq(bad, ok);\n"
        "check lc(ok);\n"))
    assert recs[0]["kind"] == "binding" and recs[0]["name"] == "bad"
    assert recs[0]["error"]["type"] == "InvalidParameterError"
    assert recs[1]["error"]["type"] == "PoisonedReference"
    assert recs[2]["error"]["type"] == "PoisonedReference"
    assert recs[3]["status"] == "Holds"


def test_build_and_run_query_reject_an_unknown_name():
    with pytest.raises(WcalcError, match="unknown constructor 'nope'"):
        dsl.build(Call("nope", ()), {}, Config())
    with pytest.raises(WcalcError, match="unknown check operation 'nope'"):
        dsl.run_query(Query("check", Call("nope", ())), {}, Config(), 64)


def test_execute_continues_past_query_errors():
    recs = execute(parse(
        "seq g = gevrey(s=1);\n"
        "eval theta(g, 1, 0);\n"   # truncation below the floor
        "check lc(g);\n"))
    assert recs[0]["error"]["type"] == "InvalidParameterError"
    assert recs[1]["status"] == "Holds"


def test_execute_bad_flavor_is_a_parameter_error():
    recs = execute(parse("matrix m = sigma_matrix(sigma=2);\n"
                         "mcheck mg(m) horizon 32 flavor x;\n"))
    assert recs[0]["error"]["type"] == "InvalidParameterError"


def test_execute_rejects_unordered_index_grids():
    # the partner search reads the grid's order, so a descending or
    # repeating grid is an error record, never a verdict
    recs = execute(parse(
        "seq g = gevrey(s=1); seq f = theta_bounds(g, 20);\n"
        "matrix m = sigma_matrix(sigma=2);\n"
        "mcheck mg(m) grid [4, 2, 1];\n"
        "mcheck mg(m) grid [1, 1, 2];\n"
        "classify membership(f, m) grid [4, 2, 1];\n"))
    assert [r["error"]["type"] for r in recs] == ["InvalidParameterError"] * 3
    assert all(r["error"]["message"].startswith(
        "index_grid: indices must be strictly ascending") for r in recs)


def test_execute_horizon_chain():
    prog = parse("seq g = gevrey(s=1); check lc(g) horizon 64;")
    assert execute(prog)[0]["horizon"] == 64
    assert execute(prog, horizon_override=32)[0]["horizon"] == 32
    bare = parse("seq g = gevrey(s=1); check lc(g);")
    assert execute(bare, Config(horizon=100))[0]["horizon"] == 100


def test_execute_record_carries_query_text(monkeypatch):
    formatted = []

    def counting(stmt):
        formatted.append(stmt)
        return format_statement(stmt)

    monkeypatch.setattr(dsl, "format_statement", counting)
    prog = parse("seq g = gevrey(s=1); seq bad = gevrey(s=-1);\n"
                 "check lc(g) horizon 64; check lc(bad);")
    recs = execute(prog)
    assert [r["query"] for r in recs] == [
        "seq bad = gevrey(s=-1);", "check lc(g) horizon 64;", "check lc(bad);"]
    assert all(next(iter(r)) == "query" for r in recs)
    # the binding of g succeeds and leaves no record, so it is not formatted
    assert formatted == list(prog.statements[1:])


def test_smoke_script_runs_deterministically():
    text = (DATA / "smoke.wsq").read_text()
    prog = parse(text)
    first = execute(prog)
    second = execute(prog)
    assert first == second
    assert all("error" not in r for r in first)
    statuses = [s for r in first for s in
                ([r["status"]] if "status" in r else r.get("statuses", []))]
    assert statuses and set(statuses) == {"Holds"}
    by_op = {r["op"]: r for r in first}
    assert by_op["theta"]["real"] == pytest.approx(1.660137747076813,
                                                   abs=1e-12)
    assert by_op["omega"]["value"] == pytest.approx(2.0 - math.log(2.0),
                                                    abs=1e-12)


# malformed calls through execute: the exact error record of each, so a
# change to how calls are bound keeps every type and message
_PRE = ("seq g = gevrey(s=1); exp p = power(sigma=2); exp x = linear();\n"
        "matrix m = ptt_matrix(1, 2); omega w = assoc(g);\n")
_NUM = "{} must be a number"
_LIST = "{} must be a list of numbers"
_LOG_GRID = "grid option here means [t_min, t_max, points]"
_BOUNDS = "{} needs derivative-bound data (theta_bounds) as its first argument"
_INT = "{} must be an integer"
ERROR_RECORDS = [
    ("seq a = ptt(tau=1, 2);", "ptt: positional argument after a named one"),
    ("seq a = gevrey(s=1, s=2);", "gevrey: duplicate argument 's'"),
    ("seq a = gevrey(1, s=2);", "gevrey: duplicate argument 's'"),
    ("seq a = gevrey(1, 2);", "gevrey: takes at most 1 arguments"),
    ("check lc(g, g);", "lc: takes at most 1 arguments"),
    ("seq a = gevrey(t=1);", "gevrey: unknown argument 't'"),
    ("seq a = ptt(1);", "ptt: missing argument 'sigma'"),
    ("compare preceq(g);", "preceq: missing argument 'n'"),
    ("seq a = gevrey(s=[1]);", _NUM.format("s")),
    ("seq a = gevrey(g);", _NUM.format("s")),
    ("seq a = scale(g, x, [2]);", _NUM.format("c")),
    ("seq a = theta_bounds(g, 8, [1]);", _NUM.format("truncation")),
    ("compare bigO(g, g, [1]);", _NUM.format("c_max")),
    # an int parameter takes only integer-valued numbers
    ("eval recover(w, 3.7);", _INT.format("j")),
    ("eval theta_deriv(g, 2.5);", _INT.format("k")),
    ("seq a = theta_bounds(g, 8.9);", _INT.format("count")),
    ("compare bigO(g, g, c_max=2.5);", _INT.format("c_max")),
    ("eval recover(w, 3) grid [1, 1e70, 400.5];", _INT.format("grid points")),
    ("seq a = table(values=3);", _LIST.format("values")),
    ("check gamma_lb(g, 3);", _LIST.format("alphas")),
    ("mcheck mg(m) grid [g];", _LIST.format("grid")),
    ("check lc(x);", "lc: m must be a seq, 'x' is a exp"),
    ("mcheck mg(g);", "mg: mm must be a matrix, 'g' is a seq"),
    ("eval omega(g, 2);", "omega: w must be a omega, 'g' is a seq"),
    ("classify membership(m, m);", "membership: f must be a seq, 'm' is a matrix"),
    # one base kind per scaled-matrix constructor
    ("matrix a = matrix_scale(g, p);",
     "matrix_scale: base must be a matrix, 'g' is a seq"),
    ("matrix a = matrix_scale(p, p);",
     "matrix_scale: base must be a matrix, 'p' is a exp"),
    ("matrix a = family_scale(m, p);",
     "family_scale: base must be a seq, 'm' is a matrix"),
    ("eval conjugate(w, 3) grid [1, 2];", _LOG_GRID),
    ("eval recover(w, 3) grid [1, 2, 3, 4];", _LOG_GRID),
    ("compare numeric_ratio(g, g) grid [1];", _LOG_GRID),
    ("eval seminorm(g, g, p, 2);", _BOUNDS.format("seminorm")),
    ("classify membership(g, m);", _BOUNDS.format("classify membership")),
    # a number or derivative-bound data where a sequence name belongs
    ("check lc(3);", "lc: m must be a seq name"),
    ("seq f = theta_bounds(g, 8); check lc(f);",
     "lc: m must be a seq, 'f' is derivative-bound data"),
    ("seq f = theta_bounds(g, 8); omega a = assoc(f);",
     "assoc: m must be a seq, 'f' is derivative-bound data"),
]


@pytest.mark.parametrize("stmt, message", ERROR_RECORDS)
def test_error_record_messages(stmt, message):
    records = execute(parse(_PRE + stmt))
    assert all("error" not in r for r in records[:-1])
    assert records[-1]["error"] == {"type": "WcalcError", "message": message}


@pytest.mark.parametrize("points", ["1e11", "1048577"])
def test_grid_points_past_the_window_cap_are_an_error_record(points):
    rec = execute(parse(_PRE + f"eval recover(w, 3) grid [1, 1e70, {points}];"))[-1]
    assert rec["error"] == {
        "type": "InvalidParameterError",
        "message": f"points: need an integer in [2, 1048576], got {int(float(points))}"}


def test_negative_theta_count_is_an_error_record():
    # the count rule of synthetic_bounds, not "need at least one bound"
    rec = execute(parse(_PRE + "seq a = theta_bounds(g, -1);"))[-1]
    assert rec["error"] == {"type": "InvalidParameterError",
                            "message": "count: need count >= 0, got -1"}


def test_count_and_index_cap_ceilings_are_error_records():
    recs = execute(parse(_PRE + "seq a = theta_bounds(g, 4097);\n"
                         "eval omega(w, 2) horizon 67108865;"))
    assert [r["error"] for r in recs[-2:]] == [
        {"type": "InvalidParameterError",
         "message": "count: need count <= 4096, got 4097"},
        {"type": "HorizonError",
         "message": "horizon: need an integer <= 67108864, got 67108865"}]


def test_theta_work_ceiling_is_an_error_record():
    rec = execute(parse(_PRE + "seq a = theta_bounds(g, 4096, 1000000);"))[-1]
    assert rec["error"] == {
        "type": "InvalidParameterError",
        "message": "truncation: need (count + 1) * (truncation + 1) <= "
                   "8599603, got 4097004097"}


def test_family_scale_attaches_phi():
    # the L evidence of a matrix built from one sequence reports phi's growth
    rec, = execute(parse("seq a = gevrey(s=1); exp q = linear();\n"
                         "matrix m = family_scale(a, q, grid=[1, 2, 4]);\n"
                         "mcheck L(m) horizon 32;\n"))
    assert all("exponent_growth" in e["evidence"]
               for e in rec["per_index"])


def test_binding_on_a_poisoned_name_is_poisoned():
    records = execute(parse(
        "seq bad = gevrey(s=-1);\n"
        "omega w = assoc(bad);\n"
        "eval omega(w, 2);\n"))
    assert [(r["kind"], r["error"]["type"]) for r in records] == [
        ("binding", "InvalidParameterError"),
        ("binding", "PoisonedReference"),
        ("eval", "PoisonedReference")]
    assert records[2]["error"]["message"] == "binding 'w' failed earlier"


def test_a_good_binding_clears_its_name_of_poison():
    # the parser forbids rebinding a name, but a Program built from two
    # parses may hold one; the second, good binding of a must be readable
    statements = (parse("seq a = gevrey(s=-1);").statements
                  + parse("seq a = gevrey(s=2); check lc(a) horizon 32;")
                  .statements)
    records = execute(Program(statements))
    assert [(r["kind"], r.get("status"), "error" in r) for r in records] == [
        ("binding", None, True), ("check", "Holds", False)]


@pytest.mark.parametrize("stmt, message, col", [
    ("check mg(g) horizon 1e400;", "bad number literal '1e400'", 21),
    ("check mg(g) horizon 2.7;", "horizon needs an integer, got 2.7", 21),
    ("check mg(g) horizon 8 horizon 16;", "option 'horizon' given twice", 23),
])
def test_bad_horizon_literal_is_a_source_error(stmt, message, col, tmp_path):
    text = "seq g = gevrey(s=1);\n" + stmt
    with pytest.raises(SourceError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (2, col)
    assert message in str(err.value)
    script = tmp_path / "bad.wsq"
    script.write_text(text)
    assert cli.main(["run", str(script)]) == 2


def test_integer_valued_horizon_literal_is_accepted():
    q = parse("seq g = gevrey(s=1); check lc(g) horizon 1e3;").statements[1]
    assert q.horizon == 1000
    assert format_statement(q) == "check lc(g) horizon 1000;"


def test_horizon_above_the_window_cap_is_an_error_record():
    recs = execute(parse("seq g = gevrey(s=1); check lc(g) horizon 1e30;"
                         "check lc(g) horizon 64;"))
    assert recs[0]["error"]["type"] == "HorizonError"
    assert "need an integer <= 1048576" in recs[0]["error"]["message"]
    assert recs[1]["status"] == "Holds"


@pytest.mark.parametrize("stmt, col", [
    ("check lc(g) flavor b;", 13),
    ("check lc(g) grid [1, 2, 3];", 13),
    ("compare preceq(g, g) grid [1, 2, 3];", 22),
    ("eval theta(g, 1) horizon 64 grid [1, 2, 3];", 29),
    ("classify membership(f, m) flavor r;", 27),
])
def test_option_that_does_not_apply_is_rejected(stmt, col):
    pre = ("seq g = gevrey(s=1); matrix m = ptt_matrix(1, 2);"
           " seq f = theta_bounds(g, 8);\n")
    with pytest.raises(SourceError) as err:
        parse(pre + stmt)
    assert (err.value.line, err.value.column) == (2, col)
    assert "does not apply" in str(err.value)


# Programs drawn from the signature table: every constructor and query
# operation, each parameter given a value of its type, positional or
# named, with the query options the operation reads.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_VALUE = {
    NUMBER: _FLOATS,
    INT: st.integers(-10**6, 10**6).map(float),
    NUMBERS: st.lists(_FLOATS, min_size=1, max_size=4).map(tuple),
    LOG_GRID: st.lists(_FLOATS, min_size=3, max_size=3).map(tuple),
    NAME: st.sampled_from(["r", "b", "roumieu", "beurling"]),
}


def _arg(p, scope):
    """A strategy for a value of p's type; None when no name in scope
    has a kind p takes."""
    if p.type in _VALUE:
        return _VALUE[p.type]
    kind = "seq" if p.type == BOUNDS else p.type
    names = sorted(n for n, k in scope.items() if k == kind)
    return st.sampled_from(names).map(Ref) if names else None


@st.composite
def programs(draw):
    scope: dict[str, str] = {}
    stmts = []
    for i in range(draw(st.integers(1, 10))):
        kind, name = draw(st.sampled_from(sorted(SIGNATURES)))
        sig = SIGNATURES[kind, name]
        count = draw(st.integers(sum(p.required for p in sig.params),
                                 len(sig.params)))
        values = [_arg(p, scope) for p in sig.params[:count]]
        if None in values:
            continue
        named = draw(st.booleans())
        call = Call(name, tuple((p.name if named else None, draw(v))
                                for p, v in zip(sig.params, values)))
        if kind in BINDING_KINDS:
            scope[f"x{i}"] = kind
            stmts.append(Binding(kind, f"x{i}", call))
            continue
        opts = {o.name: draw(_VALUE[o.type]) for o in sig.opts
                if draw(st.booleans())}
        horizon = draw(st.none() | st.integers(-10**9, 10**9))
        stmts.append(Query(kind, call, horizon=horizon, **opts))
    return Program(tuple(stmts))


@settings(max_examples=80, deadline=None)
@given(programs())
def test_print_parse_roundtrip(program):
    assert parse(print_program(program)).statements == program.statements


_ODD_LITERALS = ["1e400", "-1e400", "2.7", "1e3", "-0", ".5", "1e-400",
                 "9" * 320, "1..2", "1e", "+"]
_WORDS = sorted({n for _, n in SIGNATURES} | set(BINDING_KINDS)
                | {"check", "mcheck", "horizon", "grid", "flavor", "x0"}
                | set("()=,;[]#\n@"))


@st.composite
def fuzzed_sources(draw):
    """A program from the table, printed, with about one number literal in
    four swapped for an odd one, then up to three tokens dropped, repeated
    or inserted."""
    odd = st.sampled_from(_ODD_LITERALS)
    tokens = [draw(odd) if t.kind == "NUMBER" and draw(st.integers(0, 3)) == 0
              else t.text
              for t in _loop_tokenize(print_program(draw(programs())))[:-1]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "insert":
            tokens.insert(i, draw(st.sampled_from(_WORDS)))
        elif i < len(tokens):
            tokens[i:i + 1] = [] if edit == "drop" else [tokens[i]] * 2
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(fuzzed_sources())
def test_fuzzed_source_raises_only_source_error(text):
    try:
        program = parse(text)
    except SourceError:
        return
    assert parse(print_program(program)).statements == program.statements


# ---------------------------------------------------------------------------
# the regex scanner and the block list read against the character loop


def _loop_tokenize(text):
    """The character-by-character scanner the regex scanner replaced."""
    out = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "()=,;[]":
            out.append(Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or ch == "." or (ch in "+-" and i + 1 < n
                                         and (text[i + 1].isdigit()
                                              or text[i + 1] == ".")):
            j = i
            if text[j] in "+-":
                j += 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                finite = math.isfinite(float(lit))
            except ValueError:
                finite = False
            if not finite:
                raise SourceError(f"bad number literal {lit!r}",
                                  start_line, start_col)
            out.append(Token("NUMBER", lit, start_line, start_col))
            col += j - i
            i = j
            continue
        raise SourceError(f"unexpected character {ch!r}", start_line, start_col)
    out.append(Token("EOF", "", line, col))
    return out


class _LoopParser(dsl._Parser):
    """The parser with the per-token list loop only, no block read."""

    def value(self):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "[":
            self.advance()
            items = [self.value()]
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.advance()
                items.append(self.value())
            self.expect_punct("]")
            return tuple(items)
        return super().value()


def _loop_parse(text):
    return _LoopParser(_loop_tokenize(text)).program()


def _folded_loop_tokenize(text):
    """The character loop's tokens, with each list whose values tokenize
    carries on its "[" folded into that "[": only where the loop reads the
    list as "[" NUMBER ("," NUMBER)* "]" with exactly those floats.  Where
    tokenize raises and the loop does not, the loop's tokens come back
    unfolded, so the error still fails the comparison."""
    loop = _loop_tokenize(text)
    try:
        scanned = tokenize(text)
    except SourceError:
        return loop
    out, i = [], 0
    for tok in scanned:
        if i == len(loop):
            break
        k = len(tok.values or ())
        run = loop[i:i + 2 * k + 1]   # "[", k items, k - 1 commas, "]"
        if (k and [t.text for t in run[::2]] == ["["] + [","] * (k - 1) + ["]"]
                and all(t.kind == "NUMBER" for t in run[1::2])
                and [repr(float(t.text)) for t in run[1::2]]
                == list(map(repr, tok.values))):
            out.append(loop[i]._replace(values=tok.values))
            i += len(run)
        else:
            out.append(loop[i])
            i += 1
    return out


def _outcome(fn, text):
    """What fn returns on text, statements with their positions, or the
    message, position and expectations of the SourceError it raises."""
    try:
        out = fn(text)
    except SourceError as exc:
        return ("error", str(exc), exc.line, exc.column, exc.expected)
    if isinstance(out, Program):
        return [(s, s.line, s.col) for s in out.statements]
    return out


_PLAIN_NUMBERS = ["1", "0", "-2.5", "+.5", "1e3", "2E-2", "-0", "7.",
                  "1e308", "12.5e-3"]
# str.isdigit takes more than \d ("²"), and str.isalpha is not [^\W\d_]
# ("²", "½", "Ⅻ"); "١" is a decimal digit that float() reads, and so are
# "1_0" and a no-break space, which no token takes
_ODD_NUMBERS = ["1e", "1e+", "1..2", "1e400", "-1e400", "9" * 320, ".", "+",
                "-", "١", "1١", "²", "3²", "1e²", "½", "e", "x", "1 2", "",
                "[1]", "1_0"]
_GAPS = [",", ", ", " ,", ",\n", ",\r\n  ", "\t,"]
_ODD_GAPS = [", # note\n", ",,", " ", ",\xa0"]
_BITS = _PLAIN_NUMBERS + _ODD_NUMBERS + _GAPS + _ODD_GAPS + [
    "seq", "check", "lc", "horizon", "grid", "table", "values", "t", "µ",
    "Ⅻ", "a_1", "(", ")", "=", ";", "[", "]", " ", "\n", "\r\n", "\t",
    "# comment", "#", "@", "Ä"]


def _mostly(plain, odd):
    """One in five draws from odd."""
    return st.integers(0, 4).flatmap(
        lambda i: st.sampled_from(odd if i == 0 else plain))


@st.composite
def _number_lists(draw):
    items = draw(st.lists(_mostly(_PLAIN_NUMBERS, _ODD_NUMBERS),
                          min_size=1, max_size=8))
    text = items[0]
    for item in items[1:]:
        text += draw(_mostly(_GAPS, _ODD_GAPS)) + item
    return text + draw(_mostly(["", "\n"], [",", " ,\n"]))


@st.composite
def scripts(draw):
    """A table binding and a query with a grid, their lists drawn mostly
    from plain number literals and separators, then as often as not up to
    three fragments spliced in anywhere; or a soup of fragments."""
    if draw(st.integers(0, 4)) == 0:
        return "".join(draw(st.lists(st.sampled_from(_BITS), max_size=30)))
    text = (f"seq t = table(values=[{draw(_number_lists())}]);\r\n"
            "check lc(t) horizon 64;\n"
            f"compare numeric_ratio(t, t) grid [{draw(_number_lists())}];"
            + draw(st.sampled_from(["", "\n", " # end", "\n# end"])))
    for _ in range(draw(st.integers(-3, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_BITS)) + text[i:]
    return text


@settings(max_examples=400, deadline=None)
@given(scripts())
@example("check lc(t); # trailing")  # EOF column stays at the "#"
@example("#")
@example("µ² = Ⅻ½;")
@example("x١ ١ 1١ ²")
@example("1e²")
@example("+²")
@example("seq t = table(values=[1,\r\n 2 ,3\n]); @")
@example("seq t = table(values=[1, 1e400]);")
@example("seq 1 = x; @")
@example("check lc(t) grid [1, 2, 3,];")
@example("seq t = table(values=[1,\n 2]); check lc(t) x;")  # column past a block
@example("seq t = table(values=[1_0]);")  # float() reads "1_0"
@example("seq t = table(values=[1,\xa02]);")  # and strips a no-break space
@example("seq t = table(values=[1,\n[2]]);")
def test_scanner_and_block_read_match_the_character_loop(text):
    assert _outcome(tokenize, text) == _outcome(_folded_loop_tokenize, text)
    assert _outcome(parse, text) == _outcome(_loop_parse, text)


# ---------------------------------------------------------------------------
# a binding leaves the env after its last reader


def _track(monkeypatch, module, name: str, refs: list) -> None:
    """Wrap module.name so each object it builds is weakly kept in refs."""
    real = getattr(module, name)

    def tracked(*args):
        obj = real(*args)
        refs.append(weakref.ref(obj))
        return obj

    monkeypatch.setattr(module, name, tracked)


def _probe_checks(monkeypatch, refs: list) -> list:
    """Which tracked objects are alive when each check query starts."""
    seen = []
    real = _conditions.check_condition

    def probe(*args, **kwargs):
        gc.collect()
        seen.append([r() is not None for r in refs])
        return real(*args, **kwargs)

    monkeypatch.setattr(_conditions, "check_condition", probe)
    return seen


def test_a_sequence_is_gone_after_its_last_reader(monkeypatch):
    refs = []
    _track(monkeypatch, _sequences, "gevrey", refs)
    seen = _probe_checks(monkeypatch, refs)
    records = execute(parse("""
        seq a = gevrey(s=2);
        seq unread = gevrey(s=3);
        check lc(a) horizon 32;
        seq b = gevrey(s=1.5);
        check lc(b) horizon 32;
    """))
    assert [r["status"] for r in records] == ["Holds", "Holds"]
    # the unread binding went right after its own statement, a after the
    # first check, its last reader
    assert seen == [[True, False], [False, False, True]]
    gc.collect()
    assert not any(r() for r in refs)


def test_a_name_bound_twice_releases_each_value_after_its_own_last_reader(
        monkeypatch):
    refs = []
    _track(monkeypatch, _sequences, "gevrey", refs)
    seen = _probe_checks(monkeypatch, refs)
    first = parse("seq a = gevrey(s=2); check lc(a) horizon 32;").statements
    again = parse("seq a = gevrey(s=3); check lc(a) horizon 32;").statements
    unread = parse("seq a = gevrey(s=4);").statements
    records = execute(Program(first + unread + again))
    assert [r["status"] for r in records] == ["Holds", "Holds"]
    assert seen == [[True], [False, False, True]]
    assert dsl._releases(first + unread + again) == [[], ["a"], ["a"], [], ["a"]]


def test_a_poisoned_binding_and_what_it_reads_are_released(monkeypatch):
    refs = []
    _track(monkeypatch, _sequences, "gevrey", refs)
    seen = _probe_checks(monkeypatch, refs)
    program = parse("""
        seq a = gevrey(s=2);
        exp ph = power(sigma=1);
        seq bad = scale(base=a, phi=ph, c=-1);
        seq z = gevrey(s=1.5);
        compare preceq(z, bad) horizon 32;
        seq y = gevrey(s=3);
        check lc(y) horizon 32;
    """)
    records = execute(program)
    assert [r.get("error", {}).get("type") for r in records] == [
        "InvalidParameterError", "PoisonedReference", None]
    # a went after the failed binding that read it, z after the poisoned
    # query that read it
    assert seen == [[False, False, True]]
    # the poisoned name leaves the env after its last reader too
    assert dsl._releases(program.statements) == [
        [], [], ["a", "ph"], [], ["bad", "z"], [], ["y"]]


def _pair_results(mm) -> int:
    return sum(map(len, mm._checks.values()))


def test_a_released_base_matrix_keeps_its_elements_but_no_pair_memo(
        monkeypatch):
    refs = []
    _track(monkeypatch, _matrices, "ptt_matrix", refs)
    seen = []
    real = _matrices.check_matrix_condition

    def probe(mm, *args, **kwargs):
        # (checking pm, pm's elements, pm's pair results) before and after
        gc.collect()
        base = refs[0]()
        seen.append((mm is base, len(base._memo), _pair_results(base)))
        out = real(mm, *args, **kwargs)
        seen.append((mm is base, len(base._memo), _pair_results(base)))
        return out

    monkeypatch.setattr(_matrices, "check_matrix_condition", probe)
    records = execute(parse("""
        matrix pm = ptt_matrix(tau=1, sigma=2);
        exp ph = power(sigma=1);
        matrix ms = matrix_scale(base=pm, phi=ph);
        mcheck mg(pm) horizon 64 flavor r;
        mcheck mg(ms) horizon 64 flavor r;
    """))
    assert not any("error" in r for r in records)
    (on_pm, _, before), (_, elements, after), (on_ms, kept, dropped), _ = seen
    assert on_pm and before == 0 and after > 0
    # pm's last reader has run: ms still reads its elements through it
    assert not on_ms and kept == elements > 0 and dropped == 0
    gc.collect()
    assert refs[0]() is None


def test_a_poisoned_matrix_bound_again_drops_each_value_s_conditions():
    first = parse("""
        matrix a = ptt_matrix(tau=1, sigma=0.5);
        mcheck mg(a) horizon 32;
        mcheck dc(a) horizon 32;
        mcheck mg(a) horizon 32 flavor b;
    """).statements
    again = parse("""
        matrix a = sigma_matrix(sigma=2);
        exp ph = power(sigma=1);
        mcheck dc(a) horizon 32;
        mcheck mg(a) horizon 32;
        matrix ms = matrix_scale(base=a, phi=ph);
    """).statements
    # each value drops a condition after its own last check of it, unless
    # that check is the value's last reader, which releases the value
    assert dsl._releases(first + again) == [
        [], [], [("a", "dc")], ["a"],
        [], [], [("a", "dc")], [("a", "mg")], ["a", "ph", "ms"]]
    records = execute(Program(first + again))
    assert [r.get("error", {}).get("type") for r in records] == [
        "InvalidParameterError", "PoisonedReference", "PoisonedReference",
        "PoisonedReference", None, None]


def test_no_mcheck_starts_beside_a_condition_memo_nothing_reads_again(
        monkeypatch):
    refs = []
    for ctor in ("ptt_matrix", "sigma_matrix", "matrix_scale"):
        _track(monkeypatch, _matrices, ctor, refs)
    # the matrix_search benchmark's script shape, at horizon 64
    lines = [
        "matrix pm = ptt_matrix(tau=1, sigma=2);",
        "matrix sm = sigma_matrix(sigma=1.5);",
        "exp ph = power(sigma=1.5);",
        "matrix ms = matrix_scale(base=pm, phi=ph);",
    ]
    checks = []  # (matrix, condition) of each mcheck in order
    for m in ("pm", "sm", "ms"):
        for tag in _matrices.MATRIX_CONDITIONS:
            for flavor in ("r", "b"):
                lines.append(f"mcheck {tag}({m}) horizon 64 flavor {flavor};")
                checks.append((m, tag))
    held = []
    real = _matrices.check_matrix_condition

    def probe(*args, **kwargs):
        # the conditions each live matrix holds a memo of, past the
        # conditions this or a later statement checks on it
        later = checks[len(held):]
        held.append({
            name: set(ref()._checks) - {tag for m, tag in later if m == name}
            for name, ref in zip(("pm", "sm", "ms"), refs) if ref()})
        if len(held) == 2:  # the Beurling L check reads the Roumieu memo
            assert set(refs[0]()._checks) == {"L"}
        return real(*args, **kwargs)

    monkeypatch.setattr(_matrices, "check_matrix_condition", probe)
    records = execute(parse("\n".join(lines)))
    assert len(records) == len(held) == len(checks) == 48
    assert not any("error" in r for r in records)
    assert [sorted(n for n, extra in h.items() if extra) for h in held] == [
        []] * len(checks)


def test_condition_memos_drop_without_changing_a_record_or_repeating_a_pair(
        monkeypatch):
    runs = collections.Counter()
    for tag, test in _matrices._PAIR_TESTS.items():
        def counted(left, right, h, tag=tag, test=test, **kwargs):
            runs[tag, left, right, h] += 1
            return test(left, right, h, **kwargs)
        monkeypatch.setitem(_matrices._PAIR_TESTS, tag, counted)
    compose = _matrices.composition_sequence

    def counted_composition(m, K):
        runs["composition", tuple(m), K] += 1
        return compose(m, K)

    monkeypatch.setattr(_matrices, "composition_sequence", counted_composition)
    grouped = [(tag, flavor) for tag in _matrices.MATRIX_CONDITIONS
               for flavor in ("r", "b")]
    orders = {"grouped": grouped,
              "r then b": sorted(grouped, key=lambda tf: tf[1] == "b"),
              "reversed": grouped[::-1]}
    got = {}
    for name, order in orders.items():
        runs.clear()
        records = execute(parse(
            "matrix pm = ptt_matrix(tau=1, sigma=2);\n" + "\n".join(
                f"mcheck {tag}(pm) horizon 64 flavor {flavor};"
                for tag, flavor in order)))
        got[name] = {r["query"]: r for r in records}
        assert len(got[name]) == 16 and not any(
            "error" in r for r in records), name
        # FdB composes once per left element, every test once per pair
        assert any(k[0] == "composition" for k in runs), name
        assert max(runs.values()) == 1, name
    assert got["grouped"] == got["r then b"] == got["reversed"]


def _six_mchecks_each(*ctors) -> str:
    lines = []
    for i, ctor in enumerate(ctors):
        lines.append(f"matrix m{i} = {ctor};")
        lines += [f"mcheck {tag}(m{i}) horizon 256 flavor {flavor};"
                  for tag in ("mg", "dc", "L") for flavor in ("r", "b")]
    return "\n".join(lines) + "\n"


def _execute_peak(program: Program) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        execute(program)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_independent_matrices_run_in_turn_do_not_add_up_in_memory():
    one = parse(_six_mchecks_each("sigma_matrix(sigma=2)"))
    three = parse(_six_mchecks_each(
        "sigma_matrix(sigma=2)", "ptt_matrix(tau=1, sigma=2)",
        "sigma_matrix(sigma=1.5)"))
    execute(three)  # the process-wide ln axes grow outside the measurement
    # each matrix with its elements, windows and pair memo goes after its
    # last mcheck: 1.7x the first matrix alone, 3.3x when every one lived
    # until the script ended
    assert _execute_peak(three) < 2.5 * _execute_peak(one)
