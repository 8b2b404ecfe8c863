"""Script language: tokenizer, parser, printer round-trip, execution."""

import math
import pathlib

import pytest

from wcalc import Config, SourceError
from wcalc.dsl import (
    Binding,
    Query,
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
matrix m3 = matrix_scale(a, q);
matrix m4 = family_scale(b, p, grid=[0.5, 1, 2]);
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
check gamma_lb(b, [1, 5, 20]) horizon 64;
compare preceq(a, b);
compare bigO(b, a, 2) horizon 64;
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


def test_parse_checks_matrix_scale_referent_kind():
    with pytest.raises(SourceError) as err:
        parse("exp p = power(sigma=2); matrix mm = matrix_scale(p, p);")
    assert "seq or matrix referent" in str(err.value)
    # both legitimate overloads parse
    parse("seq a = gevrey(s=1); matrix mm = matrix_scale(a);")
    parse("matrix m1 = sigma_matrix(sigma=2); matrix m2 = matrix_scale(m1);")


def test_roundtrip_and_production_coverage():
    first = parse(CORPUS)
    assert first.productions == ALL_PRODUCTIONS
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


def test_execute_horizon_chain():
    prog = parse("seq g = gevrey(s=1); check lc(g) horizon 64;")
    assert execute(prog)[0]["horizon"] == 64
    assert execute(prog, horizon_override=32)[0]["horizon"] == 32
    bare = parse("seq g = gevrey(s=1); check lc(g);")
    assert execute(bare, Config(horizon=100))[0]["horizon"] == 100


def test_execute_record_carries_query_text():
    recs = execute(parse("seq g = gevrey(s=1); check lc(g) horizon 64;"))
    assert recs[0]["query"] == "check lc(g) horizon 64;"


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
