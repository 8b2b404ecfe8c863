"""Command-line front end: exit codes, env override, golden report bytes."""

import argparse
import csv
import hashlib
import json
import math
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from wcalc import cli, gevrey, ptt_matrix, report, synthetic_bounds

ROOT = pathlib.Path(__file__).parents[1]
DATA = pathlib.Path(__file__).parent / "data"
SMOKE = DATA / "smoke.wsq"
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def bounds_csv(tmp_path):
    b = synthetic_bounds(ptt_matrix(1.0, 2.0).element(2.0), 128)
    path = tmp_path / "bounds.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "log_bound"])
        for j, v in enumerate(b.bounds):
            w.writerow([j, repr(v)])
    return path


def test_exit_zero_on_all_holds(capsys):
    assert run("run", SMOKE) == 0
    out = capsys.readouterr().out
    assert "Holds" in out and "Fails" not in out


def test_exit_one_on_fails(capsys):
    assert run("compare", "--left", "gevrey:1", "--right", "gevrey:0.5",
               "--rel", "preceq") == 1
    assert "Fails" in capsys.readouterr().out


def test_undetermined_gate():
    argv = ("check", "--family", "ptt:1:2", "--cond", "mg")
    assert run(*argv) == 1
    assert run(*argv, "--allow-undetermined") == 0


def test_exit_two_on_usage_errors(tmp_path, bounds_csv, capsys):
    assert run("check", "--family", "gevrey:1") == 2          # missing --cond
    assert run("check", "--family", "weird:1", "--cond", "lc") == 2
    assert run("check", "--family", "gevrey:-1", "--cond", "lc") == 2
    assert run("check", "--family", "ptt-matrix:1:2", "--cond", "lc") == 2
    assert run("check", "--family", "gevrey:1", "--cond", "lc",
               "--params", "oops") == 2
    assert run("compare", "--left", "gevrey:1", "--right", "gevrey:2",
               "--rel", "superset") == 2
    assert run("omega", "--family", "gevrey:1", "--t-grid", "1:100",
               "--csv", str(tmp_path / "o.csv")) == 2
    assert run("classify", "--bounds", "b.csv", "--matrix", "gevrey:1") == 2
    # every colon part of a spec is a number, the element index included
    assert run("check", "--family", "ptt-matrix:1:2:x", "--cond", "lc") == 2
    for phi in ("power:x", "power", "gevrey:1"):
        assert run("classify", "--bounds", bounds_csv,
                   "--matrix", "ptt-matrix:1:2", "--phi", phi) == 2
    bad = tmp_path / "bad.wsq"
    bad.write_text("seq M = ptt(tau=1)")
    assert run("run", bad) == 2
    err = capsys.readouterr().err
    assert "wcalc:" in err and "column" in err


def test_exit_two_on_bad_horizon_or_index_grid(tmp_path, bounds_csv,
                                               monkeypatch, capsys):
    # HorizonError is an InvalidParameterError, whatever the floor of the call
    for argv in (
            ("check", "--family", "gevrey:1", "--cond", "lc", "--horizon", "3"),
            ("check", "--family", "ptt-matrix:1:2", "--cond", "mg",
             "--horizon", "8"),
            ("omega", "--family", "gevrey:1", "--csv", tmp_path / "o.csv",
             "--horizon", "0"),
            ("compare", "--left", "gevrey:2", "--right", "gevrey:1",
             "--rel", "bigO", "--horizon", "-1")):
        assert run(*argv) == 2, argv
    for grid in ("4,2,1", "1,1,2"):
        assert run("check", "--family", "sigma-matrix:2", "--cond", "mg",
                   "--grid", grid) == 2
    # membership reads the bounds' own length, so --horizon does not apply
    for horizon in ("0", "64"):
        assert run("classify", "--bounds", bounds_csv,
                   "--matrix", "ptt-matrix:1:2", "--horizon", horizon) == 2
    assert "--horizon applies only to" in capsys.readouterr().err
    # a window horizon above WINDOW_CAP exits 2 before any term is read
    for argv in (("check", "--family", "gevrey:1", "--cond", "lc"),
                 ("compare", "--left", "gevrey:2", "--right", "gevrey:1",
                  "--rel", "preceq")):
        assert run(*argv, "--horizon", 10**12) == 2, argv
        assert "horizon: need an integer <= 1048576, got 1000000000000" \
            in capsys.readouterr().err
    # an omega index cap above OMEGA_INDEX_CAP exits 2 before any search
    assert run("omega", "--family", "gevrey:1", "--csv", tmp_path / "o.csv",
               "--horizon", 2**26 + 1) == 2
    assert "horizon: need an integer <= 67108864, got 67108865" \
        in capsys.readouterr().err
    monkeypatch.setenv("WCALC_HORIZON", str(10**12))
    assert run("check", "--family", "gevrey:1", "--cond", "lc") == 2
    assert "need an integer <= 1048576, got WCALC_HORIZON='1000000000000'" \
        in capsys.readouterr().err
    # WCALC_HORIZON takes the rule --horizon takes
    for env in ("abc", "8", "64.5"):
        monkeypatch.setenv("WCALC_HORIZON", env)
        assert run("check", "--family", "gevrey:1", "--cond", "lc") == 2, env
        err = capsys.readouterr().err
        assert "horizon: need an integer >= 16" in err
        # the message names where the bad value came from
        assert f"WCALC_HORIZON={env!r}" in err


def test_grid_points_past_the_window_cap_exit_two(tmp_path, capsys):
    for points in ("100000000000", "2.5"):
        assert run("omega", "--family", "gevrey:1", "--t-grid",
                   f"1:10:{points}", "--csv", tmp_path / "o.csv") == 2
    assert "points: need an integer in [2, 1048576], got 100000000000" \
        in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_t_grid_count_reads_like_the_script_grid(tmp_path, capsys):
    # 1e3 is 1000 points, as in the script grid [1, 10, 1e3]
    path = tmp_path / "o.csv"
    assert run("omega", "--family", "gevrey:1", "--t-grid", "1:10:1e3",
               "--csv", path) == 0
    assert len(list(csv.reader(open(path)))) == 1001
    for points in ("2.5", "x"):
        assert run("omega", "--family", "gevrey:1", "--t-grid",
                   f"1:10:{points}", "--csv", path) == 2
        assert capsys.readouterr().err.startswith("wcalc: --t-grid ")


def test_exit_three_on_runtime_errors(tmp_path):
    assert run("run", tmp_path / "missing.wsq") == 3
    # explicit horizon below the sup maximizer: the value is not attained
    assert run("omega", "--family", "gevrey:1", "--t-grid", "1:1e6:10",
               "--csv", str(tmp_path / "o.csv"), "--horizon", "64") == 3


def test_help_exits_clean(capsys):
    assert run("--help") == 0
    assert "run" in capsys.readouterr().out


# argv that argparse alone answers (help or a parse error): the CLI must
# print the bytes the full parser prints, whichever parser it builds
PARSE_ONLY = {
    "help": ("--help",),
    **{f"{name}-help": (name, "--help") for name in cli.COMMANDS},
    "missing-required": ("check", "--family", "gevrey:1"),
    "unrecognized": ("check", "--family", "gevrey:1", "--cond", "lc",
                     "--bogus", "1"),
    "extra-positional": ("run", "a.wsq", "b.wsq"),
    "bad-format": ("compare", "--left", "gevrey:1", "--right", "gevrey:2",
                   "--rel", "preceq", "--format", "xml"),
    "non-integer-horizon": ("check", "--family", "gevrey:1", "--cond", "lc",
                            "--horizon", "1.5"),
    "not-a-command": ("bogus", "--family", "gevrey:1"),
    "option-first": ("--horizon", "64", "check"),
    "empty": (),
}


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize("name", sorted(PARSE_ONLY))
def test_parse_output_matches_full_parser(name, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    argv = list(PARSE_ONLY[name])
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (exc.value.code, capsys.readouterr())
    assert (run(*argv), capsys.readouterr()) == want


def test_a_subcommand_call_builds_only_its_parser(monkeypatch):
    full = cli.build_parser

    class FullParser(Exception):
        pass

    def refuse():
        raise FullParser
    monkeypatch.setattr(cli, "build_parser", refuse)
    argv = ("check", "--family", "gevrey:1", "--cond", "lc", "--horizon", "64")
    assert run(*argv) == 0
    # left-over arguments go to the full parser for its error text
    with pytest.raises(FullParser):
        run(*argv, "--bogus")
    # which still registers every subcommand with all of its options
    sub, = (a for a in full()._actions
            if isinstance(a, argparse._SubParsersAction))
    common = ["--allow-undetermined", "--format", "--help", "--horizon",
              "--out", "-h"]
    assert {name: sorted(o for a in p._actions
                         for o in a.option_strings or [a.dest])
            for name, p in sub.choices.items()} == {
        "run": sorted(common + ["script"]),
        "check": sorted(common + ["--family", "--params", "--cond",
                                  "--flavor", "--alphas", "--grid"]),
        "omega": sorted(common + ["--family", "--params", "--t-grid",
                                  "--csv"]),
        "compare": sorted(common + ["--left", "--right", "--left-params",
                                    "--right-params", "--rel", "--c-max"]),
        "classify": sorted(common + ["--bounds", "--matrix", "--params",
                                     "--phi", "--grid"]),
    }


def test_env_horizon_and_flag_precedence(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("WCALC_HORIZON", "64")
    assert run("check", "--family", "gevrey:1", "--cond", "lc",
               "--out", out) == 0
    rep = json.loads(out.read_bytes())
    assert rep["config"]["horizon"] == 64
    assert rep["records"][0]["horizon"] == 64
    assert run("check", "--family", "gevrey:1", "--cond", "lc",
               "--horizon", "128", "--out", out) == 0
    assert json.loads(out.read_bytes())["records"][0]["horizon"] == 128


def test_report_config_records_the_horizon_flag(capsys):
    assert run("check", "--family", "gevrey:1", "--cond", "lc",
               "--horizon", "64", "--format", "json") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["records"][0]["horizon"] == 64
    assert rep["config"]["horizon"] == 64
    assert run("check", "--family", "gevrey:1", "--cond", "lc",
               "--horizon", "64") == 0
    assert capsys.readouterr().out.startswith(
        f"wcalc-report {report.VERSION}  horizon=64\n")


def test_no_run_seed(capsys):
    """mg reads no sample, so no seed is settable."""
    assert run("run", SMOKE, "--seed", "1") == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_empty_number_lists_are_usage_errors(capsys):
    """An empty --alphas or --grid names its option, rather than giving no
    verdict, running the default grid, or passing a grid to a sequence."""
    for argv in (
            ("--family", "gevrey:1", "--cond", "gamma-lb", "--alphas", ","),
            ("--family", "sigma-matrix:2", "--cond", "mg", "--grid", ","),
            ("--family", "sigma-matrix:2", "--cond", "mg", "--grid", ""),
            ("--family", "gevrey:1", "--cond", "lc", "--grid", " , ")):
        assert run("check", *argv) == 2, argv
        assert f"wcalc: {argv[-2]} must be a comma-separated number list" \
            in capsys.readouterr().err


# every number the CLI reads follows the script literal rule (dsl.numbers)
@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "1_0", "1,,2", "1,2,"])
def test_cli_numbers_follow_the_script_literal_rule(bad, tmp_path, capsys):
    """Each number site rejects what a script literal rejects, with its
    own message; float() alone took nan, inf, 1_0 and empty items."""
    sites = [
        (("check", "--family", "gevrey:1", "--cond", "gamma-lb",
          "--alphas", bad), "--alphas must be a comma-separated number list"),
        (("check", "--family", "sigma-matrix:2", "--cond", "mg",
          "--grid", f"1,2,{bad}"), "--grid must be a comma-separated number list"),
        # --params splits its entries at commas first
        (("check", "--family", "gevrey", "--params", f"s={bad}",
          "--cond", "lc"), "--params entries look like k=v" if "," in bad
         else "--params value for 's' is not a number"),
        (("check", "--family", f"gevrey:{bad}", "--cond", "lc"),
         "bad numeric parameter"),
        (("omega", "--family", "gevrey:1", "--t-grid", f"1:{bad}:3",
          "--csv", tmp_path / "o.csv"), "--t-grid looks like a:b:n"),
    ]
    for argv, message in sites:
        assert run(*argv, "--horizon", 64) == 2, argv
        assert f"wcalc: {message}" in capsys.readouterr().err, argv


def test_cli_numbers_read_the_floats_float_reads():
    for text in ("1e4", "-2.5", ".5", "+3", "1,2,4,16,256", " 1 , 2 ",
                 repr(0.1), repr(1 / 3), repr(2.0 ** -1074)):
        assert cli._numbers(text, "") == tuple(map(float, text.split(",")))
    with pytest.raises(cli.UsageError, match="^one$"):
        cli._numbers("1,2", "one", 1)


def test_gamma_lb_rejects_a_non_finite_alpha(capsys):
    assert run("check", "--family", "gevrey:1", "--cond", "gamma-lb",
               "--alphas", "nan,1") == 2
    assert "--alphas must be a comma-separated number list, got 'nan,1'" \
        in capsys.readouterr().err


def test_golden_report_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run("run", SMOKE, "--out", a) == 0
    assert run("run", SMOKE, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run("run", SMOKE, "--horizon", "64", "--out", c) == 0
    assert a.read_bytes() != c.read_bytes()
    rep = json.loads(a.read_bytes())
    jsonschema.validate(rep, SCHEMA)
    assert len(rep["records"]) == 9
    assert all("error" not in r for r in rep["records"])


# sha256 of the `wcalc run` JSON report, with the exit code, then the
# status digest of the same report (status_digest).  These pin report bytes
# across commits, where test_golden_report_bytes compares two runs of one
# commit: a change that moves any number, witness or message in these
# reports must update the byte digest and say why in CHANGES.md.  A change
# that re-records bytes but keeps the status digest moved no status.
# windows.wsq runs every reader of a window of log M_j once; its short
# tables end in two error records on purpose, hence exit code 3.
# evidence.wsq runs each path that turns a trajectory or the sc
# certificate into evidence; gevrey(s=0.01) fails the certificate at
# horizon 64, so its bigO/smallO records are errors, hence exit code 3.
# omega.wsq interleaves conjugate and recover calls on one omega under two
# grids and two horizons, with from_omega and numeric_ratio; its last two
# queries peak below the grid start on purpose, hence exit code 3.
# Recorded with CPython 3.11 on Linux x86-64; another libm may move the
# last bit of an lgamma and with it the byte digest.
GOLDEN_SHA256 = {
    "smoke.wsq": (0,
        "b53e45d8aa055712b27d100a2f49a7af84d025ecb9ac8ed86eeae78ebdf8f355",
        "ab3e7eaf95687fb6cf433d0e199cfc571d2f9064689a38dd7828e7e88f643cbf"),
    "windows.wsq": (3,
        "8bdb987620b127fecbfba02ed07d61a145b6646a502b172ddd10a8c73d374b37",
        "9eb05eec00de43e51752a931973bc17ae8cedd6a98f766fe6c5d9ce961df65fe"),
    "evidence.wsq": (3,
        "af68ce3984b9ebafd53ca13c2888f977a2bd6d0e164d67d0f447bb69e9281450",
        "a67109b29311b547bce6ce74320f387d895d13108d824e08731d2d7cf8d0ca9e"),
    "matrix.wsq": (1,
        "42ba203520141a7647c022e0ad3372bf170f4fa2e3135def226658b6ae62b087",
        "ff349fe4a04c4feed2ace3927cd4328376d7de429c49a286bd048a6959049806"),
    "omega.wsq": (3,
        "4a4c673fbf7f084a5f3e2cc7b10026c04ee8ad00d980a93044e91480b29136bf",
        "1cfbd5f4f0721114c297541e43fce1ddfa5a3a7be94259e69e7861bf504cf07c"),
}


def status_digest(data: bytes) -> str:
    """sha256 of each record's query, status (or statuses) and error type:
    the verdicts of a report without its evidence, numbers and messages."""
    rows = [[r["query"], r.get("status", r.get("statuses")),
             r.get("error", {}).get("type")]
            for r in json.loads(data)["records"]]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("script", sorted(GOLDEN_SHA256))
def test_golden_report_digest(script, tmp_path, monkeypatch):
    monkeypatch.delenv("WCALC_HORIZON", raising=False)
    out = tmp_path / "r.json"
    code = run("run", DATA / script, "--out", out)
    want_code, want_bytes, want_statuses = GOLDEN_SHA256[script]
    data = out.read_bytes()
    assert (code, status_digest(data)) == (want_code, want_statuses)
    assert hashlib.sha256(data).hexdigest() == want_bytes


def test_stdout_formats_match_file(tmp_path, capsys, monkeypatch):
    calls = []
    emit_json = report.emit_json
    monkeypatch.setattr(report, "emit_json",
                        lambda rep: calls.append(rep) or emit_json(rep))
    out = tmp_path / "r.json"
    assert run("check", "--family", "gevrey:1", "--cond", "mg",
               "--out", out, "--format", "json") == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    assert len(calls) == 1  # one encoding serves the file and stdout
    assert run("check", "--family", "gevrey:1", "--cond", "mg",
               "--format", "csv") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][0] == "index" and len(rows) == 2


def test_matrix_level_check(tmp_path):
    out = tmp_path / "r.json"
    assert run("check", "--family", "sigma-matrix:2", "--cond", "mg",
               "--flavor", "r", "--grid", "1,2,4,16,256",
               "--horizon", "128", "--out", out) == 0
    rec = json.loads(out.read_bytes())["records"][0]
    assert rec["statuses"] == ["Holds"] * 5


def test_matrix_element_check():
    assert run("check", "--family", "sigma-matrix:2", "--params", "c=2",
               "--cond", "lc") == 0


def test_gamma_lb_over_alphas(tmp_path):
    out = tmp_path / "r.json"
    assert run("check", "--family", "ptt-matrix",
               "--params", "c=1,tau=1,sigma=2",
               "--cond", "gamma-lb", "--alphas", "1,5,20",
               "--out", out) == 0
    rec = json.loads(out.read_bytes())["records"][0]
    assert rec["statuses"] == ["Holds", "Holds", "Holds"]


def test_omega_csv_export(tmp_path):
    path = tmp_path / "om.csv"
    assert run("omega", "--family", "gevrey:1", "--t-grid", "1:1e6:50",
               "--csv", path) == 0
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["t", "omega", "attained_at"]
    assert len(rows) == 51  # header + one row per grid point
    t = float(rows[-1][0])
    j = int(rows[-1][2])
    assert t == pytest.approx(1e6, rel=1e-9)
    # the default index cap must reach the maximizer near j = t
    assert j == 999999
    want = j * math.log(t) - math.lgamma(j + 1)
    assert float(rows[-1][1]) == pytest.approx(want, rel=1e-12)


def test_compare_matrix_element_spec():
    assert run("compare", "--left", "ptt-matrix:1:2:1", "--right", "ptt:1:2",
               "--rel", "approx") == 0


def test_classify_from_csv(tmp_path, bounds_csv):
    out = tmp_path / "r.json"
    assert run("classify", "--bounds", bounds_csv,
               "--matrix", "ptt-matrix:1:2", "--out", out) == 1
    rec = json.loads(out.read_bytes())["records"][0]
    assert rec["statuses"] == ["Holds", "Fails"]
    assert rec["roumieu"]["witness"] == [0.5, 4.0]
    assert rec["beurling"]["witness"] == [0.0625, 0.5]
    # an explicit exponent spec matching the matrix changes nothing
    out2 = tmp_path / "r2.json"
    assert run("classify", "--bounds", bounds_csv,
               "--matrix", "ptt-matrix:1:2", "--phi", "power:2",
               "--out", out2) == 1
    assert (json.loads(out2.read_bytes())["records"][0]["statuses"]
            == ["Holds", "Fails"])


@pytest.mark.parametrize("name, text", [
    ("no-bounds-key.json", '{"label": "probe"}'),
    ("number.json", "3.5"),
    ("fractional-order.csv", "j,log_bound\n0,0.0\n1.5,1.0\n"),
    ("null-bound.json", "[0.0, null]"),
    ("cut-short.json", "[0.0, 1.0"),
    # a string or an object under "bounds" is not a list of bounds
    ("string-bounds.json", '{"bounds": "12"}'),
    ("object-bounds.json", '{"bounds": {"1": 0}}'),
])
def test_malformed_bounds_file_exits_two(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert run("classify", "--bounds", path, "--matrix", "ptt-matrix:1:2") == 2
    err = capsys.readouterr().err
    assert err.startswith("wcalc: path: ") and str(path) in err


# (argv, text the error names): each call exits 0 when the part that does
# not apply is ignored, and must instead be a usage error naming it
INAPPLICABLE = {
    "flavor-on-seq": (("check", "--family", "gevrey:1", "--cond", "lc",
                       "--flavor", "b"), "--flavor"),
    "flavor-on-element": (("check", "--family", "ptt-matrix:1:2:2",
                           "--cond", "lc", "--flavor", "r"), "--flavor"),
    "alphas-on-seq": (("check", "--family", "gevrey:1", "--cond", "lc",
                       "--alphas", "1,2"), "--alphas"),
    "alphas-on-matrix": (("check", "--family", "sigma-matrix:2", "--cond", "mg",
                          "--grid", "1,2,4,16,256", "--horizon", "64",
                          "--alphas", "1"), "--alphas"),
    "grid-on-seq": (("check", "--family", "gevrey:1", "--cond", "lc",
                     "--grid", "1,2"), "--grid"),
    "c-max-on-preceq": (("compare", "--left", "gevrey:0.5", "--right",
                         "gevrey:1", "--rel", "preceq", "--c-max", "9"),
                        "--c-max"),
    "params-key": (("check", "--family", "gevrey:1", "--params", "tau=3",
                    "--cond", "lc"), "'tau'"),
    "params-c-on-seq": (("check", "--family", "gevrey:1", "--params", "c=2",
                         "--cond", "lc"), "'c'"),
    "right-params-key": (("compare", "--left", "gevrey:0.5", "--right",
                          "gevrey:1", "--right-params", "bogus=1",
                          "--rel", "preceq"), "'bogus'"),
    "parts-on-seq": (("check", "--family", "gevrey:1:7:8", "--cond", "lc"),
                     "gevrey:1:7:8"),
    "parts-on-matrix": (("check", "--family", "ptt-matrix:1:2:2:5",
                         "--cond", "lc"), "ptt-matrix:1:2:2:5"),
    "parts-on-phi": (("classify", "--bounds", "gevrey.csv",
                      "--matrix", "ptt-matrix:1:2", "--phi", "power:2:9"),
                     "power:2:9"),
}


@pytest.mark.parametrize("name", sorted(INAPPLICABLE))
def test_inapplicable_option_is_usage_error(name, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    b = synthetic_bounds(gevrey(1.0), 64)
    with open("gevrey.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "log_bound"])
        for j, v in enumerate(b.bounds):
            w.writerow([j, repr(v)])
    argv, named = INAPPLICABLE[name]
    assert run(*argv) == 2
    assert named in capsys.readouterr().err


def test_grid_with_element_index_allowed():
    assert run("check", "--family", "ptt-matrix:1:2:2", "--grid", "1,2,4",
               "--cond", "lc") == 0


def test_installed_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "run", str(SMOKE),
         "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    jsonschema.validate(json.loads(out.read_bytes()), SCHEMA)


# The child records the modules its interpreter loaded before the import, so
# a site that preloads some of them cannot fail the test.
_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import wcalc, wcalc.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses, with inspect, loads in about 14 ms, and each dataclass
    # takes about 1 ms to build, at every start of the CLI; typing takes
    # about 9 ms more than the re it imports.  -S keeps a site .pth that
    # preloads typing from hiding an import of it.
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _IMPORT_PROBE,
                           str(ROOT / "src")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "wcalc.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}


# sha256 of `--format json` stdout, with the exit code, then its status
# digest, for one call of each subcommand shape: these pin CLI report bytes
# and verdicts across commits the way GOLDEN_SHA256 pins `wcalc run`.
# Recorded with CPython 3.11 on Linux x86-64.  The classify query text
# embeds the bounds path, so those calls run from tmp_path with a relative
# file name.  compare-numeric-ratio is Undetermined: omega_M / omega_N of
# gevrey(1) against gevrey(1.5) rises from 26 to 67 over the grid's tail.
CLI_GOLDEN_SHA256 = {
    "check-seq": (
        ("check", "--family", "ptt:1:2", "--cond", "dc", "--horizon", "128"),
        1, "bdbc2be97ea135638c6dd7d33b36c51562eba8467ab42ec24c639c11d313c8b6",
        "baae39164f7d494132d155b0d3451e802bfb5373ae936fe608b0aa464f437bda"),
    "check-element": (
        ("check", "--family", "ptt-matrix:1:2:2", "--cond", "lc",
         "--horizon", "128"),
        0, "1fd55a9d2f969af0394b5661330a93115d74fd41447dd25190788f870f4febac",
        "3fd51c06366eff0951477f0d24efa735558d7471d3f8eefb3379a3a2c604f867"),
    "check-matrix": (
        ("check", "--family", "sigma-matrix:2", "--cond", "mg", "--flavor", "r",
         "--grid", "1,2,4,16,256", "--horizon", "128"),
        0, "04b28810314dcd4d8d86939e64cc164c4b86bd7a55b1a51dcafbffbc1200b086",
        "24cbc2367ec4aa44a3f0d87c80137131465b2c63674f5cf17319177d5c705aeb"),
    "check-gamma-lb": (
        ("check", "--family", "ptt-matrix", "--params", "c=1,tau=1,sigma=2",
         "--cond", "gamma-lb", "--alphas", "1,5,20", "--horizon", "128"),
        0, "f2c8d32025ae62144ab403a83c2e57b475548e6ad49a029af9aa9fabf13665d0",
        "fee49b3d74800a6651bde5ba1d888af5b907050c68b8fa446ce9b974112f5f0d"),
    "compare-preceq": (
        ("compare", "--left", "gevrey:0.5", "--right", "gevrey:1",
         "--rel", "preceq", "--horizon", "128"),
        0, "da051f768ce6dbaa1b2506f960db19560a0cd113ddc82275a31c59263d92c3f4",
        "3e6488e6a2901fa2263a808181253ff34aa42d4174e485939f4168af7404fe45"),
    "compare-bigO": (
        ("compare", "--left", "gevrey:1", "--right", "gevrey:2",
         "--rel", "bigO", "--horizon", "64"),
        1, "0e3e5fb3ccc9579ed98a1ed7d85315393237abef424bcc476e0bc337774e7c00",
        "7c9fd144845981b2a93e7435113c7a3883ef3af50a43801f6bf310f445bfb43b"),
    "compare-numeric-ratio": (
        ("compare", "--left", "gevrey:1", "--right", "gevrey:1.5",
         "--rel", "numeric-ratio", "--horizon", "128"),
        1, "b51a887286589935d658065a6c1f6275255a03c4d8e49720897f3804a90aa995",
        "7156958919e37eeb8a32ad9f538d2262ed5948c4c8c8acd4cee9405872a2764f"),
    "classify": (
        ("classify", "--bounds", "bounds.csv", "--matrix", "ptt-matrix:1:2"),
        1, "217316f5851aa4133f529ddf18f12383e5dcb4111b0463fbd35980d5a34bc25e",
        "17f72661786f7062a4576e99be8107464883c50d2e1cb349d27b858815c38ea1"),
    "classify-phi": (
        ("classify", "--bounds", "bounds.csv", "--matrix", "ptt-matrix:1:2",
         "--phi", "power:2"),
        1, "217316f5851aa4133f529ddf18f12383e5dcb4111b0463fbd35980d5a34bc25e",
        "17f72661786f7062a4576e99be8107464883c50d2e1cb349d27b858815c38ea1"),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN_SHA256))
def test_cli_golden_digest(name, bounds_csv, monkeypatch, capsys):
    monkeypatch.delenv("WCALC_HORIZON", raising=False)
    monkeypatch.chdir(bounds_csv.parent)
    argv, code, digest, statuses = CLI_GOLDEN_SHA256[name]
    got_code = run(*argv, "--format", "json")
    data = capsys.readouterr().out.encode()
    assert (got_code, status_digest(data)) == (code, statuses)
    assert hashlib.sha256(data).hexdigest() == digest


def test_trailing_element_index_selects_element(tmp_path, capsys):
    # a trailing :C and c= in --params name the same element, also when
    # --cond is a matrix condition
    argv = ("check", "--cond", "mg", "--horizon", "32", "--format", "json")
    code = run(*argv, "--family", "ptt-matrix:1:2:3")
    by_colon = capsys.readouterr().out
    assert run(*argv, "--family", "ptt-matrix:1:2", "--params", "c=3") == code
    assert capsys.readouterr().out == by_colon
    rec = json.loads(by_colon)["records"][0]
    assert rec["query"] == "check mg(ptt-matrix:1:2@c=3) horizon 32;"
    assert "per_index" not in rec


@pytest.mark.parametrize("argv, spellings", [
    (("check", "--family", "gevrey:1", "--cond"), ("mg", "MG", " Mg ")),
    (("check", "--family", "sigma-matrix:2", "--grid", "1,2,4",
      "--horizon", "32", "--cond"), ("fdb", "FdB", "FDB")),
    (("compare", "--left", "gevrey:1", "--right", "gevrey:2",
      "--horizon", "64", "--rel"),
     ("bigO", "bigo", "numeric-ratio", "NUMERIC_RATIO")),
])
def test_op_spelling_is_case_insensitive(argv, spellings, capsys):
    outs = set()
    for op in spellings:
        run(*argv, op, "--format", "json")
        outs.add(capsys.readouterr().out)
    # one report per operation named, whatever its spelling
    assert len(outs) == len({o.lower().replace("-", "_").strip()
                             for o in spellings})


def test_cli_record_matches_script_record(tmp_path, monkeypatch):
    # the CLI answers through the script query runners: apart from the
    # query text and the script's kind/op keys, the records are equal
    monkeypatch.delenv("WCALC_HORIZON", raising=False)
    script = tmp_path / "q.wsq"
    script.write_text(
        "seq g = gevrey(s=1);\n"
        "seq p = ptt(tau=1, sigma=2);\n"
        "matrix sm = sigma_matrix(sigma=2, grid=[1, 2, 4, 16, 256]);\n"
        "check dc(p) horizon 128;\n"
        "check gamma_lb(g, [1, 5]) horizon 128;\n"
        "mcheck mg(sm) horizon 128 flavor b;\n"
        "compare bigO(g, p, 2) horizon 64;\n")
    out = tmp_path / "r.json"
    run("run", script, "--out", out)
    want = [{k: v for k, v in r.items() if k not in ("query", "kind", "op")}
            for r in json.loads(out.read_bytes())["records"]]
    calls = [
        ("check", "--family", "ptt:1:2", "--cond", "dc", "--horizon", "128"),
        ("check", "--family", "gevrey:1", "--cond", "gamma-lb",
         "--alphas", "1,5", "--horizon", "128"),
        ("check", "--family", "sigma-matrix:2", "--grid", "1,2,4,16,256",
         "--cond", "mg", "--flavor", "b", "--horizon", "128"),
        ("compare", "--left", "gevrey:1", "--right", "ptt:1:2", "--rel", "bigO",
         "--c-max", "2", "--horizon", "64"),
    ]
    got = []
    for argv in calls:
        run(*argv, "--out", out)
        rec = json.loads(out.read_bytes())["records"][0]
        del rec["query"]
        got.append(rec)
    assert got == want


# usage errors from family resolution: exact stderr, exit 2
_PHI = ("classify", "--bounds", "bounds.csv", "--matrix", "ptt-matrix:1:2",
        "--phi")
USAGE_MESSAGES = [
    (("check", "--family", "weird:1", "--cond", "lc"),
     "unknown family 'weird'; expected one of "
     "('gevrey', 'ptt', 'ptt-matrix', 'sigma-matrix')"),
    (_PHI + ("gevrey:1",),
     "unknown family 'gevrey'; expected one of ('linear', 'power')"),
    (("check", "--family", "gevrey:1:7:8", "--cond", "lc"),
     "'gevrey:1:7:8' has more colon parts than 'gevrey' takes (gevrey:s)"),
    (("check", "--family", "ptt-matrix:1:2:2:5", "--cond", "lc"),
     "'ptt-matrix:1:2:2:5' has more colon parts than 'ptt-matrix' takes "
     "(ptt-matrix:tau:sigma:c)"),
    (_PHI + ("power:2:9",),
     "'power:2:9' has more colon parts than 'power' takes (power:sigma)"),
    (("check", "--family", "gevrey:1", "--params", "tau=3", "--cond", "lc"),
     "parameter 'tau' does not apply to family 'gevrey'; it takes ('s',)"),
    (("check", "--family", "ptt-matrix:1:2", "--params", "s=3",
      "--cond", "lc"),
     "parameter 's' does not apply to family 'ptt-matrix'; "
     "it takes ('tau', 'sigma', 'c')"),
    (("check", "--family", "ptt:1", "--cond", "lc"),
     "family 'ptt' needs parameter 'sigma'"),
    (("check", "--family", "ptt-matrix", "--params", "tau=1", "--cond", "lc"),
     "family 'ptt-matrix' needs parameter 'sigma'"),
    (_PHI + ("power",), "family 'power' needs parameter 'sigma'"),
    (("check", "--family", "gevrey:1", "--cond", "lc", "--grid", "1,2"),
     "--grid applies only to matrix families, got 'gevrey'"),
    (("check", "--family", "ptt-matrix:1:2", "--cond", "lc"),
     "matrix family 'ptt-matrix:1:2' needs an element index "
     "(c= in --params or a trailing :C)"),
    (("compare", "--left", "sigma-matrix:2", "--right", "gevrey:1",
      "--rel", "preceq"),
     "matrix family 'sigma-matrix:2' needs an element index "
     "(c= in --params or a trailing :C)"),
    (("check", "--family", "gevrey:x", "--cond", "lc"),
     "bad numeric parameter 'x' in 'gevrey:x'"),
]


@pytest.mark.parametrize("argv, message", USAGE_MESSAGES)
def test_usage_messages(argv, message, bounds_csv, monkeypatch, capsys):
    monkeypatch.chdir(bounds_csv.parent)
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"wcalc: {message}\n"


# usage errors of option values and of --cond: exact stderr, exit 2
OPTION_MESSAGES = [
    (("check", "--family", "gevrey:1", "--params", "s=x", "--cond", "lc"),
     "--params value for 's' is not a number: 'x'"),
    (("check", "--family", "sigma-matrix:2", "--grid", "1,x", "--cond", "mg"),
     "--grid must be a comma-separated number list, got '1,x'"),
    (("check", "--family", "gevrey:1", "--cond", "bogus"),
     "unknown condition 'bogus'"),
    (("check", "--family", "gevrey:1", "--cond", "gamma-lb"),
     "--cond gamma-lb needs --alphas"),
]


@pytest.mark.parametrize("argv, message", OPTION_MESSAGES)
def test_option_value_messages(argv, message, capsys):
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"wcalc: {message}\n"


def test_empty_params_entries_are_skipped(capsys):
    base = ("check", "--family", "gevrey", "--cond", "lc", "--format", "json")
    assert run(*base, "--params", "s=1") == 0
    want = capsys.readouterr().out
    assert run(*base, "--params", " ,s=1,,") == 0
    assert capsys.readouterr().out == want
