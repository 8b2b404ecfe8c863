"""The settable configuration, the threshold constants a report records,
and which modules may know Config."""

import ast
import inspect
import json
import pathlib

import pytest

import wcalc
from wcalc import Config, HorizonError, InvalidParameterError
from wcalc.config import OMEGA_INDEX_CAP, WINDOW_CAP

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json")
    .read_text())
PACKAGE = pathlib.Path(wcalc.__file__).parent
# the modules that settle or record the setting; the layers below them
# take a horizon as a plain argument
CONFIG_MODULES = {"__init__", "config", "dsl", "cli", "report"}


def test_config_settles_only_the_horizon():
    assert tuple(inspect.signature(Config).parameters) == ("horizon",)
    assert Config() == Config(horizon=512) != Config(horizon=64)


def test_to_dict_records_every_threshold():
    assert Config(horizon=100).to_dict() == {
        "horizon": 100,
        "stabilize_rel": 1e-3,
        "log_slope_tol": 0.25,
        "powerfit_margin": 0.1,
        "root_margin": 0.6931471805599453,
        "comparison_slack": 1e-12,
        "grid_t_min": 1.0,
        "grid_t_max": 1e8,
        "grid_points": 200,
        "fdb_horizon": 60,
        "omega_index_cap": 67108864,
        "continuation_steps": 4,
        "l_constants": [2.0, 8.0],
    }


def test_to_dict_keys_match_the_report_schema():
    keys = set(SCHEMA["properties"]["config"]["properties"])
    assert set(Config().to_dict()) == keys


def _config_mentions(tree) -> list:
    """Lines where a module imports or names Config, or names cfg."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rsplit(".", 1)[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        else:
            continue
        if {"Config", "cfg"} & set(names):
            hits.append(node.lineno)
    return hits


def test_only_the_config_modules_know_config():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in CONFIG_MODULES:
            continue
        hits = _config_mentions(ast.parse(path.read_text(), str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


def _unread_imports(tree) -> list:
    """Names a module imports and never reads; the __future__ import is
    exempt."""
    imported = [a.asname or a.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    # __init__ imports to re-export
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        unread = _unread_imports(ast.parse(path.read_text(), str(path)))
        if unread:
            found[path.name] = unread
    assert found == {}


# every entry point that takes a horizon, with its floor and the horizon
# its result ran at; need_horizon in config is the one rule they share
def _entry_points():
    g1, g2 = wcalc.gevrey(1), wcalc.gevrey(2)
    mm = wcalc.ptt_matrix(1, 2, (1.0, 2.0, 4.0))
    fam = wcalc.constant_family(wcalc.linear_exponents())
    verdict = lambda v: v.horizon  # noqa: E731
    return {
        "check_condition": (4, lambda h: wcalc.check_condition(g1, "lc", h),
                            verdict),
        "root_growth_profile": (4, lambda h: wcalc.root_growth_profile(g1, h),
                                lambda r: r["horizon"]),
        "gamma_lower_bound": (4, lambda h: wcalc.gamma_lower_bound(
            g1, [1.0], h)[1.0], verdict),
        "exponent_growth_report": (4, lambda h: wcalc.exponent_growth_report(
            wcalc.power_exponents(2), h), lambda r: r["horizon"]),
        "compare": (4, lambda h: wcalc.compare(g2, g1, "preceq", h), verdict),
        "compare_phi_constancy": (4, lambda h: wcalc.compare_phi_constancy(
            [mm.element(1.0), mm.element(2.0)], mm.phi, h), verdict),
        "check_matrix_condition": (16, lambda h: wcalc.check_matrix_condition(
            mm, wcalc.MatrixConditionId("sc"), None, h)[1.0], verdict),
        "check_exponent_family_absorption": (
            16, lambda h: wcalc.check_exponent_family_absorption(
                fam, wcalc.ROUMIEU, (1.0, 2.0, 4.0), h), verdict),
        "assoc_relation_check": (4, lambda h: wcalc.assoc_relation_check(
            g2, g1, "bigO", 1, h), verdict),
        # the window the certificate read
        "OmegaFunction.from_sequence": (
            4, lambda h: wcalc.OmegaFunction.from_sequence(wcalc.gevrey(1), h),
            lambda om: len(om._m._window) - 1),
        "regularize_slc": (4, lambda h: wcalc.regularize_slc(wcalc.gevrey(1), h),
                           lambda m: len(m.params["_base"]._window) - 1),
    }


def _rejects_bad_horizons(name, floor, call, bad=()):
    for bad in (0, -1, floor - 1, 64.5, True, "64", *bad):
        with pytest.raises(HorizonError) as err:
            call(bad)
        assert isinstance(err.value, InvalidParameterError), name
        assert err.value.field == "horizon", name


def test_every_horizon_entry_point_takes_one_rule():
    for name, (floor, call, horizon_of) in _entry_points().items():
        # a window horizon has a ceiling, checked before any term is read
        _rejects_bad_horizons(name, floor, call, (WINDOW_CAP + 1, 10**30))
        assert horizon_of(call(None)) == 512, name


def test_env_horizon_takes_the_same_rule(monkeypatch):
    for bad in ("abc", "", "64.5", "0", "15", str(WINDOW_CAP + 1)):
        monkeypatch.setenv(wcalc.ENV_HORIZON, bad)
        with pytest.raises(HorizonError):
            wcalc.default_config()
    monkeypatch.setenv(wcalc.ENV_HORIZON, "16")
    assert wcalc.default_config() == Config(horizon=16)
    monkeypatch.delenv(wcalc.ENV_HORIZON)
    assert wcalc.default_config() == Config()


def test_omega_index_cap_takes_the_same_rule():
    omega = wcalc.OmegaFunction.from_sequence(wcalc.gevrey(1), 64)
    # an explicit index cap has the default as its ceiling
    _rejects_bad_horizons("OmegaFunction.eval", 1,
                          lambda h: omega.eval(1e7, h),
                          (OMEGA_INDEX_CAP + 1, 10**30))
    _rejects_bad_horizons("young_conjugate", 1,
                          lambda h: wcalc.young_conjugate(omega, 2.5, horizon=h),
                          (OMEGA_INDEX_CAP + 1, 10**30))
    assert omega.eval(1e7, OMEGA_INDEX_CAP) == omega.eval(1e7)
    # the default caps the index search far above the check horizon
    assert omega.eval(1e7).attained_at > 512
    # the index search allocates no window, so WINDOW_CAP does not bound it
    assert omega.eval(1e5, WINDOW_CAP + 1).attained_at > 512


_CONFIG_ONLY = {"DEFAULT_HORIZON", "OMEGA_INDEX_CAP", "WINDOW_CAP"}


def _horizon_rule_copies(tree) -> list:
    """Lines where a module names a horizon default or raises HorizonError."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "HorizonError":
                hits.append(node.lineno)
            continue
        else:
            continue
        if names & _CONFIG_ONLY:
            hits.append(node.lineno)
    return hits


def test_only_config_defaults_or_rejects_a_horizon():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "config":
            continue
        hits = _horizon_rule_copies(ast.parse(path.read_text(), str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


# public names that nothing in src/wcalc calls yet; ROADMAP item 6 routes
# each through dsl.SIGNATURES or deletes it, and a name that gains a caller
# must leave the list
_UNCALLED_API = {"print_program", "table_exponents", "constant_family",
                 "regularize_slc", "synthetic_bounds"}


def _traced_names() -> set:
    """The attributes bench/tracing.py wraps, read from its TARGETS literal."""
    tracing = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"
    for node in ast.parse(tracing.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {attr for _, _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _public_definitions(tree):
    """(name, qualified name) of each public module-level function and
    class, and of each public method, property and classmethod of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f.name, f"{node.name}.{f.name}") for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("_"))


def test_every_public_definition_has_a_caller():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue  # an export is not a caller
        tree = ast.parse(path.read_text(), str(path))
        for name, qualified in _public_definitions(tree):
            defined[qualified] = (name, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    exempt = used | _traced_names() | _UNCALLED_API
    assert {q: path for q, (name, path) in sorted(defined.items())
            if name not in exempt} == {}
    assert _UNCALLED_API & used == set()
