"""The settable configuration, the threshold constants a report records,
and which modules may know Config."""

import ast
import dataclasses
import json
import pathlib

import wcalc
from wcalc import Config

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json")
    .read_text())
PACKAGE = pathlib.Path(wcalc.__file__).parent
# the modules that settle or record the settings; the layers below them
# take a horizon and a seed as plain arguments
CONFIG_MODULES = {"__init__", "config", "dsl", "cli", "report"}


def test_config_settles_only_horizon_and_seed():
    assert tuple(f.name for f in dataclasses.fields(Config)) == ("horizon", "seed")
    assert Config() == Config(horizon=512, seed=0)


def test_to_dict_records_every_threshold():
    assert Config(horizon=100, seed=3).to_dict() == {
        "horizon": 100,
        "seed": 3,
        "stabilize_rel": 1e-3,
        "log_slope_tol": 0.25,
        "powerfit_margin": 0.1,
        "root_margin": 0.6931471805599453,
        "offdiag_samples": 64,
        "comparison_slack": 1e-12,
        "grid_t_min": 1.0,
        "grid_t_max": 1e8,
        "grid_points": 200,
        "golden_iters": 40,
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
