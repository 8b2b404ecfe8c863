"""The per-layer tracer in bench/tracing.py wraps wcalc names from outside
src/; a renamed or deleted name would crash only traced benchmark runs, so
every target is checked to resolve here."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def _targets():
    # read the literal, not the module, so nothing is imported or cached
    # from bench/
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_traced_names_resolve():
    missing = []
    for _, owner, attr, _ in _targets():
        mod_name, _, cls_name = owner.partition(":")
        mod = importlib.import_module(mod_name)
        if cls_name:
            # the tracer reads methods from the class __dict__
            found = attr in vars(getattr(mod, cls_name))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append((owner, attr))
    assert not missing
