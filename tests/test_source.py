"""Source-level rules for the library modules."""

import ast
import importlib
from pathlib import Path

import numpy as np

import spinlab


def test_library_has_no_assert_statements():
    # python -O strips asserts, so runtime invariants must raise explicitly
    found = []
    for path in sorted(Path(spinlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def _library_trees():
    for path in sorted(Path(spinlab.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _calls_by_function(tree):
    """(enclosing function name or None, call node) for every call in a module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield owner, child
                yield from walk(child, owner)
    yield from walk(tree, None)


def test_np_errstate_is_called_only_inside_the_float_range_helper():
    # one owner for arithmetic that leaves the float range: every other site
    # goes through evolution._float_range
    found = [(name, owner, call.lineno) for name, tree in _library_trees()
             for owner, call in _calls_by_function(tree)
             if isinstance(call.func, ast.Attribute) and call.func.attr == "errstate"]
    assert [(name, owner) for name, owner, _ in found] == [("evolution.py", "_float_range")], found


def test_no_yield_runs_under_the_float_range_flags():
    # a yield inside the block would run the caller's code under its raising flags
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.With) and any(
                    isinstance(item.context_expr, ast.Call)
                    and getattr(item.context_expr.func, "id", None) == "_float_range"
                    for item in node.items):
                found += [f"{name}:{inner.lineno}" for stmt in node.body for inner in ast.walk(stmt)
                          if isinstance(inner, (ast.Yield, ast.YieldFrom))]
    assert not found, f"yields under _float_range: {found}"


def test_every_module_level_array_is_read_only():
    # a writable constant lets one caller change every later result (spinlab.ETA[0, 0] = -1)
    modules = [spinlab] + [importlib.import_module(f"spinlab.{path.stem}") for path in
                           sorted(Path(spinlab.__file__).parent.glob("*.py"))
                           if path.stem != "__init__"]
    arrays = {f"{module.__name__}.{attr}": value for module in modules
              for attr, value in vars(module).items() if isinstance(value, np.ndarray)}
    assert {"spinlab.minkowski.ETA", "spinlab.minkowski.ETA_DIAG", "spinlab.clifford.PAULI",
            "spinlab.spinor_core.EPS_MATRIX", "spinlab.evolution._HANKEL_COEFFS"} <= set(arrays)
    writable = sorted(name for name, value in arrays.items() if value.flags.writeable)
    assert not writable, f"writable module-level arrays: {writable}"
