"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import spinlab


def test_library_has_no_assert_statements():
    # python -O strips asserts, so runtime invariants must raise explicitly
    found = []
    for path in sorted(Path(spinlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
