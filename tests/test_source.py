import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permutree_lab"


def test_no_bare_asserts():
    """Library invariants raise explicitly, so `python -O` keeps them."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
