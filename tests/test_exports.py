"""The package namespace: __all__ lists exactly what __init__.py imports."""

import ast
from pathlib import Path

import seqclass

INIT = Path(__file__).resolve().parents[1] / "src" / "seqclass" / "__init__.py"


def test_all_equals_the_imported_names():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(set(seqclass.__all__)) == len(seqclass.__all__)
    assert set(seqclass.__all__) == set(imported)
    for name in seqclass.__all__:
        assert hasattr(seqclass, name), name
