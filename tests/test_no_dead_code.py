"""Every module-level function and class of the package has a caller.

A definition counts as used when its name is read somewhere other than its
own body: in a module of ``src/seqclass`` (the re-exports of ``__init__.py``
do not count) or in a demo script.  Names that only the tests call are
listed below, each with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqclass"

TEST_ONLY = {
    "oracle_kappa": "independent grid oracle the solver's kappa is checked against",
    "oracle_mu": "independent grid oracle the solver's mu is checked against",
    "oracle_efix": "independent grid oracle the solver's e_fix is checked against",
    "find_mu_violation": "constructs the alpha*beta < 1 instance where mu drops below the Renyi term",
    "csv_to_rows": "reads curve.csv back, so the figure tests can compare the written values",
}


def _names_read(tree, skip=None):
    """Names read as identifiers or attributes anywhere in tree, except
    inside the definition node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _callers():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sources}


def test_every_definition_has_a_caller():
    trees = _callers()
    read_elsewhere = {}  # per module: every name it reads
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        own = trees[path]
        for node in own.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name in TEST_ONLY:
                continue
            read = _names_read(own, skip=node)
            for other, tree in trees.items():
                if other != path:
                    read |= read_elsewhere.setdefault(other, _names_read(tree))
            if node.name not in read:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
    assert set(TEST_ONLY) <= defined  # no stale allowlist entries
