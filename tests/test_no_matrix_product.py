"""No module of the package takes a matrix product.

A divergence matrix sums each cell over the alphabet left to right from its
two rows (`divergence._cell_sums`), so a cell's bits do not depend on the
shape of the stack it is computed in.  A BLAS product rounds a cell by the
shape of its call, so none may come back: no ``@``, ``np.dot``,
``np.matmul``, ``np.einsum``, ``np.tensordot`` or ``np.inner``.  The one
exception is the constant-budget fixed point, `_join_fixed_point`, whose
linear solves only choose where the next step goes: its Newton step on V,
and the slope dc/ds that the multiplier search steps s by.  Both solves
live inside that one function, so it stays the only exempt one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqclass"
PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner"}
EXEMPT = {("exponents.py", "_join_fixed_point")}


def _products(node):
    """(line, what) of every matrix product inside node."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append((sub.lineno, "@"))
        elif isinstance(sub, ast.Attribute) and sub.attr in PRODUCTS:
            found.append((sub.lineno, sub.attr))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in PRODUCTS:
            found.append((sub.lineno, sub.func.id))
        elif isinstance(sub, ast.ImportFrom):
            found += [(sub.lineno, alias.name) for alias in sub.names if alias.name in PRODUCTS]
    return found


def test_no_matrix_product_outside_the_newton_step():
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (path.name, node.name) in EXEMPT:
                continue
            offending += [f"{path.name}:{line} {what}" for line, what in _products(node)]
    assert offending == []


def test_the_guard_sees_each_form():
    source = "a @ b\na @= b\nnp.dot(a, b)\nx.dot(y)\nfrom numpy import einsum\neinsum('i,i', a, b)\ninner = 3\n"
    assert sorted(_products(ast.parse(source))) == [
        (1, "@"), (2, "@"), (3, "dot"), (4, "dot"), (5, "einsum"), (6, "einsum")
    ]
    # the exempt function exists, and does take a product
    exponents = ast.parse((PACKAGE / "exponents.py").read_text(encoding="utf-8"))
    (newton,) = [n for n in exponents.body if isinstance(n, ast.FunctionDef) and n.name == "_join_fixed_point"]
    assert _products(newton)
