"""Every module-level function, class and constant of the package has a
reader, every dataclass field is read, and every setting is read.

A definition counts as used when its name is read somewhere other than its
own body: in a module of ``src/seqclass`` (the re-exports of ``__init__.py``
do not count) or in a demo script.  A read is a name in load context or an
attribute taken off a name imported from the package; a field or attribute
of another object that shares the name does not count.  The tests are no
reader: code that only they call lives under ``tests/``.  A dataclass field
counts as read when some module of the package or some demo reads an
attribute of its name, or when its class reads it through
``fields(self)``.  Settings come only from config keys, never from the
environment, and each key of ``cli.CONFIG_KEYS`` is read by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqclass"


def _package_names(tree):
    """The names tree binds to what it imports from the package: modules
    (``ex``, ``dv``, ...) and their members."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "seqclass"):
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "seqclass"}
    return names


def _names_read(tree, skip=None):
    """Names read in tree, except inside the definition node `skip`: a name
    loaded as an identifier, or an attribute read off a name imported from
    the package (``ex.kappa``).  A store, a field annotation or an attribute
    of any other object (``rep.kappa``) reads nothing."""
    package = _package_names(tree)
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in package
        ):
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
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        own = trees[path]
        for node in own.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            read = _names_read(own, skip=node)
            for other, tree in trees.items():
                if other != path:
                    read |= read_elsewhere.setdefault(other, _names_read(tree))
            if node.name not in read:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass":
            return True
    return False


def _types_read_through_fields(cls):
    """The annotations, as source, of the fields a comprehension in the
    class reads through fields(self): those it keeps with `f.type is T`,
    or "*" for every field when it keeps all."""
    types = set()
    for node in ast.walk(cls):
        for gen in getattr(node, "generators", ()):
            it = gen.iter
            if not (
                isinstance(it, ast.Call)
                and getattr(it.func, "id", getattr(it.func, "attr", None)) == "fields"
                and [getattr(a, "id", None) for a in it.args] == ["self"]
            ):
                continue
            kept = [c.comparators[0] for c in gen.ifs if isinstance(c, ast.Compare) and isinstance(c.ops[0], ast.Is)]
            types |= {ast.unparse(t) for t in kept} or {"*"}
    return types


def test_every_dataclass_field_is_read():
    trees = _callers()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue  # a demo defines no dataclass of the package
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            by_type = _types_read_through_fields(cls)
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if by_type & {"*", ast.unparse(node.annotation)}:
                        continue  # the class reads it through fields(self)
                    if node.target.id not in read:
                        unread.append(f"{path.name}:{cls.name}.{node.target.id}")
    assert unread == []


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_module_constant_is_read():
    # a module-level assignment counts as used when its name is read anywhere
    # but in that assignment: in its own module or in another caller
    trees = _callers()
    reads = {path: _names_read(tree) for path, tree in trees.items()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        own = trees[path]
        elsewhere = set().union(*(r for other, r in reads.items() if other != path))
        for node in own.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            read = _names_read(own, skip=node) | elsewhere
            unread += [f"{path.name}:{name}" for name in _assigned_names(node) if name not in read]
    assert unread == []


def test_no_environment_read():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "environb", "getenv", "getenvb"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def test_every_config_key_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    keys = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CONFIG_KEYS" for t in node.targets)
    )
    # a key is read as raw.get(key), raw[key] or key in raw
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args:
            read.add(_string(node.args[0]))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            read.add(_string(node.slice))
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            read.add(_string(node.left))
    assert sorted(keys - read) == []


def _parameters(node):
    a = node.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]]


def test_every_parameter_is_read():
    # a parameter its body never reads is a contract the function does not
    # keep: a search score that ignores its cutoff, say
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}:{name}" for name in _parameters(node) if name not in read]
    assert unread == []
