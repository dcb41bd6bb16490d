"""Every module-level private name in the package has a reader, and so
do every parameter of a private function and every name a module imports."""

import ast
from pathlib import Path

import hahnsat

SRC = Path(hahnsat.__file__).parent


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unreferenced_privates(src: Path) -> list:
    """`module.name` for each `_name` (not dunder) defined at module level
    in `src` that no module in `src` reads."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    return [f"{mod}.{name}" for mod, tree in trees.items()
            for name in _private_definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in used]


def test_no_unreferenced_private_names():
    assert unreferenced_privates(SRC) == []


def unread_private_parameters(src: Path) -> list:
    """`module.function(param)` for each parameter of a private, non-dunder
    function in `src` that the function's body never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not node.name.startswith("_") \
                    or node.name.startswith("__"):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out.extend(f"{path.stem}.{node.name}({p})" for p in params
                       if p not in read)
    return out


def test_no_unread_private_parameters():
    assert unread_private_parameters(SRC) == []


def unused_imports(src: Path) -> list:
    """`module.name` for each name a non-`__init__` module in `src` imports
    and never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.extend((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported.extend(a.asname or a.name for a in node.names)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend(f"{path.stem}.{name}" for name in imported
                   if name not in read)
    return out


def test_no_unused_imports():
    assert unused_imports(SRC) == []
