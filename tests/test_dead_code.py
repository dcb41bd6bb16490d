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


def _defaulted_parameters(node) -> list:
    """(position or None, name) of each parameter of `node` that has a
    default; keyword-only parameters have no position."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out.extend((None, a.arg) for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults)
               if d is not None)
    return out


def _is_method(node, parents: dict) -> bool:
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    return isinstance(parents.get(node), ast.ClassDef) and not static


def unoverridden_private_defaults(src: Path) -> list:
    """`module.function(param)` for each defaulted parameter of a private,
    non-dunder function in `src` that no call in `src` passes: a default
    that no caller changes is a constant."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    passed: dict = {}  # function name -> (most positionals, keywords)
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n_pos, keywords = passed.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in call.args):
                n_pos = float("inf")
            n_pos = max(n_pos, len(call.args))
            keywords = keywords | {k.arg for k in call.keywords}
            passed[name] = (n_pos, keywords)
    out = []
    for mod, tree in trees.items():
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not node.name.startswith("_") \
                    or node.name.startswith("__"):
                continue
            n_pos, keywords = passed.get(node.name, (0, set()))
            if None in keywords:  # a **mapping may pass any of them
                continue
            offset = 1 if _is_method(node, parents) else 0
            out.extend(f"{mod}.{node.name}({p})"
                       for i, p in _defaulted_parameters(node)
                       if p not in keywords
                       and (i is None or i - offset >= n_pos))
    return out


def test_no_unoverridden_private_defaults():
    assert unoverridden_private_defaults(SRC) == []
