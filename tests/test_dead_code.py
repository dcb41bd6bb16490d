"""Every module-level private name in the package has a reader, and so
do every parameter of a private function and every name a module imports.
Every public function and method, and every parameter of one, has a reader
in the package (in the benchmark too, for a function), or a reason on an
allowlist."""

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


def unread_parameters(src: Path) -> list:
    """`module.function(param)` for each parameter of a non-dunder function
    in `src` that the function's body never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
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


def _is_private(hit: str) -> bool:
    return hit.split(".", 1)[1].startswith("_")


def test_no_unread_private_parameters():
    assert [h for h in unread_parameters(SRC) if _is_private(h)] == []


# Parameters of public functions that the body never reads, each kept on
# purpose.
UNREAD_PARAMETER_ALLOWED = {
    "engine.realize_cut_group(basis)":
        "keeps realize_cut_field's signature, which reads it; realize_type "
        "calls either with the same arguments",
    "engine.realize_cut_group(budgets)":
        "keeps realize_cut_field's signature, which reads it; realize_type "
        "calls either with the same arguments",
}


def test_no_unread_public_parameters():
    """A public function's unread parameter is deleted or listed above with
    its reason; a listed parameter that gains a reader leaves the list."""
    assert sorted(h for h in unread_parameters(SRC)
                  if not _is_private(h)) == sorted(UNREAD_PARAMETER_ALLOWED)


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


BENCH = Path(__file__).resolve().parent.parent / "bench"

# Public names that nothing in src/ or bench/ reads, each kept on purpose.
UNREAD_PUBLIC_ALLOWED = {
    "engine.CutOracle.check_monotone":
        "the oracle's monotonicity self-check; the engine tests call it",
    "engine.completed_partial_type":
        "the completed type as a PartialType, a public helper the engine "
        "tests call",
    "engine.sequence_is_computable_in":
        "wraps a generator of a real as a type emission; the engine tests "
        "call it",
    "formulas.formula_index":
        "the inverse of enumerate_formulas, a public helper the tests call",
    "scalars.set_default_precision":
        "sets the oracle comparison budget for library callers; the scalar "
        "tests call it",
    "scalars.get_default_precision":
        "reads the oracle comparison budget; the scalar tests call it",
    "scalars.creal_approx":
        "an OracleReal's interval at a precision, a public helper the "
        "scalar tests call",
    "scalars.oracle_rational":
        "an OracleReal constructor; the scalar and tree tests call it",
    "scalars.oracle_algebraic":
        "an OracleReal constructor; the scalar tests call it",
    "scalars.oracle_bits":
        "an OracleReal constructor; the scalar, series and engine tests "
        "call it",
    "trees.deinterleave":
        "the inverse of the trees' join, a public helper the tree tests call",
    "valbasis.PseudoSequence.generated":
        "a PseudoSequence from a term generator; the valuation tests call it",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public module-level function and of
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def unread_public_names(src: Path, bench: Path) -> list:
    """`module.name` for each public function or method in `src` whose name
    nothing in `src` or `bench` reads: as a name, an attribute, an import
    (the package's re-exports count) or a string, such as the tracer's
    wrapped names."""
    paths = sorted(src.glob("*.py")) + sorted(bench.glob("*.py"))
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        used.update(_references(tree))
        used.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return [f"{path.stem}.{qual}" for path in sorted(src.glob("*.py"))
            for qual, name in _public_definitions(ast.parse(path.read_text()))
            if not name.startswith("_") and name not in used]


def test_no_unread_public_names():
    """A public name with no reader outside tests/ is deleted or listed
    above with its reason; a listed name that gains a reader leaves the
    list."""
    assert sorted(unread_public_names(SRC, BENCH)) == \
        sorted(UNREAD_PUBLIC_ALLOWED)
