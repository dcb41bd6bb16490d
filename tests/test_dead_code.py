"""Every module-level private name in the package has a reader, and so
do every parameter of a private function and every name a module imports.
Every public function and method, and every parameter of one, has a reader
in the package (in the benchmark too, for a function), or a reason on an
allowlist.  Every defaulted parameter has a caller that passes it (in the
benchmark too, for a public one), or a reason on an allowlist."""

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


def unpassed_defaults(src: Path, callers: list, private: bool) -> list:
    """`module.function(param)` for each defaulted parameter of a
    non-dunder function in `src`, private or public as `private` says, that
    no call in the files `callers` passes: a default that no caller changes
    is a constant.  Calls are matched by the function's name alone."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    passed: dict = {}  # function name -> (most positionals, keywords)
    for path in callers:
        for call in ast.walk(ast.parse(path.read_text())):
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
                    or node.name.startswith("_") != private \
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
    assert unpassed_defaults(SRC, sorted(SRC.glob("*.py")), True) == []


BENCH = Path(__file__).resolve().parent.parent / "bench"

# Defaulted parameters of public functions that no call in src/ or bench/
# passes, each kept on purpose.
UNPASSED_DEFAULT_ALLOWED = {
    "cli.main(argv)":
        "None reads sys.argv, as the console script calls it; the benchmark "
        "passes argv through _attempt and the CLI tests pass it",
    "formulas.cut_bounds(var)":
        "cut_bounds stays only for the tracer's per-layer metric and goes "
        "whole once that metric is retargeted",
    "formulas.cut_bounds(dim)":
        "cut_bounds stays only for the tracer's per-layer metric and goes "
        "whole once that metric is retargeted",
    "formulas.satisfiable(world_cap)":
        "the scan's cap on worlds; the formula tests pass it to reach "
        "BudgetExhausted",
    "formulas.satisfiable(dim)":
        "the dimension of literals when env holds no series, as AtomTable "
        "reads it; every caller so far works in dimension 2",
    "formulas.conjoin(var)":
        "conjoin is a test helper (UNREAD_PUBLIC_ALLOWED) that keeps "
        "satisfiable's model parameters",
    "formulas.conjoin(dim)":
        "conjoin is a test helper (UNREAD_PUBLIC_ALLOWED) that keeps "
        "satisfiable's model parameters",
    "scalars.oracle_bits(name)":
        "the oracle's printed name; the scalar tests pass it",
}


def test_no_unpassed_public_defaults():
    """A public function's default that no caller in src/ or bench/ changes
    is deleted or listed above with its reason; a listed parameter that
    gains a caller leaves the list."""
    callers = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert sorted(unpassed_defaults(SRC, callers, False)) == \
        sorted(UNPASSED_DEFAULT_ALLOWED)

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
    "formulas.conjoin":
        "AtomTable.conjoin for one formula in a fresh model, a public helper "
        "the formula and engine tests call",
    "scalars.creal_approx":
        "an OracleReal's interval at a precision, a public helper the "
        "scalar tests call",
    "scalars.oracle_rational":
        "an OracleReal constructor; the scalar and tree tests call it",
    "scalars.oracle_algebraic":
        "an OracleReal constructor; the scalar tests call it",
    "series.residue":
        "the coefficient at exponent zero, a public helper the series tests "
        "call",
    "scalars.oracle_bits":
        "an OracleReal constructor; the scalar, series and engine tests "
        "call it",
    "trees.deinterleave":
        "the inverse of the trees' join, a public helper the tree tests call",
    "trees.join":
        "interleaves two reals' binary expansions, a public helper the tree "
        "tests call",
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


def _module_readers(tree: ast.Module, stem: str):
    """(module, name) of each module-qualified read in the module `stem`:
    an import from a module, `module.name`, a bare name (of `stem` itself)
    and a pair of strings, such as the tracer's (module, function)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.rsplit(".", 1)[-1]
            yield from ((mod, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.Name):
            yield stem, node.id
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts[:2]):
            yield node.elts[0].value, node.elts[1].value


def unread_public_names(src: Path, bench: Path) -> list:
    """`module.name` for each public function or method in `src` that
    nothing in `src` or `bench` reads.  A method is read by any name,
    attribute, import or string that spells it; a module-level function
    only by a module-qualified read (`_module_readers`), so a same-named
    attribute of another object, such as `str.join`, does not count."""
    paths = sorted(src.glob("*.py")) + sorted(bench.glob("*.py"))
    used, qualified = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        used.update(_references(tree))
        used.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
        qualified.update(_module_readers(tree, path.stem))
    return [f"{path.stem}.{qual}" for path in sorted(src.glob("*.py"))
            for qual, name in _public_definitions(ast.parse(path.read_text()))
            if not name.startswith("_")
            and ((path.stem, name) not in qualified if qual == name
                 else name not in used)]


def test_no_unread_public_names():
    """A public name with no reader outside tests/ is deleted or listed
    above with its reason; a listed name that gains a reader leaves the
    list."""
    assert sorted(unread_public_names(SRC, BENCH)) == \
        sorted(UNREAD_PUBLIC_ALLOWED)


def test_a_same_named_attribute_is_no_reader(tmp_path):
    """A public module-level function read only as another object's
    attribute, here `str.join`, has no reader; one imported from its
    module, read as `module.name` or named in its own module has one."""
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "trees.py").write_text(
        "def join(a, b):\n    return a + b\n\n\n"
        "def spell(parts):\n    return ''.join(parts)\n")
    assert unread_public_names(src, bench) == ["trees.join", "trees.spell"]
    for reader in ("from pkg.trees import join\n",
                   "from pkg import trees\ntrees.join(1, 2)\n",
                   "STAGES = (('trees', 'join'),)\n"):
        (bench / "run.py").write_text(reader)
        assert unread_public_names(src, bench) == ["trees.spell"]
    (bench / "run.py").unlink()
    (src / "trees.py").write_text(
        "def join(a, b):\n    return a + b\n\n\n"
        "def spell(parts):\n    return join(*parts)\n")
    assert unread_public_names(src, bench) == ["trees.spell"]
