"""Batch front end: realize types from type files, run quantifier
elimination, extract valuation bases, take pseudo-limits, query interval
codings of tree nodes, and re-verify witnesses.

Type files are UTF-8 text, one construct per line:

    # comment
    param <name> = <series literal>
    formula <formula text>
    generator <builtin> <args...>

Built-in generators: `beta <upper> <lower>` (the family (k+1)*lower < x,
(k+1)*x < upper), `scalar_cut <scalar> <param>` (binary approximants of the
scalar, scaled by the parameter), and `immediate-tail` (the strictly
narrowing tail 1 + t^(1/2) + t^(2/3) + ...).  Explicit formula lines are
emitted before generator output, in file order.
"""

import argparse
import math
import re
import sys
from contextlib import contextmanager

from .engine import (
    Budgets,
    realize_type,
    render_inconclusive_report,
)
from .errors import (
    BudgetExhausted,
    NonlinearUnsupported,
    NotFinitelySatisfiable,
    ParseError,
)
from .formulas import Exists, PartialType, _Tokens, _binder_spans, \
    _binders, _first_free, _first_nonlinear, doag_qe, eval_formula, \
    format_formula, free_symbols, parse_formula
from .scalars import approx_interval, parse_rational, parse_scalar
from .series import _top_level, format_series, parse_series
from .trees import find_path_bounded, node_interval, path_from_real, \
    tree_from_notation
from .valbasis import PseudoSequence, check_pseudo_cauchy, pseudo_limit, \
    valuation_basis

TYPE_VAR = "x"


# ---------------------------------------------------------------------------
# type files


def _alternating(lower, upper):
    """The emission whose i-th formula is lower(k) at even i and upper(k) at
    odd i, with k = i // 2; both return formula text."""
    return lambda i: parse_formula((upper if i % 2 else lower)(i // 2))


def _beta_generator(upper: str, lower: str):
    return _alternating(lambda k: f"{k + 1}*{lower} < {TYPE_VAR}",
                        lambda k: f"{k + 1}*{TYPE_VAR} < {upper}")


def _scalar_cut_generator(literal: str, param: str):
    scalar = parse_scalar(literal)

    def flank(k, end):
        return math.floor(approx_interval(scalar, k + 2)[end] * 2 ** k)

    return _alternating(
        lambda k: f"{flank(k, 0)}*{param} < {2 ** k}*{TYPE_VAR}",
        lambda k: f"{2 ** k}*{TYPE_VAR} < {flank(k, 1) + 1}*{param}")


def _immediate_tail_generator():
    # pair k (from 0) brackets x by a_k and a_k + 2*t^((k+1)/(k+2))
    def a_text(k):
        return " + ".join(["1"] + [f"t^({j}/{j + 1})"
                                   for j in range(1, k + 1)])

    return _alternating(
        lambda k: f"{a_text(k)} < {TYPE_VAR}",
        lambda k: f"{TYPE_VAR} < {a_text(k)} + 2*t^({k + 1}/{k + 2})")


def _build_generator(fields: list, params: dict):
    """The generator named by a `generator` line's (token, column) fields
    after the keyword; errors point at the offending token."""
    (name, name_col), args = fields[0], fields[1:]
    if name == "beta":
        if len(args) != 2:
            raise ParseError("generator beta needs: <upper> <lower>",
                             name_col)
        for p, col in args:
            if p not in params:
                raise ParseError(f"generator references unknown param {p!r}",
                                 col)
        return _beta_generator(args[0][0], args[1][0])
    if name == "scalar_cut":
        if len(args) != 2:
            raise ParseError("generator scalar_cut needs: <scalar> <param>",
                             name_col)
        (literal, literal_col), (p, col) = args
        if p not in params:
            raise ParseError(
                f"generator references unknown param {p!r}", col)
        with _columns_from(literal_col - 1):
            return _scalar_cut_generator(literal, p)
    if name == "immediate-tail":
        if args:
            raise ParseError("generator immediate-tail takes no arguments",
                             args[0][1])
        return _immediate_tail_generator()
    raise ParseError(f"unknown generator {name!r}", name_col)


def _param_name(name: str, params: dict) -> str:
    """`name` if a param line may declare it: one identifier token, neither a
    keyword nor t nor the type variable, and not declared yet; otherwise a
    ParseError at column 1."""
    try:
        kinds = [kind for kind, _, _ in _Tokens(name).toks]
    except ParseError:
        kinds = []
    if kinds not in (["ident"], ["kw"], ["t"]):
        raise ParseError(f"bad param name {name!r}", 1)
    if kinds != ["ident"] or name == TYPE_VAR:
        raise ParseError(f"param name {name!r} is reserved", 1)
    if name in params:
        raise ParseError(f"param {name!r} is declared twice", 1)
    return name


@contextmanager
def _columns_from(offset: int):
    """Shift a ParseError raised inside by `offset` columns: the text it
    parsed starts that far into the line."""
    try:
        yield
    except ParseError as e:
        raise ParseError(e.message, e.column + offset) from None


def load_type_file(path: str, dim: int):
    """Parse a type file into (PartialType, parameter environment).  A
    formula line naming an undeclared symbol, or with an atom that is not
    linear in the type variable or in a variable that binds it, is a
    located ParseError."""
    params: dict = {}
    formulas: list = []
    generator = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # columns count in the raw line, its indentation included
            indent = len(raw) - len(raw.lstrip())
            try:
                if line.startswith("param "):
                    body = line[len("param "):]
                    if "=" not in body:
                        raise ParseError("param line needs '='",
                                         indent + len("param ") + 1)
                    name, text = body.split("=", 1)
                    with _columns_from(indent + len("param ") + len(name)
                                       - len(name.lstrip())):
                        name = _param_name(name.strip(), params)
                    text = text.strip()  # a suffix of line
                    with _columns_from(indent + len(line) - len(text)):
                        params[name] = parse_series(text, dim)
                elif line.startswith("formula "):
                    start = indent + len("formula ")
                    with _columns_from(start):
                        f = parse_formula(line[len("formula "):])
                    formulas.append((f, lineno, raw, start))
                elif line.startswith("generator "):
                    if generator is not None:
                        raise ParseError("only one generator line allowed",
                                         indent + 1)
                    fields = [(m.group(), indent + m.start() + 1)
                              for m in re.finditer(r"\S+", line)]
                    generator = _build_generator(fields[1:], params)
                else:
                    raise ParseError(f"unknown construct {line.split()[0]!r}",
                                     indent + 1)
            except ParseError as e:
                raise ParseError(f"{path}:{lineno}: {e.message}",
                                 e.column) from None
    if not formulas and generator is None:
        raise ParseError(f"{path}: no formulas and no generator", 1)
    # a param line may follow the formula that names it
    known = set(params) | {TYPE_VAR}
    for f, lineno, raw, start in formulas:
        unknown = free_symbols(f) - known
        if unknown:
            name, col = _first_free(raw[start:], unknown)
            raise ParseError(f"{path}:{lineno}: unknown symbol {name!r}",
                             start + col)
        for var, scope in ((TYPE_VAR, f), *_binders(f)):
            nonlinear = _first_nonlinear(scope, raw[start:], var)
            if nonlinear:
                mono, col = nonlinear
                raise ParseError(f"{path}:{lineno}: atom is not linear in "
                                 f"{var}: {mono}", start + col)

    head = [f for f, *_ in formulas]

    def emit(i):
        if i < len(head):
            return head[i]
        if generator is None:
            return None
        return generator(i - len(head))

    return PartialType(emit, TYPE_VAR, tuple(params)), params


# ---------------------------------------------------------------------------
# commands


def _emit_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budgets(args) -> Budgets:
    return Budgets(height_budget=args.height,
                   exponent_denominator_budget=args.denom,
                   formula_prefix_budget=args.prefix,
                   precision_budget=args.precision)


def cmd_realize(args) -> int:
    budgets = _budgets(args)
    tau, params = load_type_file(args.file, args.dim)
    try:
        result = realize_type(tau, params, mode=args.mode, budgets=budgets,
                              dim=args.dim)
    except NotFinitelySatisfiable as e:
        lines = ["== NOT FINITELY SATISFIABLE =="]
        lines.extend(e.witness or (str(e),))
        _emit_output("\n".join(lines) + "\n", args.out)
        return 2
    except BudgetExhausted as e:
        _emit_output(render_inconclusive_report(e, args.mode, budgets),
                     args.out)
        return 3
    _emit_output(result.report, args.out)
    return 0


def cmd_qe(args) -> int:
    f = parse_formula(args.formula)
    try:
        qf = doag_qe(f)
    except NonlinearUnsupported:
        # placed in the binder whose own elimination raised: doag_qe
        # eliminates each binder as its scope closes, so the first one, by
        # the end of its scope, that does not eliminate alone
        for (start, end), (var, body) in sorted(
                zip(_binder_spans(args.formula), _binders(f)),
                key=lambda binder: binder[0][1]):
            try:
                doag_qe(Exists(var, body))
            except NonlinearUnsupported:
                break
        mono, col = _first_nonlinear(body, args.formula[start:end], var)
        raise ParseError(f"atom is not linear in {var}: {mono}",
                         start + col) from None
    _emit_output(format_formula(qf) + "\n", args.out)
    return 0


def _parse_series_list(text: str, dim: int) -> list:
    """Series literals separated by commas outside () and []; error
    columns count from the start of the argument."""
    cuts = [i for i, ch in _top_level(text) if ch == ","]
    items = []
    for a, b in zip([-1] + cuts, cuts + [len(text)]):
        with _columns_from(a + 1):
            items.append(parse_series(text[a + 1:b], dim))
    return items


def cmd_basis(args) -> int:
    basis = valuation_basis(_parse_series_list(args.series, args.dim))
    text = ", ".join(format_series(g) for g in basis.generators)
    _emit_output(text + "\n", args.out)
    return 0


def cmd_pseudo_limit(args) -> int:
    items = _parse_series_list(args.series, args.dim)
    seq = PseudoSequence.explicit(items)
    if not check_pseudo_cauchy(seq, len(items)):
        print("error: prefix is not pseudo-Cauchy", file=sys.stderr)
        return 1
    _emit_output(format_series(pseudo_limit(seq, len(items))) + "\n",
                 args.out)
    return 0


def cmd_tree(args) -> int:
    if args.tree_command == "interval":
        _emit_output(str(node_interval(args.node)) + "\n", args.out)
        return 0
    tree = tree_from_notation(args.tree)
    if args.tree_command == "path":
        path = path_from_real(tree, parse_rational(args.real), args.depth)
        _emit_output("\n".join(path[1:]) + "\n", args.out)
        return 0
    found = find_path_bounded(tree, args.depth)
    _emit_output((found if found is not None else "none") + "\n", args.out)
    return 0


def cmd_eval(args) -> int:
    prefix = Budgets(formula_prefix_budget=args.prefix).formula_prefix_budget
    tau, params = load_type_file(args.file, args.dim)
    witness = parse_series(args.at, args.dim)
    env = dict(params)
    env[tau.var] = witness
    lines = []
    for i in range(prefix):
        f = tau.emit(i)
        if f is None:
            continue
        ok = eval_formula(f, env, args.dim)
        lines.append(f"{'PASS' if ok else 'FAIL'}  {format_formula(f)}")
    _emit_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_budget_flags(p):
    defaults = Budgets()
    p.add_argument("--height", type=int,
                   default=defaults.height_budget,
                   help="comparison-enumeration generations")
    p.add_argument("--denom", type=int,
                   default=defaults.exponent_denominator_budget,
                   help="largest exponent denominator probed (field mode)")
    p.add_argument("--prefix", type=int,
                   default=defaults.formula_prefix_budget,
                   help="enumerated formulas decided per completion")
    p.add_argument("--precision", type=int,
                   default=defaults.precision_budget,
                   help="digit resolution, in bits")


def _add_common(p, budgets=False):
    p.add_argument("--dim", type=int, default=2,
                   help="exponent dimension of the series model")
    p.add_argument("--out", default=None, help="write output to a file")
    if budgets:
        _add_budget_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnsat",
        description="Exact cut classification and type realization over "
                    "finite-support Hahn series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="realize a type file")
    p.add_argument("file", help="type file")
    p.add_argument("--mode", choices=("group", "field"), default="group")
    _add_common(p, budgets=True)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("qe", help="eliminate quantifiers from a formula")
    p.add_argument("formula")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qe)

    p = sub.add_parser("basis", help="valuation basis of comma-separated "
                                     "series")
    p.add_argument("series")
    _add_common(p)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("pseudo-limit", help="pseudo-limit of a "
                                            "comma-separated prefix")
    p.add_argument("series")
    _add_common(p)
    p.set_defaults(fn=cmd_pseudo_limit)

    p = sub.add_parser("tree", help="interval coding and path search")
    tsub = p.add_subparsers(dest="tree_command", required=True)
    q = tsub.add_parser("interval", help="dyadic interval of a node")
    q.add_argument("node")
    q.add_argument("--out", default=None)
    q = tsub.add_parser("path", help="tree path of a rational real")
    q.add_argument("tree", help="full | single:<bits> | seeded:<n> | nodes")
    q.add_argument("real")
    q.add_argument("depth", type=int)
    q.add_argument("--out", default=None)
    q = tsub.add_parser("search", help="leftmost surviving node at a depth")
    q.add_argument("tree")
    q.add_argument("depth", type=int)
    q.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("eval", help="re-verify a witness against a type "
                                    "file")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="series literal to test")
    p.add_argument("--prefix", type=int, default=Budgets().formula_prefix_budget)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        if getattr(args, "dim", 1) < 1:
            raise ValueError("--dim must be positive")
        return args.fn(args)
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
