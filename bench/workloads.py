"""The benchmark's workloads: inputs made from a seed, the timed operation
on one item, and an independent check of that item's output.

Every call into hahnsat goes through a module attribute (`engine.realize_type`,
not a name imported here), so the tracer's wrappers see it.  An item's
exception is returned as its outcome and judged by `check`, never raised.
"""

import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

from hahnsat import cli, engine, errors, formulas, scalars, series, valbasis

DIM = 2


@dataclass
class Verdict:
    failed: bool  # crashed, or produced a wrong output
    decided: bool  # reached a classification (or exit 0/2)
    crashed: bool = False  # failed without producing an output
    report: Optional[str] = None  # realization report, for its counters


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # judged by check(), counted as a failure there
        return None, exc


# ---------------------------------------------------------------------------
# inputs drawn as the acceptance gates draw them (c3, c5, c8)


def random_exponent(rng, dim, span=3):
    return series.make_exp(
        [F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(dim)],
        dim)


def random_series(rng, dim, max_terms=4, span=3, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    while True:
        for _ in range(n):
            exp = random_exponent(rng, dim, span)
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            if c:
                terms[exp] = c
        if terms or allow_zero:
            return series.Series(terms, dim)
        n = max(n, 1)


def generated_type(seed):
    """Gate c8's finitely satisfiable type over <= 3 parameters."""
    rng = random.Random(seed)
    kind = rng.choice(("span", "span", "span", "gap", "residue"))
    if kind == "residue":
        g = series.monomial(random_exponent(rng, DIM), F(1), DIM)
        m = rng.randint(-2, 2)
        emissions = []
        for i in range(100):
            k = i // 2 + 1
            p = math.isqrt(2 * 4 ** k)
            if i % 2 == 0:
                text = f"{m * 2 ** k + p}*g1 < {2 ** k}*x"
            else:
                text = f"{2 ** k}*x < {m * 2 ** k + p + 1}*g1"
            emissions.append(formulas.parse_formula(text))
        return _type(emissions, ("g1",)), {"g1": g}

    nparams = rng.randint(1, 3)
    names = tuple(f"g{i + 1}" for i in range(nparams))
    env = {n: random_series(rng, DIM, max_terms=2, span=2, allow_zero=False)
           for n in names}
    gens = [env[n] for n in names]
    target = series.zero_series(DIM)
    for g in gens:
        if rng.random() < 0.8:
            target = series.add(target, series.scale(
                g, F(rng.randint(-3, 3), rng.randint(1, 3))))
    if kind == "gap":
        target = series.add(
            target, series.monomial(random_exponent(rng, DIM), F(1), DIM))
    emissions = []
    for _ in range(100):
        parts = []
        e = series.zero_series(DIM)
        for n, g in zip(names, gens):
            c = rng.randint(-3, 3)
            if c:
                parts.append(f"{c}*{n}")
                e = series.add(e, series.scale(g, F(c)))
        if not parts or rng.random() < 0.25:
            c0 = rng.randint(-2, 2)
            parts.append(str(c0))
            e = series.add(e, series.monomial((F(0), F(0)), F(c0), DIM))
        text = " + ".join(parts)
        rel = f"x < {text}" if series.compare_series(e, target) > 0 \
            else f"{text} < x"
        emissions.append(formulas.parse_formula(rel))
    return _type(emissions, names), env


def _type(emissions, params):
    return formulas.PartialType(
        lambda i: emissions[i] if i < len(emissions) else None, "x", params)


def random_qe_case(rng, quant, atoms):
    """Gate c5's quantified formula, with the quantifier and the number of
    atoms given: (quantifier, matrix, quantified)."""
    def combo_text():
        parts = []
        for s in ("a", "b"):
            c = rng.randint(-2, 2)
            if c:
                parts.append(f"{c}*{s}")
        if not parts or rng.random() < 0.3:
            parts.append(str(rng.randint(-2, 2)))
        text = parts[0]
        for p in parts[1:]:
            text += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return text

    def atom_text():
        if rng.random() < 0.2:
            return f"{combo_text()} < {combo_text()}"
        cx = rng.randint(1, 3)
        if rng.random() < 0.5:
            return f"{combo_text()} < {cx}*x"
        return f"{cx}*x < {combo_text()}"

    matrix = atom_text()
    for _ in range(atoms - 1):
        conn = rng.choice((" and ", " or "))
        nxt = atom_text()
        if rng.random() < 0.25:
            nxt = f"not ({nxt})"
        matrix = f"({matrix}{conn}{nxt})"
    return (quant, formulas.parse_formula(matrix),
            formulas.parse_formula(f"{quant} x ({matrix})"))


def random_basis_case(rng):
    """Gate c3's generator set."""
    dim = rng.randint(1, 2)
    return [random_series(rng, dim, max_terms=4, allow_zero=False)
            for _ in range(rng.randint(1, 4))]


def tail_chain(rng, pairs):
    """Parameter-free immediate-tail chain.  a_k = 1 + sum_{j<k} c_j t^e_j
    with e_0 = 1/r_0, e_{j+1} = e_j + (1 - e_j)/r_j, r_j in {2,3,4},
    c_j = a/b (a in 1..3, b in 1..2); emission pair k is
    a_k < x and x < a_k + 2 c_k t^e_k.  Returns the type and the bound
    series of every pair."""
    e = F(0)
    terms = []
    for _ in range(pairs):
        e += (1 - e) / rng.choice((2, 3, 4))
        terms.append((e, F(rng.randint(1, 3), rng.randint(1, 2))))
    emissions, bounds = [], []
    lower = series.Series({(F(0), F(0)): F(1)}, DIM)
    text = "1"
    for e, c in terms:
        step = f"{2 * c}*t^({e})"
        emissions.append(formulas.parse_formula(f"{text} < x"))
        emissions.append(formulas.parse_formula(f"x < {text} + {step}"))
        upper = series.Series(lower.terms | {(e, F(0)): 2 * c}, DIM)
        bounds.append((lower, upper))
        lower = series.Series(lower.terms | {(e, F(0)): c}, DIM)
        text += f" + {c}*t^({e})"
    return _type(emissions, ()), bounds


# ---------------------------------------------------------------------------
# realization checks


def _check_realization(tau, env, prefix, outcome, inside=None):
    """c8's check: every verification line PASS and every emitted formula
    true at the witness; `inside` adds a workload-specific test.  Every type
    the workloads draw holds at a known point, so NotFinitelySatisfiable is
    a wrong verdict."""
    res, exc = outcome
    if isinstance(exc, errors.NotFinitelySatisfiable):
        return Verdict(failed=True, decided=False)
    if isinstance(exc, errors.BudgetExhausted):
        return Verdict(failed=False, decided=False)
    if exc is not None:
        return Verdict(failed=True, decided=False, crashed=True)
    ok = all(passed for _, passed in res.verification)
    wenv = dict(env)
    wenv[tau.var] = res.witness
    try:
        for i in range(prefix):
            f = tau.emit(i)
            if f is not None and not formulas.eval_formula(f, wenv, DIM):
                ok = False
        if inside is not None and not inside(res.witness):
            ok = False
    except Exception:  # a witness the checks cannot evaluate is wrong
        ok = False
    return Verdict(failed=not ok, decided=True, report=res.report)


def _signature_warm_up(mode, taus, prefix):
    """Pay the lazy sympy import and fill the process-wide enumeration
    caches for every signature the items use, as a warm library process
    would have."""
    scalars.real_algebraic((-2, 0, 1), 1, 2)
    for sig in {formulas.Signature(mode, (tau.var,) + tuple(tau.params))
                for tau in taus}:
        formulas.enumerate_formulas(prefix - 1, sig)


class Workload:
    """`items` to time; warm_up() before timing; run(item) -> outcome, the
    timed operation; check(item, outcome) -> Verdict, untimed."""

    # traffic fixed by the workload: a run makes round(seconds / pass_s)
    # whole passes over items (at least one), the same number on every run
    # of the same length; None: items are timed until the seconds are over
    pass_s = None


class RealizeGroup(Workload):
    """Gate c8's 50 types (generator seeds 1000..1049) in group mode at
    prefix 100, in an order drawn from the seed.  The types themselves are
    not drawn: 4% of c8's draws are residue types that take 7-12 s, so the
    timings of different 50-type draws would differ by a third."""

    pass_s = 18.0
    PREFIX = 100

    def __init__(self, root, seed):
        type_seeds = list(range(1000, 1050))
        random.Random(seed).shuffle(type_seeds)
        self.items = [generated_type(s) for s in type_seeds]
        self.budgets = engine.Budgets(formula_prefix_budget=self.PREFIX)

    def warm_up(self):
        _signature_warm_up("group", [tau for tau, _ in self.items],
                           self.PREFIX)

    def run(self, item):
        tau, env = item
        return _attempt(engine.realize_type, tau, env, mode="group",
                        budgets=self.budgets)

    def check(self, item, outcome):
        tau, env = item
        return _check_realization(tau, env, self.PREFIX, outcome)


class TailField(Workload):
    """Seeded immediate-tail chains in field mode at prefix 64."""

    PREFIX = 64
    PAIRS = 16  # 32 emissions, 0.35-0.55 s per type: 30-50 items a run
    TYPES = 64  # about what a run reaches; more would only slow set-up

    def __init__(self, root, seed):
        rng = random.Random(seed)
        self.items = [tail_chain(rng, self.PAIRS) for _ in range(self.TYPES)]
        self.budgets = engine.Budgets(formula_prefix_budget=self.PREFIX)

    def warm_up(self):
        _signature_warm_up("field", [tau for tau, _ in self.items],
                           self.PREFIX)

    def run(self, item):
        tau, _ = item
        return _attempt(engine.realize_type, tau, {}, mode="field",
                        budgets=self.budgets)

    def check(self, item, outcome):
        tau, bounds = item

        def inside(w):
            return all(series.compare_series(lo, w) < 0
                       and series.compare_series(w, up) < 0
                       for lo, up in bounds)

        return _check_realization(tau, {}, self.PREFIX, outcome, inside)


class QeBasis(Workload):
    """An item is six c5 formulas, one of each shape, each over 50
    environments (elimination, then evaluation against the world scan) and
    each with a c3 generator set (basis, 100 combinations, reconstruction).
    Never calls the engine.  The inputs are drawn from one generator seed
    (c5's) and the seed only orders the items: single formulas differ in
    cost by up to 15x, mostly by shape, and with inputs drawn from the seed
    item_s.p50 moved 10% (IQR/median) between seeds, against 7% for one
    seed run again."""

    SHAPES = tuple((quant, atoms) for quant in ("exists", "forall")
                   for atoms in (1, 2, 3))
    GENERATOR_SEED = 105
    ITEMS = 80  # one pass, about 18 s at the nominal speed
    pass_s = 18.0
    ENVS = 50
    COMBOS = 100

    def __init__(self, root, seed):
        rng = random.Random(self.GENERATOR_SEED)
        self.envs = [{"a": random_series(rng, DIM, max_terms=2),
                      "b": random_series(rng, DIM, max_terms=2)}
                     for _ in range(self.ENVS)]
        # c3's combination vectors, 4 slots; a basis uses as many as it has
        # generators
        self.vectors = [[F(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(4)] for _ in range(self.COMBOS)]
        *self.items, self.warm_item = [
            [(random_qe_case(rng, *shape), random_basis_case(rng))
             for shape in self.SHAPES] for _ in range(self.ITEMS + 1)]
        random.Random(seed).shuffle(self.items)

    def warm_up(self):
        # nothing in this path is lazy; one item exercises every code path
        self.check(self.warm_item, self.run(self.warm_item))

    def run(self, item):
        return _attempt(lambda: [self._qe_basis(*case) for case in item])

    def _qe_basis(self, qe_case, gs):
        quant, matrix, quantified = qe_case
        qf = formulas.doag_qe(quantified)
        truths = []
        for env in self.envs:
            if quant == "exists":
                expected = formulas.satisfiable(matrix, env, "x")
            else:
                expected = not formulas.satisfiable(
                    formulas.Not(matrix), env, "x")
            truths.append((formulas.eval_formula(qf, env, DIM), expected))
        basis = valbasis.valuation_basis(gs)
        bgens = list(basis.generators)
        dim = gs[0].dim
        min_ok = []
        for vec in self.vectors:
            coeffs = vec[:len(bgens)]
            if all(q == 0 for q in coeffs):
                coeffs = [F(1)] + coeffs[1:]
            combo = series.zero_series(dim)
            for q, g in zip(coeffs, bgens):
                if q:
                    combo = series.add(combo, series.scale(g, q))
            expected = min(series.valuation(g)
                           for q, g in zip(coeffs, bgens) if q)
            min_ok.append(series.valuation(combo) == expected)
        recon_ok = []
        for g, row in zip(gs, basis.change_of_basis):
            recon = series.zero_series(dim)
            for q, b in zip(row, bgens):
                if q:
                    recon = series.add(recon, series.scale(b, q))
            recon_ok.append(
                series.subtract(g, recon).is_zero()
                and [F(c) for c in valbasis.represent(g, bgens)] == list(row))
        return truths, min_ok, recon_ok

    def check(self, item, outcome):
        res, exc = outcome
        if isinstance(exc, errors.BudgetExhausted):
            return Verdict(failed=False, decided=False)
        if exc is not None:
            return Verdict(failed=True, decided=False, crashed=True)
        ok = all(all(a == b for a, b in truths) and all(min_ok)
                 and all(recon_ok) for truths, min_ok, recon_ok in res)
        return Verdict(failed=not ok, decided=True)


# ---------------------------------------------------------------------------
# the command line, one child process per invocation


_FIX = "tests/fixtures/"
_GOLD = "tests/goldens/"

# (argv, expected exit code, golden report): gate c9's twelve invocations,
# then three inputs that exit 1 today and should exit 0, 2 or 3
CLI_SUITE = (
    (("realize", _FIX + "residue_sqrt2.type"), 0,
     _GOLD + "residue_sqrt2.report"),
    (("realize", _FIX + "beta.type"), 0, _GOLD + "beta.report"),
    (("realize", _FIX + "immediate_tail.type", "--mode", "field"), 0,
     _GOLD + "immediate_tail_field.report"),
    (("realize", _FIX + "contradictory.type"), 2, None),
    (("realize", _FIX + "immediate_tail.type", "--mode", "field",
      "--height", "1"), 3, None),
    (("qe", "exists x (a < x and x < b)"), 0, None),
    (("basis", "t + t^2, t"), 0, None),
    (("pseudo-limit", "1, 1 + t^(1/2), 1 + t^(1/2) + t^(2/3)"), 0, None),
    (("tree", "interval", "101"), 0, None),
    (("tree", "path", "full", "1/3", "4"), 0, None),
    (("tree", "search", "single:1011", "3"), 0, None),
    (("eval", _FIX + "residue_sqrt2.type", "--at", "alg[-2,0,1;1,2]*t^(1)",
      "--prefix", "8"), 0, None),
    (("realize", _FIX + "immediate_tail.type"), None, None),
    (("realize", _FIX + "residue_sqrt2.type", "--prefix", "100",
      "--precision", "24"), None, None),
    (("realize", _FIX + "residue_sqrt2.type", "--prefix", "200",
      "--precision", "32"), None, None),
)

CHILD_TIMEOUT_S = 120


class CliFixtures(Workload):
    """Sequential `python -m hahnsat.cli` children; the seed is unused."""

    pass_s = 6.0

    def __init__(self, root, seed):
        self.root = root
        # children import hahnsat from this checkout
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.items = [(argv, code, (root / golden).read_bytes()
                       if golden else None)
                      for argv, code, golden in CLI_SUITE]
        self.first_stdout = {}

    def warm_up(self):
        # compiles the package's bytecode and pages in the interpreter
        subprocess.run([sys.executable, "-c", "import hahnsat"],
                       cwd=self.root, env=self.env, check=True,
                       timeout=CHILD_TIMEOUT_S)

    def run(self, item):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hahnsat.cli", *item[0]],
                cwd=self.root, env=self.env, capture_output=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, b""
        return proc.returncode, proc.stdout

    def run_in_process(self, item):
        """cli.main(argv) in this process, for the traced pass."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code, exc = _attempt(cli.main, list(item[0]))
        return (1 if exc is not None else code), out.getvalue().encode()

    def check(self, item, outcome):
        argv, expected, golden = item
        code, stdout = outcome
        decided = code in (0, 2)
        if code not in (0, 2, 3):
            return Verdict(failed=True, decided=False, crashed=True)
        ok = expected is None or code == expected
        if golden is not None and stdout != golden:
            ok = False
        if argv[0] in ("realize", "eval") and b"FAIL  " in stdout:
            ok = False
        # c9: the same invocation prints the same bytes every time
        if self.first_stdout.setdefault(argv, stdout) != stdout:
            ok = False
        report = stdout.decode() if argv[0] == "realize" else None
        return Verdict(failed=not ok, decided=decided, report=report)


WORKLOADS = {
    "realize-group": RealizeGroup,
    "tail-field": TailField,
    "qe-basis": QeBasis,
    "cli-fixtures": CliFixtures,
}
