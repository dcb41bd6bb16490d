"""Nine acceptance gates, one test each: valuation laws, interval coding,
valuation bases, term signs, quantifier elimination, pseudo-limits, the three
cut fixtures, randomized end-to-end realization, and CLI determinism; the
randomized types' field-mode reports are pinned beside the gate."""

import hashlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import random_exponent, random_series
from hahnsat.cli import load_type_file
from hahnsat.engine import Budgets, realize_type, standard_height_enum
from hahnsat.engine import (GroupTranscendental, ImmediateTranscendental,
                            ResidueTranscendental)
from hahnsat.formulas import (Not, doag_qe, eval_formula, parse_formula,
                              satisfiable, _has_quantifier)
from hahnsat.series import (INFINITY, add, compare_series, monomial,
                            parse_series, scale, subtract, valuation,
                            zero_series)
from hahnsat.trees import node_interval
from hahnsat.valbasis import (PseudoSequence, check_pseudo_cauchy,
                              pseudo_limit, represent, term_sign,
                              valuation_basis)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"
DIM = 2


def _elapsed(t0, bound, label):
    dt = time.perf_counter() - t0
    assert dt < bound, f"{label} took {dt:.1f}s (bound {bound}s)"
    return dt


def test_c1_valuation_axioms():
    """1,000 random pairs/triples obey the valuation laws exactly."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    assert valuation(zero_series(DIM)) is INFINITY
    for _ in range(1000):
        x = random_series(rng, DIM)
        y = random_series(rng, DIM)
        q = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        assert (valuation(x) is INFINITY) == x.is_zero()
        assert valuation(scale(x, q)) == valuation(x)
        vx, vy = valuation(x), valuation(y)
        vs = valuation(add(x, y))
        vmin = min(vx, vy)
        assert not vs < vmin
        if vx != vy:
            assert vs == vmin
    dt = _elapsed(t0, 5.0, "valuation axioms")
    print(f"[PASS] valuation axioms: 1000 samples, {dt:.2f}s")


def test_c2_interval_coding():
    """Width, nesting, and disjointness laws of the node coding, exhaustive
    to length 12 plus 10^5 sampled incomparable pairs."""
    t0 = time.perf_counter()
    nodes = [""]
    frontier = [""]
    for _ in range(12):
        frontier = [s + b for s in frontier for b in "01"]
        nodes.extend(frontier)
    assert len(nodes) == 8191
    ivs = {s: node_interval(s) for s in nodes}
    for s, iv in ivs.items():
        assert iv.hi - iv.lo == F(1, 2 ** len(s))
    for s in nodes:
        iv = ivs[s]
        for cut in range(len(s)):
            outer = ivs[s[:cut]]
            assert outer.lo <= iv.lo and iv.hi <= outer.hi
            assert outer.hi - outer.lo > iv.hi - iv.lo
    rng = random.Random(102)
    checked = 0
    while checked < 100_000:
        s = nodes[rng.randrange(len(nodes))]
        u = nodes[rng.randrange(len(nodes))]
        if s.startswith(u) or u.startswith(s):
            continue
        a, b = ivs[s], ivs[u]
        assert a.hi <= b.lo or b.hi <= a.lo
        checked += 1
    dt = _elapsed(t0, 30.0, "interval coding")
    print(f"[PASS] interval coding: 8191 nodes + {checked} pairs, {dt:.2f}s")


def test_c3_valuation_basis():
    """100 random generator sets: the extracted basis satisfies the
    min-valuation identity on 200 combinations each and spans the input."""
    t0 = time.perf_counter()
    rng = random.Random(103)
    for _ in range(100):
        dim = rng.randint(1, 2)
        gs = [random_series(rng, dim, max_terms=4, allow_zero=False)
              for _ in range(rng.randint(1, 4))]
        basis = valuation_basis(gs)
        bgens = list(basis.generators)
        for _ in range(200):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in bgens]
            if all(q == 0 for q in coeffs):
                coeffs[rng.randrange(len(coeffs))] = F(1)
            combo = zero_series(dim)
            for q, g in zip(coeffs, bgens):
                if q:
                    combo = add(combo, scale(g, q))
            expected = min(valuation(g)
                           for q, g in zip(coeffs, bgens) if q)
            assert valuation(combo) == expected
        for g, row in zip(gs, basis.change_of_basis):
            recon = zero_series(dim)
            for q, b in zip(row, bgens):
                if q:
                    recon = add(recon, scale(b, q))
            assert subtract(g, recon).is_zero()
            assert [F(c) for c in represent(g, bgens)] == list(row)
    dt = _elapsed(t0, 60.0, "valuation basis")
    print(f"[PASS] valuation basis: 100 sets x 200 vectors, {dt:.2f}s")


def test_c4_term_sign_equivalence():
    """term_sign agrees with direct series comparison, exhaustively over
    integer coefficients |s| <= 3 for bases of size <= 3."""
    t0 = time.perf_counter()
    rng = random.Random(104)
    bases = []
    while len(bases) < 40:
        gs = [random_series(rng, DIM, max_terms=3, allow_zero=False)
              for _ in range(rng.randint(1, 3))]
        basis = valuation_basis(gs)
        if 1 <= len(basis.generators) <= 3:
            bases.append(basis)
    vectors_by_size = {}
    for k in (1, 2, 3):
        vecs = [()]
        for _ in range(k):
            vecs = [v + (F(c),) for v in vecs for c in range(-3, 4)]
        vectors_by_size[k] = vecs
    checked = 0
    for basis in bases:
        bgens = list(basis.generators)
        for vec in vectors_by_size[len(bgens)]:
            combo = zero_series(DIM if not bgens else bgens[0].dim)
            for q, g in zip(vec, bgens):
                if q:
                    combo = add(combo, scale(g, q))
            direct = compare_series(combo, zero_series(combo.dim))
            assert term_sign(vec, basis) == direct
            checked += 1
    dt = _elapsed(t0, 30.0, "term sign")
    print(f"[PASS] term sign: {checked} exhaustive combinations, {dt:.2f}s")


def _random_qe_formula(rng):
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
            text += f" + {p}" if not p.startswith("-") \
                else f" - {p[1:]}"
        return text

    def atom_text():
        if rng.random() < 0.2:
            return f"{combo_text()} < {combo_text()}"
        cx = rng.randint(1, 3)
        if rng.random() < 0.5:
            return f"{combo_text()} < {cx}*x"
        return f"{cx}*x < {combo_text()}"

    matrix = atom_text()
    for _ in range(rng.randint(0, 2)):
        conn = rng.choice((" and ", " or "))
        nxt = atom_text()
        if rng.random() < 0.25:
            nxt = f"not ({nxt})"
        matrix = f"({matrix}{conn}{nxt})"
    quant = rng.choice(("exists", "forall"))
    return quant, parse_formula(matrix), parse_formula(
        f"{quant} x ({matrix})")


def test_c5_qe_soundness():
    """100 quantified formulas x 100 environments: elimination output is
    quantifier-free and truth-equivalent to a direct world-scan decision."""
    t0 = time.perf_counter()
    rng = random.Random(105)
    cases = [_random_qe_formula(rng) for _ in range(100)]
    envs = []
    for _ in range(100):
        envs.append({"a": random_series(rng, DIM, max_terms=2),
                     "b": random_series(rng, DIM, max_terms=2)})
    for quant, matrix, quantified in cases:
        qf = doag_qe(quantified)
        assert not _has_quantifier(qf)
        for env in envs:
            if quant == "exists":
                expected = satisfiable(matrix, env, "x")
            else:
                expected = not satisfiable(Not(matrix), env, "x")
            assert eval_formula(qf, env, DIM) == expected
    dt = _elapsed(t0, 60.0, "qe soundness")
    print(f"[PASS] qe soundness: 100 formulas x 100 envs, {dt:.2f}s")


def test_c6_pseudo_limits():
    """50 generated pseudo-Cauchy prefixes: the pseudo-limit realizes every
    successive-difference valuation exactly."""
    t0 = time.perf_counter()
    rng = random.Random(106)
    for _ in range(50):
        k = rng.randint(3, 8)
        exps = set()
        while len(exps) < k - 1:
            exps.add(random_exponent(rng, DIM))
        steps = sorted(exps)
        elems = [random_series(rng, DIM, max_terms=2)]
        for gamma in steps:
            c = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
            elems.append(add(elems[-1], monomial(gamma, c, DIM)))
        seq = PseudoSequence.explicit(elems)
        assert check_pseudo_cauchy(seq, k)
        lim = pseudo_limit(seq, k)
        for i in range(k - 1):
            assert valuation(subtract(lim, elems[i])) == \
                valuation(subtract(elems[i + 1], elems[i]))
    dt = _elapsed(t0, 10.0, "pseudo limits")
    print(f"[PASS] pseudo limits: 50 prefixes, {dt:.2f}s")


def _height_elements(generators, depth):
    enum = standard_height_enum(generators)
    out = []
    for h in range(1, depth + 1):
        out.extend(enum(h))
    return out


def test_c7_cut_fixtures():
    """The three cut fixtures classify to their intended cases, match their
    golden reports byte for byte, and answer every height-8 side query the
    way the type dictates."""
    t0 = time.perf_counter()

    tau, params = load_type_file(str(FIXTURES / "residue_sqrt2.type"), DIM)
    res = realize_type(tau, params, mode="group")
    assert isinstance(res.classification, ResidueTranscendental)
    assert res.report == (GOLDENS / "residue_sqrt2.report").read_text()
    target = parse_series("alg[-2,0,1;1,2]*t^(1)", DIM)
    for e in _height_elements([params["g1"]], 8):
        assert compare_series(e, res.witness) == compare_series(e, target)

    tau, params = load_type_file(str(FIXTURES / "beta.type"), DIM)
    res = realize_type(tau, params, mode="group")
    assert isinstance(res.classification, GroupTranscendental)
    assert res.report == (GOLDENS / "beta.report").read_text()
    zero = zero_series(DIM)
    for e in _height_elements([params["g1"], params["g2"]], 8):
        above = compare_series(e, zero) > 0 and \
            valuation(e) == valuation(params["g1"])
        assert (compare_series(res.witness, e) < 0) == above

    tau, params = load_type_file(str(FIXTURES / "immediate_tail.type"), DIM)
    res = realize_type(tau, params, mode="field")
    assert isinstance(res.classification, ImmediateTranscendental)
    assert res.report == (GOLDENS / "immediate_tail_field.report").read_text()
    one = monomial((F(0), F(0)), F(1), DIM)
    for e in _height_elements([one], 8):
        above = compare_series(e, one) > 0
        assert (compare_series(res.witness, e) < 0) == above

    dt = _elapsed(t0, 60.0, "cut fixtures")
    print(f"[PASS] cut fixtures: 3 fixtures + height-8 side queries, "
          f"{dt:.2f}s")


def _generated_type(seed):
    """A finitely satisfiable computable emission family over <= 3
    parameters: every emission holds at a hidden target element."""
    from hahnsat.formulas import PartialType
    rng = random.Random(seed)
    kind = rng.choice(("span", "span", "span", "gap", "residue"))

    if kind == "residue":
        # dyadic flanks with integer coefficients pin x/g1 to m + sqrt(2);
        # the monomial scale keeps the presented residue at a height the
        # candidate search can certify
        g = monomial(random_exponent(rng, DIM), F(1), DIM)
        m = rng.randint(-2, 2)
        emissions = []
        for i in range(100):
            k = i // 2 + 1
            p = math.isqrt(2 * 4 ** k)
            if i % 2 == 0:
                emissions.append(
                    parse_formula(f"{m * 2 ** k + p}*g1 < {2 ** k}*x"))
            else:
                emissions.append(
                    parse_formula(f"{2 ** k}*x < {m * 2 ** k + p + 1}*g1"))
        emit = lambda i: emissions[i] if i < len(emissions) else None
        return PartialType(emit, "x", ("g1",)), {"g1": g}

    nparams = rng.randint(1, 3)
    names = tuple(f"g{i + 1}" for i in range(nparams))
    env = {n: random_series(rng, DIM, max_terms=2, span=2, allow_zero=False)
           for n in names}
    gens = [env[n] for n in names]

    target = zero_series(DIM)
    for g in gens:
        if rng.random() < 0.8:
            target = add(target, scale(g, F(rng.randint(-3, 3),
                                            rng.randint(1, 3))))
    if kind == "gap":
        target = add(target,
                     monomial(random_exponent(rng, DIM), F(1), DIM))

    pool = []
    for _ in range(100):
        parts = []
        e = zero_series(DIM)
        for n, g in zip(names, gens):
            c = rng.randint(-3, 3)
            if c:
                parts.append(f"{c}*{n}")
                e = add(e, scale(g, F(c)))
        if not parts or rng.random() < 0.25:
            c0 = rng.randint(-2, 2)
            parts.append(str(c0))
            e = add(e, monomial((F(0), F(0)), F(c0), DIM))
        pool.append((" + ".join(parts), e))

    emissions = []
    for text, e in pool:
        if compare_series(e, target) < 0:
            emissions.append(parse_formula(f"{text} < x"))
        elif compare_series(e, target) > 0:
            emissions.append(parse_formula(f"x < {text}"))
        else:
            emissions.append(parse_formula(f"{text} < x"))

    emit = lambda i: emissions[i] if i < len(emissions) else None
    return PartialType(emit, "x", names), env


# sha256 of the 50 group-mode reports of gate c8, concatenated in seed order
C8_GROUP_DIGEST = \
    "1322602294cbf1afb007d5d9f558cee2f5cf4df33c9fc6ffed8162523ec44184"
# the same for the field-mode reports of the same 50 types
C8_FIELD_DIGEST = \
    "d0223863cb90a5d049f9a82d06225749736b6b738d19ca50fe919368c64ba453"


def test_c8_randomized_realization():
    """50 generated finitely satisfiable computable types: the realized
    witness satisfies the first 100 emitted formulas of each, and the
    reports are byte-identical to the frozen digest."""
    rng_budget = Budgets(formula_prefix_budget=100)
    reports = hashlib.sha256()
    total0 = time.perf_counter()
    for seed in range(50):
        t0 = time.perf_counter()
        tau, env = _generated_type(1000 + seed)
        res = realize_type(tau, env, mode="group", budgets=rng_budget)
        wenv = dict(env)
        wenv["x"] = res.witness
        for i in range(100):
            f = tau.emit(i)
            assert eval_formula(f, wenv, DIM), \
                f"seed {seed}: emission {i} fails at the witness"
        _elapsed(t0, 10.0, f"realization seed {seed}")
        reports.update(res.report.encode())
    assert reports.hexdigest() == C8_GROUP_DIGEST
    dt = time.perf_counter() - total0
    print(f"[PASS] randomized realization: 50 types x 100 formulas, "
          f"{dt:.2f}s total")


def test_c8_field_mode_digest():
    """The field-mode reports of gate c8's 50 types are byte-identical to
    the frozen digest.  No time bound: the pass takes seconds, and a loaded
    host must not fail it."""
    budgets = Budgets(formula_prefix_budget=100)
    reports = hashlib.sha256()
    for seed in range(50):
        tau, env = _generated_type(1000 + seed)
        res = realize_type(tau, env, mode="field", budgets=budgets)
        reports.update(res.report.encode())
    assert reports.hexdigest() == C8_FIELD_DIGEST


def test_c8_second_realization_interns_no_new_exponent():
    """Every exponent of a realization is interned: realizing c8's group
    types 1000-1009 again in the same process adds no table entry."""
    from hahnsat import series
    budgets = Budgets(formula_prefix_budget=100)
    series._EXPS.clear()  # a pure cache: start far below its bound
    tables = []
    for _ in range(2):
        for seed in range(1000, 1010):
            tau, env = _generated_type(seed)
            realize_type(tau, env, mode="group", budgets=budgets)
        tables.append(set(series._EXPS))
    assert tables[0] == tables[1]
    assert tables[0]


CLI_SUITE = (
    ("realize", str(FIXTURES / "residue_sqrt2.type")),
    ("realize", str(FIXTURES / "beta.type")),
    ("realize", str(FIXTURES / "immediate_tail.type"), "--mode", "field"),
    ("realize", str(FIXTURES / "contradictory.type")),
    ("realize", str(FIXTURES / "immediate_tail.type"), "--mode", "field",
     "--height", "1"),
    ("qe", "exists x (a < x and x < b)"),
    ("basis", "t + t^2, t"),
    ("pseudo-limit", "1, 1 + t^(1/2), 1 + t^(1/2) + t^(2/3)"),
    ("tree", "interval", "101"),
    ("tree", "path", "full", "1/3", "4"),
    ("tree", "search", "single:1011", "3"),
    ("eval", str(FIXTURES / "residue_sqrt2.type"),
     "--at", "alg[-2,0,1;1,2]*t^(1)", "--prefix", "8"),
)


def _run_cli_suite():
    results = []
    for argv in CLI_SUITE:
        proc = subprocess.run([sys.executable, "-m", "hahnsat.cli", *argv],
                              capture_output=True)
        results.append((argv, proc.returncode, proc.stdout))
    return results


def test_c9_cli_determinism():
    """Two consecutive runs of the whole CLI suite are byte-identical, and
    the realize reports match their frozen goldens."""
    first = _run_cli_suite()
    second = _run_cli_suite()
    assert first == second
    by_argv = {argv: out for argv, _, out in first}
    assert by_argv[CLI_SUITE[0]] == \
        (GOLDENS / "residue_sqrt2.report").read_bytes()
    assert by_argv[CLI_SUITE[1]] == (GOLDENS / "beta.report").read_bytes()
    assert by_argv[CLI_SUITE[2]] == \
        (GOLDENS / "immediate_tail_field.report").read_bytes()
    codes = [rc for _, rc, _ in first]
    assert codes[:5] == [0, 0, 0, 2, 3]
    print(f"[PASS] cli determinism: {len(CLI_SUITE)} invocations x 2 runs")
