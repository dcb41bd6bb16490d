"""Formula layer: parsing, canonical printing, evaluation, quantifier
elimination, cut extraction, and the atomic-fragment enumeration."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnsat import formulas as formulas_mod
from hahnsat import series as series_mod
from hahnsat.errors import (
    BudgetExhausted,
    NonlinearUnsupported,
    ParseError,
    Unsatisfiable,
)
from hahnsat.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Not,
    Or,
    Signature,
    TrueF,
    conjoin,
    cut_bounds,
    doag_qe,
    enumerate_formulas,
    eval_formula,
    formula_index,
    format_formula,
    parse_formula,
    satisfiable,
)
from hahnsat.formulas import (CONST, _ENUM_COEFF_CAP, Term,
                              _conjunct_atoms, _consistent, _eval_qf,
                              _format_mono, _fragment, _infer_dim, _nnf,
                              _nonlinear, _sides_of_length, _solve_for,
                              _term_series, make_atom)
from hahnsat.series import (
    compare_series,
    format_series,
    monomial,
    parse_series,
    zero_series,
)

from conftest import random_series


def roundtrip(text: str) -> str:
    return format_formula(parse_formula(text))


class TestParsePrint:
    def test_atom_roundtrips(self):
        for text in [
            "a < b",
            "5*a < 3*b",
            "0 < a",
            "a = b",
            "true",
            "false",
            "t^(1/2) < a",
            "x^2 < 2",
            "2*x + 1 < g1",
            "g1 + x < 0",
        ]:
            assert roundtrip(text) == text
            # parse(print(f)) is f again
            assert roundtrip(roundtrip(text)) == roundtrip(text)

    def test_compound_roundtrips(self):
        for text in [
            "(a < b and b < c)",
            "((a < b and b < c) or c < d)",
            "not (a = b)",
            "exists v (a < v)",
            "exists v ((a < v and v < b))",
            "not (not (0 < a))",
        ]:
            assert roundtrip(text) == text

    def test_canonicalization(self):
        assert roundtrip("3*b > 5*a") == "5*a < 3*b"
        assert roundtrip("x = x") == "true"
        assert roundtrip("x < x") == "false"
        assert roundtrip("1 < 2") == "true"
        assert roundtrip("2 < 1") == "false"
        assert roundtrip("1 = 1") == "true"
        assert roundtrip("b + a < a + a") == "b < a"
        assert roundtrip("a + a < b") == "2*a < b"
        assert roundtrip("1/2*a < b") == "a < 2*b"
        assert roundtrip("-a < b") == "0 < a + b"
        assert roundtrip("a - b < 0") == "a < b"
        assert roundtrip("2*a - 2*b = 0") == "a = b"

    def test_equality_orientation_is_print_minimal(self):
        assert roundtrip("x = 1") == "1 = x"
        assert roundtrip("1 = x") == "1 = x"
        assert roundtrip("b = a") == "a = b"
        assert roundtrip("z = a + b") == "a + b = z"

    def test_side_ordering_symbols_then_constant(self):
        assert roundtrip("1 + a + 2*b < c") == "a + 2*b + 1 < c"

    def test_literal_atoms(self):
        assert roundtrip("t < a") == "t^(1) < a"
        assert roundtrip("t^2 < t") == "t^(2) < t^(1)"
        assert roundtrip("t^(1/2,-1) < x") == "t^(1/2,-1) < x"
        assert roundtrip("2*t^(1/2) + a < b") == "a + 2*t^(1/2) < b"
        # trailing zero coordinates are stripped
        assert roundtrip("t^(1,0) < a") == "t^(1) < a"

    def test_literal_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("t*a < b")
        with pytest.raises(ParseError):
            parse_formula("t^(1/2)*t^(1/2) < b")
        # scaling by a rational is fine
        assert roundtrip("3*t^(1/2) < b") == "3*t^(1/2) < b"

    def test_precedence(self):
        assert roundtrip("a < b and b < c or c < d") == \
            "((a < b and b < c) or c < d)"
        assert roundtrip("a < b or b < c and c < d") == \
            "(a < b or (b < c and c < d))"
        assert roundtrip("not a < b and c < d") == "(not (a < b) and c < d)"

    def test_forall_sugar(self):
        assert roundtrip("forall v (a < v)") == "not (exists v (not (a < v)))"

    def test_error_columns(self):
        with pytest.raises(ParseError) as ei:
            parse_formula("x <")
        assert ei.value.column == 4
        with pytest.raises(ParseError) as ei:
            parse_formula("< a")
        assert ei.value.column == 1
        with pytest.raises(ParseError) as ei:
            parse_formula("a < b #")
        assert ei.value.column == 7
        with pytest.raises(ParseError) as ei:
            parse_formula("exists (a < b)")
        assert ei.value.column == 8
        with pytest.raises(ParseError):
            parse_formula("x^0 < a")
        with pytest.raises(ParseError):
            parse_formula("(a < b")

    @pytest.mark.parametrize("text, column", [
        ("1/0 < x", 1), ("x < t^(1/0)", 8), ("x < t^(1/2, -1/0)", 14),
        ("x < 3*1/0*g1", 7)])
    def test_zero_denominator_is_a_bad_rational(self, text, column):
        with pytest.raises(ParseError,
                           match=r"bad rational '1/0' \(column") as ei:
            parse_formula(text)
        assert ei.value.column == column

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_identity_random(self, data):
        f = data.draw(_formula_strategy())
        text = format_formula(f)
        assert format_formula(parse_formula(text)) == text


class TestAtomEquality:
    """Atoms key the atom tables: equal atoms are equal and hash alike
    whichever stored its hash first, and each field tells atoms apart."""

    def _equal_pair(self):
        a, b = parse_formula("2*x < g1"), parse_formula("4*x < 2*g1")
        assert type(a) is Atom and type(b) is Atom and a is not b
        return a, b

    def test_equal_before_any_hash_is_stored(self):
        a, b = self._equal_pair()
        assert a == b and b == a and not a != b

    @pytest.mark.parametrize("first", [0, 1])
    def test_equal_atoms_find_each_other_as_keys(self, first):
        pair = self._equal_pair()
        stored, probe = pair[first], pair[1 - first]
        table = {stored: "value"}  # stores the hash of `stored` only
        assert stored == probe and probe == stored
        assert table[probe] == "value" and probe in {stored}
        assert hash(probe) == hash(stored)
        assert {probe: "value"}[stored] == "value"

    def test_each_field_tells_atoms_apart(self):
        a = parse_formula("2*x < g1")
        other = parse_formula("2*x < g2")
        assert other.pos == a.pos and other.neg != a.neg
        hash(a)  # one side of each comparison has a stored hash
        for b in (Atom("=", a.pos, a.neg), Atom(a.rel, a.pos, other.neg),
                  Atom(a.rel, other.neg, a.neg)):
            assert b != a and a != b and not b == a

    def test_an_atom_is_no_other_formula(self):
        a, b = self._equal_pair()
        assert a != TrueF() and TrueF() != a
        assert Not(a) == Not(b) and hash(Not(a)) == hash(Not(b))


def _term_strategy():
    sym = st.sampled_from(["a", "b", "c", "x"])
    coeff = st.integers(min_value=-9, max_value=9).map(Fraction)
    mono = st.tuples(sym, coeff)
    return st.lists(mono, min_size=1, max_size=3)


def _formula_strategy():
    from hahnsat.formulas import Term, make_atom

    def term_of(items):
        acc = Term()
        for s, q in items:
            acc = acc.plus(Term.build({((s, 1),): q}, {}))
        return acc

    atoms = st.tuples(
        st.sampled_from(["<", "=", ">"]), _term_strategy(), _term_strategy()
    ).map(lambda t: make_atom(t[0], term_of(t[1]), term_of(t[2])))

    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda p: And(*p)),
            st.tuples(kids, kids).map(lambda p: Or(*p)),
            kids.map(lambda f: Exists("w", f)),
        ),
        max_leaves=6,
    )


class TestEval:
    def test_literal_comparison(self):
        assert eval_formula(parse_formula("t < t^2"), {}) is False
        assert eval_formula(parse_formula("t^2 < t"), {}) is True
        assert eval_formula(parse_formula("t^(1/2) < 1"), {}) is True

    def test_quantified_example(self):
        env = {"g1": parse_series("t^2"), "g2": parse_series("t")}
        f = parse_formula("exists z (g1 < z and z < g2)")
        assert eval_formula(f, env) is True
        g = parse_formula("exists z (g2 < z and z < g1)")
        assert eval_formula(g, env) is False

    def test_field_square_example(self):
        env = {"x": parse_series("1 + t")}
        assert eval_formula(parse_formula("x*x < 2"), env) is True
        assert eval_formula(parse_formula("x^2 < 2"), env) is True
        assert eval_formula(parse_formula("2 < x^2"), env) is False

    def test_connectives(self):
        env = {"a": parse_series("t"), "b": parse_series("t^2")}
        assert eval_formula(parse_formula("b < a and 0 < a"), env) is True
        assert eval_formula(parse_formula("a < b or 0 < a"), env) is True
        assert eval_formula(parse_formula("not (a < b)"), env) is True
        assert eval_formula(parse_formula("a < b or b < 0"), env) is False

    def test_unbound_symbol(self):
        with pytest.raises(KeyError):
            eval_formula(parse_formula("a < b"), {"a": parse_series("t")})

    def test_rational_constants(self):
        env = {"x": parse_series("3/2")}
        assert eval_formula(parse_formula("x < 2"), env) is True
        assert eval_formula(parse_formula("1 < x and x < 2"), env) is True


class TestQE:
    def test_density(self):
        f = parse_formula("exists x (a < x and x < b)")
        assert format_formula(doag_qe(f)) == "a < b"

    def test_divisibility(self):
        f = parse_formula("exists x (2*x = a)")
        assert format_formula(doag_qe(f)) == "true"

    def test_scaled_pair(self):
        f = parse_formula("exists x (a < 3*x and 5*x < b and x = x)")
        assert format_formula(doag_qe(f)) == "5*a < 3*b"

    def test_equality_substitution(self):
        f = parse_formula("exists x (a < x and x < b and x = c)")
        out = format_formula(doag_qe(f))
        assert out == "(a < c and c < b)"

    def test_unbounded_sides(self):
        assert format_formula(doag_qe(parse_formula("exists x (a < x)"))) == "true"
        assert format_formula(doag_qe(parse_formula("exists x (x < a)"))) == "true"

    def test_alternation(self):
        f = parse_formula("forall y (exists x (y < x))")
        assert eval_formula(f, {}) is True
        g = parse_formula("exists x (forall y (y < x))")
        assert eval_formula(g, {}) is False

    def test_disjunction_distributes(self):
        f = parse_formula("exists x ((a < x and x < b) or x = c)")
        out = doag_qe(f)
        # one disjunct is unconditionally true
        assert format_formula(out) == "true"

    def test_nonlinear_rejected(self):
        with pytest.raises(NonlinearUnsupported):
            doag_qe(parse_formula("exists x (x*x < a)"))

    def test_soundness_randomized(self):
        """Dual route: when QE says the cut opens, an explicit witness taken
        from the bounds must satisfy the matrix; when it says false, sampled
        candidates must all fail."""
        rng = random.Random(7)
        syms = ["g1", "g2", "g3"]
        hits = 0
        for trial in range(100):
            n_atoms = rng.randint(1, 3)
            texts = []
            for _ in range(n_atoms):
                c = rng.choice([1, 1, 2, 3, 5])
                s = rng.choice(syms)
                if rng.random() < 0.25:
                    texts.append(f"{c}*x = {s}")
                elif rng.random() < 0.5:
                    texts.append(f"{s} < {c}*x")
                else:
                    texts.append(f"{c}*x < {s}")
            matrix = " and ".join(texts)
            f = parse_formula(f"exists x ({matrix})")
            env = {s: random_series(rng, 2, max_terms=2, allow_zero=False)
                   for s in syms}
            verdict = eval_formula(doag_qe(f), env)
            world = [parse_formula(tx) for tx in texts]
            try:
                lo, up, pt = cut_bounds(world, env)
            except Unsatisfiable:
                assert verdict is False
                continue
            witness = _pick_witness(lo, up, pt)
            if verdict:
                ok = eval_formula(parse_formula(matrix),
                                  dict(env, x=witness))
                assert ok, (matrix, format_series(witness))
                hits += 1
            else:
                assert eval_formula(parse_formula(matrix),
                                    dict(env, x=witness)) is False
        assert hits > 10  # the sampler visits both outcomes

    def test_qf_passthrough_equivalence(self):
        rng = random.Random(21)
        f = parse_formula("(a < b and not (b = c)) or c < a")
        for _ in range(25):
            env = {s: random_series(rng, 2, max_terms=2) for s in "abc"}
            assert eval_formula(doag_qe(f), env) == eval_formula(f, env)


def _pick_witness(lo, up, pt):
    if pt is not None:
        return pt
    big = monomial([-50], 1, 2)     # huge positive element
    tiny = monomial([50], 1, 2)     # tiny positive element
    from hahnsat.series import add, negate, scale

    if lo is None and up is None:
        return zero_series(2)
    if lo is None:
        return add(up, negate(tiny))
    if up is None:
        return add(lo, tiny)
    return scale(add(lo, up), Fraction(1, 2))


class TestCutBounds:
    def setup_method(self):
        self.env = {"g1": parse_series("t^2"), "g2": parse_series("t"),
                    "g3": parse_series("t^3")}

    def test_two_sided(self):
        lo, up, pt = cut_bounds(
            [parse_formula("g1 < x"), parse_formula("x < g2")], self.env)
        assert format_series(lo) == "t^(2)"
        assert format_series(up) == "t^(1)"
        assert pt is None

    def test_forced_point(self):
        lo, up, pt = cut_bounds([parse_formula("2*x = g1")], self.env)
        assert lo is None and up is None
        assert format_series(pt) == "1/2*t^(2)"

    def test_scaled_bounds(self):
        lo, up, pt = cut_bounds(
            [parse_formula("g1 < 3*x"), parse_formula("2*x < g2"),
             parse_formula("g3 < x")], self.env)
        assert format_series(lo) == "1/3*t^(2)"
        assert format_series(up) == "1/2*t^(1)"
        assert pt is None

    def test_var_free_true_skipped(self):
        lo, up, pt = cut_bounds(
            [parse_formula("g1 < g2"), parse_formula("g1 < x")], self.env)
        assert format_series(lo) == "t^(2)"
        assert up is None and pt is None

    def test_var_free_false_raises(self):
        with pytest.raises(Unsatisfiable):
            cut_bounds([parse_formula("g2 < g1")], self.env)

    def test_conflicting_points(self):
        with pytest.raises(Unsatisfiable):
            cut_bounds([parse_formula("2*x = g1"), parse_formula("x = g2")],
                       self.env)

    def test_point_outside_bounds(self):
        with pytest.raises(Unsatisfiable):
            cut_bounds([parse_formula("x = g1"), parse_formula("g2 < x")],
                       self.env)

    def test_empty_open_interval_rejected(self):
        with pytest.raises(Unsatisfiable):
            cut_bounds([parse_formula("g2 < x"), parse_formula("x < g1")],
                       self.env)

    def test_nonlinear_rejected(self):
        with pytest.raises(NonlinearUnsupported):
            cut_bounds([parse_formula("x*x < g1")], self.env)

    def test_disjunction_rejected(self):
        with pytest.raises(ValueError):
            cut_bounds([parse_formula("x < g1 or g2 < x")], self.env)

    def test_literal_bounds_without_env(self):
        lo, up, pt = cut_bounds([parse_formula("t < x")], {})
        assert format_series(lo) == "t^(1)"

    def test_unit_literal_adds_to_the_constant(self):
        lo, up, pt = cut_bounds([parse_formula("t^(0) + 1 < x")], {})
        assert format_series(lo) == "2"

    def test_soundness_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            env = {"g1": random_series(rng, 2, max_terms=2, allow_zero=False),
                   "g2": random_series(rng, 2, max_terms=2, allow_zero=False)}
            texts = []
            for _ in range(rng.randint(1, 3)):
                c = rng.choice([1, 2, 3])
                s = rng.choice(["g1", "g2"])
                op = rng.choice(["lt", "gt", "eq"])
                if op == "eq":
                    texts.append(f"{c}*x = {s}")
                elif op == "lt":
                    texts.append(f"{c}*x < {s}")
                else:
                    texts.append(f"{s} < {c}*x")
            world = [parse_formula(tx) for tx in texts]
            try:
                lo, up, pt = cut_bounds(world, env)
            except Unsatisfiable:
                continue
            if lo is not None and up is not None and \
                    compare_series(lo, up) >= 0:
                continue  # empty cut: nothing to witness
            witness = _pick_witness(lo, up, pt)
            for tx in texts:
                assert eval_formula(parse_formula(tx), dict(env, x=witness))


def _reference_cut_bounds(constraints, env, var="x", dim=2):
    """cut_bounds as one loop of its own, before it became a fold of
    _merge_store: a false var-free atom or a second, different point raises
    at once; bounds are tightened in place and checked once, at the end."""
    dim = _infer_dim(None, env, dim)
    atoms = []
    for f in constraints:
        atoms.extend(_conjunct_atoms(f))
    lower = upper = point = None
    for a in atoms:
        solved = _solve_for(a, var)
        if solved is None:
            if not _eval_qf(a, env, dim):
                raise Unsatisfiable(f"constraint fails outright: {a}")
            continue
        coeff, bound_term = solved
        bound = _term_series(bound_term, env, dim)
        if a.rel == "=":
            if point is not None and compare_series(point, bound) != 0:
                raise Unsatisfiable("conflicting point constraints")
            point = bound
        elif coeff > 0:
            if upper is None or compare_series(bound, upper) < 0:
                upper = bound
        else:
            if lower is None or compare_series(bound, lower) > 0:
                lower = bound
    if not _consistent(lower, upper, point):
        raise Unsatisfiable("no value lies within the bounds")
    return lower, upper, point


def _reference_solve_for(a, var):
    """_solve_for as a Term round trip, before it read the canonical sides
    directly: pos - neg is built with plus/scaled, then rest/coeff."""
    diff = a.pos.plus(a.neg.scaled(Fraction(-1)))
    syms = diff.sym_dict()
    coeff = syms.pop(((var, 1),), None)
    for m in syms:
        if _nonlinear(m, var):
            raise NonlinearUnsupported(
                f"atom is not linear in {var}: {_format_mono(m)}")
    if coeff is None:
        return None
    rest = Term.build(syms, diff.lit_dict())
    return coeff, rest.scaled(Fraction(-1) / coeff)


class TestSolveFor:
    """_solve_for, which reads the canonical sides, against the Term round
    trip above on seeded atoms."""

    MONOS = [(("x", 1),), (("g1", 1),), (("g2", 1),), CONST]
    NONLINEAR = [(("x", 2),), (("g1", 1), ("x", 1))]
    EXPS = [(Fraction(1),), (Fraction(-1, 2),), (Fraction(0), Fraction(1))]

    def _term(self, rng):
        syms = {m: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for m in rng.sample(self.MONOS, rng.randint(0, 4))}
        if rng.random() < 0.1:
            syms[rng.choice(self.NONLINEAR)] = Fraction(rng.randint(1, 3))
        lits = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for e in rng.sample(self.EXPS, rng.randint(0, 2))}
        return Term.build(syms, lits)

    def _outcome(self, solve, a):
        try:
            return solve(a, "x")
        except NonlinearUnsupported as e:
            return str(e)

    def test_matches_the_round_trip(self):
        rng = random.Random(33)
        seen = Counter()
        for _ in range(3000):
            a = make_atom(rng.choice("<=>"), self._term(rng), self._term(rng))
            if not isinstance(a, Atom):
                continue
            want = self._outcome(_reference_solve_for, a)
            assert self._outcome(_solve_for, a) == want, str(a)
            kind = ("nonlinear" if isinstance(want, str)
                    else "absent" if want is None else "solved")
            seen[kind, a.rel] += 1
            if kind == "solved":
                seen["literal"] += bool(want[1].lits)
                seen["constant"] += CONST in want[1].sym_dict()
        assert min(seen[k, r] for k in ("nonlinear", "absent", "solved")
                   for r in "<=") > 0
        assert seen["literal"] and seen["constant"]


def _store_or_error(world, env):
    try:
        store = cut_bounds(world, env)
    except (Unsatisfiable, NonlinearUnsupported) as e:
        return type(e)
    return tuple(None if b is None else format_series(b) for b in store)


class TestCutBoundsFold:
    """cut_bounds, a fold of _merge_store over one-atom stores, against the
    reference loop above on seeded mixed worlds."""

    # g3 ties g1, so bounds and points tie; g1 < g2
    ENV = {"g1": parse_series("t^2"), "g2": parse_series("t"),
           "g3": parse_series("t^2")}
    LINEAR = ("g1 < x", "g3 < x", "x < g2", "x < g1", "2*x < g2",
              "g2 < 3*x", "x = g1", "x = g3", "2*x = g2", "x = g2",
              "g1 < g2", "g1 = g3", "g2 < g1", "g1 = g2")
    NONLINEAR = ("x*x < g1", "g1*x < g2")

    def _worlds(self, count):
        rng = random.Random(16)
        for _ in range(count):
            texts = [rng.choice(self.LINEAR)
                     for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                texts[rng.randrange(len(texts))] = \
                    rng.choice(self.NONLINEAR)
            yield [parse_formula(tx) for tx in texts]

    def test_fold_matches_the_reference_loop(self):
        reordered = 0
        for world in self._worlds(600):
            got = _store_or_error(world, self.ENV)
            try:
                want = _reference_cut_bounds(world, self.ENV)
            except (Unsatisfiable, NonlinearUnsupported) as e:
                want = type(e)
            else:
                want = tuple(None if b is None else format_series(b)
                             for b in want)
            if (got, want) == (Unsatisfiable, NonlinearUnsupported):
                # the one order the fold changes: it stops at the atom that
                # empties the store, so a nonlinear atom after an
                # inconsistent prefix is never read
                first = next(i for i, f in enumerate(world)
                             if _store_or_error([f], self.ENV)
                             is NonlinearUnsupported)
                assert _store_or_error(world[:first], self.ENV) \
                    is Unsatisfiable
                reordered += 1
                continue
            assert got == want, [str(f) for f in world]
        assert reordered > 0  # the sampler reaches the reordered case

    def test_nonlinear_atom_after_an_empty_interval_is_not_read(self):
        world = [parse_formula(tx) for tx in ("x < g1", "g2 < x", "x*x < g1")]
        with pytest.raises(Unsatisfiable):
            cut_bounds(world, self.ENV)
        with pytest.raises(NonlinearUnsupported):
            cut_bounds(world[2:] + world[:2], self.ENV)


@pytest.mark.parametrize("call", [
    lambda f, env: satisfiable(f, env),
    lambda f, env: conjoin([(None, None, None)], f, env),
    lambda f, env: cut_bounds([f], env),
], ids=["satisfiable", "conjoin", "cut_bounds"])
def test_mixed_dimensions_are_rejected(call):
    env = {"g1": monomial((Fraction(1),), 1, 2),
           "g2": monomial((Fraction(1),), 1, 3)}
    with pytest.raises(ValueError,
                       match="^environment series have mixed dimensions$"):
        call(parse_formula("g1 < x and x < g2"), env)


class TestSatisfiable:
    def setup_method(self):
        self.env = {"g1": parse_series("t^2"), "g2": parse_series("t")}

    def test_open_cut(self):
        f = parse_formula("g1 < x and x < g2")
        assert satisfiable(f, self.env) is True

    def test_empty_cut(self):
        f = parse_formula("g2 < x and x < g1")
        assert satisfiable(f, self.env) is False

    def test_disjunction_rescues(self):
        f = parse_formula("(g2 < x and x < g1) or 2*x = g1")
        assert satisfiable(f, self.env) is True

    def test_negation_normalizes(self):
        f = parse_formula("not (x < g1) and x < g2")
        assert satisfiable(f, self.env) is True

    def test_world_cap(self):
        branch = "(g2 < x and x < g1)"
        f = parse_formula(" or ".join([branch] * 70))
        with pytest.raises(BudgetExhausted):
            satisfiable(f, self.env, world_cap=64)
        # a generous cap scans them all and concludes unsatisfiable
        assert satisfiable(f, self.env, world_cap=128) is False

    def test_quantified_formula_is_eliminated_first(self):
        env = {"g1": parse_series("t")}
        between = parse_formula("exists y (x < y and y < g1)")
        assert satisfiable(between, env) is True
        assert conjoin([(None, None, None)], between, env) == \
            [(None, parse_series("t"), None)]
        outside = parse_formula("not exists y (x < y and y < g1)")
        assert satisfiable(outside, env) is True
        assert conjoin([(None, None, None)], outside, env) == \
            [(parse_series("t"), None, None), (None, None, parse_series("t"))]
        empty = parse_formula("exists y (y < x and x < y)")
        assert satisfiable(empty, env) is False
        assert conjoin([(None, None, None)], empty, env) == []

    def test_agrees_with_conjoin_on_qe_formulas(self):
        from test_acceptance import _random_qe_formula

        rng = random.Random(7)
        for _ in range(40):
            _, matrix, _ = _random_qe_formula(rng)
            env = {"a": random_series(rng, 2, max_terms=2),
                   "b": random_series(rng, 2, max_terms=2)}
            for f in (matrix, Not(matrix)):
                assert satisfiable(f, env) == \
                    bool(conjoin([(None, None, None)], f, env, "x"))


# bounds and points of random stores, and values of the parameters
_STORE_POINTS = [parse_series(text) for text in (
    "-1", "0", "t^2", "1/2*t", "t", "2*t", "1", "1 + t^2", "3")]


@st.composite
def _store_lists(draw):
    """A nonempty list of consistent (lower, upper, point) stores."""
    bound = st.none() | st.sampled_from(_STORE_POINTS)
    store = st.tuples(bound, bound, bound).filter(lambda s: _consistent(*s))
    return draw(st.lists(store, min_size=1, max_size=3))


class TestCovering:
    """The lemma behind completion's descent: a store holds a value, and that
    value satisfies f or not f, so one of the two conjunctions keeps a
    store."""

    @given(_store_lists(), st.sampled_from(["group", "field"]),
           st.integers(min_value=0, max_value=299),
           st.sampled_from(_STORE_POINTS), st.sampled_from(_STORE_POINTS))
    @settings(max_examples=300, deadline=None)
    def test_negation_or_formula_keeps_a_store(self, states, kind, i, g1, g2):
        f = enumerate_formulas(i, Signature(kind, ("x", "g1", "g2")))
        env = {"g1": g1, "g2": g2}
        assert conjoin(states, Not(f), env) or conjoin(states, f, env)


class TestEnumeration:
    def setup_method(self):
        self.sig = Signature("group", ("x", "g1", "g2"))

    def test_least_is_true(self):
        assert format_formula(enumerate_formulas(0, self.sig)) == "true"

    def test_first_block_frozen(self):
        got = [format_formula(enumerate_formulas(i, self.sig))
               for i in range(20)]
        assert got == [
            "true", "0 < x", "0 = x", "false", "x < 0",
            "0 < g1", "0 < g2", "0 = g1", "0 = g2", "g1 < 0",
            "g1 < x", "g1 = x", "g2 < 0", "g2 < x", "g2 = x",
            "x < g1", "x < g2", "g1 < g2", "g1 = g2", "g2 < g1",
        ]

    def test_length_lex_monotone(self):
        prints = [format_formula(enumerate_formulas(i, self.sig))
                  for i in range(400)]
        keys = [(len(p), p) for p in prints]
        assert keys == sorted(keys)

    def test_roundtrip(self):
        for i in range(1000):
            f = enumerate_formulas(i, self.sig)
            assert formula_index(f, self.sig) == i

    def test_injective(self):
        seen = set()
        for i in range(2000):
            p = format_formula(enumerate_formulas(i, self.sig))
            assert p not in seen
            seen.add(p)

    def test_enumerated_formulas_are_canonical(self):
        for i in range(300):
            p = format_formula(enumerate_formulas(i, self.sig))
            assert format_formula(parse_formula(p)) == p

    def test_field_includes_constants(self):
        sig = Signature("field", ("x", "y"))
        prints = [format_formula(enumerate_formulas(i, sig))
                  for i in range(2000)]
        assert "1 < x" in prints
        assert all("t^" not in p for p in prints)

    def test_group_has_no_constants(self):
        from hahnsat.formulas import CONST

        for i in range(2000):
            f = enumerate_formulas(i, self.sig)
            if isinstance(f, Atom):
                assert CONST not in dict(f.pos.syms)
                assert CONST not in dict(f.neg.syms)

    @pytest.mark.parametrize("kind", ["group", "field"])
    def test_sides_match_brute_force(self, kind):
        """Every side: per sorted symbol absent or a coefficient 1..99, for
        fields an optional trailing constant, joined by " + "; "0" if
        empty.  The enumerator gives exactly those of each print length."""
        sig = Signature(kind, ("x", "g1"))
        coeffs = range(1, _ENUM_COEFF_CAP + 1)
        options = [[None] + [(s if c == 1 else f"{c}*{s}", s,
                              (((s, 1),), Fraction(c))) for c in coeffs]
                   for s in sorted(sig.symbols)]
        if kind == "field":
            options.append([None] + [(str(c), None, (CONST, Fraction(c)))
                                     for c in coeffs])
        brute = {}
        for combo in product(*options):
            parts = [p for p in combo if p]
            text = " + ".join(p[0] for p in parts) or "0"
            if len(text) < 10:
                brute.setdefault(len(text), set()).add(
                    (text, frozenset(p[1] for p in parts if p[1]),
                     tuple(p[2] for p in parts)))
        for length in range(1, 10):
            assert set(_sides_of_length(sig, length)) == \
                brute.get(length, set())

    def test_outside_fragment_raises(self):
        with pytest.raises(ValueError):
            formula_index(parse_formula("t < x"), self.sig)
        with pytest.raises(ValueError):
            formula_index(parse_formula("100*x < g1"), self.sig)
        with pytest.raises(ValueError):
            formula_index(parse_formula("(x < g1 and x < g2)"), self.sig)

    def test_whole_small_fragment_then_exhausted(self):
        sig = Signature("group", ("x",))
        prints = [format_formula(enumerate_formulas(i, sig)) for i in range(5)]
        assert prints == ["true", "0 < x", "0 = x", "false", "x < 0"]
        with pytest.raises(ValueError, match="exhausted below index 5"):
            enumerate_formulas(5, sig)

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ValueError):
            Signature("group", ("t", "x"))
        with pytest.raises(ValueError):
            Signature("ring", ("x",))

    def test_evaluable(self):
        env = {"x": parse_series("t"), "g1": parse_series("t^2"),
               "g2": parse_series("-3 + t")}
        for i in range(200):
            assert eval_formula(enumerate_formulas(i, self.sig), env) in (True, False)

    def test_negated_atom_needs_no_recanonicalizing(self):
        """_nnf orders the sides of the = half of not (p < n) instead of
        rebuilding it; on canonical atoms that is make_atom's atom."""
        atoms = [parse_formula(text) for text in (
            "t^(1/2) + x < 2*g1", "x < 1 + t", "3*g1 + t^(0,1) < x")]
        for kind, symbols in (("group", ("x", "g1")),
                              ("group", ("x", "g1", "g2")),
                              ("field", ("x", "g1")),
                              ("field", ("x", "g1", "g2"))):
            atoms.extend(islice(_fragment(Signature(kind, symbols)), 1500))
        atoms = [a for a in atoms if isinstance(a, Atom) and a.rel == "<"]
        assert len(atoms) > 3000
        for a in atoms:
            assert _nnf(Not(a)) == Or(Atom("<", a.neg, a.pos),
                                      make_atom("=", a.neg, a.pos))


class TestWalks:
    """iter_atoms, free_symbols and the quantifier test descend through
    every connective."""

    f = parse_formula("not (a < x) and (b = x or exists y (y < x and c < y))")

    def test_iter_atoms(self):
        from hahnsat.formulas import iter_atoms

        assert [str(a) for a in iter_atoms(self.f)] == \
            ["a < x", "b = x", "y < x", "c < y"]

    def test_free_symbols(self):
        from hahnsat.formulas import free_symbols

        assert free_symbols(self.f) == {"a", "b", "c", "x"}

    def test_has_quantifier(self):
        from hahnsat.formulas import _has_quantifier

        assert _has_quantifier(self.f)
        assert not _has_quantifier(parse_formula("not (a < x) or b = x"))


class TestRationalPaths:
    """Solving and literal evaluation stay on integers and interned
    exponents."""

    def test_solve_for_uses_no_fraction_operator(self, monkeypatch):
        atoms = [parse_formula(text) for text in (
            "3/2*x + 2*g1 - 1/3*t^(1/2) < 5/7",
            "2*g1 + t^(1,-2) < 3*x + 1",
            "-7/4*x + g2 = g1 - 2*t^(-1/3)")]
        want = [_solve_for(a, "x") for a in atoms]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in _solve_for")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__neg__",
                     "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, refuse)
        got = [_solve_for(a, "x") for a in atoms]
        monkeypatch.undo()
        assert got == want

    def test_reevaluating_literals_builds_no_exponent(self, monkeypatch):
        lits = " + ".join(f"{k}*t^({k}/3)" if k % 2 else f"t^({k},-{k})"
                          for k in range(1, 17))
        a = parse_formula(f"{lits} + 2 < x")
        side = a.pos if a.pos.lits else a.neg
        assert len(side.lits) == 16 and side.sym_dict()[CONST]
        want = _term_series(side, {}, 3)
        calls = []
        make_exp = series_mod.make_exp
        for mod in (series_mod, formulas_mod):  # under either module's name
            monkeypatch.setattr(mod, "make_exp", lambda *args: calls.append(
                args) or make_exp(*args), raising=False)
        assert _term_series(side, {}, 3) == want
        assert calls == []
