"""Formula layer: parsing, canonical printing, evaluation, quantifier
elimination, cut extraction, and the atomic-fragment enumeration."""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice, product
from unittest.mock import patch

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
from hahnsat.formulas import (CONST, _ENUM_COEFF_CAP, AtomTable, Term,
                              _compiled, _conjunct_atoms, _consistent,
                              _eval_qf, _format_mono, _fragment, _infer_dim,
                              _nnf, _nonlinear, _sides_of_length, _solve_for,
                              _term_series, _worlds, make_atom)
from hahnsat.scalars import parse_rational
from hahnsat.series import (
    compare_series,
    format_series,
    monomial,
    parse_series,
    zero_series,
)
from hahnsat.series import multiply as series_multiply

from conftest import random_series


def roundtrip(text: str) -> str:
    return format_formula(parse_formula(text))


def _plus(a: Term, b: Term) -> Term:
    """a + b."""
    return Term.build(formulas_mod._summed(a.syms, b.syms),
                      formulas_mod._summed(a.lits, b.lits))


def _scaled(a: Term, q: Fraction) -> Term:
    """q * a."""
    return Term.build({m: c * q for m, c in a.syms},
                      {e: c * q for e, c in a.lits})


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
        # a zero factor absorbs the rest of its product
        assert roundtrip("x < g1*0*t") == "x < 0"
        assert roundtrip("x < 0*g1*t") == "x < 0"
        assert roundtrip("g1*g1 < x") == "g1^2 < x"
        assert roundtrip("2*t*3 < x") == "6*t^(1) < x"

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
        with pytest.raises(ParseError) as ei:
            parse_formula("x < g1*t*0")
        assert ei.value.column == 1  # fixed, not the product's column
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

    def test_an_oversized_power_is_a_located_error(self):
        # past int()'s 4300-digit limit the power token is a bad number at
        # its column, not a bare ValueError
        with pytest.raises(ParseError) as ei:
            parse_formula("exists x (x < a^" + "9" * 5000 + ")")
        assert ei.value.column == 17
        assert "Exceeds the limit" not in str(ei.value)

    @pytest.mark.parametrize("text, column", [("x < a^2²", 8),
                                              ("x < 2²", 6)])
    def test_non_decimal_digit_is_an_unexpected_character(self, text,
                                                          column):
        # '²' is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError,
                           match="unexpected character '²'") as ei:
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
            acc = _plus(acc, Term.build({((s, 1),): q}, {}))
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
    directly: pos - neg is built with _plus/_scaled, then rest/coeff."""
    diff = _plus(a.pos, _scaled(a.neg, Fraction(-1)))
    syms = dict(diff.syms)
    coeff = syms.pop(((var, 1),), None)
    for m in syms:
        if _nonlinear(m, var):
            raise NonlinearUnsupported(
                f"atom is not linear in {var}: {_format_mono(m)}")
    if coeff is None:
        return None
    rest = Term.build(syms, dict(diff.lits))
    return coeff, _scaled(rest, Fraction(-1) / coeff)


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
                seen["constant"] += CONST in dict(want[1].syms)
        assert min(seen[k, r] for k in ("nonlinear", "absent", "solved")
                   for r in "<=") > 0
        assert seen["literal"] and seen["constant"]


def _reference_make_atom(rel, left, right):
    """make_atom through Term arithmetic, before it subtracted and scaled
    the sides on integers: left - right by _plus/_scaled, then scaled by
    lcm/gcd as a Fraction."""
    if rel == ">":
        rel, left, right = "<", right, left
    diff = _plus(left, _scaled(right, Fraction(-1)))
    if diff == Term():
        return TrueF() if rel == "=" else FalseF()
    if not diff.lits and all(m == CONST for m, _ in diff.syms):
        c = dict(diff.syms)[CONST]
        if rel == "=":
            return TrueF() if c == 0 else FalseF()
        return TrueF() if c < 0 else FalseF()
    coeffs = [q for _, q in diff.syms + diff.lits]
    lcm = math.lcm(*(q.denominator for q in coeffs))
    g = math.gcd(*(q.numerator * (lcm // q.denominator) for q in coeffs))
    diff = _scaled(diff, Fraction(lcm, g))
    pos_s, neg_s, pos_l, neg_l = {}, {}, {}, {}
    for m, q in diff.syms:
        (pos_s if q > 0 else neg_s)[m] = abs(q)
    for e, q in diff.lits:
        (pos_l if q > 0 else neg_l)[e] = abs(q)
    pos, neg = Term.build(pos_s, pos_l), Term.build(neg_s, neg_l)
    return formulas_mod._equation(pos, neg) if rel == "=" \
        else Atom(rel, pos, neg)


def _reference_times(a, b):
    """The product of two Terms, as Term.times computed it."""
    a_const = not a.lits and all(m == CONST for m, _ in a.syms)
    b_const = not b.lits and all(m == CONST for m, _ in b.syms)
    if a_const:
        return _scaled(b, dict(a.syms).get(CONST, Fraction(0)))
    if b_const:
        return _scaled(a, dict(b.syms).get(CONST, Fraction(0)))
    if a.lits or b.lits:
        raise ParseError("literal t-powers may only be scaled or added", 1)
    return Term.build(formulas_mod._summed(
        (tuple(sorted(formulas_mod._summed(m1, m2).items())), c1 * c2)
        for m1, c1 in a.syms for m2, c2 in b.syms), {})


def _reference_signed_rational(toks, message):
    kind, val, col = toks.next()
    negate = val == "-"
    if negate:
        kind, val, col = toks.next()
    if kind != "num":
        raise ParseError(message, col)
    q = parse_rational(val, col - 1)
    return -q if negate else q


def _reference_lit_exponent(toks):
    if toks.peek()[1] != "(":
        return (_reference_signed_rational(toks, "expected an exponent"),)
    toks.next()
    coords = []
    while True:
        coords.append(_reference_signed_rational(
            toks, "expected an exponent coordinate"))
        kind, val, col = toks.next()
        if val == ")":
            return tuple(coords)
        if val != ",":
            raise ParseError("expected ',' or ')'", col)


def _reference_factor(toks):
    kind, val, col = toks.next()
    if kind == "num":
        return Term.build({CONST: parse_rational(val, col - 1)}, {})
    if kind == "t":
        exp = (Fraction(1),)
        if toks.peek()[1] == "^":
            toks.next()
            exp = _reference_lit_exponent(toks)
        return Term.build({}, {series_mod._strip_exp(exp): Fraction(1)})
    if kind == "ident":
        power = 1
        if toks.peek()[1] == "^":
            toks.next()
            pkind, pval, pcol = toks.next()
            if pkind != "num" or "/" in pval:
                raise ParseError("expected an integer power", pcol)
            power = int(pval)
            if power < 1:
                raise ParseError("powers must be positive", pcol)
        return Term.build({((val, power),): Fraction(1)}, {})
    raise ParseError(f"unexpected {val!r} in term", col)


def _reference_term(toks):
    products = []
    while not products or toks.peek()[1] in ("+", "-"):
        sign = Fraction(1)
        while toks.peek()[1] in ("+", "-"):
            if toks.next()[1] == "-":
                sign = -sign
        product = formulas_mod._parse_chain(toks, "*", _reference_factor,
                                            _reference_times)
        products.append(_scaled(product, sign))
    return reduce(_plus, products)


def _reference_atom(toks):
    left = _reference_term(toks)
    kind, val, col = toks.peek()
    if val not in ("<", "=", ">"):
        raise ParseError("expected a relation (<, =, >)", col)
    toks.next()
    return _reference_make_atom(val, left, _reference_term(toks))


def _reference_parse_formula(text):
    """parse_formula with the term layer it had before terms were read in
    one pass: a Term per factor and per product, products folded by
    _plus, numbers read by parse_rational, and _reference_make_atom."""
    with patch.object(formulas_mod, "_parse_atom", _reference_atom):
        return parse_formula(text)


def _parse_outcome(parse, text):
    try:
        f = parse(text)
    except ParseError as e:
        return "error", e.message, e.column
    return f, str(f)


def _corpus_text(rng, depth=0):
    """A seeded formula text: sums of 1-40 products of numbers (zero
    included), repeated symbols, powers and literals, under not, and, or,
    exists and forall."""
    if depth < 3 and rng.random() < 0.35:
        pick = rng.randrange(6)
        if pick == 0:
            return f"not {_corpus_text(rng, depth + 1)}"
        if pick in (1, 2):
            join = " and " if pick == 1 else " or "
            return f"({_corpus_text(rng, depth + 1)}{join}" \
                   f"{_corpus_text(rng, depth + 1)})"
        binder = rng.choice(("exists", "forall"))
        return f"{binder} {rng.choice('xyz')} ({_corpus_text(rng, depth + 1)})"
    if rng.random() < 0.05:
        return rng.choice(("true", "false"))
    return f"{_corpus_term(rng)} {rng.choice('<>=')} {_corpus_term(rng)}"


def _corpus_term(rng):
    out = []
    for i in range(rng.randint(1, 40)):
        sign = rng.choice(("", "", "-", "- -", "+"))
        out.append(f"{' + ' if i else ''}{sign}{_corpus_product(rng)}")
    return "".join(out)


def _corpus_product(rng):
    """Numbers times symbols, or numbers times one literal; one product
    in fifty mixes a literal with a symbol, which is an error."""
    factors = [rng.choice(("0", "1", "2", "12", "3/4", "0/3", "5/2"))
               for _ in range(rng.choice((0, 0, 1, 1, 2)))]
    literal = rng.random() < 0.35
    if not literal or rng.random() < 0.02:
        factors += [f"{sym}^{rng.randint(1, 3)}" if rng.random() < 0.2
                    else sym for sym in rng.choices(("a", "b", "g1", "x"),
                                                    k=rng.randint(0, 3))]
    if literal:
        coords = [f"{rng.choice(('', '-'))}{rng.randint(0, 5)}"
                  f"/{rng.randint(1, 3)}" for _ in range(rng.randint(1, 3))]
        factors.append(rng.choice(("t", f"t^{rng.randint(0, 4)}",
                                   f"t^({','.join(coords)})")))
    rng.shuffle(factors)
    return "*".join(factors or ["1"])


def _malformed(rng, text):
    """`text` with one character deleted, inserted or the tail cut."""
    i = rng.randrange(len(text) + 1)
    pick = rng.randrange(3)
    if pick == 0:
        return text[:i] + text[i + 1:]
    if pick == 1:
        return text[:i] + rng.choice(("*", "^", "/", "/0", "(", ")", "0", ",",
                                      "-", "<", "#", "²", "t")) + text[i:]
    return text[:i]


class TestParserAgainstReference:
    """parse_formula, which reads each term in one pass, against the Term
    arithmetic above: equal formulas and prints, and equal ParseErrors."""

    EDGES = ("1/0 < x", "x < t^(1/0)", "x < 3*1/0*g1", "x < 0*t^(2/0)",
             "x < 0*g1*t", "x < g1*t*0", "x < a^2²", "x < 2²", "x^0 < a",
             "x < a^1/2", "x < 007/014*a", "x = 3*t^(1,0) - t^1",
             f"x < {'9' * 5000}", f"x < {'9' * 5000}/2")

    def test_grammar_corpus(self):
        for text in self.EDGES:
            assert _parse_outcome(parse_formula, text) == \
                _parse_outcome(_reference_parse_formula, text), text
        rng = random.Random(30)
        kinds = Counter()
        for _ in range(600):
            text = _corpus_text(rng)
            for t in (text, _malformed(rng, text)):
                want = _parse_outcome(_reference_parse_formula, t)
                assert _parse_outcome(parse_formula, t) == want, t
                kinds[want[0] == "error"] += 1
        assert kinds[True] > 400 and kinds[False] > 500

    def test_c8_types_and_cli_generators(self, monkeypatch):
        import test_acceptance
        from hahnsat import cli

        texts = []

        def recorded(text):
            texts.append(text)
            return parse_formula(text)

        monkeypatch.setattr(test_acceptance, "parse_formula", recorded)
        monkeypatch.setattr(cli, "parse_formula", recorded)
        for seed in range(1000, 1050):
            test_acceptance._generated_type(seed)
        for gen in (cli._beta_generator("g1", "g2"),
                    cli._scalar_cut_generator("alg[-2,0,1;1,2]", "g1"),
                    cli._immediate_tail_generator()):
            for i in range(100):
                gen(i)
        assert len(texts) == 5300
        for text in texts:
            assert _parse_outcome(parse_formula, text) == \
                _parse_outcome(_reference_parse_formula, text), text

    def test_make_atom_on_rational_terms(self):
        term = TestSolveFor()._term
        rng = random.Random(34)
        for _ in range(2000):
            rel, left, right = rng.choice("<=>"), term(rng), term(rng)
            want = _reference_make_atom(rel, left, right)
            got = make_atom(rel, left, right)
            assert got == want and str(got) == str(want)

    def test_parsing_builds_a_fixed_number_of_terms(self, monkeypatch):
        # one Term per side, then make_atom's two, whatever the length
        build = Term.build.__func__
        calls = []

        def counted(cls, syms, lits):
            calls.append(1)
            return build(cls, syms, lits)

        monkeypatch.setattr(Term, "build", classmethod(counted))
        counts = []
        for n in (4, 40, 400):
            side = " + ".join(f"{k % 5 + 1}*t^({k}/{n + 1})"
                              for k in range(1, n + 1))
            calls.clear()
            parse_formula(f"{side} < x + 2*{side.replace('/', '/1')}")
            counts.append(len(calls))
        assert counts == [4, 4, 4]


class TestParserBoundary:
    """User text raises nothing but a ParseError with a column >= 1:
    seeded formula texts, series literals and type files, mutated and with
    characters from outside ASCII inserted (digits that `int` reads or
    not, a fraction, a numeral letter, fullwidth and mathematical digits,
    spaces, a line separator and a combining mark)."""

    POOL = ("\u00b2", "\u0663", "\u00bd", "\u2167", "\U0001d7ce", "\uff11",
            "\u00a0", "\u2028", "\u0301")
    SERIES = ("alg[-2,0,1;1,2]*t + 1", "3 - alg[-3,0,1;1,2]*t^(1/2)",
              "t^(1,-2) + 5/3*t^(0,1)", "-t^-1 + t^(1/2, 1, 2)", "0")
    GENERATORS = ("generator beta g1 g2", "generator immediate-tail",
                  "generator scalar_cut alg[-2,0,1;1,2] g1")

    def _spliced(self, rng, text):
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(self.POOL) + text[i:]
        return text

    def _variants(self, rng, text):
        return (text, self._spliced(rng, text),
                self._spliced(rng, _malformed(rng, text)))

    def _located(self, call, text):
        try:
            call(text)
        except ParseError as e:
            assert type(e.column) is int and e.column >= 1, (text, e.column)
            return True
        except Exception as e:  # noqa: BLE001 - the property under test
            pytest.fail(f"{type(e).__name__} on {text!r}: {e}")
        return False

    def test_formula_texts(self):
        rng = random.Random(32)
        errors = Counter()
        for _ in range(250):
            for text in self._variants(rng, _corpus_text(rng)):
                errors[self._located(parse_formula, text)] += 1
        assert errors[True] > 300 and errors[False] > 150

    def test_series_literals(self):
        rng = random.Random(33)
        texts = [format_series(random_series(rng, rng.randint(1, 3)))
                 for _ in range(150)]
        texts += [rng.choice(self.SERIES[2:]) for _ in range(30)]
        texts += self.SERIES[:2]  # each alg[ literal factors through sympy
        errors = Counter()
        for text in texts:
            for variant in self._variants(rng, text):
                for dim in (1, 2, 3):
                    errors[self._located(
                        lambda t: parse_series(t, dim), variant)] += 1
        assert errors[True] > 500 and errors[False] > 200

    def _type_file_texts(self):
        rng = random.Random(34)
        for _ in range(150):
            lines = [f"param {name} = "
                     + format_series(random_series(rng, 2, allow_zero=False))
                     for name in ("a", "b", "g1", "g2")]
            if rng.random() < 0.3:
                lines.append(f"formula {_corpus_text(rng)}")
            lines += [f"formula {rng.randint(1, 5)}*x {rng.choice('<>=')} "
                      f"{rng.choice(('a', 'g1 - b', '1/2*g2'))} + t^(1/2)"
                      for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.3:
                lines.append(rng.choice(self.GENERATORS[:2]))
            rng.shuffle(lines)
            text = "\n".join(["# seeded"] + lines) + "\n"
            if rng.random() < 0.6:
                text = self._spliced(rng, _malformed(rng, text))
            yield text
        yield f"param g1 = t\n{self.GENERATORS[2]}\n"

    def test_type_files(self, tmp_path):
        from hahnsat import cli

        path = tmp_path / "fuzz.type"

        def load(text):
            path.write_text(text, encoding="utf-8")
            cli.load_type_file(str(path), 2)

        errors = Counter()
        for text in self._type_file_texts():
            errors[self._located(load, text)] += 1
        assert errors[True] > 50 and errors[False] > 20

    def test_cli_main_exits_with_a_documented_code(self, tmp_path, capsys):
        # cli.main returns 0-3 on every text, raising nothing.  Height 2:
        # at the default 4, the four types whose four parameters all reach
        # the level scan enumerate 23^4 span elements and take 9-13 s each
        from hahnsat import cli

        path = tmp_path / "fuzz.type"
        codes = Counter()
        for text in self._type_file_texts():
            path.write_text(text, encoding="utf-8")
            try:
                code = cli.main(["realize", str(path), "--prefix", "8",
                                 "--height", "2"])
            except Exception as e:  # noqa: BLE001 - the property under test
                pytest.fail(f"{type(e).__name__} on {text!r}: {e}")
            assert code in (0, 1, 2, 3), text
            codes[code] += 1
        capsys.readouterr()
        assert min(codes[0], codes[2], codes[3]) > 3 and codes[1] > 100


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


def _c5_cases(count=30, envs=50):
    """The first `count` formulas of gate c5's generator (seed 105) and the
    first `envs` of its environments."""
    from test_acceptance import _random_qe_formula

    rng = random.Random(105)
    cases = [_random_qe_formula(rng) for _ in range(100)]
    return cases[:count], [{"a": random_series(rng, 2, max_terms=2),
                            "b": random_series(rng, 2, max_terms=2)}
                           for _ in range(envs)]


class TestCompiledFormula:
    """The generic satisfiable and conjoin compile each formula once per
    variable: its worlds and solves are shared across environments, the
    cache of compiled formulas is bounded, and what it keeps holds no
    series."""

    def test_matches_a_fresh_table_scan(self):
        cases, envs = _c5_cases()
        for _, matrix, _ in cases:
            for f in (matrix, Not(matrix)):
                for env in envs:
                    states = [(None, None, None), (None, env["b"], None)]
                    assert satisfiable(f, env) == \
                        AtomTable(env, "x", 2).satisfiable(_worlds(f))
                    assert conjoin(states, f, env) == \
                        AtomTable(env, "x", 2).conjoin(states, _worlds(f))

    def test_each_atom_is_solved_once_per_formula(self, monkeypatch):
        solved = Counter()
        solve = formulas_mod._solve_for

        def counting(a, var):
            solved[a, var] += 1
            return solve(a, var)

        monkeypatch.setattr(formulas_mod, "_solve_for", counting)
        _compiled.cache_clear()
        cases, envs = _c5_cases()
        for _, matrix, _ in cases:
            for f in (matrix, Not(matrix)):
                solved.clear()
                for env in envs:
                    satisfiable(f, env)
                    conjoin([(None, None, None)], f, env)
                assert solved and max(solved.values()) == 1

    def test_cache_stays_bounded(self):
        env = {"g1": parse_series("t")}
        for k in range(1, 101):
            satisfiable(parse_formula(f"{k}*x < g1"), env)
        info = _compiled.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_unit_holds_no_series_and_no_store(self):
        from test_engine import TestCompiledFragment

        cases, envs = _c5_cases(count=10, envs=5)
        for _, matrix, _ in cases:
            for f in (matrix, Not(matrix)):
                for env in envs:
                    conjoin([(None, None, None)], f, env)
                unit = _compiled(f, "x")
                assert unit.kept and len(unit)
                held = TestCompiledFragment._reachable((unit.kept, dict(unit)))
                assert not any(isinstance(o, series_mod.Series)
                               for o in held)
                assert (None, None, None) not in held

    def test_world_cap_holds_with_cached_worlds(self):
        env = {"g1": parse_series("t^2"), "g2": parse_series("t")}
        f = parse_formula(" or ".join(["(g2 < x and x < g1)"] * 70))
        for _ in range(2):
            with pytest.raises(BudgetExhausted):
                satisfiable(f, env, world_cap=64)
            assert len(_compiled(f, "x").kept) > 64
        assert satisfiable(f, env, world_cap=128) is False

    @pytest.mark.parametrize("last", ["x*x < 1", "x < 1"])
    def test_world_past_the_cap_stays_unexamined(self, last):
        # 64 unsatisfiable worlds fill the cap; the next is never folded,
        # so its nonlinear atom is never solved
        worlds = [f"(x < {k}*g1 and {k}*g1 < x)" for k in range(1, 65)]
        f = parse_formula(" or ".join(worlds + [last]))
        with pytest.raises(BudgetExhausted):
            satisfiable(f, {"g1": parse_series("t")})

    def test_units_solve_only_their_own_atoms(self):
        cases, envs = _c5_cases()
        for _, matrix, _ in cases:
            for f in (matrix, Not(matrix)):
                for env in envs:
                    satisfiable(f, env)
                    conjoin([(None, None, None)], f, env)
                unit = _compiled(f, "x")
                assert set(unit) <= {a for world in unit.kept for a in world}

    def test_nonlinear_atom_raises_on_every_call(self):
        f = parse_formula("x*x < 1 and g1 < 0")
        for _ in range(2):
            with pytest.raises(NonlinearUnsupported):
                satisfiable(f, {"g1": parse_series("t")})
        assert not _compiled(f, "x")  # no solve was kept

    def test_decides_without_elimination_or_evaluation(self, monkeypatch):
        # the world scan that checks quantifier elimination shares no work
        # with it
        cases, envs = _c5_cases(count=20, envs=10)
        want = [satisfiable(f, env) for _, matrix, _ in cases
                for f in (matrix, Not(matrix)) for env in envs]

        def refuse(*args, **kwargs):
            raise AssertionError("the world scan called QE or evaluation")

        _compiled.cache_clear()
        monkeypatch.setattr(formulas_mod, "doag_qe", refuse)
        monkeypatch.setattr(formulas_mod, "eval_formula", refuse)
        assert [satisfiable(f, env) for _, matrix, _ in cases
                for f in (matrix, Not(matrix)) for env in envs] == want


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


def _reference_has_quantifier(f):
    return isinstance(f, Exists) or any(
        map(_reference_has_quantifier, formulas_mod._parts(f)))


def _reference_eval_formula(f, env, dim=None):
    """eval_formula without either memo: a fresh quantifier walk, then every
    atom's terms evaluated on their own."""
    if _reference_has_quantifier(f):
        f = doag_qe(f)
    return _eval_qf(f, env, _infer_dim(f, env, dim))


def _nodes(f):
    yield f
    for g in formulas_mod._parts(f):
        yield from _nodes(g)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (compared by type)
        return type(exc)


class TestEvaluationMemos:
    """eval_formula keeps one term memo per call and each connective keeps
    its quantifier flag: the verdicts are the memo-free evaluation's, and
    the work is done once."""

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_c5_verdicts_match_the_reference(self, seed, dim):
        from test_acceptance import _random_qe_formula

        rng = random.Random(seed)
        _, matrix, quantified = _random_qe_formula(rng)
        env = {s: random_series(rng, dim, max_terms=2) for s in ("a", "b")}
        for f in (quantified, doag_qe(quantified)):
            assert eval_formula(f, env) == _reference_eval_formula(f, env)
        env["x"] = random_series(rng, dim, max_terms=2)
        assert eval_formula(matrix, env) == \
            _reference_eval_formula(matrix, env)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_random_verdicts_match_the_reference(self, data, dim):
        f = data.draw(_formula_strategy())
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        env = {s: random_series(rng, dim, max_terms=2) for s in "abcx"}
        assert _outcome(eval_formula, f, env) == \
            _outcome(_reference_eval_formula, f, env)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_the_stored_flag_equals_a_fresh_walk(self, data):
        f = data.draw(_formula_strategy())
        # f's nodes are shared by quantified and quantifier-free parents
        parents = [Exists("w", f), Not(f), And(f, TrueF()), Or(FalseF(), f)]
        for g in data.draw(st.permutations(parents)) + parents:
            for node in _nodes(g):
                assert formulas_mod._has_quantifier(node) == \
                    _reference_has_quantifier(node)

    @pytest.mark.parametrize("quantified_first", [True, False])
    def test_a_shared_body_keeps_its_own_answer(self, quantified_first):
        body = parse_formula("a < x and not (b < x)")
        parents = [(Exists("x", body), True), (Or(body, TrueF()), False)]
        for g, want in parents if quantified_first else parents[::-1]:
            assert formulas_mod._has_quantifier(g) is want
        assert formulas_mod._has_quantifier(body) is False
        # a quantifier below a connective is found through it
        assert formulas_mod._has_quantifier(
            And(parse_formula("a < b"), Not(Exists("y", body)))) is True

    def test_each_distinct_term_is_evaluated_once_per_call(self,
                                                           monkeypatch):
        from hahnsat.formulas import iter_atoms

        cases, envs = _c5_cases()
        eliminated = [doag_qe(quantified) for _, _, quantified in cases]
        evaluated, looked_up = Counter(), Counter()
        term_series = formulas_mod._term_series

        def counted(t, env, dim, values=None):
            (evaluated if values is None else looked_up)[t] += 1
            return term_series(t, env, dim, values)

        monkeypatch.setattr(formulas_mod, "_term_series", counted)
        shared = 0
        for qf in eliminated:
            terms = {t for a in iter_atoms(qf) for t in (a.pos, a.neg)}
            for env in envs[:10]:
                evaluated.clear()
                looked_up.clear()
                eval_formula(qf, env)
                assert set(evaluated) <= terms
                assert set(evaluated.values()) <= {1}
                shared += max(looked_up.values(), default=0) > 1
        assert shared > 0  # some call read a term that two atoms share

    def test_a_second_evaluation_walks_only_the_root(self, monkeypatch):
        cases, envs = _c5_cases()
        qf = next(g for g in (doag_qe(q) for _, _, q in cases)
                  if isinstance(g, (And, Or)))
        visits = []
        has_quantifier = formulas_mod._has_quantifier
        monkeypatch.setattr(formulas_mod, "_has_quantifier",
                            lambda f: visits.append(f) or has_quantifier(f))
        eval_formula(qf, envs[0])
        assert len(visits) > 1
        visits.clear()
        eval_formula(qf, envs[1])
        assert visits == [qf]


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
        assert len(side.lits) == 16 and dict(side.syms)[CONST]
        # a pure cache: start far below its bound, so that no clearing
        # between the two evaluations drops what the first one padded
        series_mod._EXPS.clear()
        want = _term_series(side, {}, 3)
        calls = []
        make_exp = series_mod.make_exp
        for mod in (series_mod, formulas_mod):  # under either module's name
            monkeypatch.setattr(mod, "make_exp", lambda *args: calls.append(
                args) or make_exp(*args), raising=False)
        assert _term_series(side, {}, 3) == want
        assert calls == []


class TestSymbolPowers:
    """_term_series raises a symbol to its power by repeated squaring."""

    def test_a_ten_digit_power_is_fast(self):
        p = 10 ** 9
        f = parse_formula(f"g1^{p} < x")
        env = {"g1": parse_series("t", 1), "x": parse_series("1", 1)}
        term = Term.build({(("g1", p),): Fraction(1)}, {})
        start = time.perf_counter()
        assert eval_formula(f, env)
        got = _term_series(term, env, 1)
        assert time.perf_counter() - start < 1
        assert format_series(got) == f"t^({p})"

    def test_squared_power_equals_the_repeated_product(self):
        rng = random.Random(35)
        multi = 0
        for p in range(1, 13):
            for _ in range(5):
                dim = rng.randint(1, 3)
                env = {}
                for name in ("g1", "g2"):
                    env[name] = random_series(rng, dim, 3)
                multi += len(env["g1"].terms) > 1
                r = rng.randint(1, 3)
                term = Term.build({(("g1", p), ("g2", r)): Fraction(1)}, {})
                want = reduce(series_multiply,
                              [env["g1"]] * p + [env["g2"]] * r)
                assert _term_series(term, env, dim) == want, (p, r, env)
        assert multi > 20
