"""Hahn-series core: valuation, arithmetic, order, literals."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from hahnsat import scalars
from hahnsat import series as series_mod
from hahnsat.errors import (
    ClassMismatch,
    ComparisonUndecidedAtPrecision,
    NegativeValuation,
    ParseError,
)
from hahnsat.formulas import format_formula, parse_formula
from hahnsat.scalars import (
    oracle_bits,
    real_algebraic,
    scalar_add,
    scalar_is_zero,
    scalar_neg,
    scalar_sign,
)
from hahnsat.series import (
    INFINITY,
    Exp,
    Series,
    _format_exp,
    add,
    add_scaled,
    arch_ratio,
    compare_series,
    diff_valuation,
    format_series,
    from_scalar,
    invert,
    linear_combination,
    make_exp,
    monomial,
    multiply,
    negate,
    parse_series,
    residue,
    restrict_exponents,
    scale,
    subtract,
    valuation,
    zero_series,
)

DIM = 2
SQRT2 = real_algebraic([-2, 0, 1], 1, 2)


def t_pow(q, c=1, dim=DIM):
    return monomial([F(q)], c, dim)


class TestValuation:
    def test_zero_is_infinity(self):
        assert valuation(zero_series(DIM)) is INFINITY

    def test_least_support_exponent(self):
        x = add(t_pow(F(1, 2), 3), t_pow(2))
        assert valuation(x) == make_exp([F(1, 2)], DIM)

    def test_cancellation_moves_valuation(self):
        x = subtract(t_pow(1), t_pow(2))
        y = add(negate(t_pow(1)), t_pow(3))
        assert valuation(add(x, y)) == make_exp([2], DIM)

    def test_infinity_ordering(self):
        e = make_exp([100], DIM)
        assert e < INFINITY
        assert INFINITY > e
        assert INFINITY == INFINITY
        assert INFINITY <= INFINITY
        assert not INFINITY < e

    def test_axioms(self):
        rng = random.Random(42)
        for _ in range(300):
            x = random_series(rng, DIM)
            y = random_series(rng, DIM)
            vx, vy = valuation(x), valuation(y)
            s = add(x, y)
            assert valuation(s) >= min(vx, vy)
            p = multiply(x, y)
            if vx is INFINITY or vy is INFINITY:
                assert valuation(p) is INFINITY
            else:
                assert valuation(p) == tuple(a + b for a, b in zip(vx, vy))
            assert valuation(negate(x)) == vx


class TestArithmetic:
    def test_add_exact(self):
        x = parse_series("1 + 2*t", DIM)
        y = parse_series("3*t - t^2", DIM)
        assert format_series(add(x, y)) == "1 + 5*t^(1) - t^(2)"

    def test_multiply_exact(self):
        x = parse_series("1 + t", DIM)
        assert format_series(multiply(x, x)) == "1 + 2*t^(1) + t^(2)"

    def test_multiply_cross_terms(self):
        x = parse_series("t^(1/2) + t", DIM)
        y = parse_series("t^(-1/2)", DIM)
        assert format_series(multiply(x, y)) == "1 + t^(1/2)"

    def test_zero_product_is_exact(self):
        x = parse_series("1 + t", DIM)
        assert multiply(x, zero_series(DIM)).is_zero()
        assert multiply(zero_series(DIM), x).is_zero()


class TestInvert:
    def test_monomial_exact(self):
        out = invert(t_pow(1))
        assert format_series(out) == "t^(-1)"

    def test_rational_exact(self):
        assert format_series(invert(from_scalar(F(2), DIM))) == "1/2"

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            invert(zero_series(DIM))

    def test_non_monomial_rejected(self):
        # 1/(1 + t) = 1 - t + t^2 - ... has infinite support
        with pytest.raises(ValueError, match="monomial"):
            invert(parse_series("1 + t", DIM))


class TestCompare:
    def test_big_vs_one(self):
        assert compare_series(t_pow(-1), from_scalar(F(1), DIM)) == 1

    def test_infinitesimal_order(self):
        assert compare_series(t_pow(1), t_pow(2)) == 1

    def test_algebraic_coefficient(self):
        x = monomial([1], SQRT2, DIM)
        y = t_pow(1, F(14142, 10000))
        assert compare_series(x, y) == 1

    def test_equal(self):
        assert compare_series(parse_series("1 + t", DIM), parse_series("t + 1", DIM)) == 0

    def test_coefficients_are_compared_not_combined(self, monkeypatch):
        """Order is read from the differing coefficient pair: no algebraic
        number is built or combined on the way."""
        sqrt3 = real_algebraic([-3, 0, 1], 1, 2)
        x = add(t_pow(1, SQRT2), t_pow(2))
        cases = [(t_pow(1, sqrt3), -1, (1, 0)),
                 (t_pow(1, SQRT2), 1, (2, 0)),
                 (t_pow(1, F(3, 2)), -1, (1, 0)),
                 (t_pow(3, sqrt3), 1, (1, 0))]

        def refuse(*args):
            raise AssertionError("scalar arithmetic in series order")

        monkeypatch.setattr(scalars, "_make_algebraic", refuse)
        monkeypatch.setattr(scalars, "_combine", refuse)
        for y, sign, gamma in cases:
            assert compare_series(x, y) == sign
            assert compare_series(y, x) == -sign
            assert diff_valuation(x, y) == gamma
            assert diff_valuation(y, x) == gamma

    def test_shared_oracle_coefficient_cancels(self):
        o = oracle_bits(0, lambda i: i % 2)
        x = add(t_pow(1, o), t_pow(2))
        y = add(t_pow(1, o), t_pow(2, 2))
        assert compare_series(x, y) == -1
        assert compare_series(y, x) == 1
        assert diff_valuation(x, y) == (2, 0)
        # a different oracle of the same value is still undecidable
        other = add(t_pow(1, oracle_bits(0, lambda i: i % 2)), t_pow(2))
        with pytest.raises(ComparisonUndecidedAtPrecision):
            compare_series(x, other)

    def test_order_compatibility_random(self):
        rng = random.Random(99)
        for _ in range(200):
            x = random_series(rng, DIM)
            y = random_series(rng, DIM)
            z = random_series(rng, DIM)
            c = compare_series(x, y)
            assert compare_series(add(x, z), add(y, z)) == c
            assert compare_series(y, x) == -c


class TestResidue:
    def test_constant_part(self):
        assert residue(parse_series("2 + 3*t", DIM)) == F(2)

    def test_positive_valuation_gives_zero(self):
        assert residue(t_pow(1)) == F(0)

    def test_negative_valuation_raises(self):
        with pytest.raises(NegativeValuation):
            residue(t_pow(-1))

    def test_ring_homomorphism_random(self):
        rng = random.Random(5)
        for _ in range(150):
            x = random_series(rng, DIM)
            y = random_series(rng, DIM)
            xs = {e: c for e, c in x.terms.items() if e >= (F(0),) * DIM}
            ys = {e: c for e, c in y.terms.items() if e >= (F(0),) * DIM}
            x, y = Series(xs, DIM), Series(ys, DIM)
            assert residue(add(x, y)) == residue(x) + residue(y)
            assert residue(multiply(x, y)) == residue(x) * residue(y)


class TestArchRatio:
    def test_same_class_rational(self):
        assert arch_ratio(t_pow(2, 3), t_pow(2)) == F(3)

    def test_lower_order_terms_ignored(self):
        y = parse_series("2*t + 7*t^3", DIM)
        assert arch_ratio(y, t_pow(1)) == F(2)

    def test_algebraic_ratio(self):
        assert arch_ratio(monomial([1], SQRT2, DIM), t_pow(1)) == SQRT2

    def test_zero_numerator(self):
        assert arch_ratio(zero_series(DIM), t_pow(1)) == F(0)

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatch):
            arch_ratio(t_pow(1), t_pow(2))

    def test_brute_force_archimedean_oracle(self):
        # arch_ratio(y, x) is the sup of rationals q with q*x < y when x > 0;
        # frozen against a denominator-bounded brute-force search
        y = parse_series("2*t + 7*t^3", DIM)
        x = t_pow(1)
        best = None
        for den in range(1, 65):
            num = 0
            while compare_series(scale(x, F(num + 1, den)), y) < 0:
                num += 1
            q = F(num, den)
            if best is None or q > best:
                best = q
        assert best == F(2)
        assert arch_ratio(y, x) == F(2)

    def test_ratio_respects_scaling_random(self):
        rng = random.Random(17)
        for _ in range(100):
            x = random_series(rng, DIM, allow_zero=False)
            q = F(rng.randint(1, 9), rng.randint(1, 9))
            assert arch_ratio(scale(x, q), x) == q


class TestDensity:
    def test_exponent_midpoint_strictly_between(self):
        rng = random.Random(3)
        for _ in range(200):
            a = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(DIM))
            b = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(DIM))
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            mid = tuple((p + q) / 2 for p, q in zip(lo, hi))
            assert lo < mid < hi


class TestLiterals:
    def test_golden_algebraic_witness(self):
        x = monomial([1], SQRT2, DIM)
        assert format_series(x) == "alg[-2,0,1;1,2]*t^(1)"
        assert parse_series("alg[-2,0,1;1,2]*t^(1)", DIM) == x

    def test_unit_coefficient_omitted(self):
        assert format_series(t_pow(F(1, 2))) == "t^(1/2)"

    def test_signs_in_separators(self):
        x = parse_series("-2 + t - 3*t^2", DIM)
        assert format_series(x) == "-2 + t^(1) - 3*t^(2)"

    def test_trailing_zero_coordinates_dropped(self):
        assert format_series(monomial([1, 0], 1, DIM)) == "t^(1)"
        assert format_series(monomial([0, 1], 1, DIM)) == "t^(0,1)"

    def test_zero_prints_as_zero(self):
        assert format_series(zero_series(DIM)) == "0"

    def test_scalar_only(self):
        assert format_series(from_scalar(F(-22, 7), DIM)) == "-22/7"

    def test_lenient_inputs(self):
        assert parse_series("t", DIM) == t_pow(1)
        assert parse_series("t^2", DIM) == t_pow(2)
        assert parse_series("t^(1/2,0)", DIM) == t_pow(F(1, 2))
        assert parse_series(" 1+ t ", DIM) == parse_series("1 + t", DIM)
        assert parse_series("t + t", DIM) == t_pow(1, 2)
        assert parse_series("t - t", DIM).is_zero()

    def test_parse_format_identity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            x = random_series(rng, DIM)
            text = format_series(x)
            assert parse_series(text, DIM) == x
            assert format_series(parse_series(text, DIM)) == text

    def test_parse_error_columns(self):
        with pytest.raises(ParseError) as ei:
            parse_series("1 + ", DIM)
        assert ei.value.column == 4
        with pytest.raises(ParseError):
            parse_series("", DIM)
        with pytest.raises(ParseError):
            parse_series("2*u^2", DIM)
        with pytest.raises(ParseError):
            parse_series("t^(1,2,3)", DIM)

    def test_restrict_exponents(self):
        x = parse_series("1 + t + t^2 + t^3", DIM)
        r = restrict_exponents(x, make_exp([2], DIM))
        assert format_series(r) == "1 + t^(1) + t^(2)"

    def test_format_exp_matches_the_stripped_exponent(self):
        def stripped(exp):
            coords = series_mod._strip_exp(exp)
            return "(" + (",".join(map(scalars.format_rational, coords))
                          or "0") + ")"

        rng = random.Random(36)
        grid = [0, 0, 1, -2, F(1, 3), F(-5, 2)]
        zeros = trailing = 0
        for _ in range(2000):
            coords = [rng.choice(grid) for _ in range(rng.randint(0, 4))]
            zeros += not any(coords)
            trailing += bool(coords) and coords[-1] == 0 and any(coords)
            for exp in (tuple(coords), tuple(map(F, coords)), Exp(coords)):
                assert _format_exp(exp) == stripped(exp)
        assert zeros and trailing
        assert _format_exp(Exp((0, 0))) == _format_exp(()) == "(0)"
        assert _format_exp(Exp((F(1, 2), 0, 0))) == "(1/2)"

    def test_printing_leaves_the_intern_table_alone(self):
        f = parse_formula("x < 2*t^(1/7,0) + t^(0,-3/11) and 5/9*t^(13/5) < x")
        x = parse_series("1 - 2*t^(1/7,0) + alg[-2,0,1;1,2]*t^(0,-3/11)",
                         DIM)
        series_mod._EXPS.clear()  # every exponent above is fresh now
        printed = (str(f), format_formula(f), format_series(x), repr(x))
        assert series_mod._EXPS == {}
        assert printed == (
            "(x < t^(0,-3/11) + 2*t^(1/7) and 5*t^(13/5) < 9*x)",
            "(x < t^(0,-3/11) + 2*t^(1/7) and 5*t^(13/5) < 9*x)",
            "alg[-2,0,1;1,2]*t^(0,-3/11) + 1 - 2*t^(1/7)",
            "<alg[-2,0,1;1,2]*t^(0,-3/11) + 1 - 2*t^(1/7)>")


# ---------------------------------------------------------------------------
# the trusted construction path

# int coordinates exercise the public constructor's normalization; the
# small grids make exponents collide and coefficients cancel
_COORD = st.sampled_from([-1, 0, 1, F(-1, 2), F(1, 2), F(3, 2)])
_COEFF = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2),
                          SQRT2, scalar_neg(SQRT2)])


def _exps(dim):
    return st.tuples(*[_COORD] * dim)


@st.composite
def _series(draw, dim=DIM):
    return Series(draw(st.dictionaries(_exps(dim), _COEFF, max_size=4)), dim)


def _pairs():
    """Independent pairs, equal pairs, and pairs that share a prefix."""
    return st.one_of(
        st.tuples(_series(), _series()),
        _series().map(lambda x: (x, x)),
        st.tuples(_series(), _series()).map(lambda p: (p[0], add(*p))),
        st.tuples(_series(), _series(dim=1)),
    )


def _assert_normal(r):
    for e, c in r.terms.items():
        assert type(e) is Exp and len(e) == r.dim
        assert e is Exp(tuple(e))  # the table's entry for its value
        assert all(type(q) is F for q in e)
        assert not scalar_is_zero(c)
    assert r == Series(r.terms, r.dim)
    assert r.sorted_terms() == \
        tuple(v for term in sorted(r.terms.items()) for v in term)


def _reference_compare(x, y):
    """Sign of the leading term of a subtraction rebuilt through the
    normalizing constructor."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    diff = dict(x.terms)
    for e, c in y.terms.items():
        diff[e] = scalar_add(diff[e], scalar_neg(c)) if e in diff \
            else scalar_neg(c)
    d = Series(diff, x.dim)
    return scalar_sign(d.terms[min(d.terms)]) if d.terms else 0


def _valuation_of_difference(x, y):
    return valuation(subtract(x, y))


class _UnhashableFraction(F):
    """An exponent coordinate whose hash raises while `armed` is set."""

    armed = False

    def __hash__(self):
        if _UnhashableFraction.armed:
            raise AssertionError("an exponent coordinate was hashed")
        return super().__hash__()


def _unhashable_exp(*coords):
    return tuple(_UnhashableFraction(q) for q in coords)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestTrustedPath:
    @given(_series(), _series(), _COEFF, _exps(DIM))
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_results_keep_the_invariant(self, x, y, c, cut):
        for r in (add(x, y), subtract(x, y), negate(x), scale(x, c),
                  multiply(x, y),
                  # the cross terms of (x + y)(x - y) cancel
                  multiply(add(x, y), subtract(x, y)),
                  restrict_exponents(x, cut)):
            _assert_normal(r)

    @given(_exps(DIM), _COEFF)
    def test_constructors_drop_zero_coefficients(self, e, c):
        for r in (monomial(e, c, DIM), from_scalar(c, DIM), zero_series(DIM)):
            _assert_normal(r)

    def test_public_constructor_reads_int_coefficients_as_fractions(self):
        x = Series({(0, 0): 2, (1, 0): 0}, DIM)
        want = Series({(0, 0): F(2)}, DIM)
        assert type(x.terms[(0, 0)]) is F and x.terms == want.terms
        assert x == want and hash(x) == hash(want)

    @given(_pairs())
    @settings(max_examples=300, deadline=None)
    def test_compare_matches_normalizing_subtraction(self, pair):
        x, y = pair
        assert _outcome(compare_series, x, y) == \
            _outcome(_reference_compare, x, y)
        assert _outcome(compare_series, y, x) == \
            _outcome(_reference_compare, y, x)

    @given(_pairs())
    @settings(max_examples=300, deadline=None)
    def test_diff_valuation_matches_valuation_of_difference(self, pair):
        x, y = pair
        assert _outcome(diff_valuation, x, y) == \
            _outcome(_valuation_of_difference, x, y)
        assert _outcome(diff_valuation, y, x) == \
            _outcome(_valuation_of_difference, y, x)

    def test_order_and_difference_valuation_never_hash_an_exponent(self):
        shared = _unhashable_exp(0, 0)
        x = Series._raw({shared: F(1), _unhashable_exp(1, 0): F(2),
                         _unhashable_exp(2, 0): F(3)}, DIM)
        y = Series._raw({shared: F(1), _unhashable_exp(1, 0): F(2),
                         _unhashable_exp(5, 2): F(-1)}, DIM)
        _UnhashableFraction.armed = True
        try:
            assert compare_series(x, y) == 1
            assert compare_series(y, x) == -1
            assert compare_series(x, x) == 0
            assert diff_valuation(x, y) == (2, 0)
            assert diff_valuation(y, y) is INFINITY
            assert valuation(y) == (0, 0)
        finally:
            _UnhashableFraction.armed = False


def _fold_combination(pairs, dim, terms=None):
    """Sum q * g as a fold of `add` over `scale`, from the series of
    `terms`."""
    out = Series._raw(dict(terms or {}), dim)
    for q, g in pairs:
        out = add(out, scale(g, q))
    return out


class TestLinearCombination:
    """`linear_combination` against the fold of `add` over `scale`."""

    GRID = [F(-1), F(0), F(1, 2), F(1), F(2)]
    COEFFS = [F(-3), F(-1), F(-1, 2), F(1), F(2), SQRT2, scalar_neg(SQRT2)]
    WEIGHTS = [F(0), F(1), F(-1), F(1, 3), F(-5, 2), F(4)]

    def _operand(self, rng):
        return Series({tuple(rng.choice(self.GRID) for _ in range(DIM)):
                       rng.choice(self.COEFFS)
                       for _ in range(rng.randint(0, 4))}, DIM)

    def _cases(self, count):
        rng = random.Random(21)
        for _ in range(count):
            pairs = [(rng.choice(self.WEIGHTS), self._operand(rng))
                     for _ in range(rng.randint(0, 4))]
            if pairs and rng.random() < 0.25:
                # a pair and its negation cancel in full
                q, g = rng.choice(pairs)
                pairs.append((-q, g))
            lits = {}
            if rng.random() < 0.5:
                lits = {make_exp([rng.choice(self.GRID)], DIM): F(1, 3)}
            yield pairs, lits

    def test_matches_the_fold(self):
        cancelled = algebraic = 0
        for pairs, lits in self._cases(600):
            got = linear_combination(pairs, DIM, dict(lits))
            want = _fold_combination(pairs, DIM, lits)
            assert got.terms == want.terms
            _assert_normal(got)
            cancelled += not got.terms and any(q for q, _ in pairs)
            algebraic += any(not isinstance(c, F)
                             for c in got.terms.values())
        assert min(cancelled, algebraic) > 0

    def test_zero_weights_drop_out_unchecked(self):
        # a pair with q = 0 is never read, its dimension included
        got = linear_combination([(F(0), t_pow(1, dim=1)), (F(2), t_pow(2))],
                                 DIM)
        assert got == scale(t_pow(2), 2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linear_combination([(F(1), t_pow(1, dim=1))], DIM)


class TestMappedOrder:
    """Scaling by one returns the operand."""

    @given(_series())
    def test_scaling_by_one_returns_the_operand(self, x):
        assert scale(x, 1) is x and scale(x, F(1)) is x


@st.composite
def _any_dim_series(draw, dim):
    """A series of `dim` coordinates with rational and algebraic
    coefficients; about one in four has no terms."""
    terms = draw(st.just({}) | st.dictionaries(_exps(dim), _COEFF,
                                               max_size=4))
    return Series(terms, dim)


def _same_dim_pairs():
    return st.integers(1, 3).flatmap(
        lambda d: st.tuples(_any_dim_series(d), _any_dim_series(d)))


class TestSumFastPaths:
    """`add` returns an operand beside the exact zero and `scale` by a
    rational multiplies on integers: both agree with the generic sums."""

    @given(_same_dim_pairs())
    @settings(max_examples=300)
    def test_add_matches_the_constructor_sum(self, pair):
        x, y = pair
        summed = dict(x.terms)
        for e, c in y.terms.items():
            summed[e] = scalar_add(summed[e], c) if e in summed else c
        want = Series(summed, x.dim)
        for got in (add(x, y), add(y, x)):
            assert got.terms == want.terms
            _assert_normal(got)

    @given(st.integers(1, 3).flatmap(_any_dim_series))
    def test_the_exact_zero_returns_the_other_operand(self, x):
        zero = zero_series(x.dim)
        assert add(zero, x) is x
        assert add(x, zero) is (zero if x.is_zero() else x)

    def test_a_dimension_mismatch_with_zero_still_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            add(zero_series(1), t_pow(1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            add(t_pow(1), zero_series(1))

    @given(st.integers(1, 3).flatmap(_any_dim_series),
           st.sampled_from([F(-3), F(-1), F(1, 2), F(2), F(-5, 7), 3,
                            SQRT2, scalar_neg(SQRT2)]))
    def test_scale_matches_the_mapped_product(self, x, q):
        got = scale(x, q)
        want = series_mod._mapped(
            x, lambda c: scalars.scalar_mul(c, F(q) if type(q) is int else q))
        assert got.terms == want.terms
        _assert_normal(got)


class TestAddScaled:
    """`add_scaled(d, u, q)`, which builds the engine's probes d + q*u,
    equals add(d, scale(u, q)), and the order it keeps equals a fresh
    sort of its terms."""

    def _check(self, d, u, q):
        got = add_scaled(d, u, q)
        want = add(d, scale(u, q))
        assert (got.dim, got.terms) == (want.dim, want.terms)
        assert got == want and hash(got) == hash(want)
        fresh = Series._raw(dict(got.terms), got.dim)
        assert got.sorted_terms() == fresh.sorted_terms()
        return got

    @given(_same_dim_pairs(),
           st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-5, 7), 3,
                            SQRT2, scalar_neg(SQRT2)]))
    @settings(max_examples=400)
    def test_matches_add_of_scale(self, pair, q):
        self._check(*pair, q)

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_one_term_before_inside_or_after_the_support(self, where):
        d = add(t_pow(1, 3), t_pow(3, -1))
        got = self._check(d, t_pow(where), F(1, 2))
        assert [e[0] for e in got.sorted_terms()[::2]] == \
            sorted([1, 3, where])

    def test_multi_term_interleaves(self):
        d = add(t_pow(1), t_pow(3))
        u = add(add(t_pow(0), t_pow(2, 5)), t_pow(4, -2))
        got = self._check(d, u, F(-3))
        assert [e[0] for e in got.sorted_terms()[::2]] == [0, 1, 2, 3, 4]

    def test_a_cancelling_term_is_dropped(self):
        d = add(t_pow(1), t_pow(2, 2))
        got = self._check(d, add(t_pow(2), t_pow(3)), F(-2))
        assert got.sorted_terms() == (Exp((1, 0)), F(1), Exp((3, 0)), F(-2))
        assert self._check(t_pow(2, 2), t_pow(2), F(-2)).terms == {}

    def test_an_equal_but_distinct_exponent_adds(self):
        d = add(t_pow(1), t_pow(2))
        series_mod._EXPS.clear()
        u = add(t_pow(2, 3), t_pow(4))
        mine, theirs = Exp((2, 0)), next(e for e in d.terms if e[0] == 2)
        assert mine == theirs and mine is not theirs
        got = self._check(d, u, F(1, 3))
        assert got.terms[mine] == F(2)

    GRID = [F(-1), F(0), F(1, 3), F(1), F(2)]
    COEFFS = [F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(2), SQRT2,
              scalar_neg(SQRT2)]
    WEIGHTS = [F(1), F(-1), F(1, 2), F(-5, 7), 3, SQRT2, scalar_neg(SQRT2)]

    def _operand(self, rng):
        return Series({tuple(rng.choice(self.GRID) for _ in range(DIM)):
                       rng.choice(self.COEFFS)
                       for _ in range(rng.randint(0, 6))}, DIM)

    def test_the_carried_hash_is_the_fresh_hash(self):
        rng = random.Random(36)
        seen = Counter()
        for _ in range(1500):
            d, u, q = self._operand(rng), self._operand(rng), \
                rng.choice(self.WEIGHTS)
            if d.terms and rng.random() < 0.4:
                # u takes some terms of d times -1/q: they cancel
                picked = rng.sample(sorted(d.terms), rng.randint(1, 2)
                                    if len(d.terms) > 1 else 1)
                back = scalars.scalar_inv(scalar_neg(F(q) if type(q) is int
                                                     else q))
                u = add(u, Series({e: scalars.scalar_mul(d.terms[e], back)
                                   for e in picked}, DIM))
            if rng.random() < 0.3:
                d = _plain_series(d)
            if rng.random() < 0.3:
                u = _plain_series(u)
            hashed = rng.random() < 0.6
            if hashed:
                d_hash = hash(d)
            got = add_scaled(d, u, q)
            want = add(d, scale(u, q))
            assert (got.dim, got.terms) == (want.dim, want.terms)
            carried = got._hash is not None and got is not d
            seen["unhashed"] += not hashed and got._hash is None
            fresh = Series(dict(got.terms), got.dim)
            assert hash(got) == hash(fresh) == hash(want)
            assert {fresh: 1}[got] == {got: 1}[fresh] == 1
            if hashed:
                assert hash(d) == d_hash
            seen["carried"] += carried
            seen["cancelled"] += carried and \
                len(got.terms) < len(d.terms.keys() | u.terms.keys())
            seen["algebraic"] += carried and any(
                not isinstance(c, F) for c in got.terms.values())
            seen["plain"] += carried and any(
                type(e) is not Exp for e in got.terms)
        assert min(seen.values()) > 25, seen


# ---------------------------------------------------------------------------
# interned exponents against plain tuples


def _plain(x):
    """The terms of x with plain tuples of fresh Fractions as exponents: no
    object shared with the intern table."""
    return {tuple(F(q.numerator, q.denominator) for q in e): c
            for e, c in x.terms.items()}


def _plain_series(x):
    """x rebuilt through the trusted constructor on plain-tuple keys."""
    return Series._raw(_plain(x), x.dim)


def _ref_normal(terms):
    return {e: c for e, c in terms.items() if not scalar_is_zero(c)}


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = scalar_add(out[e], c) if e in out else c
    return _ref_normal(out)


def _ref_map(x, fn):
    return {e: fn(c) for e, c in x.items()}


def _ref_multiply(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            p = scalars.scalar_mul(c1, c2)
            out[e] = scalar_add(out[e], p) if e in out else p
    return _ref_normal(out)


def _ref_sign_and_valuation(x, y):
    """The sign and the valuation of x - y."""
    terms = _ref_add(x, _ref_map(y, scalar_neg))
    if terms:
        e = min(terms)
        return scalar_sign(terms[e]), e
    return 0, INFINITY


class TestInternedExponents:
    @given(_exps(DIM), _exps(DIM))
    @settings(deadline=None)
    def test_exp_agrees_with_its_tuple(self, t, u):
        e = Exp(t)
        assert e == t and t == e and not e != t
        assert hash(e) == hash(t)
        assert e is Exp(t) is Exp(e)
        assert (e == Exp(u)) == (t == u)
        assert (e < Exp(u)) == (t < u)
        series_mod._EXPS.clear()
        again = Exp(t)
        assert again is not e
        assert again == e and e == again and not again != e
        assert hash(again) == hash(e)
        assert (again == Exp(u)) == (t == u)

    def test_int_coordinates(self):
        e = Exp((-1, -1))
        assert all(type(q) is F for q in e)
        assert e is Exp((F(-1), F(-1)))
        assert _format_exp((-1, -1)) == _format_exp(e) == "(-1,-1)"

    @given(_series(), _series(), _COEFF)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_agrees_with_plain_tuples(self, x, y, c):
        px, py = _plain(x), _plain(y)
        for a, b in ((x, y), (_plain_series(x), _plain_series(y))):
            assert _plain(add(a, b)) == _ref_add(px, py)
            assert _plain(multiply(a, b)) == _ref_multiply(px, py)
            assert _plain(negate(a)) == _ref_map(px, scalar_neg)
            if not scalar_is_zero(c):
                assert _plain(scale(a, c)) == \
                    _ref_map(px, lambda q: scalars.scalar_mul(q, c))
            assert (compare_series(a, b), diff_valuation(a, b)) == \
                _ref_sign_and_valuation(px, py)
            assert a.sorted_terms() == \
                tuple(v for e in sorted(px) for v in (e, px[e]))
        assert x == _plain_series(x) and hash(x) == hash(_plain_series(x))

    def test_equal_supports_built_apart_compare_by_identity(self,
                                                            monkeypatch):
        text = "1 + 2*t^(1/2) - t^(1,-1/3) + 5*t^(3/2,2)"
        x = parse_series(text, DIM)
        y = parse_series(text, DIM)
        longer = parse_series(text + " + t^(4)", DIM)
        coords = {id(q) for s in (x, y, longer) for e in s.terms for q in e}
        for s in (x, y, longer):
            s.sorted_terms()  # sorted once per series, before any walk
        touched = []

        def counted(name):
            real = getattr(F, name)

            def method(q, *other):
                if id(q) in coords or any(id(o) in coords for o in other):
                    touched.append(name)
                return real(q, *other)
            return method

        monkeypatch.setattr(F, "__eq__", counted("__eq__"))
        monkeypatch.setattr(F, "__hash__", counted("__hash__"))
        assert series_mod._first_difference(x, y) is None
        assert compare_series(x, y) == 0
        assert compare_series(longer, x) == 1
        assert diff_valuation(x, longer) == make_exp([4], DIM)
        assert touched == []

    def test_monomial_pads_a_known_exponent_once(self, monkeypatch):
        series_mod._EXPS.clear()  # a pure cache: start far below its bound
        spellings = [(1,), [F(1)], (F(1), 0), make_exp([1], DIM)]
        want = make_exp([1], DIM)
        for e in spellings:
            assert next(iter(monomial(e, 3, DIM).terms)) is want
        assert from_scalar(F(2), DIM) == monomial((0, 0), 2, DIM)
        calls = []
        real = series_mod.make_exp
        monkeypatch.setattr(series_mod, "make_exp", lambda *args: calls.append(
            args) or real(*args))
        for e in spellings:
            assert next(iter(monomial(e, 3, DIM).terms)) is want
        assert from_scalar(F(2), DIM) == monomial((0, 0), 2, DIM)
        assert calls == []
        saved, series_mod._TABLE_MAX = series_mod._TABLE_MAX, 1
        try:  # past the bound the table is cleared; the value stays
            assert monomial((F(1, 7),), 1, DIM).terms == {
                Exp((F(1, 7), 0)): F(1)}
        finally:
            series_mod._TABLE_MAX = saved


# ---------------------------------------------------------------------------
# exponent order by stored keys, coefficient equality by integer pairs

_THIRD = F(1, 3)
# coordinates whose floats tie (1/3 and its neighbours 10**-40 away; the
# zeros and +-10**-400), and coordinates beyond float range
_ODD_COORD = st.sampled_from([
    _THIRD, _THIRD + F(1, 10**40), _THIRD - F(1, 10**40), F(0),
    F(1, 10**400), -F(1, 10**400), F(10**400), F(10**400) + 1,
    -F(10**400), -F(10**400) - F(1, 2)])
_ORDER_COORD = _ODD_COORD | st.fractions(min_value=-3, max_value=3,
                                         max_denominator=4)
_ORDER_EXP = st.tuples(*[_ORDER_COORD] * DIM)
_FRESH = iter(range(10**9, 10**10))  # values no other test interns


def _rebuilt(t):
    """Exp(t) built afresh after the intern tables are cleared past
    _TABLE_MAX (lowered to 1 for one new value): equal to the first one,
    with none of its coordinates."""
    first = Exp(t)
    saved, series_mod._TABLE_MAX = series_mod._TABLE_MAX, 1
    try:
        Exp((next(_FRESH), 0))
    finally:
        series_mod._TABLE_MAX = saved
    again = Exp(t)
    assert all(p is not q for p, q in zip(first, again))
    return again


_ORDERS = ("__lt__", "__le__", "__gt__", "__ge__")


class TestExponentOrder:
    """`<`, `<=`, `>`, `>=` and `sorted` on `Exp` against plain tuples of
    Fractions."""

    @given(st.lists(_ORDER_EXP, min_size=2, max_size=6))
    @settings(deadline=None)
    def test_order_is_the_order_of_plain_tuples(self, ts):
        es = [Exp(t) for t in ts] + [_rebuilt(ts[0])]
        ts = ts + [ts[0]]
        for a, ta in zip(es, ts):
            for b, tb in zip(es, ts):
                for op in _ORDERS:
                    assert getattr(a, op)(b) is getattr(ta, op)(tb)
                    assert getattr(a, op)(tb) is getattr(ta, op)(tb)
                    assert getattr(tb, op)(a) is getattr(tb, op)(ta)
        assert [tuple(e) for e in sorted(es)] == sorted(ts)

    @given(_ORDER_EXP)
    @settings(deadline=None)
    def test_infinity_is_above_every_exponent(self, t):
        e = Exp(t)
        assert e < INFINITY and e <= INFINITY
        assert not e > INFINITY and not e >= INFINITY
        assert INFINITY > e and not INFINITY < e
        assert max(e, INFINITY) is INFINITY and min(INFINITY, e) is e

    def test_sorted_terms_on_tied_and_huge_exponents(self):
        exps = [(_THIRD + F(1, 10**40), 0), (_THIRD, 1), (_THIRD, 0),
                (F(10**400) + 1, 0), (F(10**400), 0), (-F(10**400), 5)]
        x = Series({e: F(k + 1) for k, e in enumerate(exps)}, DIM)
        assert x.sorted_terms()[::2] == tuple(sorted(exps))


def _twin(c):
    """A coefficient equal to c that is not c itself."""
    twin = scalar_neg(scalar_neg(c))
    assert twin == c and twin is not c
    return twin


def _reference_first_difference(x, y):
    """`_first_difference` by `==` on every pair of coefficients, over the
    union of the supports sorted as plain tuples."""
    for e in sorted(set(x.terms) | set(y.terms), key=tuple):
        cx, cy = x.terms.get(e, F(0)), y.terms.get(e, F(0))
        if not cx == cy:
            return e, cx, cy
    return None


class TestFirstDifferenceCoefficients:
    """The integer-pair equality of two Fractions against `==`, on series
    that put Fraction and RealAlgebraic coefficients at the same
    exponents."""

    GRID = [(0, 0), (F(1, 2), 0), (1, 0), (1, -1)]
    COEFFS = [F(-1), F(1, 2), F(2, 3), F(1), SQRT2, scalar_neg(SQRT2)]

    def _series(self, rng, terms=None):
        if terms is None:
            terms = {rng.choice(self.GRID): rng.choice(self.COEFFS)
                     for _ in range(rng.randint(0, 3))}
        return Series(terms, DIM)

    def test_matches_the_eq_walk(self):
        rng = random.Random(22)
        mixed = skipped = 0
        for _ in range(1500):
            x = self._series(rng)
            terms = {e: _twin(c) for e, c in x.terms.items()}
            if not terms or rng.random() < 0.5:
                terms[rng.choice(self.GRID)] = rng.choice(self.COEFFS)
            y = self._series(rng, terms)
            for a, b in ((x, y), (y, x)):
                got = series_mod._first_difference(a, b)
                assert got == _reference_first_difference(a, b)
                if got is None:
                    continue
                e, ca, cb = got
                mixed += e in a.terms and e in b.terms and \
                    type(ca) is not type(cb)
                skipped += any(e2 < e for e2 in a.terms if e2 in b.terms)
        assert min(mixed, skipped) > 0


class TestSplitter:
    """Top-level splitting of series literals: bracket depth, signs, and
    the error columns of brackets, exponents and coefficients."""

    @pytest.mark.parametrize("text, message, column", [
        ("t)", "unbalanced brackets", 2),
        ("t^(1))", "unbalanced brackets", 6),
        ("t^(1", "unbalanced brackets", 4),
        ("1 + + t", "empty term", 5),
        ("t^(x)", "bad exponent coordinate 'x'", 4),
        ("1 + t^( 1, y)", "bad exponent coordinate 'y'", 12),
        ("t^ 1/0", "bad exponent coordinate '1/0'", 4),
        ("t^(1,2,3)", "exponent has 3 coordinates, dimension is 2", 8),
        ("2 + q*t", "bad rational 'q'", 5),
    ])
    def test_errors(self, text, message, column):
        with pytest.raises(ParseError) as ei:
            parse_series(text, DIM)
        assert (ei.value.message, ei.value.column) == (message, column)

    def test_signed_exponent_is_not_a_split(self):
        assert format_series(parse_series("t^-1", DIM)) == "t^(-1)"

    def test_sign_after_bracket_splits(self):
        assert format_series(parse_series("t^(1)-2", DIM)) == "-2 + t^(1)"


# ---------------------------------------------------------------------------
# rational coefficients combined on their integers


class _SubFraction(F):
    """A Fraction subclass: the integer kernels leave it to Fraction."""


def _old_add(a, b):
    """scalar_add before the integer kernels: Fraction's own + on any two
    Fractions, subclasses included."""
    if isinstance(a, F) and isinstance(b, F):
        return a + b
    return scalar_add(a, b)


def _old_mul(a, b):
    if isinstance(a, F) and isinstance(b, F):
        return a * b
    return scalars.scalar_mul(a, b)


def _old_fold(pairs, dim):
    """Sum q * g term by term with the old scalar arithmetic, in the order
    linear_combination and add combine the terms."""
    out = {}
    for q, g in pairs:
        if scalar_is_zero(q):
            continue
        for e, c in g.terms.items():
            c = c if q == 1 else _old_mul(c, q)
            if e in out:
                c = _old_add(out[e], c)
                if scalar_is_zero(c):
                    del out[e]
                    continue
            out[e] = c
    return out


def _printed(terms):
    """Each coefficient's kind and print: equal for the same value built by
    the same operations, oracle reals included."""
    return {e: (type(c), scalars.format_scalar(c)) for e, c in terms.items()}


class TestMixedCoefficients:
    """add, scale and linear_combination on coefficients the integer
    kernels do not take (a Fraction subclass, algebraic and oracle reals),
    mixed with Fractions, give what the old scalar_* fold gives."""

    ORACLE = oracle_bits(0, lambda i: i % 2, "alternating")
    COEFFS = [F(1, 2), F(-3), F(3, 4), _SubFraction(2, 3), _SubFraction(-1, 2),
              SQRT2, scalar_neg(SQRT2), ORACLE]
    GRID = [F(0), F(1, 2), F(1)]

    def _operand(self, rng):
        return Series({(rng.choice(self.GRID), rng.choice(self.GRID)):
                       rng.choice(self.COEFFS)
                       for _ in range(rng.randint(0, 4))}, DIM)

    def test_match_the_old_fold(self):
        rng = random.Random(12)
        kinds = set()
        for _ in range(150):
            x, y = self._operand(rng), self._operand(rng)
            q = rng.choice(self.COEFFS)
            pairs = [(rng.choice(self.COEFFS), self._operand(rng))
                     for _ in range(rng.randint(1, 3))]
            assert _printed(add(x, y).terms) == \
                _printed(_old_fold([(F(1), x), (F(1), y)], DIM))
            assert _printed(scale(x, q).terms) == \
                _printed({e: _old_mul(c, q) for e, c in x.terms.items()})
            assert _printed(linear_combination(pairs, DIM).terms) == \
                _printed(_old_fold(pairs, DIM))
            kinds.update(type(c) for c in add(x, y).terms.values())
        assert kinds == {F, _SubFraction, scalars.RealAlgebraic,
                         scalars.OracleReal}


class TestRationalFastPath:
    """On rational series the kernels never reach Fraction's operators."""

    OPERATORS = ("__mul__", "__rmul__", "__add__", "__radd__", "__neg__",
                 "__truediv__", "__rtruediv__")

    def test_series_kernels_use_no_fraction_operator(self, monkeypatch):
        rng = random.Random(5)
        xs = [random_series(rng, DIM) for _ in range(40)]
        for x in xs[::2]:
            x.sorted_terms()  # half the operands with a computed order
        qs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in xs]
        lit = make_exp([7], DIM)

        def run():
            out = []
            for x, y, q in zip(xs, xs[1:], qs):
                # x's pairs cancel in full
                pairs = [(q, x), (F(2), y), (F(-q.numerator, q.denominator), x)]
                out += [add(x, y), add(x, negate(x)), scale(x, q), negate(y),
                        linear_combination(pairs, DIM, {lit: q})]
            return out

        want = run()

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on the rational path")

        for name in self.OPERATORS:
            monkeypatch.setattr(F, name, refuse)
        got = run()
        monkeypatch.undo()
        assert got == want
        assert all(type(c) is F for r in got for c in r.terms.values())
