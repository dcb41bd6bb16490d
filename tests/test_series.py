"""Hahn-series core: valuation, arithmetic, truncation, literals."""

import random
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
    TruncationInsufficient,
)
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
    arch_ratio,
    compare_series,
    diff_valuation,
    format_series,
    from_scalar,
    invert,
    leading_term,
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
    with_trunc,
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

    def test_truncated_empty_raises(self):
        hollow = with_trunc(zero_series(DIM), make_exp([1], DIM))
        with pytest.raises(TruncationInsufficient):
            valuation(hollow)

    def test_zero_bound_prints_as_zero_exponent(self):
        # messages and repr share the report's exponent text: (0), not ()
        hollow = Series({}, DIM, trunc=(0, 0))
        with pytest.raises(TruncationInsufficient) as ei:
            valuation(hollow)
        assert str(ei.value) == \
            "no terms below the bound (0); valuation unknown"
        assert repr(hollow) == "<0 (below (0))>"

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

    def test_add_trunc_is_min(self):
        x = with_trunc(parse_series("1 + t", DIM), make_exp([5], DIM))
        y = with_trunc(parse_series("t^2", DIM), make_exp([3], DIM))
        assert add(x, y).trunc == make_exp([3], DIM)

    def test_multiply_trunc_rule(self):
        x = with_trunc(parse_series("1 + t", DIM), make_exp([5], DIM))
        y = with_trunc(parse_series("t^2", DIM), make_exp([3], DIM))
        # min(trunc_x + v(y), trunc_y + v(x)) = min(5+2, 3+0) = 3
        assert multiply(x, y).trunc == make_exp([3], DIM)

    def test_terms_beyond_trunc_dropped(self):
        x = with_trunc(parse_series("1 + t", DIM), make_exp([2], DIM))
        sq = multiply(x, x)
        assert all(e < make_exp([2], DIM) for e in sq.terms)

    def test_scale_preserves_trunc(self):
        x = with_trunc(parse_series("1 + t", DIM), make_exp([5], DIM))
        assert scale(x, F(7)).trunc == make_exp([5], DIM)

    def test_zero_product_is_exact(self):
        x = with_trunc(parse_series("1 + t", DIM), make_exp([5], DIM))
        assert multiply(x, zero_series(DIM)).is_zero()


class TestInvert:
    def test_monomial_exact(self):
        out = invert(t_pow(1))
        assert format_series(out) == "t^(-1)"
        assert out.trunc is None

    def test_rational_exact(self):
        assert format_series(invert(from_scalar(F(2), DIM))) == "1/2"

    def test_geometric_expansion(self):
        out = invert(parse_series("1 + t", DIM), order=[3])
        assert format_series(out) == "1 - t^(1) + t^(2)"
        assert out.trunc == make_exp([3], DIM)

    def test_expansion_times_original_is_one_below_order(self):
        x = parse_series("2 + t + 3*t^2", DIM)
        out = invert(x, order=[4])
        back = multiply(out, x)
        one = from_scalar(F(1), DIM)
        d = subtract(back, one)
        assert not d.terms
        assert d.trunc == make_exp([4], DIM)

    def test_trunc_bound_rule(self):
        x = parse_series("t + t^2", DIM)  # v = 1
        out = invert(x, order=[5])
        assert out.trunc == make_exp([3], DIM)  # order - 2*v

    def test_lex_unreachable_order(self):
        x = parse_series("1 + t^(0,1)", DIM)
        with pytest.raises(TruncationInsufficient):
            invert(x, order=[1])

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            invert(zero_series(DIM))

    def test_truncated_empty_rejected(self):
        with pytest.raises(TruncationInsufficient):
            invert(with_trunc(zero_series(DIM), make_exp([1], DIM)))

    def test_non_monomial_needs_order(self):
        with pytest.raises(ValueError):
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

    def test_truncated_empty_difference_raises(self):
        x = with_trunc(parse_series("1", DIM), make_exp([1], DIM))
        with pytest.raises(TruncationInsufficient):
            compare_series(x, from_scalar(F(1), DIM))

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

    def test_coarse_bound_raises(self):
        hollow = with_trunc(zero_series(DIM), make_exp([0, -1], DIM))
        with pytest.raises(TruncationInsufficient):
            residue(hollow)


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
        assert r.trunc is None
        r2 = restrict_exponents(x, make_exp([2], DIM), inclusive=False)
        assert format_series(r2) == "1 + t^(1)"

    def test_leading_term(self):
        v, c = leading_term(parse_series("3*t^(1/2) + t^2", DIM))
        assert v == make_exp([F(1, 2)], DIM)
        assert c == F(3)


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
    terms = draw(st.dictionaries(_exps(dim), _COEFF, max_size=4))
    return Series(terms, dim, draw(st.none() | _exps(dim)))


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
        assert r.trunc is None or e < r.trunc
    assert r == Series(r.terms, r.dim, r.trunc)
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
    truncs = [b for b in (x.trunc, y.trunc) if b is not None]
    d = Series(diff, x.dim, min(truncs) if truncs else None)
    if d.terms:
        return scalar_sign(d.terms[min(d.terms)])
    if d.trunc is None:
        return 0
    raise TruncationInsufficient(
        f"difference has no terms below {_format_exp(d.trunc)}; sign unknown")


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
    except (TruncationInsufficient, ValueError) as exc:
        return type(exc), str(exc)


class TestTrustedPath:
    @given(_series(), _series(), _COEFF, st.none() | _exps(DIM), _exps(DIM),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_results_keep_the_invariant(self, x, y, c, bound, cut,
                                                   inclusive):
        for r in (add(x, y), subtract(x, y), negate(x), scale(x, c),
                  multiply(x, y), with_trunc(x, bound),
                  # the cross terms of (x + y)(x - y) cancel
                  multiply(add(x, y), subtract(x, y)),
                  restrict_exponents(x, cut, inclusive)):
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
        cut = Series._raw({_unhashable_exp(0, 0): F(1)}, DIM,
                          _unhashable_exp(1, 0))
        _UnhashableFraction.armed = True
        try:
            assert compare_series(x, y) == 1
            assert compare_series(y, x) == -1
            assert compare_series(x, x) == 0
            assert diff_valuation(x, y) == (2, 0)
            assert diff_valuation(y, y) is INFINITY
            assert valuation(y) == (0, 0)
            with pytest.raises(TruncationInsufficient, match="sign unknown"):
                compare_series(cut, x)
            with pytest.raises(TruncationInsufficient,
                               match="valuation unknown"):
                diff_valuation(x, cut)
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
        terms = {tuple(rng.choice(self.GRID) for _ in range(DIM)):
                 rng.choice(self.COEFFS) for _ in range(rng.randint(0, 4))}
        trunc = None
        if rng.random() < 0.3:
            trunc = tuple(rng.choice(self.GRID) for _ in range(DIM))
        return Series(terms, DIM, trunc)

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
        cancelled = truncated = algebraic = 0
        for pairs, lits in self._cases(600):
            got = linear_combination(pairs, DIM, dict(lits))
            want = _fold_combination(pairs, DIM, lits)
            assert (got.terms, got.trunc) == (want.terms, want.trunc)
            _assert_normal(got)
            cancelled += not got.terms and any(q for q, _ in pairs)
            truncated += got.trunc is not None
            algebraic += any(not isinstance(c, F)
                             for c in got.terms.values())
        assert min(cancelled, truncated, algebraic) > 0

    def test_zero_weights_drop_out_with_their_bounds(self):
        cut = Series({(F(0), F(0)): F(1)}, DIM, (F(1), F(0)))
        got = linear_combination([(F(0), cut), (F(2), t_pow(2))], DIM)
        assert got == scale(t_pow(2), 2) and got.trunc is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linear_combination([(F(1), t_pow(1, dim=1))], DIM)


class TestMappedOrder:
    """Scaling by one returns the operand."""

    @given(_series())
    def test_scaling_by_one_returns_the_operand(self, x):
        assert scale(x, 1) is x and scale(x, F(1)) is x


# ---------------------------------------------------------------------------
# interned exponents against plain tuples


def _plain(x):
    """(terms, trunc) of x with plain tuples of fresh Fractions as
    exponents: no object shared with the intern table."""
    def fresh(e):
        return tuple(F(q.numerator, q.denominator) for q in e)
    return ({fresh(e): c for e, c in x.terms.items()},
            None if x.trunc is None else fresh(x.trunc))


def _plain_series(x):
    """x rebuilt through the trusted constructor on plain-tuple keys."""
    terms, trunc = _plain(x)
    return Series._raw(terms, x.dim, trunc)


def _ref_normal(terms, trunc):
    return ({e: c for e, c in terms.items()
             if not scalar_is_zero(c) and (trunc is None or e < trunc)},
            trunc)


def _ref_add(x, y):
    bounds = [b for b in (x[1], y[1]) if b is not None]
    out = dict(x[0])
    for e, c in y[0].items():
        out[e] = scalar_add(out[e], c) if e in out else c
    return _ref_normal(out, min(bounds) if bounds else None)


def _ref_map(x, fn):
    return ({e: fn(c) for e, c in x[0].items()}, x[1])


def _ref_multiply(x, y):
    if (not x[0] and x[1] is None) or (not y[0] and y[1] is None):
        return {}, None
    bounds = []
    for (_, b), (terms, other_b) in ((x, y), (y, x)):
        if b is not None:
            floor = min(terms) if terms else other_b
            bounds.append(tuple(p + q for p, q in zip(b, floor)))
    out = {}
    for e1, c1 in x[0].items():
        for e2, c2 in y[0].items():
            e = tuple(p + q for p, q in zip(e1, e2))
            p = scalars.scalar_mul(c1, c2)
            out[e] = scalar_add(out[e], p) if e in out else p
    return _ref_normal(out, min(bounds) if bounds else None)


def _ref_sign_and_valuation(x, y):
    """The sign and the valuation of x - y, both "unknown" when x and y
    agree below the smaller bound."""
    terms, trunc = _ref_add(x, _ref_map(y, scalar_neg))
    if terms:
        e = min(terms)
        return scalar_sign(terms[e]), e
    return (0, INFINITY) if trunc is None else ("unknown", "unknown")


def _unknown_as_str(fn, *args):
    try:
        return fn(*args)
    except TruncationInsufficient:
        return "unknown"


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
            assert (_unknown_as_str(compare_series, a, b),
                    _unknown_as_str(diff_valuation, a, b)) == \
                _ref_sign_and_valuation(px, py)
            assert a.sorted_terms() == \
                tuple(v for e in sorted(px[0]) for v in (e, px[0][e]))
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
    bounds = [tuple(b) for b in (x.trunc, y.trunc) if b is not None]
    trunc = min(bounds) if bounds else None
    for e in sorted(set(x.terms) | set(y.terms), key=tuple):
        if trunc is not None and not tuple(e) < trunc:
            break
        cx, cy = x.terms.get(e, F(0)), y.terms.get(e, F(0))
        if not cx == cy:
            return e, cx, cy
    if trunc is None:
        return None
    raise TruncationInsufficient("sign unknown")


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
        trunc = rng.choice(self.GRID) if rng.random() < 0.2 else None
        return Series(terms, DIM, trunc)

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
                got = _unknown_as_str(series_mod._first_difference, a, b)
                assert got == _unknown_as_str(_reference_first_difference,
                                              a, b)
                if got in (None, "unknown"):
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
