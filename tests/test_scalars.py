"""Exact scalar layer: algebraics, oracles, comparison, relations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnsat.engine import _has_rational_root
from hahnsat.errors import (
    ComparisonUndecidedAtPrecision,
    MalformedAlgebraic,
    OracleFailure,
    ParseError,
)
from hahnsat.scalars import (
    OracleReal,
    _int_primitive,
    _make_algebraic,
    _ralg_affine,
    _sympy_factors,
    RealAlgebraic,
    compare,
    creal_approx,
    format_scalar,
    isolate_real_roots,
    oracle_algebraic,
    oracle_bits,
    oracle_rational,
    parse_scalar,
    rational_height,
    rational_relations,
    real_algebraic,
    scalar_add,
    scalar_inv,
    scalar_is_zero,
    scalar_mul,
    scalar_neg,
    scalar_sign,
    simplest_between,
)

SQRT2 = real_algebraic([-2, 0, 1], 1, 2)
SQRT3 = real_algebraic([-3, 0, 1], 1, 2)


class TestConstruction:
    def test_sqrt2_literal(self):
        assert format_scalar(SQRT2) == "alg[-2,0,1;1,2]"
        assert SQRT2.index == 1

    def test_degree_one_collapses_to_fraction(self):
        assert real_algebraic([0, 1], -1, 1) == Fraction(0)
        assert real_algebraic([-3, 2], 0, 2) == Fraction(3, 2)

    def test_reducible_input_normalizes_to_owning_factor(self):
        # (x^2 - 2)(x - 5) is square-free; the root in [1, 2] is sqrt2
        a = real_algebraic([10, -2, -5, 1], 1, 2)
        assert a == SQRT2

    def test_two_roots_rejected(self):
        with pytest.raises(MalformedAlgebraic):
            real_algebraic([-2, 0, 1], -2, 2)

    def test_no_roots_rejected(self):
        with pytest.raises(MalformedAlgebraic):
            real_algebraic([-2, 0, 1], 3, 4)

    def test_not_square_free_rejected(self):
        with pytest.raises(MalformedAlgebraic):
            real_algebraic([1, 2, 1], -2, 0)  # (x+1)^2

    def test_constant_rejected(self):
        with pytest.raises(MalformedAlgebraic):
            real_algebraic([7], 0, 1)

    def test_equality_is_structural(self):
        other = real_algebraic([-2, 0, 1], Fraction(5, 4), Fraction(3, 2))
        assert other == SQRT2
        assert hash(other) == hash(SQRT2)

    def test_isolation_integer_grid_first(self):
        cells = isolate_real_roots((-2, 0, 1))
        assert cells == [(Fraction(-2), Fraction(-1)), (Fraction(1), Fraction(2))]

    def test_the_ith_isolating_cell_holds_the_ith_root(self):
        """The candidate search builds the root of the i-th cell with index
        i and counts no roots: the cells ascend and isolate one root each,
        as the trusted constructor's Sturm count confirms."""
        rng = random.Random(29)
        drawn = 0
        while drawn < 200:
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 4))]
            cs[-1] = cs[-1] or 1
            if _has_rational_root(tuple(cs)):
                continue
            drawn += 1
            for i, cell in enumerate(isolate_real_roots(cs)):
                assert _make_algebraic(_int_primitive(cs), *cell).index == i


class TestSign:
    def test_sign_of_sqrt2(self):
        assert scalar_sign(SQRT2) == 1

    def test_sign_of_negative_root(self):
        neg = real_algebraic([-2, 0, 1], -2, -1)
        assert scalar_sign(neg) == -1

    def test_raw_linear_data_gives_zero(self):
        assert scalar_sign(real_algebraic([0, 1], -1, 1)) == 0

    def test_500_random_signs_match_interval_refinement(self):
        import random

        rng = random.Random(1729)
        for _ in range(500):
            d = rng.choice([2, 3, 5, 6, 7, 8, 10])
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            a = scalar_mul(real_algebraic([-d, 0, 1], 1, d), q)
            if q == 0:
                assert a == Fraction(0)
                continue
            lo, hi = a.refine(Fraction(1, 2**20))
            expected = 1 if lo > 0 else (-1 if hi < 0 else 0)
            assert scalar_sign(a) == expected


class TestAffineMap:
    """`_ralg_affine(a, s, q)` is s*a + q for a real algebraic a."""

    ROOTS = [real_algebraic([-d, 0, 1], lo, hi)
             for d in (2, 3, 5, 7) for lo, hi in ((1, 3), (-3, -1))] + \
        [real_algebraic([-2, 0, 0, 1], 1, 2)]

    @staticmethod
    def _random_rationals(seed: int, n: int):
        import random

        rng = random.Random(seed)
        for _ in range(n):
            s = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            yield s, q

    def test_inverse_map_round_trips(self):
        for a in self.ROOTS:
            for s, q in self._random_rationals(11, 8):
                b = _ralg_affine(a, s, q)
                assert isinstance(b, RealAlgebraic)
                assert _ralg_affine(b, 1 / s, -q / s) == a

    def test_sign_agrees_with_refined_interval(self):
        import random

        rng = random.Random(13)
        width = Fraction(1, 2**40)
        for a in self.ROOTS:
            lo, hi = RealAlgebraic(a.coeffs, a.index, *a.interval()) \
                .refine(width)
            for s, q in self._random_rationals(17, 8):
                r = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                ends = sorted((s * lo + q - r, s * hi + q - r))
                assert ends[0] > 0 or ends[1] < 0  # r lies off the interval
                expected = 1 if ends[0] > 0 else -1
                assert compare(_ralg_affine(a, s, q), r) == expected

    def test_zero_scale_gives_the_shift(self):
        assert _ralg_affine(SQRT2, Fraction(0), Fraction(5, 2)) == \
            Fraction(5, 2)

    def test_increasing_map_keeps_the_root_index(self):
        """For s > 0 the index is carried over, not counted again: it is
        the index a Sturm count over the new interval gives."""
        import random

        rng = random.Random(19)
        checked = 0
        while checked < 60:
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 4))]
            cs[-1] = cs[-1] or 1
            # below degree 4, irreducible over Q is no rational root
            if any(len(f) == 2 for f in _sympy_factors(cs)):
                continue
            for lo, hi in isolate_real_roots(cs):
                a = real_algebraic(cs, lo, hi)
                s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                b = _ralg_affine(a, s, q)
                ref = _make_algebraic(b.coeffs, *b.interval())
                assert (b.coeffs, b.index) == (ref.coeffs, ref.index)
                checked += 1

    @staticmethod
    def _expanded(a, s, q):
        """s*a + q through the Fraction expansion of s^n * p((y - q) / s)
        for every s and q, as the map was computed before pure scalings
        went to integers."""
        n = len(a.coeffs) - 1
        out = [Fraction(0)] * (n + 1)
        for i, c in enumerate(a.coeffs):
            w = c * s ** (n - i)
            for k in range(i + 1):
                out[k] += w * math.comb(i, k) * (-q) ** (i - k)
        lo, hi = a.interval()
        if s > 0:
            return RealAlgebraic(_int_primitive(out), a.index, s * lo + q,
                                 s * hi + q)
        return _make_algebraic(_int_primitive(out), s * hi + q, s * lo + q)

    def test_integer_scaling_matches_the_expansion(self):
        rng = random.Random(23)
        roots = []
        while len(roots) < 12:
            cs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 5))]
            cs[-1] = cs[-1] or 1
            if [len(f) for f in _sympy_factors(cs)] != [len(cs)]:
                continue  # not irreducible of degree len(cs) - 1
            roots += [real_algebraic(cs, lo, hi)
                      for lo, hi in isolate_real_roots(cs)]
        assert {len(a.coeffs) - 1 for a in roots} == {2, 3, 4}
        magnitudes = [Fraction(1, 3), Fraction(2)] + \
            [Fraction(2) ** k for k in (5, 17, 31, 60)] + \
            [Fraction(rng.randint(2, 99), rng.randint(2, 99)) for _ in range(3)]
        for a in roots:
            for s in magnitudes + [-m for m in magnitudes]:
                for q in (Fraction(0), Fraction(rng.randint(-20, 20) or 1,
                                                rng.randint(1, 9))):
                    got, want = _ralg_affine(a, s, q), self._expanded(a, s, q)
                    assert (got.coeffs, got.index, got.interval()) == \
                        (want.coeffs, want.index, want.interval())

    def test_negation_keeps_the_canonical_pair(self):
        neg = _ralg_affine(SQRT2, Fraction(-1), Fraction(0))
        assert (neg.coeffs, neg.index) == ((-2, 0, 1), 0)


class TestArithmetic:
    def test_sqrt2_plus_sqrt3_frozen(self):
        s = scalar_add(SQRT2, SQRT3)
        assert s == real_algebraic([1, 0, -10, 0, 1], 3, 4)
        assert format_scalar(s) == "alg[1,0,-10,0,1;3,4]"

    def test_sqrt2_plus_sqrt3_numeric_cross_check(self):
        import mpmath

        mpmath.mp.dps = 50
        s = scalar_add(SQRT2, SQRT3)
        lo, hi = s.refine(Fraction(1, 2**80))
        val = mpmath.sqrt(2) + mpmath.sqrt(3)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= val
        assert val <= mpmath.mpf(hi.numerator) / hi.denominator

    def test_product_is_sqrt6(self):
        assert scalar_mul(SQRT2, SQRT3) == real_algebraic([-6, 0, 1], 2, 3)

    def test_sum_with_negation_is_zero(self):
        assert scalar_add(SQRT2, scalar_neg(SQRT2)) == Fraction(0)

    def test_product_with_inverse_is_one(self):
        assert scalar_mul(SQRT2, scalar_inv(SQRT2)) == Fraction(1)

    def test_inverse_of_sqrt2_is_half_sqrt2(self):
        assert scalar_inv(SQRT2) == scalar_mul(SQRT2, Fraction(1, 2))

    def test_rational_shift_round_trip(self):
        shifted = scalar_add(SQRT2, Fraction(-7, 3))
        assert scalar_add(shifted, Fraction(7, 3)) == SQRT2

    def test_field_laws_on_mixed_triples(self):
        import random

        rng = random.Random(7)
        pool = [SQRT2, SQRT3, Fraction(2, 3), Fraction(-1), scalar_neg(SQRT2),
                scalar_add(SQRT2, Fraction(1)), Fraction(0)]
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert compare(scalar_add(a, b), scalar_add(b, a)) == 0
            assert compare(scalar_mul(a, b), scalar_mul(b, a)) == 0
            assert compare(scalar_add(scalar_add(a, b), c),
                           scalar_add(a, scalar_add(b, c))) == 0
            assert compare(scalar_mul(scalar_mul(a, b), c),
                           scalar_mul(a, scalar_mul(b, c))) == 0
            assert compare(scalar_mul(a, scalar_add(b, c)),
                           scalar_add(scalar_mul(a, b), scalar_mul(a, c))) == 0


class TestCompare:
    def test_rationals(self):
        assert compare(Fraction(2, 3), Fraction(1, 2)) == 1

    def test_algebraic_vs_rational_inside_interval(self):
        assert compare(SQRT2, Fraction(7, 5)) == 1
        assert compare(SQRT2, Fraction(3, 2)) == -1
        assert compare(Fraction(3, 2), SQRT2) == 1

    def test_algebraic_vs_oracle(self):
        assert compare(SQRT2, oracle_rational(Fraction(3, 2))) == -1

    def test_identical_oracle_object_equal(self):
        o = oracle_rational(Fraction(1, 3))
        assert compare(o, o) == 0

    def test_degenerate_oracles_decide_equality(self):
        a = oracle_rational(Fraction(1, 3))
        b = oracle_rational(Fraction(1, 3))
        assert compare(a, b) == 0

    def test_undecided_raises_with_budget(self):
        slow = OracleReal(
            lambda n: (Fraction(-1, 2 ** (n + 1)), Fraction(1, 2 ** (n + 1))),
            name="hug0",
        )
        with pytest.raises(ComparisonUndecidedAtPrecision) as ei:
            compare(slow, Fraction(0))
        assert ei.value.budget == 64

    @given(st.fractions(), st.fractions())
    def test_compare_matches_fraction_order(self, a, b):
        assert compare(a, b) == (a > b) - (a < b)

    def test_seeded_rational_pairs_match_fraction_order(self):
        rng = random.Random(22)
        scales = [1, 7, 10**20, 10**400]

        def draw():
            top = rng.choice(scales)
            return Fraction(rng.randint(-top, top),
                            rng.randint(1, rng.choice(scales)))
        pairs = [(draw(), draw()) for _ in range(3000)]
        pairs += [(a, Fraction(a.numerator, a.denominator))
                  for a, _ in pairs[:100]]
        for a, b in pairs:
            assert compare(a, b) == (a > b) - (a < b)
            assert scalar_is_zero(a) == (a == 0)
        assert {compare(a, b) for a, b in pairs} == {-1, 0, 1}
        assert any(a == 0 for a, _ in pairs)

    def test_sign_helper(self):
        assert scalar_sign(Fraction(-3)) == -1
        assert scalar_sign(SQRT2) == 1
        assert scalar_sign(oracle_rational(Fraction(0, 1))) == 0


class TestOracle:
    def test_constant_oracle(self):
        o = oracle_rational(Fraction(1, 2))
        assert creal_approx(o, 3) == (Fraction(1, 2), Fraction(1, 2))

    def test_algebraic_oracle_first_interval_inside_isolation(self):
        o = oracle_algebraic(SQRT2)
        lo, hi = creal_approx(o, 1)
        assert Fraction(1) <= lo < hi <= Fraction(2)
        assert hi - lo <= Fraction(1, 2)

    def test_width_law_up_to_32(self):
        o = oracle_algebraic(real_algebraic([-5, 0, 1], 2, 3))
        for n in range(33):
            lo, hi = creal_approx(o, n)
            assert hi - lo <= Fraction(1, 2**n)

    def test_nesting_law_up_to_32(self):
        o = oracle_bits(0, lambda i: (i * i + 1) % 3 % 2, name="pattern")
        prev = (Fraction(-10), Fraction(10))
        for n in range(33):
            lo, hi = creal_approx(o, n)
            assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)

    def test_too_wide_raises(self):
        bad = OracleReal(lambda n: (Fraction(0), Fraction(2)), name="wide")
        with pytest.raises(OracleFailure):
            creal_approx(bad, 1)

    def test_nesting_violation_raises(self):
        def approx(n):
            if n == 1:
                return Fraction(0), Fraction(1, 2)
            return Fraction(3, 4), Fraction(3, 4)

        bad = OracleReal(approx, name="jump")
        creal_approx(bad, 1)
        with pytest.raises(OracleFailure):
            creal_approx(bad, 5)

    def test_memoized_answers_are_stable(self):
        calls = []

        def approx(n):
            calls.append(n)
            return Fraction(0), Fraction(1, 2**n)

        o = OracleReal(approx)
        creal_approx(o, 4)
        creal_approx(o, 4)
        assert calls == [4]

    def test_oracle_arithmetic_intervals(self):
        s = scalar_add(oracle_rational(Fraction(1, 3)), Fraction(1, 6))
        lo, hi = creal_approx(s, 10)
        assert lo <= Fraction(1, 2) <= hi
        p = scalar_mul(oracle_algebraic(SQRT2), oracle_algebraic(SQRT2))
        lo, hi = creal_approx(p, 16)
        assert lo <= Fraction(2) <= hi and hi - lo <= Fraction(1, 2**16)

    def test_oracle_inverse_needs_separation(self):
        z = oracle_rational(Fraction(0))
        with pytest.raises(OracleFailure):
            scalar_inv(z)
        inv3 = scalar_inv(oracle_rational(Fraction(3)))
        lo, hi = creal_approx(inv3, 10)
        assert lo <= Fraction(1, 3) <= hi


class TestRelations:
    def test_dependent_triple(self):
        s = scalar_add(SQRT2, SQRT3)
        assert rational_relations([SQRT2, SQRT3, s]) == [
            (Fraction(-1), Fraction(-1), Fraction(1))
        ]

    def test_independent_pair(self):
        assert rational_relations([SQRT2, SQRT3]) == []

    def test_rationals_always_dependent(self):
        assert rational_relations([Fraction(1), Fraction(2)]) == [
            (Fraction(-2), Fraction(1))
        ]

    def test_scalar_multiple(self):
        assert rational_relations([SQRT2, scalar_mul(SQRT2, Fraction(2))]) == [
            (Fraction(-2), Fraction(1))
        ]

    def test_mixed_rational_and_algebraic_independent(self):
        assert rational_relations([Fraction(1), SQRT2]) == []

    def test_zero_is_dependent_alone(self):
        assert rational_relations([Fraction(0)]) == [(Fraction(1),)]

    def test_oracle_raises(self):
        with pytest.raises(ComparisonUndecidedAtPrecision):
            rational_relations([oracle_rational(Fraction(1))])


class TestLiterals:
    def test_parse_rational(self):
        assert parse_scalar("22/7") == Fraction(22, 7)
        assert parse_scalar("-3") == Fraction(-3)

    def test_parse_alg(self):
        assert parse_scalar("alg[-2,0,1;1,2]") == SQRT2

    @pytest.mark.parametrize("text, column", [
        ("q", 11), ("  q", 13),
        ("alg[-2,0,1;x,2]", 22), ("  alg[-2,0,1;1,x]", 26),
    ])
    def test_error_column_is_the_bad_token(self, text, column):
        with pytest.raises(ParseError, match="bad rational") as ei:
            parse_scalar(text, 10)
        assert ei.value.column == column

    @pytest.mark.parametrize("text, bad, column", [
        # offset 10: the literal starts at column 11
        ("alg[x,0,1;1,2]", "x", 15),        # first coefficient
        ("alg[-2,x,1;1,2]", "x", 18),       # middle
        ("alg[-2,0, 1y;1,2]", "1y", 21),    # last, after a space
        ("  alg[-2,,1;1,2]", "", 20),       # an empty middle entry
    ])
    def test_bad_alg_coefficient_column_is_its_entry(self, text, bad, column):
        with pytest.raises(ParseError,
                           match=f"bad alg coefficient '{bad}'") as ei:
            parse_scalar(text, 10)
        assert ei.value.column == column

    def test_round_trip(self):
        for x in [Fraction(5), Fraction(-7, 4), SQRT2, scalar_add(SQRT2, SQRT3)]:
            assert parse_scalar(format_scalar(x)) == x

    def test_print_interval_is_canonical_cell(self):
        wide = real_algebraic([-2, 0, 1], Fraction(100, 71), Fraction(3, 2))
        wide.refine(Fraction(1, 2**30))
        assert format_scalar(wide) == "alg[-2,0,1;1,2]"


class TestSimplestBetween:
    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=50),
        st.fractions(min_value=-8, max_value=8, max_denominator=50),
    )
    @settings(max_examples=200)
    def test_inside_and_minimal_height(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        q = simplest_between(lo, hi)
        assert lo < q < hi
        h = rational_height(q)
        for den in range(1, min(h, 30)):
            lo_n = math.floor(lo * den) + 1
            hi_n = math.ceil(hi * den) - 1
            for num in range(lo_n, hi_n + 1):
                cand = Fraction(num, den)
                if lo < cand < hi:
                    assert rational_height(cand) >= h

    def test_examples(self):
        assert simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
        assert simplest_between(Fraction(-1, 2), Fraction(1, 3)) == Fraction(0)
        assert simplest_between(Fraction(5, 2), Fraction(7, 2)) == Fraction(3)
        assert simplest_between(Fraction(-22, 7), Fraction(-3)) == Fraction(-25, 8)


class TestOracleConstructors:
    """Names and intervals of the oracles built by negation, inversion and
    arithmetic, including the precision retries."""

    @staticmethod
    def third():
        return oracle_bits(0, lambda i: i % 2, name="third")

    @staticmethod
    def big():
        return oracle_bits(5, lambda i: i % 3 == 0, name="big")

    def test_negation(self):
        n = scalar_neg(self.third())
        assert n.name == "-(third)"
        assert n.interval(3) == (Fraction(-3, 8), Fraction(-1, 4))

    def test_inverse_retries_precision(self):
        i = scalar_inv(self.third())
        assert i.name == "1/(third)"
        assert i.interval(9) == (Fraction(8192, 2731), Fraction(4096, 1365))

    def test_product_retries_precision(self):
        big = self.big()
        p = scalar_mul(big, big)
        assert p.name == "(<big> mul <big>)"
        assert p.interval(3) == (Fraction(508369, 16384),
                                 Fraction(8139609, 262144))

    def test_sum_with_a_rational(self):
        s = scalar_add(self.third(), Fraction(1, 2))
        assert s.name == "(<third> add Fraction(1, 2))"
        assert s.interval(2) == (Fraction(13, 16), Fraction(7, 8))
        assert s.interval(5) == (Fraction(53, 64), Fraction(107, 128))
