"""Valuation independence, basis extraction, term signs, pseudo-Cauchy."""

import math
import random
from fractions import Fraction as F

import pytest

from conftest import random_series
from hahnsat.scalars import real_algebraic
from hahnsat.series import (
    INFINITY,
    add,
    compare_series,
    format_series,
    make_exp,
    monomial,
    parse_series,
    restrict_exponents,
    scale,
    subtract,
    valuation,
    zero_series,
)
from hahnsat.valbasis import (
    PseudoSequence,
    check_pseudo_cauchy,
    is_valuation_independent,
    pseudo_limit,
    represent,
    term_sign,
    valuation_basis,
)

DIM = 2
SQRT2 = real_algebraic([-2, 0, 1], 1, 2)


def t_pow(q, c=1):
    return monomial([F(q)], c, DIM)


def combine(coeffs, gens):
    acc = zero_series(DIM)
    for q, g in zip(coeffs, gens):
        if q:
            acc = add(acc, scale(g, F(q)))
    return acc


class TestIndependence:
    def test_distinct_valuations(self):
        assert is_valuation_independent([t_pow(1), t_pow(2)]) is True

    def test_rational_multiple(self):
        assert is_valuation_independent([t_pow(1), t_pow(1, 2)]) is False

    def test_shared_class_dependent_leads(self):
        assert is_valuation_independent([parse_series("t + t^2", DIM), t_pow(1)]) is False

    def test_irrational_ratio_is_independent(self):
        assert is_valuation_independent([t_pow(1), monomial([1], SQRT2, DIM)]) is True

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_valuation_independent([zero_series(DIM)])


class TestValuationBasis:
    def test_singleton(self):
        b = valuation_basis([t_pow(1)])
        assert [format_series(g) for g in b.generators] == ["t^(1)"]

    def test_elimination_example(self):
        b = valuation_basis([parse_series("t + t^2", DIM), t_pow(1)])
        assert [format_series(g) for g in b.generators] == ["t^(2)", "t^(1)"]

    def test_redundant_generator_dropped(self):
        b = valuation_basis([t_pow(1), t_pow(2), parse_series("t + t^2", DIM)])
        assert len(b) == 2

    def test_generators_ascending_as_elements(self):
        b = valuation_basis([t_pow(1), t_pow(2), t_pow(F(1, 2))])
        gens = list(b.generators)
        for i in range(len(gens) - 1):
            assert compare_series(gens[i], gens[i + 1]) < 0

    def test_output_is_valuation_independent(self):
        rng = random.Random(23)
        for _ in range(30):
            gens = [random_series(rng, DIM, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 4))]
            b = valuation_basis(gens)
            assert is_valuation_independent(list(b.generators))

    def test_fact_d_identity_random(self):
        rng = random.Random(31)
        for _ in range(25):
            gens = [random_series(rng, DIM, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 4))]
            b = valuation_basis(gens)
            for _ in range(40):
                q = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in b.generators]
                s = combine(q, b.generators)
                expected = min(
                    (valuation(g) for qi, g in zip(q, b.generators) if qi),
                    default=INFINITY,
                )
                if any(q):
                    assert valuation(s) == expected
                else:
                    assert s.is_zero()

    def test_change_of_basis_reconstructs_inputs(self):
        rng = random.Random(47)
        for _ in range(25):
            gens = [random_series(rng, DIM, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 4))]
            b = valuation_basis(gens)
            for g, row in zip(gens, b.change_of_basis):
                assert compare_series(combine(row, b.generators), g) == 0

    def test_back_reduction_cascades(self):
        # reducing t + t^2 at level 2 leaves t - t^3, whose new term at
        # level 3 must be reduced as well
        b = valuation_basis([parse_series(text, DIM) for text in
                             ("t + t^2", "t^2 + t^3", "t^3")])
        assert [format_series(g) for g in b.generators] == [
            "t^(3)", "t^(2)", "t^(1)"]
        assert b.change_of_basis == ((0, 1, 1), (1, 1, 0), (1, 0, 0))

    def test_represent_round_trip(self):
        b = valuation_basis([parse_series("t + t^2", DIM), t_pow(1)])
        x = parse_series("3*t + 5*t^2", DIM)
        coords = represent(x, list(b.generators))
        assert compare_series(combine(coords, b.generators), x) == 0

    def test_component_reals_against_class_reps(self):
        b = valuation_basis([t_pow(1), monomial([1], SQRT2, DIM)])
        assert b.component_reals == (F(1), SQRT2)
        assert len(b.class_reps) == 1

    def test_class_reps_one_per_class(self):
        b = valuation_basis([t_pow(1), monomial([1], SQRT2, DIM), t_pow(2)])
        vals = [valuation(r) for r in b.class_reps]
        assert len(vals) == len(set(vals)) == 2


class TestTermSign:
    def test_zero_vector(self):
        b = valuation_basis([t_pow(1), t_pow(2)])
        assert term_sign([F(0), F(0)], b) == 0

    def test_single_positive(self):
        b = valuation_basis([t_pow(1)])
        assert term_sign([F(3)], b) == 1
        assert term_sign([F(-3)], b) == -1

    def test_irrational_class_sum(self):
        b = valuation_basis([t_pow(1), monomial([1], SQRT2, DIM)])
        assert term_sign([F(-3), F(2)], b) == -1
        assert term_sign([F(-2), F(2)], b) == 1

    def test_dominant_class_wins(self):
        b = valuation_basis([t_pow(2), t_pow(1)])
        # class of t dominates class of t^2
        assert term_sign([F(5), F(-1)], b) == -1

    def test_length_mismatch(self):
        b = valuation_basis([t_pow(1)])
        with pytest.raises(ValueError):
            term_sign([F(1), F(2)], b)

    def test_matches_direct_comparison_exhaustive(self):
        bases = [
            valuation_basis([t_pow(1)]),
            valuation_basis([t_pow(1), t_pow(2)]),
            valuation_basis([t_pow(1), monomial([1], SQRT2, DIM)]),
            valuation_basis([t_pow(1), monomial([1], SQRT2, DIM), t_pow(2)]),
        ]
        for b in bases:
            n = len(b.generators)
            span = range(-3, 4)
            stack = [[]]
            for _ in range(n):
                stack = [v + [c] for v in stack for c in span]
            for vec in stack:
                s = [F(c) for c in vec]
                direct = compare_series(combine(s, b.generators), zero_series(DIM))
                assert term_sign(s, b) == direct


class TestPseudoCauchy:
    def partial_sums(self, i):
        out = zero_series(DIM)
        for j in range(i + 1):
            out = add(out, t_pow(j))
        return out

    def test_partial_sums_pass(self):
        seq = PseudoSequence.explicit([self.partial_sums(i) for i in range(5)])
        assert check_pseudo_cauchy(seq, 5) is True

    def test_constant_difference_fails(self):
        seq = PseudoSequence.explicit([scale(t_pow(1), F(i)) for i in range(3)])
        assert check_pseudo_cauchy(seq, 3) is False

    def test_factorial_tail_passes(self):
        def a(i):
            out = zero_series(DIM)
            for j in range(1, i + 2):
                out = add(out, monomial([F(2) - F(1, j)], F(1, math.factorial(j)), DIM))
            return out

        seq = PseudoSequence.explicit([a(i) for i in range(10)])
        assert check_pseudo_cauchy(seq, 6) is True

    def test_repeated_element_fails(self):
        x = self.partial_sums(1)
        seq = PseudoSequence.explicit([self.partial_sums(0), x, x])
        assert check_pseudo_cauchy(seq, 3) is False

    def test_k_below_three_rejected(self):
        seq = PseudoSequence.explicit([self.partial_sums(i) for i in range(3)])
        with pytest.raises(ValueError):
            check_pseudo_cauchy(seq, 2)


class TestPseudoLimit:
    def partial_sums(self, i):
        out = zero_series(DIM)
        for j in range(i + 1):
            out = add(out, t_pow(j))
        return out

    def definition_holds(self, x, elems, k):
        for i in range(k - 1):
            want = valuation(subtract(elems[i + 1], elems[i]))
            got = valuation(subtract(x, elems[i]))
            if got != want:
                return False
        return True

    def test_monomial_prefix_k4(self):
        elems = [self.partial_sums(i) for i in range(4)]
        x = pseudo_limit(PseudoSequence.explicit(elems), 4)
        assert format_series(x) == "1 + t^(1) + t^(2) + t^(3)"
        assert self.definition_holds(x, elems, 4)

    def test_overlapping_tails(self):
        a0 = zero_series(DIM)
        a1 = parse_series("t + t^2", DIM)
        a2 = parse_series("t + 2*t^2", DIM)
        x = pseudo_limit(PseudoSequence.explicit([a0, a1, a2]), 3)
        assert self.definition_holds(x, [a0, a1, a2], 3)

    def test_precondition_enforced(self):
        x = self.partial_sums(1)
        seq = PseudoSequence.explicit([self.partial_sums(0), x, x])
        with pytest.raises(ValueError):
            pseudo_limit(seq, 3)

    def test_last_element_is_alternative_witness(self):
        # the final prefix element satisfies the equalities up to i < k-2
        rng = random.Random(8)
        for _ in range(30):
            k = rng.randint(3, 6)
            acc = zero_series(DIM)
            elems = []
            exp = F(rng.randint(-2, 2))
            for _ in range(k):
                elems.append(acc)
                c = F(rng.randint(1, 5), rng.randint(1, 5))
                acc = add(acc, monomial([exp], c, DIM))
                exp += F(rng.randint(1, 3), rng.randint(1, 4))
            seq = PseudoSequence.explicit(elems)
            if not check_pseudo_cauchy(seq, k):
                continue
            last = elems[k - 1]
            for i in range(k - 2):
                assert valuation(subtract(last, elems[i])) == valuation(
                    subtract(elems[i + 1], elems[i])
                )

    def test_generated_sequences_random_prefixes(self):
        rng = random.Random(13)
        for _ in range(50):
            k = rng.randint(3, 8)
            start = F(rng.randint(-3, 3), rng.randint(1, 3))
            exps = []
            e = start
            for _ in range(k):
                exps.append(e)
                e += F(rng.randint(1, 4), rng.randint(1, 4))
            coeffs = [F(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(k)]

            def a(i, exps=exps, coeffs=coeffs):
                out = zero_series(DIM)
                for j in range(i + 1):
                    out = add(out, monomial([exps[j]], coeffs[j], DIM))
                return out

            seq = PseudoSequence.explicit([a(i) for i in range(k)])
            assert check_pseudo_cauchy(seq, k)
            x = pseudo_limit(seq, k)
            elems = seq.materialize(k)
            assert self.definition_holds(x, elems, k)
