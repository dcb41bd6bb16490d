"""Cut classification, realization, type completion, and reports."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hahnsat import engine, formulas
from hahnsat.engine import (
    Budgets,
    CutOracle,
    GroupTranscendental,
    ImmediateTranscendental,
    Realized,
    ResidueTranscendental,
    Side,
    classify_cut,
    complete_type,
    completed_partial_type,
    gap_center,
    oracle_from_value,
    realize_cut_field,
    realize_cut_group,
    realize_type,
    render_inconclusive_report,
    sequence_is_computable_in,
    standard_height_enum,
)
from hahnsat.engine import (
    _check_prefix_satisfiable,
    _ClassifyState,
    _field_rank_guard,
    _gap_exponent,
    _materialize,
    _records,
    _verify_against_log,
)
from hahnsat.errors import (
    BudgetExhausted,
    NonlinearUnsupported,
    NotFinitelySatisfiable,
    OracleFailure,
    PseudoLimitUnverified,
)
from hahnsat.formulas import (
    AtomTable,
    Not,
    PartialType,
    Signature,
    conjoin,
    enumerate_formulas,
    format_formula,
    parse_formula,
    satisfiable,
)
from hahnsat.scalars import (
    OracleReal,
    format_scalar,
    oracle_bits,
    real_algebraic,
)
from hahnsat.series import (
    Series,
    add,
    compare_series,
    format_series,
    from_scalar,
    make_exp,
    monomial,
    negate,
    parse_series,
    scale,
    subtract,
    zero_series,
)
from hahnsat.trees import TreeOracle, find_path_bounded
from hahnsat.valbasis import valuation_basis

from test_acceptance import _generated_type

DIM = 2
SQRT2 = real_algebraic([-2, 0, 1], 1, 2)
SQRT3 = real_algebraic([-3, 0, 1], 1, 2)


def t_pow(q, c=1):
    return monomial([F(q)], c, DIM)


def exp_of(q):
    return tuple(make_exp([F(q)], DIM))


ONE = t_pow(0)
T = t_pow(1)


def tail_series(n):
    """1 + t^(1/2) + t^(2/3) + ... with n fractional terms."""
    acc = ONE
    for j in range(2, n + 2):
        acc = add(acc, t_pow(F(j - 1, j)))
    return acc


class TestBudgets:
    def test_defaults(self):
        b = Budgets()
        assert (b.height_budget, b.exponent_denominator_budget,
                b.formula_prefix_budget, b.precision_budget) == (4, 2, 48, 16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Budgets(height_budget=0)
        with pytest.raises(ValueError):
            Budgets(precision_budget=-1)


class TestCutOracle:
    def test_memoized_queries_log_once(self):
        oracle = oracle_from_value(T, standard_height_enum([T]))
        oracle.side(t_pow(1, 2))
        oracle.side(t_pow(1, 2))
        oracle.side(t_pow(2))
        assert len(oracle.log) == 2
        assert [s for _, s in oracle.log] == [Side.ABOVE, Side.BELOW]

    def test_second_distinct_equal_rejected(self):
        oracle = CutOracle(lambda e: Side.EQUAL, standard_height_enum([T]))
        oracle.side(T)
        with pytest.raises(OracleFailure):
            oracle.side(t_pow(2))

    def test_check_monotone(self):
        honest = oracle_from_value(T, standard_height_enum([T]))
        honest.side(t_pow(1, 2))
        honest.side(t_pow(2))
        assert honest.check_monotone() is True
        lying = CutOracle(
            lambda e: Side.ABOVE if compare_series(e, T) < 0 else Side.BELOW,
            standard_height_enum([T]))
        lying.side(t_pow(1, 2))
        lying.side(t_pow(2))
        assert lying.check_monotone() is False

    def test_check_monotone_flags_lower_above(self):
        # the smaller element is answered ABOVE, a later larger one BELOW
        lying = CutOracle(
            lambda e: Side.ABOVE if compare_series(e, T) < 0 else Side.BELOW,
            standard_height_enum([T]))
        lying.side(t_pow(2))
        lying.side(t_pow(1, 2))
        assert lying.check_monotone() is False

    def test_non_side_answer_rejected(self):
        oracle = CutOracle(lambda e: -1, standard_height_enum([T]))
        with pytest.raises(OracleFailure, match="not a Side"):
            oracle.side(T)


class TestVerifyAgainstLog:
    @pytest.mark.parametrize("query, witness, side", [
        (zero_series(DIM), negate(ONE), "BELOW"),
        (t_pow(1, 2), t_pow(1, 3), "ABOVE"),
        (T, t_pow(1, 2), "EQUAL"),
    ])
    def test_contradicted_query_raises(self, query, witness, side):
        oracle = oracle_from_value(T, standard_height_enum([T]))
        assert oracle.side(query).name == side
        with pytest.raises(OracleFailure, match=f"contradicts {side} query"):
            _verify_against_log(witness, oracle)


class TestHeightEnum:
    def test_first_generation(self):
        enum = standard_height_enum([T])
        assert [format_series(e) for e in enum(1)] == ["-t^(1)", "t^(1)"]

    def test_no_repeats_across_generations(self):
        enum = standard_height_enum([T, t_pow(2)])
        seen = []
        for h in (1, 2, 3):
            seen.extend(enum(h))
        assert len(seen) == len(set(seen))

    def test_paced_batches_lead_their_generation(self):
        marker = parse_series("t + t^2", DIM)
        enum = standard_height_enum([T], paced=[[marker], [t_pow(3)]])
        gen1 = enum(1)
        assert gen1[0] == marker
        assert enum(2)[0] == t_pow(3)

    def test_paced_duplicates_dropped(self):
        enum = standard_height_enum([T], paced=[[T, T]])
        gen1 = enum(1)
        assert gen1.count(T) == 1


# few leading exponents, so that equal valuations are common; a second
# coordinate, so that gap_center's floor of the first one is exercised
_GAP_EXPS = [(F(q), F(r)) for q in (-1, 0, F(1, 2), 1, 2) for r in (0, 1)]


@st.composite
def _gap_series(draw):
    """A series of at most three terms, zero included."""
    terms = draw(st.dictionaries(
        st.sampled_from(_GAP_EXPS),
        st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
        max_size=3))
    return Series({make_exp(list(e), DIM): c for e, c in terms.items()},
                  DIM)


@st.composite
def _gap_levels(draw):
    """(lower, upper, dim): lower < upper, either one possibly None."""
    dim = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    level = st.lists(coord, min_size=dim, max_size=dim).map(
        lambda c: make_exp(c, dim))
    lower, upper = draw(st.none() | level), draw(st.none() | level)
    if lower is not None and upper is not None:
        assume(lower != upper)
        lower, upper = min(lower, upper), max(lower, upper)
    return lower, upper, dim


class TestGapCenter:
    def test_no_bounds(self):
        assert gap_center(None, None, DIM).is_zero()

    def test_straddle(self):
        assert gap_center(negate(T), T, DIM).is_zero()

    def test_same_valuation_midpoint(self):
        c = gap_center(T, t_pow(1, 3), DIM)
        assert format_series(c) == "2*t^(1)"

    def test_cross_class(self):
        c = gap_center(t_pow(2), T, DIM)
        assert format_series(c) == "t^(3/2)"

    def test_only_positive_lower(self):
        c = gap_center(t_pow(1, 2), None, DIM)
        assert format_series(c) == "1 + 2*t^(1)"

    def test_only_positive_upper(self):
        assert gap_center(None, t_pow(1, 2), DIM).is_zero()

    def test_only_negative_upper(self):
        c = gap_center(None, negate(T), DIM)
        assert format_series(c) == "-1 - t^(1)"

    def test_zero_lower(self):
        c = gap_center(zero_series(DIM), T, DIM)
        assert format_series(c) == "t^(2)"

    def test_only_zero_upper(self):
        assert format_series(gap_center(None, zero_series(DIM), DIM)) == "-1"

    def test_only_zero_lower(self):
        assert format_series(gap_center(zero_series(DIM), None, DIM)) == "1"

    @given(st.none() | _gap_series(), st.none() | _gap_series())
    @example(None, None)
    @example(None, zero_series(DIM))
    @example(zero_series(DIM), T)
    @example(negate(T), zero_series(DIM))
    @example(negate(t_pow(2)), T)
    @example(T, t_pow(1, 2))
    @example(t_pow(2), T)
    @example(negate(T), negate(t_pow(2)))
    @settings(max_examples=400, deadline=None)
    def test_center_lies_strictly_inside(self, a, b):
        """realize_type answers every query by comparing with this center,
        which agrees with the store's bounds only if it lies between them."""
        if a is not None and b is not None:
            c = compare_series(a, b)
            assume(c != 0)
            if c > 0:
                a, b = b, a
        center = gap_center(a, b, DIM)
        assert a is None or compare_series(a, center) < 0
        assert b is None or compare_series(center, b) < 0

    @given(_gap_levels())
    @example((None, None, 1))
    @example((make_exp([F(1, 2)], 1), None, 1))
    @example((None, make_exp([F(-1, 2), F(3)], 2), 2))
    @example((make_exp([0, 1], 2), make_exp([0, 2], 2), 2))
    @settings(max_examples=400, deadline=None)
    def test_gap_exponent_lies_strictly_inside_its_levels(self, levels):
        """Every witness monomial of the engine is placed by this one rule."""
        lower, upper, dim = levels
        e = make_exp(_gap_exponent(lower, upper), dim)
        assert lower is None or lower < e
        assert upper is None or e < upper


class TestClassifyGroup:
    def test_residue_sqrt2(self):
        hidden = monomial([F(1)], SQRT2, DIM)
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        basis = valuation_basis([T])
        cls = classify_cut(oracle, basis, Budgets(), mode="group")
        assert isinstance(cls, ResidueTranscendental)
        assert format_series(cls.d0) == "t^(1)"
        assert format_series(cls.scale) == "t^(1)"
        assert tuple(cls.level) == exp_of(1)
        assert format_scalar(cls.residue) == "alg[-1,2,1;0,1]"
        w = realize_cut_group(cls, oracle, basis, Budgets())
        assert format_series(w) == "alg[-2,0,1;1,2]*t^(1)"
        assert compare_series(w, hidden) == 0
        assert len(oracle.log) == 24

    def test_value_gap_sqrt_exponent(self):
        hidden = t_pow(F(1, 2))
        oracle = oracle_from_value(hidden, standard_height_enum([ONE, T]))
        basis = valuation_basis([ONE, T])
        cls = classify_cut(oracle, basis, Budgets(), mode="group")
        assert isinstance(cls, GroupTranscendental)
        assert cls.d0.is_zero()
        assert cls.direction == 1
        assert tuple(cls.lower) == exp_of(0)
        assert tuple(cls.upper) == exp_of(1)
        w = realize_cut_group(cls, oracle, basis, Budgets())
        assert format_series(w) == "t^(1/2)"

    def test_realized_from_enumeration(self):
        hidden = t_pow(1, 2)
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        cls = classify_cut(oracle, valuation_basis([T]), Budgets())
        assert isinstance(cls, Realized)
        assert compare_series(cls.element, hidden) == 0

    def test_realized_at_zero(self):
        oracle = oracle_from_value(zero_series(DIM),
                                   standard_height_enum([T]))
        cls = classify_cut(oracle, valuation_basis([T]), Budgets())
        assert isinstance(cls, Realized)
        assert cls.element.is_zero()

    def test_rational_digit_realizes(self):
        hidden = t_pow(1, F(5, 3))
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        cls = classify_cut(oracle, valuation_basis([T]), Budgets())
        assert isinstance(cls, Realized)
        assert compare_series(cls.element, hidden) == 0

    def test_negative_residue(self):
        hidden = negate(monomial([F(1)], SQRT2, DIM))
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        basis = valuation_basis([T])
        cls = classify_cut(oracle, basis, Budgets(), mode="group")
        assert isinstance(cls, ResidueTranscendental)
        w = realize_cut_group(cls, oracle, basis, Budgets())
        assert compare_series(w, hidden) == 0

    def test_uncertified_residue_refuses_realization(self):
        rho = OracleReal(lambda n: (F(0), F(1, 2 ** n)), name="rho")
        cls = ResidueTranscendental(d0=zero_series(DIM), scale=T,
                                    residue=rho, level=exp_of(1))
        oracle = oracle_from_value(T, standard_height_enum([T]))
        for realize in (realize_cut_group, realize_cut_field):
            with pytest.raises(BudgetExhausted) as ei:
                realize(cls, oracle, valuation_basis([T]), Budgets())
            assert ei.value.stage == "realize"

    @pytest.mark.parametrize("int_part", [0, 2])
    def test_bisection_residue_tracks_hidden_digits(self, int_part):
        # no candidate matches a random bit string, so the residue is the
        # bisection oracle, probing against the d0 of its own round
        rng = random.Random(1)
        bits = [rng.randint(0, 1) for _ in range(400)]
        r = oracle_bits(int_part, lambda i: bits[i])
        hidden = Series({exp_of(1): r}, DIM)
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        cls = classify_cut(oracle, valuation_basis([T]),
                           Budgets(precision_budget=4), mode="group")
        assert isinstance(cls, ResidueTranscendental)
        assert isinstance(cls.residue, OracleReal)
        assert format_series(cls.scale) == "t^(1)"
        offset = cls.d0.terms.get(exp_of(1), 0)
        for n in range(1, 31):
            lo, hi = cls.residue.interval(n)
            r_lo, r_hi = r.interval(n)
            assert lo + offset <= r_hi and r_lo <= hi + offset


class TestClassifyStateMoves:
    def test_cap_level_only_lowers_the_window(self):
        state = _ClassifyState.start(zero_series(DIM), Side.BELOW)
        state.cap_level(exp_of(2))
        assert state.window_hi == exp_of(2) and state.improved
        state.improved = False
        state.cap_level(exp_of(3))
        assert state.window_hi == exp_of(2) and not state.improved

    def test_skip_zero_digit_makes_achieved_strict_once(self):
        state = _ClassifyState.start(zero_series(DIM), Side.BELOW, exp_of(1))
        state.skip_zero_digit(exp_of(1))
        assert state.achieved_strict and state.improved
        assert not state.above_achieved(exp_of(1))
        state.improved = False
        state.skip_zero_digit(exp_of(1))
        assert not state.improved


def _reference_pick_candidate(lo, hi):
    """The box scan that _pick_candidate must match: every coefficient
    tuple of each height, one at a time, in `product` order, skipping the
    polynomials that sympy factors over Q."""
    from itertools import product

    from hahnsat.engine import _ALG_HEIGHT_CAP, _inside_after_refining
    from hahnsat.scalars import (_sympy_factors, isolate_real_roots,
                                 rational_height, simplest_between)

    best = min((lo, hi, simplest_between(lo, hi)), key=rational_height)

    def weights(x, degree):
        a, b = x.numerator, x.denominator
        return [a ** i * b ** (degree - i) for i in range(degree + 1)]

    cap = min(_ALG_HEIGHT_CAP, rational_height(best) - 1)
    for height in range(1, cap + 1):
        for degree in (2, 3):
            w_lo, w_hi = weights(lo, degree), weights(hi, degree)
            span = range(-height, height + 1)
            for coeffs in product(span, repeat=degree + 1):
                if coeffs[-1] == 0:
                    continue
                if max(abs(c) for c in coeffs) != height:
                    continue
                at_lo = sum(c * w for c, w in zip(coeffs, w_lo))
                at_hi = sum(c * w for c, w in zip(coeffs, w_hi))
                if at_lo * at_hi > 0:
                    continue
                if [len(f) for f in _sympy_factors(coeffs)] != [degree + 1]:
                    continue  # reducible
                for cell_lo, cell_hi in isolate_real_roots(list(coeffs)):
                    root = real_algebraic(list(coeffs), cell_lo, cell_hi)
                    if isinstance(root, F):
                        continue
                    if _inside_after_refining(root, lo, hi):
                        return root
    return best


def _candidate_outcome(pick, lo, hi):
    """What a report can see of a candidate pick: the rational, or the
    root's polynomial, index and refined interval, or the error raised."""
    from hahnsat.errors import MalformedAlgebraic

    try:
        q = pick(lo, hi)
    except MalformedAlgebraic as e:
        return ("raised", str(e))
    if isinstance(q, F):
        return ("rational", q)
    return ("root", tuple(q.coeffs), q.index, q.interval())


def _random_intervals(n, seed):
    from hahnsat.scalars import isolate_real_roots

    def at(cs, x):
        return sum(c * x ** i for i, c in enumerate(cs))

    rng = random.Random(seed)
    out = []
    while len(out) < n:
        k = rng.randint(3, 16)
        kind = len(out) % 3
        if kind == 0:  # a bisection cell: dyadic endpoints one step apart
            m = rng.randint(-3 * 2 ** k, 3 * 2 ** k)
            out.append((F(m, 2 ** k), F(m + 1, 2 ** k)))
        elif kind == 1:  # any rational endpoints at most 2^-k apart
            lo = F(rng.randint(-3000, 3000), rng.randint(1, 1000))
            out.append((lo, lo + F(rng.randint(1, 2 ** 10), 2 ** (k + 10))))
        else:  # a cell bisected down around a root of height <= 6
            cs = [rng.randint(-6, 6) for _ in range(rng.choice((3, 4)))]
            if cs[-1] == 0 or not any(cs[:-1]):
                continue
            cells = isolate_real_roots(cs)
            if not cells:
                continue
            lo, hi = rng.choice(cells)
            while hi - lo > F(1, 2 ** k):
                mid = (lo + hi) / 2
                if at(cs, lo) * at(cs, mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            out.append((lo, hi))
    return out


class TestPickCandidate:
    """_pick_candidate solves for c0 instead of scanning it; it must find
    the same first root as the box scan, refined to the same interval."""

    @pytest.mark.parametrize("lo, hi, literal", [
        (F(27145, 65536), F(13573, 32768), "alg[-1,2,1;0,1]"),
        (F(-5623, 65536), F(-2811, 32768), "alg[1,12,4;-1,0]"),
    ])
    def test_c8_intervals_match_the_box_scan(self, lo, hi, literal):
        from hahnsat.engine import _pick_candidate

        got = _candidate_outcome(_pick_candidate, lo, hi)
        assert got == _candidate_outcome(_reference_pick_candidate, lo, hi)
        assert format_scalar(_pick_candidate(lo, hi)) == literal

    def test_random_intervals_match_the_box_scan(self, monkeypatch):
        from hahnsat import engine

        monkeypatch.setattr(engine, "_ALG_HEIGHT_CAP", 8)
        kinds = set()
        for lo, hi in _random_intervals(40, seed=11):
            got = _candidate_outcome(engine._pick_candidate, lo, hi)
            want = _candidate_outcome(_reference_pick_candidate, lo, hi)
            assert got == want, (lo, hi)
            kinds.add(got[0])
        assert {"rational", "root"} <= kinds


class TestOneVisitPerTuple:
    """The candidate search sums each tail (c2, ..., cd) once, at its own
    height, and meets each (c1, ..., cd) once: a tuple of a lower height
    only with c1 = +-h at a later height h, and each c0 past its own
    height is filed there instead of being searched again."""

    def test_each_tail_is_visited_once(self, monkeypatch):
        from itertools import product

        seen = []
        shell = engine._shell

        def recording(height, length):
            for tail in shell(height, length):
                seen.append((length, tail))
                yield tail

        monkeypatch.setattr(engine, "_shell", recording)
        # c8's residue interval: the search runs to height 12
        root = engine._pick_candidate(F(-5623, 65536), F(-2811, 32768))
        assert format_scalar(root) == "alg[1,12,4;-1,0]"
        assert len(seen) == len(set(seen))
        for length in (1, 2):
            tails = {tail for n, tail in seen if n == length}
            top = 12 if length == 1 else 11  # degree 3 was not reached at 12
            assert tails == {t for t in product(range(-top, top + 1),
                                                repeat=length) if t[-1]}

    @pytest.mark.parametrize("degree", [2, 3])
    def test_the_heights_partition_the_sign_changes(self, degree):
        # each (c0, ..., cd) of height <= cap is found once, at its height
        from itertools import product

        lo, hi = F(-21, 8), F(-5, 2)

        def at(cs, x):
            return sum(c * x ** i for i, c in enumerate(cs))

        cap, got = 6, []
        for height, found in enumerate(
                engine._sign_changes(lo, hi, degree, cap), 1):
            assert found == sorted(found)
            assert all(max(map(abs, cs)) == height for cs in found)
            got += found
        want = [cs for cs in product(range(-cap, cap + 1), repeat=degree + 1)
                if cs[-1] and at(cs, lo) * at(cs, hi) < 0]
        assert sorted(got) == sorted(want) and len(got) == len(set(got))


def _reference_bisection(probe, lo, hi):
    """_bisection_oracle's approximation on Fractions: the midpoint of the
    interval, probed, until it is at most 2^-n wide."""
    state = {"lo": F(lo), "hi": F(hi)}

    def approx(n):
        while state["hi"] - state["lo"] > F(1, 2 ** n):
            mid = (state["lo"] + state["hi"]) / 2
            s = probe(mid)
            if s == Side.BELOW:
                state["lo"] = mid
            elif s == Side.ABOVE:
                state["hi"] = mid
            else:
                state["lo"] = state["hi"] = mid
        return state["lo"], state["hi"]

    return approx


class TestIntegerBisection:
    """_bisection_oracle bisects on integer numerators; it probes the same
    points in the same order as the Fraction bisection and returns the
    same intervals, an EQUAL probe closing the interval included."""

    def test_probes_and_intervals_match_the_fraction_reference(self):
        rng = random.Random(33)
        closed = 0
        for case in range(300):
            if case % 3 == 0:  # the digit scan's integer ends
                j = rng.randint(0, 6)
                lo, hi = (0, 1) if j == 0 else (2 ** (j - 1), 2 ** j)
                if rng.random() < 0.5:
                    lo, hi = -hi, -lo
            else:  # a candidate round's rational ends
                lo = F(rng.randint(-500, 500), rng.randint(1, 60))
                hi = lo + F(rng.randint(0, 90), rng.randint(1, 60))
            width = F(hi) - F(lo)
            if rng.random() < 0.4:  # a dyadic point of the interval
                k = rng.randint(1, 12)
                target = lo + width * F(rng.randint(0, 2 ** k), 2 ** k)
            else:
                target = lo + width * F(rng.randint(0, 10 ** 6), 10 ** 6)
            probes = ([], [])

            def probe_with(log):
                def probe(q):
                    log.append(q)
                    return Side((q > target) - (q < target))
                return probe

            got = engine._bisection_oracle(probe_with(probes[0]), lo, hi)
            want = _reference_bisection(probe_with(probes[1]), lo, hi)
            for n in sorted(rng.sample(range(0, 40), 4)) + [50, 50]:
                assert got.interval(n) == want(n), (lo, hi, target, n)
            assert probes[0] == probes[1]
            assert all(type(q) is F for q in probes[0])
            closed += got.interval(50)[0] == got.interval(50)[1]
        assert closed > 20


class TestClassifyField:
    def test_exact_algebraic_constant_shift(self):
        hidden = add(from_scalar(SQRT3, DIM), T)
        oracle = oracle_from_value(hidden, standard_height_enum([ONE, T]))
        basis = valuation_basis([ONE, T])
        cls = classify_cut(oracle, basis, Budgets(), mode="field")
        assert isinstance(cls, ResidueTranscendental)
        assert format_series(cls.d0) == "1"
        assert tuple(cls.level) == exp_of(0)
        w = realize_cut_field(cls, oracle, basis, Budgets())
        assert format_series(w) == "alg[-3,0,1;1,2] + t^(1)"
        assert compare_series(w, hidden) == 0

    def test_installed_residue_hits_the_hidden_element(self):
        # the installed d0 + scale * residue is the hidden element itself,
        # so realization ends on that one EQUAL query
        hidden = parse_series("t + alg[-2,0,1;1,2]*t^(2)")
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        basis = valuation_basis([T])
        cls = classify_cut(oracle, basis, Budgets(), mode="field")
        assert isinstance(cls, ResidueTranscendental)
        assert format_series(cls.d0) == "t^(1)"
        assert format_series(cls.scale) == "t^(2)"
        assert format_scalar(cls.residue) == "alg[-2,0,1;1,2]"
        w = realize_cut_field(cls, oracle, basis, Budgets())
        assert oracle.log[-1] == (w, Side.EQUAL)
        assert oracle.log[-1][0] is w
        assert format_series(w) == "t^(1) + alg[-2,0,1;1,2]*t^(2)"

    def test_cube_root_exponent_needs_denominator_budget(self):
        hidden = t_pow(F(1, 3))
        basis = valuation_basis([ONE, T])
        coarse = Budgets(exponent_denominator_budget=1)
        oracle = oracle_from_value(hidden, standard_height_enum([ONE, T]))
        cls = classify_cut(oracle, basis, coarse, mode="field")
        assert isinstance(cls, GroupTranscendental)
        assert format_series(realize_cut_field(cls, oracle, basis,
                                               coarse)) == "t^(1/2)"
        fine = Budgets(exponent_denominator_budget=3)
        oracle2 = oracle_from_value(hidden, standard_height_enum([ONE, T]))
        cls2 = classify_cut(oracle2, basis, fine, mode="field")
        assert isinstance(cls2, Realized)
        assert format_series(cls2.element) == "t^(1/3)"

    def test_uncertified_deeper_residue_refuses_realization(self):
        # the residue at t^1 is exact, the one at t^2 only a bit oracle that
        # no algebraic candidate matches at this precision
        rng = random.Random(1)
        bits = [rng.randint(0, 1) for _ in range(400)]
        r = oracle_bits(0, lambda i: bits[i])
        hidden = Series({exp_of(1): SQRT2, exp_of(2): r}, DIM)
        cls = ResidueTranscendental(d0=zero_series(DIM), scale=T,
                                    residue=SQRT2, level=exp_of(1))
        oracle = oracle_from_value(hidden, standard_height_enum([T]))
        with pytest.raises(BudgetExhausted) as ei:
            realize_cut_field(cls, oracle, valuation_basis([T]),
                              Budgets(precision_budget=4))
        assert ei.value.stage == "realize"

    def test_immediate_chain_and_pseudo_limit(self):
        hidden = tail_series(40)
        budgets = Budgets(height_budget=5, exponent_denominator_budget=1)

        def enum3(h):
            return [tail_series(h), from_scalar(h, DIM),
                    from_scalar(-h, DIM), from_scalar(F(1, h), DIM),
                    from_scalar(F(-1, h), DIM)]

        oracle = oracle_from_value(hidden, enum3)
        basis = valuation_basis([ONE])
        cls = classify_cut(oracle, basis, budgets, mode="field")
        assert isinstance(cls, ImmediateTranscendental)
        assert len(cls.chain) == 7
        assert format_series(cls.chain[-1]) == (
            "1 + t^(1/2) + t^(2/3) + t^(3/4) + t^(4/5) + t^(5/6)")
        w = realize_cut_field(cls, oracle, basis, budgets)
        assert format_series(w) == (
            "1 + t^(1/2) + t^(2/3) + t^(3/4) + t^(4/5) + t^(5/6) + t^(1)")

    def test_immediate_witness_steps_past_the_last_record_gap(self):
        # the logged 2 is one level from the records, but the last record
        # gap is t^2: the witness step must lie past that gap, at t^3
        oracle = oracle_from_value(parse_series("1 + t + t^2 + t^3"),
                                   standard_height_enum([ONE]))
        oracle.side(parse_series("2"))
        chain = (ONE, add(ONE, T), add(add(ONE, T), t_pow(2)))
        w = realize_cut_field(ImmediateTranscendental(chain, chain), oracle,
                              valuation_basis([ONE]), Budgets())
        assert format_series(w) == "1 + t^(1) + t^(2) + t^(3)"

    def test_immediate_refused_in_group_mode(self):
        hidden = tail_series(40)
        budgets = Budgets(height_budget=5, exponent_denominator_budget=1)

        def enum3(h):
            return [tail_series(h), from_scalar(h, DIM),
                    from_scalar(-h, DIM), from_scalar(F(1, h), DIM),
                    from_scalar(F(-1, h), DIM)]

        oracle = oracle_from_value(hidden, enum3)
        with pytest.raises(BudgetExhausted):
            classify_cut(oracle, valuation_basis([ONE]), budgets,
                         mode="group")


class TestRealizeImmediateRefusals:
    """The pseudo-limit realization refuses a record chain it cannot
    certify, naming the record at fault."""

    def test_records_not_pseudo_cauchy(self):
        # every difference has valuation 0: the records do not contract
        chain = tuple(from_scalar(F(10 ** k - 1, 10 ** k), DIM)
                      for k in range(1, 5))
        oracle = oracle_from_value(ONE, standard_height_enum([ONE]))
        with pytest.raises(PseudoLimitUnverified,
                           match="record subsequence is not pseudo-Cauchy") \
                as ei:
            realize_cut_field(ImmediateTranscendental(chain, chain), oracle,
                              valuation_basis([ONE]), Budgets())
        assert ei.value.query == "9999/10000"

    def test_witness_misses_a_record_valuation(self):
        # records 1, 2 - t, 2 - t^2 below the hidden 10; a logged 5 lies past
        # them, so the witness built on it is far from 2 - t
        two = from_scalar(2, DIM)
        chain = (ONE, subtract(two, T), subtract(two, t_pow(2)))
        oracle = oracle_from_value(from_scalar(10, DIM),
                                   standard_height_enum([ONE]))
        oracle.side(from_scalar(5, DIM))
        with pytest.raises(PseudoLimitUnverified,
                           match="witness misses a difference valuation") \
                as ei:
            realize_cut_field(ImmediateTranscendental(chain, chain), oracle,
                              valuation_basis([ONE]), Budgets())
        assert ei.value.query == "2 - t^(1)"

    @pytest.mark.parametrize("hidden, chain, prefix", [
        # an opposite-side -1/2 lies behind zero before any record
        (-1, (-3, -2), (F(-1, 2), -2, F(-3, 2))),
        # records 1, 2, 3 below 10 do not contract
        (10, (1, 2, 3), (1, 2, 3)),
    ])
    def test_no_admissible_record_path(self, hidden, chain, prefix):
        oracle = oracle_from_value(from_scalar(hidden, DIM),
                                   standard_height_enum([ONE]))
        cls = ImmediateTranscendental(
            tuple(from_scalar(q, DIM) for q in chain),
            tuple(from_scalar(q, DIM) for q in prefix))
        with pytest.raises(BudgetExhausted,
                           match="no admissible record path") as ei:
            realize_cut_field(cls, oracle, valuation_basis([ONE]), Budgets())
        assert ei.value.stage == "realize"


def _reference_records(elements, oracle, want, start):
    """Records as a tree search: the marks of the leftmost depth-n path of
    the tree whose node sigma marks the elements at its 1 bits, every node
    re-walking its whole prefix."""
    sides = {e: oracle.side(e) for e in elements}
    direction = 1 if want == Side.BELOW else -1

    def toward(e, last):
        return compare_series(e, last) * direction

    def size(x):
        return x if compare_series(x, zero_series(DIM)) >= 0 else negate(x)

    def node_ok(sigma):
        marked, last, best = [], start, None
        for e, bit in zip(elements, sigma):
            if bit == "1":
                if sides[e] != want:
                    return False
                if best is not None and toward(e, best) < 0:
                    return False  # marking a non-record
                last = e
                marked.append(e)
            elif sides[e] == want and toward(e, last) > 0:
                return False  # an unmarked record
            if sides[e] not in (want, Side.EQUAL) and toward(e, last) < 0:
                return False  # the last mark overshot the opposite side
            if sides[e] == want and (best is None or toward(e, best) > 0):
                best = e
        return all(compare_series(scale(size(subtract(c, b)), F(len(sigma))),
                                  size(subtract(b, a))) < 0
                   for a, b, c in zip(marked, marked[1:], marked[2:]))

    path = find_path_bounded(TreeOracle(node_ok), len(elements))
    if path is None:
        return None
    return [e for e, bit in zip(elements, path) if bit == "1"]


def _random_record_cut(rng):
    """A hidden element of either sign, near approximations in roughly
    ascending precision with a random sign each, and a few constants."""
    hidden = t_pow(0, rng.choice([-2, -1, 1, 2]))
    for k in range(1, 6):
        hidden = add(hidden, t_pow(k, rng.choice([-1, 1])))
    elements = [add(hidden, t_pow(k, rng.choice([-3, -1, 1, 3])))
                for k in sorted(rng.sample(range(6), rng.randint(2, 6)))]
    for _ in range(rng.randint(0, 3)):
        elements.insert(rng.randint(0, len(elements)),
                        from_scalar(F(rng.randint(-6, 6), rng.randint(1, 3)),
                                    DIM))
    if rng.random() < 0.3:
        i = rng.randrange(len(elements) - 1)
        elements[i:i + 2] = elements[i + 1], elements[i]
    return hidden, list(dict.fromkeys(e for e in elements if e != hidden))


class TestRecordsMatchTreeSearch:
    """The one-pass record scan gives the marks of the leftmost record-tree
    path, or None where that tree has no path."""

    @staticmethod
    def _assert_same(elements, oracle, want):
        start = zero_series(DIM)
        expected = _reference_records(elements, oracle, want, start)
        assert _records(elements, oracle, want, start) == expected
        return expected

    def test_immediate_tail_fixture(self, monkeypatch):
        from hahnsat import engine
        from hahnsat.cli import load_type_file

        from test_acceptance import FIXTURES

        calls = []

        def spy(elements, oracle, want, start):
            calls.append(self._assert_same(elements, oracle, want))
            return calls[-1]

        monkeypatch.setattr(engine, "_records", spy)
        tau, env = load_type_file(str(FIXTURES / "immediate_tail.type"), DIM)
        realize_type(tau, env, mode="field")
        assert len(calls) == 1 and len(calls[0]) >= 3

    def test_chain_and_pseudo_limit_cut(self):
        def enum3(h):
            return [tail_series(h), from_scalar(h, DIM),
                    from_scalar(-h, DIM), from_scalar(F(1, h), DIM),
                    from_scalar(F(-1, h), DIM)]

        oracle = oracle_from_value(tail_series(40), enum3)
        cls = classify_cut(oracle, valuation_basis([ONE]),
                           Budgets(height_budget=5,
                                   exponent_denominator_budget=1),
                           mode="field")
        marks = self._assert_same(list(cls.enum_prefix), oracle,
                                  oracle.side(cls.chain[-1]))
        assert len(marks) >= 3

    @pytest.mark.parametrize("third, contracts", [
        (F(7, 3), False),  # the last step is exactly a third of the first
        (F(9, 4), True),
        # the mirror: marks descend toward a cut below them
        (F(-7, 3), False),
        (F(-9, 4), True),
    ])
    def test_contraction_margin_is_the_prefix_length(self, third, contracts):
        sign = 1 if third > 0 else -1
        elements = [from_scalar(sign * q, DIM) for q in (1, 2, abs(third))]
        oracle = oracle_from_value(from_scalar(sign * 10, DIM), lambda h: [])
        want = Side.BELOW if sign > 0 else Side.ABOVE
        marks = self._assert_same(elements, oracle, want)
        assert marks == (elements if contracts else None)

    def test_random_cuts(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(400):
            hidden, elements = _random_record_cut(rng)
            want = rng.choice([Side.BELOW, Side.ABOVE])
            marks = self._assert_same(elements,
                                      oracle_from_value(hidden, lambda h: []),
                                      want)
            if marks is None:
                outcomes.add("none")
            elif len(marks) >= 3:
                behind = compare_series(marks[0], zero_series(DIM)) * (
                    1 if want == Side.BELOW else -1) < 0
                outcomes.add("first record behind zero" if behind
                             else "records")
        assert outcomes == {"none", "records", "first record behind zero"}


class TestFieldRankGuard:
    """The chain's difference valuations may span at most as many
    dimensions as there are generators."""

    @staticmethod
    def chain_state(*chain):
        return _ClassifyState(d0=chain[-1], direction=1, chain=list(chain))

    def test_rank_equal_to_generator_count_passes(self):
        # differences t and t^2: valuations (1,0), (2,0) have rank 1
        state = self.chain_state(zero_series(DIM), T, add(T, t_pow(2)))
        _field_rank_guard(state, valuation_basis([T]))

    def test_rank_above_generator_count_raises(self):
        # differences t and t^(0,1): valuations (1,0), (0,1) have rank 2
        state = self.chain_state(zero_series(DIM), T,
                                 add(T, monomial([F(0), F(1)], 1, DIM)))
        with pytest.raises(OracleFailure, match="rank 2 exceeds"):
            _field_rank_guard(state, valuation_basis([T]))


def beta_type():
    def emit(i):
        k = i // 2
        if i % 2 == 0:
            return parse_formula(f"{k + 1}*g2 < x")
        return parse_formula(f"{k + 1}*x < g1")

    return PartialType(emit, "x", ("g1", "g2"))


BETA_ENV = {"g1": T, "g2": t_pow(2)}


class TestCompleteType:
    def test_beta_completion_store(self):
        comp = complete_type(beta_type(), BETA_ENV)
        assert comp.bits == (
            "110001100000010100010010100000101000001010000010")
        assert format_series(comp.lower) == "24*t^(2)"
        assert format_series(comp.upper) == "1/24*t^(1)"
        assert comp.point is None
        assert comp.interval_states == 1

    def test_completion_is_idempotent(self):
        comp = complete_type(beta_type(), BETA_ENV)
        again = complete_type(completed_partial_type(comp, ("g1", "g2")),
                              BETA_ENV)
        assert again.bits == comp.bits

    def test_conflicting_pair_is_named(self):
        def emit(i):
            return parse_formula("g1 < x" if i == 0 else "x < g1")

        tau = PartialType(emit, "x", ("g1",))
        with pytest.raises(NotFinitelySatisfiable) as info:
            complete_type(tau, {"g1": T})
        assert info.value.witness == ("g1 < x", "x < g1")

    def test_degenerate_emission_alone(self):
        tau = PartialType(lambda i: parse_formula("x < x"), "x", ())
        with pytest.raises(NotFinitelySatisfiable) as info:
            complete_type(tau, {})
        assert info.value.witness == ("false",)

    def test_emission_unsatisfiable_alone_is_named(self):
        def emit(i):
            return parse_formula("x < g1 and g2 < x") if i == 0 else None

        tau = PartialType(emit, "x", ("g1", "g2"))
        with pytest.raises(NotFinitelySatisfiable) as info:
            complete_type(tau, {"g1": t_pow(2), "g2": T})
        assert info.value.witness == ("(x < g1 and g2 < x)",)

    def test_pairwise_satisfiable_prefix_is_named_whole(self):
        texts = ["(0 < x and x < g1) or (2*g1 < x and x < 3*g1)",
                 "(0 < x and x < g1) or (4*g1 < x and x < 5*g1)",
                 "(2*g1 < x and x < 3*g1) or (4*g1 < x and x < 5*g1)"]
        formulas = [parse_formula(tx) for tx in texts]

        def emit(i):
            return formulas[i] if i < len(formulas) else None

        tau = PartialType(emit, "x", ("g1",))
        with pytest.raises(NotFinitelySatisfiable,
                           match="prefix of length 3 is unsatisfiable") as info:
            complete_type(tau, {"g1": T})
        assert info.value.witness == tuple(format_formula(f)
                                           for f in formulas)

    def test_too_many_interval_states_exhaust_the_budget(self):
        f = parse_formula(" or ".join(
            f"({2 * k}*g1 < x and x < {2 * k + 1}*g1)" for k in range(65)))

        def emit(i):
            return f if i == 0 else None

        with pytest.raises(BudgetExhausted,
                           match="more than 64 interval states") as info:
            complete_type(PartialType(emit, "x", ("g1",)), {"g1": T})
        assert info.value.stage == "worlds"

    def test_none_emissions_are_skipped(self):
        def emit(i):
            if i % 3:
                return None
            return parse_formula("g1 < x")

        comp = complete_type(PartialType(emit, "x", ("g1",)), {"g1": T})
        assert len(comp.thetas) == 16
        assert format_series(comp.lower) == "t^(1)"

    def test_quantified_emission_is_eliminated(self):
        def emit(i):
            if i == 0:
                return parse_formula("exists y (g1 < y and y < x)")
            return None

        comp = complete_type(PartialType(emit, "x", ("g1",)), {"g1": T})
        assert format_formula(comp.thetas[0][1]) == "g1 < x"

    def test_point_store(self):
        tau = PartialType(lambda i: parse_formula("x = g1"), "x", ("g1",))
        comp = complete_type(tau, {"g1": T})
        assert format_series(comp.point) == "t^(1)"


def _leftmost_tree_path(tau, env, mode, prefix):
    """Completion as a tree search: the leftmost node at depth min(prefix,
    fragment size) of the tree whose node sigma lives while conjoining its
    decisions (bit 1: the i-th enumerated formula, bit 0: its negation)
    onto the emissions' stores keeps a store; with that node's stores."""
    thetas = _materialize(tau, env, DIM, Budgets(formula_prefix_budget=prefix))
    memo = {"": _check_prefix_satisfiable(thetas,
                                          AtomTable(env, tau.var, DIM))}
    sig = Signature(mode, (tau.var,) + tuple(tau.params))
    formulas = []
    while len(formulas) < prefix:
        try:
            formulas.append(enumerate_formulas(len(formulas), sig))
        except ValueError:  # a finite fragment, decided whole
            break

    def states_for(sigma):
        if sigma not in memo:
            f = formulas[len(sigma) - 1]
            memo[sigma] = conjoin(states_for(sigma[:-1]),
                                  f if sigma[-1] == "1" else Not(f), env,
                                  tau.var, DIM)
        return memo[sigma]

    path = find_path_bounded(TreeOracle(lambda s: bool(states_for(s))),
                             len(formulas))
    return path, states_for(path)


class TestCompletionMatchesTreeSearch:
    """The negation-first descent finds the leftmost path of the tree of
    consistent extensions, with the same final stores."""

    @staticmethod
    def _assert_same(tau, env, mode, prefix):
        comp = complete_type(tau, env, mode,
                             Budgets(formula_prefix_budget=prefix))
        path, states = _leftmost_tree_path(tau, env, mode, prefix)
        assert comp.bits == path
        assert (comp.lower, comp.upper, comp.point) == states[0]
        assert comp.interval_states == len(states)

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("name", ["residue_sqrt2", "beta",
                                      "immediate_tail"])
    def test_fixtures(self, name, mode):
        from hahnsat.cli import load_type_file

        from test_acceptance import FIXTURES

        tau, env = load_type_file(str(FIXTURES / f"{name}.type"), DIM)
        self._assert_same(tau, env, mode, Budgets().formula_prefix_budget)

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_c8_types(self, seed, mode):
        from test_acceptance import _generated_type

        tau, env = _generated_type(seed)
        self._assert_same(tau, env, mode, 100)


class TestRealizeType:
    def test_beta_value_gap(self):
        res = realize_type(beta_type(), BETA_ENV, mode="group")
        assert format_series(res.witness) == "t^(3/2)"
        assert isinstance(res.classification, GroupTranscendental)
        assert all(ok for _, ok in res.verification)
        assert "store: lower=24*t^(2) upper=1/24*t^(1) point=-" in res.report
        assert "value-gap fill" in res.report

    def test_beta_determinism(self):
        first = realize_type(beta_type(), BETA_ENV, mode="group")
        second = realize_type(beta_type(), BETA_ENV, mode="group")
        assert first.report == second.report

    def test_scalar_cut_residue(self):
        from math import isqrt

        def emit(i):
            k = i // 2
            p = isqrt(2 * 4 ** k)
            if i % 2 == 0:
                return parse_formula(f"{p}*g1 < {2 ** k}*x")
            return parse_formula(f"{2 ** k}*x < {p + 1}*g1")

        tau = PartialType(emit, "x", ("g1",))
        res = realize_type(tau, {"g1": T}, mode="group")
        assert format_series(res.witness) == "alg[-2,0,1;1,2]*t^(1)"
        assert all(ok for _, ok in res.verification)
        assert "free decisions: 0" in res.report
        assert "oracle queries: 24" in res.report

    def test_point_type_realized_exactly(self):
        tau = PartialType(lambda i: parse_formula("x = g1"), "x", ("g1",))
        res = realize_type(tau, {"g1": T})
        assert format_series(res.witness) == "t^(1)"
        assert "exact element" in res.report


class TestAtomTable:
    """A realization solves each atom once, and its table of atom stores
    does not outlive it: types of one signature share the enumerated atoms,
    not their stores."""

    # gate c8's types over g1 alone; 1031 broke a table that outlived its type
    SEEDS = (1027, 1029, 1031, 1035, 1038)
    BUDGETS = Budgets(formula_prefix_budget=100)

    def _reports(self, seeds):
        out = {}
        for seed in seeds:
            tau, env = _generated_type(seed)
            out[seed] = realize_type(tau, env, mode="group",
                                     budgets=self.BUDGETS).report
        return out

    def test_reports_do_not_depend_on_the_order(self):
        assert self._reports(self.SEEDS) == self._reports(self.SEEDS[::-1])

    @pytest.mark.parametrize("seed, mode", [(1031, "group"), (1000, "field")])
    def test_each_atom_is_solved_once(self, monkeypatch, seed, mode):
        solved = Counter()
        solve = formulas._solve_for

        def counting(a, var):
            solved[a, var] += 1
            return solve(a, var)

        monkeypatch.setattr(formulas, "_solve_for", counting)
        tau, env = _generated_type(seed)
        realize_type(tau, env, mode=mode, budgets=self.BUDGETS)
        assert solved and max(solved.values()) == 1

    @pytest.mark.parametrize("mode", ["group", "field"])
    @pytest.mark.parametrize("seed", [1001, 1025, 1031])
    def test_each_term_is_evaluated_once_per_model(self, monkeypatch, seed,
                                                   mode):
        """The table's model and the witness model each evaluate a term at
        most once, and the verification's dict of term values starts empty:
        no value of the table reaches the check of the witness."""
        tau, env = _generated_type(seed)
        evaluated = {"table": Counter(), "witness": Counter()}
        term_series = formulas._term_series

        def counting(t, tenv, dim, values=None):
            if values is None:  # an evaluation, not a look-up
                evaluated["witness" if tau.var in tenv else "table"][t] += 1
            return term_series(t, tenv, dim, values)

        dicts = []  # (dict, its size on entry) per verification call
        verify = engine.eval_formula

        def recording(f, fenv, dim=None, values=None):
            if tau.var in fenv:
                dicts.append((values, len(values)))
            return verify(f, fenv, dim, values)

        monkeypatch.setattr(formulas, "_term_series", counting)
        monkeypatch.setattr(engine, "eval_formula", recording)
        realize_type(tau, env, mode=mode, budgets=self.BUDGETS)
        for model in ("table", "witness"):
            assert evaluated[model] and max(evaluated[model].values()) == 1
        values = dicts[0][0]
        assert dicts[0][1] == 0
        assert all(d is values for d, _ in dicts)
        assert set(values) == set(evaluated["witness"])

    def test_atoms_hold_only_their_fields_and_hash(self):
        # a solve, store or negation kept on the shared atoms would outlive
        # the realization that made it
        sigs = set()
        for seed in (1027, 1031):
            tau, env = _generated_type(seed)
            realize_type(tau, env, mode="group", budgets=self.BUDGETS)
            sigs.add(Signature("group", (tau.var,) + tuple(tau.params)))
        (sig,) = sigs
        atoms = [f for f in islice(formulas._fragment(sig), 100)
                 if isinstance(f, formulas.Atom)]
        assert all(set(vars(a)) <= {"rel", "pos", "neg", "_hash"}
                   for a in atoms)
        assert any("_hash" in vars(a) for a in atoms)


class TestCompiledFragment:
    """complete_type reads the fragment compiled once per signature and
    variable; it decides what conjoining each formula's negation, then the
    formula, onto the stores decides, and the compiled form keeps nothing
    that depends on the parameters."""

    @staticmethod
    def _reference(tau, env, mode, prefix):
        """The completion's fields by conjoining Not(f), then f."""
        budgets = Budgets(formula_prefix_budget=prefix)
        thetas = _materialize(tau, env, DIM, budgets)
        states = _check_prefix_satisfiable(thetas,
                                           AtomTable(env, tau.var, DIM))
        sig = Signature(mode, (tau.var,) + tuple(tau.params))
        bits, decided = "", []
        for f in islice(formulas._fragment(sig), prefix):
            for bit, constraint in (("0", Not(f)), ("1", f)):
                extended = conjoin(states, constraint, env, tau.var, DIM)
                if extended:
                    break
            states = extended
            bits += bit
            decided.append(constraint)
        return (bits, tuple(decided), *states[0], len(states))

    def _assert_same(self, tau, env, mode, prefix):
        comp = complete_type(tau, env, mode,
                             Budgets(formula_prefix_budget=prefix))
        assert (comp.bits, comp.decided, comp.lower, comp.upper, comp.point,
                comp.interval_states) == \
            self._reference(tau, env, mode, prefix)

    @pytest.mark.parametrize("mode", ["group", "field"])
    def test_c8_types_match_the_reference(self, mode):
        for seed in range(1000, 1050):
            tau, env = _generated_type(seed)
            self._assert_same(tau, env, mode, 100)

    def test_tail_chains_match_the_reference(self):
        rng = random.Random(42)
        for _ in range(16):
            self._assert_same(tail_chain(rng), {}, "field", 64)

    @staticmethod
    def _reachable(obj):
        """obj and everything its containers and dataclass fields hold."""
        stack, out = [obj], []
        while stack:
            o = stack.pop()
            out.append(o)
            if isinstance(o, dict):
                stack.extend(o.keys())
                stack.extend(o.values())
            elif isinstance(o, (tuple, list)):
                stack.extend(o)
            elif hasattr(o, "__dataclass_fields__"):
                stack.extend(getattr(o, name)
                             for name in o.__dataclass_fields__)
        return out

    @staticmethod
    def _units(compiled):
        return [unit for branches in compiled.entries
                for _, _, unit in branches]

    def test_second_realization_solves_no_fragment_atom(self, monkeypatch):
        budgets = Budgets(formula_prefix_budget=100)
        tau, env = _generated_type(1027)
        realize_type(tau, env, mode="group", budgets=budgets)
        compiled = formulas.compiled_fragment(
            Signature("group", (tau.var,) + tuple(tau.params)), tau.var)
        assert len(compiled.entries) >= 100

        units = self._units(compiled)
        held = self._reachable((compiled.entries,
                                [(unit.kept, dict(unit)) for unit in units]))
        assert not any(isinstance(o, Series) for o in held)
        assert (None, None, None) not in held  # the store of a true atom

        known = {a for unit in units for a in unit}
        missed = []
        missing = formulas._Compiled.__missing__

        def recording(unit, a):
            missed.append(a)
            return missing(unit, a)

        monkeypatch.setattr(formulas._Compiled, "__missing__", recording)
        tau, env = _generated_type(1031)  # the same signature
        assert formulas.compiled_fragment(
            Signature("group", (tau.var,) + tuple(tau.params)),
            tau.var) is compiled
        realize_type(tau, env, mode="group", budgets=budgets)
        assert not any(a in known for a in missed)

    def test_units_solve_only_their_own_atoms(self):
        budgets = Budgets(formula_prefix_budget=100)
        for seed in (1027, 1031):
            tau, env = _generated_type(seed)
            realize_type(tau, env, mode="group", budgets=budgets)
        compiled = formulas.compiled_fragment(
            Signature("group", (tau.var,) + tuple(tau.params)), tau.var)
        units = self._units(compiled)
        assert any(units)
        for unit in units:
            assert set(unit) <= {a for world in unit.kept for a in world}

    def test_generic_callers_solve_lazily(self):
        # the false atom ends the world before the nonlinear one is solved
        env = {"g1": T}
        assert not satisfiable(parse_formula("g1 < 0 and x*x < 1"), env)
        with pytest.raises(NonlinearUnsupported):
            satisfiable(parse_formula("x*x < 1 and g1 < 0"), env)


def tail_chain(rng, pairs=16):
    """A parameter-free immediate-tail chain, drawn from rng: a_k = 1 +
    sum_{j<k} c_j t^e_j with e_0 = 1/r_0, e_{j+1} = e_j + (1 - e_j)/r_j,
    r_j in {2,3,4}, c_j = a/b (a in 1..3, b in 1..2); emission pair k is
    a_k < x and x < a_k + 2 c_k t^e_k."""
    e, text, emissions = F(0), "1", []
    for _ in range(pairs):
        e += (1 - e) / rng.choice((2, 3, 4))
        c = F(rng.randint(1, 3), rng.randint(1, 2))
        emissions.append(parse_formula(f"{text} < x"))
        emissions.append(parse_formula(f"x < {text} + {2 * c}*t^({e})"))
        text += f" + {c}*t^({e})"
    return PartialType(lambda i: emissions[i] if i < len(emissions) else None,
                       "x", ())


def tail_type():
    def a_text(k):
        return " + ".join(["1"] + [f"t^({j}/{j + 1})"
                                   for j in range(1, k + 1)])

    def emit(i):
        k = i // 2 + 1
        if i % 2 == 0:
            return parse_formula(f"{a_text(k - 1)} < x")
        return parse_formula(f"x < {a_text(k - 1)} + 2*t^({k}/{k + 1})")

    return PartialType(emit, "x", ())


class TestRealizeTailType:
    def test_pseudo_limit_fill_at_height_four(self):
        res = realize_type(tail_type(), {}, mode="field",
                           budgets=Budgets(height_budget=4,
                                           formula_prefix_budget=10))
        assert format_series(res.witness) == (
            "1 + t^(1/2) + t^(2/3) + t^(3/4) + t^(4/5) + t^(1)")
        assert "pseudo-limit fill" in res.report
        assert all(ok for _, ok in res.verification)

    def test_center_hit_at_height_five(self):
        res = realize_type(tail_type(), {}, mode="field",
                           budgets=Budgets(height_budget=5,
                                           formula_prefix_budget=10))
        assert format_series(res.witness) == (
            "1 + t^(1/2) + t^(2/3) + t^(3/4) + t^(4/5) + t^(5/6)")
        assert "exact element" in res.report

    def test_short_chain_exhausts(self):
        with pytest.raises(BudgetExhausted) as info:
            realize_type(tail_type(), {}, mode="field",
                         budgets=Budgets(height_budget=1,
                                         formula_prefix_budget=10))
        assert info.value.stage == "realize"

    def test_deep_prefix_clamps_witness_into_store(self):
        # At prefix 48 the store reaches a_23 while the height-4 chain stops
        # at a_4; the witness must still satisfy every decided emission.
        res = realize_type(tail_type(), {}, mode="field")
        assert all(ok for _, ok in res.verification)
        assert "pseudo-limit fill (clamped to the decided prefix)" \
            in res.report
        assert format_series(res.witness).endswith("t^(23/24) + t^(24/25)")


class TestInconclusiveReport:
    def test_rendering(self):
        try:
            realize_type(tail_type(), {}, mode="field",
                         budgets=Budgets(height_budget=1,
                                         formula_prefix_budget=10))
        except BudgetExhausted as exc:
            text = render_inconclusive_report(
                exc, "field", Budgets(height_budget=1,
                                      formula_prefix_budget=10))
        assert "inconclusive" in text
        assert "stage: realize" in text
        assert "detail: pseudo-sequence too short (1 record(s))" in text


class TestComputableSequences:
    @staticmethod
    def sqrt2_real():
        rho = real_algebraic([-2, 0, 1], 1, 2)
        return OracleReal(lambda n: rho.interval() if rho.refine(
            F(1, 2 ** n)) or True else None, name="sqrt2")

    def test_constant_generator_needs_no_precision(self):
        emit = sequence_is_computable_in(
            lambda i, r: parse_formula("g1 < x"), self.sqrt2_real())
        emit(3)
        assert emit.precision_log[3] == 0

    def test_quantized_approximant_generator(self):
        def emit_raw(i, r):
            lo, hi = r.interval(2 * i + 4)
            p = (lo * 2 ** i).__floor__()
            return parse_formula(f"{p}*g1 < {2 ** i}*x")

        emit = sequence_is_computable_in(emit_raw, self.sqrt2_real())
        f = emit(4)
        assert format_formula(f) == "11*g1 < 8*x"
        assert emit.precision_log[4] == 12

    def test_raw_endpoint_generator_is_rejected(self):
        def emit_raw(i, r):
            lo, _ = r.interval(i + 2)
            return parse_formula(f"{lo.numerator}*g1 < {lo.denominator}*x")

        with pytest.raises(OracleFailure):
            sequence_is_computable_in(emit_raw, self.sqrt2_real())

    def test_branch_on_half_resolves_at_precision_two(self):
        third = OracleReal(lambda n: (F(1, 3) - F(1, 2 ** (n + 1)),
                                      F(1, 3) + F(1, 2 ** (n + 1))),
                           name="third")

        def emit_raw(i, r):
            n = 0
            while True:
                lo, hi = r.interval(n)
                if hi < F(1, 2):
                    return parse_formula(f"{i} < x")
                if F(1, 2) <= lo:
                    return parse_formula(f"x < {i}")
                n += 1

        emit = sequence_is_computable_in(emit_raw, third)
        assert format_formula(emit(0)) == "0 < x"
        assert emit.precision_log[0] == 2


class TestReportDigest:
    """Byte-identity guard for kernel rewrites: the concatenated reports of
    a fixed set of generated types, beyond the three CLI goldens."""

    # gate c8's generator seeds: span (1001, 1006, 1007, 1009), gap (1000,
    # 1004, 1005, 1013) and residue (1010, 1014) types, group mode
    GROUP_SEEDS = (1000, 1001, 1004, 1005, 1006, 1007, 1009, 1010, 1013, 1014)
    DIGEST = "44c62ab19df3f622fc928f766d18ad4ef32ef9870daa70bde62e3763e4e542e2"

    def test_reports_are_byte_identical(self):
        import hashlib

        from test_acceptance import _generated_type

        h = hashlib.sha256()
        for seed in self.GROUP_SEEDS:
            tau, env = _generated_type(seed)
            res = realize_type(tau, env, mode="group",
                               budgets=Budgets(formula_prefix_budget=100))
            h.update(res.report.encode())
        # an immediate-tail chain in field mode
        res = realize_type(tail_type(), {}, mode="field",
                           budgets=Budgets(formula_prefix_budget=32))
        h.update(res.report.encode())
        assert h.hexdigest() == self.DIGEST

    # span (1001, 1009), gap (1004) and residue (1010, 1014) types in field
    # mode; the residue types resolve deeper levels after installing their
    # first residue and end in a stable value gap
    FIELD_SEEDS = (1001, 1004, 1009, 1010, 1014)
    FIELD_DIGEST = \
        "da2cf6433494ab3dbb014772edab589c7707e27685b0be9fe6e360b7e0964978"

    def test_field_reports_are_byte_identical(self):
        import hashlib

        from test_acceptance import _generated_type

        h = hashlib.sha256()
        for seed in self.FIELD_SEEDS:
            tau, env = _generated_type(seed)
            res = realize_type(tau, env, mode="field",
                               budgets=Budgets(formula_prefix_budget=100))
            h.update(res.report.encode())
        assert h.hexdigest() == self.FIELD_DIGEST

    # the types whose residue search scans past height 2: 1002 and 1008 in
    # group mode, 1008, 1017 and 1036 in field mode
    CANDIDATE_RUNS = (("group", 1002), ("group", 1008), ("field", 1008),
                      ("field", 1017), ("field", 1036))
    CANDIDATE_DIGEST = \
        "779deedda11258b247336f25cf815a6b81c18fb062adac25226f0d94e615ec3d"

    def test_candidate_search_reports_are_byte_identical(self):
        import hashlib

        from test_acceptance import _generated_type

        h = hashlib.sha256()
        for mode, seed in self.CANDIDATE_RUNS:
            tau, env = _generated_type(seed)
            res = realize_type(tau, env, mode=mode,
                               budgets=Budgets(formula_prefix_budget=100))
            h.update(res.report.encode())
        assert h.hexdigest() == self.CANDIDATE_DIGEST

    # the field types whose level scans resolve the most levels per
    # approximation: each resolved level leaves the observed bounds in force
    LEVEL_SCAN_SEEDS = (1018, 1045)
    LEVEL_SCAN_DIGEST = \
        "658cfa5c32540fee5e56ab921db903961e0c843a4b3b3c0e54239c437024fbf4"

    def test_level_scan_reports_are_byte_identical(self):
        import hashlib

        from test_acceptance import _generated_type

        h = hashlib.sha256()
        for seed in self.LEVEL_SCAN_SEEDS:
            tau, env = _generated_type(seed)
            res = realize_type(tau, env, mode="field",
                               budgets=Budgets(formula_prefix_budget=100))
            h.update(res.report.encode())
        assert h.hexdigest() == self.LEVEL_SCAN_DIGEST

    # 16 immediate-tail chains drawn from seed 42, field mode, prefix 64
    TAIL_DIGEST = \
        "f69a8c27c617a1fc1d61bef86892059feb4462b388d26cbca6fe8d186824527b"

    def test_tail_chain_reports_are_byte_identical(self):
        import hashlib

        h = hashlib.sha256()
        rng = random.Random(42)
        for _ in range(16):
            res = realize_type(tail_chain(rng), {}, mode="field",
                               budgets=Budgets(formula_prefix_budget=64))
            h.update(res.report.encode())
        assert h.hexdigest() == self.TAIL_DIGEST
