"""Cut classification and type realization over the finite-support model.

A cut is presented only through a CutOracle (side queries against a hidden
element, plus a height-graded enumeration of comparison elements).  The
engine maximizes the valuation of (hidden - d0) over examined candidates,
resolves rational digits level by level, and classifies the cut as realized,
residue-transcendental (irrational leading coefficient), value-transcendental
(valuation falls in a gap of the observed value set), or immediate
(the approximation keeps improving through the final height generation).
All conclusions are budget-relative and reported as such.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BudgetExhausted,
    NonlinearUnsupported,
    NotFinitelySatisfiable,
    OracleFailure,
    PseudoLimitUnverified,
)
from .formulas import (
    And,
    AtomTable,
    PartialType,
    Signature,
    _has_quantifier,
    _inside,
    _worlds,
    compiled_fragment,
    doag_qe,
    eval_formula,
    format_formula,
    free_symbols,
    iter_atoms,
)
from .scalars import (
    OracleReal,
    _fraction,
    _make_algebraic,
    _nullspace_of_rows,
    format_scalar,
    isolate_real_roots,
    rational_height,
    compare,
    simplest_between,
)
from .series import (
    INFINITY,
    Series,
    _first_difference,
    _format_exp,
    add,
    add_scaled,
    compare_series,
    diff_valuation,
    exp_add,
    exp_scale,
    format_series,
    linear_combination,
    monomial,
    scale,
    subtract,
    valuation,
    zero_exp,
    zero_series,
)
from .valbasis import (
    PseudoSequence,
    SpanBasis,
    check_pseudo_cauchy,
    pseudo_limit,
    valuation_basis,
)


class Side(Enum):
    BELOW = -1
    EQUAL = 0
    ABOVE = 1


@dataclass(frozen=True)
class Budgets:
    height_budget: int = 4
    exponent_denominator_budget: int = 2
    formula_prefix_budget: int = 48
    precision_budget: int = 16

    def __post_init__(self):
        for budget in fields(self):
            if getattr(self, budget.name) < 1:
                raise ValueError(f"{budget.name} must be positive")


class CutOracle:
    """side: element -> Side, queried against a hidden cut; height_enum:
    generation -> new comparison elements.  Answers must be monotone in the
    queried element: a larger element never gets a lower side.  The wrapper
    memoizes, logs every query in order, and enforces that at most one
    element tests EQUAL."""

    def __init__(self, side: Callable[[Series], Side],
                 height_enum: Callable[[int], Iterable[Series]]):
        self._side = side
        self.height_enum = height_enum
        self._memo: dict = {}
        self.log: list = []
        self._equal_key = None

    def side(self, d: Series) -> Side:
        key = d
        s = self._memo.get(key)
        if s is not None:
            return s
        s = self._side(d)
        if not isinstance(s, Side):
            raise OracleFailure(f"oracle returned {s!r}, not a Side")
        if s == Side.EQUAL:
            if self._equal_key is not None and self._equal_key != key:
                raise OracleFailure("oracle reported two distinct EQUAL elements")
            self._equal_key = key
        self._memo[key] = s
        self.log.append((d, s))
        return s

    def check_monotone(self) -> bool:
        """Spot-check the monotonicity invariant over the query log."""
        for i, (d, s) in enumerate(self.log):
            for d2, s2 in self.log[i + 1:]:
                c = compare_series(d, d2)
                if c <= 0 and s == Side.ABOVE and s2 == Side.BELOW:
                    return False
                if c >= 0 and s == Side.BELOW and s2 == Side.ABOVE:
                    return False
        return True


def oracle_from_value(x0: Series,
                      height_enum: Callable[[int], Iterable[Series]]) -> CutOracle:
    """The cut of a concrete hidden element: each query is one comparison
    with x0.  realize_type hides the completion store's point or gap
    center here."""

    return CutOracle(lambda d: Side(compare_series(d, x0)), height_enum)


@cache
def _rationals_of_height(h: int) -> tuple:
    """All p/q with max(|p|, q) <= h, ascending."""
    return tuple(sorted({Fraction(num, den) for den in range(1, h + 1)
                         for num in range(-h, h + 1)}))


def standard_height_enum(generators: Sequence[Series],
                         paced: Sequence[Sequence[Series]] = ()) -> Callable:
    """Enumerate the rational-linear span of the generators by ascending
    coefficient height, releasing one paced batch per generation."""
    gens = list(generators)
    paced = [list(group) for group in paced]
    seen: set = set()

    def enum(h: int):
        batch = []
        if h - 1 < len(paced):
            batch.extend(paced[h - 1])
        for vec in product(_rationals_of_height(h), repeat=len(gens)):
            # only vectors whose maximal height is exactly h are new here
            if any(vec) and max(rational_height(q) for q in vec) == h:
                batch.append(linear_combination(zip(vec, gens), gens[0].dim))
        out = []
        for e in batch:
            if e not in seen and not e.is_zero():
                seen.add(e)
                out.append(e)
        return out

    return enum


# ---------------------------------------------------------------------------
# classification result types


@dataclass(frozen=True)
class Realized:
    element: Series


@dataclass(frozen=True)
class ResidueTranscendental:
    d0: Series
    scale: Series
    residue: object  # RealAlgebraic or OracleReal
    level: tuple


@dataclass(frozen=True)
class GroupTranscendental:
    d0: Series
    lower: Optional[tuple]  # v(hidden - d0) strictly above this level
    upper: Optional[tuple]  # and strictly below this one
    direction: int


@dataclass(frozen=True)
class ImmediateTranscendental:
    chain: tuple  # successive adopted approximations, ascending
    enum_prefix: tuple  # enumerated comparison elements, in arrival order


# ---------------------------------------------------------------------------
# grids


def _levels(basis: SpanBasis, budgets: Budgets, mode: str):
    """(grid, unit): the cut's candidate levels, ascending, and the unit a
    digit at level gamma scales, None where there is none.  Group mode: the
    parameter classes' valuations and representatives; field mode: sums of
    p/q times them, q and |p| up to the denominator budget, and monomials."""
    # one representative per archimedean class, so one per valuation
    reps = {valuation(rep): rep for rep in basis.class_reps}
    if mode == "group":
        return sorted(reps), reps.get
    dim = basis.generators[0].dim
    grid = {zero_exp(dim)}
    for gamma in reps:
        # 0 is one of the multiples, so the grid only grows
        steps = [exp_scale(gamma, r) for r in
                 _rationals_of_height(budgets.exponent_denominator_budget)]
        grid = {exp_add(g0, step) for g0 in grid for step in steps}
    return sorted(grid), lambda gamma: monomial(gamma, 1, dim)


# ---------------------------------------------------------------------------
# canonical gap center


def _gap_exponent(lower: Optional[tuple], upper: Optional[tuple]) -> tuple:
    """An exponent strictly between the levels `lower` and `upper` (None:
    unbounded): their midpoint, or one unit past the first coordinate of
    the one bounded level, or 0.  Every witness monomial is placed here."""
    if lower is not None and upper is not None:
        return exp_scale(exp_add(lower, upper), Fraction(1, 2))
    if lower is not None:
        return (Fraction(math.floor(lower[0]) + 1),)
    if upper is not None:
        return (Fraction(math.floor(upper[0]) - 1),)
    return (Fraction(0),)


def _level(x: Series) -> Optional[tuple]:
    """v(x) as a gap end: None, unbounded, for x = 0."""
    return None if x.is_zero() else valuation(x)


def gap_center(lower: Optional[Series], upper: Optional[Series],
               dim: int) -> Series:
    """Deterministic representative of the open interval (lower, upper):
    0 when the interval holds it, else a point placed by _gap_exponent."""
    zero = zero_series(dim)
    if (lower is None or compare_series(lower, zero) < 0) and \
            (upper is None or compare_series(zero, upper) < 0):
        return zero
    if lower is None or upper is None:
        # a ray: step past its end by a monomial that outweighs it
        end, sign = (upper, -1) if lower is None else (lower, 1)
        return add(end, monomial(_gap_exponent(None, _level(end)), sign, dim))
    vl, vu = _level(lower), _level(upper)
    if vl == vu:
        return scale(add(lower, upper), Fraction(1, 2))
    # one side of 0: from the far end's level toward the near end's
    sign = 1 if compare_series(upper, zero) > 0 else -1
    far, near = (vu, vl) if sign > 0 else (vl, vu)
    return monomial(_gap_exponent(far, near), sign, dim)


# ---------------------------------------------------------------------------
# cut classification


_ALG_HEIGHT_CAP = 20
_SAME_LEVEL_DIGIT_CAP = 4


def _inside_after_refining(root, lo: Fraction, hi: Fraction) -> bool:
    # Not an exact `compare`: the refinement narrows root's interval in
    # place, and _resolve_level probes the oracle at that interval's
    # endpoints (ra, rb), so the reports depend on where it stops.
    ra, rb = root.interval()
    for _ in range(12):
        if lo < ra and rb < hi:
            return True
        if rb <= lo or ra >= hi:
            return False
        root.refine((rb - ra) / 4)
        ra, rb = root.interval()
    return False


def _resolve_level(oracle: CutOracle, state: _ClassifyState, u: Series,
                   gamma: tuple, budgets: Budgets):
    """Place the hidden element against d0 + q*u for rational q at level
    gamma, adopting each rational digit and resolving the level again.
    Returns Realized or ResidueTranscendental when the level forces one,
    else None after moving the state's window."""
    pb = budgets.precision_budget
    for _ in range(_SAME_LEVEL_DIGIT_CAP):
        d0, direction = state.d0, state.direction

        # this round's d0: a returned bisection oracle keeps probing with it
        def at(q: Fraction) -> Series:
            return add_scaled(d0, u, q)

        def probe(q: Fraction) -> Side:
            return oracle.side(at(q))

        # exponential scan in the working direction until the side flips
        for j in range(pb + 1):
            q = _fraction(direction << j, 1)
            s = probe(q)
            if s == Side.EQUAL:
                return Realized(at(q))
            if s != _effective_side(direction):
                break
        else:
            state.cap_level(gamma)
            return None
        # orient as a real interval: below-side endpoint first, then bisect
        # to the precision budget; a probe testing EQUAL closes the interval
        near = direction << (j - 1) if j else 0
        lo, hi = (near, q) if direction > 0 else (q, near)
        lo, hi = _bisection_oracle(probe, lo, hi).interval(pb)
        if lo == hi:
            return Realized(at(lo))
        for _ in range(3):
            q_star = _pick_candidate(lo, hi)
            if isinstance(q_star, Fraction):
                if q_star == 0:
                    state.skip_zero_digit(gamma)
                    return None
                digit = at(q_star)
                s = oracle.side(digit)
                if s == Side.EQUAL:
                    return Realized(digit)
                state.adopt(digit, s, gamma)
                break  # a rational digit: resolve the same level again
            ra, rb = q_star.interval()
            while rb - ra > (hi - lo) / 4:
                q_star.refine((rb - ra) / 4)
                ra, rb = q_star.interval()
            s_lo, s_hi = probe(ra), probe(rb)
            if s_lo == Side.EQUAL:
                return Realized(at(ra))
            if s_hi == Side.EQUAL:
                return Realized(at(rb))
            if s_lo == Side.BELOW and s_hi == Side.ABOVE:
                return ResidueTranscendental(d0, u, q_star, gamma)
            # flanks disagree with the candidate: narrow and retry
            if s_lo == Side.ABOVE:
                hi = ra
            elif s_hi == Side.BELOW:
                lo = rb
        else:
            # no algebraic candidate survived: an oracle real stands in
            residual = _bisection_oracle(probe, lo, hi)
            return ResidueTranscendental(d0, u, residual, gamma)
    raise BudgetExhausted(
        f"more than {_SAME_LEVEL_DIGIT_CAP} digits at level "
        f"{_format_exp(gamma)}", stage="resolve")


def _pick_candidate(lo: Fraction, hi: Fraction):
    """Minimal-height value in [lo, hi]: the first of lo, hi and the
    simplest rational strictly inside that has the least height, unless an
    irrational root of an integer polynomial of degree 2-3 has lower height
    still (scanned by height, degree, then coefficient order).

    Only polynomials without a rational root are tried: at degree <= 3
    they are the irreducible ones, so each root is built without
    factoring.  A multiple of an earlier polynomial (a common factor, or
    the negation of one that comes first in sorted order, c0 < 0) has its
    roots and cells, so its roots would fail as the earlier ones did."""
    best = min((lo, hi, simplest_between(lo, hi)), key=rational_height)
    cap = min(_ALG_HEIGHT_CAP, rational_height(best) - 1)
    searches = [_sign_changes(lo, hi, degree, cap) for degree in (2, 3)]
    for _ in range(cap):  # heights 1, ..., cap
        for search in searches:
            for coeffs in next(search):
                if coeffs[0] > 0 or math.gcd(*coeffs) > 1 or \
                        _has_rational_root(coeffs):
                    continue
                primitive = coeffs if coeffs[-1] > 0 else \
                    tuple(-c for c in coeffs)
                for cell_lo, cell_hi in isolate_real_roots(list(coeffs)):
                    root = _make_algebraic(primitive, cell_lo, cell_hi)
                    if _inside_after_refining(root, lo, hi):
                        return root
    return best


def _weights(x: Fraction, degree: int) -> list:
    a, b = x.numerator, x.denominator
    return [a ** i * b ** (degree - i) for i in range(degree + 1)]


def _shell(height: int, length: int):
    """The integer tuples of `length` entries, the last one nonzero, whose
    largest |entry| is exactly `height`: over heights 1, 2, ... each tuple
    of a box once.  Split by the first entry of absolute value `height`:
    the entries before it are smaller, those after it anything."""
    smaller, span = range(1 - height, height), range(-height, height + 1)
    for k in range(length):
        for head in product(smaller, repeat=k):
            for edge in (-height, height):
                for rest in product(span, repeat=length - k - 1):
                    if rest[-1] if rest else edge:
                        yield head + (edge,) + rest


def _sign_changes(lo: Fraction, hi: Fraction, degree: int, cap: int):
    """For height 1, ..., cap in turn, the tuples (c0, ..., cd) of exactly
    that height with cd != 0 and p(lo) * p(hi) < 0, sorted (`product`
    order).  A p with p(lo) = 0 or p(hi) = 0 has a rational root, so the
    candidate search would skip it anyway.

    p(a/b) has the sign of b^d * p(a/b) = sum c_i * a^i * b^(d-i) (b > 0),
    so the test runs on integer dot products.  at(c0) = c0 * w[0] - s
    rises with c0 (w[0] = b^d > 0), so the product is < 0 exactly for c0
    strictly between the zeros s_lo / w_lo[0] and s_hi / w_hi[0]; when
    their floors agree there is none.  Each (c1, ..., cd) is visited once,
    at its own height h: its c0 range gives the tuples of height h, and
    files each c0 with h < |c0| <= cap under height |c0|.  Each tail (c2,
    ..., cd) is summed once, and meets every c1 at its own height and
    c1 = +-h at each later height h."""
    w_lo, w_hi = _weights(lo, degree), _weights(hi, degree)
    wl, wh = w_lo[0], w_hi[0]
    later: dict = {}  # height -> tuples filed there by lower heights
    tails: list = []  # (tail, -its dot products) of the heights done
    for height in range(1, cap + 1):
        fresh = [(tail, -sum(map(operator.mul, tail, w_lo[2:])),
                  -sum(map(operator.mul, tail, w_hi[2:])))
                 for tail in _shell(height, degree - 1)]
        found = later.pop(height, [])
        for group, c1s in ((fresh, range(-height, height + 1)),
                           (tails, (-height, height))):
            ones = [(c1, -c1 * w_lo[1], -c1 * w_hi[1]) for c1 in c1s]
            for tail, tail_lo, tail_hi in group:
                for c1, one_lo, one_hi in ones:
                    s_lo, s_hi = tail_lo + one_lo, tail_hi + one_hi
                    f_lo, f_hi = s_lo // wl, s_hi // wh
                    if f_lo == f_hi:
                        continue
                    # from past the lesser zero to before the greater one
                    first = max(-cap, min(f_lo, f_hi) + 1)
                    last = min(cap, max((s_lo - 1) // wl, (s_hi - 1) // wh))
                    for c0 in range(first, last + 1):
                        if -height <= c0 <= height:
                            found.append((c0, c1) + tail)
                        else:
                            later.setdefault(abs(c0), []).append(
                                (c0, c1) + tail)
        tails += fresh
        yield sorted(found)


def _has_rational_root(coeffs: tuple) -> bool:
    """Whether the integer polynomial (ascending, cd != 0) has a rational
    root: p/q in lowest terms has p | c0 and q | cd (rational root
    theorem)."""
    c0, cd, d = coeffs[0], coeffs[-1], len(coeffs) - 1
    return not c0 or any(
        sum(c * p ** i * q ** (d - i) for i, c in enumerate(coeffs)) == 0
        for p in range(-abs(c0), abs(c0) + 1) if p and c0 % p == 0
        for q in range(1, abs(cd) + 1) if cd % q == 0)


def _bisection_oracle(probe, lo, hi) -> OracleReal:
    """The real in [lo, hi] (rationals) that `probe` places, bisected on
    demand.  The interval is kept as integer numerators over one
    denominator, which doubles at each step, and each midpoint's Fraction
    is built once, for its probe; a probe testing EQUAL closes the
    interval there."""
    den = math.lcm(lo.denominator, hi.denominator)
    state = [lo.numerator * (den // lo.denominator),
             hi.numerator * (den // hi.denominator), den]

    def approx(n: int):
        a, b, den = state
        while (b - a) << n > den:  # wider than 2^-n
            mid, a, b, den = a + b, a << 1, b << 1, den << 1
            s = probe(_ratio(mid, den))
            if s == Side.BELOW:
                a = mid
            elif s == Side.ABOVE:
                b = mid
            else:
                a = b = mid
        state[:] = a, b, den
        return _ratio(a, den), _ratio(b, den)

    return OracleReal(approx, name="residue")


def _ratio(n: int, den: int) -> Fraction:
    g = math.gcd(n, den)
    return _fraction(n // g, den // g)


@dataclass
class _ClassifyState:
    """The approximation d0 and the window known for v(hidden - d0).

    The hidden element lies on the `direction` side of d0 (+1: above).  Its
    level v(hidden - d0) is at least `achieved`, or strictly above it when
    `achieved_strict` (that level's digit resolved to zero), and strictly
    below `window_hi` (an unbounded digit scan there).  The level scan also
    caps the level at the least v(e - d0) over logged same-side elements e
    beyond d0, inclusively.  Only `start`, `adopt`, `cap_level` and
    `skip_zero_digit` assign d0, direction and the window.
    """

    d0: Series
    direction: int
    achieved: Optional[tuple] = None
    achieved_strict: bool = False
    window_hi: Optional[tuple] = None
    chain: list = field(default_factory=list)  # adopted approximations
    improved: bool = False  # moved since the caller last cleared it

    @classmethod
    def start(cls, d0: Series, side: Side,
              achieved: Optional[tuple] = None) -> "_ClassifyState":
        return cls(d0, _direction(side), achieved, chain=[d0])

    def adopt(self, d0: Series, side: Side, gamma: tuple):
        """Move to the closer approximation d0 with v(hidden - d0) >= gamma."""
        self.d0 = d0
        self.direction = _direction(side)
        self.achieved = gamma
        self.achieved_strict = False
        self.window_hi = None
        self.chain.append(d0)
        self.improved = True

    def cap_level(self, gamma: tuple):
        """Unbounded digit scan at gamma: the level lies strictly below."""
        if self.window_hi is None or gamma < self.window_hi:
            self.window_hi = gamma
            self.improved = True

    def skip_zero_digit(self, gamma: tuple):
        """The digit at gamma is zero: the level lies strictly above it."""
        if self.achieved is None or self.achieved < gamma or \
                not self.achieved_strict:
            self.achieved = gamma
            self.achieved_strict = True
            self.improved = True

    def above_achieved(self, gamma: tuple) -> bool:
        if self.achieved is None:
            return True
        if self.achieved_strict:
            return self.achieved < gamma
        return not gamma < self.achieved


def _direction(side: Side) -> int:
    return 1 if side == Side.BELOW else -1


def classify_cut(oracle: CutOracle, basis: SpanBasis, budgets: Budgets,
                 mode: str = "group") -> object:
    if mode not in ("group", "field"):
        raise ValueError("mode must be 'group' or 'field'")
    dim = basis.generators[0].dim
    zero = zero_series(dim)
    s0 = oracle.side(zero)
    if s0 == Side.EQUAL:
        return Realized(zero)
    state = _ClassifyState.start(zero, s0)
    grid, unit = _levels(basis, budgets, mode)
    known: list = []
    known_set: set = set()

    for h in range(1, budgets.height_budget + 1):
        state.improved = False
        for e in oracle.height_enum(h):
            if e in known_set:
                continue
            known_set.add(e)
            s = oracle.side(e)
            if s == Side.EQUAL:
                return Realized(e)
            known.append(e)
        _adopt_from_enum(oracle, state, known, budgets)
        result = _scan_levels(oracle, state, grid, unit, budgets)
        if result is not None:
            return result
        if not state.improved:
            return _stable_conclusion(state, grid, oracle)
    if mode == "field":
        if len(state.chain) < 2:
            raise BudgetExhausted(
                "no approximation chain found within the height budget",
                stage="classify")
        _field_rank_guard(state, basis)
        return ImmediateTranscendental(tuple(state.chain), tuple(known))
    raise BudgetExhausted(
        "cut still improving at the height budget (group mode)",
        stage="classify")


def _effective_side(direction: int) -> Side:
    return Side.BELOW if direction > 0 else Side.ABOVE


def _adopt_from_enum(oracle: CutOracle, state: _ClassifyState, known: list,
                     budgets: Budgets):
    """Adopt enumerated elements strictly beyond d0 on its own side whose
    difference valuation improves the achieved level, certified by a
    coefficient-scaled straddle probe."""
    big = _fraction(1 << budgets.precision_budget, 1)
    minus_big = -big
    while True:
        candidates = []
        mine = _effective_side(state.direction)
        for e in known:
            s = oracle.side(e)
            if s != mine:
                continue
            first = _first_difference(e, state.d0)
            if first is None:
                continue
            gamma, cx, cy = first
            if compare(cx, cy) * state.direction <= 0:
                continue
            if state.achieved is not None and not state.achieved < gamma:
                continue
            candidates.append((gamma, format_series(e), e))
        if not candidates:
            return
        candidates.sort(key=lambda c: (c[0], c[1]))
        for gamma, _, e in candidates:
            probe_unit = monomial(gamma, 1, e.dim)
            lo = oracle.side(add_scaled(e, probe_unit, minus_big))
            if lo == Side.EQUAL:
                return
            hi = oracle.side(add_scaled(e, probe_unit, big))
            if hi == Side.EQUAL:
                return
            if lo == Side.BELOW and hi == Side.ABOVE:
                state.adopt(e, mine, gamma)
                break
        else:
            return


def _observed_bounds(oracle: CutOracle, state: _ClassifyState):
    """(gamma_lo, gamma_hi, levels) from the query log relative to the
    current d0: opposite-side elements bound the level from below, same-side
    elements strictly beyond d0 bound it from above, and `levels` holds
    every v(e - d0) of a logged e other than d0."""
    mine = _effective_side(state.direction)
    gamma_lo = None
    gamma_hi = None
    levels = set()
    for e, s in oracle.log:
        first = _first_difference(e, state.d0)
        if first is None:
            continue
        gamma, cx, cy = first
        levels.add(gamma)
        if s == mine:
            if compare(cx, cy) * state.direction > 0:
                if gamma_hi is None or gamma < gamma_hi:
                    gamma_hi = gamma
        elif s != Side.EQUAL:
            if gamma_lo is None or gamma_lo < gamma:
                gamma_lo = gamma
    return gamma_lo, gamma_hi, levels


def _scan_levels(oracle: CutOracle, state: _ClassifyState, grid: list,
                 unit: Callable, budgets: Budgets):
    """Resolve digits at candidate valuation levels, ascending, each with
    the unit `unit` gives it (see `_levels`).  Returns a final
    classification when one is forced, else None.

    The query log is walked once per approximation: a level that resolves
    without adopting a digit logs only probes at its own level, below every
    later one, so the observed bounds hold until d0 moves."""
    walked = None
    while walked is not state.d0:
        walked = state.d0
        gamma_lo, gamma_hi, levels = _observed_bounds(oracle, state)
        for gamma in sorted(levels.union(grid)):
            if not state.above_achieved(gamma):
                continue
            if gamma_lo is not None and gamma < gamma_lo:
                continue
            if gamma_hi is not None and gamma_hi < gamma:
                continue
            if state.window_hi is not None and not gamma < state.window_hi:
                continue
            u = unit(gamma)
            if u is None:
                return None
            outcome = _resolve_level(oracle, state, u, gamma, budgets)
            if outcome is not None:
                return outcome
            if state.d0 is not walked:
                break  # an adopted digit: walk the log for the new d0
    return None


def _stable_conclusion(state: _ClassifyState, grid: list, oracle: CutOracle):
    lower = state.achieved
    upper = state.window_hi
    gamma_lo, gamma_hi, _ = _observed_bounds(oracle, state)
    if gamma_hi is not None and (upper is None or gamma_hi < upper):
        upper = gamma_hi  # an unadopted same-side element caps the gap
    if lower is not None and upper is not None:
        if upper < lower:
            raise OracleFailure("inconsistent level window")
        if not lower < upper:
            raise BudgetExhausted(
                "stable cut pinched at the achieved level", stage="classify")
    for gamma in grid:
        if state.above_achieved(gamma) and (upper is None or gamma < upper):
            raise BudgetExhausted(
                f"stable cut with unresolved grid level {_format_exp(gamma)}",
                stage="classify")
    cls = GroupTranscendental(state.d0, lower, upper, state.direction)
    if gamma_lo is None or (lower is not None and not lower < gamma_lo):
        return cls
    try:
        _verify_against_log(_gap_witness(cls), oracle)
    except OracleFailure:
        # the witness sits on a logged element of the opposite side, whose
        # level bounds the gap from below too (a literal outside the span)
        cls = GroupTranscendental(state.d0, gamma_lo, upper, state.direction)
    return cls


def _field_rank_guard(state: _ClassifyState, basis: SpanBasis):
    """Rank of the observed difference valuations must not exceed the
    parameter count (transcendence-degree tripwire)."""
    vectors = []
    for a, b in zip(state.chain, state.chain[1:]):
        gamma = diff_valuation(b, a)
        if gamma is not INFINITY:
            vectors.append(gamma)
    rank = len(vectors) - len(_nullspace_of_rows(vectors))
    if rank > len(basis.generators):
        raise OracleFailure(
            f"observed value rank {rank} exceeds parameter count "
            f"{len(basis.generators)}")


# ---------------------------------------------------------------------------
# realization


def _verify_against_log(witness: Series, oracle: CutOracle):
    """Every logged query must sit on the same side of the witness that the
    oracle reported for the hidden element."""
    for d, s in oracle.log:
        if Side(compare_series(d, witness)) != s:
            raise OracleFailure(
                f"witness contradicts {s.name} query {format_series(d)}")


def realize_cut_group(cls: object, oracle: CutOracle,
                      basis: SpanBasis, budgets: Budgets) -> Series:
    if isinstance(cls, Realized):
        return cls.element
    if isinstance(cls, ResidueTranscendental):
        witness = _install_residue(cls)
    elif isinstance(cls, GroupTranscendental):
        witness = _gap_witness(cls)
    else:
        raise ValueError(
            "group cuts have finite rank: no immediate-transcendental case")
    _verify_against_log(witness, oracle)
    return witness


def _gap_witness(cls: GroupTranscendental) -> Series:
    return add(cls.d0, monomial(_gap_exponent(cls.lower, cls.upper),
                                cls.direction, cls.d0.dim))


def realize_cut_field(cls: object, oracle: CutOracle,
                      basis: SpanBasis, budgets: Budgets) -> Series:
    if isinstance(cls, Realized):
        return cls.element
    if isinstance(cls, GroupTranscendental):
        return realize_cut_group(cls, oracle, basis, budgets)
    if isinstance(cls, ResidueTranscendental):
        return _realize_residue_field(cls, oracle, basis, budgets)
    if isinstance(cls, ImmediateTranscendental):
        return _realize_immediate(cls, oracle, basis)
    raise TypeError(f"unknown classification {type(cls).__name__}")


def _install_residue(cls: ResidueTranscendental) -> Series:
    """d0 + scale * residue.  The residue becomes a series coefficient, so
    it must be an exact scalar; a bisection approximation cannot be compared
    exactly and only says the candidate rounds ran out."""
    if isinstance(cls.residue, OracleReal):
        raise BudgetExhausted(
            "residue was not certified within the candidate rounds; "
            "raise the candidate budget to pin it to an exact scalar",
            stage="realize")
    return add_scaled(cls.d0, cls.scale, cls.residue)


def _realize_residue_field(cls: ResidueTranscendental, oracle: CutOracle,
                           basis: SpanBasis, budgets: Budgets) -> Series:
    """Install the irrational digit, then keep resolving deeper levels until
    the cut closes or stabilizes; a deeper residue is installed in turn,
    within height_budget level scans in all."""
    grid, unit = _levels(basis, budgets, "field")
    result = cls
    for scans_left in range(budgets.height_budget, -1, -1):
        if isinstance(result, Realized):
            return result.element
        if isinstance(result, ResidueTranscendental):
            d0 = _install_residue(result)
            s = oracle.side(d0)
            if s == Side.EQUAL:
                return d0
            state = _ClassifyState.start(d0, s, result.level)
        elif not state.improved:
            break
        if not scans_left:
            break
        state.improved = False
        result = _scan_levels(oracle, state, grid, unit, budgets)
    tail = _stable_conclusion(state, grid, oracle)
    return realize_cut_group(tail, oracle, basis, budgets)


def _realize_immediate(cls: ImmediateTranscendental, oracle: CutOracle,
                       basis: SpanBasis) -> Series:
    """Pseudo-limit realization: extract the record subsequence, take its
    pseudo-limit machinery as certificate, and place the witness just past
    the deepest record inside the logged gap."""
    dim = basis.generators[0].dim
    want = oracle.side(cls.chain[-1])
    if want == Side.EQUAL:
        return cls.chain[-1]
    marks = _records(list(cls.enum_prefix), oracle, want, zero_series(dim))
    if marks is None:
        raise BudgetExhausted("no admissible record path", stage="realize")
    if len(marks) < 3:
        raise BudgetExhausted(
            f"pseudo-sequence too short ({len(marks)} record(s))",
            stage="realize")
    seq = PseudoSequence.explicit(tuple(marks))
    if not check_pseudo_cauchy(seq, len(marks)):
        raise PseudoLimitUnverified(
            "record subsequence is not pseudo-Cauchy",
            query=format_series(marks[-1]))
    gammas = [diff_valuation(b, a) for a, b in zip(marks, marks[1:])]

    def check_valuations(x: Series, name: str):
        for a_i, gamma_i in zip(marks, gammas):
            if diff_valuation(x, a_i) != gamma_i:
                raise PseudoLimitUnverified(
                    f"{name} misses a difference valuation",
                    query=format_series(a_i))

    check_valuations(pseudo_limit(seq, len(marks)), "pseudo-limit")
    witness = _witness_past_records(oracle, marks, gammas, want, dim)
    check_valuations(witness, "witness")
    _verify_against_log(witness, oracle)
    return witness


def _records(elements: list, oracle: CutOracle, want: Side,
             start: Series) -> Optional[list]:
    """Records among the approximation-side elements, in one pass: one past
    the last mark (past `start` before any) is marked; an opposite-side
    element behind `start` marks the best one so far.  None when one is
    behind that, or marked triples do not contract len(elements)-fold."""
    marks: list = []
    last, best = start, None  # best: a record before the first mark
    for e in elements:
        s = oracle.side(e)
        if s == want:
            if _cmp_toward(e, last, want) > 0:
                marks.append(e)
                last = e
            elif not marks and (best is None
                                or _cmp_toward(e, best, want) > 0):
                best = e
        elif s != Side.EQUAL and _cmp_toward(e, last, want) < 0:
            if marks or best is None or _cmp_toward(e, best, want) < 0:
                return None
            marks.append(best)
            last = best
    # marks move strictly toward the cut: both steps have want's direction
    n = Fraction(len(elements))
    for a, b, c in zip(marks, marks[1:], marks[2:]):
        if _cmp_toward(scale(subtract(c, b), n), subtract(b, a), want) >= 0:
            return None
    return marks


def _cmp_toward(e: Series, last: Series, want: Side) -> int:
    return compare_series(e, last) * _direction(want)


def _witness_past_records(oracle: CutOracle, marks: list, gammas: list,
                          want: Side, dim: int) -> Series:
    base = marks[-1]
    opposite = None
    for e, s in oracle.log:
        if s == want:
            if _cmp_toward(e, base, want) > 0:
                base = e
        elif s != Side.EQUAL:
            if opposite is None or _cmp_toward(e, opposite, want) < 0:
                opposite = e
    # past the last record gap, and past the level of the opposite side
    level = gammas[-1]
    if opposite is not None:
        level = max(level, diff_valuation(opposite, base))
    return add(base, monomial(_gap_exponent(level, None), _direction(want),
                              dim))


# ---------------------------------------------------------------------------
# type completion


@dataclass(frozen=True)
class Completion:
    """Decided enumeration prefix of a partial type, plus the cut bounds of
    its leftmost surviving interval state."""

    var: str
    thetas: tuple  # (emission index, formula) pairs from the input type
    bits: str
    decided: tuple  # the enumerated prefix with polarities applied
    lower: Optional[Series]
    upper: Optional[Series]
    point: Optional[Series]
    interval_states: int  # surviving disjuncts after the decided prefix


def _materialize(tau: PartialType, env: dict, dim: int,
                 budgets: Budgets) -> list:
    """Emissions 0..K-1 with quantifiers eliminated; a false parameter-only
    emission refutes the type outright."""
    thetas = []
    for i in range(budgets.formula_prefix_budget):
        f = tau.emit(i)
        if f is None:
            continue
        if _has_quantifier(f):
            f = doag_qe(f)
        if tau.var not in free_symbols(f):
            if not eval_formula(f, env, dim):
                raise NotFinitelySatisfiable(
                    f"emission {i} fails on the parameters: "
                    f"{format_formula(f)}",
                    witness=(format_formula(f),))
            continue
        thetas.append((i, f))
    return thetas


def _check_prefix_satisfiable(thetas: list, table: AtomTable) -> list:
    """Conjoin emissions in order in the table's model; on collapse, name a
    minimal refuting subset.  Returns the surviving interval states."""
    states = [(None, None, None)]
    for j, (i_bad, f_bad) in enumerate(thetas):
        new = table.conjoin(states, _worlds(f_bad))
        if new:
            states = new
            continue
        if not table.satisfiable(_worlds(f_bad)):
            raise NotFinitelySatisfiable(
                f"emission {i_bad} alone is unsatisfiable: "
                f"{format_formula(f_bad)}",
                witness=(format_formula(f_bad),))
        for i_prev, f_prev in thetas[:j]:
            if not table.satisfiable(_worlds(And(f_prev, f_bad))):
                raise NotFinitelySatisfiable(
                    f"emissions {i_prev} and {i_bad} conflict: "
                    f"{format_formula(f_prev)}  //  {format_formula(f_bad)}",
                    witness=(format_formula(f_prev), format_formula(f_bad)))
        raise NotFinitelySatisfiable(
            f"prefix of length {j + 1} is unsatisfiable",
            witness=tuple(format_formula(f) for _, f in thetas[:j + 1]))
    return states


def complete_type(tau: PartialType, env: dict, mode: str = "group",
                  budgets: Budgets = Budgets(), dim: int = 2,
                  table: Optional[AtomTable] = None) -> Completion:
    """Decide the first formula_prefix_budget enumerated formulas against the
    type's emissions, leftmost-consistent (negation preferred); a smaller
    finite fragment is decided whole.  The parameters' dimension overrides
    `dim`.

    The formulas, their negations and the units that keep the DNF worlds
    of both come from `compiled_fragment`, once per process, signature and
    variable.  The type is completed in the model of `table`: the calling
    realization's, or else one built here over env, the type's variable
    and dim.  A unit keeps the solves of its own formula's atoms; the table
    keeps every atom's store, and solves an emission's atoms itself."""
    compiled = compiled_fragment(
        Signature(mode, (tau.var,) + tuple(tau.params)), tau.var)
    if table is None:
        table = AtomTable(env, tau.var, dim)
    thetas = _materialize(tau, table.env, table.dim, budgets)
    entries = compiled.prefix(budgets.formula_prefix_budget)
    states = _check_prefix_satisfiable(thetas, table)
    bits, decided = "", []
    # each value of a (nonempty) store satisfies f or not f, so one branch
    # keeps a store: the leftmost consistent branch never backtracks
    for branches in entries:
        for bit, (constraint, worlds, unit) in zip("01", branches):
            extended = table.conjoin(states, worlds, unit)
            if extended:
                break
        else:
            raise BudgetExhausted(
                "no consistent completion of the enumerated prefix",
                stage="complete")
        states = extended
        bits += bit
        decided.append(constraint)
    lower, upper, point = states[0]
    return Completion(tau.var, tuple(thetas), bits, tuple(decided),
                      lower, upper, point, len(states))


def completed_partial_type(completion: Completion,
                           params: tuple) -> PartialType:
    decided = completion.decided

    def emit(i: int):
        return decided[i] if 0 <= i < len(decided) else None

    return PartialType(emit, completion.var, params)


# ---------------------------------------------------------------------------
# the realization pipeline


_PACE_EMISSIONS = 2  # emitted formulas whose bounds pace in per generation


def _theta_bound_elements(thetas: list, table: AtomTable) -> list:
    """Concrete bound series named by the type's own atoms, batched two
    emissions per generation; these seed the comparison enumeration."""
    batches: list = []
    seen = set()
    for pos, (_, f) in enumerate(thetas):
        if pos % _PACE_EMISSIONS == 0:
            batches.append([])
        for a in iter_atoms(f):
            try:  # a false atom without var has no store
                store = table.store(a) or ()
            except NonlinearUnsupported:
                continue
            # a one-atom store holds that atom's bound, if it names one
            bound = next((b for b in store if b is not None), None)
            if bound is not None and bound not in seen:
                seen.add(bound)
                batches[-1].append(bound)
    return batches


@dataclass(frozen=True)
class RealizationResult:
    witness: Series
    classification: object
    completion: Completion
    verification: tuple  # (formula text, passed) pairs
    report: str


def realize_type(tau: PartialType, env: dict, mode: str = "group",
                 budgets: Budgets = Budgets(), dim: int = 2) -> RealizationResult:
    """Complete the type, classify the cut of the completion store through
    the oracle of its hidden element, realize it, and verify the witness
    against every emission.  The parameters' dimension overrides `dim`."""
    # each atom's store, solved once for the whole realization; the
    # verification below re-evaluates the emissions without it
    table = AtomTable(env, tau.var, dim)
    dim = table.dim
    completion = complete_type(tau, env, mode, budgets, dim, table)
    # a zero parameter spans nothing
    generators = [env[p] for p in tau.params if not env[p].is_zero()] \
        or [monomial((0,), 1, dim)]
    basis = valuation_basis(generators)
    paced = _theta_bound_elements(list(completion.thetas), table)
    # the cut is the completion store's: its point, or else its gap center,
    # which lies strictly inside and so agrees with the bounds on every
    # element outside them; a query strictly inside is a free decision
    lo, up, hidden = completion.lower, completion.upper, completion.point
    if hidden is None:
        hidden = gap_center(lo, up, dim)
    else:
        lo = up = hidden  # nothing lies strictly inside a point store
    oracle = oracle_from_value(
        hidden, standard_height_enum(basis.generators, paced=paced))
    classification = classify_cut(oracle, basis, budgets, mode)
    if mode == "group":
        witness = realize_cut_group(classification, oracle, basis, budgets)
    else:
        witness = realize_cut_field(classification, oracle, basis, budgets)
    # a witness built from a height-truncated probe chain can lag behind
    # theta bounds the enumeration never reached: fold the store back in
    clamped = not (_inside(lo, up, witness)
                   or compare_series(witness, hidden) == 0)
    if clamped:
        witness = hidden
    # the witness model keeps its own term values, none of them the table's
    verification = []
    wenv = dict(env)
    wenv[tau.var] = witness
    values: dict = {}
    for _, f in completion.thetas:
        verification.append(
            (format_formula(f), eval_formula(f, wenv, dim, values)))
    free = sum(_inside(lo, up, d) for d, _ in oracle.log)
    report = _render_report(completion, classification, witness,
                            verification, oracle, free, budgets, mode,
                            clamped)
    return RealizationResult(witness, classification, completion,
                             tuple(verification), report)


# ---------------------------------------------------------------------------
# report rendering


def _classification_lines(cls: object) -> list:
    if isinstance(cls, Realized):
        return ["realized", f"element: {format_series(cls.element)}"]
    if isinstance(cls, ResidueTranscendental):
        return ["residue-transcendental",
                f"d0: {format_series(cls.d0)}",
                f"scale: {format_series(cls.scale)}",
                f"level: {_format_exp(cls.level)}",
                f"residue: {format_scalar(cls.residue)}"]
    if isinstance(cls, GroupTranscendental):
        lo = _format_exp(cls.lower) if cls.lower is not None else "none"
        hi = _format_exp(cls.upper) if cls.upper is not None else "none"
        return ["value-transcendental",
                f"d0: {format_series(cls.d0)}",
                f"window: {lo} .. {hi}",
                f"direction: {'+1' if cls.direction > 0 else '-1'}"]
    if isinstance(cls, ImmediateTranscendental):
        return ["immediate-transcendental",
                f"chain length: {len(cls.chain)}",
                f"deepest: {format_series(cls.chain[-1])}"]
    return [str(cls)]


_CASE_NAMES = {
    Realized: "exact element",
    ResidueTranscendental: "residue fill",
    GroupTranscendental: "value-gap fill",
    ImmediateTranscendental: "pseudo-limit fill",
}


def _budget_lines(budgets: Budgets) -> list:
    return ["== BUDGETS ==",
            f"height: {budgets.height_budget}",
            f"denominator: {budgets.exponent_denominator_budget}",
            f"prefix: {budgets.formula_prefix_budget}",
            f"precision: {budgets.precision_budget}"]


def _render_report(completion: Completion, cls: object,
                   witness: Series, verification: list, oracle: CutOracle,
                   free_decisions: int, budgets: Budgets, mode: str,
                   clamped: bool = False) -> str:
    lines = []
    lines.append("== COMPLETION ==")
    lines.append(f"mode: {mode}")
    lines.append(f"emitted: {len(completion.thetas)} formulas")
    lines.append(f"assignment: {completion.bits}")
    store = []
    for label, v in (("lower", completion.lower), ("upper",
                                                   completion.upper),
                     ("point", completion.point)):
        store.append(f"{label}={format_series(v) if v is not None else '-'}")
    lines.append("store: " + " ".join(store))
    lines.append("== CLASSIFICATION ==")
    lines.extend(_classification_lines(cls))
    lines.append("== CASE ==")
    case = _CASE_NAMES.get(type(cls), "inconclusive")
    lines.append(case + (" (clamped to the decided prefix)" if clamped
                         else ""))
    lines.append("== WITNESS ==")
    lines.append(format_series(witness))
    lines.append("== VERIFICATION ==")
    for text, ok in verification:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {text}")
    lines.extend(_budget_lines(budgets))
    lines.append(f"oracle queries: {len(oracle.log)}")
    lines.append(f"interval states: {completion.interval_states}")
    lines.append(f"free decisions: {free_decisions}")
    return "\n".join(lines) + "\n"


def render_inconclusive_report(exc: BudgetExhausted, mode: str,
                               budgets: Budgets) -> str:
    lines = ["== COMPLETION ==",
             f"mode: {mode}",
             "== CLASSIFICATION ==",
             "inconclusive",
             f"stage: {getattr(exc, 'stage', None) or 'unknown'}",
             f"detail: {exc}",
             "== CASE ==",
             "inconclusive",
             *_budget_lines(budgets)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# computable sequence wrapper


class _PrecisionProbe:
    """Interval proxy that records the deepest precision requested."""

    def __init__(self, real, offset: int = 0):
        self._real = real
        self._offset = offset
        self.max_precision = 0

    def interval(self, n: int):
        self.max_precision = max(self.max_precision, n)
        return self._real.interval(n + self._offset)


def sequence_is_computable_in(generator: Callable, r) -> Callable:
    """Wrap an (index, real) -> formula generator as a type emission,
    verifying at the wrap and on every call that the output is stable under
    refining the real's intervals (interval-monotonicity), and logging the
    precision each term actually consumed."""

    def emit_checked(i: int):
        probe = _PrecisionProbe(r)
        f = generator(i, probe)
        replay = _PrecisionProbe(r, offset=1)
        f2 = generator(i, replay)
        same = (f is None and f2 is None) or (
            f is not None and f2 is not None
            and format_formula(f) == format_formula(f2))
        if not same:
            raise OracleFailure(
                f"generator output at index {i} changes under interval "
                f"refinement: not computable in the given real")
        emit_checked.precision_log[i] = probe.max_precision
        return f

    emit_checked.precision_log = {}
    emit_checked(0)
    return emit_checked
