"""Exact scalar arithmetic: rationals, real algebraic numbers, oracle reals.

A coefficient is one of three things: a `fractions.Fraction`, a
`RealAlgebraic` (irreducible integer polynomial plus an isolating interval
with a sign change), or an `OracleReal` (a checked nested-interval
approximation function).  Rationals and algebraics compare decidably;
comparisons that involve a genuine oracle may raise
`ComparisonUndecidedAtPrecision` once the precision budget is spent.

`compare` is the one order rule, and `scalar_sign` is `compare` against
zero.  Negating an algebraic number, or adding or multiplying it by a
rational, is one affine map `s*a + q` on its defining polynomial, and a
product with a rational (q = 0) is computed on integers; only sums and
products of two distinct algebraic numbers go through a resultant.

Two rationals are combined on their integer pairs: `_q_mul`, `_q_add`,
`_q_neg` and `_q_inv` take the gcd steps of CPython's `Fraction._mul` and
`_add`, so each result is already normalized, and build it with the one
trusted constructor `_fraction`, which fills the two slots of a `Fraction`
without a further gcd.  The `scalar_*` functions take this path first when
both operands are exactly `Fraction`s; they alone decide which kinds take
it, and the series and solve kernels reach it through them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import (
    ComparisonUndecidedAtPrecision,
    MalformedAlgebraic,
    OracleFailure,
    ParseError,
)

_DEFAULT_PRECISION = 64


def set_default_precision(bits: int) -> None:
    """Set the global comparison precision budget (bits of interval width)."""
    global _DEFAULT_PRECISION
    if bits < 1:
        raise ValueError("precision budget must be positive")
    _DEFAULT_PRECISION = bits


def get_default_precision() -> int:
    return _DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# dense polynomials over Fraction, coefficients ascending


def _ptrim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _peval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pderiv(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _ptrim([p[i] * i for i in range(1, len(p))])


def _pneg(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-c for c in p)


def _prem(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _ptrim(a):
        da = len(a) - 1
        q = a[-1] / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a.pop()
        a = list(_ptrim(a))
        if not a:
            break
    return _ptrim(a)


def _sturm_chain(p: Sequence) -> list[tuple[Fraction, ...]]:
    p = [Fraction(c) for c in p]
    chain = [_ptrim(p), _pderiv(p)]
    while chain[-1]:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_pneg(r))
    return [c for c in chain if c]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _peval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _root_bound(coeffs: Sequence[int]) -> int:
    lead = abs(coeffs[-1])
    return 1 + max(abs(c) for c in coeffs) // lead + 1


def _int_primitive(p: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational (or integer) polynomial to primitive integer form,
    leading > 0."""
    p = _ptrim(p)
    if not p:
        return ()
    lcm = math.lcm(*(c.denominator for c in p))
    ints = [int(c * lcm) for c in p]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def isolate_real_roots(coeffs: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free integer
    polynomial with no rational roots, one root per interval, ascending.

    Scans unit integer cells first (so sqrt2 isolates to [1, 2]) and bisects
    any cell that holds more than one root.
    """
    chain = _sturm_chain(coeffs)
    bound = _root_bound(coeffs)
    stack = [(Fraction(k), Fraction(k + 1)) for k in range(-bound, bound)]
    found: list[tuple[Fraction, Fraction]] = []
    for lo, hi in stack:
        n = _count_roots(chain, lo, hi)
        if n == 0:
            continue
        cells = [(lo, hi, n)]
        while cells:
            a, b, k = cells.pop()
            if k == 1:
                found.append((a, b))
                continue
            mid = (a + b) / 2
            kl = _count_roots(chain, a, mid)
            if kl:
                cells.append((a, mid, kl))
            if k - kl:
                cells.append((mid, b, k - kl))
    return sorted(found)


# ---------------------------------------------------------------------------
# real algebraic numbers


class RealAlgebraic:
    """A real root of an irreducible integer polynomial of degree >= 2.

    `coeffs` is ascending, primitive, with positive leading coefficient;
    `index` is the position of this root among the polynomial's real roots in
    ascending order.  The isolating interval narrows in place as comparisons
    demand, which never changes identity: equality and hashing use only
    (coeffs, index).
    """

    __slots__ = ("coeffs", "index", "_lo", "_hi")

    def __init__(self, coeffs: tuple[int, ...], index: int, lo: Fraction, hi: Fraction):
        self.coeffs = coeffs
        self.index = index
        self._lo = lo
        self._hi = hi

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Narrow the isolating interval to at most `width` and return it."""
        lo, hi = self._lo, self._hi
        slo = 1 if _peval(self.coeffs, lo) > 0 else -1
        while hi - lo > width:
            mid = (lo + hi) / 2
            if (1 if _peval(self.coeffs, mid) > 0 else -1) == slo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi
        return lo, hi

    def __eq__(self, other):
        if isinstance(other, RealAlgebraic):
            return self.coeffs == other.coeffs and self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.index))

    def __repr__(self):
        return format_scalar(self)


def _make_algebraic(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction):
    """Trusted constructor: coeffs irreducible deg >= 2, (lo, hi) isolating;
    the index counts the roots at or below lo."""
    index = _count_roots(_sturm_chain(coeffs), -Fraction(_root_bound(coeffs)),
                         lo)
    return RealAlgebraic(coeffs, index, lo, hi)


def _sympy_factors(coeffs: Sequence[int]) -> list[tuple[int, ...]]:
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")
    _, factors = poly.factor_list()
    return [_int_primitive([int(c) for c in reversed(f.all_coeffs())])
            for f, _mult in factors]


def real_algebraic(coeffs: Sequence[int], lo, hi) -> Union[RealAlgebraic, Fraction]:
    """Build the real algebraic number with defining polynomial `coeffs`
    (ascending) isolated in [lo, hi].

    The polynomial must be square-free with exactly one root in the interval;
    otherwise MalformedAlgebraic.  The result is normalized to the irreducible
    factor owning the root, and collapses to a Fraction when that factor is
    linear.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    cs = _int_primitive([Fraction(int(c)) for c in coeffs])
    if len(cs) < 2:
        raise MalformedAlgebraic("polynomial is constant")
    if lo > hi:
        raise MalformedAlgebraic("empty interval")
    chain = _sturm_chain(cs)
    if len(chain[-1]) > 1:  # last chain entry ~ gcd(p, p')
        raise MalformedAlgebraic("polynomial is not square-free")
    n = _count_roots(chain, lo, hi) + (1 if _peval(cs, lo) == 0 else 0)
    if n != 1:
        raise MalformedAlgebraic(f"interval isolates {n} roots, need exactly 1")
    for fc in _sympy_factors(cs):
        if len(fc) == 2:
            root = Fraction(-fc[0], fc[1])
            if lo <= root <= hi:
                return root
            continue
        if _count_roots(_sturm_chain(fc), lo, hi) == 1:
            return _make_algebraic(fc, lo, hi)
    raise MalformedAlgebraic("no factor owns the isolated root")


def _canonical_interval(a: RealAlgebraic) -> tuple[Fraction, Fraction]:
    """The integer-grid-first isolation cell for printing (run-independent)."""
    return isolate_real_roots(a.coeffs)[a.index]


# arithmetic -----------------------------------------------------------------

_new_object = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """Trusted constructor of n/d, for coprime n and d > 0 (zero is 0/1).

    The rational kernels below and the engine's digit scan and bisection,
    which pass integers or gcd-reduced pairs, call it: any other pair would
    break `==` and `hash`."""
    q = _new_object(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _q_mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b, each numerator reduced against the other's denominator."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g1, g2 = math.gcd(na, db), math.gcd(nb, da)
    return _fraction((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _q_add(a: Fraction, b: Fraction) -> Fraction:
    """a + b over lcm(da, db), reduced by the one gcd left to take."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = math.gcd(da, db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    return _fraction(t // g2, s * (db // g2))


def _q_neg(a: Fraction) -> Fraction:
    return _fraction(-a._numerator, a._denominator)


def _q_inv(a: Fraction) -> Fraction:
    n, d = a._numerator, a._denominator
    if not n:
        raise ZeroDivisionError("scalar_inv(0)")
    return _fraction(d, n) if n > 0 else _fraction(-d, -n)


def _ralg_affine(a: RealAlgebraic, s: Fraction, q: Fraction):
    """s*a + q, a root of the primitive form of s^n * p((y - q) / s)."""
    if s == 0:
        return q
    if s == 1 and q == 0:
        return a
    n = len(a.coeffs) - 1
    if q == 0:  # c_i s^(n-i), times den(s)^n: integers
        sn, sd = s.numerator, s.denominator
        out = [c * sn ** (n - i) * sd ** i for i, c in enumerate(a.coeffs)]
    else:
        out = [Fraction(0)] * (n + 1)
        for i, c in enumerate(a.coeffs):
            w = c * s ** (n - i)  # c * s^(n-i) * (y - q)^i, expanded
            for k in range(i + 1):
                out[k] += w * math.comb(i, k) * (-q) ** (i - k)
    lo, hi = a.interval()
    if s > 0:  # an increasing map keeps the order of the roots
        return RealAlgebraic(_int_primitive(out), a.index, s * lo + q,
                             s * hi + q)
    return _make_algebraic(_int_primitive(out), s * hi + q, s * lo + q)


def _ralg_inv(a: RealAlgebraic):
    lo, hi = a.interval()
    while not (lo > 0 or hi < 0):  # refine the interval off zero
        lo, hi = a.refine((hi - lo) / 2)
    return _make_algebraic(_int_primitive(a.coeffs[::-1]), 1 / hi, 1 / lo)


def _resultant_poly(a: RealAlgebraic, b: RealAlgebraic, op: str) -> list[tuple[int, ...]]:
    import sympy

    x, y = sympy.symbols("x y")
    pa = sum(c * y**i for i, c in enumerate(a.coeffs))
    if op == "add":
        pb = sum(c * (x - y) ** i for i, c in enumerate(b.coeffs))
    else:  # mul; b's root is nonzero (irreducible deg >= 2)
        m = len(b.coeffs) - 1
        pb = sum(c * x**i * y ** (m - i) for i, c in enumerate(b.coeffs))
    res = sympy.Poly(sympy.resultant(pa, pb, y), x)
    cs = [int(c) for c in reversed(res.all_coeffs())]
    return _sympy_factors(tuple(cs))


def _interval_op(op: str, a: tuple, b: tuple) -> tuple:
    """Interval hull of a + b ("add") or a * b (any other op)."""
    (alo, ahi), (blo, bhi) = a, b
    if op == "add":
        return alo + blo, ahi + bhi
    prods = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
    return min(prods), max(prods)


def _combine(a: RealAlgebraic, b: RealAlgebraic, op: str):
    factors = _resultant_poly(a, b, op)
    chains = {fc: _sturm_chain(fc) for fc in factors}
    width = Fraction(1, 16)
    for _ in range(80):
        lo, hi = _interval_op(op, a.refine(width), b.refine(width))
        hits = []
        for fc in factors:
            if len(fc) == 2:
                root = Fraction(-fc[0], fc[1])
                if lo < root <= hi:
                    hits.append((fc, root))
            else:
                k = _count_roots(chains[fc], lo, hi)
                if k:
                    hits.append((fc, k))
        if len(hits) == 1 and (len(hits[0][0]) == 2 or hits[0][1] == 1):
            fc = hits[0][0]
            if len(fc) == 2:
                return hits[0][1]
            return _make_algebraic(fc, lo, hi)
        width /= 4
    raise MalformedAlgebraic("failed to isolate combined root")


def scalar_neg(a):
    if type(a) is Fraction:
        return _q_neg(a)
    if isinstance(a, Fraction):
        return -a
    if isinstance(a, RealAlgebraic):
        return _ralg_affine(a, Fraction(-1), Fraction(0))
    return _oracle_from((a,), lambda iv: (-iv[1], -iv[0]), f"-({a.name})",
                        0, 0)


def scalar_add(a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return _q_add(a, b)
    if isinstance(a, OracleReal) or isinstance(b, OracleReal):
        return _oracle_arith(a, b, "add")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    if isinstance(a, Fraction):
        return _ralg_affine(b, Fraction(1), a)
    if isinstance(b, Fraction):
        return _ralg_affine(a, Fraction(1), b)
    if a == scalar_neg(b):
        return Fraction(0)
    return _combine(a, b, "add")


def scalar_mul(a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return _q_mul(a, b)
    if isinstance(a, OracleReal) or isinstance(b, OracleReal):
        return _oracle_arith(a, b, "mul")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return _ralg_affine(b, a, Fraction(0))
    if isinstance(b, Fraction):
        return _ralg_affine(a, b, Fraction(0))
    if a == _ralg_inv(b):
        return Fraction(1)
    return _combine(a, b, "mul")


def scalar_inv(a):
    if type(a) is Fraction:
        return _q_inv(a)
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroDivisionError("scalar_inv(0)")
        return 1 / a
    if isinstance(a, RealAlgebraic):
        return _ralg_inv(a)
    for n in range(1, _DEFAULT_PRECISION + 1):
        lo, hi = a.interval(n)
        if lo > 0 or hi < 0:
            return _oracle_from((a,), _inverse_interval, f"1/({a.name})",
                                n, 0)
    raise OracleFailure(
        f"{a.name}: not separated from zero within precision {_DEFAULT_PRECISION}"
    )


def _inverse_interval(iv):
    """The interval of 1/x for x in iv; None (undecided) while iv holds 0."""
    lo, hi = iv
    return None if lo <= 0 <= hi else (1 / hi, 1 / lo)


def scalar_is_zero(a) -> bool:
    if isinstance(a, Fraction):
        return not a._numerator
    return False  # RealAlgebraic is irrational; OracleReal zero is uncertifiable


def scalar_is_one(a) -> bool:
    if type(a) is Fraction:  # its slots, not the Python-level __eq__
        return a._numerator == 1 == a._denominator
    return a == 1


# ---------------------------------------------------------------------------
# oracle reals


class OracleReal:
    """A real given by nested rational intervals of width <= 2^-n.

    The wrapper checks the interval laws on every materialized call and
    raises OracleFailure on a violation; approximations are memoized so the
    value presented is stable.
    """

    __slots__ = ("_approx", "name", "_memo")

    def __init__(self, approx: Callable[[int], tuple], name: str = "oracle"):
        self._approx = approx
        self.name = name
        self._memo: dict[int, tuple[Fraction, Fraction]] = {}

    def interval(self, n: int) -> tuple[Fraction, Fraction]:
        if n < 0:
            raise ValueError("precision must be nonnegative")
        if n in self._memo:
            return self._memo[n]
        lo, hi = self._approx(n)
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise OracleFailure(f"{self.name}: empty interval at n={n}")
        if hi - lo > Fraction(1, 2**n):
            raise OracleFailure(f"{self.name}: interval too wide at n={n}")
        for m, (mlo, mhi) in self._memo.items():
            outer, inner = ((mlo, mhi), (lo, hi)) if m < n else ((lo, hi), (mlo, mhi))
            if inner[0] < outer[0] or inner[1] > outer[1]:
                raise OracleFailure(f"{self.name}: nesting violated between n={m} and n={n}")
        self._memo[n] = (lo, hi)
        return lo, hi

    def __repr__(self):
        return f"<{self.name}>"


def creal_approx(o: OracleReal, n: int) -> tuple[Fraction, Fraction]:
    """Interval of width <= 2^-n around the oracle's value."""
    return o.interval(n)


def oracle_rational(q) -> OracleReal:
    q = Fraction(q)
    return OracleReal(lambda n: (q, q), name=f"const({q})")


def oracle_algebraic(a: RealAlgebraic) -> OracleReal:
    # refine a private copy so that building the oracle leaves `a` as it is
    own = RealAlgebraic(a.coeffs, a.index, *a.interval())
    return OracleReal(lambda n: own.refine(Fraction(1, 2**n)),
                      name=f"alg-oracle({format_scalar(a)})")


def oracle_bits(int_part: int, bit: Callable[[int], int], name: str = "bits") -> OracleReal:
    """Binary-expansion oracle: int_part + sum bit(i) * 2^-(i+1), bits 0/1."""

    def approx(n: int):
        lo = Fraction(int_part)
        for i in range(n):
            if bit(i):
                lo += Fraction(1, 2 ** (i + 1))
        return lo, lo + Fraction(1, 2**n)

    return OracleReal(approx, name=name)


def _oracle_from(parts, combine, name: str, floor: int, lead: int) -> OracleReal:
    """The oracle whose interval at n is `combine` of the parts' intervals
    at precision m, from m = max(floor, n + lead) up in steps of 4 until
    `combine` decides (returns an interval, not None) within 2^-n."""
    def approx(n: int):
        m = max(floor, n + lead)
        while True:
            iv = combine(*(approx_interval(p, m) for p in parts))
            if iv is not None and iv[1] - iv[0] <= Fraction(1, 2**n):
                return iv
            m += 4

    return OracleReal(approx, name=name)


def _oracle_arith(a, b, op: str) -> OracleReal:
    return _oracle_from((a, b), lambda x, y: _interval_op(op, x, y),
                        f"({a!r} {op} {b!r})", 0, 2)


def approx_interval(x, n: int) -> tuple[Fraction, Fraction]:
    """Uniform width-2^-n interval for any coefficient kind."""
    if isinstance(x, Fraction):
        return x, x
    if isinstance(x, RealAlgebraic):
        return x.refine(Fraction(1, 2**n))
    return x.interval(n)


# ---------------------------------------------------------------------------
# comparison


def compare(a, b, precision_budget: int | None = None) -> int:
    """Sign of a - b.

    Decides outright for rational/algebraic operands, two Fractions by
    integer cross-multiplication.  When an oracle real is involved,
    identical objects compare equal, interval separation decides, and
    otherwise ComparisonUndecidedAtPrecision is raised at the budget.
    """
    if type(a) is type(b) is Fraction:
        left = a._numerator * b._denominator
        right = b._numerator * a._denominator
        return (left > right) - (left < right)
    if a is b:
        return 0
    oracle = isinstance(a, OracleReal) or isinstance(b, OracleReal)
    if not oracle:
        return _compare_exact(a, b)
    budget = precision_budget if precision_budget is not None else _DEFAULT_PRECISION
    for n in range(1, budget + 1):
        alo, ahi = approx_interval(a, n)
        blo, bhi = approx_interval(b, n)
        if alo > bhi:
            return 1
        if ahi < blo:
            return -1
        if alo == ahi == blo == bhi:
            return 0
    raise ComparisonUndecidedAtPrecision(
        f"intervals still overlap at precision budget {budget}", budget=budget
    )


def _compare_exact(a, b) -> int:
    if isinstance(a, Fraction):
        if isinstance(b, Fraction):  # a Fraction subclass operand
            return (a > b) - (a < b)
        return -_ralg_vs_rational(b, a)
    if isinstance(b, Fraction):
        return _ralg_vs_rational(a, b)
    if a == b:
        return 0
    for _ in range(4096):
        alo, ahi = a.interval()
        blo, bhi = b.interval()
        if alo > bhi:
            return 1
        if ahi < blo:
            return -1
        a.refine((ahi - alo) / 2)
        b.refine((bhi - blo) / 2)
    raise ComparisonUndecidedAtPrecision("distinct algebraics failed to separate")


def _ralg_vs_rational(a: RealAlgebraic, q: Fraction) -> int:
    lo, hi = a.interval()
    if q <= lo:
        return 1
    if q >= hi:
        return -1
    slo = 1 if _peval(a.coeffs, lo) > 0 else -1
    sq = 1 if _peval(a.coeffs, q) > 0 else -1
    return -1 if sq != slo else 1


def scalar_sign(a, precision_budget: int | None = None) -> int:
    return compare(a, Fraction(0), precision_budget)


# ---------------------------------------------------------------------------
# Q-linear relations


def rational_relations(reals: Sequence) -> list[tuple[Fraction, ...]]:
    """Basis of the Q-linear relation space of the given reals.

    Empty result means Q-linearly independent.  Oracle reals carry no
    symbolic certificate, so their presence raises
    ComparisonUndecidedAtPrecision.
    """
    if any(isinstance(r, OracleReal) for r in reals):
        raise ComparisonUndecidedAtPrecision(
            "oracle real coefficients need a caller-supplied independence certificate"
        )
    if not reals:
        return []
    algs = [r for r in reals if isinstance(r, RealAlgebraic)]
    if not algs:
        vectors = [(Fraction(r),) for r in reals]
    else:
        vectors = _number_field_vectors(reals)
    return _nullspace_of_rows(vectors)


def _number_field_vectors(reals) -> list[tuple[Fraction, ...]]:
    import sympy
    from sympy.polys.numberfields import primitive_element

    # the primitive-element variable must differ from the CRootOf generator,
    # or substitution descends into the root objects and fails
    theta, y = sympy.symbols("_theta _y")
    distinct: list[RealAlgebraic] = []
    for r in reals:
        if isinstance(r, RealAlgebraic) and r not in distinct:
            distinct.append(r)
    exprs = [
        sympy.CRootOf(sympy.Poly(list(reversed(a.coeffs)), y), a.index)
        for a in distinct
    ]
    _f, _coeffs, reps = primitive_element(exprs, theta, ex=True)
    deg = max(2, max(len(rep) for rep in reps))
    by_alg = {}
    for a, rep in zip(distinct, reps):
        vec = [Fraction(0)] * deg
        # reps are coefficient lists in descending powers of theta
        for i, c in enumerate(reversed(rep)):
            vec[i] = Fraction(c.numerator, c.denominator) if not isinstance(c, int) else Fraction(c)
        by_alg[a] = tuple(vec)
    out = []
    for r in reals:
        if isinstance(r, RealAlgebraic):
            out.append(by_alg[r])
        else:
            vec = [Fraction(0)] * deg
            vec[0] = Fraction(r)
            out.append(tuple(vec))
    return out


def _nullspace_of_rows(rows: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    """Basis of {q : sum q_i * rows_i = 0}, canonical (RREF-derived)."""
    n = len(rows)
    if n == 0:
        return []
    width = len(rows[0])
    cols = [[rows[i][j] for i in range(n)] for j in range(width)]
    mat = [list(c) for c in cols]  # width x n, kernel of this matrix
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# literals


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x) -> str:
    """Literal text: `p/q` for rationals, `alg[c0,...,ck;lo,hi]` for
    algebraics (interval = canonical integer-grid isolation cell)."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, RealAlgebraic):
        lo, hi = _canonical_interval(x)
        cs = ",".join(str(c) for c in x.coeffs)
        return f"alg[{cs};{format_rational(lo)},{format_rational(hi)}]"
    return f"oracle<{x.name}>"


def parse_rational(text: str, offset: int = 0) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text.strip()!r}",
                         offset + len(text) - len(text.lstrip()) + 1) from None


def parse_scalar(text: str, offset: int = 0):
    """Parse a scalar literal; `offset` is the 0-based column of `text` in the
    enclosing source, used for error columns."""
    t = text.strip()
    offset += len(text) - len(text.lstrip())
    if t.startswith("alg[") and t.endswith("]"):
        body = t[4:-1]
        if ";" not in body:
            raise ParseError("alg literal needs ';' between coefficients and interval",
                             offset + 1)
        cs_part, iv_part = body.split(";", 1)
        coeffs, col = [], offset + 5
        for c in cs_part.split(","):
            try:
                coeffs.append(int(c))
            except ValueError:
                raise ParseError(f"bad alg coefficient {c.strip()!r}",
                                 col + len(c) - len(c.lstrip())) from None
            col += len(c) + 1
        iv = iv_part.split(",")
        if len(iv) != 2:
            raise ParseError("alg interval needs two endpoints", offset + 5 + len(cs_part))
        lo_col = offset + 5 + len(cs_part)
        lo = parse_rational(iv[0], lo_col)
        hi = parse_rational(iv[1], lo_col + len(iv[0]) + 1)
        try:
            return real_algebraic(coeffs, lo, hi)
        except MalformedAlgebraic as e:
            raise ParseError(str(e), offset + 1) from None
    return parse_rational(t, offset)


# ---------------------------------------------------------------------------
# small rational utilities used across the package


def rational_height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The unique simplest rational strictly inside the open interval."""
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    # now 0 <= lo < hi
    fl = math.floor(lo)
    if Fraction(fl + 1) < hi:
        return Fraction(fl + 1)
    a, b = lo - fl, hi - fl
    if a == 0:
        # (0, b): simplest is 1/ceil(1/b + tiny) -- smallest q with 1/q < b
        q = math.floor(1 / b) + 1
        return fl + Fraction(1, q)
    inner = simplest_between(1 / b, 1 / a)
    return fl + 1 / inner
