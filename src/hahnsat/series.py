"""Finite-support Hahn series over lexicographically ordered Q^n exponents.

A series is a finite sum of terms c * t^gamma with exact coefficients
(Fraction, RealAlgebraic, or OracleReal) and exponents in Q^n under the
lexicographic order; t^gamma for gamma > 0 is a positive infinitesimal.  A
series may carry a truncation bound: stored exponents are all strictly below
it, and nothing is known at or beyond it.  Arithmetic propagates bounds so
that every stored term of a result is genuine.

Invariant of every Series: each exponent is an interned `Exp` of exactly
`dim` Fractions, each coefficient is nonzero, and each stored exponent lies
strictly below `trunc` when a bound is present.  The public constructor
(`Series(...)`, `parse_series`) normalizes outside input to it;
arithmetic results preserve it by construction and are built through the
trusted `Series._raw`, which does not re-check.  No series is changed
after it is built, so `add` returns the other operand of a sum with the
exact zero series, and `scale` by a rational multiplies the rational
coefficients on integers.  `Series._raw` also takes a result's kept
order when the builder already has it: `add_scaled`, which builds the
engine's probes d + q*u, places the scaled terms of u into the kept order
of d instead of scaling a copy, adding it and sorting again.

Every exponent is built by `Exp(coords)`, which keeps one object per value
in a bounded cache: equal exponents are mostly the same object and carry a
stored hash and a stored order key, so the order kernel below seldom
compares or hashes a `Fraction` of an exponent.  Two exponents are ordered
by their keys, which interleave each coordinate's float with the
coordinate itself: C's tuple comparison decides on the floats and reaches
the two `Fraction`s only where their floats tie.
The same cache keeps, under an (exponent, dimension) key, the padded form
of a literal or monomial exponent (`padded_exp`).

A Series computes its support in ascending order once, on first use, and
keeps it (`sorted_terms`).  Order and the valuation of a difference are
decided by `_first_difference`, which merge-walks two such supports up to
the first exponent where they differ, without hashing an exponent or
building the difference.  It returns the two coefficients found there, and
their order (`scalars.compare`) is the order of the series: no coefficient
is negated or added, and two rational coefficients are compared on their
integer numerators and denominators, never through `Fraction`'s own
comparisons.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from functools import total_ordering
from math import inf
from typing import Optional

from .errors import (
    ClassMismatch,
    NegativeValuation,
    ParseError,
    TruncationInsufficient,
)
from .scalars import (
    OracleReal,
    _q_mul,
    compare,
    format_rational,
    format_scalar,
    parse_scalar,
    scalar_add,
    scalar_inv,
    scalar_is_one,
    scalar_is_zero,
    scalar_mul,
    scalar_neg,
    scalar_sign,
)


def _order_key(coords) -> tuple:
    """(float(q0), q0, float(q1), q1, ...): ordered as the coordinates are.

    Each float is the correctly rounded int division (clamped to +-inf past
    float range), so it is monotone in q and a float tie falls through to
    the exact coordinate."""
    key = []
    for q in coords:
        n, d = q.as_integer_ratio()
        try:
            key += (n / d, q)
        except OverflowError:
            key += (inf if n > 0 else -inf, q)
    return tuple(key)


def _keyed(name):
    """Exp's rich comparison `name`: by the stored keys against another
    Exp, as tuple's own otherwise (plain tuples, INFINITY's reflection)."""
    by_key, plain = getattr(operator, name), getattr(tuple, name)

    def method(self, other):
        if type(other) is Exp:
            return by_key(self._key, other._key)
        return plain(self, other)
    return method


class Exp(tuple):
    """An exponent: a tuple of Fractions, compared lexicographically.

    `Exp(coords)` takes Fraction or int coordinates and returns the interned
    object for their value.  The hash is stored and equals the plain
    tuple's, so a plain tuple key finds an `Exp` key.  Equality is by value:
    identity first, then a stored-hash mismatch between two `Exp`s, then
    the coordinates.  Order against another `Exp` is by the stored
    `_order_key`.
    """

    def __new__(cls, coords):
        if type(coords) is cls:
            return coords
        ratios = tuple([q.as_integer_ratio() for q in coords])
        exp = _EXPS.get(ratios)
        if exp is None:
            if len(_EXPS) >= _TABLE_MAX:
                _EXPS.clear()
            exp = tuple.__new__(cls, [Fraction(*r) for r in ratios])
            exp._hash = tuple.__hash__(exp)
            exp._key = _order_key(exp)
            _EXPS[ratios] = exp
        return exp

    __lt__ = _keyed("__lt__")
    __le__ = _keyed("__le__")
    __gt__ = _keyed("__gt__")
    __ge__ = _keyed("__ge__")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is Exp and other._hash != self._hash:
            return False
        return tuple.__eq__(self, other)


# The intern table of Exp, keyed by (numerator, denominator) pairs so that
# a lookup hashes no Fraction.  It is a pure cache, cleared past _TABLE_MAX,
# far above the few hundred exponents a benchmark workload uses.
_EXPS: dict = {}
_TABLE_MAX = 4096


@total_ordering
class _Infinity:
    """Valuation of the zero series; greater than every exponent."""

    def __lt__(self, other):
        return False

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def zero_exp(dim: int) -> Exp:
    return Exp((0,) * dim)


def exp_add(a: Exp, b: Exp) -> Exp:
    return Exp([x + y for x, y in zip(a, b)])


def exp_neg(a: Exp) -> Exp:
    return Exp([-x for x in a])


def exp_scale(a: Exp, q: Fraction) -> Exp:
    return Exp([x * q for x in a])


def _strip_exp(exp) -> Exp:
    """The coordinates of `exp` without its trailing zeros."""
    coords = list(exp)
    while coords and coords[-1] == 0:
        coords.pop()
    return Exp(coords)


def make_exp(values, dim: int) -> Exp:
    """The exponent of `values` (anything `Fraction` reads), padded with
    zeros to `dim` coordinates."""
    vals = [v if type(v) is Fraction else Fraction(v) for v in values]
    if len(vals) > dim:
        raise ValueError(f"exponent has {len(vals)} coordinates, dimension is {dim}")
    vals.extend([0] * (dim - len(vals)))
    return Exp(vals)


def padded_exp(exp: tuple, dim: int) -> Exp:
    """make_exp(exp, dim) for a hashable exponent, such as a stripped
    literal or a monomial's, kept in the intern table under the key
    (exp, dim), so a repeat builds no Fraction and calls no make_exp.  No such key equals an Exp's
    key, whose entries are all (numerator, denominator) pairs."""
    key = (exp, dim)
    out = _EXPS.get(key)
    if out is None:
        out = make_exp(exp, dim)
        if len(_EXPS) >= _TABLE_MAX:
            _EXPS.clear()
        _EXPS[key] = out
    return out


class Series:
    """Finite-support Hahn series; structurally immutable.

    `terms` maps exponents to nonzero coefficients, all strictly below
    `trunc` when a bound is present.  Equality and hashing are structural.
    `_order` caches `sorted_terms()`.
    """

    __slots__ = ("dim", "terms", "trunc", "_hash", "_order")

    def __init__(self, terms: dict, dim: int, trunc: Optional[Exp] = None):
        if trunc is not None:
            trunc = Exp(trunc)
        kept = {}
        for exp, c in terms.items():
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} does not match dimension {dim}")
            if isinstance(c, int):
                c = Fraction(c)
            if scalar_is_zero(c):
                continue
            if trunc is not None and not exp < trunc:
                continue
            kept[Exp(exp)] = c
        _set_dim(self, dim)
        _set_terms(self, kept)
        _set_trunc(self, trunc)
        _set_hash(self, None)
        _set_order(self, None)

    @classmethod
    def _raw(cls, terms: dict, dim: int, trunc: Optional[Exp] = None,
             order: Optional[tuple] = None) -> "Series":
        """Trusted constructor for arithmetic results: `terms` already meets
        the module invariant and is owned by the new series; `order`, when
        given, is its `sorted_terms()`."""
        self = object.__new__(cls)
        _set_dim(self, dim)
        _set_terms(self, terms)
        _set_trunc(self, trunc)
        _set_hash(self, None)
        _set_order(self, order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def sorted_terms(self) -> tuple:
        """The terms by ascending exponent, flat: (e0, c0, e1, c1, ...).

        Computed once and kept for the life of the series, so it is one
        tuple without a pair object per term, built from a list so that it
        is allocated at its final size."""
        if self._order is None:
            items = sorted(self.terms.items(), key=_term_key)
            _set_order(self, tuple([v for term in items for v in term]))
        return self._order

    def is_zero(self) -> bool:
        """True only for the exact zero series."""
        return not self.terms and self.trunc is None

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        """Hashes each exponent by its stored hash and each rational
        coefficient by its (numerator, denominator), so no `Fraction` is
        hashed; equal series have equal terms, hence equal hashes."""
        if self._hash is None:
            terms = frozenset([
                (e, c.as_integer_ratio() if isinstance(c, Fraction) else c)
                for e, c in self.terms.items()])
            _set_hash(self, hash((self.dim, self.trunc, terms)))
        return self._hash

    def __repr__(self):
        body = format_series(self)
        if self.trunc is not None:
            return f"<{body} (below {_format_exp(self.trunc)})>"
        return f"<{body}>"


# The slot setters of Series, which bypass its refusing __setattr__.
_set_dim, _set_terms, _set_trunc, _set_hash, _set_order = (
    getattr(Series, name).__set__ for name in Series.__slots__)


def _term_key(term) -> tuple:
    """The order key of a term's exponent, computed for a plain tuple."""
    e = term[0]
    return e._key if type(e) is Exp else _order_key(e)


def zero_series(dim: int) -> Series:
    return Series._raw({}, dim)


def monomial(exponent, coeff, dim: Optional[int] = None) -> Series:
    """The series coeff * t^exponent."""
    if dim is None:
        dim = len(exponent)
    exp = padded_exp(
        exponent if type(exponent) is Exp else tuple(exponent), dim)
    if isinstance(coeff, int):
        coeff = Fraction(coeff)
    return Series._raw({} if scalar_is_zero(coeff) else {exp: coeff}, dim)


def from_scalar(c, dim: int) -> Series:
    return monomial((), c, dim)


_ZERO = Fraction(0)  # the coefficient of a missing term
_VALUATION_UNKNOWN = "no terms below the bound {}; valuation unknown"
_SIGN_UNKNOWN = "difference has no terms below {}; sign unknown"


def valuation(x: Series):
    """Least exponent in the support; INFINITY for the exact zero series.

    A series with no stored terms but a truncation bound has unknown
    valuation, so TruncationInsufficient is raised.
    """
    if x.terms:
        return x.sorted_terms()[0]
    if x.trunc is None:
        return INFINITY
    raise TruncationInsufficient(
        _VALUATION_UNKNOWN.format(_format_exp(x.trunc)))


def _valuation_floor(x: Series):
    """A certified lower bound on the valuation (INFINITY for exact zero)."""
    if x.terms:
        return x.sorted_terms()[0]
    return INFINITY if x.trunc is None else x.trunc


def leading_term(x: Series):
    if valuation(x) is INFINITY:
        raise ValueError("zero series has no leading term")
    return x.sorted_terms()[:2]


def _min_trunc(a: Optional[Exp], b: Optional[Exp]) -> Optional[Exp]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _below(terms: dict, trunc: Exp) -> dict:
    return {e: c for e, c in terms.items() if e < trunc}


def add(x: Series, y: Series) -> Series:
    """x + y; a sum with the exact zero series is the other operand."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if not x.terms and x.trunc is None:
        return y
    if not y.terms and y.trunc is None:
        return x
    trunc = _min_trunc(x.trunc, y.trunc)
    out = dict(x.terms) if trunc == x.trunc else _below(x.terms, trunc)
    y_cut = trunc is not None and trunc != y.trunc
    for exp, c in y.terms.items():
        if y_cut and not exp < trunc:
            continue
        prev = out.get(exp)
        if prev is None:
            out[exp] = c
            continue
        c = scalar_add(prev, c)
        if scalar_is_zero(c):
            del out[exp]
        else:
            out[exp] = c
    return Series._raw(out, x.dim, trunc)


def linear_combination(pairs, dim: int, terms: Optional[dict] = None) -> Series:
    """The sum of q * g over the (q, g) pairs plus the series of `terms`, a
    dict that meets the module invariant and is owned by the result.

    Equal to the fold of `add` over `scale(g, q)`, built in one dict: pairs
    with q = 0 drop out, the bound is the least bound of the others, terms
    at or above it are never formed, and coefficients that cancel are
    dropped."""
    pairs = [(q, g) for q, g in pairs if not scalar_is_zero(q)]
    trunc = None
    for _, g in pairs:
        if g.dim != dim:
            raise ValueError("dimension mismatch")
        trunc = _min_trunc(trunc, g.trunc)
    out = {} if terms is None else terms
    if trunc is not None and out:
        out = _below(out, trunc)
    for q, g in pairs:
        for e, c in g.terms.items():
            if trunc is not None and not e < trunc:
                continue
            c = scalar_mul(c, q)
            prev = out.get(e)
            if prev is None:
                out[e] = c
                continue
            c = scalar_add(prev, c)
            if scalar_is_zero(c):
                del out[e]
            else:
                out[e] = c
    return Series._raw(out, dim, trunc)


def _mapped(x: Series, f) -> Series:
    """x with each coefficient c replaced by the nonzero f(c)."""
    return Series._raw({e: f(c) for e, c in x.terms.items()}, x.dim, x.trunc)


def negate(x: Series) -> Series:
    return _mapped(x, scalar_neg)


def subtract(x: Series, y: Series) -> Series:
    return add(x, negate(y))


def multiply(x: Series, y: Series) -> Series:
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if (x.is_zero() or y.is_zero()):
        return zero_series(x.dim)
    trunc = None
    if x.trunc is not None:
        vy = _valuation_floor(y)
        trunc = _min_trunc(trunc, None if vy is INFINITY else exp_add(x.trunc, vy))
    if y.trunc is not None:
        vx = _valuation_floor(x)
        trunc = _min_trunc(trunc, None if vx is INFINITY else exp_add(y.trunc, vx))
    out: dict = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = exp_add(e1, e2)
            if trunc is not None and not e < trunc:
                continue
            p = scalar_mul(c1, c2)
            if e in out:
                out[e] = scalar_add(out[e], p)
            else:
                out[e] = p
    for e in [e for e, c in out.items() if scalar_is_zero(c)]:
        del out[e]
    return Series._raw(out, x.dim, trunc)


def scale(x: Series, c) -> Series:
    """Multiply by an exact scalar; the bound is unaffected.  Scaling by 0
    gives the exact zero series and scaling by 1 gives x itself; a rational
    times a rational coefficient is taken on integers (`_q_mul`)."""
    if isinstance(c, int):
        c = Fraction(c)
    if scalar_is_zero(c):
        return zero_series(x.dim)
    if scalar_is_one(c):
        return x
    rational = type(c) is Fraction
    return Series._raw({e: _q_mul(a, c) if rational and type(a) is Fraction
                        else scalar_mul(a, c) for e, a in x.terms.items()},
                       x.dim, x.trunc)


def add_scaled(x: Series, y: Series, c) -> Series:
    """add(x, scale(y, c)) for an exact scalar c, keeping its order: each
    term of y, scaled as `scale` scales it, is placed into the kept order
    of x (`sorted_terms`) by bisection, or added to an equal exponent's
    coefficient and dropped when that cancels.  The result keeps that
    order, so no scaled copy is built and nothing is sorted again.  An
    operand with a bound takes `add`'s own path."""
    if x.trunc is not None or y.trunc is not None:
        return add(x, scale(y, c))
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if isinstance(c, int):
        c = Fraction(c)
    if scalar_is_zero(c) or not y.terms:
        return x
    if not x.terms:
        return scale(y, c)
    one, rational = scalar_is_one(c), type(c) is Fraction
    terms, order = dict(x.terms), list(x.sorted_terms())
    ys = y.sorted_terms()
    k = 0
    for j in range(0, len(ys), 2):
        e, a = ys[j], ys[j + 1]
        if not one:
            a = _q_mul(a, c) if rational and type(a) is Fraction \
                else scalar_mul(a, c)
        k += 2 * bisect_left(range(k, len(order), 2), e._key,
                             key=lambda i: order[i]._key)
        if k < len(order) and order[k] == e:
            e, a = order[k], scalar_add(order[k + 1], a)
            if scalar_is_zero(a):
                del terms[e], order[k:k + 2]
                continue
            order[k + 1] = a
        else:
            order[k:k] = e, a
        terms[e] = a
    return Series._raw(terms, x.dim, None, tuple(order))


def with_trunc(x: Series, bound: Optional[Exp]) -> Series:
    trunc = _min_trunc(x.trunc, bound)
    terms = dict(x.terms) if trunc == x.trunc else _below(x.terms, trunc)
    return Series._raw(terms, x.dim, trunc)


def restrict_exponents(x: Series, bound: Exp, inclusive: bool = True) -> Series:
    """Exact series made of the stored terms with exponent <= bound
    (< bound when inclusive=False); the truncation bound is discarded."""
    if inclusive:
        kept = {e: c for e, c in x.terms.items() if e <= bound}
    else:
        kept = _below(x.terms, bound)
    return Series._raw(kept, x.dim)


def invert(x: Series, order: Optional[Exp] = None) -> Series:
    """Multiplicative inverse.

    Exact monomials invert exactly whatever the order.  Otherwise `order` is
    required and the result is a geometric expansion carrying the bound
    order - 2*v(x); when the lexicographic order makes the target unreachable
    (the tail valuation is null in a coordinate where the target is not),
    TruncationInsufficient is raised.
    """
    if x.is_zero():
        raise ZeroDivisionError("cannot invert the zero series")
    if not x.terms:
        raise TruncationInsufficient("no terms below the bound; cannot invert")
    v, c = leading_term(x)
    if len(x.terms) == 1 and x.trunc is None:
        return Series._raw({exp_neg(v): scalar_inv(c)}, x.dim)
    if order is None:
        raise ValueError("order is required to invert a non-monomial series")
    order = make_exp(order, x.dim)
    lead_inv = Series._raw({exp_neg(v): scalar_inv(c)}, x.dim)
    eps = subtract(multiply(x, lead_inv), from_scalar(Fraction(1), x.dim))
    out_trunc = exp_add(exp_add(order, exp_neg(v)), exp_neg(v))
    if not eps.terms and eps.trunc is None:
        return with_trunc(lead_inv, None)  # x was exactly its leading term
    target = exp_add(order, exp_neg(v))
    veps = _valuation_floor(eps)
    if veps is INFINITY:
        return with_trunc(lead_inv, out_trunc)
    j = next(i for i, q in enumerate(veps) if q != 0)
    if any(target[i] > 0 for i in range(j)):
        raise TruncationInsufficient(
            f"order {_format_exp(order)} is lexicographically unreachable from "
            f"tail valuation {_format_exp(veps)}"
        )
    k = 0
    while not exp_scale(veps, Fraction(k)) >= target:
        k += 1
    acc = from_scalar(Fraction(1), x.dim)
    power = from_scalar(Fraction(1), x.dim)
    neg_eps = negate(eps)
    for _ in range(k - 1):
        power = multiply(power, neg_eps)
        acc = add(acc, power)
    return with_trunc(multiply(acc, lead_inv), out_trunc)


def _first_difference(x: Series, y: Series, unknown: str = _SIGN_UNKNOWN):
    """(exponent, cx, cy) at the least exponent where x and y differ, with
    cx and cy their coefficients there (Fraction(0) for a missing term), or
    None when they are equal exact series.

    Merge-walks the two sorted supports; exponents are compared, never
    hashed, and coefficients are tested for equality, never negated or
    added: two Fractions on their numerator and denominator slots, which
    are normalized, and any other pair with `==`.  When x and y agree below the
    smaller bound, equality cannot be certified and TruncationInsufficient
    is raised with `unknown` formatted by that bound.
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    trunc = _min_trunc(x.trunc, y.trunc)
    xs, ys = x.sorted_terms(), y.sorted_terms()
    nx, ny = len(xs), len(ys)
    i = j = 0
    while i < nx or j < ny:
        if j == ny:
            e, cx, cy = xs[i], xs[i + 1], _ZERO
        elif i == nx:
            e, cx, cy = ys[j], _ZERO, ys[j + 1]
        else:
            e, ey = xs[i], ys[j]
            if e is ey or e == ey:
                cx, cy = xs[i + 1], ys[j + 1]
                i += 2
                j += 2
                if cx is cy or (cx._numerator == cy._numerator
                                and cx._denominator == cy._denominator
                                if type(cx) is type(cy) is Fraction
                                else cx == cy):
                    continue
            elif e < ey:
                cx, cy = xs[i + 1], _ZERO
            else:
                e, cx, cy = ey, _ZERO, ys[j + 1]
        if trunc is not None and not e < trunc:
            break
        return e, cx, cy
    if trunc is None:
        return None
    raise TruncationInsufficient(unknown.format(_format_exp(trunc)))


def compare_series(x: Series, y: Series) -> int:
    """Sign of x - y in the ordered Hahn field; ValueError on a dimension
    mismatch, TruncationInsufficient when x and y agree below the smaller
    bound, and ComparisonUndecidedAtPrecision from oracle coefficients."""
    first = _first_difference(x, y)
    return 0 if first is None else compare(first[1], first[2])


def diff_valuation(x: Series, y: Series):
    """valuation(subtract(x, y)), errors included, without building the
    difference."""
    first = _first_difference(x, y, _VALUATION_UNKNOWN)
    return INFINITY if first is None else first[0]


def residue(a: Series):
    """Coefficient at exponent zero for a series of nonnegative valuation."""
    zero = zero_exp(a.dim)
    if a.terms:
        v = a.sorted_terms()[0]
        if v < zero:
            raise NegativeValuation(f"valuation {_format_exp(v)} is negative")
    if zero in a.terms:
        return a.terms[zero]
    if a.trunc is not None and not zero < a.trunc:
        raise TruncationInsufficient(
            "bound does not reach exponent zero; residue unknown"
        )
    return Fraction(0)


def arch_ratio(y: Series, x: Series):
    """Leading-coefficient ratio lead(y)/lead(x) for same-valuation series;
    zero y gives 0, otherwise differing valuations raise ClassMismatch."""
    if y.is_zero():
        return Fraction(0)
    vy, vx = valuation(y), valuation(x)
    if vy != vx:
        raise ClassMismatch(
            f"valuations {_format_exp(vy)} and "
            f"{vx if vx is INFINITY else _format_exp(vx)} differ"
        )
    return scalar_mul(y.terms[vy], scalar_inv(x.terms[vx]))


# ---------------------------------------------------------------------------
# literals


def _format_exp(exp) -> str:
    """`(q1,...,qk)` without trailing zero coordinates; `(0)` for zero."""
    return "(" + (",".join(map(format_rational, _strip_exp(exp))) or "0") + ")"


def format_series(x: Series) -> str:
    """Canonical literal: terms ascending by exponent, unit coefficients
    omitted, signs folded into the separators, trailing zero exponent
    coordinates dropped; the zero series prints as `0`."""
    if not x.terms:
        return "0"
    parts = []
    order = x.sorted_terms()
    for i, (exp, c) in enumerate(zip(order[::2], order[1::2])):
        if isinstance(c, OracleReal):
            sign, mag = 1, format_scalar(c)
        else:
            sign = scalar_sign(c)
            mag = format_scalar(c if sign > 0 else scalar_neg(c))
        if not any(exp):
            body = mag
        elif mag == "1":
            body = f"t^{_format_exp(exp)}"
        else:
            body = f"{mag}*t^{_format_exp(exp)}"
        if i == 0:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append((" - " if sign < 0 else " + ") + body)
    return "".join(parts)


def _top_level(text: str):
    """(i, ch) for each character of `text` outside () and [], the
    outermost brackets themselves included; ParseError on unbalanced
    brackets, at a stray closer or at the end for an unclosed one."""
    depth = 0
    for i, ch in enumerate(text):
        if ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", i + 1)
        if depth == 0:
            yield i, ch
        if ch in "([":
            depth += 1
    if depth:
        raise ParseError("unbalanced brackets", len(text))


def _split_top_level(text: str):
    """Split a series literal into signed term chunks at top-level +/-."""
    chunks = []
    start = 0
    sign = 1
    prev_hat = False
    for i, ch in _top_level(text):
        if ch in "+-" and not prev_hat:
            if text[start:i].strip():
                chunks.append((sign, text[start:i], start))
                sign = 1
            elif start:
                raise ParseError("empty term", i + 1)
            if ch == "-":
                sign = -sign
            start = i + 1
        if not ch.isspace():
            prev_hat = ch == "^"
    if not text[start:].strip():
        raise ParseError("trailing operator", len(text))
    chunks.append((sign, text[start:], start))
    return chunks


def _parse_exponent(text: str, col: int, dim: int) -> Exp:
    """`col` is the 0-based column of `text` in the literal."""
    t = text.strip()
    col += len(text) - len(text.lstrip())
    if t.startswith("(") and t.endswith(")"):
        if not t[1:-1].strip():
            return zero_exp(dim)
        coords = t[1:-1].split(",")
        col += 1
    else:
        coords = [t]
    cols = []  # 1-based column of each coordinate's first character
    for c in coords:
        cols.append(col + len(c) - len(c.lstrip()) + 1)
        col += len(c) + 1
    if len(coords) > dim:
        raise ParseError(f"exponent has {len(coords)} coordinates, dimension is {dim}",
                         cols[dim])
    vals = []
    for c, c_col in zip(coords, cols):
        c = c.strip()
        try:
            vals.append(Fraction(c))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad exponent coordinate {c!r}", c_col) from None
    vals.extend([0] * (dim - len(vals)))
    return Exp(vals)


def _parse_term(sign: int, chunk: str, col: int, dim: int):
    star = next((i for i, ch in _top_level(chunk) if ch == "*"), None)
    if star is not None:
        coeff_text, t_part = chunk[:star], chunk[star + 1:]
    else:
        stripped = chunk.strip()
        if stripped == "t" or stripped.startswith("t^"):
            coeff_text, t_part = None, chunk
        else:
            coeff_text, t_part = chunk, None
    coeff = Fraction(1)
    if coeff_text is not None:
        coeff = parse_scalar(coeff_text, col)
    if sign < 0:
        coeff = scalar_neg(coeff)
    if t_part is None:
        return zero_exp(dim), coeff
    tp = t_part.strip()
    t_col = col + (len(chunk) - len(chunk.lstrip())) + (len(chunk.strip()) - len(tp))
    if tp == "t":
        exp = make_exp([Fraction(1)], dim)
    elif tp.startswith("t^"):
        exp = _parse_exponent(tp[2:], t_col + 2, dim)
    else:
        raise ParseError(f"expected t-power, got {tp!r}", t_col + 1)
    return exp, coeff


def parse_series(text: str, dim: int = 2) -> Series:
    """Parse a series literal; tolerant of whitespace, bare `t`,
    unparenthesized single-coordinate exponents, and partial exponent tuples
    (padded with zeros)."""
    s = text.strip()
    if not s:
        raise ParseError("empty series literal", 1)
    if s == "0":
        return zero_series(dim)
    out: dict = {}
    for sign, chunk, start in _split_top_level(text):
        exp, coeff = _parse_term(sign, chunk, start, dim)
        if exp in out:
            out[exp] = scalar_add(out[exp], coeff)
        else:
            out[exp] = coeff
    return Series(out, dim)
