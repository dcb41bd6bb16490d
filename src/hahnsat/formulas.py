"""Formula layer for ordered groups and ordered fields over Hahn series.

Terms are rational-coefficient combinations of symbol monomials plus literal
t-power monomials (the identifier `t` is reserved for literals and cannot be
a parameter name).  Atoms canonicalize to integer-scaled `P < N` / `P = N`
with sign-split sides; compound structure is preserved as written.  The
group fragment admits quantifier elimination; one-variable conjunctions
reduce to cuts.

A cut is held as a store `(lower, upper, point)` of series, each None when
absent: the values of the variable strictly between lower and upper, or the
one point when it is set.  A store is consistent when its point lies strictly
inside its bounds or, without a point, when the open interval is nonempty.

An `AtomTable` is one model: the parameters' series `env`, the variable
`var` and the dimension `dim`.  It keeps the store of every atom read in it,
and the series of every term evaluated in it (`values`), for one
realization.  `AtomTable.store` gives the store of one atom, and the store
of a DNF world is the fold of `_merge_store`, the one intersection of
stores, over its atoms' stores (`AtomTable.fold`): `cut_bounds` builds it
and rejects an inconsistent one, `satisfiable` scans the stores of a
formula's worlds, and `conjoin` intersects a disjunction of stores with a
further formula through `AtomTable.conjoin`, the one merge loop.  Atoms are
solved for the variable by `_solve_for` under one rule: a unit keeps the
solves of its own formula's atoms; a table keeps stores.  A unit
(`_Compiled`) is one formula's DNF worlds and the solves of the atoms read
through them: `_compiled` keeps those of the 64 formulas last given to
`satisfiable` or `conjoin`, `compiled_fragment` those of the fragment per
process, signature and variable.  An emission's atoms are solved once per
table.  No store or series outlives the realization or call that made it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .errors import (
    BudgetExhausted,
    NonlinearUnsupported,
    ParseError,
    Unsatisfiable,
)
from .scalars import (
    format_rational,
    scalar_inv,
    scalar_mul,
    scalar_neg,
)
from .series import (
    Series,
    _format_exp,
    _strip_exp,
    compare_series,
    linear_combination,
    from_scalar,
    multiply as series_multiply,
    padded_exp,
)

Monomial = tuple  # tuple of (symbol, power) pairs, sorted by symbol
CONST: Monomial = ()


def _summed(*pair_lists) -> dict:
    """{key: the sum of its values} over the (key, value) pairs."""
    out: dict = {}
    for pairs in pair_lists:
        for k, v in pairs:
            out[k] = out[k] + v if k in out else v
    return out


@dataclass(frozen=True)
class Term:
    """syms: symbol-monomial coefficients; lits: literal t-power coefficients
    keyed by exponent tuples with trailing zeros stripped.

    The hash is computed on first use and stored, since terms key the term
    values of a model."""

    syms: tuple = ()
    lits: tuple = ()
    _hash = None  # not a field: the stored hash, set by __hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.syms, self.lits))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def build(cls, syms: dict, lits: dict) -> "Term":
        s = tuple(sorted((m, q) for m, q in syms.items() if q))
        l = tuple(sorted((e, q) for e, q in lits.items() if q))
        return cls(s, l)

    def free_symbols(self) -> set:
        out = set()
        for m, _ in self.syms:
            for s, _p in m:
                out.add(s)
        return out


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class TrueF:
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseF:
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class Atom:
    """Canonical atom pos REL neg: disjoint supports, positive primitive
    integer coefficients.

    The hash is computed on first use and stored, since atoms key the atom
    tables.  Equality is the dataclass's, by the fields."""

    rel: str  # "<" or "="
    pos: Term
    neg: Term
    _hash = None  # not a field: the stored hash, set by __hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rel, self.pos, self.neg))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return f"{_side_text(self.pos)} {self.rel} {_side_text(self.neg)}"


@dataclass(frozen=True)
class Not:
    body: object
    _quantified = None  # not a field: set by _has_quantifier

    def __str__(self):
        return f"not ({self.body})"


@dataclass(frozen=True)
class And:
    left: object
    right: object
    _quantified = None  # not a field: set by _has_quantifier

    def __str__(self):
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or:
    left: object
    right: object
    _quantified = None  # not a field: set by _has_quantifier

    def __str__(self):
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Exists:
    var: str
    body: object

    def __str__(self):
        return f"exists {self.var} ({self.body})"


Formula = object


@dataclass(frozen=True)
class Signature:
    """Language fragment marker: `group` (linear, constant-free) or `field`
    (adds integer constants), over the given parameter/variable symbols."""

    kind: str
    symbols: tuple

    def __post_init__(self):
        if self.kind not in ("group", "field"):
            raise ValueError("kind must be 'group' or 'field'")
        for s in self.symbols:
            if s in RESERVED:
                raise ValueError(f"symbol {s!r} is reserved")


@dataclass(frozen=True)
class PartialType:
    """Computably-enumerated one-variable type: emit(i) returns the i-th
    formula, or None for 'not yet determined at this index'."""

    emit: Callable[[int], Optional[Formula]]
    var: str
    params: tuple


def make_atom(rel: str, left: Term, right: Term):
    """Canonicalize left REL right; returns Atom, TrueF, or FalseF."""
    if rel == ">":
        rel, left, right = "<", right, left
    diffs = []  # the nonzero (key, coefficient) pairs of left - right
    for pairs, minus in ((left.syms, right.syms), (left.lits, right.lits)):
        diff = dict(pairs)
        for k, q in minus:
            diff[k] = diff[k] - q if k in diff else -q
        diffs.append([(k, q) for k, q in diff.items() if q])
    syms, lits = diffs
    if not lits and all(m == CONST for m, _ in syms):
        c = syms[0][1] if syms else 0
        if rel == "=":
            return TrueF() if c == 0 else FalseF()
        return TrueF() if c < 0 else FalseF()
    # scale to primitive integers: lcm of the denominators, then the gcd
    lcm = math.lcm(*(q.denominator for _, q in syms + lits))
    g = math.gcd(*(q.numerator * (lcm // q.denominator)
                   for _, q in syms + lits))
    halves = ({}, {}), ({}, {})  # (positive, negative) syms, then lits
    for (pos, neg), pairs in zip(halves, diffs):
        for k, q in pairs:
            n = q.numerator * (lcm // q.denominator) // g
            (pos if n > 0 else neg)[k] = Fraction(abs(n))
    (pos_s, neg_s), (pos_l, neg_l) = halves
    pos = Term.build(pos_s, pos_l)
    neg = Term.build(neg_s, neg_l)
    if rel == "=":
        return _equation(pos, neg)
    # for "<", diff < 0 means pos side below neg side
    return Atom(rel, pos, neg)


def _equation(a: Term, b: Term) -> Atom:
    """The canonical atom a = b of two canonical sides: the side whose
    print comes first stands left."""
    return Atom("=", a, b) if _side_text(a) <= _side_text(b) \
        else Atom("=", b, a)


def _format_mono(m: Monomial) -> str:
    parts = []
    for s, p in m:
        parts.append(s if p == 1 else f"{s}^{p}")
    return "*".join(parts)


def _side_text(t: Term) -> str:
    chunks = []
    for m, q in sorted((m, q) for m, q in t.syms if m != CONST):
        body = _format_mono(m)
        chunks.append(body if q == 1 else f"{format_rational(q)}*{body}")
    for e, q in t.lits:
        body = "t^" + _format_exp(e)
        chunks.append(body if q == 1 else f"{format_rational(q)}*{body}")
    const = dict(t.syms).get(CONST)
    if const:
        chunks.append(format_rational(const))
    return " + ".join(chunks) if chunks else "0"


def format_formula(f: Formula) -> str:
    return str(f)


# ---------------------------------------------------------------------------
# parser


_KEYWORDS = {"and", "or", "not", "exists", "forall", "true", "false"}
RESERVED = _KEYWORDS | {"t"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, col 1-based)
        self._scan()
        self.pos = 0

    def _scan(self):
        i, n = 0, len(self.text)
        while i < n:
            ch = self.text[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch.isdecimal():  # the digits int() reads
                j = i
                while j < n and self.text[j].isdecimal():
                    j += 1
                if j < n and self.text[j] == "/":
                    k = j + 1
                    while k < n and self.text[k].isdecimal():
                        k += 1
                    if k > j + 1:
                        self.toks.append(("num", self.text[i:k], col))
                        i = k
                        continue
                self.toks.append(("num", self.text[i:j], col))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (self.text[j].isalnum() or self.text[j] in "_'"):
                    j += 1
                word = self.text[i:j]
                kind = "kw" if word in _KEYWORDS else ("t" if word == "t" else "ident")
                self.toks.append((kind, word, col))
                i = j
                continue
            if ch in "<=>+-*^(),":
                self.toks.append(("op", ch, col))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", col)

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("eof", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, col = self.peek()
        if val != value:
            raise ParseError(f"expected {value!r}", col)
        return self.next()


def parse_formula(text: str) -> Formula:
    toks = _Tokens(text)
    f = _parse_or(toks)
    kind, val, col = toks.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {val!r}", col)
    return f


def _first_free(text: str, names: set) -> tuple:
    """(name, column) of the first symbol of the formula `text` that is in
    `names` and lies outside every exists/forall binding it; a binder's
    scope is the parenthesis after its variable, as `_parse_not` reads it."""
    toks = _Tokens(text).toks
    scopes = []  # (bound name, depth of the parenthesis its binder opens)
    depth = 0
    for i, (_kind, val, col) in enumerate(toks):
        if val == "(":
            depth += 1
        elif val == ")":
            depth -= 1
            while scopes and scopes[-1][1] > depth:
                scopes.pop()
        elif val in ("exists", "forall"):
            scopes.append((toks[i + 1][1], depth + 1))
        elif val in names and all(val != bound for bound, _ in scopes):
            return val, col


def _first_nonlinear(f: Formula, text: str, var: str):
    """(print, column) of the first monomial of f, the formula parsed from
    `text`, that makes an atom nonlinear in `var`, or None when every atom
    is linear in `var`; the column is that of the first product of `text`
    holding the monomial."""
    mono = next((m for a in iter_atoms(f) for m, _ in a.pos.syms + a.neg.syms
                 if _nonlinear(m, var)), None)
    if mono is None:
        return None
    toks = _Tokens(text)
    for i, (kind, _val, col) in enumerate(toks.toks):
        if kind == "op" or i and toks.toks[i - 1][1] in ("*", "^"):
            continue  # not the first factor of a product
        toks.pos = i
        try:
            c, m, lit = _parse_product(toks)
        except ParseError:
            continue
        if c and lit is None and m == mono:
            return _format_mono(mono), col
    return _format_mono(mono), 1


def _binders(f: Formula):
    """(y, body) of each subformula `exists y (body)` of f, outermost first."""
    here = [(f.var, f.body)] if isinstance(f, Exists) else []
    return here + [b for g in _parts(f) for b in _binders(g)]


def _parse_chain(toks, op: str, operand, join):
    """operand (op operand)*, joined from the left."""
    acc = operand(toks)
    while toks.peek()[1] == op:
        toks.next()
        acc = join(acc, operand(toks))
    return acc


def _parse_or(toks) -> Formula:
    return _parse_chain(toks, "or", _parse_and, Or)


def _parse_and(toks) -> Formula:
    return _parse_chain(toks, "and", _parse_not, And)


def _parse_not(toks) -> Formula:
    kind, val, col = toks.peek()
    if val == "not":
        toks.next()
        return Not(_parse_not(toks))
    if val in ("exists", "forall"):
        toks.next()
        vkind, var, vcol = toks.next()
        if vkind != "ident":
            raise ParseError("expected a variable name", vcol)
        toks.expect("(")
        body = _parse_or(toks)
        toks.expect(")")
        if val == "forall":
            return Not(Exists(var, Not(body)))
        return Exists(var, body)
    if val == "true":
        toks.next()
        return TrueF()
    if val == "false":
        toks.next()
        return FalseF()
    if val == "(":
        toks.next()
        body = _parse_or(toks)
        toks.expect(")")
        return body
    return _parse_atom(toks)


def _parse_atom(toks) -> Formula:
    left = _parse_term(toks)
    kind, val, col = toks.peek()
    if val not in ("<", "=", ">"):
        raise ParseError("expected a relation (<, =, >)", col)
    toks.next()
    right = _parse_term(toks)
    return make_atom(val, left, right)


def _parse_term(toks) -> Term:
    """Signed products, added in one pass into one symbol dict and one
    literal dict."""
    syms, lits = {}, {}
    while True:
        negate = False
        while toks.peek()[1] in ("+", "-"):
            negate ^= toks.next()[1] == "-"
        c, mono, lit = _parse_product(toks)
        if c:
            acc, key = (syms, mono) if lit is None else (lits, lit)
            c = scalar_neg(c) if negate else c
            acc[key] = acc[key] + c if key in acc else c
        if toks.peek()[1] not in ("+", "-"):
            return Term.build(syms, lits)


def _parse_product(toks) -> tuple:
    """(coefficient, monomial, literal exponent or None) of factor (*
    factor)*.  A constant factor scales the rest, so a zero absorbs it; a
    literal times anything else is an error."""
    c, mono, lit = _parse_factor(toks)
    while toks.peek()[1] == "*":
        toks.next()
        c2, mono2, lit2 = _parse_factor(toks)
        if not c or (lit is None and mono == CONST):
            c, mono, lit = scalar_mul(c, c2), mono2, lit2
        elif lit2 is None and mono2 == CONST:
            c = scalar_mul(c, c2)
        elif lit is not None or lit2 is not None:
            raise ParseError("literal t-powers may only be scaled or added", 1)
        else:
            c = scalar_mul(c, c2)
            mono = tuple(sorted(_summed(mono, mono2).items()))
    return c, mono, lit


def _parse_factor(toks) -> tuple:
    kind, val, col = toks.next()
    if kind == "num":
        return _number(val, col), CONST, None
    if kind == "t":
        exp = (_ONE,)
        if toks.peek()[1] == "^":
            toks.next()
            exp = _parse_lit_exponent(toks)
        return _ONE, CONST, _strip_exp(exp)
    if kind == "ident":
        power = 1
        if toks.peek()[1] == "^":
            toks.next()
            pkind, pval, pcol = toks.next()
            if pkind != "num" or "/" in pval:
                raise ParseError("expected an integer power", pcol)
            power = _number(pval, pcol).numerator
            if power < 1:
                raise ParseError("powers must be positive", pcol)
        return _ONE, ((val, power),), None
    raise ParseError(f"unexpected {val!r} in term", col)


def _number(val: str, col: int) -> Fraction:
    """The value of the number token `val` (n or n/d) at column `col`."""
    n, _, d = val.partition("/")
    try:
        return Fraction(int(n), int(d)) if d else Fraction(int(n))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {val!r}", col) from None


def _parse_lit_exponent(toks) -> tuple:
    if toks.peek()[1] != "(":
        return (_parse_signed_rational(toks, "expected an exponent"),)
    toks.next()
    coords = []
    while True:
        coords.append(
            _parse_signed_rational(toks, "expected an exponent coordinate"))
        kind, val, col = toks.next()
        if val == ")":
            return tuple(coords)
        if val != ",":
            raise ParseError("expected ',' or ')'", col)


def _parse_signed_rational(toks, message: str) -> Fraction:
    """An optionally negated number token; `message` names a missing one."""
    kind, val, col = toks.next()
    negate = val == "-"
    if negate:
        kind, val, col = toks.next()
    if kind != "num":
        raise ParseError(message, col)
    q = _number(val, col)
    return -q if negate else q


# ---------------------------------------------------------------------------
# evaluation


_ONE = Fraction(1)


def _term_series(t: Term, env: dict, dim: int,
                 values: Optional[dict] = None) -> Series:
    """The series of t in the model of env and dim.  `values` is that
    model's dict of term values: a term found there is not evaluated again,
    and one evaluated is kept there.  A power is taken by repeated squaring;
    a multi-term value's power keeps the exact support of the repeated
    product, which grows with the power."""
    if values is not None:
        x = values.get(t)
        if x is None:
            x = values[t] = _term_series(t, env, dim)
        return x
    # stripped literal exponents are distinct and their coefficients nonzero,
    # so the literal part meets the Series invariant as built; a t^(0)
    # literal and the constant meet in the combination
    pairs = []
    for m, q in t.syms:
        if m == CONST:
            pairs.append((q, from_scalar(_ONE, dim)))
            continue
        acc = None
        for s, p in m:
            if s not in env:
                raise KeyError(f"symbol {s!r} is not bound")
            x = env[s]
            while p:  # acc times x^p, by repeated squaring
                if p & 1:
                    acc = x if acc is None else series_multiply(acc, x)
                p >>= 1
                x = series_multiply(x, x) if p else x
        pairs.append((q, acc))
    return linear_combination(
        pairs, dim, {padded_exp(e, dim): q for e, q in t.lits})


def _infer_dim(f: Formula, env: dict, dim: Optional[int]) -> int:
    if env:
        dims = {v.dim for v in env.values()}
        if len(dims) != 1:
            raise ValueError("environment series have mixed dimensions")
        return dims.pop()
    if dim is not None:
        return dim
    best = 1
    for atom in iter_atoms(f):
        for e, _ in list(atom.pos.lits) + list(atom.neg.lits):
            best = max(best, len(e))
    return best


def _parts(f: Formula) -> tuple:
    """The immediate subformulas of f."""
    if isinstance(f, (Not, Exists)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    return ()


def iter_atoms(f: Formula) -> Iterable[Atom]:
    if isinstance(f, Atom):
        yield f
    for g in _parts(f):
        yield from iter_atoms(g)


def free_symbols(f: Formula) -> set:
    if isinstance(f, Atom):
        return f.pos.free_symbols() | f.neg.free_symbols()
    out = set().union(*map(free_symbols, _parts(f)))
    return out - {f.var} if isinstance(f, Exists) else out


def eval_formula(f: Formula, env: dict, dim: Optional[int] = None,
                 values: Optional[dict] = None) -> bool:
    """Truth of f under compare_series semantics; quantifiers are eliminated
    through the group-fragment procedure first.  `values` is the model's
    dict of term values (`_term_series`) when the caller keeps one;
    otherwise one dict serves this call, so a term that several atoms share
    is evaluated once."""
    if _has_quantifier(f):
        f = doag_qe(f)
    d = _infer_dim(f, env, dim)
    return _eval_qf(f, env, d, {} if values is None else values)


def _has_quantifier(f: Formula) -> bool:
    """Whether f holds an `Exists`; a connective keeps its answer."""
    if isinstance(f, (Not, And, Or)):
        q = f._quantified
        if q is None:
            q = any(map(_has_quantifier, _parts(f)))
            object.__setattr__(f, "_quantified", q)
        return q
    return isinstance(f, Exists)


def _eval_qf(f: Formula, env: dict, dim: int,
             values: Optional[dict] = None) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        lhs = _term_series(f.pos, env, dim, values)
        rhs = _term_series(f.neg, env, dim, values)
        c = compare_series(lhs, rhs)
        return c < 0 if f.rel == "<" else c == 0
    if isinstance(f, Not):
        return not _eval_qf(f.body, env, dim, values)
    if isinstance(f, And):
        return _eval_qf(f.left, env, dim, values) and \
            _eval_qf(f.right, env, dim, values)
    if isinstance(f, Or):
        return _eval_qf(f.left, env, dim, values) or \
            _eval_qf(f.right, env, dim, values)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


# ---------------------------------------------------------------------------
# quantifier elimination (group fragment)


def _nnf(f: Formula, negated: bool = False) -> Formula:
    if isinstance(f, TrueF):
        return FalseF() if negated else f
    if isinstance(f, FalseF):
        return TrueF() if negated else f
    if isinstance(f, Atom):
        if not negated:
            return f
        if f.rel == "<":
            # not (p < n)  <=>  n < p or n = p
            return Or(Atom("<", f.neg, f.pos), _equation(f.neg, f.pos))
        return Or(Atom("<", f.pos, f.neg), Atom("<", f.neg, f.pos))
    if isinstance(f, Not):
        return _nnf(f.body, not negated)
    if isinstance(f, And):
        l, r = _nnf(f.left, negated), _nnf(f.right, negated)
        return Or(l, r) if negated else And(l, r)
    if isinstance(f, Or):
        l, r = _nnf(f.left, negated), _nnf(f.right, negated)
        return And(l, r) if negated else Or(l, r)
    raise TypeError(f"cannot normalize {type(f).__name__}")


def iter_worlds(f: Formula):
    """Lazily yield the DNF worlds (atom lists) of a quantifier-free formula
    already in negation normal form."""
    if isinstance(f, TrueF):
        yield []
        return
    if isinstance(f, FalseF):
        return
    if isinstance(f, Atom):
        yield [f]
        return
    if isinstance(f, Or):
        yield from iter_worlds(f.left)
        yield from iter_worlds(f.right)
        return
    if isinstance(f, And):
        for lw in iter_worlds(f.left):
            for rw in iter_worlds(f.right):
                yield lw + rw
        return
    raise TypeError(f"cannot expand {type(f).__name__}")


def _nonlinear(m: Monomial, var: str) -> bool:
    """Whether the monomial m holds var but is not var itself."""
    return m != ((var, 1),) and any(s == var for s, _ in m)


def _solve_for(a: Atom, var: str):
    """(coeff, bound) reading `a` as coeff*var + rest REL 0 and solving it to
    var REL' bound, bound = -rest/coeff (REL' flips when coeff < 0); None
    when var does not occur in `a`.

    The sides of a canonical atom have disjoint supports, so pos - neg is
    the terms of pos and the negated terms of neg, read without adding."""
    x = ((var, 1),)
    bad = [m for m, _ in a.pos.syms + a.neg.syms if _nonlinear(m, var)]
    if bad:
        raise NonlinearUnsupported(
            f"atom is not linear in {var}: {_format_mono(min(bad))}")
    coeff = dict(a.pos.syms).get(x)
    if coeff is None:
        coeff = dict(a.neg.syms).get(x)
        if coeff is None:
            return None
        coeff = scalar_neg(coeff)
    r = scalar_inv(coeff)  # a pos term q goes to q*(-r), a neg term q to q*r
    nr = scalar_neg(r)
    syms = [(m, scalar_mul(q, nr)) for m, q in a.pos.syms if m != x]
    syms += [(m, scalar_mul(q, r)) for m, q in a.neg.syms if m != x]
    lits = [(e, scalar_mul(q, nr)) for e, q in a.pos.lits]
    lits += [(e, scalar_mul(q, r)) for e, q in a.neg.lits]
    return coeff, Term(tuple(sorted(syms)), tuple(sorted(lits)))


def _eliminate_one(var: str, world: list) -> Formula:
    """Fourier-Motzkin elimination of var from a conjunction of atoms."""
    lowers: list[Term] = []   # L < var
    uppers: list[Term] = []   # var < U
    points: list[Term] = []   # var = E
    keep: list = []
    for a in world:
        solved = _solve_for(a, var)
        if solved is None:
            keep.append(a)
            continue
        coeff, bound = solved
        if a.rel == "=":
            points.append(bound)
        elif coeff > 0:
            uppers.append(bound)
        else:
            lowers.append(bound)
    out: list = []
    if points:
        e0 = points[0]
        for other in points[1:]:
            out.append(make_atom("=", other, e0))
        for a in keep:
            out.append(a)
        for lo in lowers:
            out.append(make_atom("<", lo, e0))
        for up in uppers:
            out.append(make_atom("<", e0, up))
    else:
        out.extend(keep)
        for lo in lowers:
            for up in uppers:
                out.append(make_atom("<", lo, up))
    return _fold(out, And, TrueF, FalseF)


def _fold(items: list, join, unit, absorbing) -> Formula:
    """Join the distinct items in print order; `unit` items drop out and an
    `absorbing` item decides the whole fold."""
    clean: dict = {}
    for f in items:
        if isinstance(f, absorbing):
            return absorbing()
        if not isinstance(f, unit):
            clean.setdefault(str(f), f)
    if not clean:
        return unit()
    return reduce(join, (clean[key] for key in sorted(clean)))


def doag_qe(f: Formula) -> Formula:
    """Equivalent quantifier-free formula over divisible ordered groups."""
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, Not):
        return _nnf(Not(doag_qe(f.body)))
    if isinstance(f, And):
        return And(doag_qe(f.left), doag_qe(f.right))
    if isinstance(f, Or):
        return Or(doag_qe(f.left), doag_qe(f.right))
    if isinstance(f, Exists):
        body = _nnf(doag_qe(f.body))
        disjuncts = [_eliminate_one(f.var, w) for w in iter_worlds(body)]
        return _fold(disjuncts, Or, FalseF, TrueF)
    raise TypeError(f"cannot eliminate quantifiers from {type(f).__name__}")


# ---------------------------------------------------------------------------
# cut extraction


_UNSOLVED = object()  # marks an atom missing from a table


class AtomTable(dict):
    """One model: the series `env`, the variable `var` and the dimension
    `dim` (env's own when it has series).  It keeps the store of every atom
    read in it, and in `values` the series of every term evaluated in it,
    for as long as one realization lasts; it keeps no solve."""

    __slots__ = ("env", "var", "dim", "values")

    def __init__(self, env: dict, var: str, dim: int):
        self.env, self.var = env, var
        self.dim = _infer_dim(None, env, dim)
        self.values: dict = {}  # term -> its series in this model

    def store(self, a: Atom, unit=None):
        """The one-atom store of `a`: the bound it puts on `var`, (None,
        None, None) for a true atom without `var`, None for a false one.
        Raises NonlinearUnsupported when `a` is not linear in `var`.  Given
        `unit`, a compiled formula with `a` in a world, the unit solves `a`."""
        store = self.get(a, _UNSOLVED)
        if store is not _UNSOLVED:
            return store
        solved = _solve_for(a, self.var) if unit is None else unit[a]
        if solved is None:
            store = (None, None, None) \
                if _eval_qf(a, self.env, self.dim, self.values) else None
        else:
            coeff, bound_term = solved
            bound = _term_series(bound_term, self.env, self.dim, self.values)
            if a.rel == "=":
                store = (None, None, bound)
            else:
                store = (None, bound, None) if coeff > 0 else (bound, None, None)
        self[a] = store
        return store

    def fold(self, atoms: Iterable[Atom], unit=None):
        """The store of a conjunction of atoms, their one-atom stores
        intersected in order; None at the first atom that leaves no value,
        before any later atom is read."""
        store = (None, None, None)
        for a in atoms:
            one = self.store(a, unit)
            store = None if one is None else _merge_store(store, one)
            if store is None:
                return None
        return store

    def conjoin(self, states: list, worlds: Iterable, unit=None) -> list:
        """Conjoin a disjunction of worlds (atom sequences) onto a
        disjunction of stores: the distinct consistent intersections of each
        store with each world's store, in order.  Raises BudgetExhausted
        past _STATE_CAP stores."""
        world_stores = [st for world in worlds
                        if (st := self.fold(world, unit)) is not None]
        out: list = []
        seen: set = set()
        for st in states:
            for ws in world_stores:
                merged = _merge_store(st, ws)
                if merged is None or merged in seen:
                    continue
                seen.add(merged)
                out.append(merged)
                if len(out) > _STATE_CAP:
                    raise BudgetExhausted(
                        f"more than {_STATE_CAP} interval states",
                        stage="worlds")
        return out

    def satisfiable(self, worlds: Iterable, world_cap: int = 64,
                    unit=None) -> bool:
        """Whether some value of `var` satisfies a disjunction of worlds
        (atom sequences): scan them in order, short-circuiting on the first
        satisfiable one.  Raises BudgetExhausted if no world within the cap
        is satisfiable and some remain unexamined."""
        for checked, world in enumerate(worlds):
            if checked >= world_cap:
                raise BudgetExhausted(
                    f"satisfiability scan exceeded {world_cap} worlds",
                    stage="worlds")
            if self.fold(world, unit) is not None:
                return True
        return False


def cut_bounds(constraints, env: dict, var: str = "x", dim: int = 2):
    """Reduce a conjunction of one-variable atoms to its store
    (lower, upper, point) of series in the model.

    Atoms must be linear in `var`; symbols other than `var` are evaluated
    through `env`.  The atoms' stores are intersected in order, and the first
    atom that leaves no value (a false var-free atom, a second different
    point, a bound that empties the store) raises Unsatisfiable before any
    later atom is read.  Literal terms are read in dimension `dim` unless env
    has series, whose dimension wins.
    """
    atoms: list[Atom] = []
    for f in constraints:
        atoms.extend(_conjunct_atoms(f))
    store = AtomTable(env, var, dim).fold(atoms)
    if store is None:
        raise Unsatisfiable(f"no value of {var} satisfies "
                            + " and ".join(map(str, atoms)))
    return store


def _inside(lower, upper, e) -> bool:
    """Whether e lies strictly between the bounds; a None bound is open."""
    return (lower is None or compare_series(lower, e) < 0) and \
        (upper is None or compare_series(e, upper) < 0)


def _consistent(lower, upper, point) -> bool:
    """Whether the store holds a value: its point strictly inside the
    bounds or, without a point, a nonempty open interval."""
    if point is not None:
        return _inside(lower, upper, point)
    return lower is None or upper is None or compare_series(lower, upper) < 0


def _conjunct_atoms(f: Formula) -> list:
    if isinstance(f, Atom):
        return [f]
    if isinstance(f, TrueF):
        return []
    if isinstance(f, FalseF):
        raise Unsatisfiable("constraint is the false formula")
    if isinstance(f, And):
        return _conjunct_atoms(f.left) + _conjunct_atoms(f.right)
    raise ValueError("cut extraction expects a conjunction of atoms")


def _worlds(f: Formula) -> Iterable[list]:
    """The DNF worlds of f, lazily; quantifiers are eliminated first."""
    if _has_quantifier(f):
        f = doag_qe(f)
    return iter_worlds(_nnf(f))


class _Compiled(dict):
    """f compiled for `var`: as the dict, the `_solve_for` result of each
    atom a fold has read, and `kept`, f's DNF worlds (atom tuples) as far as
    a scan has read them.  It holds no series and no store."""

    __slots__ = ("var", "kept", "_rest")

    def __init__(self, f: Formula, var: str):
        self.var, self.kept, self._rest = var, [], map(tuple, _worlds(f))

    def __missing__(self, a: Atom):
        self[a] = solved = _solve_for(a, self.var)
        return solved

    def worlds(self):
        yield from self.kept  # a list iterator also reads what is appended
        for world in self._rest:  # one scan at a time extends the list
            self.kept.append(world)
            yield world
        self._rest = ()  # all kept: the spent iterator goes


_compiled = lru_cache(maxsize=64)(_Compiled)  # a formula recurs in runs


def satisfiable(f: Formula, env: dict, var: str = "x", world_cap: int = 64,
                dim: int = 2) -> bool:
    """`AtomTable.satisfiable` with f's compiled worlds, quantifiers
    eliminated first, in the model of env, var and dim."""
    unit = _compiled(f, var)
    return AtomTable(env, var, dim).satisfiable(unit.worlds(), world_cap, unit)


def _merge_store(a: tuple, b: tuple):
    """Intersect two stores; None when the intersection is inconsistent."""
    lo, up, pt = a
    lo2, up2, pt2 = b
    if pt is None:
        pt = pt2
    elif pt2 is not None and compare_series(pt, pt2) != 0:
        return None
    if lo is None or (lo2 is not None and compare_series(lo2, lo) > 0):
        lo = lo2
    if up is None or (up2 is not None and compare_series(up2, up) < 0):
        up = up2
    return (lo, up, pt) if _consistent(lo, up, pt) else None


_STATE_CAP = 64


def conjoin(states: list, f: Formula, env: dict, var: str = "x",
            dim: int = 2) -> list:
    """`AtomTable.conjoin` with f's compiled worlds, quantifiers eliminated
    first, in the model of env, var and dim."""
    unit = _compiled(f, var)
    return AtomTable(env, var, dim).conjoin(states, unit.worlds(), unit)


# ---------------------------------------------------------------------------
# enumeration


_ENUM_COEFF_CAP = 99  # keeps the enumerated fragment finite


@cache
def _atoms_of_length(sig: Signature, L: int) -> tuple:
    """The (print, formula) pairs of the atomic fragment with prints of length
    L, sorted by print: true, false, and canonical linear atoms whose sides
    are disjoint-support symbol sums with positive integer coefficients (and,
    for fields, one integer constant), all coefficients at most
    _ENUM_COEFF_CAP, joint gcd 1."""
    batch = [(text, f) for text, f in (("true", TrueF()), ("false", FalseF()))
             if len(text) == L]
    for left_len in range(1, L - 3):
        for lp, ls, lc in _sides_of_length(sig, left_len):
            for rp, rs, rc in _sides_of_length(sig, L - 3 - left_len):
                if ls & rs or not (ls or rs):
                    continue  # shared symbols; constant-only is true/false
                lcd, rcd = dict(lc), dict(rc)
                if CONST in lcd and CONST in rcd:
                    continue
                coeffs = (*lcd.values(), *rcd.values())
                if math.gcd(*(q.numerator for q in coeffs)) != 1:
                    continue
                pos, neg = Term.build(lcd, {}), Term.build(rcd, {})
                batch.append((f"{lp} < {rp}", Atom("<", pos, neg)))
                if lp <= rp:
                    batch.append((f"{lp} = {rp}", Atom("=", pos, neg)))
    return tuple(sorted(batch, key=itemgetter(0)))


def _max_possible_len(sig: Signature) -> int:
    """A bound on the print length of the formulas of sig's fragment."""
    per_sym = max((len(s) for s in sig.symbols), default=1) + 3
    side = len(sig.symbols) * (per_sym + 3)
    if sig.kind == "field":
        side += 5
    return max(5, 2 * side + 3)


@cache
def _sides_of_length(sig: Signature, L: int):
    """All canonical side prints of exact length L as
    (print, support frozenset, coefficient items)."""
    out = [("0", frozenset(), ())] if L == 1 else []
    symbols = sorted(sig.symbols)

    def build(start, left, prefix, sup, coeffs):
        # a chunk after the separator fills `room` (the side ends there) or
        # leaves room for more; the field constant comes last, so it fills it
        sep = " + " if prefix else ""
        room = left - len(sep)
        if sig.kind == "field":
            out.extend((f"{prefix}{sep}{c}", sup,
                        coeffs + ((CONST, Fraction(c)),))
                       for c in range(1, _ENUM_COEFF_CAP + 1)
                       if len(str(c)) == room)
        for i in range(start, len(symbols)):
            sym = symbols[i]
            for c in range(1, _ENUM_COEFF_CAP + 1):
                chunk = sym if c == 1 else f"{c}*{sym}"
                if len(chunk) > room:
                    break  # chunks only grow with c
                side = (f"{prefix}{sep}{chunk}", sup | {sym},
                        coeffs + ((((sym, 1),), Fraction(c)),))
                if len(chunk) == room:
                    out.append(side)
                else:
                    build(i + 1, room - len(chunk), *side)

    build(0, L, "", frozenset(), ())
    return sorted(set(out))


def _fragment(sig: Signature):
    """Lazily yield the atomic fragment of sig in length-lex order of
    canonical prints."""
    for L in range(1, _max_possible_len(sig) + 1):
        for _, f in _atoms_of_length(sig, L):
            yield f


class CompiledFragment:
    """What deciding sig's fragment for `var` takes that no env changes:
    for each enumerated formula f, in order, its two branches `Not(f)` and
    `f`, each with its DNF worlds as atom tuples in the order `iter_worlds`
    yields them and its unit (`_Compiled`), which keeps the solves of the
    atoms that tables have read through those worlds.  It holds no series
    and no store, and grows as far as the longest prefix asked of it."""

    def __init__(self, sig: Signature, var: str):
        self.var = var
        self.entries: list = []  # (Not(f) branch, f branch) per f
        self._rest = _fragment(sig)

    def prefix(self, n: int) -> list:
        """The entries of the first n formulas, or of the whole fragment
        when it is smaller: per branch, (constraint, worlds, unit)."""
        for f in islice(self._rest, max(0, n - len(self.entries))):
            units = [(c, _Compiled(c, self.var)) for c in (Not(f), f)]
            self.entries.append(tuple((c, tuple(unit.worlds()), unit)
                                      for c, unit in units))
        return self.entries[:n]


compiled_fragment = cache(CompiledFragment)  # one per (sig, var) and process


def enumerate_formulas(i: int, sig: Signature) -> Formula:
    """The i-th formula of the atomic fragment in length-lex order of
    canonical prints; stable across calls and injective."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    f = next(islice(_fragment(sig), i, None), None)
    if f is None:
        raise ValueError(f"enumeration exhausted below index {i}")
    return f


def _in_fragment(f: Formula, sig: Signature) -> bool:
    if isinstance(f, (TrueF, FalseF)):
        return True
    if not isinstance(f, Atom):
        return False
    if f.pos.lits or f.neg.lits:
        return False
    const_sides = 0
    for side in (f.pos, f.neg):
        for m, q in side.syms:
            if q.denominator != 1 or not 1 <= q.numerator <= _ENUM_COEFF_CAP:
                return False
            if m == CONST:
                if sig.kind != "field":
                    return False
                const_sides += 1
            elif len(m) != 1 or m[0][1] != 1 or m[0][0] not in sig.symbols:
                return False
    if const_sides > 1:
        return False
    return bool(f.pos.free_symbols() or f.neg.free_symbols())


def formula_index(f: Formula, sig: Signature) -> int:
    """Inverse of enumerate_formulas on formulas of the atomic fragment."""
    f = parse_formula(str(f))  # normalize to the canonical form
    text = str(f)
    L = len(text)
    if _in_fragment(f, sig) and L <= _max_possible_len(sig):
        batch = _atoms_of_length(sig, L)
        pos = bisect_left(batch, text, key=itemgetter(0))
        if pos < len(batch) and batch[pos][0] == text:
            return pos + sum(len(_atoms_of_length(sig, n)) for n in range(1, L))
    raise ValueError(f"not in the enumerable fragment: {text}")
