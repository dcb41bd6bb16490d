"""The integer-pair kernels of `scalars` and `series` against
`fractions.Fraction`.

Only seeded `random` draws the operands, and the module imports nothing
beyond the standard library, `hahnsat.scalars` and `hahnsat.series`, so it
also runs as a script on interpreters without pytest or sympy:

    PYTHONPATH=src python tests/test_rational_kernels.py
"""

import operator
import random
from fractions import Fraction

from hahnsat.scalars import (
    _q_add,
    _q_inv,
    _q_mul,
    _q_neg,
    compare,
    scalar_add,
    scalar_inv,
    scalar_is_one,
    scalar_mul,
    scalar_neg,
)
from hahnsat.series import _first_difference, monomial

BIG = 2**64


def _same(got, want):
    """got is the Fraction want, down to its normalized pair and hash."""
    assert type(got) is Fraction, (got, want)
    assert got.as_integer_ratio() == want.as_integer_ratio(), (got, want)
    assert hash(got) == hash(want), (got, want)
    assert repr(got) == repr(want), (got, want)


def _pairs(rng):
    """Operand pairs of every kind the kernels must normalize: small,
    equal denominators, denominators that share factors, integers, above
    2**64, and zeros."""
    for _ in range(400):
        yield (Fraction(rng.randint(-30, 30), rng.randint(1, 30)),
               Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
        d = rng.randint(1, 60)
        yield Fraction(rng.randint(-99, 99), d), Fraction(rng.randint(-99, 99), d)
        f = rng.choice([2, 3, 6, 10, 12])
        yield (Fraction(rng.randint(-99, 99), f * rng.randint(1, 9)),
               Fraction(rng.randint(-99, 99), f * rng.randint(1, 9)))
        yield Fraction(rng.randint(-99, 99)), Fraction(rng.randint(-99, 99))
        yield (Fraction(rng.randint(-BIG**2, BIG**2), rng.randint(1, BIG**2)),
               Fraction(rng.randint(-BIG, BIG), rng.randint(BIG, BIG**2)))
        q = Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
        yield q, -q
        yield Fraction(0), q


def test_fraction_slot_layout():
    # the trusted constructor fills exactly these two slots
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def test_kernels_match_fraction():
    rng = random.Random(25)
    binary = [(_q_mul, operator.mul), (_q_add, operator.add),
              (scalar_mul, operator.mul), (scalar_add, operator.add)]
    for a, b in _pairs(rng):
        for kernel, op in binary:
            _same(kernel(a, b), op(a, b))
            _same(kernel(b, a), op(b, a))
        for q in (a, b):
            _same(_q_neg(q), -q)
            _same(scalar_neg(q), -q)
            if q:
                _same(_q_inv(q), 1 / q)
                _same(scalar_inv(q), 1 / q)


def test_cancellation_gives_zero_over_one():
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
        assert _q_add(a, _q_neg(a)).as_integer_ratio() == (0, 1)
        assert _q_mul(a, Fraction(0)).as_integer_ratio() == (0, 1)
    for inv in (_q_inv, scalar_inv):
        try:
            inv(Fraction(0))
        except ZeroDivisionError:
            pass
        else:
            raise AssertionError(f"{inv.__name__}(0) returned")


class SubFraction(Fraction):
    """A Fraction subclass: the scalar functions keep Fraction's path."""


def test_subclass_operand_keeps_fraction_arithmetic():
    rng = random.Random(3)
    for a, b in _pairs(rng):
        sub = SubFraction(a.numerator, a.denominator)
        _same(scalar_mul(sub, b), a * b)
        _same(scalar_add(b, sub), b + a)
        _same(scalar_neg(sub), -a)
        if a:
            _same(scalar_inv(sub), 1 / a)


def _order_pairs(rng):
    """The kernels' operand pairs, each operand also against an equal value
    held by a distinct object and against its Fraction subclass copy, both
    ways round."""
    for a, b in _pairs(rng):
        twin = Fraction(a.numerator, a.denominator)
        assert twin is not a
        for x, y in ((a, b), (a, twin), (a, SubFraction(a)),
                     (SubFraction(b), a)):
            yield x, y
            yield y, x


def test_order_kernels_match_fraction():
    rng = random.Random(27)
    one = (Fraction(1),)
    for x, y in _order_pairs(rng):
        assert compare(x, y) == (x > y) - (x < y), (x, y)
        first = _first_difference(monomial(one, x, 1), monomial(one, y, 1))
        assert (first is None) == (x == y), (x, y)
        if first is not None:
            assert first[1:] == (x, y), (x, y)


def test_unit_test_matches_fraction():
    rng = random.Random(31)
    ones = (Fraction(1), Fraction(BIG, BIG), SubFraction(1), 1)
    for x in ones + tuple(x for pair in _pairs(rng) for x in pair):
        assert scalar_is_one(x) == (x == 1), x
    assert not scalar_is_one(SubFraction(2))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
