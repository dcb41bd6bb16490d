"""Valuation-theoretic linear algebra on finite-rank divisible subgroups.

Provides valuation independence testing, valuation-basis extraction by
leading-coefficient elimination, the term-sign decision through archimedean
component reals, and pseudo-Cauchy sequence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from .errors import OracleFailure
from .scalars import (
    rational_relations,
    scalar_add,
    scalar_mul,
    scalar_sign,
)
from .series import (
    INFINITY,
    Series,
    arch_ratio,
    compare_series,
    diff_valuation,
    linear_combination,
    negate,
    restrict_exponents,
    valuation,
)

_ONE = Fraction(1)


@dataclass(frozen=True)
class SpanBasis:
    """A valuation-independent generating set in ascending element order.

    `component_reals[i]` is arch_ratio(generators[i], class rep of its
    valuation class); `class_reps` holds one representative per archimedean
    class, ascending; `change_of_basis[i]` expresses input i over the
    generators.
    """

    generators: tuple
    component_reals: tuple
    class_reps: tuple
    change_of_basis: tuple

    def __len__(self):
        return len(self.generators)


def _leading_coeffs(gs: Sequence[Series]):
    return [g.terms[valuation(g)] for g in gs]


def _classes_by_valuation(gs: Sequence[Series]) -> dict:
    out: dict = {}
    for i, g in enumerate(gs):
        out.setdefault(valuation(g), []).append(i)
    return out


def _dependent_class(gs: Sequence[Series]):
    """(indices, relation) for the lowest valuation class of `gs` whose
    leading coefficients satisfy a rational relation; None if none does."""
    for _, idxs in sorted(_classes_by_valuation(gs).items()):
        rels = rational_relations(_leading_coeffs([gs[i] for i in idxs]))
        if rels:
            return idxs, rels[0]
    return None


def is_valuation_independent(gs: Sequence[Series]) -> bool:
    """True iff v(sum q_i g_i) = min{v(g_i) : q_i != 0} for all rational q̄,
    decided per valuation class through leading-coefficient independence."""
    for g in gs:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
    return _dependent_class(gs) is None


def _rational_coordinates(c, members: Sequence[Series]):
    """Rationals q with sum q_j * lead(members[j]) = c, or None when c is
    outside the Q-span of the members' (independent) leading coefficients."""
    rels = rational_relations([c] + _leading_coeffs(members))
    for vec in rels:
        if vec[0]:
            return [-q / vec[0] for q in vec[1:]]
    return None


def valuation_basis(gs: Sequence[Series]) -> SpanBasis:
    """Extract a valuation basis of the Q-span of `gs` by elimination.

    Within each common-valuation class, leading-coefficient relations are
    eliminated (the combination's valuation strictly increases, inside the
    finite union of input supports, so this terminates); the result is
    back-reduced to canonical form, leading-normalized, and sorted ascending
    as group elements.  Back-reduction is one ascending pass over the
    classes per element: reducing at level e subtracts elements of valuation
    e, which changes only terms above e, so each later level is seen in its
    final form.
    """
    for g in gs:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
    if not gs:
        return SpanBasis((), (), (), ())
    dim = gs[0].dim
    work = list(gs)
    while (found := _dependent_class(work)) is not None:
        idxs, vec = found
        pivot = idxs[max(j for j, q in enumerate(vec) if q)]
        work[pivot] = linear_combination(zip(vec, [work[i] for i in idxs]),
                                         dim)
        work = [g for g in work if not g.is_zero()]
    # back-reduction keeps every valuation, so the classes stay put
    work.sort(key=valuation)
    classes = sorted(_classes_by_valuation(work).items())
    for i, g in enumerate(work):
        for e, idxs in classes:
            if e > valuation(g) and e in g.terms:
                members = [work[j] for j in idxs]
                coords = _rational_coordinates(g.terms[e], members)
                if coords is not None:
                    g = linear_combination(
                        [(_ONE, g)] + [(-q, m) for q, m in zip(coords, members)],
                        dim)
        work[i] = g
    for i, g in enumerate(work):
        if scalar_sign(g.terms[valuation(g)]) < 0:
            work[i] = negate(g)
    # ascending as (now positive) group elements
    basis = sorted(work, key=cmp_to_key(compare_series))
    rep_by_val: dict = {}
    for g in basis:
        rep_by_val.setdefault(valuation(g), g)
    component_reals = tuple(arch_ratio(g, rep_by_val[valuation(g)])
                            for g in basis)
    change = tuple(tuple(represent(g, basis)) for g in gs)
    return SpanBasis(tuple(basis), component_reals,
                     tuple(rep_by_val.values()), change)


def represent(x: Series, basis: Sequence[Series]) -> list[Fraction]:
    """Coordinates of x over a valuation-independent basis (exact)."""
    coords = [Fraction(0)] * len(basis)
    residual = x
    classes = _classes_by_valuation(basis)
    while not residual.is_zero():
        v = valuation(residual)
        idxs = classes.get(v)
        if idxs is None:
            raise OracleFailure("element lies outside the basis span")
        sol = _rational_coordinates(residual.terms[v],
                                    [basis[j] for j in idxs])
        if sol is None:
            raise OracleFailure("element lies outside the basis span")
        for q, j in zip(sol, idxs):
            coords[j] += q
        residual = linear_combination(
            [(_ONE, residual)] + [(-q, basis[j]) for q, j in zip(sol, idxs)],
            residual.dim)
    return coords


def term_sign(s: Sequence[Fraction], basis: SpanBasis) -> int:
    """Sign of sum s_i * g_i decided from component reals alone: restrict to
    the minimal-valuation class among the nonzero coefficients and take the
    sign of sum s_i * r_i there."""
    if len(s) != len(basis.generators):
        raise ValueError("coefficient vector length does not match basis size")
    nonzero = [i for i, q in enumerate(s) if q]
    if not nonzero:
        return 0
    vmin = min(valuation(basis.generators[i]) for i in nonzero)
    acc = Fraction(0)
    for i in nonzero:
        if valuation(basis.generators[i]) == vmin:
            acc = scalar_add(acc, scalar_mul(basis.component_reals[i], Fraction(s[i])))
    return scalar_sign(acc)


# ---------------------------------------------------------------------------
# pseudo-Cauchy sequences


@dataclass(frozen=True)
class PseudoSequence:
    """A sequence handle: an explicit finite prefix."""

    items: tuple

    @classmethod
    def explicit(cls, items: Sequence[Series]) -> "PseudoSequence":
        return cls(tuple(items))

    def materialize(self, k: int) -> list[Series]:
        if k > len(self.items):
            raise ValueError(
                f"explicit sequence has {len(self.items)} elements, need {k}"
            )
        return list(self.items[:k])


def check_pseudo_cauchy(seq: PseudoSequence, k: int) -> bool:
    """True iff successive-difference valuations strictly increase on the
    length-k prefix (k >= 3)."""
    if k < 3:
        raise ValueError("pseudo-Cauchy check needs k >= 3")
    elems = seq.materialize(k)
    prev = None
    for i in range(k - 1):
        v = diff_valuation(elems[i + 1], elems[i])
        if v is INFINITY:
            return False
        if prev is not None and not prev < v:
            return False
        prev = v
    return True


def pseudo_limit(seq: PseudoSequence, k: int) -> Series:
    """An exact pseudo limit of the length-k prefix: the last element
    restricted to exponents at most v(a_{k-1} - a_{k-2}).

    Then v(x - a_i) = v(a_{i+1} - a_i) for every i < k-1: for i < k-2 the
    discarded tail sits strictly above v(a_{k-1} - a_{i+1}) > v(a_{i+1} -
    a_i), and at i = k-2 the restriction leaves exactly the leading term of
    the last difference.
    """
    if not check_pseudo_cauchy(seq, k):
        raise ValueError("prefix is not pseudo-Cauchy")
    elems = seq.materialize(k)
    gamma = diff_valuation(elems[k - 1], elems[k - 2])
    return restrict_exponents(elems[k - 1], gamma)
