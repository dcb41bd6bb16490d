"""Shared exception types.

Every failure mode that callers are expected to catch lives here; modules
raise these rather than bare ValueError/RuntimeError so that budget-driven
failures stay distinguishable from programming errors.
"""

from __future__ import annotations


class MalformedAlgebraic(ValueError):
    """Defining data for a real algebraic number does not isolate one root."""


class OracleFailure(RuntimeError):
    """A computable-real oracle broke its interval laws, or an engine oracle
    answered inconsistently with an earlier answer."""


class ComparisonUndecidedAtPrecision(RuntimeError):
    """Both operands involve oracle reals, the refined intervals still overlap
    at the precision budget, and no symbolic equality certificate applies."""

    def __init__(self, message: str, budget: int | None = None):
        super().__init__(message)
        self.budget = budget


class NegativeValuation(ValueError):
    """Residue requested for a series with valuation below zero."""


class ClassMismatch(ValueError):
    """Archimedean ratio requested for elements of different classes."""


class ParseError(SyntaxError):
    """Malformed literal or formula text; `message` is the text without
    its position and `column` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class Unsatisfiable(ValueError):
    """A constraint set admits no solution in the model."""


class NonlinearUnsupported(ValueError):
    """An atom is not linear in the variable `var` it is solved for: raised
    by _solve_for, and so by quantifier elimination, cut_bounds,
    satisfiable, conjoin and type completion."""

    def __init__(self, message: str, var: str = ""):
        super().__init__(message)
        self.var = var


class BoundaryUndecided(RuntimeError):
    """A real sits on (or oracle-indistinguishably near) a dyadic boundary."""


class NodeNotInTree(ValueError):
    """Path extraction stepped onto a node the tree rejects."""


class NotAChain(ValueError):
    """Node list is not a chain under the prefix order."""


class NotFinitelySatisfiable(ValueError):
    """A type prefix is contradictory; `witness` names the offending formulas."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class BudgetExhausted(RuntimeError):
    """A search hit its budget before reaching a classification; `stage` says
    which search."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class PseudoLimitUnverified(RuntimeError):
    """A constructed pseudo limit failed verification; `query` is the failing
    element."""

    def __init__(self, message: str, query=None):
        super().__init__(message)
        self.query = query
