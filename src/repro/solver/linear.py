"""Linear integer terms and atom canonicalisation.

The decision procedures work over *linear* terms: integer-coefficient linear
combinations of symbols plus a constant.  This module converts formula terms
into :class:`LinearTerm` values (raising :class:`NonLinearError` when a term
is genuinely non-linear, e.g. the product of two variables) and provides the
canonical atom forms used by Cooper's quantifier elimination:

* ``0 < t``  — a strict inequality with the term on the right,
* ``d | t``  — divisibility of a linear term by a positive constant,
* negated divisibility.

Equalities and disequalities are rewritten into strict inequalities during
canonicalisation (over the integers ``a = b`` iff ``a < b + 1 && b < a + 1``).

:func:`linearize` and :func:`atom_difference` are memoised on the interned
formula nodes, so each term and each atom is translated once per process
however many cubes, queries and Cooper steps mention it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..logic.formula import (
    Add,
    Atom,
    Const,
    Div,
    Max,
    Min,
    Mod,
    Mul,
    Select,
    Store,
    Sub,
    SymTerm,
    Symbol,
    Term,
    Ite,
)


class NonLinearError(Exception):
    """Raised when a term cannot be expressed as a linear combination."""


def _symbol_order(item: Tuple[Symbol, int]):
    return item[0].sort_key()


class LinearTerm:
    """An integer linear combination ``sum(coeffs[s] * s) + constant``.

    ``coeffs`` is sorted by symbol and never contains zero entries, so
    structural equality of two :class:`LinearTerm` values coincides with
    semantic equality of the linear functions they denote.  Values are
    immutable; the symbol set is computed once, on first use.
    """

    __slots__ = ("coeffs", "constant", "_symbols")

    def __init__(self, coeffs: Tuple[Tuple[Symbol, int], ...], constant: int = 0) -> None:
        self.coeffs = coeffs
        self.constant = constant
        self._symbols: Optional[FrozenSet[Symbol]] = None

    @staticmethod
    def of(coeffs: Mapping[Symbol, int], constant: int = 0) -> "LinearTerm":
        cleaned = tuple(sorted(((s, c) for s, c in coeffs.items() if c != 0), key=_symbol_order))
        return LinearTerm(cleaned, constant)

    @staticmethod
    def constant_term(value: int) -> "LinearTerm":
        return LinearTerm((), value)

    @staticmethod
    def variable(symbol: Symbol, coefficient: int = 1) -> "LinearTerm":
        if coefficient == 0:
            return LinearTerm((), 0)
        return LinearTerm(((symbol, coefficient),), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearTerm):
            return NotImplemented
        return self.constant == other.constant and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.constant))

    def __repr__(self) -> str:
        return f"LinearTerm(coeffs={self.coeffs!r}, constant={self.constant!r})"

    # -- accessors -----------------------------------------------------------

    def coefficient(self, symbol: Symbol) -> int:
        for sym, coeff in self.coeffs:
            if sym is symbol:
                return coeff
        return 0

    def symbols(self) -> FrozenSet[Symbol]:
        symbols = self._symbols
        if symbols is None:
            symbols = self._symbols = frozenset(sym for sym, _ in self.coeffs)
        return symbols

    def is_constant(self) -> bool:
        return not self.coeffs

    # -- arithmetic ----------------------------------------------------------
    #
    # negate, scale and drop keep the symbol order and never create a zero
    # coefficient, so they build their tuples directly; only a sum of two
    # non-constant terms goes through LinearTerm.of's filter and sort.

    def add(self, other: "LinearTerm") -> "LinearTerm":
        if not other.coeffs:
            return LinearTerm(self.coeffs, self.constant + other.constant)
        if not self.coeffs:
            return LinearTerm(other.coeffs, self.constant + other.constant)
        coeffs = dict(self.coeffs)
        for sym, coeff in other.coeffs:
            coeffs[sym] = coeffs.get(sym, 0) + coeff
        return LinearTerm.of(coeffs, self.constant + other.constant)

    def negate(self) -> "LinearTerm":
        return LinearTerm(tuple([(s, -c) for s, c in self.coeffs]), -self.constant)

    def subtract(self, other: "LinearTerm") -> "LinearTerm":
        return self.add(other.negate())

    def scale(self, factor: int) -> "LinearTerm":
        if factor == 0:
            return LinearTerm((), 0)
        if factor == 1:
            return self
        return LinearTerm(
            tuple([(s, c * factor) for s, c in self.coeffs]), self.constant * factor
        )

    def drop(self, symbol: Symbol) -> "LinearTerm":
        """Remove ``symbol`` from the combination (coefficient becomes 0)."""
        kept = tuple([item for item in self.coeffs if item[0] is not symbol])
        return LinearTerm(kept, self.constant)

    def substitute(self, symbol: Symbol, replacement: "LinearTerm") -> "LinearTerm":
        """Replace ``symbol`` with another linear term."""
        coeff = self.coefficient(symbol)
        if coeff == 0:
            return self
        return self.drop(symbol).add(replacement.scale(coeff))

    def evaluate(self, assignment: Mapping[Symbol, int]) -> int:
        total = self.constant
        for sym, coeff in self.coeffs:
            if sym not in assignment:
                raise KeyError(f"no value for {sym}")
            total += coeff * assignment[sym]
        return total

    def content(self) -> int:
        """The gcd of all coefficients (not the constant); 0 for constants."""
        result = 0
        for _sym, coeff in self.coeffs:
            result = gcd(result, abs(coeff))
        return result

    def to_term(self) -> Term:
        """Convert back to a formula term (for pretty-printing results)."""
        result: Optional[Term] = None
        for sym, coeff in self.coeffs:
            part: Term
            if coeff == 1:
                part = SymTerm(sym)
            else:
                part = Mul(Const(coeff), SymTerm(sym))
            result = part if result is None else Add(result, part)
        if result is None:
            return Const(self.constant)
        if self.constant != 0:
            result = Add(result, Const(self.constant))
        return result

    def __str__(self) -> str:
        parts = []
        for sym, coeff in self.coeffs:
            if coeff == 1:
                parts.append(str(sym))
            elif coeff == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{coeff}*{sym}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


ONE = LinearTerm((), 1)


#: Memoised linear forms per interned node (equality is identity, so a plain
#: dict keyed on the node is a perfect cache, and the intern table is never
#: cleared either).  A non-linear node maps to its error message, so every
#: later call raises the same :class:`NonLinearError` again.
_LINEAR: Dict[Term, object] = {}
_DIFFERENCE: Dict[Atom, object] = {}


def linearize(term: Term) -> LinearTerm:
    """Convert a formula term into a :class:`LinearTerm`.

    Raises :class:`NonLinearError` for products of non-constant terms,
    division/modulo, min/max, if-then-else and array reads — those must be
    eliminated by :mod:`repro.solver.normalize` before linearisation.
    Results (and failures) are memoised per interned term node.
    """
    cached = _LINEAR.get(term)
    if cached is None:
        try:
            cached = _linearize(term)
        except NonLinearError as error:
            cached = str(error)
        _LINEAR[term] = cached
    if type(cached) is str:
        raise NonLinearError(cached)
    return cached  # type: ignore[return-value]


def _linearize(term: Term) -> LinearTerm:
    if isinstance(term, Const):
        return LinearTerm.constant_term(term.value)
    if isinstance(term, SymTerm):
        return LinearTerm.variable(term.symbol)
    if isinstance(term, Add):
        return linearize(term.left).add(linearize(term.right))
    if isinstance(term, Sub):
        return linearize(term.left).subtract(linearize(term.right))
    if isinstance(term, Mul):
        left = linearize(term.left)
        right = linearize(term.right)
        if left.is_constant():
            return right.scale(left.constant)
        if right.is_constant():
            return left.scale(right.constant)
        raise NonLinearError(f"non-linear product {term}")
    if isinstance(term, (Div, Mod, Min, Max, Ite, Select, Store)):
        raise NonLinearError(f"term {term} must be eliminated before linearisation")
    raise TypeError(f"unknown term {term!r}")


def atom_difference(atom: Atom) -> LinearTerm:
    """``linearize(atom.left) - linearize(atom.right)``, memoised per atom.

    Raises :class:`NonLinearError` (again on every call) when either side
    is non-linear.
    """
    cached = _DIFFERENCE.get(atom)
    if cached is None:
        try:
            cached = linearize(atom.left).subtract(linearize(atom.right))
        except NonLinearError as error:
            cached = str(error)
        _DIFFERENCE[atom] = cached
    if type(cached) is str:
        raise NonLinearError(cached)
    return cached  # type: ignore[return-value]


def is_linear(term: Term) -> bool:
    """Return True iff :func:`linearize` succeeds for ``term``."""
    try:
        linearize(term)
        return True
    except NonLinearError:
        return False
