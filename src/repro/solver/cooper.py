"""Cooper's quantifier elimination for Presburger arithmetic.

This is the complete backend of the solver: given a formula of linear
integer arithmetic with arbitrary quantifiers, :func:`eliminate_quantifiers`
produces an equivalent quantifier-free formula, and :func:`decide_closed`
decides a sentence (a formula with no free symbols).

The implementation follows the textbook presentation (e.g. Harrison,
"Handbook of Practical Logic and Automated Reasoning", §5.7):

* normalise the matrix so every atom containing the quantified variable has
  the variable with coefficient ``+1`` or ``-1`` (introducing a divisibility
  constraint for the coefficient lcm),
* build the "minus-infinity" variant of the matrix and the set of lower
  bounds ``B``,
* replace ``exists x . phi(x)`` by the finite disjunction over the test
  points ``j`` and ``b + j`` for ``j in 1..D`` and ``b in B`` where ``D`` is
  the lcm of the divisibility divisors.

Cooper's algorithm is exponential; the primary solver pipeline avoids it
whenever possible (skolemisation + cube solving) and uses this module for
universally quantified subformulas and as a cross-checking oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.formula import (
    And,
    Atom,
    Const,
    Divides,
    Exists,
    FALSE,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    Symbol,
    TRUE,
    TrueF,
    conj,
    disj,
    neg,
)
from .linear import LinearTerm, NonLinearError, atom_difference, linearize
from .normalize import to_nnf


class QuantifierEliminationError(Exception):
    """Raised when a formula cannot be handled by Cooper's algorithm
    (non-linear atoms or unexpected structure)."""


def _lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else max(abs(a), abs(b), 1)


# ---------------------------------------------------------------------------
# Internal representation: formulas whose atoms are canonical linear atoms.
#
# During elimination of a variable x we represent atoms as one of
#   ("lt", t)      meaning 0 < t          (t is a LinearTerm, may contain x)
#   ("div", d, t)  meaning d | t
#   ("ndiv", d, t) meaning not (d | t)
# Other formulas (not containing x) are kept opaque.
# ---------------------------------------------------------------------------


def _canonicalize_atom(formula: Formula, symbol: Symbol) -> Formula:
    """Rewrite an atom so that, if it mentions ``symbol``, it is a strict
    ``0 < t`` inequality or a (possibly negated) divisibility atom."""
    if isinstance(formula, Atom):
        lin = atom_difference(formula)
        if lin.coefficient(symbol) == 0:
            return formula
        rel = formula.rel
        if rel is Rel.LT:  # lin < 0  <=>  0 < -lin
            return _lt_atom(lin.negate())
        if rel is Rel.LE:  # lin <= 0  <=>  0 < 1 - lin
            return _lt_atom(lin.negate().add(LinearTerm.constant_term(1)))
        if rel is Rel.GT:  # lin > 0  <=>  0 < lin
            return _lt_atom(lin)
        if rel is Rel.GE:  # lin >= 0  <=>  0 < lin + 1
            return _lt_atom(lin.add(LinearTerm.constant_term(1)))
        if rel is Rel.EQ:  # lin == 0  <=>  0 < lin + 1  and  0 < 1 - lin
            return conj(
                _lt_atom(lin.add(LinearTerm.constant_term(1))),
                _lt_atom(lin.negate().add(LinearTerm.constant_term(1))),
            )
        if rel is Rel.NE:  # lin != 0  <=>  0 < lin  or  0 < -lin
            return disj(_lt_atom(lin), _lt_atom(lin.negate()))
        raise AssertionError(f"unhandled relation {rel}")
    return formula


def _lt_atom(term: LinearTerm) -> Formula:
    """Build the canonical atom ``0 < term``."""
    return Atom(Rel.LT, Const(0), term.to_term())


def _walk_canonical(formula: Formula, symbol: Symbol, handler) -> Formula:
    """Map ``handler`` over the atoms of an NNF formula (leaves only)."""
    if isinstance(formula, (TrueF, FalseF)):
        return formula
    if isinstance(formula, Atom):
        return handler(formula)
    if isinstance(formula, Divides):
        return handler(formula)
    if isinstance(formula, Not) and isinstance(formula.operand, Divides):
        return handler(formula)
    if isinstance(formula, And):
        return conj(*[_walk_canonical(op, symbol, handler) for op in formula.operands])
    if isinstance(formula, Or):
        return disj(*[_walk_canonical(op, symbol, handler) for op in formula.operands])
    raise QuantifierEliminationError(f"unexpected formula in NNF matrix: {formula}")


def _coefficient_lcm(formula: Formula, symbol: Symbol) -> int:
    """LCM of the absolute coefficients of ``symbol`` in the matrix atoms."""
    result = 1

    def visit(f: Formula) -> None:
        nonlocal result
        if isinstance(f, Atom):
            lin = atom_difference(f)
            coeff = lin.coefficient(symbol)
            if coeff != 0:
                result = _lcm(result, abs(coeff))
        elif isinstance(f, Divides):
            lin = linearize(f.term)
            coeff = lin.coefficient(symbol)
            if coeff != 0:
                result = _lcm(result, abs(coeff))
        elif isinstance(f, Not) and isinstance(f.operand, Divides):
            visit(f.operand)
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                visit(op)

    visit(formula)
    return result


def _scale_to_unit(formula: Formula, symbol: Symbol, delta: int) -> Formula:
    """Multiply atoms so the coefficient of ``symbol`` becomes ``+/-delta``,
    then substitute ``y = delta * symbol`` so the coefficient is ``+/-1``."""

    def handler(atom: Formula) -> Formula:
        if isinstance(atom, Atom):
            lin = _atom_linear_any(atom)
            coeff = lin.coefficient(symbol)
            if coeff == 0:
                return atom
            factor = delta // abs(coeff)
            scaled = lin.scale(factor)
            # After scaling, the coefficient of symbol is +/-delta; reinterpret
            # delta*symbol as the new unit variable (coefficient +/-1).
            new_coeffs = dict(scaled.coeffs)
            new_coeffs[symbol] = 1 if coeff > 0 else -1
            return _lt_atom(LinearTerm.of(new_coeffs, scaled.constant))
        if isinstance(atom, Divides):
            lin = linearize(atom.term)
            coeff = lin.coefficient(symbol)
            if coeff == 0:
                return atom
            factor = delta // abs(coeff)
            scaled = lin.scale(factor)
            new_coeffs = dict(scaled.coeffs)
            new_coeffs[symbol] = 1 if coeff > 0 else -1
            return Divides(atom.divisor * factor, LinearTerm.of(new_coeffs, scaled.constant).to_term())
        if isinstance(atom, Not) and isinstance(atom.operand, Divides):
            inner = handler(atom.operand)
            return Not(inner)
        raise AssertionError(f"unexpected atom {atom!r}")

    return _walk_canonical(formula, symbol, handler)


def _atom_linear_any(atom: Atom) -> LinearTerm:
    """Linear form of an arbitrary canonical ``0 < t`` atom."""
    return atom_difference(atom).negate()


def _minus_infinity(formula: Formula, symbol: Symbol) -> Formula:
    """The formula with lower-bound atoms replaced by false and upper bounds by true."""

    def handler(atom: Formula) -> Formula:
        if isinstance(atom, Atom):
            lin = _atom_linear_any(atom)
            coeff = lin.coefficient(symbol)
            if coeff == 0:
                return atom
            # 0 < symbol + t  (coeff +1): as symbol -> -infinity this is false.
            # 0 < -symbol + t (coeff -1): as symbol -> -infinity this is true.
            return FALSE if coeff > 0 else TRUE
        return atom

    return _walk_canonical(formula, symbol, handler)


def _lower_bounds(formula: Formula, symbol: Symbol) -> List[LinearTerm]:
    """Collect the lower-bound terms b such that an atom ``b < symbol`` occurs.

    For a canonical atom ``0 < symbol + t`` the bound is ``b = -t``.
    """
    bounds: List[LinearTerm] = []

    def visit(f: Formula) -> None:
        if isinstance(f, Atom):
            lin = _atom_linear_any(f)
            coeff = lin.coefficient(symbol)
            if coeff > 0:
                bounds.append(lin.drop(symbol).negate())
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                visit(op)

    visit(formula)
    unique: List[LinearTerm] = []
    for bound in bounds:
        if bound not in unique:
            unique.append(bound)
    return unique


def _divisor_lcm(formula: Formula, symbol: Symbol) -> int:
    result = 1

    def visit(f: Formula) -> None:
        nonlocal result
        if isinstance(f, Divides):
            lin = linearize(f.term)
            if lin.coefficient(symbol) != 0:
                result = _lcm(result, abs(f.divisor))
        elif isinstance(f, Not) and isinstance(f.operand, Divides):
            visit(f.operand)
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                visit(op)

    visit(formula)
    return result


def _substitute_linear(formula: Formula, symbol: Symbol, value: LinearTerm) -> Formula:
    """Substitute a linear term for ``symbol`` in every canonical atom."""

    def handler(atom: Formula) -> Formula:
        if isinstance(atom, Atom):
            lin = _atom_linear_any(atom)
            if lin.coefficient(symbol) == 0:
                return atom
            substituted = lin.substitute(symbol, value)
            if substituted.is_constant():
                return TRUE if substituted.constant > 0 else FALSE
            return _lt_atom(substituted)
        if isinstance(atom, Divides):
            lin = linearize(atom.term)
            if lin.coefficient(symbol) == 0:
                return atom
            substituted = lin.substitute(symbol, value)
            if substituted.is_constant():
                return TRUE if substituted.constant % atom.divisor == 0 else FALSE
            return Divides(atom.divisor, substituted.to_term())
        if isinstance(atom, Not) and isinstance(atom.operand, Divides):
            inner = handler(atom.operand)
            return neg(inner)
        raise AssertionError(f"unexpected atom {atom!r}")

    return _walk_canonical(formula, symbol, handler)


def eliminate_exists(symbol: Symbol, matrix: Formula) -> Formula:
    """Eliminate ``exists symbol`` from an NNF, quantifier-free matrix."""
    # 1. Canonicalise atoms mentioning the symbol.
    canonical = _walk_canonical(
        to_nnf(matrix), symbol, lambda atom: _canonicalize_atom(atom, symbol)
    )
    canonical = to_nnf(canonical)
    # 2. Make the coefficient of the symbol +/-1.
    delta = _coefficient_lcm(canonical, symbol)
    scaled = _scale_to_unit(canonical, symbol, delta)
    if delta > 1:
        scaled = conj(scaled, Divides(delta, LinearTerm.variable(symbol).to_term()))
    # 3. Build the minus-infinity formula, lower bounds and divisor lcm.
    minus_inf = _minus_infinity(scaled, symbol)
    bounds = _lower_bounds(scaled, symbol)
    big_d = _divisor_lcm(scaled, symbol)
    # 4. Finite disjunction over test points.
    disjuncts: List[Formula] = []
    for j in range(1, big_d + 1):
        disjuncts.append(_substitute_linear(minus_inf, symbol, LinearTerm.constant_term(j)))
    for bound in bounds:
        for j in range(1, big_d + 1):
            point = bound.add(LinearTerm.constant_term(j))
            disjuncts.append(_substitute_linear(scaled, symbol, point))
    return disj(*disjuncts)


def eliminate_quantifiers(formula: Formula) -> Formula:
    """Eliminate all quantifiers from a linear-arithmetic formula."""
    if isinstance(formula, (TrueF, FalseF, Atom, Divides)):
        return formula
    if isinstance(formula, Not):
        return neg(eliminate_quantifiers(formula.operand))
    if isinstance(formula, And):
        return conj(*[eliminate_quantifiers(op) for op in formula.operands])
    if isinstance(formula, Or):
        return disj(*[eliminate_quantifiers(op) for op in formula.operands])
    if isinstance(formula, Exists):
        body = eliminate_quantifiers(formula.body)
        try:
            return eliminate_exists(formula.symbol, body)
        except NonLinearError as error:
            raise QuantifierEliminationError(str(error)) from error
    if isinstance(formula, Forall):
        body = eliminate_quantifiers(formula.body)
        try:
            return neg(eliminate_exists(formula.symbol, to_nnf(neg(body))))
        except NonLinearError as error:
            raise QuantifierEliminationError(str(error)) from error
    # Implies / Iff: convert via NNF first.
    return eliminate_quantifiers(to_nnf(formula))


def decide_closed(formula: Formula) -> bool:
    """Decide a Presburger sentence (all symbols quantified)."""
    from ..logic.evaluate import Valuation, evaluate
    from ..logic.formula import free_symbols

    eliminated = eliminate_quantifiers(formula)
    remaining = free_symbols(eliminated)
    if remaining:
        raise QuantifierEliminationError(
            f"formula is not closed; free symbols remain: {sorted(map(str, remaining))}"
        )
    return evaluate(eliminated, Valuation())
