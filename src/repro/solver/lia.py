"""Integer feasibility of conjunctions of linear literals (the cube solver).

Given a cube — a conjunction of linear-arithmetic literals — this module
decides whether it has an integer solution and, if so, produces one.  The
procedure is:

1. translate literals into linear constraints over
   :class:`~repro.solver.linear.LinearTerm`: inequalities ``t <= 0``,
   equalities ``t == 0``, disequalities ``t != 0`` and (possibly negated)
   divisibility constraints ``d | t`` (each atom is linearised once per
   process, see :func:`~repro.solver.linear.atom_difference`);
2. refute the cube outright when its inequality and equality rows are
   infeasible over their own unit-bound box (:func:`_bound_box_refutes`,
   exact integers; about two thirds of the cubes the verifier meets end
   here);
3. split disequalities into strict inequalities (case split);
4. eliminate divisibility constraints by residue enumeration: substitute
   ``x = L*x' + r`` for the lcm ``L`` of the relevant divisors and each
   residue ``r``, which makes the constraints ground one variable at a time;
5. eliminate equalities that contain a unit-coefficient variable by
   substitution (recording the eliminations for model reconstruction), and
   apply the GCD test to the rest;
6. tighten each inequality by dividing through by the gcd of its
   coefficients (integer rounding), run Fourier–Motzkin elimination (with
   the same tightening applied to derived constraints) to decide
   feasibility, and extract a sample point by back-substitution;
7. if the sample point is fractional, branch and bound on a fractional
   variable up to a configurable depth.

Steps 6–7 with integer tightening constitute a sound and, up to the
configured budgets, complete decision procedure for quantifier-free linear
integer arithmetic cubes; when a budget is exhausted the result is
``UNKNOWN`` (never a wrong answer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..logic.formula import Atom, Divides, Formula, Not, Rel, Symbol
from .linear import ONE, LinearTerm, NonLinearError, atom_difference, linearize


class Status(enum.Enum):
    """Result status of a satisfiability or validity query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    VALID = "valid"
    INVALID = "invalid"


@dataclass
class CubeResult:
    """Result of deciding a single cube."""

    status: Status
    model: Optional[Dict[Symbol, int]] = None


@dataclass(frozen=True)
class Inequality:
    """The constraint ``term <= 0``."""

    term: LinearTerm

    def tighten(self) -> "Inequality":
        """Divide by the coefficient gcd, rounding the constant soundly."""
        content = self.term.content()
        if content <= 1:
            return self
        coeffs = tuple([(s, c // content) for s, c in self.term.coeffs])
        # sum(c_i x_i) + k <= 0  <=>  sum(c_i/g x_i) <= -k/g
        # integer left side  =>  sum <= floor(-k/g)  <=>  sum + ceil(k/g) <= 0
        constant = -(-self.term.constant // content)
        return Inequality(LinearTerm(coeffs, constant))


@dataclass(frozen=True)
class Equality:
    """The constraint ``term == 0``."""

    term: LinearTerm


@dataclass(frozen=True)
class Divisibility:
    """The constraint ``divisor | term`` (or its negation when not positive)."""

    divisor: int
    term: LinearTerm
    positive: bool = True

    def holds_for_constant(self) -> bool:
        assert self.term.is_constant()
        divides = self.term.constant % self.divisor == 0
        return divides if self.positive else not divides


_MAX_DISEQUALITY_SPLITS = 10
_MAX_DIV_LCM = 64
_MAX_DIV_BRANCHES = 4096
_DEFAULT_BRANCH_DEPTH = 40


def _lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else max(abs(a), abs(b), 1)


#: The translated constraint of each interned literal, as ``(list index,
#: constraint)`` for :meth:`CubeSolver._translate`, or the message of the
#: :class:`NonLinearError` it raised.  Constraints are immutable, so cubes
#: share them.
_CONSTRAINTS: Dict[Formula, object] = {}
_INEQUALITY, _EQUALITY, _DISEQUALITY, _DIVISIBILITY = range(4)


def _constraint_of(literal: Formula) -> Tuple[int, object]:
    if isinstance(literal, Atom):
        lin = atom_difference(literal)
        rel = literal.rel
        if rel is Rel.LT:
            return _INEQUALITY, Inequality(lin.add(ONE))
        if rel is Rel.LE:
            return _INEQUALITY, Inequality(lin)
        if rel is Rel.GT:
            return _INEQUALITY, Inequality(lin.negate().add(ONE))
        if rel is Rel.GE:
            return _INEQUALITY, Inequality(lin.negate())
        if rel is Rel.EQ:
            return _EQUALITY, Equality(lin)
        if rel is Rel.NE:
            return _DISEQUALITY, lin
        raise AssertionError(f"unhandled relation {rel}")  # pragma: no cover
    if isinstance(literal, Divides):
        divides, positive = literal, True
    elif isinstance(literal, Not) and isinstance(literal.operand, Divides):
        divides, positive = literal.operand, False
    else:
        raise NonLinearError(f"unsupported literal {literal}")
    divisor = abs(divides.divisor)
    if divisor == 0:
        raise NonLinearError(
            "divisibility by zero" if positive else "negated divisibility by zero"
        )
    return _DIVISIBILITY, Divisibility(divisor, linearize(divides.term), positive)


def _substitute_all(term: LinearTerm, resolved: Dict[Symbol, LinearTerm]) -> LinearTerm:
    """``term`` with every symbol in ``resolved`` replaced by its value."""
    for symbol, _ in term.coeffs:
        if symbol in resolved:
            break
    else:
        return term
    coeffs: Dict[Symbol, int] = {}
    constant = term.constant
    for symbol, coeff in term.coeffs:
        replacement = resolved.get(symbol)
        if replacement is None:
            coeffs[symbol] = coeffs.get(symbol, 0) + coeff
            continue
        constant += coeff * replacement.constant
        for other, other_coeff in replacement.coeffs:
            coeffs[other] = coeffs.get(other, 0) + coeff * other_coeff
    return LinearTerm.of(coeffs, constant)


def _bound_box_refutes(
    inequalities: Sequence[Inequality], equalities: Sequence[Equality]
) -> bool:
    """True when the cube's ``term <= 0`` rows have no integer solution by
    bounds alone (exact integer arithmetic, no size limit).

    The rows are the inequalities plus both sides of each equality.  Three
    rules refute: a constant row with a positive constant; unit rows
    ``c*x + k <= 0`` whose floor/ceil bounds on ``x`` cross; a wide row
    whose minimum over the box of those bounds is still positive.  Each is
    a proof of integer infeasibility that holds whatever the ignored
    disequality and divisibility literals say; ``False`` means "no proof".
    """
    rows = [ineq.term for ineq in inequalities]
    for equality in equalities:
        rows.append(equality.term)
        rows.append(equality.term.negate())
    lower: Dict[Symbol, int] = {}
    upper: Dict[Symbol, int] = {}
    wide: List[LinearTerm] = []
    for row in rows:
        coeffs = row.coeffs
        if not coeffs:
            if row.constant > 0:
                return True
        elif len(coeffs) == 1:
            ((symbol, coeff),) = coeffs
            if coeff > 0:  # x <= floor(-k / c)
                bound = -row.constant // coeff
                if symbol not in upper or bound < upper[symbol]:
                    upper[symbol] = bound
            else:  # x >= ceil(k / |c|)
                bound = -(-row.constant // -coeff)
                if symbol not in lower or bound > lower[symbol]:
                    lower[symbol] = bound
        else:
            wide.append(row)
    for symbol, bound in upper.items():
        if symbol in lower and lower[symbol] > bound:
            return True
    for row in wide:
        minimum = row.constant
        for symbol, coeff in row.coeffs:
            bound = (lower if coeff > 0 else upper).get(symbol)
            if bound is None:
                break
            minimum += coeff * bound
        else:
            if minimum > 0:
                return True
    return False


class CubeSolver:
    """Decides integer feasibility of cubes of linear literals."""

    def __init__(self, branch_depth: int = _DEFAULT_BRANCH_DEPTH) -> None:
        self._branch_depth = branch_depth
        self._aux_counter = 0
        self.statistics: Dict[str, int] = {
            "cubes": 0,
            "branch_nodes": 0,
            "fm_eliminations": 0,
            "residue_branches": 0,
            "prefiltered_cubes": 0,
        }

    # -- public API -----------------------------------------------------------

    def solve(self, literals: Sequence[Formula]) -> CubeResult:
        """Decide a cube given as a sequence of literal formulas."""
        self.statistics["cubes"] += 1
        telemetry.count("lia.cube_solves")
        inequalities, equalities, disequalities, divisibilities, error = self._translate(
            literals
        )
        if _bound_box_refutes(inequalities, equalities):
            self.statistics["prefiltered_cubes"] += 1
            # The counter keeps the name of the numpy wave prefilter this
            # check replaced; trace readers and the benchmark ledger key on it.
            telemetry.count("solver.vector.prefilter.unsat_cubes")
            return CubeResult(Status.UNSAT)
        if error is not None:
            raise error
        return self._solve_split(inequalities, equalities, disequalities, divisibilities)

    # -- literal translation ----------------------------------------------------

    def _fresh_aux(self, base: str) -> Symbol:
        self._aux_counter += 1
        return Symbol(f"{base}_aux{self._aux_counter}")

    def _translate(self, literals: Sequence[Formula]) -> Tuple[
        List[Inequality],
        List[Equality],
        List[LinearTerm],
        List[Divisibility],
        Optional[NonLinearError],
    ]:
        """Sort the literals into constraint lists.

        A literal outside the linear fragment does not stop the translation:
        the first such error is returned alongside the rows of the others,
        so the bound box can still refute the cube before the error is raised.
        """
        lists: Tuple[list, list, list, list] = ([], [], [], [])
        error: Optional[NonLinearError] = None
        for literal in literals:
            cached = _CONSTRAINTS.get(literal)
            if cached is None:
                try:
                    cached = _constraint_of(literal)
                except NonLinearError as failure:
                    cached = str(failure)
                _CONSTRAINTS[literal] = cached
            if type(cached) is str:
                if error is None:
                    error = NonLinearError(cached)
                continue
            lists[cached[0]].append(cached[1])
        return lists[0], lists[1], lists[2], lists[3], error

    # -- disequality splitting ----------------------------------------------------

    def _solve_split(
        self,
        inequalities: List[Inequality],
        equalities: List[Equality],
        disequalities: List[LinearTerm],
        divisibilities: List[Divisibility],
    ) -> CubeResult:
        if len(disequalities) > _MAX_DISEQUALITY_SPLITS:
            return CubeResult(Status.UNKNOWN)
        if not disequalities:
            return self._solve_divisibility(inequalities, equalities, divisibilities, _MAX_DIV_BRANCHES)
        first, rest = disequalities[0], disequalities[1:]
        saw_unknown = False
        # term != 0  <=>  term <= -1  or  -term <= -1
        for branch_term in (
            first.add(ONE),
            first.negate().add(ONE),
        ):
            result = self._solve_split(
                inequalities + [Inequality(branch_term)], equalities, rest, divisibilities
            )
            if result.status is Status.SAT:
                return result
            if result.status is Status.UNKNOWN:
                saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    # -- divisibility elimination by residue enumeration ---------------------------

    def _solve_divisibility(
        self,
        inequalities: List[Inequality],
        equalities: List[Equality],
        divisibilities: List[Divisibility],
        branch_budget: int,
    ) -> CubeResult:
        # Evaluate constant divisibility constraints outright.
        pending: List[Divisibility] = []
        for constraint in divisibilities:
            if constraint.term.is_constant():
                if not constraint.holds_for_constant():
                    return CubeResult(Status.UNSAT)
            else:
                pending.append(constraint)
        if not pending:
            return self._solve_core(inequalities, equalities)

        # Pick a variable occurring in a divisibility constraint and enumerate
        # its residues modulo the lcm of the divisors that mention it.
        symbol = sorted(pending[0].term.symbols())[0]
        modulus = 1
        for constraint in pending:
            if constraint.term.coefficient(symbol) != 0:
                modulus = _lcm(modulus, constraint.divisor)
        if modulus > _MAX_DIV_LCM or branch_budget <= 0:
            return CubeResult(Status.UNKNOWN)

        replacement_symbol = self._fresh_aux(symbol.name)
        saw_unknown = False
        for residue in range(modulus):
            self.statistics["residue_branches"] += 1
            replacement = LinearTerm.of({replacement_symbol: modulus}, residue)
            new_inequalities = [
                Inequality(ineq.term.substitute(symbol, replacement)) for ineq in inequalities
            ]
            new_equalities = [
                Equality(eq.term.substitute(symbol, replacement)) for eq in equalities
            ]
            new_divisibilities: List[Divisibility] = []
            infeasible = False
            for constraint in pending:
                term = constraint.term.substitute(symbol, replacement)
                coefficient = term.coefficient(replacement_symbol)
                if coefficient % constraint.divisor == 0:
                    # The substituted variable contributes a multiple of the
                    # divisor; drop it from the divisibility constraint.
                    term = term.drop(replacement_symbol)
                if term.is_constant():
                    check = Divisibility(constraint.divisor, term, constraint.positive)
                    if not check.holds_for_constant():
                        infeasible = True
                        break
                else:
                    new_divisibilities.append(
                        Divisibility(constraint.divisor, term, constraint.positive)
                    )
            if infeasible:
                continue
            result = self._solve_divisibility(
                new_inequalities,
                new_equalities,
                new_divisibilities,
                branch_budget // modulus,
            )
            if result.status is Status.SAT:
                model = dict(result.model or {})
                base = model.get(replacement_symbol, 0)
                model[symbol] = modulus * base + residue
                return CubeResult(Status.SAT, model)
            if result.status is Status.UNKNOWN:
                saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    # -- equality elimination -------------------------------------------------------

    def _solve_core(
        self, inequalities: List[Inequality], equalities: List[Equality]
    ) -> CubeResult:
        eliminations: List[Tuple[Symbol, LinearTerm]] = []
        inequalities = list(inequalities)
        equalities = list(equalities)

        while equalities:
            equality = equalities.pop()
            term = equality.term
            if term.is_constant():
                if term.constant != 0:
                    return CubeResult(Status.UNSAT)
                continue
            unit_symbol = None
            unit_coeff = 0
            for symbol, coeff in term.coeffs:
                if abs(coeff) == 1:
                    unit_symbol, unit_coeff = symbol, coeff
                    break
            if unit_symbol is None:
                content = term.content()
                if term.constant % content != 0:
                    return CubeResult(Status.UNSAT)
                # No unit coefficient: express as a pair of inequalities and let
                # the tightened Fourier-Motzkin / branch and bound enforce it.
                inequalities.append(Inequality(term))
                inequalities.append(Inequality(term.negate()))
                continue
            # unit_coeff * x + rest = 0  =>  x = -rest / unit_coeff
            rest = term.drop(unit_symbol)
            replacement = rest.negate() if unit_coeff == 1 else rest
            eliminations.append((unit_symbol, replacement))
            equalities = [
                Equality(eq.term.substitute(unit_symbol, replacement))
                if unit_symbol in eq.term.symbols()
                else eq
                for eq in equalities
            ]

        if eliminations:
            # Substituting every elimination into every inequality in turn
            # equals one substitution of each eliminated symbol's fully
            # resolved replacement (canonical LinearTerms compare equal).
            resolved: Dict[Symbol, LinearTerm] = {}
            for symbol, replacement in reversed(eliminations):
                resolved[symbol] = _substitute_all(replacement, resolved)
            inequalities = [
                Inequality(_substitute_all(ineq.term, resolved)) for ineq in inequalities
            ]
        result = self._solve_inequalities([ineq.tighten() for ineq in inequalities], 0)
        if result.status is not Status.SAT or result.model is None:
            return result
        model = dict(result.model)
        for symbol, replacement in reversed(eliminations):
            missing = [s for s in replacement.symbols() if s not in model]
            for s in missing:
                model[s] = 0
            model[symbol] = replacement.evaluate(model)
        return CubeResult(Status.SAT, model)

    # -- inequalities: Fourier-Motzkin + branch and bound -----------------------------

    def _solve_inequalities(
        self, inequalities: List[Inequality], depth: int
    ) -> CubeResult:
        self.statistics["branch_nodes"] += 1
        point = self._rational_sample(inequalities)
        if point is None:
            return CubeResult(Status.UNSAT)
        fractional = [(s, v) for s, v in point.items() if v.denominator != 1]
        if not fractional:
            model = {s: int(v) for s, v in point.items()}
            return CubeResult(Status.SAT, model)
        if depth >= self._branch_depth:
            return CubeResult(Status.UNKNOWN)
        symbol, value = fractional[0]
        lower = int(floor(value))
        upper = int(ceil(value))
        saw_unknown = False
        # Branch x <= floor(v)
        left = inequalities + [Inequality(LinearTerm.of({symbol: 1}, -lower))]
        result = self._solve_inequalities(left, depth + 1)
        if result.status is Status.SAT:
            return result
        if result.status is Status.UNKNOWN:
            saw_unknown = True
        # Branch x >= ceil(v)
        right = inequalities + [Inequality(LinearTerm.of({symbol: -1}, upper))]
        result = self._solve_inequalities(right, depth + 1)
        if result.status is Status.SAT:
            return result
        if result.status is Status.UNKNOWN:
            saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    def _rational_sample(
        self, inequalities: List[Inequality]
    ) -> Optional[Dict[Symbol, Fraction]]:
        """Rational feasibility via Fourier-Motzkin; returns a sample point.

        Derived constraints are tightened (integer rounding), so the sample
        point search space preserves integer solutions exactly while pruning
        rationally-feasible but integer-infeasible slabs.
        """
        constraints: List[LinearTerm] = [ineq.term for ineq in inequalities]
        for term in constraints:
            if term.is_constant() and term.constant > 0:
                return None

        order: List[Symbol] = sorted(
            {s for term in constraints for s in term.symbols()}
        )
        levels: List[Tuple[Symbol, List[LinearTerm]]] = []
        current = constraints
        for symbol in order:
            self.statistics["fm_eliminations"] += 1
            levels.append((symbol, current))
            lowers: List[Tuple[LinearTerm, int]] = []
            uppers: List[Tuple[LinearTerm, int]] = []
            others: List[LinearTerm] = []
            for term in current:
                coeff = term.coefficient(symbol)
                if coeff == 0:
                    others.append(term)
                elif coeff > 0:
                    uppers.append((term, coeff))
                else:
                    lowers.append((term, coeff))
            new_constraints = list(others)
            for upper_term, upper_coeff in uppers:
                for lower_term, lower_coeff in lowers:
                    # upper: a*x + t1 <= 0 (a > 0), lower: b*x + t2 <= 0 (b < 0)
                    # imply a*t2 + (-b)*t1 <= 0.
                    combined = lower_term.drop(symbol).scale(upper_coeff).add(
                        upper_term.drop(symbol).scale(-lower_coeff)
                    )
                    # Integer tightening preserves all integer solutions and lets
                    # the elimination detect "thin" rationally-feasible but
                    # integer-infeasible systems such as 2a <= 2b - 1 <= 2a.
                    combined = Inequality(combined).tighten().term
                    if combined.is_constant():
                        if combined.constant > 0:
                            return None
                    else:
                        new_constraints.append(combined)
            current = new_constraints
        for term in current:
            if term.is_constant() and term.constant > 0:
                return None
        # Back-substitute to build a sample point (prefer integral values).
        assignment: Dict[Symbol, Fraction] = {}
        for symbol, constraints_at_level in reversed(levels):
            lower_bound: Optional[Fraction] = None
            upper_bound: Optional[Fraction] = None
            for term in constraints_at_level:
                coeff = term.coefficient(symbol)
                if coeff == 0:
                    continue
                rest_value = Fraction(term.constant)
                for other_symbol, other_coeff in term.coeffs:
                    if other_symbol == symbol:
                        continue
                    rest_value += other_coeff * assignment.get(other_symbol, Fraction(0))
                bound = Fraction(-rest_value, coeff)
                if coeff > 0:
                    if upper_bound is None or bound < upper_bound:
                        upper_bound = bound
                else:
                    if lower_bound is None or bound > lower_bound:
                        lower_bound = bound
            assignment[symbol] = self._pick_value(lower_bound, upper_bound)
        return assignment

    @staticmethod
    def _pick_value(lower: Optional[Fraction], upper: Optional[Fraction]) -> Fraction:
        """Pick a value in [lower, upper], preferring small integers."""
        if lower is None and upper is None:
            return Fraction(0)
        if lower is None:
            assert upper is not None
            if upper >= 0:
                return Fraction(0)
            candidate = Fraction(floor(upper))
            return candidate if candidate <= upper else upper
        if upper is None:
            if lower <= 0:
                return Fraction(0)
            candidate = Fraction(ceil(lower))
            return candidate if candidate >= lower else lower
        if lower > upper:
            # Should not happen for feasible systems; return midpoint defensively.
            return (lower + upper) / 2
        if lower <= 0 <= upper:
            return Fraction(0)
        integer_candidate = Fraction(ceil(lower))
        if lower <= integer_candidate <= upper:
            return integer_candidate
        return lower
