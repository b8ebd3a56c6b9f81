"""Tests for the cube solver (Fourier–Motzkin + branch-and-bound core)."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import Atom, Const, Divides, Not, Rel, sym, var
from repro.solver import lia
from repro.solver.lia import CubeSolver, Divisibility, Inequality, Status
from repro.solver.linear import LinearTerm, NonLinearError

from strategies import NAMES, cubes


def atom(rel, left, right):
    return Atom(rel, left, right)


class TestInequalityTighten:
    def test_divides_by_gcd(self):
        ineq = Inequality(LinearTerm.of({sym("x"): 2, sym("y"): 4}, 3)).tighten()
        assert ineq.term.coefficient(sym("x")) == 1
        assert ineq.term.coefficient(sym("y")) == 2
        assert ineq.term.constant == 2  # ceil(3/2)

    def test_unit_content_unchanged(self):
        ineq = Inequality(LinearTerm.of({sym("x"): 1}, 3))
        assert ineq.tighten() == ineq


class TestCubeSolver:
    def test_feasible_box(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.GE, var("x"), Const(2)),
            atom(Rel.LE, var("x"), Const(5)),
            atom(Rel.EQ, var("y"), var("x") + 1),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert 2 <= result.model[sym("x")] <= 5
        assert result.model[sym("y")] == result.model[sym("x")] + 1

    def test_infeasible_bounds(self):
        solver = CubeSolver()
        cube = [atom(Rel.GT, var("x"), Const(5)), atom(Rel.LT, var("x"), Const(3))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_integer_gap_detected(self):
        # 2x == 2y + 1 has no integer solutions.
        solver = CubeSolver()
        cube = [atom(Rel.EQ, var("x") * Const(2), var("y") * Const(2) + Const(1))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_gcd_test_on_equalities(self):
        solver = CubeSolver()
        cube = [atom(Rel.EQ, var("x") * Const(6) + var("y") * Const(4), Const(3))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_disequality_split(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.LE, var("x"), Const(1)),
            atom(Rel.NE, var("x"), Const(0)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 1

    def test_divisibility_constraint(self):
        solver = CubeSolver()
        cube = [
            Divides(3, var("x")),
            atom(Rel.GE, var("x"), Const(4)),
            atom(Rel.LE, var("x"), Const(8)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 6

    def test_negated_divisibility(self):
        solver = CubeSolver()
        cube = [
            Not(Divides(2, var("x"))),
            atom(Rel.GE, var("x"), Const(4)),
            atom(Rel.LE, var("x"), Const(5)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 5

    def test_conflicting_divisibility(self):
        solver = CubeSolver()
        cube = [Divides(2, var("x")), Not(Divides(2, var("x")))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_unbounded_variable_gets_some_value(self):
        solver = CubeSolver()
        result = solver.solve([atom(Rel.GE, var("x"), var("y"))])
        assert result.status is Status.SAT

    def test_nonlinear_literal_raises(self):
        solver = CubeSolver()
        with pytest.raises(NonLinearError):
            solver.solve([atom(Rel.EQ, var("x") * var("y"), Const(1))])

    def test_statistics_populated(self):
        solver = CubeSolver()
        solver.solve([atom(Rel.LE, var("x"), Const(0))])
        assert solver.statistics["cubes"] == 1
        assert solver.statistics["branch_nodes"] >= 1

    def test_equality_without_unit_coefficient(self):
        # 2x == 6 is satisfiable with x == 3 even though no unit coefficient exists.
        solver = CubeSolver()
        result = solver.solve([atom(Rel.EQ, var("x") * Const(2), Const(6))])
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 3

    def test_large_coefficient_system(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.EQ, var("x") * Const(7) + var("y") * Const(5), Const(41)),
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.GE, var("y"), Const(0)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        model = result.model
        assert 7 * model[sym("x")] + 5 * model[sym("y")] == 41


class TestBoundBoxRefutation:
    """The exact bound box ``CubeSolver.solve`` runs before any case split."""

    @staticmethod
    def refuted(cube):
        solver = CubeSolver()
        result = solver.solve(cube)
        return result, solver.statistics["prefiltered_cubes"] == 1

    def test_positive_constant_row(self):
        result, refuted = self.refuted([atom(Rel.LT, Const(3), Const(1))])
        assert result.status is Status.UNSAT and refuted

    def test_crossing_unit_bounds(self):
        # 3x <= 7 gives x <= 2; -2x <= -5 gives x >= 3.
        cube = [
            atom(Rel.LE, var("x") * Const(3), Const(7)),
            atom(Rel.GE, var("x") * Const(2), Const(5)),
        ]
        result, refuted = self.refuted(cube)
        assert result.status is Status.UNSAT and refuted

    def test_wide_row_minimum_positive(self):
        cube = [
            atom(Rel.GE, var("x"), Const(2)),
            atom(Rel.GE, var("y"), Const(3)),
            atom(Rel.LT, var("x") + var("y"), Const(5)),
        ]
        result, refuted = self.refuted(cube)
        assert result.status is Status.UNSAT and refuted

    def test_equality_contributes_both_sides(self):
        cube = [atom(Rel.EQ, var("x"), Const(4)), atom(Rel.LT, var("x"), Const(4))]
        result, refuted = self.refuted(cube)
        assert result.status is Status.UNSAT and refuted

    def test_unbounded_symbol_is_no_proof(self):
        cube = [
            atom(Rel.GE, var("x"), Const(2)),
            atom(Rel.LT, var("x") + var("y"), Const(5)),
        ]
        result, refuted = self.refuted(cube)
        assert result.status is Status.SAT and not refuted

    def test_no_size_envelope(self):
        # Far past int64: exact integers still refute.
        big = 2 ** 80
        cube = [atom(Rel.GE, var("x"), Const(big)), atom(Rel.LT, var("x"), Const(big))]
        result, refuted = self.refuted(cube)
        assert result.status is Status.UNSAT and refuted

    def test_refutes_despite_nonlinear_literal(self):
        # The box ignores literals it cannot translate; without a proof the
        # translation error is still raised.
        product = atom(Rel.EQ, var("x") * var("y"), Const(1))
        result, refuted = self.refuted([product, atom(Rel.LT, Const(1), Const(0))])
        assert result.status is Status.UNSAT and refuted
        with pytest.raises(NonLinearError):
            CubeSolver().solve([product, atom(Rel.LT, var("x"), Const(0))])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cubes())
    def test_refutation_is_sound(self, cube):
        result, refuted = self.refuted(cube)
        if not refuted:
            return
        assert result.status is Status.UNSAT
        symbols = [sym(name) for name in NAMES]
        for values in itertools.product(range(-4, 5), repeat=len(symbols)):
            valuation = Valuation(scalars=dict(zip(symbols, values)))
            assert not all(evaluate(literal, valuation) for literal in cube)
        with mock.patch.object(lia, "_bound_box_refutes", return_value=False):
            unchecked = CubeSolver().solve(cube)
        assert unchecked.status is not Status.SAT
