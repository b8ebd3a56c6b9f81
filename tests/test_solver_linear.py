"""Tests for linear-term normalisation."""

import pytest
from hypothesis import given

from repro.logic.formula import Const, Div, Min, Mul, Select, Symbol, var
from repro.solver.linear import (
    LinearTerm,
    NonLinearError,
    atom_difference,
    is_linear,
    linearize,
)
from repro.logic.formula import sym

from strategies import atoms, ref_linear, terms


class TestLinearTerm:
    def test_of_drops_zero_coefficients(self):
        term = LinearTerm.of({sym("x"): 0, sym("y"): 2}, 1)
        assert term.symbols() == {sym("y")}

    def test_add_and_negate(self):
        a = LinearTerm.of({sym("x"): 2}, 1)
        b = LinearTerm.of({sym("x"): -2, sym("y"): 1}, 3)
        total = a.add(b)
        assert total.coefficient(sym("x")) == 0
        assert total.coefficient(sym("y")) == 1
        assert total.constant == 4
        assert a.negate().constant == -1

    def test_scale(self):
        term = LinearTerm.of({sym("x"): 3}, -2).scale(2)
        assert term.coefficient(sym("x")) == 6
        assert term.constant == -4
        assert LinearTerm.of({sym("x"): 1}).scale(0).is_constant()

    def test_substitute(self):
        term = LinearTerm.of({sym("x"): 2, sym("y"): 1}, 0)
        replaced = term.substitute(sym("x"), LinearTerm.of({sym("z"): 1}, 5))
        assert replaced.coefficient(sym("z")) == 2
        assert replaced.coefficient(sym("x")) == 0
        assert replaced.constant == 10

    def test_evaluate(self):
        term = LinearTerm.of({sym("x"): 2, sym("y"): -1}, 7)
        assert term.evaluate({sym("x"): 3, sym("y"): 4}) == 9

    def test_evaluate_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            LinearTerm.of({sym("x"): 1}).evaluate({})

    def test_content(self):
        assert LinearTerm.of({sym("x"): 4, sym("y"): 6}).content() == 2
        assert LinearTerm.constant_term(5).content() == 0

    def test_to_term_roundtrip_through_linearize(self):
        term = LinearTerm.of({sym("x"): 3, sym("y"): -1}, 4)
        assert linearize(term.to_term()) == term


class TestLinearize:
    def test_simple_expression(self):
        term = linearize(var("x") * 2 + var("y") - Const(3))
        assert term.coefficient(sym("x")) == 2
        assert term.coefficient(sym("y")) == 1
        assert term.constant == -3

    def test_constant_times_variable_either_order(self):
        assert linearize(Mul(Const(3), var("x"))).coefficient(sym("x")) == 3
        assert linearize(Mul(var("x"), Const(3))).coefficient(sym("x")) == 3

    def test_nonlinear_product_raises(self):
        with pytest.raises(NonLinearError):
            linearize(Mul(var("x"), var("y")))

    def test_division_must_be_eliminated_first(self):
        with pytest.raises(NonLinearError):
            linearize(Div(var("x"), Const(2)))

    def test_min_select_not_linear(self):
        assert not is_linear(Min(var("x"), var("y")))
        assert not is_linear(Select(Symbol("A"), var("i")))

    def test_is_linear_true(self):
        assert is_linear(var("x") + 4 * var("y"))


def _error_message(call, node):
    with pytest.raises(NonLinearError) as caught:
        call(node)
    return str(caught.value)


class TestMemoisedLinearisation:
    """``linearize`` and ``atom_difference`` are memoised on interned nodes."""

    @given(terms(depth=2))
    def test_linearize_matches_reference(self, term):
        expected = ref_linear(term)
        if expected is None:
            first = _error_message(linearize, term)
            assert _error_message(linearize, term) == first
            return
        coeffs, constant = expected
        assert linearize(term) == LinearTerm.of(coeffs, constant)
        assert linearize(term) is linearize(term)

    @given(atoms())
    def test_atom_difference_matches_fresh_subtraction(self, atom):
        left, right = ref_linear(atom.left), ref_linear(atom.right)
        if left is None or right is None:
            first = _error_message(atom_difference, atom)
            assert _error_message(atom_difference, atom) == first
            return
        fresh = LinearTerm.of(left[0], left[1]).subtract(LinearTerm.of(right[0], right[1]))
        assert atom_difference(atom) == fresh
        assert atom_difference(atom) is atom_difference(atom)

    def test_nonlinear_message_is_stable(self):
        product = Mul(var("x"), var("y"))
        first = _error_message(linearize, product)
        assert "non-linear product" in first
        assert _error_message(linearize, product) == first
