"""Tests for bounded model search and model enumeration."""

from repro.logic import formula as F
from repro.logic.formula import Const, Divides, Select, Symbol, conj, exists, sym, var
from repro.solver import models as models_module
from repro.solver.backend import numpy_available, use_backend
from repro.solver.models import (
    bounded_model_search,
    enumerate_models,
    reset_search_stats,
    search_stats,
)


class TestBoundedModelSearch:
    def test_finds_model_in_box(self):
        formula = conj(F.gt(var("x"), Const(1)), F.lt(var("x"), Const(4)))
        model = bounded_model_search(formula, radius=4)
        assert model is not None and 1 < model[sym("x")] < 4

    def test_prefers_small_magnitudes(self):
        model = bounded_model_search(F.ge(var("x"), Const(0)), radius=4)
        assert model == {sym("x"): 0}

    def test_no_model_in_box_returns_none(self):
        formula = F.gt(var("x"), Const(100))
        assert bounded_model_search(formula, radius=4) is None

    def test_nonlinear_supported(self):
        formula = F.eq(var("x") * var("x"), Const(9))
        model = bounded_model_search(formula, radius=4)
        assert abs(model[sym("x")]) == 3

    def test_arrays_not_supported(self):
        formula = F.eq(Select(Symbol("A"), Const(0)), Const(1))
        assert bounded_model_search(formula) is None

    def test_closed_formula(self):
        assert bounded_model_search(F.TRUE) == {}
        assert bounded_model_search(F.FALSE) is None

    def test_quantifier_evaluated_over_domain(self):
        formula = exists(sym("k"), F.eq(var("x"), var("k") * Const(2)))
        model = bounded_model_search(formula, radius=3)
        assert model is not None and model[sym("x")] % 2 == 0


class TestEnumerateModels:
    def test_enumerates_all_in_range(self):
        formula = conj(F.ge(var("x"), Const(-1)), F.le(var("x"), Const(1)))
        models = enumerate_models(formula, radius=3)
        values = sorted(model[sym("x")] for model in models)
        assert values == [-1, 0, 1]

    def test_respects_limit(self):
        formula = F.ge(var("x"), Const(-10))
        models = enumerate_models(formula, radius=5, limit=3)
        assert len(models) == 3

    def test_candidates_override_box(self):
        formula = F.eq(var("x"), Const(100))
        assert enumerate_models(formula, radius=2) == []
        models = enumerate_models(formula, radius=2, candidates={sym("x"): [99, 100, 101]})
        assert models == [{sym("x"): 100}]

    def test_multiple_symbols(self):
        formula = F.eq(var("x") + var("y"), Const(0))
        models = enumerate_models(formula, radius=1)
        assert all(model[sym("x")] + model[sym("y")] == 0 for model in models)
        assert len(models) == 3


class TestUnitPropagation:
    """Unit atoms among the top-level conjuncts prune the candidate sweep."""

    def test_pinned_symbol_prunes_to_one_candidate(self):
        reset_search_stats()
        formula = conj(F.eq(var("x"), Const(3)), F.eq(var("y"), var("x") + Const(1)))
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 3, sym("y"): 4}
        stats = search_stats()
        # x is pinned to one candidate, so at most |values| assignments run.
        assert stats["assignments_evaluated"] <= 9
        assert stats["prune_rate"] > 0.8

    def test_bounds_and_disequalities_prune(self):
        reset_search_stats()
        formula = conj(
            F.ge(var("x"), Const(1)),
            F.lt(var("x"), Const(4)),
            F.ne(var("x"), Const(2)),
            F.eq(var("x") * var("x"), Const(9)),
        )
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 3}
        stats = search_stats()
        assert stats["pruned_space"] <= 2  # {1, 3} survive the unit atoms

    def test_flipped_and_negated_unit_atoms(self):
        formula = conj(
            F.le(Const(2), var("x")),  # constant on the left
            F.neg(F.ge(var("x"), Const(4))),  # negated atom
        )
        models = enumerate_models(formula, radius=5)
        assert sorted(model[sym("x")] for model in models) == [2, 3]

    def test_divides_unit_atom(self):
        formula = conj(Divides(3, var("x")), F.ne(var("x"), Const(0)))
        models = enumerate_models(formula, radius=4)
        assert sorted(model[sym("x")] for model in models) == [-3, 3]

    def test_contradictory_units_yield_nothing(self):
        formula = conj(F.eq(var("x"), Const(1)), F.eq(var("x"), Const(2)))
        assert bounded_model_search(formula, radius=4) is None
        assert enumerate_models(formula, radius=4) == []

    def test_pruning_preserves_first_model_order(self):
        # The unpruned sweep finds x by |magnitude|; pruning must keep that.
        formula = conj(F.ne(var("x"), Const(0)), F.ge(var("x"), Const(-3)))
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 1}

    def test_pruning_respects_candidate_override_order(self):
        formula = conj(F.ge(var("x"), Const(5)), F.le(var("x"), Const(9)))
        models = enumerate_models(
            formula, radius=2, candidates={sym("x"): [8, 6, 9, 1, 5]}
        )
        assert [model[sym("x")] for model in models] == [8, 6, 9, 5]

    def test_quantified_conjunct_still_checked_after_pruning(self):
        formula = conj(
            F.eq(var("x"), Const(2)),
            exists(sym("k"), F.eq(var("x"), var("k") * Const(2))),
        )
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 2}
        unsat = conj(
            F.eq(var("x"), Const(3)),
            exists(sym("k"), F.eq(var("x"), var("k") * Const(2))),
        )
        assert bounded_model_search(unsat, radius=4) is None

    def test_pruned_error_assignments_cannot_abort(self):
        """Pruning may upgrade an old error-abort (UNKNOWN) to a sound SAT.

        The blind sweep visited y = 0 first, raised a division-by-zero
        EvaluationError and aborted the whole search with None even though
        y = 1 is a genuine model.  The unit atom ``y >= 1`` prunes y = 0,
        so the erroring assignment is never visited and the model is found.
        This is the one deliberate whole-search divergence from the old
        semantics — strictly more conclusive, never less sound (the found
        model is checked by evaluation like any other).
        """
        formula = conj(
            F.eq(F.Div(Const(1), var("y")), Const(1)),
            F.ge(var("y"), Const(1)),
        )
        assert bounded_model_search(formula, radius=4) == {sym("y"): 1}
        models = enumerate_models(formula, radius=4)
        assert {m[sym("y")] for m in models} == {1}

    def test_search_stats_shape(self):
        reset_search_stats()
        bounded_model_search(F.ge(var("x"), Const(0)), radius=2)
        stats = search_stats()
        assert stats["searches"] == 1
        assert stats["models_found"] == 1
        assert 0.0 <= stats["prune_rate"] <= 1.0


class TestSearchPlanCache:
    """One search plan per interned formula and backend, rebuilt safely."""

    def test_plan_is_reused_and_counters_stay_per_call(self):
        formula = conj(F.ge(var("x"), Const(0)), F.le(var("x"), var("y") + Const(1)))
        with use_backend("compiled"):
            first = enumerate_models(formula, radius=2)
            plan = models_module._PLANS[(formula, "compiled")]
            reset_search_stats()
            assert enumerate_models(formula, radius=2) == first
            assert bounded_model_search(formula, radius=2) == first[0]
            assert models_module._PLANS[(formula, "compiled")] is plan
        assert search_stats()["searches"] == 2

    def test_backend_switch_rebuilds_the_checker(self, monkeypatch):
        """Switching backends in one process never reuses another's checker."""
        formula = conj(F.ge(var("x") + var("y"), Const(1)), F.le(var("x"), Const(2)))
        calls = []
        tree_walker = models_module.evaluate

        def counting_evaluate(*args):
            calls.append(args)
            return tree_walker(*args)

        monkeypatch.setattr(models_module, "evaluate", counting_evaluate)
        with use_backend("compiled"):
            expected = enumerate_models(formula, radius=2)
        assert not calls
        with use_backend("tree"):
            assert enumerate_models(formula, radius=2) == expected
        assert calls  # the tree plan walks the tree, not the compiled closures
        calls.clear()
        fast = "vector" if numpy_available() else "compiled"
        with use_backend(fast):
            assert enumerate_models(formula, radius=2) == expected
        assert not calls  # ... and the tree checker is not reused afterwards
        if fast == "vector":
            assert models_module._PLANS[(formula, "vector")].vector is not None
            assert models_module._PLANS[(formula, "tree")].vector is None

    def test_overflow_flushes_and_still_answers(self, monkeypatch):
        formulas = [F.eq(var("x") + var("y"), Const(k)) for k in range(4)]
        expected = [enumerate_models(formula, radius=2) for formula in formulas]
        monkeypatch.setattr(models_module, "_PLAN_CACHE_LIMIT", 2)
        models_module._PLANS.clear()
        for _ in range(2):
            for formula, models in zip(formulas, expected):
                assert enumerate_models(formula, radius=2) == models
                assert len(models_module._PLANS) <= 2
