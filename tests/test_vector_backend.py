"""The vector backend: three-way differential parity and sound divergence.

The contract of :mod:`repro.solver.vector` (with :mod:`repro.solver.backend`
and the dispatch in :mod:`repro.solver.models`) is *conclusive-answer
identity* with the compiled backend, under PR 4's sound-divergence rule:

* any model the vector search reports is a genuine model (it satisfies the
  tree walker), and whenever the compiled search finds a model the vector
  search finds the *same* model — the batch mask only rejects rows, and
  accepted rows run the very same compiled checker;
* the only permitted divergence is an error-abort (``None``/UNKNOWN on the
  scalar backends) becoming a conclusive answer on the vector backend —
  never the reverse.  ``test_sound_divergence_pin`` pins a concrete case;
* cube-level decisions agree: compiled SAT implies vector SAT with the same
  model, compiled UNSAT implies vector UNSAT, and a vector UNSAT never
  contradicts a conclusive compiled answer;
* Monte Carlo scores are *bit-identical* across backends (the columnar
  aggregation reduces sequentially, not pairwise).

Hypothesis drives the differentials over randomly generated formulas; the
registry tests cover selection, ``auto`` resolution and the numpy-free
degradation path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import (
    Add,
    Const,
    Div,
    Divides,
    Exists,
    Forall,
    Ite,
    Mul,
    conj,
    disj,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    neg,
    sym,
    var,
)
from repro.solver import backend as backend_module
from repro.solver.backend import (
    BACKENDS,
    RESOLVED_BACKENDS,
    BackendUnavailableError,
    active_backend,
    numpy_available,
    requested_backend,
    set_backend,
    use_backend,
)
from repro.solver.interface import Solver
from repro.solver.lia import Status
from repro.solver.models import bounded_model_search, enumerate_models
from repro.solver.vector import (
    columnar_max,
    columnar_sum,
    plan_conjuncts,
    reset_vector_stats,
    vector_stats,
)

NAMES = ["x", "y", "z"]
names = st.sampled_from(NAMES)
small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def total_terms(draw, depth=2):
    """Terms from the *total* fragment: no Div/Mod/Select, so evaluation
    under a full assignment can never raise."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(names))
        return Const(draw(small_ints))
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice <= 4:
        op = draw(st.sampled_from([F.Add, F.Sub, F.Mul, F.Min, F.Max]))
        return op(draw(total_terms(depth=depth - 1)), draw(total_terms(depth=depth - 1)))
    return Ite(
        draw(total_formulas(depth=0)),
        draw(total_terms(depth=depth - 1)),
        draw(total_terms(depth=depth - 1)),
    )


@st.composite
def total_atoms(draw):
    choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 6:
        return Divides(draw(st.sampled_from([-3, -2, 2, 3])), draw(total_terms()))
    rel = [F.lt, F.le, F.gt, F.ge, F.eq, F.ne][choice]
    return rel(draw(total_terms()), draw(total_terms()))


@st.composite
def total_formulas(draw, depth=2):
    if depth == 0:
        return draw(total_atoms())
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return draw(total_atoms())
    if choice == 1:
        return neg(draw(total_formulas(depth=depth - 1)))
    if choice == 2:
        return conj(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    if choice == 3:
        return disj(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    if choice == 4:
        return F.Implies(
            draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1))
        )
    if choice == 5:
        return F.Iff(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    quantifier = Exists if draw(st.booleans()) else Forall
    return quantifier(sym(draw(names)), draw(total_formulas(depth=depth - 1)))


@st.composite
def linear_atoms(draw):
    """Linear comparisons — the fragment the DNF cube pipeline decides."""
    left = draw(total_terms(depth=1))
    rel = draw(st.sampled_from([F.lt, F.le, F.gt, F.ge, F.eq, F.ne]))
    return rel(left, Const(draw(small_ints)))


@st.composite
def cube_formulas(draw):
    """Small DNF-shaped formulas that exercise the cube loop and prefilter."""
    cubes = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        literals = [draw(linear_atoms()) for _ in range(draw(st.integers(1, 3)))]
        cubes.append(conj(*literals) if len(literals) > 1 else literals[0])
    return disj(*cubes) if len(cubes) > 1 else cubes[0]


def _search_all_backends(formula, **kwargs):
    results = {}
    for name in RESOLVED_BACKENDS:
        with use_backend(name):
            results[name] = bounded_model_search(formula, **kwargs)
    return results


numpy_required = pytest.mark.skipif(
    not numpy_available(), reason="vector backend requires numpy"
)


class TestBackendRegistry:
    def test_backend_universe(self):
        assert BACKENDS == ("auto", "tree", "compiled", "vector")
        assert RESOLVED_BACKENDS == ("tree", "compiled", "vector")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("quantum")

    def test_use_backend_restores_previous(self):
        before = requested_backend()
        with use_backend("tree"):
            assert requested_backend() == "tree"
            assert active_backend() == "tree"
        assert requested_backend() == before

    def test_use_backend_none_is_noop(self):
        before = requested_backend()
        with use_backend(None):
            assert requested_backend() == before

    def test_auto_resolution(self):
        with use_backend("auto"):
            expected = "vector" if numpy_available() else "compiled"
            assert active_backend() == expected

    def test_vector_unavailable_without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_numpy_module", None)
        monkeypatch.setattr(backend_module, "_numpy_probed", True)
        assert not numpy_available()
        with pytest.raises(BackendUnavailableError):
            set_backend("vector")
        # auto silently degrades instead of failing
        with use_backend("auto"):
            assert active_backend() == "compiled"


class TestNumpyFreeDegradation:
    """With numpy absent the solver must behave exactly like ``compiled``."""

    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_numpy_module", None)
        monkeypatch.setattr(backend_module, "_numpy_probed", True)

    def test_search_still_works(self, monkeypatch):
        self._without_numpy(monkeypatch)
        x, y = var("x"), var("y")
        with use_backend("auto"):
            model = bounded_model_search(conj(eq(x, Const(3)), gt(y, x)))
        assert model == {sym("x"): 3, sym("y"): 4}

    def test_plan_conjuncts_degrades_to_none(self, monkeypatch):
        self._without_numpy(monkeypatch)
        assert plan_conjuncts([ge(var("x"), Const(0))]) is None

    def test_columnar_aggregation_falls_back_to_python(self, monkeypatch):
        self._without_numpy(monkeypatch)
        values = [0.1, 0.2, 0.3]
        assert columnar_sum(values) == sum(values)
        assert columnar_max(values) == max(values)
        assert columnar_sum([]) == 0.0
        assert columnar_max([]) == 0.0


@numpy_required
class TestModelSearchParity:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_three_way_search_parity(self, formula):
        results = _search_all_backends(formula, radius=2, quantifier_domain_radius=2)
        # Any reported model is a genuine model under the tree semantics.
        for name, model in results.items():
            if model is not None:
                assert evaluate(
                    formula, Valuation(scalars=dict(model)), range(-2, 3)
                ), f"{name} reported a non-model"
        # The total fragment has no error channel, so all three must agree
        # exactly (same model: all sweep the identical candidate order).
        assert results["tree"] == results["compiled"] == results["vector"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_enumerate_models_parity(self, formula):
        outcomes = {}
        for name in RESOLVED_BACKENDS:
            with use_backend(name):
                outcomes[name] = enumerate_models(
                    formula, radius=2, limit=5, quantifier_domain_radius=2
                )
        assert outcomes["tree"] == outcomes["compiled"] == outcomes["vector"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_budget_parity(self, formula):
        """Both backends stop after exactly the same assignment budget."""
        results = _search_all_backends(
            formula, radius=2, quantifier_domain_radius=2, max_assignments=7
        )
        assert results["compiled"] == results["vector"]

    def test_vector_path_actually_ran(self):
        reset_vector_stats()
        x, y = var("x"), var("y")
        with use_backend("vector"):
            model = bounded_model_search(conj(ge(Add(x, y), Const(7)), le(x, Const(4))))
        assert model is not None
        stats = vector_stats()
        assert stats["searches"] >= 1
        assert stats["rows_evaluated"] > 0


class TestCubeDecisionParity:
    @numpy_required
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cube_formulas())
    def test_cube_wave_parity(self, formula):
        verdicts = {}
        for name in ("compiled", "vector"):
            with use_backend(name):
                verdicts[name] = Solver().check_sat(formula)
        compiled, vectored = verdicts["compiled"], verdicts["vector"]
        if compiled.status is Status.SAT:
            assert vectored.status is Status.SAT
            assert vectored.model == compiled.model
        elif compiled.status is Status.UNSAT:
            assert vectored.status is Status.UNSAT
        if vectored.status is Status.UNSAT:
            # a vector UNSAT may settle a compiled UNKNOWN, never flip a SAT
            assert compiled.status in (Status.UNSAT, Status.UNKNOWN)

    @pytest.mark.parametrize(
        "backend", ["tree", "compiled", pytest.param("vector", marks=numpy_required)]
    )
    def test_prefilter_skips_infeasible_cubes(self, backend):
        """The cube solver's bound box refutes the same cubes on every backend."""
        x, y = var("x"), var("y")
        parts = [conj(ge(x, Const(i + 100)), lt(x, Const(i))) for i in range(10)]
        parts.append(conj(ge(x, Const(1)), lt(x, Const(3)), eq(y, Const(5))))
        formula = disj(*parts)
        with use_backend(backend):
            solver = Solver()
            result = solver.check_sat(formula)
        assert result.status is Status.SAT
        assert result.model == {sym("x"): 1, sym("y"): 5}
        assert solver.statistics.prefiltered_cubes == 10


@numpy_required
class TestSoundDivergence:
    def test_sound_divergence_pin(self):
        """The one permitted divergence, pinned concretely.

        ``Div(6, x)`` errors at ``x = 0``.  The scalar sweeps visit
        ``x = 0`` before any model and abort (``None`` — an UNKNOWN to the
        caller).  The vector mask decides ``x + x >= 2`` for the whole
        batch first, rejecting every ``x <= 0`` row without evaluating the
        division, and the surviving row ``x = 1`` is a genuine model.
        """
        x = var("x")
        formula = conj(eq(Div(Const(6), x), Const(6)), ge(Add(x, x), Const(2)))
        results = _search_all_backends(formula)
        assert results["tree"] is None
        assert results["compiled"] is None
        assert results["vector"] == {sym("x"): 1}
        # ... and the divergent answer is conclusive and correct:
        assert evaluate(formula, Valuation(scalars=dict(results["vector"])))

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas(), st.sampled_from([None, 1]))
    def test_divergence_direction_only(self, guard, divisor_slot):
        """Mixing an erroring conjunct in never flips a conclusive answer."""
        x = var("x")
        erroring = eq(Div(Const(6), x), Const(6))
        formula = conj(erroring, guard) if divisor_slot else conj(guard, erroring)
        results = _search_all_backends(formula, radius=2, quantifier_domain_radius=2)
        if results["compiled"] is not None:
            assert results["vector"] == results["compiled"]
        if results["vector"] is not None:
            assert evaluate(
                formula, Valuation(scalars=dict(results["vector"])), range(-2, 3)
            )


@numpy_required
class TestScoreParity:
    def test_monte_carlo_scores_bit_identical(self):
        from repro.casestudies.lu import LUApproximateMemory
        from repro.explore.scoring import score_candidate

        case = LUApproximateMemory()
        program = case.build_program()
        scores = {}
        for name in ("tree", "compiled", "vector"):
            with use_backend(name):
                scores[name] = score_candidate(case, program, samples=4, seed=3).as_dict()
        assert scores["tree"] == scores["compiled"] == scores["vector"]

    def test_columnar_sum_matches_python_sum_bitwise(self):
        values = [0.1, 0.7, 1e-17, -0.3, 2.5e-9, 0.1111111]
        assert columnar_sum(values) == sum(values)
        assert columnar_max(values) == max(values)
