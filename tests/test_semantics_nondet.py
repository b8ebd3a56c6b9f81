"""Tests for choosers, execution enumeration and observational compatibility."""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import builder as b
from repro.lang.analysis import bool_vars
from repro.lang.parser import parse_program, parse_statement
from repro.logic.formula import Const, Symbol, SymTerm, conj, eq, free_symbols
from repro.logic.translate import formula_of_bool
from repro.semantics import choosers, interpreter
from repro.semantics.choosers import (
    AdversarialChooser,
    ChooserError,
    FixedChoiceChooser,
    MinimalChangeChooser,
    RandomChooser,
    SolverChooser,
    predicate_query,
)
from repro.solver.backend import numpy_available, use_backend
from repro.solver.models import enumerate_models
from repro.semantics.enumerate import EnumerationConfig, enumerate_executions
from repro.semantics.observation import (
    check_compatibility,
    check_program_compatibility,
    relational_holds,
)
from repro.semantics.state import Observation, State, Terminated, is_error, is_wrong


def relax_statement(text="relax (x) st (0 <= x && x <= 3);"):
    return parse_statement(text)


class TestChoosers:
    def test_solver_chooser_satisfies_predicate(self):
        stmt = relax_statement()
        state = SolverChooser().choose(stmt, State.of({"x": 9}))
        assert 0 <= state.scalar("x") <= 3

    def test_solver_chooser_returns_none_when_unsatisfiable(self):
        stmt = relax_statement("relax (x) st (x < x);")
        assert SolverChooser().choose(stmt, State.of({"x": 0})) is None

    def test_minimal_change_keeps_current_value(self):
        stmt = relax_statement()
        state = MinimalChangeChooser().choose(stmt, State.of({"x": 2}))
        assert state.scalar("x") == 2

    def test_minimal_change_falls_back_when_violated(self):
        stmt = relax_statement()
        state = MinimalChangeChooser().choose(stmt, State.of({"x": 9}))
        assert 0 <= state.scalar("x") <= 3

    def test_random_chooser_is_reproducible(self):
        stmt = relax_statement()
        first = RandomChooser(seed=7).choose(stmt, State.of({"x": 9}))
        second = RandomChooser(seed=7).choose(stmt, State.of({"x": 9}))
        assert first.scalar("x") == second.scalar("x")

    def test_random_chooser_stays_in_predicate(self):
        stmt = relax_statement("relax (x) st (y - 2 <= x && x <= y + 2);")
        state = RandomChooser(seed=1).choose(stmt, State.of({"x": 20, "y": 20}))
        assert 18 <= state.scalar("x") <= 22

    def test_adversarial_chooser_prefers_extremes(self):
        stmt = relax_statement("relax (x) st (0 - 3 <= x && x <= 3);")
        state = AdversarialChooser(radius=5).choose(stmt, State.of({"x": 0}))
        assert abs(state.scalar("x")) == 3

    def test_fixed_choice_script_then_fallback(self):
        stmt = relax_statement()
        chooser = FixedChoiceChooser([{"x": 1}])
        assert chooser.choose(stmt, State.of({"x": 9})).scalar("x") == 1
        # Script exhausted: falls back to a valid choice.
        assert 0 <= chooser.choose(stmt, State.of({"x": 2})).scalar("x") <= 3

    def test_fixed_choice_strict_raises_when_exhausted(self):
        stmt = relax_statement()
        chooser = FixedChoiceChooser([], strict=True)
        with pytest.raises(ChooserError):
            chooser.choose(stmt, State.of({"x": 1}))

    def test_array_target_constrained_by_predicate_rejected(self):
        stmt = parse_statement("relax (A) st (A[0] == 1);")
        with pytest.raises(ChooserError):
            SolverChooser().choose(stmt, State.of({}, arrays={"A": {0: 0}}))


class TestEnumeration:
    def test_enumerates_all_relax_choices(self):
        program = parse_statement("relax (x) st (0 <= x && x <= 2); y = x * 2;")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=True)
        values = sorted(o.state.scalar("y") for o in outcomes if isinstance(o, Terminated))
        assert values == [0, 2, 4]

    def test_original_semantics_is_deterministic_without_havoc(self):
        program = parse_statement("relax (x) st (0 <= x && x <= 2); y = x * 2;")
        outcomes = enumerate_executions(program, State.of({"x": 1}), relaxed=False)
        assert len(outcomes) == 1
        assert outcomes[0].state.scalar("y") == 2

    def test_havoc_enumerated_in_both_semantics(self):
        program = parse_statement("havoc (x) st (0 <= x && x <= 1);")
        for relaxed in (False, True):
            outcomes = enumerate_executions(program, State.of({"x": 5}), relaxed=relaxed)
            values = sorted(o.state.scalar("x") for o in outcomes)
            assert values == [0, 1]

    def test_loop_with_nondeterministic_body(self):
        program = parse_statement(
            "i = 0; s = 0; while (i < 2) { havoc (d) st (0 <= d && d <= 1); s = s + d; i = i + 1; }"
        )
        outcomes = enumerate_executions(program, State.of({"d": 0}), relaxed=False)
        sums = sorted(o.state.scalar("s") for o in outcomes)
        assert sums == [0, 1, 1, 2]

    def test_error_outcomes_are_enumerated(self):
        program = parse_statement("havoc (x) st (0 <= x && x <= 1); assert x == 0;")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=False)
        assert any(is_wrong(o) for o in outcomes)
        assert any(isinstance(o, Terminated) for o in outcomes)

    def test_unsatisfiable_havoc_yields_wrong(self):
        program = parse_statement("havoc (x) st (false);")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=False)
        assert len(outcomes) == 1 and is_wrong(outcomes[0])

    def test_array_relax_enumeration(self):
        program = parse_statement("relax (A) st (true); x = A[0];")
        config = EnumerationConfig(array_choice_values=(0, 1))
        outcomes = enumerate_executions(
            program, State.of({"x": 0}, arrays={"A": {0: 5}}), relaxed=True, config=config
        )
        values = sorted(o.state.scalar("x") for o in outcomes)
        assert values == [0, 1]

    def test_sibling_array_choices_do_not_alias(self):
        """Two sibling array choices must never observe each other's writes.

        The havoc expansion builds each choice's contents from
        ``state.array(name)`` and updates it in place; if that dict were
        shared with the state's internal storage (or between iterations),
        one sibling's write would leak into the next sibling and into the
        pre-havoc state.  Every enumerated state must be exactly
        base-contents-plus-one-choice, and the initial state unchanged.
        """
        program = parse_statement("havoc (A) st (true);")
        initial = State.of({}, arrays={"A": {0: 7, 1: 7}})
        config = EnumerationConfig(array_choice_values=(-1, 0, 1))
        outcomes = enumerate_executions(program, initial, relaxed=True, config=config)
        assert len(outcomes) == 9  # 3 values ** 2 cells
        observed = {tuple(sorted(o.state.array("A").items())) for o in outcomes}
        expected = {
            ((0, a), (1, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
        }
        assert observed == expected
        # The pre-havoc state is untouched by any of the sibling choices.
        assert initial.array("A") == {0: 7, 1: 7}

    def test_sibling_scalar_and_array_choices_are_independent(self):
        program = parse_statement("havoc (x, A) st (0 <= x && x <= 1);")
        initial = State.of({"x": 9}, arrays={"A": {0: 5}})
        config = EnumerationConfig(array_choice_values=(0, 1))
        outcomes = enumerate_executions(program, initial, relaxed=True, config=config)
        combos = {(o.state.scalar("x"), o.state.array("A")[0]) for o in outcomes}
        assert combos == {(x, a) for x in (0, 1) for a in (0, 1)}
        assert initial.scalar("x") == 9 and initial.array("A") == {0: 5}


class TestCompatibility:
    def test_compatible_observations(self):
        program = parse_program("vars x; x = x + 0; relate l: x<o> <= x<r>;")
        psi_o = (Observation("l", State.of({"x": 1})),)
        psi_r = (Observation("l", State.of({"x": 2})),)
        assert check_program_compatibility(program, psi_o, psi_r)

    def test_violated_condition(self):
        program = parse_program("vars x; relate l: x<o> == x<r>;")
        psi_o = (Observation("l", State.of({"x": 1})),)
        psi_r = (Observation("l", State.of({"x": 2})),)
        result = check_program_compatibility(program, psi_o, psi_r)
        assert not result and "violated" in result.reason

    def test_length_mismatch(self):
        program = parse_program("vars x; relate l: x<o> == x<r>;")
        result = check_program_compatibility(program, (), (Observation("l", State.of({})),))
        assert not result and result.failing_index is None

    def test_label_mismatch(self):
        gamma = {"a": b.same("x"), "b": b.same("x")}
        result = check_compatibility(
            gamma,
            (Observation("a", State.of({"x": 1})),),
            (Observation("b", State.of({"x": 1})),),
        )
        assert not result and result.failing_index == 0

    def test_unknown_label(self):
        result = check_compatibility(
            {},
            (Observation("ghost", State.of({})),),
            (Observation("ghost", State.of({})),),
        )
        assert not result

    def test_relational_holds_with_arrays(self):
        condition = b.req(b.oread("A", b.o("i")), b.rread("A", b.r("i")))
        original = State.of({"i": 0}, arrays={"A": {0: 7}})
        relaxed = State.of({"i": 0}, arrays={"A": {0: 7}})
        assert relational_holds(condition, original, relaxed)


# ---------------------------------------------------------------------------
# Havoc queries: memoised predicate queries against a fix-conjunct reference
# ---------------------------------------------------------------------------

BACKENDS = ["tree", "compiled"] + (["vector"] if numpy_available() else [])
READS = ("x", "y", "a", "b")


@st.composite
def linear_sums(draw):
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(READS))
        factor = draw(st.integers(1, 3))
        parts.append(name if factor == 1 else f"{factor} * {name}")
    constant = draw(st.integers(-4, 4))
    text = " + ".join(parts)
    return f"{text} + {constant}" if constant >= 0 else f"{text} - {-constant}"


@st.composite
def linear_predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        rel = draw(st.sampled_from(["<=", "<", "==", "!=", ">=", ">"]))
        return f"{draw(linear_sums())} {rel} {draw(linear_sums())}"
    if draw(st.integers(0, 4)) == 0:
        return f"!({draw(linear_predicates(depth - 1))})"
    connective = draw(st.sampled_from(["&&", "||"]))
    left = draw(linear_predicates(depth - 1))
    right = draw(linear_predicates(depth - 1))
    return f"({left}) {connective} ({right})"


@st.composite
def havoc_statements(draw):
    keyword = draw(st.sampled_from(["relax", "havoc"]))
    targets = draw(st.lists(st.sampled_from(("x", "y", "m")), min_size=1, max_size=3, unique=True))
    return parse_statement(f"{keyword} ({', '.join(targets)}) st ({draw(linear_predicates())});")


@st.composite
def havoc_states(draw):
    """States over x, y, a, b; targets may be undefined, arrays may shadow reads."""
    values = st.integers(-6, 6)
    scalars = {"a": draw(values)}
    for name in ("x", "y", "b"):
        if draw(st.integers(0, 4)) > 0:
            scalars[name] = draw(values)
    arrays = {}
    if draw(st.booleans()):
        arrays["m"] = {0: draw(values), 1: draw(values)}
    shadow = draw(st.sampled_from([None, None, "a", "b"]))
    if shadow is not None:
        arrays[shadow] = {0: 1}
    return State.of(scalars, arrays)


def _reference_query(statement, state, radius, max_candidates=200):
    """The havoc query as first written: fix conjuncts, list-deduplicated spread."""
    predicate = statement.predicate
    targets = set(statement.targets)
    fixes = []
    for name in sorted(bool_vars(predicate)):
        if name in targets:
            continue
        if state.has_scalar(name):
            fixes.append(eq(SymTerm(Symbol(name)), Const(state.scalar(name))))
        elif state.has_array(name):
            raise ChooserError(
                f"predicate of {statement} reads array {name!r}; array-valued "
                "havoc/relax predicates must not constrain array contents"
            )
    centres = sorted(set(list(state.scalar_map().values()) + [0]))
    spread = []
    for centre in centres:
        for delta in range(-radius, radius + 1):
            value = centre + delta
            if value not in spread:
                spread.append(value)
            if len(spread) >= max_candidates:
                break
        if len(spread) >= max_candidates:
            break
    spread.sort(key=abs)
    candidates = {}
    for name in sorted(bool_vars(predicate) | targets):
        if state.has_array(name):
            continue
        if name in targets:
            candidates[Symbol(name)] = list(spread)
        elif state.has_scalar(name):
            candidates[Symbol(name)] = [state.scalar(name)]
    return conj(formula_of_bool(predicate), *fixes), candidates


def _reference_choose(policy, statement, state, seed, radius):
    """Seeded random/adversarial choice over the reference query."""
    rng = random.Random(seed)
    for name in statement.targets:
        if state.has_array(name) and name in bool_vars(statement.predicate):
            raise ChooserError(
                f"array {name!r} is a havoc/relax target but the predicate "
                "constrains its contents; this fragment is not supported"
            )
    formula, candidates = _reference_query(statement, state, radius)
    limit = 256 if policy == "random" else 512
    models = enumerate_models(formula, radius=radius, limit=limit, candidates=candidates)
    if not models:
        return SolverChooser().choose(statement, state)
    targets = [name for name in statement.targets if not state.has_array(name)]
    if policy == "adversarial":
        scores = [sum(abs(model.get(Symbol(name), 0)) for name in targets) for model in models]
        best = max(scores)
        models = [model for model, score in zip(models, scores) if score == best]
    model = rng.choice(models)
    new_state = state.set_scalars({name: model.get(Symbol(name), 0) for name in targets})
    if policy == "random":
        for name in statement.targets:
            if state.has_array(name):
                perturbed = {index: rng.randint(-radius, radius) for index in state.array(name)}
                new_state = new_state.set_array(name, perturbed)
    return new_state


def _outcome(choose):
    try:
        return choose()
    except ChooserError as error:
        return ("ChooserError", str(error))


class TestHavocQueryDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        statement=havoc_statements(),
        state=havoc_states(),
        seed=st.integers(0, 2**16),
        radius=st.integers(1, 3),
        policy=st.sampled_from(["random", "adversarial"]),
    )
    def test_choosers_match_the_fix_conjunct_reference(
        self, backend, statement, state, seed, radius, policy
    ):
        if policy == "random":
            chooser = RandomChooser(seed=seed, radius=radius)
        else:
            chooser = AdversarialChooser(radius=radius, seed=seed)
        with use_backend(backend):
            expected = _outcome(
                lambda: _reference_choose(policy, statement, state, seed, radius)
            )
            assert _outcome(lambda: chooser.choose(statement, state)) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(statement=havoc_statements(), data=st.data())
    def test_fix_conjuncts_are_redundant_under_pins(self, backend, statement, data):
        formula = formula_of_bool(statement.predicate)
        symbols = sorted(free_symbols(formula))
        pinned = data.draw(st.lists(st.sampled_from(symbols), unique=True)) if symbols else []
        values = st.integers(-6, 6)
        candidates = {}
        for symbol in symbols:
            if symbol in pinned:
                candidates[symbol] = [data.draw(values)]
            elif data.draw(st.booleans()):
                candidates[symbol] = data.draw(st.lists(values, max_size=8))
        fixes = [eq(SymTerm(symbol), Const(candidates[symbol][0])) for symbol in pinned]
        with use_backend(backend):
            fixed = enumerate_models(conj(formula, *fixes), radius=3, candidates=candidates)
            bare = enumerate_models(formula, radius=3, candidates=candidates)
        assert fixed == bare


class TestPredicateQueryMemo:
    def test_equal_but_distinct_predicates_do_not_alias(self):
        first = relax_statement("relax (x) st (x <= a + 1);")
        second = relax_statement("relax (x) st (x <= a + 1);")
        assert first.predicate == second.predicate
        assert first.predicate is not second.predicate
        query = predicate_query(first.predicate)
        assert predicate_query(first.predicate) is query
        assert predicate_query(second.predicate) is not query
        assert predicate_query(second.predicate).predicate is second.predicate

    def test_cached_predicate_is_pinned(self):
        stmt = relax_statement("relax (x) st (x <= a + 2);")
        node = weakref.ref(stmt.predicate)
        predicate_query(stmt.predicate)
        del stmt
        gc.collect()
        # The entry keeps its node alive, so its id cannot be reused.
        assert node() is not None
        assert choosers._QUERY_CACHE[id(node())].predicate is node()

    def test_flush_bound_matches_the_interpreter(self):
        assert choosers._QUERY_CACHE_LIMIT == interpreter._CACHE_LIMIT

    def test_overflow_flushes_and_still_answers(self, monkeypatch):
        statements = [
            relax_statement(f"relax (x) st (a - {k} <= x && x <= a + {k});") for k in range(4)
        ]
        state = State.of({"x": 0, "a": 3})
        expected = [RandomChooser(seed=k).choose(s, state) for k, s in enumerate(statements)]
        monkeypatch.setattr(choosers, "_QUERY_CACHE_LIMIT", 2)
        choosers._QUERY_CACHE.clear()
        for _ in range(2):
            for k, stmt in enumerate(statements):
                assert RandomChooser(seed=k).choose(stmt, state) == expected[k]
                assert len(choosers._QUERY_CACHE) <= 2
