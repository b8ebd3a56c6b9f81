"""Nondeterminism resolution strategies for ``havoc`` and ``relax`` statements.

The dynamic semantics of ``havoc (X) st (e)`` (and, in the relaxed
semantics, ``relax (X) st (e)``) nondeterministically assigns the variables
in ``X`` any values satisfying ``e``.  A concrete interpreter must resolve
that nondeterminism; a :class:`Chooser` encapsulates the policy:

* :class:`SolverChooser` — ask the decision procedure for some satisfying
  assignment (deterministic given the solver's search order),
* :class:`RandomChooser` — sample uniformly among the satisfying
  assignments within a bounded box (seeded, reproducible),
* :class:`MinimalChangeChooser` — prefer keeping the previous values when
  they already satisfy the predicate (models "the relaxed execution follows
  the original unless it chooses otherwise"),
* :class:`FixedChoiceChooser` — replay a scripted sequence of choices
  (used by tests and by the exhaustive execution enumerator),
* :class:`AdversarialChooser` — prefer extreme values within the bounded
  box (useful for stress-testing acceptability properties dynamically).

A chooser returns ``None`` when it cannot find any satisfying assignment;
the interpreter then produces the ``wr`` outcome as required by the
``havoc-f`` rule of Figure 3.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..lang.ast import BoolExpr, Havoc, Relax, Stmt
from ..lang.analysis import bool_vars
from ..logic.evaluate import EvaluationError, Valuation
from ..logic.evaluate import evaluate as evaluate_formula
from ..logic.formula import Const, Formula, Symbol, SymTerm, conj, eq
from ..logic.translate import formula_of_bool
from ..solver.interface import Solver
from ..solver.models import enumerate_models
from .state import State


ChoiceUpdate = Dict[str, int]


class ChooserError(Exception):
    """Raised when a chooser cannot handle a havoc/relax statement (e.g. an
    array target with a predicate that constrains the array contents)."""


class PredicateQuery:
    """The state-independent half of a havoc/relax query, built once per predicate.

    ``formula`` is the predicate's logic translation, ``variables`` the
    program variables it reads and ``names`` those variables sorted.  None
    of them depends on the state, so :func:`predicate_query` memoises them
    on the predicate node and every later choice at the same statement
    starts from a lookup instead of a re-translation.
    """

    __slots__ = ("predicate", "formula", "variables", "names")

    def __init__(self, predicate: BoolExpr) -> None:
        self.predicate = predicate
        self.formula: Formula = formula_of_bool(predicate)
        self.variables: FrozenSet[str] = bool_vars(predicate)
        self.names: Tuple[str, ...] = tuple(sorted(self.variables))


# Program AST nodes are frozen dataclasses with structural equality, so the
# memo is keyed by identity (like the interpreter's compiled-expression
# caches); each entry holds its predicate, which pins the id while cached.
_QUERY_CACHE: Dict[int, PredicateQuery] = {}

#: Flush threshold, the same bound as the interpreter's compiled-expression
#: caches: overflowing clears the memo (rebuilding an entry is cheap).
_QUERY_CACHE_LIMIT = 65_536


def predicate_query(predicate: BoolExpr) -> PredicateQuery:
    """The memoised :class:`PredicateQuery` of a havoc/relax predicate node."""
    query = _QUERY_CACHE.get(id(predicate))
    if query is None:
        if len(_QUERY_CACHE) >= _QUERY_CACHE_LIMIT:
            _QUERY_CACHE.clear()
        query = _QUERY_CACHE[id(predicate)] = PredicateQuery(predicate)
    return query


def _fixed_values(statement, state: State, query: PredicateQuery) -> List[Tuple[str, int]]:
    """The current value of every non-target scalar the predicate reads.

    Raises :class:`ChooserError` when the predicate reads a non-target array.
    """
    targets = statement.targets
    fixed: List[Tuple[str, int]] = []
    for name in query.names:
        if name in targets:
            continue
        if state.has_scalar(name):
            fixed.append((name, state.scalar(name)))
        elif state.has_array(name):
            raise ChooserError(
                f"predicate of {statement} reads array {name!r}; array-valued "
                "havoc/relax predicates must not constrain array contents"
            )
    return fixed


def _fix(name: str, value: int) -> Formula:
    return eq(SymTerm(Symbol(name)), Const(value))


def _fixed_formula(statement, state: State) -> Formula:
    """The predicate with every non-target variable fixed to its current value.

    This is the query for :class:`SolverChooser`, which has no candidate
    lists to pin the non-targets with.
    """
    query = predicate_query(statement.predicate)
    fixes = [_fix(name, value) for name, value in _fixed_values(statement, state, query)]
    return conj(query.formula, *fixes)


def choice_query(
    statement, state: State, radius: int, max_candidates: int = 200
) -> Tuple[Formula, Dict[Symbol, List[int]]]:
    """The enumeration query of a havoc/relax statement: formula and candidates.

    Non-target variables are pinned by a one-value candidate list instead of
    an ``x == value`` conjunct, so the formula is the interned predicate
    itself and its search plan is reused from state to state; both forms
    admit the same models in the same order, because a fix conjunct holds
    at the pinned value and cannot raise.  A scalar shadowed by an array of
    the same name gets no candidate list, so it keeps its conjunct.

    Target variables range over windows of ``radius`` around every scalar
    value in the state (plus zero), so a predicate such as
    ``y - e <= x <= y + e`` finds witnesses near ``y`` even when ``y`` is
    far from zero.
    """
    query = predicate_query(statement.predicate)
    fixed = _fixed_values(statement, state, query)
    centres = sorted(set(state.scalar_map().values()) | {0})
    windows = (range(centre - radius, centre + radius + 1) for centre in centres)
    spread = list(dict.fromkeys(itertools.chain.from_iterable(windows)))[:max_candidates]
    spread.sort(key=abs)
    candidates: Dict[Symbol, List[int]] = {}
    for name in statement.targets:
        if not state.has_array(name):
            candidates[Symbol(name)] = spread
    fixes: List[Formula] = []
    for name, value in fixed:
        if state.has_array(name):
            fixes.append(_fix(name, value))
        else:
            candidates[Symbol(name)] = [value]
    return conj(query.formula, *fixes), candidates


def _scalar_targets(statement, state: State) -> List[str]:
    return [name for name in statement.targets if not state.has_array(name)]


def _array_targets(statement, state: State) -> List[str]:
    return [name for name in statement.targets if state.has_array(name)]


def _check_array_targets_unconstrained(statement, state: State) -> None:
    """Array targets are only supported with predicates that do not read them."""
    predicate_vars = predicate_query(statement.predicate).variables
    for name in _array_targets(statement, state):
        if name in predicate_vars:
            raise ChooserError(
                f"array {name!r} is a havoc/relax target but the predicate "
                "constrains its contents; this fragment is not supported"
            )


class Chooser:
    """Base class of nondeterminism resolution strategies."""

    def choose(self, statement, state: State) -> Optional[State]:
        """Return a new state satisfying the statement's predicate, or None."""
        raise NotImplementedError

    # Array contents for unconstrained array targets: default keeps them.
    def _apply_array_targets(self, statement, state: State) -> State:
        return state


class SolverChooser(Chooser):
    """Resolve nondeterminism by asking the decision procedure for a model."""

    def __init__(self, solver: Optional[Solver] = None) -> None:
        self._solver = solver or Solver()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        result = self._solver.check_sat(_fixed_formula(statement, state))
        if not result.is_sat:
            return None
        model = result.model or {}
        updates: ChoiceUpdate = {}
        for name in _scalar_targets(statement, state):
            updates[name] = model.get(Symbol(name), 0)
        new_state = state.set_scalars(updates)
        return self._apply_array_targets(statement, new_state)


class MinimalChangeChooser(Chooser):
    """Keep the current values whenever they already satisfy the predicate.

    This chooser makes the relaxed execution coincide with the original
    execution whenever possible; it falls back to a delegate chooser when
    the current values violate the predicate (or targets are undefined).
    """

    def __init__(self, fallback: Optional[Chooser] = None) -> None:
        self._fallback = fallback or SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        try:
            targets = _scalar_targets(statement, state)
            if all(state.has_scalar(name) for name in targets):
                valuation = Valuation(
                    scalars={Symbol(k): v for k, v in state.scalar_map().items()}
                )
                formula = predicate_query(statement.predicate).formula
                if evaluate_formula(formula, valuation, domain=None):
                    return state
        except EvaluationError:
            pass
        return self._fallback.choose(statement, state)


class RandomChooser(Chooser):
    """Sample uniformly among satisfying assignments within a bounded box."""

    def __init__(self, seed: int = 0, radius: int = 8, limit: int = 256) -> None:
        self._rng = random.Random(seed)
        self._radius = radius
        self._limit = limit
        self._fallback = SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        formula, candidates = choice_query(statement, state, self._radius)
        models = enumerate_models(
            formula, radius=self._radius, limit=self._limit, candidates=candidates
        )
        if not models:
            return self._fallback.choose(statement, state)
        model = self._rng.choice(models)
        updates: ChoiceUpdate = {}
        for name in _scalar_targets(statement, state):
            updates[name] = model.get(Symbol(name), 0)
        new_state = state.set_scalars(updates)
        # Array targets with unconstrained predicates: randomly perturb contents.
        for name in _array_targets(statement, state):
            values = state.array(name)
            perturbed = {
                index: self._rng.randint(-self._radius, self._radius)
                for index in values
            }
            new_state = new_state.set_array(name, perturbed)
        return new_state


class AdversarialChooser(Chooser):
    """Prefer extreme satisfying assignments (stress-tests acceptability).

    ``seed`` controls the tie-break among equally extreme assignments, so
    adversarial simulation runs are reproducible end to end: the same seed
    replays the same choices, different seeds explore different corners of
    the satisfying set.
    """

    def __init__(
        self,
        radius: int = 8,
        limit: int = 512,
        maximize: bool = True,
        seed: int = 0,
    ) -> None:
        self._radius = radius
        self._limit = limit
        self._maximize = maximize
        self._rng = random.Random(seed)
        self._fallback = SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        formula, candidates = choice_query(statement, state, self._radius)
        models = enumerate_models(
            formula, radius=self._radius, limit=self._limit, candidates=candidates
        )
        if not models:
            return self._fallback.choose(statement, state)
        targets = _scalar_targets(statement, state)
        symbols = [Symbol(name) for name in targets]

        def score(model: Dict[Symbol, int]) -> int:
            return sum(abs(model.get(symbol, 0)) for symbol in symbols)

        scores = [score(model) for model in models]
        best = max(scores) if self._maximize else min(scores)
        extremes = [
            model for model, value in zip(models, scores) if value == best
        ]
        chosen = self._rng.choice(extremes)
        updates = {name: chosen.get(Symbol(name), 0) for name in targets}
        return state.set_scalars(updates)


class FixedChoiceChooser(Chooser):
    """Replay an explicit sequence of choices (one update dict per havoc/relax).

    Each entry maps target variable names to values (and optionally array
    names to full ``{index: value}`` dictionaries).  When the script is
    exhausted, the fallback chooser takes over.
    """

    def __init__(
        self,
        script: Sequence[Mapping[str, object]],
        fallback: Optional[Chooser] = None,
        strict: bool = False,
    ) -> None:
        self._script = list(script)
        self._position = 0
        self._fallback = fallback or MinimalChangeChooser()
        self._strict = strict

    def choose(self, statement, state: State) -> Optional[State]:
        if self._position >= len(self._script):
            if self._strict:
                raise ChooserError("fixed-choice script exhausted")
            return self._fallback.choose(statement, state)
        entry = self._script[self._position]
        self._position += 1
        new_state = state
        for name, value in entry.items():
            if isinstance(value, Mapping):
                new_state = new_state.set_array(name, dict(value))  # type: ignore[arg-type]
            else:
                new_state = new_state.set_scalar(name, int(value))  # type: ignore[arg-type]
        # Validate the scripted choice against the predicate where possible.
        try:
            valuation = Valuation(
                scalars={Symbol(k): v for k, v in new_state.scalar_map().items()},
                arrays={Symbol(k): dict(v) for k, v in new_state.array_map().items()},
            )
            formula = predicate_query(statement.predicate).formula
            if not evaluate_formula(formula, valuation, domain=None):
                if self._strict:
                    raise ChooserError(
                        f"scripted choice {entry} violates the predicate of {statement}"
                    )
                return self._fallback.choose(statement, state)
        except EvaluationError:
            pass
        return new_state


# ---------------------------------------------------------------------------
# Chooser registry
# ---------------------------------------------------------------------------

#: Policy names accepted by :func:`make_chooser` (and the CLI's ``--chooser``).
CHOOSER_POLICIES = ("random", "adversarial", "minimal", "solver")


def make_chooser(policy: str, seed: int = 0, radius: int = 8) -> Chooser:
    """Construct a chooser by policy name with an explicit seed.

    This is the single point through which the CLI and the explorer build
    nondeterminism strategies, so every simulation run is reproducible from
    ``(policy, seed)`` alone.
    """
    if policy == "random":
        return RandomChooser(seed=seed, radius=radius)
    if policy == "adversarial":
        return AdversarialChooser(radius=radius, seed=seed)
    if policy == "minimal":
        return MinimalChangeChooser()
    if policy == "solver":
        return SolverChooser()
    raise ValueError(
        f"unknown chooser policy {policy!r}; expected one of {CHOOSER_POLICIES}"
    )
