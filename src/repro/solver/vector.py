"""Columnar batch evaluation: the numpy-backed ``vector`` solver backend.

The scalar hot paths decide one candidate assignment at a time — a Python
dict per assignment, a closure call per conjunct.  This module turns that
inside out: a *batch* of assignments becomes a table (one int64 column per
symbol, one row per assignment) and every **linear** conjunct of a formula
is decided for the whole batch with a handful of numpy operations
(coefficient × column products, elementwise comparisons, boolean folds).

Two consumers:

* :mod:`repro.solver.models` — the bounded model search sweeps the
  post-prune cartesian space in row chunks (:func:`candidate_columns`
  materialises a chunk in ``itertools.product`` order via mixed-radix
  index arithmetic) and uses a :class:`ConjunctPlan` to reject most rows
  in bulk before any per-row closure runs;
* :mod:`repro.explore.scoring` — :func:`columnar_sum` /
  :func:`columnar_max` aggregate Monte Carlo sample columns with
  *sequential* numpy reductions (``cumsum``), which perform the same
  IEEE-754 operations in the same order as Python's ``sum`` — so scores
  stay byte-identical across backends.

**Soundness.**  The vectorisable fragment — atoms whose sides linearise,
divisibility by a non-zero constant, their boolean combinations, and
quantifiers over that fragment with an explicit domain — is *total*: with
every symbol bound, no formula in it can raise
:class:`~repro.logic.evaluate.EvaluationError` (no division, no arrays,
no unbound symbols).  int64 arithmetic is exact under the magnitude guard
(:func:`values_vectorizable` bounds candidate values, the compiler bounds
coefficient weight, and their product stays far below ``2**63``).  Batch
evaluation of the fragment therefore agrees with the tree walker on every
row, bit for bit.  The vector path only ever uses the batch verdict to
*reject* rows; every accepted model is confirmed by the same scalar
checker the compiled backend uses (or lies in the total fragment, where
confirmation is a tautology).  The one observable divergence is the
direction PR 4 documented for pruning: a row rejected in bulk is never
evaluated scalarly, so an :class:`EvaluationError` the compiled sweep
would have aborted on (reporting ``UNKNOWN``) can be skipped — an
error-abort may become a conclusive ``SAT``, never the reverse.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..logic.formula import (
    And,
    Atom,
    Divides,
    Exists,
    Forall,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Rel,
    Symbol,
    TrueF,
)
from .backend import _numpy
from .linear import NonLinearError, linearize

#: Candidate values admitted into int64 columns: |value| <= 2**20 combined
#: with the compiler's coefficient-weight cap (2**40) keeps every linear
#: atom's row values below 2**61 — no int64 overflow, exact arithmetic.
MAX_COLUMN_MAGNITUDE = 2 ** 20
_MAX_ATOM_WEIGHT = 2 ** 40

#: Rows per batch in the chunked cartesian sweep.
BATCH_ROWS = 4096


class VectorUnsupported(Exception):
    """The formula falls outside the vectorisable (total, linear) fragment."""


# ---------------------------------------------------------------------------
# Backend statistics (benchmarks, telemetry, the --json solver section)
# ---------------------------------------------------------------------------


class _VectorStats:
    """Process-wide counters for the vector backend's work."""

    __slots__ = (
        "rows_evaluated",
        "batches",
        "searches",
        "scalar_fallbacks",
    )

    def __init__(self) -> None:
        self.rows_evaluated = 0
        self.batches = 0
        self.searches = 0
        self.scalar_fallbacks = 0


_VECTOR_STATS = _VectorStats()


def vector_stats() -> Dict[str, int]:
    """Counters for the vector backend's batched work in this process."""
    return {
        "rows_evaluated": _VECTOR_STATS.rows_evaluated,
        "batches": _VECTOR_STATS.batches,
        "searches": _VECTOR_STATS.searches,
        "scalar_fallbacks": _VECTOR_STATS.scalar_fallbacks,
    }


def note_search() -> None:
    """Record that a model search ran on the vector path."""
    _VECTOR_STATS.searches += 1


def note_scalar_fallback() -> None:
    """Record a search that wanted the vector path but fell back to scalar."""
    _VECTOR_STATS.scalar_fallbacks += 1


def reset_vector_stats() -> None:
    """Zero the vector-backend counters."""
    _VECTOR_STATS.rows_evaluated = 0
    _VECTOR_STATS.batches = 0
    _VECTOR_STATS.searches = 0
    _VECTOR_STATS.scalar_fallbacks = 0


# ---------------------------------------------------------------------------
# The vector compiler: formula -> batch closure
# ---------------------------------------------------------------------------

#: A compiled batch evaluator: (columns, row_count, quantifier_domain) ->
#: bool array of row verdicts.  Total on the vectorisable fragment.
VectorClosure = Callable[[Dict[Symbol, object], int, Sequence[int]], object]

#: Memoised closures per interned node (equality is identity, so a plain
#: dict keyed on the node is a perfect cache); failures are cached too.
_COMPILED: Dict[Formula, object] = {}
_UNSUPPORTED = object()


def vector_compile(formula: Formula) -> VectorClosure:
    """Compile ``formula`` into a batch closure, or raise :class:`VectorUnsupported`.

    The supported fragment: atoms over linearisable terms, ``Divides`` by a
    non-zero constant, ``And``/``Or``/``Not``/``Implies``/``Iff``/
    ``TrueF``/``FalseF``, and ``Exists``/``Forall`` whose bodies are in the
    fragment.  Everything in it is total once every symbol has a column and
    a quantifier domain is supplied, so the closures return plain verdicts
    with no error channel.
    """
    cached = _COMPILED.get(formula)
    if cached is _UNSUPPORTED:
        raise VectorUnsupported(f"not vectorizable: {formula}")
    if cached is not None:
        return cached  # type: ignore[return-value]
    try:
        closure = _compile(formula)
    except VectorUnsupported:
        _COMPILED[formula] = _UNSUPPORTED
        raise
    _COMPILED[formula] = closure
    return closure


def _compile(formula: Formula) -> VectorClosure:
    np = _numpy()
    if np is None:
        raise VectorUnsupported("numpy is not installed")

    if isinstance(formula, TrueF):
        return lambda cols, n, domain: np.ones(n, dtype=bool)
    if isinstance(formula, FalseF):
        return lambda cols, n, domain: np.zeros(n, dtype=bool)

    if isinstance(formula, Atom):
        value_of = _atom_value_closure(formula.left, formula.right, np)
        compare = _REL_COMPARE[formula.rel]

        def atom_closure(cols, n, domain, _value=value_of, _cmp=compare):
            verdict = _cmp(_value(cols, n, domain))
            if not isinstance(verdict, np.ndarray):  # constant-only atom
                verdict = np.full(n, bool(verdict), dtype=bool)
            return verdict

        return atom_closure

    if isinstance(formula, Divides):
        if formula.divisor == 0:
            # The scalar semantics raise for a zero divisor — outside the
            # total fragment, so leave it to the scalar residue check.
            raise VectorUnsupported("divisibility by zero")
        value_of = _atom_value_closure(formula.term, None, np)
        divisor = formula.divisor

        def divides_closure(cols, n, domain, _value=value_of, _d=divisor):
            verdict = _value(cols, n, domain) % _d == 0
            if not isinstance(verdict, np.ndarray):
                verdict = np.full(n, bool(verdict), dtype=bool)
            return verdict

        return divides_closure

    if isinstance(formula, Not):
        operand = vector_compile(formula.operand)
        return lambda cols, n, domain: ~operand(cols, n, domain)

    if isinstance(formula, (And, Or)):
        operands = [vector_compile(op) for op in formula.operands]
        if not operands:
            truth = isinstance(formula, And)
            return lambda cols, n, domain: np.full(n, truth, dtype=bool)
        if isinstance(formula, And):

            def and_closure(cols, n, domain, _ops=operands):
                result = _ops[0](cols, n, domain)
                for op in _ops[1:]:
                    result = result & op(cols, n, domain)
                return result

            return and_closure

        def or_closure(cols, n, domain, _ops=operands):
            result = _ops[0](cols, n, domain)
            for op in _ops[1:]:
                result = result | op(cols, n, domain)
            return result

        return or_closure

    if isinstance(formula, Implies):
        antecedent = vector_compile(formula.antecedent)
        consequent = vector_compile(formula.consequent)
        return lambda cols, n, domain: ~antecedent(cols, n, domain) | consequent(
            cols, n, domain
        )

    if isinstance(formula, Iff):
        left = vector_compile(formula.left)
        right = vector_compile(formula.right)
        return lambda cols, n, domain: left(cols, n, domain) == right(cols, n, domain)

    if isinstance(formula, (Exists, Forall)):
        body = vector_compile(formula.body)
        symbol = formula.symbol
        existential = isinstance(formula, Exists)
        # Broadcast columns (one constant column per domain value) are
        # read-only, so they are cached per (row count, value) across
        # batches and searches — the domain loop then allocates nothing.
        broadcast_cache: Dict[Tuple[int, int], object] = {}

        def quantifier_closure(cols, n, domain, _body=body, _sym=symbol, _ex=existential):
            if domain is None:
                # Mirrors the tree walker: quantifiers need a domain.  The
                # search paths always supply one; compile-time callers that
                # do not must stay on the scalar backends.
                raise VectorUnsupported("quantifier without a domain")
            saved = cols.get(_sym)
            result = np.zeros(n, dtype=bool) if _ex else np.ones(n, dtype=bool)
            try:
                for value in domain:
                    if abs(value) > MAX_COLUMN_MAGNITUDE:
                        raise VectorUnsupported("quantifier domain value too large")
                    column = broadcast_cache.get((n, value))
                    if column is None:
                        column = np.full(n, value, dtype=np.int64)
                        broadcast_cache[(n, value)] = column
                    cols[_sym] = column
                    verdicts = _body(cols, n, domain)
                    if _ex:
                        result |= verdicts
                        if result.all():
                            break
                    else:
                        result &= verdicts
                        if not result.any():
                            break
            finally:
                if saved is None:
                    cols.pop(_sym, None)
                else:
                    cols[_sym] = saved
            return result

        return quantifier_closure

    raise VectorUnsupported(f"not vectorizable: {formula}")


_REL_COMPARE = {
    Rel.LT: lambda total: total < 0,
    Rel.LE: lambda total: total <= 0,
    Rel.GT: lambda total: total > 0,
    Rel.GE: lambda total: total >= 0,
    Rel.EQ: lambda total: total == 0,
    Rel.NE: lambda total: total != 0,
}

#: Hard ceiling on any intermediate batch value's magnitude: symbols are
#: bounded by MAX_COLUMN_MAGNITUDE, and bound propagation through the term
#: tree refuses anything that could exceed this — so int64 never wraps.
_MAX_TERM_BOUND = 2 ** 62

#: Memoised term closures per interned term node: (closure, magnitude bound).
_TERM_COMPILED: Dict[object, object] = {}


def _compile_term(term, np):
    """Compile a term to a batch closure with a proven magnitude bound.

    Returns ``(closure, bound)`` where ``closure(cols, n, domain)`` yields
    the term's value per row (an int64 array, or a plain int for
    constant-only terms) and ``|value| <= bound`` for every admissible
    column (the :data:`MAX_COLUMN_MAGNITUDE` guard).  Supported: constants,
    symbols, ``Add``/``Sub``/``Mul``/``Min``/``Max`` and ``Ite`` over the
    vectorisable fragment — everything total and exact.  ``Div``/``Mod``
    (may divide by zero) and array reads stay scalar residue.
    """
    cached = _TERM_COMPILED.get(term)
    if cached is _UNSUPPORTED:
        raise VectorUnsupported(f"term not vectorizable: {term}")
    if cached is not None:
        return cached  # type: ignore[return-value]
    try:
        compiled = _compile_term_inner(term, np)
    except VectorUnsupported:
        _TERM_COMPILED[term] = _UNSUPPORTED
        raise
    _TERM_COMPILED[term] = compiled
    return compiled


def _compile_term_inner(term, np):
    from ..logic.formula import Add, Const, Ite, Max, Min, Mul, Sub, SymTerm

    if isinstance(term, Const):
        value = term.value
        return (lambda cols, n, domain: value), abs(value)
    if isinstance(term, SymTerm):
        symbol = term.symbol
        return (lambda cols, n, domain: cols[symbol]), MAX_COLUMN_MAGNITUDE
    if isinstance(term, (Add, Sub, Mul, Min, Max)):
        left, left_bound = _compile_term(term.left, np)
        right, right_bound = _compile_term(term.right, np)
        if isinstance(term, Add):
            bound = left_bound + right_bound
            closure = lambda cols, n, domain: left(cols, n, domain) + right(cols, n, domain)
        elif isinstance(term, Sub):
            bound = left_bound + right_bound
            closure = lambda cols, n, domain: left(cols, n, domain) - right(cols, n, domain)
        elif isinstance(term, Mul):
            bound = left_bound * right_bound
            closure = lambda cols, n, domain: left(cols, n, domain) * right(cols, n, domain)
        else:
            bound = max(left_bound, right_bound)
            fold = np.minimum if isinstance(term, Min) else np.maximum
            closure = lambda cols, n, domain, _fold=fold: _fold(
                left(cols, n, domain), right(cols, n, domain)
            )
        if bound > _MAX_TERM_BOUND:
            raise VectorUnsupported("term magnitude could exceed exact int64")
        return closure, bound
    if isinstance(term, Ite):
        condition = vector_compile(term.condition)
        then_value, then_bound = _compile_term(term.then_term, np)
        else_value, else_bound = _compile_term(term.else_term, np)

        def ite_closure(cols, n, domain):
            # Both branches are total, so evaluating them eagerly (np.where)
            # agrees with the scalar walker's lazy branch selection.
            return np.where(
                condition(cols, n, domain),
                then_value(cols, n, domain),
                else_value(cols, n, domain),
            )

        return ite_closure, max(then_bound, else_bound)
    raise VectorUnsupported(f"term not vectorizable: {term}")


def _atom_value_closure(left, right, np):
    """A batch closure for ``left - right`` (or just ``left`` when right is None).

    Prefers the linearised form — constant folding and merged coefficients
    mean fewer array operations — and falls back to the general term
    compiler for non-linear polynomial atoms (products of symbols,
    min/max, if-then-else).
    """
    try:
        lin = linearize(left) if right is None else linearize(left).subtract(linearize(right))
    except NonLinearError:
        lin = None
    if lin is not None:
        weight = sum(abs(c) for _s, c in lin.coeffs) + abs(lin.constant)
        if weight > _MAX_ATOM_WEIGHT:
            raise VectorUnsupported("atom coefficients too large for exact int64")
        coeffs, constant = lin.coeffs, lin.constant

        def linear_value(cols, n, domain, _coeffs=coeffs, _k=constant):
            total = None
            for symbol, coeff in _coeffs:
                part = cols[symbol] * coeff
                total = part if total is None else total + part
            if total is None:
                return _k
            if _k:
                total = total + _k
            return total

        return linear_value
    left_value, left_bound = _compile_term(left, np)
    if right is None:
        return left_value
    right_value, right_bound = _compile_term(right, np)
    if left_bound + right_bound > _MAX_TERM_BOUND:
        raise VectorUnsupported("atom difference could exceed exact int64")
    return lambda cols, n, domain: left_value(cols, n, domain) - right_value(cols, n, domain)


# ---------------------------------------------------------------------------
# Conjunct plan: split a conjunction into batch mask + scalar residue
# ---------------------------------------------------------------------------


class ConjunctPlan:
    """A conjunction split into a vectorised mask and a scalar residue.

    ``mask(cols, n, domain)`` is the AND of every vectorisable conjunct
    over the batch; ``residue`` lists the conjuncts it could not cover
    (non-linear atoms, arrays-free ``Div``/``Mod``/``Ite`` terms, ...).
    Rows the mask rejects are definitively non-models; rows it accepts
    still owe the residue a scalar check (the caller uses the *full*
    compiled checker there, so accepted rows reproduce the compiled
    backend's behaviour — including its error aborts — exactly).
    """

    __slots__ = ("_closures", "residue", "vector_count")

    def __init__(self, closures: List[VectorClosure], residue: List[Formula]) -> None:
        self._closures = closures
        self.residue = residue
        self.vector_count = len(closures)

    def mask(self, cols: Dict[Symbol, object], n: int, domain: Sequence[int]):
        result = self._closures[0](cols, n, domain)
        for closure in self._closures[1:]:
            if not result.any():
                break
            result = result & closure(cols, n, domain)
        return result


def plan_conjuncts(conjuncts: Sequence[Formula]) -> Optional[ConjunctPlan]:
    """Split ``conjuncts`` for batch evaluation; ``None`` when nothing vectorises."""
    if _numpy() is None:
        return None
    closures: List[VectorClosure] = []
    residue: List[Formula] = []
    for conjunct in conjuncts:
        try:
            closures.append(vector_compile(conjunct))
        except VectorUnsupported:
            residue.append(conjunct)
    if not closures:
        return None
    return ConjunctPlan(closures, residue)


# ---------------------------------------------------------------------------
# Chunked cartesian row generation (itertools.product order)
# ---------------------------------------------------------------------------


def values_vectorizable(
    per_symbol_values: Sequence[Sequence[int]], domain: Sequence[int]
) -> bool:
    """True when every candidate and domain value fits the magnitude guard."""
    for values in per_symbol_values:
        for value in values:
            if abs(value) > MAX_COLUMN_MAGNITUDE:
                return False
    for value in domain:
        if abs(value) > MAX_COLUMN_MAGNITUDE:
            return False
    return True


def candidate_columns(
    symbols: Sequence[Symbol],
    per_symbol_values: Sequence[Sequence[int]],
    start: int,
    stop: int,
) -> Tuple[Dict[Symbol, object], int]:
    """Rows ``[start, stop)`` of the cartesian product, as int64 columns.

    Row ``i`` is exactly the ``i``-th tuple ``itertools.product`` would
    yield over the same value lists (mixed-radix decoding of the row
    index), so the chunked sweep visits assignments in the same order as
    the scalar sweep — the first model found is the same model.
    """
    np = _numpy()
    indices = np.arange(start, stop, dtype=np.int64)
    n = int(stop - start)
    cols: Dict[Symbol, object] = {}
    stride = 1
    for position in range(len(symbols) - 1, -1, -1):
        values = np.asarray(per_symbol_values[position], dtype=np.int64)
        length = len(values)
        cols[symbols[position]] = values[(indices // stride) % length]
        stride *= length
    _VECTOR_STATS.batches += 1
    _VECTOR_STATS.rows_evaluated += n
    telemetry.observe("solver.vector.batch_rows", n)
    return cols, n


# ---------------------------------------------------------------------------
# Columnar aggregation (Monte Carlo scoring)
# ---------------------------------------------------------------------------


def columnar_sum(values: Sequence[float]) -> float:
    """Sum via a *sequential* numpy reduction — byte-identical to ``sum()``.

    ``np.cumsum`` accumulates left to right, performing exactly the IEEE
    additions Python's ``sum`` performs (``np.sum``'s pairwise reduction
    would not), so scores computed on the vector backend match the scalar
    backends bit for bit.
    """
    np = _numpy()
    if np is None or not values:
        return float(sum(values))
    return float(np.cumsum(np.asarray(values, dtype=np.float64))[-1])


def columnar_max(values: Sequence[float]) -> float:
    """Max over a column (exact — max has no rounding to diverge on)."""
    np = _numpy()
    if np is None or not values:
        return float(max(values)) if values else 0.0
    return float(np.asarray(values, dtype=np.float64).max())
