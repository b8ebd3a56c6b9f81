"""Strategy portfolios: alternative solver configurations per obligation.

Every configuration of :class:`~repro.solver.interface.Solver` is
*conservative* — a conclusive verdict (``VALID`` / ``INVALID`` / ``SAT`` /
``UNSAT``) is correct under any budget, and budget exhaustion only ever
yields ``UNKNOWN``.  That makes solver configurations freely composable into
a portfolio: strategies are attempted in sequence and the first conclusive
verdict wins; an ``UNKNOWN`` merely hands the obligation to the next
strategy.

The portfolio also *learns*: it records which strategy produced the
conclusive verdict for each obligation kind and reorders future attempts by
win count, so a corpus dominated by (say) quick cube-solvable entailments
stops paying the full-pipeline start-up cost on every obligation.  Win
tables can be persisted next to the obligation cache and merged back from
parallel workers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import telemetry
from ..logic.formula import Formula
from ..solver.interface import Solver, SolverResult, SolverStatistics
from ..solver.lia import Status

_STATS_FILENAME = "portfolio_stats.json"

#: Statuses that end a portfolio run, per query kind ("validity" /
#: "satisfiability" — the values of ObligationKind, kept as strings here so
#: worker processes need not unpickle the hoare layer).
_CONCLUSIVE = {
    "validity": (Status.VALID, Status.INVALID),
    "satisfiability": (Status.SAT, Status.UNSAT),
}


@dataclass(frozen=True)
class SolverStrategy:
    """One named solver configuration (picklable; solvers built per use)."""

    name: str
    max_cubes: int = 4096
    branch_depth: int = 40
    bounded_radius: int = 4
    enable_cooper: bool = True
    enable_bounded_fallback: bool = True

    def build(self) -> Solver:
        return Solver(
            max_cubes=self.max_cubes,
            branch_depth=self.branch_depth,
            bounded_radius=self.bounded_radius,
            enable_cooper=self.enable_cooper,
            enable_bounded_fallback=self.enable_bounded_fallback,
        )


#: The default portfolio: a cheap cube-only probe, the complete pipeline,
#: then a wider bounded model search for obligations the complete
#: procedures gave up on.
DEFAULT_STRATEGIES: Tuple[SolverStrategy, ...] = (
    SolverStrategy(
        "cube-fast",
        max_cubes=1024,
        branch_depth=24,
        enable_cooper=False,
        enable_bounded_fallback=False,
    ),
    SolverStrategy("full"),
    SolverStrategy(
        "bounded-probe",
        max_cubes=512,
        branch_depth=16,
        bounded_radius=6,
    ),
)


def is_conclusive(kind: str, status: Status) -> bool:
    """Whether ``status`` settles an obligation of the given kind."""
    return status in _CONCLUSIVE.get(kind, ())


def run_portfolio(
    formula: Formula,
    kind: str,
    strategies: Sequence[SolverStrategy],
    budget_seconds: Optional[float] = None,
    statistics: Optional["SolverStatistics"] = None,
) -> Tuple[SolverResult, str, int]:
    """Attempt ``strategies`` in order until one is conclusive.

    Returns ``(result, winning_strategy_name, attempts)``; the winner is
    ``""`` when no strategy concluded, and the result's reason then names
    every strategy attempted, in order (``cube-fast: …; full: …``), so the
    strongest attempt's reason is not hidden behind a weaker one's.
    ``budget_seconds`` bounds the *total* wall clock across strategies: once
    spent, remaining strategies are skipped (at least one strategy always
    runs).  The budget is checked *between* strategies only — a strategy
    that is already running is never preempted, so one slow
    decision-procedure call can overshoot the budget; hard preemption would
    require killing worker processes mid-solve.

    When ``statistics`` is given, every attempted solver's counters are
    merged into it (the scheduler ships them back to the engine so batch
    reports can expose solver-level statistics across worker processes).
    """
    start = time.perf_counter()
    last = SolverResult(Status.UNKNOWN)
    reasons: List[str] = []
    attempts = 0
    for strategy in strategies:
        if (
            budget_seconds is not None
            and attempts > 0
            and time.perf_counter() - start >= budget_seconds
        ):
            return (
                replace(
                    last,
                    reason=(
                        f"per-obligation budget of {budget_seconds:g}s exhausted "
                        f"after {attempts} strategies ({'; '.join(reasons)})"
                    ),
                ),
                "",
                attempts,
            )
        solver = strategy.build()
        with telemetry.span("strategy", name=strategy.name, kind=kind) as attempt_span:
            if kind == "validity":
                result = solver.check_valid(formula)
            else:
                result = solver.check_sat(formula)
            attempt_span.set_attribute("status", result.status.value)
        attempts += 1
        if statistics is not None:
            statistics.merge(solver.statistics.as_dict())
            # The breakdown the win table lacks: how long each strategy
            # actually ran, not just whether it concluded.
            statistics.add_strategy_seconds(
                strategy.name, solver.statistics.total_seconds
            )
        if is_conclusive(kind, result.status):
            return result, strategy.name, attempts
        last = result
        reasons.append(f"{strategy.name}: {result.reason or result.status.value}")
    return replace(last, reason="; ".join(reasons) or "no strategy attempted"), "", attempts


class Portfolio:
    """An ordered strategy collection with a per-kind win table."""

    def __init__(self, strategies: Optional[Sequence[SolverStrategy]] = None) -> None:
        self.strategies: Tuple[SolverStrategy, ...] = tuple(
            strategies if strategies is not None else DEFAULT_STRATEGIES
        )
        if not self.strategies:
            raise ValueError("a portfolio needs at least one strategy")
        names = [strategy.name for strategy in self.strategies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategy names: {names}")
        # wins[kind][name] -> conclusive verdicts produced.
        self.wins: Dict[str, Dict[str, int]] = {}

    def order_for(self, kind: str) -> Tuple[SolverStrategy, ...]:
        """Strategies ordered by historical wins for ``kind`` (stable)."""
        table = self.wins.get(kind)
        if not table:
            return self.strategies
        indexed = list(enumerate(self.strategies))
        indexed.sort(key=lambda pair: (-table.get(pair[1].name, 0), pair[0]))
        return tuple(strategy for _index, strategy in indexed)

    def record_win(self, kind: str, name: str, count: int = 1) -> None:
        table = self.wins.setdefault(kind, {})
        table[name] = table.get(name, 0) + count

    def merge_wins(self, wins: Dict[str, Dict[str, int]]) -> None:
        for kind, table in wins.items():
            for name, count in table.items():
                self.record_win(kind, name, count)

    def win_table(self) -> Dict[str, Dict[str, int]]:
        return {kind: dict(table) for kind, table in self.wins.items()}

    # -- persistence -------------------------------------------------------------

    def save(self, directory: str) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, _STATS_FILENAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"wins": self.win_table()}, handle)
        return path

    def load(self, directory: str) -> bool:
        path = os.path.join(directory, _STATS_FILENAME)
        if not os.path.exists(path):
            return False
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            wins = payload.get("wins", {})
            known = {strategy.name for strategy in self.strategies}
            for kind, table in wins.items():
                for name, count in table.items():
                    if name in known:
                        self.record_win(str(kind), str(name), int(count))
            return True
        except (OSError, ValueError, TypeError):
            return False
