"""The obligation engine: cached, parallel, portfolio-scheduled discharge.

:class:`ObligationEngine` sits between the Hoare layer (which *collects*
proof obligations) and the solver stack (which *decides* individual
queries).  Every entry point — a single case study, a batch, an explorer
generation — discharges through the same path.  For every batch of
obligations the engine:

1. computes each obligation's canonical fingerprint
   (:mod:`repro.engine.fingerprint`), once;
2. answers it from the verdict store (:mod:`repro.engine.cache`) without
   touching a solver — first the session tier (every verdict this engine
   settled in an earlier wave, ``UNKNOWN`` included), then the persistent
   tier (conclusive verdicts, optionally on disk) — or from an identical
   obligation pending earlier in the same wave;
3. discharges the remaining obligations through the strategy portfolio
   (:mod:`repro.engine.portfolio`) on the scheduler
   (:mod:`repro.engine.scheduler`), in-process for one job;
4. records every settled verdict in the session tier, stores conclusive
   ones in the persistent tier, and credits the winning strategy so future
   obligations try it first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from .. import telemetry
from ..hoare.obligations import (
    ObligationCollector,
    ObligationResult,
    ProofObligation,
    VerificationReport,
)
from ..solver.backend import requested_backend
from ..solver.interface import SolverStatistics
from ..solver.lia import Status
from .cache import ObligationCache
from .fingerprint import fingerprint
from .portfolio import Portfolio, is_conclusive
from .scheduler import DischargeScheduler, DischargeTask


@dataclass
class EngineStatistics:
    """Aggregate statistics over the lifetime of an engine instance.

    The store counters — ``cache_hits`` / ``cache_misses`` (persistent
    tier) and ``incremental_reused`` (session tier) — are read from the
    engine's :class:`~repro.engine.cache.ObligationCache`, not kept twice.
    """

    cache: ObligationCache = field(repr=False, compare=False)
    #: Every obligation passed to the engine, however it was answered.
    obligations: int = 0
    dedup_hits: int = 0  # in-wave duplicates answered by a representative
    solver_calls: int = 0
    strategy_attempts: int = 0
    parallel_batches: int = 0
    unknown_results: int = 0
    total_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    @property
    def incremental_reused(self) -> int:
        """Obligations replayed from the session tier (settled in an earlier wave)."""
        return self.cache.reused

    @property
    def delta_obligations(self) -> int:
        """Obligations the session tier did not answer (the rest of ``obligations``)."""
        return self.obligations - self.incremental_reused

    def as_dict(self) -> Dict[str, float]:
        return {
            "obligations": float(self.obligations),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "dedup_hits": float(self.dedup_hits),
            "incremental_reused": float(self.incremental_reused),
            "delta_obligations": float(self.delta_obligations),
            "solver_calls": float(self.solver_calls),
            "strategy_attempts": float(self.strategy_attempts),
            "parallel_batches": float(self.parallel_batches),
            "unknown_results": float(self.unknown_results),
            "total_seconds": self.total_seconds,
        }


class DischargedWave(NamedTuple):
    """One :meth:`ObligationEngine.discharge_wave`, in input order."""

    results: List[ObligationResult]
    #: Each obligation's canonical fingerprint.
    keys: List[str]
    #: True where the session tier replayed a verdict settled earlier.
    reused: List[bool]


def _replayed(
    obligation: ProofObligation,
    status: Status,
    model: Optional[Dict],
    reason: str,
) -> ObligationResult:
    """A result answered without a solver call (store hit or dedup follower)."""
    return ObligationResult(
        obligation=obligation,
        status=status,
        counterexample=dict(model) if model is not None else None,
        elapsed_seconds=0.0,
        reason=reason,
    )


class ObligationEngine:
    """Discharges proof obligations through store, portfolio and scheduler.

    Parameters
    ----------
    jobs:
        Worker processes for discharge (``1`` runs in-process).
    cache_dir:
        Directory the persistent tier of the verdict store and the
        portfolio win table are loaded from and saved to.  ``None`` keeps
        both in memory for the engine's lifetime.
    budget_seconds:
        Per-obligation wall-clock budget across portfolio strategies.
    portfolio:
        The strategy portfolio; defaults to
        :data:`~repro.engine.portfolio.DEFAULT_STRATEGIES` with the win
        table from ``cache_dir``.  Tests pass their own to substitute
        strategies.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        budget_seconds: Optional[float] = None,
        portfolio: Optional[Portfolio] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if portfolio is None:
            portfolio = Portfolio()
            if cache_dir is not None:
                portfolio.load(cache_dir)
        self.jobs = jobs
        self.cache = ObligationCache(cache_dir=cache_dir)
        self.portfolio = portfolio
        self.budget_seconds = budget_seconds
        self.statistics = EngineStatistics(cache=self.cache)
        #: Solver-level counters aggregated across every discharge this
        #: engine performed, merged from the statistics each outcome ships
        #: back (from worker processes too).
        self.solver_statistics = SolverStatistics()
        self._scheduler = DischargeScheduler(jobs=jobs)

    # -- discharge ---------------------------------------------------------------

    def discharge_all(
        self, obligations: Sequence[ProofObligation]
    ) -> List[ObligationResult]:
        """Discharge every obligation, in order, through the store and solvers."""
        return self.discharge_wave(obligations).results

    def discharge_wave(self, obligations: Sequence[ProofObligation]) -> DischargedWave:
        """:meth:`discharge_all`, plus each obligation's key and reuse flag.

        Each obligation is fingerprinted once, then answered by the first
        of: the session tier (verdicts settled in earlier waves), the
        persistent tier, an identical obligation pending earlier in this
        wave, or a solver.  Every settled verdict enters the session tier
        after the wave, so duplicates within one wave keep their per-wave
        accounting (a repeated disk hit counts two cache hits, a repeated
        miss one dedup hit).
        """
        start = time.perf_counter()
        count = len(obligations)
        results: List[Optional[ObligationResult]] = [None] * count
        keys: List[str] = []
        reused = [False] * count
        pending: List[int] = []
        # Duplicate obligations inside one wave (e.g. the same entailment
        # arising in several programs of a batch) are solved once: later
        # occurrences wait for the representative's verdict.
        cache = self.cache
        pending_by_key: Dict[str, int] = {}
        duplicates: Dict[int, List[int]] = {}
        self.statistics.obligations += count

        with telemetry.span("discharge.wave", obligations=count):
            with telemetry.span("fingerprint", obligations=count):
                for index, obligation in enumerate(obligations):
                    key = fingerprint(obligation.formula, obligation.kind.value)
                    keys.append(key)
                    # A pending key already missed both tiers, and neither
                    # changes before the wave ends.
                    representative = pending_by_key.get(key)
                    if representative is not None:
                        duplicates.setdefault(representative, []).append(index)
                        continue
                    verdict = cache.recall(key)
                    if verdict is not None:
                        reused[index] = True
                    else:
                        verdict = cache.get(key)
                        telemetry.count(
                            "engine.cache.misses"
                            if verdict is None
                            else "engine.cache.hits." + verdict.origin
                        )
                    if verdict is not None:
                        results[index] = _replayed(
                            obligation, verdict.status, verdict.model, verdict.reason
                        )
                        continue
                    pending_by_key[key] = index
                    pending.append(index)

            if pending:
                with telemetry.span("dispatch", pending=len(pending), jobs=self.jobs):
                    self._discharge(obligations, pending, keys, results)

        for representative, followers in duplicates.items():
            settled = results[representative]
            assert settled is not None
            for index in followers:
                self.statistics.dedup_hits += 1
                telemetry.count("engine.dedup.hits")
                results[index] = _replayed(
                    obligations[index], settled.status, settled.counterexample, settled.reason
                )

        # Exactly one result per obligation, in input order — the batch
        # layer's offset-based scatter depends on it, so fail loudly rather
        # than silently shifting verdicts between programs.
        settled_results = [result for result in results if result is not None]
        if len(settled_results) != count:
            raise RuntimeError(
                f"discharge_all settled {len(settled_results)} of {count} obligations"
            )
        for key, result in zip(keys, settled_results):
            cache.record(key, result.status, result.counterexample, result.reason)
        reused_count = sum(reused)
        telemetry.count("engine.incremental.reused", reused_count)
        telemetry.count("engine.incremental.delta", count - reused_count)
        cache.save()
        self.statistics.total_seconds += time.perf_counter() - start
        return DischargedWave(settled_results, keys, reused)

    def discharge_collected(
        self, collector: ObligationCollector, program_name: str
    ) -> VerificationReport:
        """Build a :class:`VerificationReport` for a collector's obligations."""
        start = time.perf_counter()
        report = VerificationReport(
            system=collector.system,
            program_name=program_name,
            rule_applications=dict(collector.rule_applications),
            errors=list(collector.errors),
        )
        report.results = self.discharge_all(collector.obligations)
        report.elapsed_seconds = time.perf_counter() - start
        return report

    # -- discharge ----------------------------------------------------------------

    def _discharge(
        self,
        obligations: Sequence[ProofObligation],
        pending: Sequence[int],
        keys: Sequence[str],
        results: List[Optional[ObligationResult]],
    ) -> None:
        """Run the portfolio on every pending obligation, via the scheduler."""
        collect_telemetry = telemetry.enabled()
        tasks = []
        for index in pending:
            obligation = obligations[index]
            kind = obligation.kind.value
            provenance = obligation.provenance
            label = ""
            if provenance is not None:
                parts = [provenance.program or provenance.study]
                if provenance.span is not None:
                    parts.append(provenance.location())
                label = " @ ".join(part for part in parts if part)
            tasks.append(
                DischargeTask(
                    index=index,
                    formula=obligation.formula,
                    kind=kind,
                    strategies=self.portfolio.order_for(kind),
                    budget_seconds=self.budget_seconds,
                    collect_telemetry=collect_telemetry,
                    label=label,
                    backend=requested_backend(),
                )
            )
        if len(tasks) > 1 and self.jobs > 1:
            self.statistics.parallel_batches += 1
        for outcome in self._scheduler.run(tasks):
            obligation = obligations[outcome.index]
            self.statistics.solver_calls += outcome.attempts
            self.statistics.strategy_attempts += outcome.attempts
            if outcome.status is Status.UNKNOWN:
                self.statistics.unknown_results += 1
            if outcome.solver_stats is not None:
                self.solver_statistics.merge(outcome.solver_stats)
            if outcome.telemetry is not None:
                # Worker-process spans arrive as an exported session;
                # re-parent them under the open dispatch span so the
                # trace stays one tree across processes.
                telemetry.merge_exported(outcome.telemetry)
            if outcome.strategy and is_conclusive(obligation.kind.value, outcome.status):
                self.portfolio.record_win(obligation.kind.value, outcome.strategy)
                telemetry.count(
                    f"portfolio.wins.{obligation.kind.value}.{outcome.strategy}"
                )
            results[outcome.index] = ObligationResult(
                obligation=obligation,
                status=outcome.status,
                counterexample=outcome.model,
                elapsed_seconds=outcome.elapsed_seconds,
                reason=outcome.reason,
            )
            self.cache.put(
                keys[outcome.index],
                outcome.status,
                model=outcome.model,
                reason=outcome.reason,
                strategy=outcome.strategy,
            )

    # -- persistence / reporting --------------------------------------------------

    def save(self) -> None:
        """Flush the cache and portfolio win table to their cache directory."""
        self.cache.save()
        if self.cache.cache_dir is not None:
            self.portfolio.save(self.cache.cache_dir)

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            "engine": self.statistics.as_dict(),
            "solver": self.solver_statistics.as_dict(),
            "cache": self.cache.stats(),
        }
