"""Tests for the obligation engine: portfolio, scheduler, caching, parity.

The key invariants:

* the engine's serial default reproduces the seed's discharge loop (same
  verdicts, same solver statistics accounting);
* store hits replay the original verdict without any solver call; the
  session tier replays ``UNKNOWN`` within one engine, but ``UNKNOWN`` never
  enters the persistent tier (budget exhaustion cannot masquerade as a
  proof in a later run);
* parallel and portfolio discharge produce verdicts identical to the serial
  path.
"""

import pytest

from repro.engine.cache import ObligationCache
from repro.engine.core import ObligationEngine
from repro.engine.portfolio import (
    DEFAULT_STRATEGIES,
    Portfolio,
    SolverStrategy,
    run_portfolio,
)
from repro.engine.scheduler import DischargeScheduler, DischargeTask
from repro.hoare.obligations import (
    ObligationCollector,
    ObligationKind,
    ProofSystem,
)
from repro.hoare.unary import prove_original
from repro.lang import builder as b
from repro.logic.formula import conj, eq, exists, ge, gt, implies, le, lt, sym, var
from repro.solver.interface import Solver
from repro.solver.lia import Status


def _collector(*entries):
    collector = ObligationCollector(ProofSystem.ORIGINAL)
    for index, (formula, kind) in enumerate(entries):
        collector.add(formula, kind, rule=f"rule{index}", description=f"obligation {index}")
    return collector


VALID_FORMULA = implies(gt(var("x"), 2), gt(var("x"), 1))
INVALID_FORMULA = implies(gt(var("x"), 1), gt(var("x"), 2))
SAT_FORMULA = conj(ge(var("x"), 0), le(var("x"), 10))
UNSAT_FORMULA = conj(gt(var("x"), 5), lt(var("x"), 3))


class TestPortfolio:
    def test_first_conclusive_strategy_wins(self):
        result, winner, attempts = run_portfolio(
            VALID_FORMULA, "validity", DEFAULT_STRATEGIES
        )
        assert result.status is Status.VALID
        assert winner == DEFAULT_STRATEGIES[0].name
        assert attempts == 1

    def test_sat_kind_conclusiveness(self):
        result, winner, _ = run_portfolio(SAT_FORMULA, "satisfiability", DEFAULT_STRATEGIES)
        assert result.status is Status.SAT
        assert winner

    def test_win_table_reorders_strategies(self):
        portfolio = Portfolio()
        last = portfolio.strategies[-1].name
        for _ in range(5):
            portfolio.record_win("validity", last)
        assert portfolio.order_for("validity")[0].name == last
        # Other kinds keep the declared order.
        assert portfolio.order_for("satisfiability") == portfolio.strategies

    def test_merge_and_persist_wins(self, tmp_path):
        portfolio = Portfolio()
        portfolio.merge_wins({"validity": {"full": 3}})
        portfolio.save(str(tmp_path))
        fresh = Portfolio()
        assert fresh.load(str(tmp_path))
        assert fresh.wins["validity"]["full"] == 3

    def test_duplicate_strategy_names_rejected(self):
        with pytest.raises(ValueError):
            Portfolio([SolverStrategy("a"), SolverStrategy("a")])

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            Portfolio([])


class TestScheduler:
    def _tasks(self):
        return [
            DischargeTask(0, VALID_FORMULA, "validity", DEFAULT_STRATEGIES),
            DischargeTask(1, UNSAT_FORMULA, "satisfiability", DEFAULT_STRATEGIES),
            DischargeTask(2, SAT_FORMULA, "satisfiability", DEFAULT_STRATEGIES),
            DischargeTask(3, INVALID_FORMULA, "validity", DEFAULT_STRATEGIES),
        ]

    def test_serial_run(self):
        outcomes = DischargeScheduler(jobs=1).run(self._tasks())
        assert [outcome.status for outcome in outcomes] == [
            Status.VALID,
            Status.UNSAT,
            Status.SAT,
            Status.INVALID,
        ]

    def test_parallel_matches_serial(self):
        serial = DischargeScheduler(jobs=1).run(self._tasks())
        parallel = DischargeScheduler(jobs=2).run(self._tasks())
        assert [o.status for o in serial] == [o.status for o in parallel]
        assert [o.index for o in parallel] == [0, 1, 2, 3]

    def test_counterexample_models_survive_the_pool(self):
        outcomes = DischargeScheduler(jobs=2).run(
            [
                DischargeTask(0, INVALID_FORMULA, "validity", DEFAULT_STRATEGIES),
                DischargeTask(1, SAT_FORMULA, "satisfiability", DEFAULT_STRATEGIES),
            ]
        )
        assert outcomes[0].model is not None
        assert outcomes[1].model is not None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            DischargeScheduler(jobs=0)

    def test_outcomes_carry_solver_statistics(self):
        for jobs in (1, 2):
            outcomes = DischargeScheduler(jobs=jobs).run(self._tasks())
            for outcome in outcomes:
                assert outcome.solver_stats is not None
                assert outcome.solver_stats["sat_queries"] >= 1


class TestSolverStatisticsAggregation:
    def test_serial_engine_aggregates_solver_counters(self):
        engine = ObligationEngine()
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        assert stats["validity_queries"] == 1
        assert stats["total_seconds"] > 0

    def test_serial_delta_excludes_outside_queries(self):
        solver = Solver()
        solver.check_sat(SAT_FORMULA)  # made by the caller, not the engine
        engine = ObligationEngine(solver=solver)
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        # One validity query implies one inner sat query — not two.
        assert stats["sat_queries"] == 1
        assert stats["validity_queries"] == 1

    def test_portfolio_engine_aggregates_worker_counters(self):
        engine = ObligationEngine(jobs=2, portfolio=Portfolio())
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
        )
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        assert stats["sat_queries"] >= 2
        assert engine.stats()["solver"] == stats


class TestEngineSerialParity:
    def test_default_engine_matches_seed_loop(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        solver = Solver()
        report = ObligationEngine(solver=solver).discharge_collected(collector, "demo")
        assert [result.status for result in report.results] == [
            Status.VALID,
            Status.SAT,
            Status.INVALID,
        ]
        assert not report.verified  # the INVALID obligation is undischarged
        # The shared solver's statistics keep accumulating, as in the seed.
        assert solver.statistics.validity_queries == 2
        assert solver.statistics.sat_queries >= 3  # check_valid negates into check_sat

    def test_prove_original_accepts_engine(self):
        program = b.program("inc", b.assign("x", b.add(b.v("x"), 1)), variables=("x",))
        engine = ObligationEngine(cache=ObligationCache(), portfolio=Portfolio())
        report = prove_original(program, ge(var("x"), 0), ge(var("x"), 1), engine=engine)
        assert report.verified
        assert engine.statistics.obligations == 1


class TestEngineCaching:
    def test_cache_hit_skips_solver_and_replays_verdict(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine(cache=ObligationCache(), portfolio=Portfolio())
        first = engine.discharge_all(collector.obligations)
        calls_after_first = engine.statistics.solver_calls
        second = engine.discharge_all(collector.obligations)
        assert engine.statistics.solver_calls == calls_after_first  # zero new calls
        # A later wave of the same engine is answered by the session tier.
        assert engine.statistics.incremental_reused == 2
        assert [r.status for r in first] == [r.status for r in second]
        # The cached counterexample is replayed too.
        assert second[1].counterexample == first[1].counterexample

    def test_alpha_equivalent_obligation_hits(self):
        left = _collector((exists(sym("x"), gt(var("x"), 0)), ObligationKind.SATISFIABILITY))
        right = _collector((exists(sym("y"), gt(var("y"), 0)), ObligationKind.SATISFIABILITY))
        engine = ObligationEngine(cache=ObligationCache(), portfolio=Portfolio())
        engine.discharge_all(left.obligations)
        engine.discharge_all(right.obligations)
        assert engine.statistics.incremental_reused == 1

    def test_unknown_is_not_cached(self, tmp_path):
        # A non-linear obligation the procedures cannot settle: x*x == 2.
        unknowable = eq(var("x") * var("x"), 2)
        collector = _collector((unknowable, ObligationKind.SATISFIABILITY))

        def engine():
            return ObligationEngine(
                cache=ObligationCache(cache_dir=str(tmp_path)),
                portfolio=Portfolio(
                    [SolverStrategy("no-fallback", enable_bounded_fallback=False)]
                ),
            )

        first_engine = engine()
        first = first_engine.discharge_all(collector.obligations)
        assert first[0].status is Status.UNKNOWN
        calls = first_engine.statistics.solver_calls
        second = first_engine.discharge_all(collector.obligations)
        assert second[0].status is Status.UNKNOWN
        # Within one engine the session tier replays the UNKNOWN ...
        assert first_engine.statistics.solver_calls == calls
        assert first_engine.statistics.incremental_reused == 1
        first_engine.save()
        # ... but it never reaches the persistent store: a fresh engine on
        # the same directory re-attempts the obligation.
        fresh = engine()
        third = fresh.discharge_all(collector.obligations)
        assert third[0].status is Status.UNKNOWN
        assert fresh.statistics.solver_calls > 0
        assert fresh.statistics.cache_hits == 0

    def test_validity_and_sat_of_same_formula_do_not_collide(self):
        collector = _collector(
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (SAT_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine(cache=ObligationCache(), portfolio=Portfolio())
        results = engine.discharge_all(collector.obligations)
        assert results[0].status is Status.SAT
        # x in [0, 10] is satisfiable but certainly not valid.
        assert results[1].status is Status.INVALID
        assert engine.statistics.cache_hits == 0

    def test_persistent_cache_across_engines(self, tmp_path):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        first = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        first.discharge_all(collector.obligations)
        first.save()
        second = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        results = second.discharge_all(collector.obligations)
        assert results[0].status is Status.VALID
        assert second.statistics.solver_calls == 0
        assert second.statistics.cache_hits == 1


class TestEngineParallel:
    def test_parallel_verdicts_match_serial(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        serial = ObligationEngine(solver=Solver()).discharge_all(collector.obligations)
        parallel = ObligationEngine(jobs=2).discharge_all(collector.obligations)
        assert [r.status for r in serial] == [r.status for r in parallel]

    def test_portfolio_path_dedupes_without_a_cache(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine(cache=None, portfolio=Portfolio())
        results = engine.discharge_all(collector.obligations)
        assert [r.status for r in results] == [Status.VALID] * 3
        assert engine.statistics.solver_calls == 1
        assert engine.statistics.dedup_hits == 2

    def test_plain_serial_path_does_not_dedupe(self):
        # Seed parity: without cache or portfolio every obligation gets its
        # own solver call, duplicates included.
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        solver = Solver()
        engine = ObligationEngine(solver=solver)
        engine.discharge_all(collector.obligations)
        assert solver.statistics.validity_queries == 2
        assert engine.statistics.dedup_hits == 0

    def test_portfolio_wins_are_recorded(self):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        engine = ObligationEngine(jobs=1, portfolio=Portfolio())
        engine.discharge_all(collector.obligations)
        assert sum(engine.portfolio.wins.get("validity", {}).values()) == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ObligationEngine(jobs=0)
