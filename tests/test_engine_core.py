"""Tests for the obligation engine: portfolio, scheduler, caching, parity.

The key invariants:

* every engine — the argument-free one included — fingerprints, dedups,
  stores and runs the portfolio (there is one discharge path);
* store hits replay the original verdict without any solver call; the
  session tier replays ``UNKNOWN`` within one engine, but ``UNKNOWN`` never
  enters the persistent tier (budget exhaustion cannot masquerade as a
  proof in a later run);
* parallel discharge produces verdicts identical to in-process discharge.
"""

import pytest

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

    def test_unknown_reason_names_every_attempted_strategy(self):
        # x*x == 2 is beyond the linear procedures; without the bounded
        # fallback no strategy can settle it.
        strategies = (
            SolverStrategy("first", enable_bounded_fallback=False),
            SolverStrategy("second", enable_bounded_fallback=False),
        )
        result, winner, attempts = run_portfolio(
            eq(var("x") * var("x"), 2), "satisfiability", strategies
        )
        assert result.status is Status.UNKNOWN
        assert (winner, attempts) == ("", 2)
        first, second = result.reason.split("; ")
        assert first.startswith("first: ") and len(first) > len("first: ")
        assert second.startswith("second: ") and len(second) > len("second: ")

    def test_budget_reason_keeps_the_attempted_reasons(self):
        strategies = (
            SolverStrategy("first", enable_bounded_fallback=False),
            SolverStrategy("second", enable_bounded_fallback=False),
        )
        result, winner, attempts = run_portfolio(
            eq(var("x") * var("x"), 2), "satisfiability", strategies, budget_seconds=0.0
        )
        assert result.status is Status.UNKNOWN
        assert (winner, attempts) == ("", 1)
        assert result.reason.startswith(
            "per-obligation budget of 0s exhausted after 1 strategies (first: "
        )
        assert "second" not in result.reason

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
    def test_portfolio_engine_aggregates_worker_counters(self):
        engine = ObligationEngine(jobs=2)
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
        )
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        assert stats["sat_queries"] >= 2
        assert engine.stats()["solver"] == stats


class TestDefaultEngine:
    def test_argument_free_engine_takes_the_one_discharge_path(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine()
        results, keys, _reused = engine.discharge_wave(collector.obligations)
        assert [r.status for r in results] == [Status.VALID, Status.SAT, Status.VALID]
        # Every obligation is fingerprinted; the duplicate is answered by
        # its representative instead of a second solver run.
        assert all(keys) and keys[0] == keys[2] != keys[1]
        assert engine.statistics.dedup_hits == 1
        assert engine.statistics.solver_calls == 2
        assert engine.cache.session_entries == 2
        assert sum(engine.portfolio.wins.get("validity", {}).values()) == 1
        strategy_seconds = engine.solver_statistics.strategy_seconds
        assert strategy_seconds and "serial" not in strategy_seconds
        assert set(strategy_seconds) <= {s.name for s in DEFAULT_STRATEGIES}
        # The in-process discharge still fills in the solver counters.
        assert engine.solver_statistics.validity_queries >= 1
        assert engine.solver_statistics.total_seconds > 0

    def test_prove_original_accepts_engine(self):
        program = b.program("inc", b.assign("x", b.add(b.v("x"), 1)), variables=("x",))
        engine = ObligationEngine()
        report = prove_original(program, ge(var("x"), 0), ge(var("x"), 1), engine=engine)
        assert report.verified
        assert engine.statistics.obligations == 1


class TestEngineCaching:
    def test_cache_hit_skips_solver_and_replays_verdict(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine()
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
        engine = ObligationEngine()
        engine.discharge_all(left.obligations)
        engine.discharge_all(right.obligations)
        assert engine.statistics.incremental_reused == 1

    def test_unknown_is_not_cached(self, tmp_path):
        # A non-linear obligation the procedures cannot settle: x*x == 2.
        unknowable = eq(var("x") * var("x"), 2)
        collector = _collector((unknowable, ObligationKind.SATISFIABILITY))

        def engine():
            return ObligationEngine(
                cache_dir=str(tmp_path),
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
        engine = ObligationEngine()
        results = engine.discharge_all(collector.obligations)
        assert results[0].status is Status.SAT
        # x in [0, 10] is satisfiable but certainly not valid.
        assert results[1].status is Status.INVALID
        assert engine.statistics.cache_hits == 0

    def test_persistent_cache_across_engines(self, tmp_path):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        first = ObligationEngine(cache_dir=str(tmp_path))
        first.discharge_all(collector.obligations)
        first.save()
        second = ObligationEngine(cache_dir=str(tmp_path))
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
        serial = ObligationEngine().discharge_all(collector.obligations)
        parallel = ObligationEngine(jobs=2).discharge_all(collector.obligations)
        assert [r.status for r in serial] == [
            Status.VALID,
            Status.SAT,
            Status.UNSAT,
            Status.INVALID,
        ]
        assert [r.status for r in serial] == [r.status for r in parallel]
        assert [r.counterexample for r in serial] == [r.counterexample for r in parallel]

    def test_portfolio_path_dedupes_without_a_cache(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        # No cache directory: in-wave dedup needs no persistent tier.
        engine = ObligationEngine()
        results = engine.discharge_all(collector.obligations)
        assert [r.status for r in results] == [Status.VALID] * 3
        assert engine.statistics.solver_calls == 1
        assert engine.statistics.dedup_hits == 2

    def test_portfolio_wins_are_recorded(self):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        engine = ObligationEngine(jobs=1)
        engine.discharge_all(collector.obligations)
        assert sum(engine.portfolio.wins.get("validity", {}).values()) == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ObligationEngine(jobs=0)
