"""E8 — the obligation engine: caching and parallel batch verification.

Characterises the engine layered over the decision procedures:

* **cold versus warm batch verification** of the three case studies through
  a persistent cache directory — the warm run must answer every obligation
  from the cache with zero solver calls;
* **parallel discharge speedup** at ``--jobs 1/2/4`` over the pooled
  case-study obligation corpus (a fresh in-memory store per run, so every
  run does full work);
* the portfolio win table the engine learned over the corpus.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q``.
"""

import time

import pytest

from repro.engine import ObligationEngine, case_study_items, verify_batch


def _fresh_items():
    return case_study_items()


def test_cold_vs_warm_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "engine-cache")

    cold_engine = ObligationEngine(cache_dir=cache_dir)
    cold_start = time.perf_counter()
    cold_report = verify_batch(_fresh_items(), engine=cold_engine)
    cold_seconds = time.perf_counter() - cold_start
    assert cold_report.all_verified

    warm_engine = ObligationEngine(cache_dir=cache_dir)
    warm_start = time.perf_counter()
    warm_report = verify_batch(_fresh_items(), engine=warm_engine)
    warm_seconds = time.perf_counter() - warm_start
    assert warm_report.all_verified

    cold_stats = cold_engine.statistics
    warm_stats = warm_engine.statistics
    with capsys.disabled():
        print()
        print("=== E8: cold vs warm batch verification (three case studies) ===")
        print(f"obligations            : {cold_stats.obligations}")
        print(f"cold solver calls      : {cold_stats.solver_calls}")
        print(f"cold wall-clock        : {cold_seconds:.3f}s")
        print(f"warm solver calls      : {warm_stats.solver_calls}")
        print(f"warm cache hit rate    : {warm_engine.cache.hit_rate:.0%}")
        print(f"warm wall-clock        : {warm_seconds:.3f}s")
        if warm_seconds > 0:
            print(f"warm speedup           : {cold_seconds / warm_seconds:.1f}x")
        print(f"portfolio wins         : {cold_engine.portfolio.win_table()}")

    # The acceptance bar: re-verification of unchanged obligations issues
    # zero solver calls.
    assert warm_stats.solver_calls == 0
    assert warm_stats.cache_hits == warm_stats.obligations


def test_parallel_speedup(capsys):
    timings = {}
    for jobs in (1, 2, 4):
        engine = ObligationEngine(jobs=jobs)
        start = time.perf_counter()
        report = verify_batch(_fresh_items(), engine=engine)
        timings[jobs] = time.perf_counter() - start
        assert report.all_verified

    with capsys.disabled():
        print()
        print("=== E8: parallel discharge speedup (cold store) ===")
        for jobs, seconds in timings.items():
            speedup = timings[1] / seconds if seconds > 0 else float("inf")
            print(f"--jobs {jobs}: {seconds:.3f}s  (speedup {speedup:.2f}x)")
    # Parallelism must never change verdicts; wall-clock improvements depend
    # on the host, so they are reported rather than asserted.


@pytest.mark.benchmark(group="E8-engine")
def test_benchmark_warm_batch(benchmark, tmp_path):
    """Time a fully warm batch re-verification (pure cache replay)."""
    cache_dir = str(tmp_path / "bench-cache")
    prime = verify_batch(_fresh_items(), engine=ObligationEngine(cache_dir=cache_dir))
    assert prime.all_verified

    def warm_batch():
        engine = ObligationEngine(cache_dir=cache_dir)
        return verify_batch(_fresh_items(), engine=engine)

    report = benchmark(warm_batch)
    assert report.all_verified


@pytest.mark.benchmark(group="E8-engine")
def test_benchmark_cold_batch_serial(benchmark):
    """Time an uncached serial batch verification of all case studies."""

    def cold_batch():
        return verify_batch(_fresh_items(), engine=ObligationEngine())

    report = benchmark(cold_batch)
    assert report.all_verified
