"""E12 — the vector backend: columnar batch search vs scalar closures.

The vector backend (:mod:`repro.solver.vector`) turns the bounded-search
candidate space into an array — one row per assignment, one column per
symbol — and decides every vectorizable conjunct for thousands of rows
with a handful of numpy operations; only surviving rows see a scalar
closure call.  This benchmark quantifies that batch win on search
workloads shaped like the solver's bounded fallbacks, and checks the cube
solver's bound-box refutation on an engineered DNF wave:

* **batch search speedup** — ``bounded_model_search`` on the vector
  backend versus the compiled backend (identical queries, identical
  results); the headline ratio is ``speedup_vs_compiled``, which the
  ``vec-perf-smoke`` CI job guards against the committed
  ``bench_vector.json`` baseline;
* **row throughput** — vector-mask rows evaluated per second, and the
  batch-size distribution behind it;
* **cube-wave refutation** — the share of a DNF wave's cubes the cube
  solver refutes by its bound box before any case split or
  Fourier–Motzkin step (``SolverStatistics.prefiltered_cubes``), which
  must be the same on the vector and compiled backends.

Skipped entirely when numpy is absent (``pip install .[vec]``).

The headline numbers are written to ``benchmarks/bench_vector.fresh.json``
(promote to ``bench_vector.json`` with an explicit copy).

Run with ``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_vector.py -q``.
"""

import json
import os
import time

import pytest

np = pytest.importorskip("numpy")

from repro.logic import formula as F
from repro.logic.formula import Const, conj, disj, exists, sym, var
from repro.solver.backend import use_backend
from repro.solver.interface import Solver
from repro.solver.lia import Status
from repro.solver.models import bounded_model_search
from repro.solver.vector import reset_vector_stats, vector_stats

RADIUS = 6  # a wider box than bench_eval: the batch win grows with rows


def _search_workload():
    """Bounded-search queries dominated by mask evaluation over many rows."""
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    return [
        # Box-UNSAT, three symbols: the full (pruned) space is swept.
        conj(F.eq(x * x + y * y, Const(997)), F.ge(z, Const(0))),
        # Box-UNSAT linear four-symbol sweep.
        conj(F.eq(x + y + z + w, Const(99)), F.le(x, Const(RADIUS))),
        # Satisfiable deep in the sweep: most rows are rejected in bulk.
        conj(F.eq(x * y * z, Const(120)), F.gt(x, y), F.gt(y, z)),
        # Min/Max/Ite terms — the general (non-linear) vector compiler.
        conj(
            F.eq(F.Max(x * x, y * y), Const(25)),
            F.ge(F.Min(x, y), Const(-5)),
            F.ne(z, Const(0)),
        ),
        # Quantified conjunct: vector mask loops a small explicit domain.
        conj(
            F.ge(x, Const(0)),
            exists(sym("k"), F.eq(x + y, var("k") * Const(3))),
            F.le(x + y, Const(6)),
        ),
    ]


def _cube_wave():
    """A DNF wave where most cubes are integer-infeasible."""
    x, y = var("x"), var("y")
    cubes = [
        conj(F.ge(x, Const(i + 50)), F.lt(x, Const(i)), F.ge(y, Const(-i)))
        for i in range(24)
    ]
    cubes.append(conj(F.ge(x, Const(2)), F.lt(x, Const(4)), F.eq(y, x + Const(1))))
    return disj(*cubes)


def test_vector_batch_search_speedup(capsys):
    workload = _search_workload()
    repeats = 6

    def run(backend):
        with use_backend(backend):  # warm compilation caches out of the timing
            warm = [
                bounded_model_search(f, radius=RADIUS, max_seconds=None)
                for f in workload
            ]
        start = time.perf_counter()
        results = warm
        with use_backend(backend):
            for _ in range(repeats):
                results = [
                    bounded_model_search(f, radius=RADIUS, max_seconds=None)
                    for f in workload
                ]
        return results, time.perf_counter() - start

    compiled_results, compiled_seconds = run("compiled")
    reset_vector_stats()
    vector_results, vector_seconds = run("vector")
    counters = vector_stats()

    assert vector_results == compiled_results  # error-free workload: identical
    speedup = compiled_seconds / vector_seconds if vector_seconds > 0 else float("inf")
    rows_per_second = (
        counters["rows_evaluated"] / vector_seconds if vector_seconds > 0 else 0.0
    )
    mean_batch_rows = counters["rows_evaluated"] / max(1, counters["batches"])

    # -- cube-wave refutation -------------------------------------------------
    wave = _cube_wave()
    with use_backend("vector"):
        solver = Solver()
        wave_result = solver.check_sat(wave)
    assert wave_result.status is Status.SAT
    with use_backend("compiled"):
        compiled_solver = Solver()
        compiled_wave = compiled_solver.check_sat(wave)
    assert compiled_wave.status is Status.SAT
    assert compiled_wave.model == wave_result.model
    wave_cubes = solver.statistics.cube_count
    prefiltered = solver.statistics.prefiltered_cubes
    assert compiled_solver.statistics.prefiltered_cubes == prefiltered
    prefilter_rate = prefiltered / max(1, wave_cubes)

    payload = {
        "experiment": "E12-vector-backend",
        "workload_queries": len(workload),
        "repeats": repeats,
        "compiled_seconds": compiled_seconds,
        "vector_seconds": vector_seconds,
        "speedup_vs_compiled": speedup,
        "rows_evaluated": counters["rows_evaluated"],
        "batches": counters["batches"],
        "mean_batch_rows": mean_batch_rows,
        "rows_per_second": rows_per_second,
        "scalar_fallback_searches": counters["scalar_fallbacks"],
        "wave_cubes": wave_cubes,
        "wave_prefiltered_cubes": prefiltered,
        "wave_prefiltered_rate": prefilter_rate,
    }
    output_path = os.path.join(os.path.dirname(__file__), "bench_vector.fresh.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    with capsys.disabled():
        print()
        print("=== E12: vector batch search vs compiled closures ===")
        print(f"batch search  : {compiled_seconds:.3f}s compiled -> "
              f"{vector_seconds:.3f}s vector ({speedup:.1f}x)")
        print(f"row throughput: {rows_per_second:,.0f} rows/s "
              f"(mean batch {mean_batch_rows:,.0f} rows)")
        print(f"cube bound box: {prefiltered}/{wave_cubes} cubes refuted "
              f"({prefilter_rate:.0%}, same on compiled)")

    # Acceptance bars: the batch path must beat the scalar closures
    # outright on this row-dominated workload, and the bound box must
    # refute most of the engineered infeasible wave.
    assert speedup >= 1.5, f"vector speedup {speedup:.2f}x below the 1.5x bar"
    assert counters["rows_evaluated"] > 0
    assert prefilter_rate >= 0.5
