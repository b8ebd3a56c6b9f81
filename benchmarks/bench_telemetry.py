"""Telemetry overhead: the disabled path must be free, the enabled path cheap.

The instrumentation points live in the engine's hottest loops (cube
solves, bounded-search sweeps, per-obligation discharge), so the telemetry
layer's contract is measured, not assumed:

* **disabled-path cost** — ``telemetry.span(...)`` / ``telemetry.count``
  with no session installed is one module-global read and a ``None``
  check; this benchmark pins the per-call nanoseconds and projects them
  onto a real verification run's event count to bound the *disabled*
  overhead fraction (acceptance bar: **<2%**);
* **enabled-path cost** — the same verification workload with a live
  session, reported as the enabled/disabled wall-clock ratio and the
  per-event cost (informational: tracing is opt-in via ``--trace``).

The projection makes the disabled-overhead gate robust in CI: instead of
comparing two noisy sub-second wall clocks, it multiplies the measured
per-call cost by the exact number of instrumentation events the workload
fires (``TelemetrySession.metric_events``).

The headline numbers are written to ``benchmarks/bench_telemetry.fresh.json``;
the committed ``bench_telemetry.json`` baseline is refreshed by an explicit
copy.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -q``.
"""

import json
import os
import time

from repro import telemetry

CALLS = 200_000
REPEATS = 3
_STUDY = "sum-reduction-perforation"


def _disabled_call_seconds():
    """Per-call cost of span()/count() with no session installed."""
    assert telemetry.active_session() is None
    span = telemetry.span
    count = telemetry.count
    start = time.perf_counter()
    for _ in range(CALLS):
        with span("bench", index=1):
            pass
    span_seconds = (time.perf_counter() - start) / CALLS
    start = time.perf_counter()
    for _ in range(CALLS):
        count("bench.counter")
    count_seconds = (time.perf_counter() - start) / CALLS
    return span_seconds, count_seconds


def _enabled_call_seconds():
    session = telemetry.install(telemetry.TelemetrySession())
    span = telemetry.span
    try:
        start = time.perf_counter()
        for _ in range(CALLS):
            with span("bench", index=1):
                pass
        seconds = (time.perf_counter() - start) / CALLS
    finally:
        telemetry.uninstall()
    assert len(session.records) == CALLS
    return seconds


def _verification_run(with_session):
    """One cold verification of the workload; returns (wall, metric_events)."""
    from repro.engine import ObligationEngine, case_study_items, verify_batch

    items = case_study_items([_STUDY])
    engine = ObligationEngine(jobs=1)
    session = telemetry.TelemetrySession() if with_session else None
    if session is not None:
        telemetry.install(session)
    try:
        start = time.perf_counter()
        report = verify_batch(items, engine=engine)
        wall = time.perf_counter() - start
    finally:
        if session is not None:
            telemetry.uninstall()
    assert report.all_verified
    return wall, (session.metric_events if session is not None else 0)


def test_telemetry_overhead(capsys):
    assert telemetry.active_session() is None

    noop_span_seconds, noop_count_seconds = _disabled_call_seconds()
    enabled_span_seconds = _enabled_call_seconds()

    disabled_wall = min(_verification_run(with_session=False)[0] for _ in range(REPEATS))
    enabled_wall, metric_events = min(
        (_verification_run(with_session=True) for _ in range(REPEATS)),
        key=lambda pair: pair[0],
    )
    assert metric_events > 0

    # Project the measured disabled per-call cost onto the run's actual
    # event count: the overhead a --trace-less run pays for the
    # instrumentation points existing at all.
    disabled_overhead = metric_events * noop_span_seconds / disabled_wall
    enabled_ratio = enabled_wall / disabled_wall

    payload = {
        "experiment": "telemetry-overhead",
        "workload": _STUDY,
        "noop_span_ns": noop_span_seconds * 1e9,
        "noop_count_ns": noop_count_seconds * 1e9,
        "enabled_span_ns": enabled_span_seconds * 1e9,
        "metric_events": metric_events,
        "disabled_wall_seconds": disabled_wall,
        "enabled_wall_seconds": enabled_wall,
        "disabled_overhead_fraction": disabled_overhead,
        "enabled_wall_ratio": enabled_ratio,
    }
    # Untracked output: the committed bench_telemetry.json snapshot is
    # refreshed by an explicit copy, not by every local benchmark run.
    output_path = os.path.join(os.path.dirname(__file__), "bench_telemetry.fresh.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    with capsys.disabled():
        print()
        print("=== telemetry overhead ===")
        print(f"disabled span call      : {noop_span_seconds * 1e9:,.0f} ns")
        print(f"disabled count call     : {noop_count_seconds * 1e9:,.0f} ns")
        print(f"enabled span (record)   : {enabled_span_seconds * 1e9:,.0f} ns")
        print(f"workload events         : {metric_events} over {disabled_wall:.3f}s")
        print(f"disabled overhead       : {disabled_overhead:.3%} of the run")
        print(f"enabled wall ratio      : {enabled_ratio:.2f}x")

    # Acceptance bar: with telemetry off, the instrumentation costs the
    # verification pipeline less than 2% of its wall clock.
    assert disabled_overhead < 0.02, (
        f"disabled-telemetry overhead {disabled_overhead:.2%} breaches the 2% bar"
    )
    # The enabled path records real spans, so it is allowed to cost more —
    # but a live session must not dominate the run either.
    assert enabled_ratio < 2.0, f"enabled-telemetry ratio {enabled_ratio:.2f}x"


def test_disabled_span_is_the_shared_singleton():
    """The no-op guarantee behind the numbers: no allocation when off."""
    assert telemetry.active_session() is None
    first = telemetry.span("a", x=1)
    second = telemetry.span("b")
    assert first is second is telemetry.NOOP_SPAN
