"""One round of one workload, run in a fresh Python process.

Usage: ``python3 perfbench/child.py REQUEST.json`` with ``PYTHONPATH=src``.
The request names the workload, its seed, its input file and cache
directory, and whether the round is traced or only sets up.  The result is
written as JSON to the request's ``out`` path.

A fresh process per round is the load shape a command-line user pays:
interned-formula memos, compiled closures and fingerprint caches all start
empty.  ``setup`` (imports, registry, parsing and building the programs)
ends at ``call_start``, which the parent subtracts from the moment it
spawned this process to get ``setup_s``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from typing import Dict, List, Tuple

#: The explorer workloads: case study and keyword arguments of ``explore``.
EXPLORE_CALLS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "explore-lu-beam": (
        "lu-approximate-memory",
        {"depth": 3, "strategy": "beam", "beam_width": 6},
    ),
    "explore-stencil-diag": ("stencil-approx-memory", {"depth": 1, "max_candidates": 2}),
}


def _setup_verify(request: Dict[str, object]):
    from repro.engine import case_study_items, fingerprint, program_items, verify_batch
    from repro.fuzz import GeneratedStudy, derive_spec

    with open(request["inputs"], "r", encoding="utf-8") as handle:
        sources = json.load(handle)["programs"]
    items = case_study_items()
    entries = []
    for name, source in sources:
        program = GeneratedStudy(name, source).build_program()
        entries.append((name, program, derive_spec(program)))
    items += program_items(entries, study="fuzz")

    def call():
        return verify_batch(items, jobs=1, cache_dir=request["cache_dir"])

    def extract(report) -> Dict[str, object]:
        programs = {}
        # The engine books 0.0 s for verdicts it did not compute (cache and
        # in-wave dedup hits); every other obligation reached the solver.
        samples: List[float] = []
        for result in report.programs:
            keys, statuses = [], []
            if result.report is not None:
                for layer in (result.report.original, result.report.relaxed):
                    for item in layer.results:
                        keys.append(
                            fingerprint(item.obligation.formula, item.obligation.kind.value)
                        )
                        statuses.append(item.status.value)
                        if item.elapsed_seconds > 0:
                            samples.append(item.elapsed_seconds)
            programs[result.name] = {
                "verified": result.verified,
                "error": result.error,
                "fingerprints": keys,
                "statuses": statuses,
            }
        engine, solver = report.engine_stats, report.solver_stats
        return {
            "programs": programs,
            "discharge_samples": samples,
            "counts": {
                "hoare.obligations": int(engine["obligations"]),
                "solver.cubes": int(solver["cube_count"]),
                "solver.prefilter.settled": int(solver["prefiltered_cubes"]),
                "engine.portfolio.attempts": int(engine["strategy_attempts"]),
                "engine.cache.hits": int(engine["cache_hits"]),
                "engine.cache.misses": int(engine["cache_misses"]),
                "engine.dedup.hits": int(engine["dedup_hits"]),
            },
        }

    return call, extract


def _setup_explore(request: Dict[str, object]):
    from repro.explore import explore, resolve_case_study
    from repro.fuzz import explore_signature

    name, options = EXPLORE_CALLS[request["workload"]]
    case = resolve_case_study(name)

    def call():
        return explore(case, seed=request["seed"], jobs=1, **options)

    def extract(report) -> Dict[str, object]:
        candidates = []
        for outcome in report.outcomes:
            candidates.append(
                {
                    "name": outcome.name,
                    "fingerprint": outcome.candidate.fingerprint,
                    "verified": outcome.verified,
                    "digest": outcome.obligations_digest(),
                    "statuses": list(outcome.obligation_statuses),
                    "relate_violations": (
                        outcome.score.relate_violations if outcome.score is not None else 0
                    ),
                }
            )
        engine, solver = report.engine_stats, report.solver_stats
        return {
            # A JSON round trip turns the signature's tuples into lists, so
            # it compares equal to the committed expected file.
            "signature": json.loads(json.dumps(explore_signature(report.as_dict()))),
            "candidates": candidates,
            "counts": {
                "hoare.obligations": int(report.incremental["total_obligations"]),
                "explore.candidates": report.candidates,
                "explore.beam_pruned": report.beam_pruned,
                "engine.incremental.reused": int(report.incremental["reused"]),
                "solver.cubes": int(solver["cube_count"]),
                "solver.prefilter.settled": int(solver["prefiltered_cubes"]),
                "engine.portfolio.attempts": int(engine["strategy_attempts"]),
                "diagnostics.reports": sum(len(outcome.failures) for outcome in report.outcomes),
            },
        }

    return call, extract


def _provenance() -> Dict[str, object]:
    from repro.solver.backend import active_backend, numpy_available

    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "backend": active_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def main(request_path: str) -> None:
    with open(request_path, "r", encoding="utf-8") as handle:
        request = json.load(handle)
    setup = _setup_verify if request["workload"].startswith("verify") else _setup_explore
    result: Dict[str, object] = {}
    with contextlib.ExitStack() as stack:
        if request["traced"]:
            # Installed before set-up, so parsing there is timed as well.
            from repro import telemetry

            from ledger import Instruments, build_ledger, layer_metrics

            instruments = stack.enter_context(Instruments(telemetry.TelemetrySession()))
        call, extract = setup(request)
        result["call_start"] = time.monotonic()
        if request["setup_only"]:
            output = None
        elif request["traced"]:
            root = telemetry.span("round")
            with root:
                output = call()
        else:
            output = call()
        result["wall_s"] = time.monotonic() - result["call_start"]
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if output is not None:
        result.update(extract(output))
    if request["traced"]:
        ledger = build_ledger(instruments, root.span_id)
        result["ledger"] = ledger
        result["layers"] = layer_metrics(instruments, ledger)
        telemetry.write_chrome_trace(instruments.session, request["trace_file"])
    result["provenance"] = _provenance()
    with open(request["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
