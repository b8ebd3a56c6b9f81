"""E10 — the interned formula core: traversal throughput and sharing.

Characterises the hash-consed formula IR on the real obligation corpus of
the three case studies (the formulas the batch engine and the explorer
actually push through substitution, normalisation and fingerprinting):

* **substitute throughput** — a full symbol renaming over every obligation
  (the havoc/assign hot path of the VC generators);
* **no-op substitute throughput** — a substitution whose domain is disjoint
  from every formula; the cached-free-variable short-circuit must make this
  effectively free;
* **normalize throughput** — ``to_nnf`` over every obligation (memoised per
  interned node within a pass);
* **fingerprint throughput** — cold versus warm canonicalisation; the warm
  pass reuses the per-node canonical strings cached on the interned DAG;
* **interning hit rate** — intern-table hits while re-collecting the whole
  obligation corpus from scratch (a direct measure of cross-obligation
  subterm sharing).

The headline numbers are written to ``benchmarks/bench_formula_core.fresh.json``
so CI can archive them as a workflow artifact.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_formula_core.py -q``.
"""

import json
import os
import time

from repro.engine.batch import case_study_items
from repro.engine.fingerprint import fingerprint
from repro.hoare.verifier import AcceptabilityVerifier
from repro.logic import formula as F
from repro.logic.formula import Symbol, free_symbols, formula_size, intern_stats
from repro.logic.subst import substitute
from repro.solver.interface import Solver
from repro.solver.normalize import to_nnf


def _collect_corpus():
    """(kind, formula) pairs for every obligation of every case study."""
    corpus = []
    for item in case_study_items():
        bundle = AcceptabilityVerifier(solver=Solver()).collect(item.program, item.spec)
        for collector in (bundle.original, bundle.relaxed):
            for obligation in collector.obligations:
                corpus.append((obligation.kind.value, obligation.formula))
    return corpus


def _ops_per_second(op, corpus, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        for kind, formula in corpus:
            op(kind, formula)
    elapsed = time.perf_counter() - start
    return (repeats * len(corpus)) / elapsed if elapsed > 0 else float("inf")


def test_formula_core_throughput(capsys):
    corpus = _collect_corpus()
    assert corpus, "case studies must produce obligations"
    repeats = 20

    # A renaming touching every free symbol: the worst case for substitute.
    renaming = {}
    for _kind, formula in corpus:
        for symbol in free_symbols(formula):
            renaming.setdefault(symbol, F.SymTerm(Symbol(f"{symbol.name}_rn", symbol.tag)))
    substitute_rate = _ops_per_second(
        lambda kind, formula: substitute(formula, renaming), corpus, repeats
    )

    # A substitution that touches nothing: the short-circuit path.
    noop_mapping = {Symbol("__absent__"): F.Const(0)}
    noop_rate = _ops_per_second(
        lambda kind, formula: substitute(formula, noop_mapping), corpus, repeats
    )

    normalize_rate = _ops_per_second(
        lambda kind, formula: to_nnf(formula), corpus, repeats
    )

    # Fingerprints: cold = canonical strings not yet cached on the nodes.
    from repro.engine.fingerprint import _CANON_CACHE

    _CANON_CACHE.clear()
    cold_start = time.perf_counter()
    for kind, formula in corpus:
        fingerprint(formula, kind)
    cold_seconds = time.perf_counter() - cold_start
    warm_rate = _ops_per_second(
        lambda kind, formula: fingerprint(formula, kind), corpus, repeats
    )
    cold_rate = len(corpus) / cold_seconds if cold_seconds > 0 else float("inf")

    # Interning hit rate while rebuilding the corpus from scratch.
    F.reset_intern_stats()
    rebuilt = _collect_corpus()
    stats = intern_stats()
    assert len(rebuilt) == len(corpus)
    # Every rebuilt obligation formula must intern to the original object.
    assert all(a is b for (_, a), (_, b) in zip(corpus, rebuilt))

    total_nodes = sum(formula_size(formula) for _kind, formula in corpus)
    payload = {
        "experiment": "E10-formula-core",
        "obligations": len(corpus),
        "total_formula_nodes": total_nodes,
        "substitute_ops_per_second": substitute_rate,
        "noop_substitute_ops_per_second": noop_rate,
        "normalize_nnf_ops_per_second": normalize_rate,
        "fingerprint_cold_ops_per_second": cold_rate,
        "fingerprint_warm_ops_per_second": warm_rate,
        "intern_hits": stats["hits"],
        "intern_misses": stats["misses"],
        "intern_hit_rate": stats["hit_rate"],
        "intern_live_nodes": stats["live_nodes"],
    }
    output_path = os.path.join(os.path.dirname(__file__), "bench_formula_core.fresh.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    with capsys.disabled():
        print()
        print("=== E10: interned formula core (case-study obligation corpus) ===")
        print(f"obligations             : {len(corpus)} ({total_nodes} nodes)")
        print(f"substitute (full rename): {substitute_rate:,.0f} formulas/s")
        print(f"substitute (no-op)      : {noop_rate:,.0f} formulas/s")
        print(f"to_nnf                  : {normalize_rate:,.0f} formulas/s")
        print(f"fingerprint cold        : {cold_rate:,.0f} formulas/s")
        print(f"fingerprint warm        : {warm_rate:,.0f} formulas/s")
        print(
            f"interning (re-collect)  : {stats['hit_rate']:.0%} hit rate "
            f"({stats['hits']} hits / {stats['misses']} misses)"
        )

    # Sanity bars (loose: CI hosts vary) — the short-circuit and the canon
    # cache must actually pay off.
    assert noop_rate > substitute_rate
    assert warm_rate > cold_rate
    assert stats["hit_rate"] > 0.5


def test_interned_corpus_is_shared():
    """Re-collecting the corpus yields identical (shared) formula objects."""
    first = _collect_corpus()
    second = _collect_corpus()
    assert len(first) == len(second)
    assert all(a is b for (_, a), (_, b) in zip(first, second))
