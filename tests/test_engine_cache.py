"""Tests for the tiered verdict store (session tier over LRU + JSON store)."""

import json
import os

import pytest

from repro.engine.cache import ObligationCache, _symbol_from_str, _symbol_to_str
from repro.engine.core import ObligationEngine
from repro.engine.fingerprint import fingerprint
from repro.hoare.obligations import ObligationCollector, ObligationKind, ProofSystem
from repro.logic.formula import Symbol, Tag, gt, implies, var
from repro.solver.lia import Status

VALID_FORMULA = implies(gt(var("x"), 2), gt(var("x"), 1))


class TestLRU:
    def test_put_get_roundtrip(self):
        cache = ObligationCache(capacity=4)
        assert cache.put("k1", Status.VALID, reason="proved", strategy="full")
        entry = cache.get("k1")
        assert entry is not None
        assert entry.status is Status.VALID
        assert entry.reason == "proved"
        assert entry.strategy == "full"

    def test_miss_counting(self):
        cache = ObligationCache(capacity=4)
        assert cache.get("absent") is None
        cache.put("k", Status.SAT)
        cache.get("k")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_unknown_is_never_cached(self):
        cache = ObligationCache(capacity=4)
        assert not cache.put("k", Status.UNKNOWN, reason="budget exhausted")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = ObligationCache(capacity=2)
        cache.put("a", Status.VALID)
        cache.put("b", Status.VALID)
        cache.get("a")  # refresh a; b is now least recently used
        cache.put("c", Status.VALID)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_model_is_copied(self):
        cache = ObligationCache(capacity=4)
        model = {Symbol("x"): 3}
        cache.put("k", Status.INVALID, model=model)
        model[Symbol("x")] = 99
        assert cache.get("k").model[Symbol("x")] == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ObligationCache(capacity=0)


class TestPersistence:
    def test_disk_roundtrip(self, tmp_path):
        cache = ObligationCache(capacity=8, cache_dir=str(tmp_path))
        cache.put(
            "k1",
            Status.INVALID,
            model={Symbol("x"): -2, Symbol("y", Tag.ORIGINAL): 7},
            reason="counterexample found",
            strategy="cube-fast",
        )
        cache.put("k2", Status.VALID)
        path = cache.save()
        assert path is not None and os.path.exists(path)

        reloaded = ObligationCache(capacity=8, cache_dir=str(tmp_path))
        entry = reloaded.get("k1")
        assert entry.status is Status.INVALID
        assert entry.model == {Symbol("x"): -2, Symbol("y", Tag.ORIGINAL): 7}
        assert entry.strategy == "cube-fast"
        assert reloaded.get("k2").status is Status.VALID

    def test_corrupt_store_is_discarded(self, tmp_path):
        store = tmp_path / "obligation_cache.json"
        store.write_text("{not json")
        cache = ObligationCache(cache_dir=str(tmp_path))
        assert len(cache) == 0

    def test_version_mismatch_is_discarded(self, tmp_path):
        store = tmp_path / "obligation_cache.json"
        store.write_text(json.dumps({"version": 999, "entries": {"k": {"status": "valid"}}}))
        cache = ObligationCache(cache_dir=str(tmp_path))
        assert len(cache) == 0

    def test_save_without_dir_is_noop(self):
        cache = ObligationCache()
        cache.put("k", Status.VALID)
        assert cache.save() is None


def _obligations(count):
    collector = ObligationCollector(ProofSystem.ORIGINAL)
    for index in range(count):
        collector.add(
            VALID_FORMULA, ObligationKind.VALIDITY, rule="r", description=f"copy {index}"
        )
    return collector.obligations


def _warm_engine(cache_dir):
    """An engine over a store whose persistent tier holds VALID_FORMULA from disk."""
    cold = ObligationEngine(cache_dir=cache_dir)
    cold.discharge_all(_obligations(1))
    cold.save()
    return ObligationEngine(cache_dir=cache_dir)


class TestTieredStore:
    def test_session_tier_replays_unknown(self):
        cache = ObligationCache()
        cache.record("k", Status.UNKNOWN, reason="budget exhausted")
        verdict = cache.recall("k")
        assert verdict is not None and verdict.status is Status.UNKNOWN
        assert verdict.reason == "budget exhausted"
        assert cache.reused == 1
        # The persistent tier never holds it.
        assert cache.get("k") is None and len(cache) == 0

    def test_recall_miss_counts_nothing(self):
        cache = ObligationCache()
        assert cache.recall("absent") is None
        assert cache.reused == 0 and cache.misses == 0

    def test_tiers_share_one_verdict_object(self):
        cache = ObligationCache()
        cache.put("k", Status.INVALID, model={Symbol("x"): 3})
        cache.record("k", Status.INVALID, model={Symbol("x"): 3})
        assert cache.recall("k") is cache.get("k")

    def test_save_writes_no_unknown_and_no_session_only_entry(self, tmp_path):
        cache = ObligationCache(cache_dir=str(tmp_path))
        cache.put("both", Status.VALID)
        cache.record("both", Status.VALID)
        cache.record("unknown", Status.UNKNOWN)
        cache.record("session-only", Status.SAT, model={Symbol("x"): 1})
        path = cache.save()
        with open(path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        assert set(entries) == {"both"}

    def test_reloaded_store_starts_with_empty_session_tier(self, tmp_path):
        cache = ObligationCache(cache_dir=str(tmp_path))
        cache.put("k", Status.VALID)
        cache.record("k", Status.VALID)
        cache.record("u", Status.UNKNOWN)
        cache.save()
        reloaded = ObligationCache(cache_dir=str(tmp_path))
        assert reloaded.session_entries == 0
        assert reloaded.recall("k") is None and reloaded.recall("u") is None
        assert reloaded.get("k").origin == "disk"

    def test_session_tier_is_read_before_persistent_tier(self, tmp_path):
        engine = _warm_engine(str(tmp_path))
        engine.discharge_all(_obligations(1))
        assert engine.statistics.cache_hits == 1  # first wave: a disk hit
        assert engine.statistics.incremental_reused == 0
        engine.discharge_all(_obligations(1))
        # The later wave is answered by the session tier; the persistent
        # tier is not consulted again.
        assert engine.statistics.incremental_reused == 1
        assert engine.statistics.cache_hits == 1
        assert engine.cache.hits_by_origin == {"disk": 1}
        assert engine.statistics.solver_calls == 0
        key = fingerprint(VALID_FORMULA, ObligationKind.VALIDITY.value)
        assert engine.cache.recall(key) is engine.cache.get(key)

    def test_duplicate_disk_hit_in_one_wave_is_two_cache_hits(self, tmp_path):
        engine = _warm_engine(str(tmp_path))
        engine.discharge_all(_obligations(2))
        assert engine.statistics.cache_hits == 2
        assert engine.statistics.incremental_reused == 0
        assert engine.statistics.dedup_hits == 0
        assert engine.statistics.solver_calls == 0


class TestSymbolSerialisation:
    @pytest.mark.parametrize(
        "symbol",
        [Symbol("x"), Symbol("x", Tag.ORIGINAL), Symbol("idx_f3", Tag.RELAXED)],
    )
    def test_roundtrip(self, symbol):
        assert _symbol_from_str(_symbol_to_str(symbol)) == symbol
