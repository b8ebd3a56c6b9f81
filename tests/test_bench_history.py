"""Tests for scripts/bench_history.py: only fresh, current results are recorded.

Three rules keep a trajectory entry honest: the committed baselines are
never read (only ``*.fresh.json``), a fresh file older than the newest
source file is refused, and an entry measured on uncommitted sources is
marked dirty.
"""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "bench_history.py",
)
_spec = importlib.util.spec_from_file_location("bench_history", _SCRIPT)
bench_history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_history)


def _write(path, payload, mtime):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    os.utime(path, (mtime, mtime))


@pytest.fixture
def tree(tmp_path):
    """A source tree (one module at t=1000) and an empty benchmark dir."""
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    src_dir = tmp_path / "src"
    _write(src_dir / "pkg" / "module.py", "x = 1\n", 1000)
    return bench_dir, src_dir


def _collect(bench_dir, src_dir, **kwargs):
    return bench_history.collect_metrics(
        bench_dir=str(bench_dir), src_dir=str(src_dir), **kwargs
    )


class TestFreshOnly:
    def test_committed_baseline_is_never_read(self, tree):
        bench_dir, src_dir = tree
        _write(bench_dir / "bench_eval.json", {"search_speedup": 3.0}, 2000)
        assert _collect(bench_dir, src_dir) == {}
        with pytest.raises(SystemExit, match="missing"):
            _collect(bench_dir, src_dir, require=True)

    def test_fresh_file_is_read(self, tree):
        bench_dir, src_dir = tree
        _write(bench_dir / "bench_eval.json", {"search_speedup": 3.0}, 2000)
        _write(bench_dir / "bench_eval.fresh.json", {"search_speedup": 5.0}, 2000)
        metrics = _collect(bench_dir, src_dir)
        assert metrics["bench_eval.json"]["search_speedup"] == 5.0
        assert metrics["bench_eval.json"]["source"] == "bench_eval.fresh.json"


class TestStaleness:
    def test_fresh_file_older_than_sources_is_refused(self, tree):
        bench_dir, src_dir = tree
        _write(bench_dir / "bench_eval.fresh.json", {"search_speedup": 5.0}, 500)
        with pytest.raises(SystemExit, match="older than the newest"):
            _collect(bench_dir, src_dir)

    def test_newest_source_file_decides(self, tree):
        bench_dir, src_dir = tree
        _write(bench_dir / "bench_eval.fresh.json", {"search_speedup": 5.0}, 2000)
        assert _collect(bench_dir, src_dir)
        _write(src_dir / "pkg" / "edited.py", "y = 2\n", 3000)
        with pytest.raises(SystemExit):
            _collect(bench_dir, src_dir)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestDirty:
    def test_uncommitted_source_marks_repo_dirty(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        assert not bench_history.source_dirty(str(tmp_path))
        (tmp_path / "notes.txt").write_text("outside src\n")
        assert not bench_history.source_dirty(str(tmp_path))
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "module.py").write_text("x = 1\n")
        assert bench_history.source_dirty(str(tmp_path))

    def test_dirty_entry_is_marked(self, monkeypatch, capsys):
        block = {"bench_eval.json": {"search_speedup": 5.0}}
        monkeypatch.setattr(bench_history, "collect_metrics", lambda require=False: block)
        for dirty in (True, False):
            monkeypatch.setattr(bench_history, "source_dirty", lambda: dirty)
            assert bench_history.main(["--dry-run"]) == 0
            entry = json.loads(capsys.readouterr().out)
            assert entry.get("dirty", False) is dirty
