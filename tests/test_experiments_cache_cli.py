"""The ``python -m repro.experiments cache`` maintenance surface."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ExperimentRunner, get_scenario
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main


@pytest.fixture
def warm_cache(tmp_path):
    """A cache directory holding one completed smoke entry."""
    runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
    spec = get_scenario("smoke")
    runner.run(spec)
    return tmp_path, spec


class TestCacheLs:
    def test_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_lists_entries_with_size_and_age(self, warm_cache, capsys):
        cache_dir, spec = warm_cache
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert spec.hash() in out
        assert "complete" in out
        assert "1 entries" in out

    def test_reports_partial_entries(self, tmp_path, capsys):
        spec = get_scenario("smoke")
        cache = ResultCache(tmp_path)
        writer = cache.writer(spec)
        first = ExperimentRunner(jobs=1).run(spec).rows[0]
        writer.add("some-key", first)
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "partial" in capsys.readouterr().out


class TestCacheRm:
    def test_removes_all_entries_of_a_scenario(self, warm_cache, capsys):
        cache_dir, spec = warm_cache
        assert main(["cache", "rm", "smoke", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "freed" in out
        assert not ResultCache(cache_dir).entries()

    def test_unknown_scenario_returns_nonzero(self, warm_cache, capsys):
        cache_dir, _ = warm_cache
        assert main(["cache", "rm", "nonexistent", "--cache-dir", str(cache_dir)]) == 1
        assert "no cache entries" in capsys.readouterr().out

    def test_leaves_other_scenarios_alone(self, warm_cache):
        cache_dir, spec = warm_cache
        other = replace(get_scenario("smoke"), name="smoke2")
        ExperimentRunner(cache_dir=cache_dir, jobs=1).run(other)
        main(["cache", "rm", "smoke", "--cache-dir", str(cache_dir)])
        remaining = ResultCache(cache_dir).entries()
        assert [info.name for info in remaining] == ["smoke2"]


class TestCacheGc:
    def test_prunes_stale_spec_hash(self, warm_cache, capsys):
        cache_dir, spec = warm_cache
        # An entry written for a *different* version of the registered smoke
        # scenario: its hash can never be requested again.
        workload = replace(get_scenario("smoke").workload, populations=(1, 2, 4))
        stale = replace(get_scenario("smoke"), workload=workload)
        ExperimentRunner(cache_dir=cache_dir, jobs=1).run(stale)
        assert len(ResultCache(cache_dir).entries()) == 2

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        remaining = ResultCache(cache_dir).entries()
        assert [info.spec_hash for info in remaining] == [spec.hash()]

    def test_prunes_orphan_side_files(self, warm_cache, capsys):
        cache_dir, spec = warm_cache
        entry = ResultCache(cache_dir).path(spec)
        (entry / "orphan-deadbeef.npz").write_bytes(b"left behind by a kill")
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "1 orphan" in capsys.readouterr().out
        assert not (entry / "orphan-deadbeef.npz").exists()

    def test_max_age_prunes_old_entries(self, warm_cache, capsys):
        import os
        import time

        cache_dir, spec = warm_cache
        manifest = ResultCache(cache_dir).manifest_path(spec)
        week_ago = time.time() - 7 * 86400
        os.utime(manifest, (week_ago, week_ago))
        assert main(["cache", "gc", "--max-age-days", "1", "--cache-dir", str(cache_dir)]) == 0
        assert not ResultCache(cache_dir).entries()

    def test_gc_keeps_current_entries(self, warm_cache):
        cache_dir, spec = warm_cache
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert [info.spec_hash for info in ResultCache(cache_dir).entries()] == [spec.hash()]

    def test_gc_prunes_stale_code_fingerprints(self, warm_cache, monkeypatch):
        import repro.experiments.cache as cache_module

        cache_dir, spec = warm_cache
        # The solver/simulator sources "changed": the entry can never be
        # served again and gc sweeps it.
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "0ff0ba11dead")
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert not ResultCache(cache_dir).entries()

    def test_gc_never_touches_foreign_paths(self, tmp_path):
        # A mispointed --cache-dir (e.g. a source tree) must be a no-op:
        # only <scenario>-<16-hex-hash> names are cache entries.
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "code.py").write_text("x = 1")
        (tmp_path / "notes.json").write_text('{"hello": "world"}')
        assert not ResultCache(tmp_path).entries()
        assert main(["cache", "gc", "--max-age-days", "0", "--cache-dir", str(tmp_path)]) == 0
        assert (tmp_path / "src" / "code.py").exists()
        assert (tmp_path / "notes.json").exists()

    def test_gc_gives_manifestless_entries_a_grace_period(self, tmp_path):
        import os
        import time

        remnant = tmp_path / ("killed-" + "a" * 16)
        remnant.mkdir(parents=True)
        (remnant / "cell-deadbeef.npz").write_bytes(b"artifact written, manifest not yet")
        # Fresh remnant: could be a concurrent run between its first artifact
        # write and its first manifest write — gc must leave it alone.
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert remnant.exists()
        # Hours later it is a kill remnant and gets swept.
        two_hours_ago = time.time() - 7200
        os.utime(remnant, (two_hours_ago, two_hours_ago))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert not remnant.exists()
