"""Tests for the parallel simulation fabric and the persistent store.

Covers: content digests, store round-trips and corruption tolerance,
job-count resolution, serial-vs-parallel campaign determinism,
resume-after-interrupt, zero-simulation replay from the store, store
hits served before dispatch, and the two-level cache statistics.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.pipeline import Pipeline
from repro.harness import cache as hcache
from repro.harness import executor, runner
from repro.harness.cache import ResultStore, point_digest
from repro.harness.campaign import Campaign, CampaignPoint, standard_campaign
from repro.harness.configs import base64_config, shelf_config
from repro.harness.executor import resolve_jobs, run_points, simulate_point

MIXES = [("ilp.int8", "serial.alu"), ("branchy.easy", "gather.small")]


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the persistent store at a fresh directory (workers inherit
    the env var) and reset both cache levels around the test."""
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store_dir))
    runner.clear_cache()
    yield store_dir
    runner.clear_cache()


def small_campaign(path, configs=None):
    configs = configs or {"Base64": base64_config(2),
                          "Shelf": shelf_config(2, shelf_entries=32)}
    return standard_campaign(path, MIXES, 200, configs=configs)


def strip_elapsed(records):
    return {key: {k: v for k, v in rec.items() if k != "elapsed_s"}
            for key, rec in records.items()}


class TestDigest:
    def test_stable_across_equal_configs(self, isolated_store):
        a = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        b = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        assert a == b and len(a) == 64

    def test_sensitive_to_every_input(self, isolated_store):
        base = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        assert point_digest(shelf_config(2, shelf_entries=32),
                            ("ilp.int8",), 200, 0, "all") != base
        assert point_digest(base64_config(2), ("serial.alu",),
                            200, 0, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            300, 0, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            200, 1, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            200, 0, "first") != base


class TestResultStore:
    def test_roundtrip(self, tmp_path, isolated_store):
        store = ResultStore(tmp_path / "s")
        cfg = base64_config(2)
        result = simulate_point(cfg, MIXES[0], 200, 0, "first")
        digest = point_digest(cfg, MIXES[0], 200, 0, "first")
        assert store.get(digest) is None and store.misses == 1
        store.put(digest, result)
        loaded = store.get(digest)
        assert store.hits == 1
        assert loaded.cycles == result.cycles
        assert loaded.events.as_dict() == result.events.as_dict()

    def test_corrupt_entry_discarded(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digest = "ab" + "0" * 62
        path = store._path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert store.get(digest) is None
        assert store.errors == 1
        assert not path.exists()  # bad entry deleted

    def test_wrong_type_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digest = "cd" + "0" * 62
        path = store._path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a SimResult"}))
        assert store.get(digest) is None
        assert store.errors == 1

    def test_clear_and_len(self, tmp_path, isolated_store):
        store = ResultStore(tmp_path / "s")
        result = simulate_point(base64_config(2), MIXES[0], 200, 0, "first")
        store.put("ef" + "0" * 62, result)
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0 and store.evictions == 1

    def test_disabled_by_env(self, monkeypatch):
        for value in ("", "off", "0", "none"):
            monkeypatch.setenv("REPRO_CACHE_DIR", value)
            hcache.reset_store()
            assert hcache.get_store() is None
        hcache.reset_store()


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # Separate stores so the parallel run cannot trivially replay the
        # serial run's results — it must simulate everything itself.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        runner.clear_cache()
        serial = small_campaign(tmp_path / "serial.jsonl").run(jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        runner.clear_cache()
        parallel = small_campaign(tmp_path / "par.jsonl").run(jobs=4)
        assert strip_elapsed(serial) == strip_elapsed(parallel)
        runner.clear_cache()

    def test_run_points_yields_every_index(self, isolated_store):
        cfg = base64_config(2)
        specs = [(cfg, mix, 200, seed, "first")
                 for seed, mix in enumerate(MIXES)]
        seen = {i for i, _, _ in run_points(specs, jobs=2)}
        assert seen == {0, 1}

    def test_resume_completes_only_missing(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        full = small_campaign(path)
        # interrupt: only the first point was checkpointed
        Campaign(path, full.points[:1]).run()
        assert len(path.read_text().strip().splitlines()) == 1
        before = path.read_text()
        resumed = small_campaign(path)
        assert len(resumed.pending) == len(full.points) - 1
        resumed.run(jobs=2)
        after = path.read_text()
        assert after.startswith(before)  # completed point not re-run
        assert len(after.strip().splitlines()) == len(full.points)
        assert resumed.pending == []


class TestCorruptCheckpoint:
    def test_truncated_trailing_line_tolerated(self, tmp_path,
                                               isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        # simulate a crash mid-write of the next record
        with path.open("a") as fh:
            fh.write('{"key": "half-written')
        reloaded = small_campaign(path)
        assert len(reloaded.records) == len(camp.points)
        assert reloaded.pending == []

    def test_corrupt_line_point_reruns(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        lines = path.read_text().strip().splitlines()
        # corrupt the last record: its point must become pending again
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25] + "\n")
        reloaded = small_campaign(path)
        assert len(reloaded.pending) == 1
        reloaded.run()
        assert reloaded.pending == []

    def test_append_after_truncation_does_not_merge(self, tmp_path,
                                                    isolated_store):
        path = tmp_path / "c.jsonl"
        full = small_campaign(path)
        Campaign(path, full.points[:1]).run()
        # crash mid-write: partial record, no trailing newline
        with path.open("a") as fh:
            fh.write('{"key": "half-writ')
        resumed = small_campaign(path)
        resumed.run()
        # the first record appended on resume must not have merged into
        # the partial line — a fresh reload sees every point completed
        assert small_campaign(path).pending == []

    def test_blank_lines_ignored(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        path.write_text(path.read_text() + "\n\n")
        assert small_campaign(path).pending == []


class TestPersistentReplay:
    def test_second_invocation_runs_no_pipelines(self, tmp_path,
                                                 isolated_store,
                                                 monkeypatch):
        small_campaign(tmp_path / "first.jsonl").run()
        runner.clear_cache()  # drop the in-process memo, keep the disk store

        def boom(self, stop="all"):
            raise AssertionError("Pipeline.run called despite warm store")
        monkeypatch.setattr(Pipeline, "run", boom)
        records = small_campaign(tmp_path / "second.jsonl").run()
        assert len(records) == 4
        stats = runner.cache_stats()
        assert stats["disk_hits"] == 4 and stats["disk_misses"] == 0

    def test_memoized_runner_replays_from_store(self, isolated_store,
                                                monkeypatch):
        first = runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        runner.clear_cache()
        monkeypatch.setattr(Pipeline, "run", lambda self, stop="all": (
            (_ for _ in ()).throw(AssertionError("simulated twice"))))
        again = runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert again.cycles == first.cycles


class TestCacheStats:
    def test_two_level_counters(self, isolated_store):
        cfg = base64_config(2)
        runner.run_mix(cfg, MIXES[0], 200, 0)
        stats = runner.cache_stats()
        assert stats["memo_misses"] == 1 and stats["disk_misses"] == 1
        runner.run_mix(cfg, MIXES[0], 200, 0)
        stats = runner.cache_stats()
        assert stats["memo_hits"] == 1
        assert stats["memo_size"] == 1

    def test_clear_cache_resets_both(self, isolated_store):
        runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert runner._CACHE
        store_before = hcache.get_store()
        runner.clear_cache()
        assert not runner._CACHE
        assert runner.cache_stats()["memo_misses"] == 0
        # the handle was dropped: next access builds a fresh one
        assert hcache.get_store() is not store_before

    def test_clear_cache_disk_wipes_store(self, isolated_store):
        runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert len(hcache.get_store()) == 1
        runner.clear_cache(disk=True)
        assert len(hcache.get_store()) == 0

    def test_prefill_seeds_memo(self, isolated_store):
        cfg = base64_config(2)
        points = [(cfg, mix, 200, seed, "first")
                  for seed, mix in enumerate(MIXES)]
        assert runner.prefill(points) == 2
        assert runner.prefill(points) == 0  # everything already memoized
        runner.run_mix(cfg, MIXES[0], 200, 0)
        assert runner.cache_stats()["memo_hits"] == 1


def _distinct_specs():
    """Three points with distinct trace signatures: three dispatch
    tasks, even with gang mode on."""
    return [(base64_config(2), MIXES[0], 200, 0, "first"),
            (base64_config(2), MIXES[1], 200, 1, "first"),
            (shelf_config(2, shelf_entries=32), MIXES[0], 200, 2, "first")]


def _no_pool(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a worker pool was spawned")
    monkeypatch.setattr(executor, "ProcessPoolExecutor", boom)


class TestDispatchLookup:
    """Store hits are served by the dispatching process, once each."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prefill_counts_each_point_once(self, isolated_store, jobs):
        specs = _distinct_specs()
        counts = lambda s: (s["disk_hits"], s["disk_misses"])  # noqa: E731
        assert runner.prefill(specs, jobs=jobs) == 3
        assert counts(runner.cache_stats()) == (0, 3)
        runner.clear_cache()  # keep the disk store, drop memo + counters
        assert runner.prefill(specs, jobs=jobs) == 3
        assert counts(runner.cache_stats()) == (3, 0)

    def test_warm_dispatch_spawns_no_pool(self, isolated_store,
                                          monkeypatch):
        specs = _distinct_specs()
        cold = {i: pickle.dumps(result)
                for i, result, _ in run_points(specs, jobs=2)}
        runner.clear_cache()
        _no_pool(monkeypatch)
        monkeypatch.setattr(Pipeline, "run", lambda self, stop="all": (
            (_ for _ in ()).throw(AssertionError("simulated a hit"))))
        yielded = [(i, pickle.dumps(result))
                   for i, result, _ in run_points(specs, jobs=2)]
        assert sorted(i for i, _ in yielded) == [0, 1, 2]
        assert dict(yielded) == cold

    def test_single_miss_task_runs_in_process(self, isolated_store,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_GANG", raising=False)
        # two misses sharing a trace signature (one gang task) and one
        # stored point.
        specs = [(base64_config(2), MIXES[0], 200, 0, "first"),
                 (shelf_config(2, shelf_entries=32), MIXES[0], 200, 0,
                  "first"),
                 (base64_config(2), MIXES[1], 200, 1, "first")]
        warm = simulate_point(*specs[2])
        runner.clear_cache()
        _no_pool(monkeypatch)
        out = {i: result for i, result, _ in run_points(specs, jobs=2)}
        assert sorted(out) == [0, 1, 2]
        assert pickle.dumps(out[2]) == pickle.dumps(warm)
        stats = runner.cache_stats()
        assert stats["disk_hits"] == 1 and stats["disk_misses"] == 2
        store = hcache.get_store()
        assert all(point_digest(*spec) in store for spec in specs)

    def test_store_lookup_does_not_import_the_fleet(self, tmp_path):
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
                   PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("REPRO_FLEET_DIR", None)
        code = ("import sys\n"
                "from repro.harness.cache import get_store\n"
                "assert get_store() is not None\n"
                "assert 'repro.fleet' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
