"""Tests for the serving tier (repro.serve).

Covers the four tentpole pieces — the session registry (LRU, TTL, memory
budget, single-flight coalescing), the sharded parallel cold build
(byte-identity with one-shot, cache feeding, degraded serial path), the
query scheduler (in-flight dedupe), and the JSON-over-HTTP API (every
endpoint, error mapping, and parity with the CLI's answers) — plus the
``repro serve`` CLI verb end-to-end in a subprocess.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube, merge_shard_cubes
from repro.datasets.base import Dataset
from repro.exceptions import QueryError
from repro.serve.http import ServeApp, make_app
from repro.serve.registry import DatasetSpec, SessionRegistry, session_nbytes
from repro.serve.scheduler import QueryScheduler
from repro.serve.sharding import ShardedBuilder, split_time_shards
from tests.conftest import build_relation, regime_relation, two_attr_relation


def make_dataset(name: str = "regime", n: int = 24) -> Dataset:
    return Dataset(
        name=name,
        relation=regime_relation(n=n),
        measure="sales",
        explain_by=("cat",),
        aggregate="sum",
    )


def spec_for(dataset: Dataset, **kwargs) -> DatasetSpec:
    kwargs.setdefault("config", ExplainConfig(k=2))
    return DatasetSpec.from_dataset(dataset, **kwargs)


def _get_json(url: str):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


# ----------------------------------------------------------------------
# Time sharding
# ----------------------------------------------------------------------
class TestSplitTimeShards:
    def test_partitions_rows_by_contiguous_label_ranges(self):
        relation = two_attr_relation(n=16)
        shards = split_time_shards(relation, None, 4)
        assert len(shards) == 4
        assert sum(s.n_rows for s in shards) == relation.n_rows
        previous_last = None
        for shard in shards:
            labels = sorted(set(shard.column("t")))
            assert labels
            if previous_last is not None:
                assert labels[0] > previous_last
            previous_last = labels[-1]

    def test_clamps_to_label_count(self):
        relation = two_attr_relation(n=4)
        shards = split_time_shards(relation, None, 99)
        assert len(shards) == 4
        assert all(shard.n_rows > 0 for shard in shards)

    def test_single_shard_returns_relation_unchanged(self):
        relation = regime_relation()
        (shard,) = split_time_shards(relation, None, 1)
        assert shard is relation


class TestShardedBuilder:
    def _assert_identical(self, left: ExplanationCube, right: ExplanationCube):
        assert left.labels == right.labels
        assert left.explanations == right.explanations
        assert left.supports.tobytes() == right.supports.tobytes()
        assert left.overall_values.tobytes() == right.overall_values.tobytes()
        assert left.included_values.tobytes() == right.included_values.tobytes()
        assert left.excluded_values.tobytes() == right.excluded_values.tobytes()

    def test_serial_sharded_build_is_byte_identical(self):
        relation = two_attr_relation(n=20)
        one_shot = ExplanationCube(relation, ["a", "b"], "m")
        builder = ShardedBuilder(n_shards=3, max_workers=1, min_rows_per_shard=1)
        cube = builder.build(relation, ["a", "b"], "m")
        assert builder.last_report.n_shards == 3
        assert not builder.last_report.parallel
        self._assert_identical(cube, one_shot)
        assert cube.appendable

    def test_process_pool_build_is_byte_identical(self):
        relation = two_attr_relation(n=20)
        one_shot = ExplanationCube(relation, ["a", "b"], "m")
        builder = ShardedBuilder(n_shards=2, max_workers=2, min_rows_per_shard=1)
        cube = builder.build(relation, ["a", "b"], "m")
        assert builder.last_report.n_shards == 2
        self._assert_identical(cube, one_shot)

    def test_small_relations_build_one_shot(self):
        relation = regime_relation(n=6)
        builder = ShardedBuilder(n_shards=4, max_workers=1)  # default min rows
        builder.build(relation, ["cat"], "sales")
        assert builder.last_report.n_shards == 1

    def test_feeds_and_reuses_the_rollup_cache(self, tmp_path):
        relation = two_attr_relation(n=16)
        cache = RollupCache(tmp_path / "rollups")
        builder = ShardedBuilder(n_shards=2, max_workers=1, min_rows_per_shard=1)
        built = builder.build(relation, ["a", "b"], "m", cache=cache)
        assert not builder.last_report.cache_hit
        # The stored entry is the one a one-shot load_or_build would hit.
        key = cube_key(relation, "m", ["a", "b"])
        assert cache.load(key) is not None
        again = builder.build(relation, ["a", "b"], "m", cache=cache)
        assert builder.last_report.cache_hit
        self._assert_identical(again, built)


class TestMergeShardCubes:
    def _day_cube(self, days) -> ExplanationCube:
        rows = {"t": [], "cat": [], "m": []}
        for day in days:
            for cat in ("x", "y"):
                rows["t"].append(f"d{day:02d}")
                rows["cat"].append(cat)
                rows["m"].append(float(day + (1 if cat == "x" else 2)))
        relation = build_relation(
            rows, dimensions=["cat"], measures=["m"], time="t"
        )
        return ExplanationCube(relation, ["cat"], "m")

    def test_empty_shard_list_raises(self):
        with pytest.raises(QueryError, match="empty"):
            merge_shard_cubes([])

    def test_single_shard_round_trips_without_aliasing(self):
        cube = self._day_cube(range(4))
        merged = merge_shard_cubes([cube])
        assert merged is not cube
        assert merged.labels == cube.labels
        assert merged.explanations == cube.explanations
        assert merged.included_values.tobytes() == cube.included_values.tobytes()
        # No shared ledger state: appending to the merged cube must leave
        # the input untouched.
        before = cube.included_values.tobytes()
        merged.append(
            build_relation(
                {"t": ["d09"], "cat": ["x"], "m": [5.0]},
                dimensions=["cat"],
                measures=["m"],
                time="t",
            )
        )
        assert cube.included_values.tobytes() == before

    def test_out_of_order_shards_raise(self):
        early, late = self._day_cube(range(0, 3)), self._day_cube(range(3, 6))
        with pytest.raises(QueryError, match="sort strictly after"):
            merge_shard_cubes([late, early])

    def test_overlapping_shards_raise(self):
        left, right = self._day_cube(range(0, 4)), self._day_cube(range(3, 6))
        with pytest.raises(QueryError, match="disjoint"):
            merge_shard_cubes([left, right])

    def test_three_ordered_shards_match_one_shot(self):
        merged = merge_shard_cubes(
            [self._day_cube(range(0, 2)), self._day_cube(range(2, 4)), self._day_cube(range(4, 6))]
        )
        one_shot = self._day_cube(range(6))
        assert merged.labels == one_shot.labels
        assert merged.included_values.tobytes() == one_shot.included_values.tobytes()
        assert merged.excluded_values.tobytes() == one_shot.excluded_values.tobytes()


# ----------------------------------------------------------------------
# SessionRegistry
# ----------------------------------------------------------------------
class TestSessionRegistry:
    def test_unknown_dataset_raises(self):
        registry = SessionRegistry()
        with pytest.raises(QueryError, match="unknown dataset"):
            registry.session("nope")

    def test_sessions_are_cached_and_counted(self):
        calls = []
        dataset = make_dataset()
        spec = DatasetSpec(
            name="regime",
            loader=lambda: calls.append(1) or dataset,
            config=ExplainConfig(k=2),
        )
        registry = SessionRegistry([spec])
        first = registry.session("regime")
        second = registry.session("regime")
        assert first is second
        assert calls == [1]
        stats = registry.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["resident_sessions"] == 1
        assert stats["memory_bytes"] == session_nbytes(first) > 0
        # Derived scorers may hold at most what the session itself does.
        assert first.scorer_cache_bytes == session_nbytes(first)

    def test_cold_build_is_single_flight(self):
        release = threading.Event()
        calls = []
        dataset = make_dataset()

        def slow_loader():
            calls.append(1)
            release.wait(timeout=10.0)
            return dataset

        registry = SessionRegistry(
            [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
        )
        sessions: list = []
        threads = [
            threading.Thread(target=lambda: sessions.append(registry.session("regime")))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=15.0)
        assert len(calls) == 1, "concurrent cold requests must coalesce to one prepare"
        assert len(sessions) == 6
        assert all(session is sessions[0] for session in sessions)
        stats = registry.stats()
        assert stats["coalesced"] >= 1
        assert stats["misses"] >= 1

    def test_ttl_expires_idle_sessions(self):
        now = [0.0]
        registry = SessionRegistry(
            [spec_for(make_dataset())], ttl_seconds=10.0, clock=lambda: now[0]
        )
        first = registry.session("regime")
        now[0] = 5.0
        assert registry.session("regime") is first  # still fresh
        now[0] = 20.0
        second = registry.session("regime")
        assert second is not first
        assert registry.stats()["expirations"] == 1

    def test_sweep_drops_expired_sessions(self):
        now = [0.0]
        registry = SessionRegistry(
            [spec_for(make_dataset())], ttl_seconds=1.0, clock=lambda: now[0]
        )
        registry.session("regime")
        assert registry.sweep() == 0
        now[0] = 5.0
        assert registry.sweep() == 1
        assert registry.stats()["resident_sessions"] == 0

    def test_memory_budget_evicts_lru_but_keeps_newest(self):
        specs = [
            spec_for(make_dataset(name=f"d{i}")) for i in range(3)
        ]
        registry = SessionRegistry(specs, memory_budget_bytes=1)  # everything over
        registry.session("d0")
        registry.session("d1")
        registry.session("d2")
        stats = registry.stats()
        # Each admit evicts the previous resident; the newest survives
        # even though it alone exceeds the budget.
        assert stats["resident_sessions"] == 1
        assert stats["evictions"] == 2
        assert registry.describe()[-1]["loaded"]

    def test_lru_order_follows_use_not_admission(self):
        big_budget = 10**9
        registry = SessionRegistry(
            [spec_for(make_dataset(name=name)) for name in ("a", "b")],
            memory_budget_bytes=big_budget,
        )
        session_a = registry.session("a")
        registry.session("b")
        registry.session("a")  # refresh a: b is now least recently used
        # Shrink the effective budget by registering a third dataset and
        # admitting it with a tiny budget.
        registry._memory_budget = 1  # type: ignore[attr-defined]
        registry.register(spec_for(make_dataset(name="c")))
        registry.session("c")
        names = [row["name"] for row in registry.describe() if row["loaded"]]
        assert names == ["c"]
        # "a" survived longer than "b" in the eviction sequence: rebuild
        # and check the counters add up.
        assert registry.stats()["evictions"] == 2
        assert session_a.prepared

    def test_describe_lists_loaded_metadata(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        rows = registry.describe()
        assert rows[0] == {"name": "regime", "description": "", "loaded": False}
        registry.session("regime")
        row = registry.describe()[0]
        assert row["loaded"] and row["epsilon"] > 0 and row["memory_bytes"] > 0

    def test_sharded_builder_cold_path_matches_plain_prepare(self, tmp_path):
        dataset = make_dataset(n=30)
        plain = SessionRegistry([spec_for(dataset)])
        sharded = SessionRegistry(
            [spec_for(dataset)],
            builder=ShardedBuilder(n_shards=3, max_workers=1, min_rows_per_shard=1),
            cache_dir=str(tmp_path / "rollups"),
        )
        expected = plain.session("regime").explain()
        observed = sharded.session("regime").explain()
        assert [s.describe() for s in observed.segments] == [
            s.describe() for s in expected.segments
        ]
        # The sharded build fed the shared rollup cache.
        assert list((tmp_path / "rollups").glob("*.npz"))


# ----------------------------------------------------------------------
# QueryScheduler
# ----------------------------------------------------------------------
class TestQueryScheduler:
    def test_identical_inflight_queries_share_one_future(self):
        release = threading.Event()
        dataset = make_dataset()

        def slow_loader():
            release.wait(timeout=10.0)
            return dataset

        registry = SessionRegistry(
            [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
        )
        scheduler = QueryScheduler(registry, max_workers=4)
        try:
            first = scheduler.submit("explain", "regime")
            second = scheduler.submit("explain", "regime")
            different = scheduler.submit("explain", "regime", k=3)
            assert first is second
            assert different is not first
            release.set()
            assert first.result(timeout=30.0).k == 2
            assert different.result(timeout=30.0).k == 3
            stats = scheduler.stats()
            assert stats["coalesced"] == 1
            assert stats["submitted"] == 2
        finally:
            scheduler.shutdown()

    def test_key_is_dropped_after_completion(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=2)
        try:
            first = scheduler.submit("explain", "regime")
            first.result(timeout=30.0)
            second = scheduler.submit("explain", "regime")
            assert second is not first
            assert scheduler.stats()["inflight"] == 0 or second.result(timeout=30.0)
        finally:
            scheduler.shutdown()

    def test_diff_and_recommend_kinds(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=2)
        try:
            scored = scheduler.execute(
                "diff", "regime", start="t000", stop="t023", m=2
            )
            assert len(scored) <= 2 and scored[0].gamma >= 0
            ranked = scheduler.execute("recommend", "regime", m=1)
            assert ranked[0].attribute == "cat"
        finally:
            scheduler.shutdown()

    def test_bad_queries_fail_synchronously(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=1)
        try:
            with pytest.raises(QueryError, match="unknown query kind"):
                scheduler.submit("mutate", "regime")
            with pytest.raises(QueryError, match="unsupported parameter"):
                scheduler.submit("explain", "regime", nonsense=1)
            with pytest.raises(QueryError, match="requires both"):
                scheduler.submit("diff", "regime", start="t000")
        finally:
            scheduler.shutdown()

    def test_worker_errors_propagate_and_count(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=1)
        try:
            future = scheduler.submit("explain", "regime", start="no-such-label")
            with pytest.raises(QueryError):
                future.result(timeout=30.0)
            assert scheduler.stats()["errors"] == 1
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture
def app():
    registry = SessionRegistry([spec_for(make_dataset())])
    app = ServeApp(registry, QueryScheduler(registry, max_workers=4), port=0).start()
    yield app
    app.shutdown()


class TestHttpApi:
    def test_healthz(self, app):
        payload = _get_json(f"{app.url}/healthz")
        assert payload["ok"] is True
        # Build info rides along so multi-worker smokes can tell workers
        # apart: version, pid, worker id, uptime.
        from repro import __version__

        assert payload["version"] == __version__
        assert payload["pid"] > 0
        assert isinstance(payload["worker"], str) and payload["worker"]
        assert payload["uptime_seconds"] >= 0.0

    def test_datasets_endpoint(self, app):
        payload = _get_json(f"{app.url}/datasets")
        assert payload["datasets"][0]["name"] == "regime"

    def test_explain_matches_direct_session(self, app):
        payload = _get_json(f"{app.url}/explain?dataset=regime")
        direct = ExplainSession(
            regime_relation(),
            "sales",
            ["cat"],
            config=ExplainConfig(k=2),
        ).explain()
        assert payload["k"] == direct.k == 2
        assert payload["epsilon"] == direct.epsilon
        served = [
            (seg["start_label"], seg["stop_label"], [e["explanation"] for e in seg["explanations"]])
            for seg in payload["segments"]
        ]
        expected = [
            (
                seg.start_label,
                seg.stop_label,
                [repr(s.explanation) for s in seg.explanations],
            )
            for seg in direct.segments
        ]
        assert served == expected
        hexes = [
            e["gamma_hex"]
            for seg in payload["segments"]
            for e in seg["explanations"]
        ]
        assert hexes == [
            s.gamma.hex() for seg in direct.segments for s in seg.explanations
        ]

    def test_explain_window_and_overrides(self, app):
        payload = _get_json(
            f"{app.url}/explain?dataset=regime&start=t004&stop=t020&k=2&smoothing=3"
        )
        assert payload["k"] == 2
        assert payload["series"]["labels"][0] == "t004"
        assert payload["series"]["labels"][-1] == "t020"

    def test_diff_endpoint(self, app):
        payload = _get_json(
            f"{app.url}/diff?dataset=regime&start=t000&stop=t023&m=2"
        )
        explanations = [e["explanation"] for e in payload["explanations"]]
        assert explanations and all(e.startswith("cat=") for e in explanations)

    def test_recommend_endpoint(self, app):
        payload = _get_json(f"{app.url}/recommend?dataset=regime&m=1")
        assert payload["attributes"][0]["attribute"] == "cat"

    def test_stats_endpoint(self, app):
        _get_json(f"{app.url}/explain?dataset=regime")
        payload = _get_json(f"{app.url}/stats")
        assert payload["requests"] >= 1
        assert payload["registry"]["resident_sessions"] == 1
        assert payload["scheduler"]["submitted"] >= 1
        assert payload["uptime_seconds"] >= 0

    def test_unknown_dataset_is_404(self, app):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/explain?dataset=nope")
        assert error.value.code == 404
        assert "registered" in json.loads(error.value.read().decode("utf-8"))

    def test_unknown_path_is_404(self, app):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/frobnicate")
        assert error.value.code == 404

    def test_bad_parameter_is_400(self, app):
        for query in (
            "/explain?dataset=regime&k=banana",
            "/explain?dataset=regime&bogus=1",
            "/explain",
            "/diff?dataset=regime&start=t000",
        ):
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(f"{app.url}{query}")
            assert error.value.code == 400, query

    def test_concurrent_clients_get_identical_answers(self, app):
        url = f"{app.url}/explain?dataset=regime"
        payloads: list = []
        errors: list = []

        def hit():
            try:
                payloads.append(_get_json(url))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(payloads) == 8
        # Identical *answers*: wall-clock timings are excluded — a client
        # arriving after the coalesced flight completed legitimately
        # recomputes, and only its timings may differ.
        answers = [{k: v for k, v in p.items() if k != "timings"} for p in payloads]
        reference = json.dumps(answers[0], sort_keys=True)
        assert all(
            json.dumps(p, sort_keys=True) == reference for p in answers[1:]
        )
        stats = _get_json(f"{app.url}/stats")
        assert stats["registry"]["misses"] == 1  # one cold build for 8 clients

    def test_make_app_assembles_bundled_registry(self, tmp_path):
        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "rollups"),
            memory_budget_bytes=1 << 30,
            ttl_seconds=600.0,
            query_workers=2,
            build_shards=2,
            build_workers=1,
            access_log=False,
        ).start()
        try:
            names = _get_json(f"{app.url}/datasets")["datasets"]
            assert [row["name"] for row in names] == ["covid-total"]
            payload = _get_json(f"{app.url}/explain?dataset=covid-total")
            assert payload["segments"]
            stats = _get_json(f"{app.url}/stats")
            assert stats["registry"]["sharded_builds"] is True
            assert stats["registry"]["cache_dir"] == str(tmp_path / "rollups")
            # The sharded cold build fed the shared rollup cache.
            assert list((tmp_path / "rollups").glob("*.npz"))
        finally:
            app.shutdown()

    def test_max_requests_trips_the_breaker(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        app = ServeApp(
            registry, QueryScheduler(registry), port=0, max_requests=2
        ).start()
        try:
            _get_json(f"{app.url}/healthz")
            _get_json(f"{app.url}/healthz")
            assert app.requests_served == 2
            app._thread.join(timeout=10.0)  # serve loop exits by itself
            assert not app._thread.is_alive()
        finally:
            app.shutdown()


# ----------------------------------------------------------------------
# repro serve CLI (subprocess end-to-end, parity with the CLI answer)
# ----------------------------------------------------------------------
REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_serve_cli_smoke_and_cli_parity():
    """Start ``repro serve`` for real, hit /explain + /stats, compare with CLI."""
    import os

    from repro.cli import main as cli_main

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--datasets",
            "covid-total",
            "--port",
            "0",
            "--max-requests",
            "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        assert match, f"no listen line, got: {line!r}"
        url = match.group(1)
        explain = _get_json(f"{url}/explain?dataset=covid-total")
        stats = _get_json(f"{url}/stats")
        _get_json(f"{url}/healthz")  # third request trips --max-requests
        process.wait(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
    assert process.returncode == 0
    assert stats["registry"]["resident_sessions"] == 1

    # Parity: every served explanation appears verbatim in the CLI's
    # report for the same dataset and default configuration.
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli_main(["explain", "--dataset", "covid-total"]) == 0
    cli_out = buffer.getvalue()
    served = [
        e["explanation"]
        for seg in explain["segments"]
        for e in seg["explanations"]
    ]
    assert served
    for explanation in served:
        assert explanation in cli_out
    assert f"K={explain['k']}" in cli_out


def test_register_during_inflight_build_never_caches_stale_session():
    """A spec replaced while its cold build is in flight must not be
    admitted: the racing request is served the stale session once, but
    the next request prepares the new spec."""
    release = threading.Event()
    old_dataset = make_dataset(n=24)
    new_dataset = make_dataset(n=26)

    def slow_loader():
        release.wait(timeout=10.0)
        return old_dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    sessions: list = []
    thread = threading.Thread(target=lambda: sessions.append(registry.session("regime")))
    thread.start()
    registry.register(spec_for(new_dataset))  # replace while the build waits
    release.set()
    thread.join(timeout=30.0)
    assert len(sessions) == 1
    assert sessions[0].relation.n_rows == old_dataset.relation.n_rows
    # The stale build was not cached: the next request builds the new spec.
    fresh = registry.session("regime")
    assert fresh is not sessions[0]
    assert fresh.relation.n_rows == new_dataset.relation.n_rows


# ----------------------------------------------------------------------
# Serve-tier accounting, drain shutdown, admission, multi-process front end
# ----------------------------------------------------------------------
def test_detect_state_counts_toward_memory_budget():
    """The cached detector's baselines are resident state of the dataset:
    the memory budget must see them, not just the explain cube."""
    from repro.serve.registry import detector_nbytes

    registry = SessionRegistry([spec_for(make_dataset())])
    registry.session("regime")
    before = registry.stats()["memory_bytes"]
    detector = registry.detect_session("regime")
    after = registry.stats()["memory_bytes"]
    assert detector_nbytes(detector) > 0
    assert after == before + detector_nbytes(detector)
    # Rebuilding the same detector does not double-count.
    assert registry.detect_session("regime") is detector
    assert registry.stats()["memory_bytes"] == after


def test_detect_state_can_trigger_eviction_and_evicts_its_detector():
    """Growing a resident entry by its detector bytes re-checks the budget,
    and an evicted dataset takes its cached detector with it."""
    from repro.serve.registry import detector_nbytes, session_nbytes

    probe = SessionRegistry([spec_for(make_dataset("probe"))])
    probe_session = probe.session("probe")
    probe_detector = probe.detect_session("probe")
    plain = session_nbytes(probe_session)
    full = plain + detector_nbytes(probe_detector)

    # Both plain sessions fit; the second detector build pushes past the
    # budget and the LRU entry (dataset "a") must go.
    registry = SessionRegistry(
        [spec_for(make_dataset("a")), spec_for(make_dataset("b"))],
        memory_budget_bytes=full + plain + detector_nbytes(probe_detector) // 2,
    )
    registry.detect_session("a")
    assert registry.stats()["resident_sessions"] == 1  # b not yet built
    registry.session("b")
    registry.detect_session("b")
    assert registry.stats()["resident_sessions"] == 1
    assert registry.detect_stats()["sessions"] == 1  # a's detector went too
    assert registry.stats()["evictions"] >= 1


def test_shutdown_waits_for_inflight_responses():
    """shutdown() must not tear an in-flight response: the client gets a
    complete, valid payload even when shutdown lands mid-request."""
    entered = threading.Event()
    release = threading.Event()
    dataset = make_dataset()

    def slow_loader():
        entered.set()
        release.wait(timeout=30.0)
        return dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    app = ServeApp(
        registry, QueryScheduler(registry, max_workers=2), port=0
    ).start()
    result: dict = {}

    def client():
        try:
            result["payload"] = _get_json(f"{app.url}/explain?dataset=regime")
        except Exception as error:  # pragma: no cover - failure detail
            result["error"] = error

    thread = threading.Thread(target=client)
    thread.start()
    assert entered.wait(timeout=30.0)

    releaser = threading.Timer(0.5, release.set)
    releaser.start()
    try:
        app.shutdown()  # must block until the admitted response is written
    finally:
        releaser.cancel()
        release.set()
    thread.join(timeout=10.0)
    assert "error" not in result, result.get("error")
    assert result["payload"]["segments"]


def test_blank_parameter_is_400(app):
    """``?k=`` must be rejected loudly, not silently dropped."""
    for query in (
        "/explain?dataset=regime&k=",
        "/explain?dataset=regime&start=",
        "/explain?dataset=regime&smoothing=",
        "/detect?dataset=regime&direction=",
    ):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}{query}")
        assert error.value.code == 400, query
        assert "empty value" in json.loads(error.value.read().decode("utf-8"))["error"]
    # A blank dataset is indistinguishable from a missing one; still 400.
    with pytest.raises(urllib.error.HTTPError) as error:
        urllib.request.urlopen(f"{app.url}/explain?dataset=")
    assert error.value.code == 400


def test_each_response_goes_out_in_one_write(app, monkeypatch):
    """Headers and body share one write, so a keep-alive client never
    waits on a delayed ACK between them."""
    import http.client

    from repro.serve import http as serve_http

    writes: list[bytes] = []
    original_setup = serve_http._Handler.setup

    class CountingWriter:
        def __init__(self, raw):
            self._raw = raw

        def write(self, data):
            writes.append(bytes(data))
            return self._raw.write(data)

        def __getattr__(self, name):
            return getattr(self._raw, name)

    def setup(handler):
        original_setup(handler)
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(serve_http._Handler, "setup", setup)
    host, port = app.url.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    bodies = []
    try:
        # One keep-alive connection: a JSON answer, a JSON error, metrics.
        for path in ("/explain?dataset=regime", "/nope", "/metrics"):
            connection.request("GET", path)
            response = connection.getresponse()
            bodies.append(response.read())
            assert response.getheader("Connection") != "close"
    finally:
        connection.close()
    assert len(writes) == 3, [w[:40] for w in writes]
    for write, body in zip(writes, bodies):
        assert write.startswith(b"HTTP/1.1 ")
        assert write.endswith(b"\r\n\r\n" + body)


def test_admission_control_sheds_excess_with_503():
    entered = threading.Event()
    release = threading.Event()
    dataset = make_dataset()

    def slow_loader():
        entered.set()
        release.wait(timeout=30.0)
        return dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    app = ServeApp(
        registry,
        QueryScheduler(registry, max_workers=2),
        port=0,
        max_inflight=1,
    ).start()
    try:
        result: dict = {}

        def client():
            result["payload"] = _get_json(f"{app.url}/explain?dataset=regime")

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(timeout=30.0)
        # The slot is taken: even /healthz is refused, with a retry hint.
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/healthz")
        assert error.value.code == 503
        assert error.value.headers["Retry-After"] == "1"
        release.set()
        thread.join(timeout=30.0)
        assert result["payload"]["segments"]

        # A client finishes reading slightly before the handler thread
        # runs its release(): with a single slot, wait for the server to
        # actually free it before each follow-up request.
        def wait_idle():
            for _ in range(500):
                if app.inflight == 0:
                    return
                time.sleep(0.01)

        wait_idle()
        assert _get_json(f"{app.url}/healthz")["ok"] is True
        wait_idle()
        stats = _get_json(f"{app.url}/stats")
        assert stats["rejected"] >= 1
        assert stats["max_inflight"] == 1
    finally:
        release.set()
        app.shutdown()


def _no_timings(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


@pytest.mark.skipif(
    not __import__("repro.serve.http", fromlist=["reuseport_available"]).reuseport_available(),
    reason="SO_REUSEPORT unavailable on this platform",
)
def test_worker_pool_serves_identically_and_survives_worker_loss(tmp_path):
    """N workers over one shared artifact answer exactly like the
    single-process server, and survivors keep answering after a kill."""
    from repro.cube.artifact import ARTIFACT_SUFFIX
    from repro.serve.multiproc import WorkerPool

    cache_dir = str(tmp_path / "cache")
    pool = WorkerPool(
        {"datasets": ["covid-total"], "cache_dir": cache_dir, "port": 0, "access_log": False},
        workers=2,
    ).start()
    try:
        url = f"{pool.url}/explain?dataset=covid-total"
        served = _no_timings(_get_json(url))

        single = make_app(
            datasets=["covid-total"], cache_dir=cache_dir, artifacts=True, port=0,
            access_log=False,
        ).start()
        try:
            reference = _no_timings(_get_json(f"{single.url}/explain?dataset=covid-total"))
        finally:
            single.shutdown()
        assert served == reference

        # The parent pre-built exactly one shared artifact; the workers
        # adopted it instead of rebuilding.
        assert list(Path(cache_dir).glob(f"*{ARTIFACT_SUFFIX}"))
        # /stats lands on whichever worker the kernel picks per
        # connection; sample until we see the one that served /explain.
        saw_artifact_hit = False
        for _ in range(20):
            stats = _get_json(f"{pool.url}/stats")
            assert stats["registry"]["artifacts"] is True
            if stats["registry"]["artifact_hits"] >= 1:
                saw_artifact_hit = True
                break
        assert saw_artifact_hit

        pool.kill_worker(0)
        assert pool.n_alive == 1
        for _ in range(6):
            assert _no_timings(_get_json(url)) == reference
    finally:
        pool.shutdown()
