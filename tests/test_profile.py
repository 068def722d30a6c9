"""Tests for the profiling + perf-regression layer.

Covers the sampling profiler (phase attribution through the tracer's
active-span map, overhead bound, thread safety, report round-trips and
merging), the slow-query auto-capture writer, size-based rotation of
JSON-lines observability files, the live ``/debug/profile`` endpoint
(including the acceptance bound: phase-attributed self time consistent
with the recorded span trees), the BENCH-trajectory regression gate
(:mod:`repro.obs.bench`), and the ``repro obs`` / ``repro bench`` CLI
verbs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import QueryError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.bench import (
    check_trajectory,
    flatten,
    load_trajectory,
    metric_direction,
)
from repro.obs.profile import (
    MAX_HZ,
    ProfileReport,
    SamplingProfiler,
    SlowProfileWriter,
    UNTRACED,
    capture,
    parse_collapsed,
)
from repro.obs.trace import (
    DEFAULT_EXPORT_MAX_BYTES,
    JsonLinesExporter,
    Trace,
    active_phases,
    append_jsonl_rotating,
    rotated_path,
    span,
    start_trace,
)


@pytest.fixture()
def fresh_registry():
    """Swap in an empty process-default metrics registry (ServeApp
    registers its metrics globally; two apps in one process collide)."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def _busy_until(event: threading.Event) -> None:
    while not event.is_set():
        sum(i * i for i in range(500))


# ----------------------------------------------------------------------
# Active-span map (the profiler's join surface)
# ----------------------------------------------------------------------
class TestActivePhases:
    def test_innermost_span_wins_and_restores(self):
        ident = threading.get_ident()
        assert ident not in active_phases()
        with start_trace("/req") as trace:
            assert active_phases()[ident] == (trace.trace_id, "/req")
            with span("outer"):
                with span("inner"):
                    assert active_phases()[ident] == (trace.trace_id, "inner")
                assert active_phases()[ident] == (trace.trace_id, "outer")
            assert active_phases()[ident] == (trace.trace_id, "/req")
        assert ident not in active_phases()

    def test_unsampled_traces_stay_invisible(self):
        ident = threading.get_ident()
        with start_trace("/req", sampled=False):
            with span("phase"):
                assert ident not in active_phases()
        assert ident not in active_phases()

    def test_pool_thread_entries_are_per_thread(self):
        """Two threads inside different spans map independently."""
        with start_trace("/req") as trace:
            seen = {}
            barrier = threading.Barrier(3)

            def worker(name, context):
                def run():
                    with span(name):
                        barrier.wait()
                        seen[name] = active_phases()[threading.get_ident()]
                        barrier.wait()

                context.run(run)

            import contextvars

            threads = [
                threading.Thread(
                    target=worker, args=(name, contextvars.copy_context())
                )
                for name in ("alpha", "beta")
            ]
            for thread in threads:
                thread.start()
            barrier.wait()  # both inside their spans
            barrier.wait()
            for thread in threads:
                thread.join()
        assert seen["alpha"] == (trace.trace_id, "alpha")
        assert seen["beta"] == (trace.trace_id, "beta")


# ----------------------------------------------------------------------
# SamplingProfiler
# ----------------------------------------------------------------------
class TestSamplingProfiler:
    def test_phase_attribution(self):
        """A busy-looped span's samples land under its phase."""
        stop = threading.Event()

        def traced_busy():
            with start_trace("/hot"):
                with span("cube-build"):
                    _busy_until(stop)

        thread = threading.Thread(target=traced_busy, daemon=True)
        thread.start()
        try:
            report = capture(0.5, hz=200)
        finally:
            stop.set()
            thread.join()
        assert report.sweeps > 20
        assert report.phase_samples.get("cube-build", 0) > 0
        # The busy thread was inside the span for the whole window: its
        # phase should dominate that thread's samples, and the collapsed
        # output must lead with the phase as the synthetic root.
        build_lines = [
            line
            for line in report.collapsed().splitlines()
            if line.startswith("cube-build;")
        ]
        assert build_lines
        assert any("_busy_until" in line for line in build_lines)

    def test_overhead_under_five_percent(self):
        """Sampling at 100 Hz steals <5% of wall time.

        The profiler's overhead is ``hz * seconds_per_sweep`` — the
        fraction of each second the sampler spends walking frames with
        the lock (and GIL) held — so that product is what the 5% budget
        bounds.  It's measured directly (min-of-N over batched sweeps
        against live busy threads) because an end-to-end wall-clock A/B
        at the 5% level is swamped by machine noise; a separate generous
        wall-clock smoke below catches catastrophic regressions.
        """
        stop = threading.Event()
        threads = [
            threading.Thread(target=_busy_until, args=(stop,), daemon=True)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            profiler = SamplingProfiler(hz=100)
            for _ in range(5):
                profiler._sample(set())  # warm caches / name lookups
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(40):
                    profiler._sample(set())
                best = min(best, (time.perf_counter() - started) / 40)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert profiler.report().samples > 0
        overhead = best * 100  # fraction of wall time at 100 sweeps/s
        assert overhead < 0.05, (
            f"sampling at 100 Hz would steal {overhead * 100:.1f}% of wall "
            f"time ({best * 1e6:.0f}us per sweep)"
        )

    def test_overhead_wall_clock_smoke(self):
        """End-to-end catastrophe detector: a profiled workload must not
        blow past its bare wall time (generous bound — machine noise on
        shared CI boxes drowns the true ~2% cost; the precise 5% budget
        is asserted per-sweep above)."""

        def timed():
            started = time.perf_counter()
            total = 0
            for _ in range(40):
                total += sum(i * i for i in range(20000))
            assert total
            return time.perf_counter() - started

        timed()  # warm allocators / code paths
        bare, profiled = float("inf"), float("inf")
        for _ in range(4):
            bare = min(bare, timed())
            profiler = SamplingProfiler(hz=100).start()
            try:
                profiled = min(profiled, timed())
            finally:
                profiler.stop()
        assert profiled <= bare * 1.25 + 0.01, (
            f"profiled workload {profiled * 1e3:.1f}ms vs bare "
            f"{bare * 1e3:.1f}ms"
        )

    def test_thread_safety_under_concurrent_spans(self):
        """Many threads churning spans while the profiler sweeps; the
        report stays internally consistent and every phase seen is real."""
        stop = threading.Event()
        names = [f"phase-{i}" for i in range(4)]

        def churn(name):
            while not stop.is_set():
                with start_trace(f"/{name}"):
                    with span(name):
                        sum(i * i for i in range(200))

        threads = [
            threading.Thread(target=churn, args=(name,), daemon=True)
            for name in names
        ]
        for thread in threads:
            thread.start()
        try:
            with SamplingProfiler(hz=300) as profiler:
                time.sleep(0.4)
                mid = profiler.report()  # snapshot while running
            report = profiler.report()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert mid.samples <= report.samples
        assert report.samples == sum(report.stacks.values())
        expected = set(names) | {UNTRACED} | {f"/{name}" for name in names}
        assert set(report.phase_samples) <= expected
        assert sum(report.phase_samples.values()) == report.samples

    def test_exclude_threads(self):
        stop = threading.Event()
        thread = threading.Thread(target=_busy_until, args=(stop,), daemon=True)
        thread.start()
        try:
            report = capture(0.3, hz=100, exclude_threads=(thread.ident,))
        finally:
            stop.set()
            thread.join()
        assert not any(
            "_busy_until" in frame for (_p, stack) in report.stacks for frame in stack
        )

    def test_phase_counter_feed(self):
        class Counter:
            def __init__(self):
                self.by_phase = {}

            def inc(self, amount, phase):
                self.by_phase[phase] = self.by_phase.get(phase, 0.0) + amount

        counter = Counter()
        stop = threading.Event()
        thread = threading.Thread(target=_busy_until, args=(stop,), daemon=True)
        thread.start()
        try:
            profiler = SamplingProfiler(hz=100, phase_counter=counter).start()
            time.sleep(0.3)
            report = profiler.stop()
        finally:
            stop.set()
            thread.join()
        assert counter.by_phase
        assert sum(counter.by_phase.values()) == pytest.approx(
            report.samples * (1.0 / report.hz)
        )

    def test_validation(self):
        with pytest.raises(QueryError, match="hz"):
            SamplingProfiler(hz=0)
        with pytest.raises(QueryError, match="hz"):
            SamplingProfiler(hz=MAX_HZ * 2)
        with pytest.raises(QueryError, match="seconds"):
            capture(0)
        profiler = SamplingProfiler(hz=50).start()
        with pytest.raises(QueryError, match="one-shot"):
            profiler.start()
        profiler.stop()


# ----------------------------------------------------------------------
# ProfileReport formats
# ----------------------------------------------------------------------
class TestProfileReport:
    def _report(self):
        stacks = {
            ("score", ("mod.outer", "mod.inner")): 30,
            ("score", ("mod.outer", "mod.other")): 10,
            (UNTRACED, ("threading.wait",)): 20,
        }
        return ProfileReport(hz=100.0, duration_seconds=0.6, sweeps=60, stacks=stacks)

    def test_phase_self_seconds_uses_achieved_interval(self):
        report = self._report()
        assert report.interval_seconds == pytest.approx(0.01)
        self_seconds = report.phase_self_seconds()
        assert self_seconds["score"] == pytest.approx(0.4)
        assert self_seconds[UNTRACED] == pytest.approx(0.2)
        assert list(self_seconds)[0] == "score"  # largest first

    def test_collapsed_and_parse_round_trip(self):
        report = self._report()
        text = report.collapsed()
        assert "score;mod.outer;mod.inner 30" in text.splitlines()
        parsed = parse_collapsed(text)
        assert parsed.stacks == report.stacks

    def test_json_round_trip_and_merge(self):
        report = self._report()
        clone = ProfileReport.from_json(json.loads(json.dumps(report.to_json())))
        assert clone.stacks == report.stacks
        assert clone.sweeps == report.sweeps
        merged = ProfileReport.merge([report, clone])
        assert merged.samples == 2 * report.samples
        assert merged.duration_seconds == pytest.approx(1.2)
        assert merged.stacks[("score", ("mod.outer", "mod.inner"))] == 60

    def test_top_ranks_leaf_frames(self):
        top = self._report().top(2)
        assert top[0][0] == "mod.inner" and top[0][1] == 30
        assert top[0][2] == pytest.approx(0.3)

    def test_parse_collapsed_skips_garbage(self):
        parsed = parse_collapsed("not a stack line\nphase;frame 3\n\nbroken NaNx\n")
        assert parsed.stacks == {("phase", ("frame",)): 3}


# ----------------------------------------------------------------------
# Rotation (JsonLinesExporter + profile files share the policy)
# ----------------------------------------------------------------------
class TestRotation:
    def test_append_jsonl_rotating_bounds_disk(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        line = "x" * 100
        for _ in range(50):
            append_jsonl_rotating(path, line, max_bytes=1000)
        assert path.stat().st_size <= 1000
        rotated = rotated_path(path)
        assert rotated.exists()
        assert rotated.stat().st_size <= 1000
        # Only current + one predecessor, ever.
        assert not rotated_path(rotated).exists()

    def test_exporter_rotates_and_read_survives(self, tmp_path):
        exporter = JsonLinesExporter(tmp_path / "traces.jsonl", max_bytes=2000)
        assert exporter._max_bytes < DEFAULT_EXPORT_MAX_BYTES
        for index in range(60):
            trace = Trace(f"/req-{index}")
            trace.finish()
            assert exporter.export(trace)
        assert exporter.path.stat().st_size <= 2000
        assert exporter.rotated.exists()
        current = JsonLinesExporter.read(exporter.path)
        rotated = JsonLinesExporter.read(exporter.rotated)
        assert current and rotated
        # Newest traces live in the current file, older ones rotated out.
        assert current[-1]["name"] == "/req-59"
        names = [t["name"] for t in rotated] + [t["name"] for t in current]
        assert names == sorted(names, key=lambda n: int(n.rsplit("-", 1)[1]))

    def test_unsampled_traces_never_export(self, tmp_path):
        exporter = JsonLinesExporter(tmp_path / "traces.jsonl")
        assert not exporter.export(Trace("/req", sampled=False))
        assert not exporter.path.exists()


# ----------------------------------------------------------------------
# SlowProfileWriter
# ----------------------------------------------------------------------
class TestSlowProfileWriter:
    def test_capture_writes_entry_keyed_by_trace_id(self, tmp_path):
        writer = SlowProfileWriter(tmp_path / "slowprof.jsonl", seconds=0.15, hz=100)
        stop = threading.Event()
        thread = threading.Thread(target=_busy_until, args=(stop,), daemon=True)
        thread.start()
        try:
            assert writer.maybe_capture("abcd1234", "/explain", 512.5, wait=True)
        finally:
            stop.set()
            thread.join()
        entries = SlowProfileWriter.read(writer.path)
        assert len(entries) == 1 and writer.captures == 1
        entry = entries[0]
        assert entry["trace_id"] == "abcd1234"
        assert entry["path"] == "/explain"
        assert entry["latency_ms"] == 512.5
        report = ProfileReport.from_json(entry)
        assert report.samples > 0

    def test_single_flight(self, tmp_path):
        writer = SlowProfileWriter(tmp_path / "slowprof.jsonl", seconds=0.3, hz=50)
        first = writer.maybe_capture("t1", "/a", 100.0)
        second = writer.maybe_capture("t2", "/b", 100.0)  # still in flight
        assert first and not second
        assert writer.skipped == 1
        deadline = time.time() + 5.0
        while writer.captures < 1 and time.time() < deadline:
            time.sleep(0.02)
        assert SlowProfileWriter.read(writer.path)[0]["trace_id"] == "t1"

    def test_rotation_policy_applies(self, tmp_path):
        writer = SlowProfileWriter(
            tmp_path / "slowprof.jsonl", seconds=0.05, hz=100, max_bytes=600
        )
        for index in range(8):
            assert writer.maybe_capture(f"t{index}", "/x", 50.0, wait=True)
        assert rotated_path(writer.path).exists()
        current = SlowProfileWriter.read(writer.path)
        rotated = SlowProfileWriter.read(rotated_path(writer.path))
        # Old captures rotated out (and at most one predecessor kept);
        # the newest capture always survives in the current file.
        assert current
        assert len(current) + len(rotated) < 8
        assert current[-1]["trace_id"] == "t7"


# ----------------------------------------------------------------------
# Live ServeApp: /debug/profile + --profile-slow + continuous profiler
# ----------------------------------------------------------------------
class TestServeProfile:
    def test_debug_profile_round_trip(self, tmp_path, fresh_registry):
        """The acceptance bound: capture mid-load, and every request-phase's
        profiled self time stays consistent with the span trees the same
        window exported (≤ recorded span duration within sampling error)."""
        from repro.serve.http import make_app

        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "cache"),
            artifacts=True,
            access_log=False,
            slow_query_ms=0.0,
            profile_slow=True,
            profile_slow_seconds=0.2,
            worker_id="t0",
        ).start()
        try:
            stop = threading.Event()

            def loader():
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                            f"{app.url}/explain?dataset=covid-total"
                        ) as response:
                            response.read()
                    except OSError:
                        pass

            thread = threading.Thread(target=loader, daemon=True)
            thread.start()
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(
                    f"{app.url}/debug/profile?seconds=1.2&hz=200"
                ) as response:
                    window = time.perf_counter() - started
                    assert response.status == 200
                    assert response.headers["Content-Type"].startswith("text/plain")
                    body = response.read().decode("utf-8")
            finally:
                stop.set()
                thread.join()

            report = parse_collapsed(body)
            assert report.samples > 0
            # Collapsed lines are flamegraph.pl-compatible and carry repro
            # frames under real request phases.
            phases = set(report.phase_samples)
            assert phases & {"score", "segment", "cube-build", "prepare", "query:explain"}
            assert any(
                frame.startswith("repro.")
                for (_phase, stack) in report.stacks
                for frame in stack
            )

            # --- acceptance: profiled phase self time vs span trees ----
            # Request-phase samples cannot exceed the wall-clock the span
            # trees actually recorded for that phase during the window
            # (the capture achieved ~hz sweeps over `window` seconds, so
            # one sample ≈ window/sweeps seconds; allow generous error).
            traces = JsonLinesExporter.read(app.trace_export_path)
            span_seconds: dict[str, float] = {}
            for trace in traces:
                for row in trace.get("spans", ()):
                    if row.get("parent") is None or row.get("duration_ms") is None:
                        continue
                    name = row["name"]
                    span_seconds[name] = span_seconds.get(name, 0.0) + (
                        row["duration_ms"] / 1000.0
                    )
            for phase, samples in report.phase_samples.items():
                if phase == UNTRACED or phase.startswith("/"):
                    continue  # server plumbing / root spans
                recorded = span_seconds.get(phase)
                assert recorded is not None, f"profiled phase {phase} never spanned"
                profiled = samples * (1.2 / 200)  # nominal interval
                assert profiled <= recorded * 1.5 + 0.25, (
                    f"{phase}: profiled {profiled:.3f}s vs recorded "
                    f"{recorded:.3f}s over a {window:.2f}s window"
                )

            # --- slow-profile auto-capture landed next to the slow log --
            deadline = time.time() + 5.0
            while not SlowProfileWriter.read(app.slow_profile_path) and time.time() < deadline:
                time.sleep(0.05)
            entries = SlowProfileWriter.read(app.slow_profile_path)
            assert entries, "profile_slow never captured despite threshold 0"
            assert entries[0]["trace_id"]
            assert app.slow_profile_path.parent == app.trace_export_path.parent

            # --- malformed parameters are rejected loudly ---------------
            # ... as JSON, like every other endpoint's errors.
            for query, reason in (
                ("seconds=99", "seconds must be in"),
                ("seconds=abc", "expects float"),
                ("minutes=1", "unsupported parameter"),
            ):
                with pytest.raises(urllib.error.HTTPError) as failure:
                    urllib.request.urlopen(f"{app.url}/debug/profile?{query}")
                assert failure.value.code == 400
                assert failure.value.headers["Content-Type"] == "application/json"
                assert reason in json.loads(failure.value.read())["error"]
        finally:
            app.shutdown()

    def test_continuous_profiler_lifecycle(self, tmp_path, fresh_registry):
        from repro.serve.http import make_app

        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "cache"),
            access_log=False,
            profile_hz=50.0,
            worker_id="t0",
        ).start()
        try:
            assert app.continuous_profiler is not None
            assert app.continuous_profiler.running
            time.sleep(0.2)
            with urllib.request.urlopen(f"{app.url}/metrics") as response:
                scrape = response.read().decode("utf-8")
            assert "repro_profile_phase_self_seconds_total" in scrape
            assert app.continuous_profiler.report().sweeps > 0
        finally:
            app.shutdown()
        assert not app.continuous_profiler.running


# ----------------------------------------------------------------------
# Bench trajectory gate
# ----------------------------------------------------------------------
def _record(p95=10.0, speedup=20.0, bench="b", scale="small"):
    return {
        "bench": bench,
        "scale": scale,
        "git_rev": "abc1234",
        "rows": 1000,
        "warm": {"p95_ms": p95, "p50_ms": 4.0},
        "speedup": speedup,
    }


class TestBenchGate:
    def test_metric_direction(self):
        assert metric_direction("warm.routed_p95_ms") == "lower"
        assert metric_direction("cold.single_scan_lattice_seconds") == "lower"
        assert metric_direction("sweep.0.throughput_rps") == "higher"
        assert metric_direction("scan.cells_per_second") == "higher"
        assert metric_direction("append.speedup") == "higher"
        assert metric_direction("resident_cube_bytes") is None
        assert metric_direction("rows") is None

    def test_flatten_nested_dicts_and_sweep_lists(self):
        flat = flatten(
            {
                "bench": "serve",  # metadata, dropped
                "git_rev": "abc",
                "rows": 100,
                "cold": {"speedup": 2.5},
                "sweep": [{"workers": 1, "p50_ms": 9.0}, {"workers": 2, "p50_ms": 11.0}],
                "ok": True,  # bool, dropped
                "rss": [1.0, 2.0],  # scalar list, dropped
            }
        )
        assert flat["cold.speedup"] == 2.5
        assert flat["sweep.0.p50_ms"] == 9.0
        assert flat["sweep.1.workers"] == 2.0
        assert "ok" not in flat and "bench" not in flat and "rss" not in flat

    def test_latency_spike_fails_and_names_metric(self):
        records = [_record() for _ in range(3)] + [_record(p95=20.0)]
        check = check_trajectory(records, name="t", tolerance=1.5)
        assert not check.ok
        assert [r.metric for r in check.regressions] == ["warm.p95_ms"]
        regression = check.regressions[0]
        assert regression.ratio == pytest.approx(2.0)
        assert "warm.p95_ms" in regression.message()
        # The same spike passes at the default (cross-machine) tolerance.
        assert check_trajectory(records, name="t").ok

    def test_throughput_drop_fails(self):
        records = [_record() for _ in range(3)] + [_record(speedup=5.0)]
        check = check_trajectory(records, name="t", tolerance=1.5)
        assert [r.metric for r in check.regressions] == ["speedup"]

    def test_rolling_median_absorbs_one_outlier(self):
        records = [_record(), _record(p95=100.0), _record(), _record()]
        assert check_trajectory(records, name="t", tolerance=1.5).ok

    def test_groups_by_bench_and_scale(self):
        """Records from another bench/scale never contaminate the median,
        and a legacy record without a bench key is its own group."""
        legacy = {"warm": {"p95_ms": 1000.0}}
        other_scale = _record(p95=1000.0, scale="paper")
        records = [legacy, other_scale, _record(), _record(), _record(p95=11.0)]
        check = check_trajectory(records, name="t", tolerance=1.5)
        assert check.ok and check.history == 2

    def test_min_history_seeds_quietly(self):
        check = check_trajectory([_record(p95=500.0)], name="t", tolerance=1.5)
        assert check.ok and check.history == 0
        assert "seeded" in check.summary()
        strict = check_trajectory(
            [_record(), _record(p95=500.0)], name="t", tolerance=1.5, min_history=3
        )
        assert strict.ok and strict.compared == 0

    def test_sub_millisecond_noise_floor(self):
        records = [_record(p95=0.04) for _ in range(3)] + [_record(p95=0.09)]
        check = check_trajectory(records, name="t", tolerance=1.5)
        assert check.ok and check.skipped >= 1

    def test_load_trajectory_accepts_legacy_dict(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"scale": "small", "p95_ms": 5.0}))
        assert load_trajectory(path) == [{"scale": "small", "p95_ms": 5.0}]
        path.write_text("42")
        with pytest.raises(QueryError):
            load_trajectory(path)

    def test_tolerance_validation(self):
        with pytest.raises(QueryError, match="tolerance"):
            check_trajectory([_record()], tolerance=0.5)
        with pytest.raises(QueryError, match="no records"):
            check_trajectory([])


class TestBenchCli:
    def _write(self, tmp_path, records):
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        return path

    def test_check_passes_clean_trajectory(self, tmp_path, capsys):
        self._write(tmp_path, [_record() for _ in range(3)])
        code = main(["bench", "check", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bench check OK" in out

    def test_check_fails_on_synthetic_spike(self, tmp_path, capsys):
        """The acceptance criterion: a 2x p95 spike exits non-zero with
        the offending metric named."""
        self._write(tmp_path, [_record() for _ in range(3)] + [_record(p95=20.0)])
        code = main(
            ["bench", "check", "--results-dir", str(tmp_path), "--tolerance", "1.5"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION warm.p95_ms" in captured.out
        assert "FAILED" in captured.err

    def test_check_real_repo_trajectories(self, capsys):
        """The four checked-in BENCH files pass the gate as shipped."""
        results = Path(__file__).resolve().parents[1] / "benchmarks"
        code = main(["bench", "check", "--results-dir", str(results)])
        out = capsys.readouterr().out
        assert code == 0, out
        for name in ("streaming", "lattice", "detect", "serve"):
            assert f"BENCH_{name}.json" in out

    def test_no_files_is_an_error(self, tmp_path, capsys):
        code = main(["bench", "check", "--results-dir", str(tmp_path)])
        assert code == 2
        assert "no BENCH_*.json" in capsys.readouterr().err


class TestObsCli:
    def _seed_obs(self, tmp_path):
        obs = tmp_path / "obs"
        obs.mkdir()
        report = ProfileReport(
            hz=100.0,
            duration_seconds=0.5,
            sweeps=50,
            stacks={
                ("score", ("repro.solver.run", "repro.solver.step")): 40,
                (UNTRACED, ("threading.wait",)): 10,
            },
        )
        entry = {"ts": 1.0, "trace_id": "aaaa", "path": "/explain", "latency_ms": 900.0}
        entry.update(report.to_json())
        (obs / "slowprof-t0.jsonl").write_text(
            json.dumps(entry) + "\n", encoding="utf-8"
        )
        trace = {
            "trace_id": "aaaa",
            "name": "/explain",
            "duration_ms": 900.0,
            "spans": [
                {"id": 0, "parent": None, "name": "/explain", "duration_ms": 900.0},
                {"id": 1, "parent": 0, "name": "score", "duration_ms": 700.0},
            ],
        }
        (obs / "traces-t0.jsonl").write_text(
            json.dumps(trace) + "\n", encoding="utf-8"
        )
        return obs

    def test_top(self, tmp_path, capsys):
        obs = self._seed_obs(tmp_path)
        assert main(["obs", "top", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "score" in out
        assert "repro.solver.step" in out

    def test_flame_merges_to_file(self, tmp_path, capsys):
        obs = self._seed_obs(tmp_path)
        out_file = tmp_path / "flame.collapsed"
        assert main(["obs", "flame", "--obs-dir", str(obs), "--out", str(out_file)]) == 0
        text = out_file.read_text(encoding="utf-8")
        assert "score;repro.solver.run;repro.solver.step 40" in text

    def test_traces_summary(self, tmp_path, capsys):
        obs = self._seed_obs(tmp_path)
        assert main(["obs", "traces", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "/explain" in out and "aaaa" in out
        assert "score 700.0ms" in out

    def test_empty_inputs_fail_loudly(self, tmp_path, capsys):
        empty = tmp_path / "obs"
        empty.mkdir()
        assert main(["obs", "top", "--obs-dir", str(empty)]) == 1
        assert main(["obs", "traces", "--obs-dir", str(empty)]) == 1
