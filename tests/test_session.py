"""Tests for the prepare-once / query-many session API."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.pipeline import ExplainPipeline
from repro.core.session import ExplainSession, window_relation
from repro.core.streaming import StreamingExplainer
from repro.cube.cache import CACHE_SUFFIX
from repro.exceptions import ConfigError, QueryError
from repro.relation.predicates import Conjunction
from tests.conftest import regime_relation, two_attr_relation


def result_fingerprint(result):
    """Byte-exact rendering of everything a result reports."""
    return (
        result.k,
        result.series.labels,
        result.series.values.tobytes(),
        tuple(
            (
                segment.start,
                segment.stop,
                segment.start_label,
                segment.stop_label,
                segment.variance.hex(),
                tuple(
                    (repr(s.explanation), s.gamma.hex(), s.tau)
                    for s in segment.explanations
                ),
            )
            for segment in result.segments
        ),
        result.epsilon,
        result.filtered_epsilon,
        result.total_variance.hex(),
    )


def legacy_windowed_result(relation, measure, explain_by, aggregate, config, start, stop):
    """The pre-session path: filter the relation to the window, rebuild."""
    windowed = window_relation(relation, None, start, stop)
    return ExplainPipeline(
        windowed, measure, explain_by, aggregate=aggregate, config=config
    ).run()


# ----------------------------------------------------------------------
# Cube slicing
# ----------------------------------------------------------------------
class TestSliceTime:
    def test_slices_all_series_and_labels(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"])
        cube = session.cube
        sliced = cube.slice_time(3, 9)
        assert sliced.labels == cube.labels[3:10]
        assert np.array_equal(sliced.overall_values, cube.overall_values[3:10])
        assert np.array_equal(sliced.included_values, cube.included_values[:, 3:10])
        assert np.array_equal(sliced.excluded_values, cube.excluded_values[:, 3:10])
        assert sliced.explanations == cube.explanations
        assert np.array_equal(sliced.supports, cube.supports)

    @pytest.mark.parametrize("bounds", [(-1, 5), (5, 5), (9, 3), (0, 24)])
    def test_invalid_bounds_rejected(self, simple_relation, bounds):
        cube = ExplainSession(simple_relation, "sales", ["cat"]).cube
        with pytest.raises(QueryError):
            cube.slice_time(*bounds)


# ----------------------------------------------------------------------
# Windowed queries are byte-identical to the legacy rebuild path
# ----------------------------------------------------------------------
class TestWindowEquivalence:
    @pytest.mark.parametrize("aggregate", ["sum", "count", "avg", "var"])
    @pytest.mark.parametrize("smoothing", [None, 5])
    def test_all_subtractable_aggregates(self, aggregate, smoothing):
        relation = two_attr_relation()
        config = ExplainConfig(
            use_filter=False, k=2, smoothing_window=smoothing
        )
        session = ExplainSession(
            relation, "m", ["a", "b"], aggregate=aggregate, config=config
        )
        windowed = session.explain("t002", "t013")
        legacy = legacy_windowed_result(
            relation, "m", ["a", "b"], aggregate, config, "t002", "t013"
        )
        assert result_fingerprint(windowed) == result_fingerprint(legacy)

    @pytest.mark.parametrize("smoothing", [None, 3])
    def test_with_support_filter(self, smoothing):
        relation = regime_relation()
        config = ExplainConfig(
            use_filter=True, filter_ratio=0.01, k=2, smoothing_window=smoothing
        )
        session = ExplainSession(relation, "sales", ["cat"], config=config)
        windowed = session.explain("t004", "t020")
        legacy = legacy_windowed_result(
            relation, "sales", ["cat"], "sum", config, "t004", "t020"
        )
        assert result_fingerprint(windowed) == result_fingerprint(legacy)

    def test_full_series_matches_plain_pipeline(self, simple_relation):
        config = ExplainConfig(use_filter=False, k=2)
        session = ExplainSession(simple_relation, "sales", ["cat"], config=config)
        legacy = ExplainPipeline(
            simple_relation, "sales", ["cat"], config=config
        ).run()
        assert result_fingerprint(session.explain()) == result_fingerprint(legacy)

    def test_open_ended_windows(self, simple_relation):
        config = ExplainConfig(use_filter=False, k=2)
        session = ExplainSession(simple_relation, "sales", ["cat"], config=config)
        from_start = session.explain(stop="t015")
        assert from_start.series.label_at(0) == "t000"
        assert len(from_start.series) == 16
        to_end = session.explain(start="t010")
        assert to_end.series.label_at(0) == "t010"
        assert len(to_end.series) == 14


# ----------------------------------------------------------------------
# Session lifecycle: prepare once, LRU of derived scorers
# ----------------------------------------------------------------------
class TestSessionReuse:
    def test_prepare_is_idempotent_and_lazy(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"], k=2)
        assert not session.prepared
        assert len(session.series()) == 24  # does not force the cube
        assert not session.prepared
        cube = session.cube
        assert session.prepared
        assert session.prepare().cube is cube

    def test_repeated_window_query_hits_scorer_lru(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        first = session.scorer("t006", "t018")
        assert session.scorer("t006", "t018") is first
        # A different run-tier config derives (and caches) a new scorer.
        smoothed = session.scorer(
            "t006", "t018",
            config=session.config.updated(smoothing_window=3),
        )
        assert smoothed is not first
        assert session.scorer("t006", "t018") is first

    def test_lru_evicts_oldest(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
            scorer_cache_size=2,
        )
        a = session.scorer("t000", "t005")
        session.scorer("t005", "t010")
        session.scorer("t010", "t015")  # evicts the t000-t005 scorer
        assert session.scorer("t000", "t005") is not a

    def test_byte_budget_evicts_oldest_owned_arrays(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"], config=ExplainConfig(k=2)
        )
        cube = session.prepare().cube
        half = (cube.included_values.nbytes + cube.excluded_values.nbytes) // 2
        session.scorer_cache_bytes = half
        # Each derived window owns copies of its rows: 11 of 24 points.
        a = session.scorer("t000", "t010")
        b = session.scorer("t010", "t020")  # together past the budget
        assert session.scorer("t010", "t020") is b
        assert session.scorer("t000", "t010") is not a
        # Even a zero budget keeps the newest entry.
        session.scorer_cache_bytes = 0
        c = session.scorer("t005", "t015")
        assert session.scorer("t005", "t015") is c
        with pytest.raises(QueryError):
            session.scorer_cache_bytes = -1

    def test_scorer_cache_size_validated(self, simple_relation):
        with pytest.raises(QueryError):
            ExplainSession(
                simple_relation, "sales", ["cat"], scorer_cache_size=0
            )

    def test_solver_knobs_share_one_scorer(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        session.explain(config=session.config.updated(k=2))
        session.explain(config=session.config.updated(k=3, m=1))
        assert len(session._scorers) == 1  # m/k bind at solve time

    def test_prepare_tier_override_falls_back(self, multi_relation):
        config = ExplainConfig(use_filter=False, k=2)
        session = ExplainSession(multi_relation, "m", ["a", "b"], config=config)
        session.explain()
        override = config.updated(max_order=1)
        result = session.explain(config=override)
        # Only single-attribute candidates can appear.
        assert all(
            len(s.explanation.attributes()) == 1
            for segment in result.segments
            for s in segment.explanations
        )
        assert result_fingerprint(result) == result_fingerprint(
            ExplainPipeline(multi_relation, "m", ["a", "b"], config=override).run()
        )

    def test_per_call_cache_dir_override_still_persists(self, simple_relation, tmp_path):
        # The pre-session facade honored a one-off cache_dir by building a
        # fresh pipeline; the session must not silently skip the store.
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        session.explain()
        session.explain(
            config=ExplainConfig(use_filter=False, k=2, cache_dir=str(tmp_path))
        )
        assert list(tmp_path.glob(f"*{CACHE_SUFFIX}"))

    def test_scorer_rejects_cube_shaping_override(self, multi_relation):
        session = ExplainSession(multi_relation, "m", ["a", "b"], k=2)
        with pytest.raises(QueryError):
            session.scorer(config=session.config.updated(max_order=1))

    def test_window_validation(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"], k=2)
        with pytest.raises(QueryError):
            session.explain(start="t010", stop="t010")
        with pytest.raises(QueryError):
            session.explain(start="not-a-label")

    def test_timings_charge_build_to_first_query_only(self, simple_relation):
        # Assert the accounting ledger, not wall-clock inequalities: on a
        # tiny relation the build takes ~1ms, so comparing the warm LRU
        # lookup's wall time against it is scheduler-noise roulette.
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        session.prepare()
        build_seconds = session._prepare_seconds
        assert build_seconds > 0.0
        cold = session.explain("t004", "t020")
        # The first query reports the build and drains the charge ledger...
        assert cold.timings["precomputation"] >= build_seconds
        assert session._prepare_seconds == 0.0
        # ...so no later query can be charged the build again.
        session.explain("t004", "t020")
        assert session._prepare_seconds == 0.0

    def test_diff_first_does_not_swallow_build_time(self, simple_relation):
        # A diff reports no timings, so the cube build must stay charged
        # to the first explain() that follows it.
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        session.diff("t000", "t011")
        build_seconds = session._prepare_seconds
        assert build_seconds > 0.0
        first_explain = session.explain()
        assert first_explain.timings["precomputation"] >= build_seconds

    def test_rollup_cache_integration(self, simple_relation, tmp_path):
        config = ExplainConfig(use_filter=False, k=2, cache_dir=str(tmp_path))
        cold = ExplainSession(simple_relation, "sales", ["cat"], config=config)
        cold.explain()
        assert cold.cache_hit is False
        warm = ExplainSession(simple_relation, "sales", ["cat"], config=config)
        result = warm.explain("t006", "t018")
        assert warm.cache_hit is True  # windows serve from the cached cube
        assert result.series.label_at(0) == "t006"


# ----------------------------------------------------------------------
# diff / top_explanations / recommend on the session
# ----------------------------------------------------------------------
class TestSessionQueries:
    def test_two_point_diff(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        top = session.top_explanations("t000", "t011", m=2)
        assert top[0].explanation == Conjunction.from_items([("cat", "a")])
        assert top[0].tau == 1
        assert top[0].gamma == pytest.approx(44.0)
        assert session.diff("t000", "t011", m=2) == top

    def test_diff_order_validated(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"], k=2)
        with pytest.raises(QueryError):
            session.diff("t011", "t000")

    def test_diff_reuses_prepared_scorer(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        session.explain()
        cached = len(session._scorers)
        session.diff("t000", "t011")
        assert len(session._scorers) == cached  # full-range scorer reused

    def test_recommend_does_not_force_prepare(self, multi_relation):
        session = ExplainSession(multi_relation, "m", ["a", "b"])
        scores = session.recommend()
        assert not session.prepared
        assert {score.attribute for score in scores} == {"a", "b"}


# ----------------------------------------------------------------------
# Fluent query builder
# ----------------------------------------------------------------------
class TestExplainQuery:
    def test_window_and_knobs(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        result = (session.query()
                  .window("t006", "t018")
                  .metric("absolute-change")
                  .segments(2)
                  .top(1)
                  .run())
        assert result.k == 2
        assert result.series.label_at(0) == "t006"
        assert all(len(s.explanations) <= 1 for s in result.segments)
        assert "t012" in result.cut_labels

    def test_equivalent_to_direct_explain(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        built = session.query().window("t006", "t018").segments(2).run()
        direct = session.explain(
            "t006", "t018", config=session.config.updated(k=2)
        )
        assert result_fingerprint(built) == result_fingerprint(direct)

    def test_top_explanations_requires_window(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        with pytest.raises(QueryError):
            session.query().top(2).top_explanations()
        top = (session.query().window("t000", "t011").top(2)
               .top_explanations())
        assert top == session.top_explanations("t000", "t011", m=2)

    def test_top_explanations_honors_all_builder_overrides(self, simple_relation):
        session = ExplainSession(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        default = (session.query().window("t000", "t011")
                   .top_explanations())
        relative = (session.query().window("t000", "t011")
                    .metric("relative-change")
                    .top_explanations())
        assert [s.explanation for s in relative] == [s.explanation for s in default]
        # relative-change normalizes by the overall change, so the scores
        # must differ from the absolute-change ones.
        assert [s.gamma for s in relative] != [s.gamma for s in default]

    def test_invalid_override_rejected_before_running(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"])
        with pytest.raises(ConfigError):
            session.query().metric("bogus").run()
        with pytest.raises(ConfigError):
            session.query().variant("bogus").run()

    def test_filtered_and_smoothing_knobs(self, simple_relation):
        session = ExplainSession(simple_relation, "sales", ["cat"])
        query = (session.query().filtered(False).smoothing(3)
                 .configured(k=2))
        config = query.build_config()
        assert not config.use_filter
        assert config.smoothing_window == 3
        assert config.k == 2


# ----------------------------------------------------------------------
# Facade and streaming integration
# ----------------------------------------------------------------------
class TestFacadeDelegation:
    def test_engine_reuses_one_session(self, simple_relation):
        engine = TSExplain(
            simple_relation, "sales", ["cat"],
            config=ExplainConfig(use_filter=False, k=2),
        )
        engine.explain()
        session = engine.session()
        assert session.prepared
        engine.explain("t006", "t018")
        assert engine.session() is session

    def test_engine_windowed_matches_session(self, simple_relation):
        config = ExplainConfig(use_filter=False, k=2)
        engine = TSExplain(simple_relation, "sales", ["cat"], config=config)
        session = ExplainSession(simple_relation, "sales", ["cat"], config=config)
        assert result_fingerprint(engine.explain("t006", "t018")) == (
            result_fingerprint(session.explain("t006", "t018"))
        )

    def test_streaming_session_survives_updates(self):
        initial = regime_relation(n=16, switch=8)
        explainer = StreamingExplainer(
            initial, "sales", ["cat"],
            config=ExplainConfig(use_filter=False),
        )
        explainer.refresh()
        first = explainer.session()
        assert first.prepared
        assert explainer.session() is first  # same snapshot, same session
        extra = regime_relation(n=20, switch=8)
        mask = np.asarray(
            [label >= "t016" for label in extra.column("t")]
        )
        explainer.update(extra.take(mask))
        # The session is long-lived now: updates append into its cube in
        # place instead of opening a new session per snapshot.
        assert explainer.session() is first
        assert first.relation is explainer.relation
        assert first.cube.n_times == 20
        # refresh() is the executable spec: it rebuilds from scratch.
        explainer.refresh()
        assert explainer.session() is not first


class TestWindowRelation:
    def test_matches_label_membership(self, simple_relation):
        windowed = window_relation(simple_relation, None, "t004", "t011")
        labels = set(windowed.column("t"))
        assert labels == {f"t{t:03d}" for t in range(4, 12)}
        assert windowed.n_rows == 8 * 3

    def test_open_bounds_and_identity(self, simple_relation):
        assert window_relation(simple_relation, None, None, None) is simple_relation
        head = window_relation(simple_relation, None, None, "t005")
        assert set(head.column("t")) == {f"t{t:03d}" for t in range(6)}

    def test_degenerate_window_rejected(self, simple_relation):
        with pytest.raises(QueryError):
            window_relation(simple_relation, None, "t005", "t005")


# ----------------------------------------------------------------------
# Thread safety (the serving tier shares sessions across a thread pool)
# ----------------------------------------------------------------------
class TestSessionThreadSafety:
    def test_concurrent_cold_queries_build_one_cube_and_agree(self):
        import threading

        relation = regime_relation()
        session = ExplainSession(relation, "sales", ["cat"], config=ExplainConfig(k=2))
        baseline = result_fingerprint(
            ExplainSession(
                relation, "sales", ["cat"], config=ExplainConfig(k=2)
            ).explain()
        )
        results: list = []
        errors: list = []
        barrier = threading.Barrier(8)

        def query():
            try:
                barrier.wait(timeout=10.0)
                results.append(result_fingerprint(session.explain()))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(results) == 8
        assert all(result == baseline for result in results)

    def test_concurrent_mixed_windows_match_serial_answers(self):
        import threading

        relation = regime_relation()
        session = ExplainSession(
            relation, "sales", ["cat"], config=ExplainConfig(k=2), scorer_cache_size=2
        )
        session.prepare()
        windows = [(None, None), ("t004", "t020"), ("t000", "t012"), ("t008", "t023")]
        serial = {
            window: result_fingerprint(session.explain(*window)) for window in windows
        }
        outcomes: list = []
        errors: list = []

        def query(window):
            try:
                outcomes.append(
                    (window, result_fingerprint(session.explain(*window)))
                )
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [
            threading.Thread(target=query, args=(windows[i % len(windows)],))
            for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(outcomes) == 12
        for window, fingerprint in outcomes:
            assert fingerprint == serial[window]
        # The undersized scorer LRU stayed consistent under the races.
        assert len(session._scorers) <= 2

    def test_append_during_queries_never_corrupts(self):
        """Appends — including late rows *inside* the queried window —
        can never tear an in-flight query: cached scorers are detached
        snapshots of the cube's buffers (``ExplanationCube.detach``), so
        a concurrent re-finalize of existing time columns is invisible to
        solves already running, and the final state matches a one-shot
        session over the grown relation byte for byte."""
        import threading

        from tests.conftest import build_relation

        relation = regime_relation(n=30)
        positions, labels = relation.time_positions(None)
        base = relation.take(positions <= 24)
        deltas = []
        for p in range(25, 30):
            # Each delta extends the axis AND revisits an existing label
            # inside the concurrently queried window [t002, t014].
            late = build_relation(
                {"t": [f"t{p - 15:03d}"], "cat": ["c"], "sales": [0.25]},
                dimensions=["cat"],
                measures=["sales"],
                time="t",
            )
            deltas.append(relation.take(positions == p).concat(late))
        session = ExplainSession(base, "sales", ["cat"], config=ExplainConfig(k=2))
        session.prepare()
        errors: list = []
        stop = threading.Event()

        def query_loop():
            try:
                while not stop.is_set():
                    result = session.explain("t002", "t014")
                    # Internal consistency of each answer: the reported
                    # series is the one the segments were scored on.
                    assert result.series.labels[0] == "t002"
                    assert result.series.labels[-1] == "t014"
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        thread = threading.Thread(target=query_loop)
        thread.start()
        try:
            for delta in deltas:
                session.append(delta)
        finally:
            stop.set()
            thread.join(timeout=60.0)
        assert not errors
        final = session.explain()
        expected = ExplainSession(
            session.relation, "sales", ["cat"], config=ExplainConfig(k=2)
        ).explain()
        assert result_fingerprint(final) == result_fingerprint(expected)

    def test_cached_scorers_are_detached_from_the_live_cube(self):
        import numpy as np

        session = ExplainSession(
            regime_relation(), "sales", ["cat"], config=ExplainConfig(k=2)
        )
        session.prepare()
        live = session.cube
        for window in ((None, None), ("t004", "t020")):
            for config in (None, ExplainConfig(k=2, use_filter=False)):
                scorer = session.scorer(*window, config=config)
                derived = scorer.cube
                for mine, theirs in (
                    (derived.overall_values, live.overall_values),
                    (derived.included_values, live.included_values),
                    (derived.excluded_values, live.excluded_values),
                    (derived.supports, live.supports),
                ):
                    assert not np.shares_memory(mine, theirs)


class TestEmptyDeltaAppend:
    """Regression: a poll tick with no new rows must touch nothing."""

    def test_prepared_session_empty_append_is_free(self):
        relation = regime_relation()
        session = ExplainSession(relation, "sales", ["cat"], config=ExplainConfig(k=2))
        session.prepare()
        cube = session.cube
        before = result_fingerprint(session.explain())
        scorers = len(session._scorers)
        info = session.append(relation.take(np.arange(0)))
        assert info is not None and info.is_noop
        # No relation concat, no cube drop, no scorer-LRU invalidation.
        assert session.relation is relation
        assert session.cube is cube
        assert len(session._scorers) == scorers
        assert result_fingerprint(session.explain()) == before

    def test_unprepared_session_empty_append_returns_none(self):
        relation = regime_relation()
        session = ExplainSession(relation, "sales", ["cat"], config=ExplainConfig(k=2))
        assert session.append(relation.take(np.arange(0))) is None
        assert session.relation is relation

    def test_empty_append_still_validates_the_schema(self):
        from repro.exceptions import SchemaError
        from repro.relation.schema import Schema
        from repro.relation.table import Relation

        session = ExplainSession(
            regime_relation(), "sales", ["cat"], config=ExplainConfig(k=2)
        )
        session.prepare()
        alien = Relation(
            {"t": [], "region": [], "sales": []},
            Schema.build(dimensions=["region"], measures=["sales"], time="t"),
        )
        with pytest.raises(SchemaError):
            session.append(alien)
