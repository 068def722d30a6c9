"""The prepare-once / query-many session API.

The paper's interactivity claim rests on its two-tier split: an expensive
*prepare* phase (build the explanation cube) and a cheap *run* phase (every
difference score is an O(1) array lookup).  :class:`ExplainSession` makes
that split the shape of the public API — bind a relation and the cube
parameters once, build or cache-load the cube once, then serve unlimited
queries as **O(window) slices of the prepared arrays**:

    session = ExplainSession(relation, measure="cases", explain_by=["state"])
    session.explain()                                   # whole series
    session.explain("2020-03-01", "2020-07-01")         # spring wave only
    session.diff("2020-03-01", "2020-06-01")            # two-point diff
    session.query().window("2020-03-01", "2020-07-01") \
           .metric("absolute-change").top(5).run()      # fluent run-tier knobs

A windowed query slices the cube's ``overall``/``included``/``excluded``
matrices along the time axis (:meth:`ExplanationCube.slice_time` — views,
no copy), then applies the per-query smoothing, support filter and
difference metric.  Derived scorers are memoized in a per-session LRU keyed
by the window and the run-tier configuration, so repeating an interactive
query costs a dictionary lookup instead of a relation scan.

:class:`~repro.core.engine.TSExplain` remains as a thin facade delegating
to one lazily-created session, so existing call sites keep working
unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.pipeline import ExplainPipeline, prepare_cube
from repro.core.recommend import AttributeScore, recommend_explain_by
from repro.core.result import ExplainResult
from repro.core.smoothing import smooth_cube
from repro.cube.datacube import ExplanationCube
from repro.cube.delta import AppendInfo
from repro.cube.filters import apply_support_filter
from repro.diff.scorer import ScoredExplanation, SegmentScorer
from repro.exceptions import QueryError
from repro.obs.trace import span
from repro.relation.groupby import aggregate_over_time
from repro.relation.table import Relation
from repro.relation.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.lattice.router import LatticeRouter, RouteInfo
    from repro.store.base import DataSource
    from repro.store.ingest import IngestReport

#: Derived (sliced/smoothed/filtered) scorers kept per session by default.
DEFAULT_SCORER_CACHE_SIZE = 32

#: :class:`ExplainConfig` fields that determine the raw cube's *bytes*.
#: A per-call config that changes one of these cannot be served from the
#: session's prepared cube at all.
CUBE_FIELDS = ("max_order", "deduplicate")

#: All prepare-tier fields: the cube-shaping ones plus the prepare
#: *mechanics* (cache persistence, build strategy).  A per-call config
#: that changes any of these makes :meth:`ExplainSession.pipeline` fall
#: back to a fresh legacy build, preserving the pre-session semantics —
#: e.g. a one-off ``cache_dir`` override still builds and stores on disk.
PREPARE_FIELDS = CUBE_FIELDS + ("cache_dir", "cache_max_entries", "columnar")

#: :class:`ExplainConfig` fields that select a derived scorer.  Together
#: with the window they form the session's LRU key; everything else
#: (``m``, ``k``, variance variant, O1/O2 flags) binds at solve time and
#: shares the scorer.
SCORER_FIELDS = ("smoothing_window", "use_filter", "filter_ratio", "metric")


def window_relation(
    relation: Relation,
    time_attr: str | None,
    start: Hashable | None,
    stop: Hashable | None,
) -> Relation:
    """Rows whose time label lies in ``[start, stop]`` (both inclusive).

    Vectorized: the time column is factorized once and rows are selected
    with a single positional range mask — O(n) with no per-label Python
    membership test.  This is the legacy restriction path, needed only
    when a relation (not a cube) must be windowed, e.g. for a per-call
    prepare-tier override.
    """
    if start is None and stop is None:
        return relation
    positions, labels = relation.time_positions(time_attr)
    series = TimeSeries(np.zeros(len(labels)), labels)
    start_pos = series.position_of(start) if start is not None else 0
    stop_pos = series.position_of(stop) if stop is not None else len(labels) - 1
    if start_pos >= stop_pos:
        raise QueryError("window must contain at least two time points")
    return relation.take((positions >= start_pos) & (positions <= stop_pos))


class ExplainSession:
    """A prepared TSExplain query serving unlimited run-tier requests.

    Sessions are **thread-safe**: the prepare tier, the scorer LRU and
    streaming appends are serialized on an internal reentrant lock, while
    the solve/segment tiers run lock-free on immutable derived scorers —
    so the serving tier (:mod:`repro.serve`) shares one session across a
    whole query thread pool, and concurrent first queries coalesce into a
    single cube build.

    Parameters
    ----------
    relation:
        The base relation ``R``; the session binds to it (and its cube)
        for its whole lifetime.  A zero-argument callable returning the
        relation is also accepted: the session then materializes it
        lazily, on the first operation that actually needs rows —
        :meth:`from_source` uses this so a cache-served or out-of-core
        prepared session never ingests the relation at all.  Lazy
        sessions must name ``explain_by`` and ``time_attr`` explicitly
        (there is no schema to default from without materializing).
    measure:
        Measure attribute ``M`` of the aggregate query.
    explain_by:
        Explain-by attribute names ``A`` (defaults to every dimension).
    aggregate:
        Aggregate function name (default ``sum``).
    time_attr:
        Time attribute ``T``; defaults to the schema's time attribute.
    config:
        Default configuration for every query; keyword overrides may be
        passed instead, as with :class:`~repro.core.engine.TSExplain`.
        ``cache_dir`` makes :meth:`prepare` load the cube from the
        persistent rollup cache when possible.
    scorer_cache_size:
        Derived scorers kept in the per-session LRU (default
        ``DEFAULT_SCORER_CACHE_SIZE``).  Each entry holds the smoothed/
        filtered series arrays of one ``(window, run-config)`` pair —
        a bare (unsmoothed, unfiltered) window slice is a view into the
        prepared cube, but smoothing and the support filter each copy,
        so a derived entry then costs about ``2 * epsilon * window * 8``
        bytes.  For very large cubes (paper scale: epsilon in the
        hundreds of thousands) size this down — one entry is usually
        enough for a stable interactive dashboard query.
    """

    def __init__(
        self,
        relation: "Relation | Callable[[], Relation]",
        measure: str,
        explain_by: Sequence[str] | None = None,
        aggregate: str = "sum",
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        scorer_cache_size: int = DEFAULT_SCORER_CACHE_SIZE,
        **config_overrides,
    ):
        if config is not None and config_overrides:
            config = config.updated(**config_overrides)
        elif config is None:
            config = ExplainConfig(**config_overrides)
        if scorer_cache_size < 1:
            raise QueryError(
                f"scorer_cache_size must be >= 1, got {scorer_cache_size}"
            )
        if callable(relation):
            self._relation_thunk: Callable[[], Relation] | None = relation
            self._relation: Relation | None = None
            if explain_by is None or time_attr is None:
                raise QueryError(
                    "a lazily-materialized relation needs explicit "
                    "explain_by and time_attr (no schema to default from)"
                )
        else:
            self._relation_thunk = None
            self._relation = relation
            if explain_by is None:
                explain_by = relation.schema.dimension_names()
        self._measure = measure
        self._explain_by = tuple(explain_by)
        self._aggregate = aggregate
        assert self._relation is not None or time_attr is not None
        self._time_attr = time_attr or self._relation.schema.require_time()
        self._config = config
        self._cube: ExplanationCube | None = None
        self._series: TimeSeries | None = None
        self._cache_hit: bool | None = None
        self._prepare_seconds = 0.0
        self._scorer_cache_size = scorer_cache_size
        self._scorer_cache_bytes: int | None = None
        #: key -> (scorer, bytes its derived cube owns)
        self._scorers: OrderedDict[tuple, tuple[SegmentScorer, int]] = OrderedDict()
        self._last_result: ExplainResult | None = None
        # Sessions are shared across threads by the serving tier
        # (repro.serve): one reentrant lock serializes every mutation of
        # the prepared cube, the scorer LRU and the timing bookkeeping.
        # Only the *derivation* steps hold it — the heavy solve/segment
        # tiers run on immutable scorers outside the lock, so concurrent
        # queries still overlap.  It also gives per-session single-flight
        # semantics: N threads racing the first query trigger exactly one
        # cube build.
        self._lock = threading.RLock()
        self._ingest_report: "IngestReport | None" = None
        self._route_info: "RouteInfo | None" = None

    # ------------------------------------------------------------------
    # Construction from data sources (repro.store)
    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: "DataSource | str",
        measure: str | None = None,
        explain_by: Sequence[str] | None = None,
        aggregate: str | None = None,
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        chunk_rows: int | None = None,
        out_of_core: bool = True,
        scorer_cache_size: int = DEFAULT_SCORER_CACHE_SIZE,
        **config_overrides,
    ) -> "ExplainSession":
        """A prepared session over a :mod:`repro.store` data source.

        ``source`` is a :class:`~repro.store.DataSource` or a source URI
        (``csv:…`` / ``npz:…`` / ``sqlite:…``); query defaults come from
        its binding (first measure, all dimensions, the URI's aggregate).
        The prepare tier runs immediately, source-shaped:

        * with a ``cache_dir`` configured, the rollup cache is checked
          under the **source fingerprint** first — a hit installs the
          stored cube without ingesting a single row;
        * on a miss the cube is built **out-of-core**: chunks of
          ``chunk_rows`` rows stream through the append ledger, so peak
          relation residency stays bounded by the chunk size while the
          result is bit-identical to an in-memory build (sources whose
          chunk order violates the append contract degrade to one-shot).

        The relation itself stays lazy: operations that need rows
        (:meth:`recommend`, :meth:`append`, prepare-tier config
        overrides) materialize it via ``source.read()`` on first use —
        check :attr:`relation_loaded`, and :attr:`ingest_report` for what
        the prepare actually did.
        """
        from repro.cube.cache import RollupCache
        from repro.store.base import DEFAULT_CHUNK_ROWS
        from repro.store.ingest import load_or_build_from_source
        from repro.store.uri import resolve_source

        source = resolve_source(source)
        schema = source.schema
        if measure is None:
            measures = schema.measure_names()
            if not measures:
                raise QueryError(f"source {source.uri} binds no measure column")
            measure = measures[0]
        explain_by = tuple(explain_by) if explain_by else schema.dimension_names()
        aggregate = aggregate or source.default_aggregate
        time_attr = time_attr or schema.require_time()
        session = cls(
            source.read,
            measure=measure,
            explain_by=explain_by,
            aggregate=aggregate,
            time_attr=time_attr,
            config=config,
            scorer_cache_size=scorer_cache_size,
            **config_overrides,
        )
        config = session.config
        cache = (
            RollupCache(config.cache_dir, max_entries=config.cache_max_entries)
            if config.cache_dir
            else None
        )
        started = time.perf_counter()
        cube, report = load_or_build_from_source(
            cache,
            source,
            explain_by,
            measure,
            aggregate=aggregate,
            time_attr=time_attr,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
            columnar=config.columnar,
            chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
            out_of_core=out_of_core,
        )
        session.adopt_snapshot(
            # The one-shot fallback already paid for the full relation;
            # adopt it rather than re-ingesting on the first recommend()/
            # append().  Out-of-core and cache-hit prepares pass None and
            # stay lazy.
            report.relation,
            cube,
            cache_hit=report.cache_hit if cache is not None else None,
            prepare_seconds=time.perf_counter() - started,
        )
        session._ingest_report = report
        return session

    @classmethod
    def from_lattice(
        cls,
        router: "LatticeRouter",
        relation: Relation | None = None,
        source: "DataSource | str | None" = None,
        measure: str | None = None,
        explain_by: Sequence[str] | None = None,
        aggregate: str | None = None,
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        chunk_rows: int | None = None,
        out_of_core: bool = True,
        scorer_cache_size: int = DEFAULT_SCORER_CACHE_SIZE,
        **config_overrides,
    ) -> "ExplainSession":
        """A session prepared through a lattice router instead of a build.

        Exactly one of ``relation``/``source`` binds the data (the router
        must be keyed by that data's fingerprint —
        :meth:`~repro.lattice.router.LatticeRouter.for_relation` /
        :meth:`~repro.lattice.router.LatticeRouter.for_source`).  The
        session's cube request — ``(dims, measure, aggregate)`` plus the
        config's cube-shaping knobs — is routed first: an exact or
        derived rollup installs without touching the data.  Windows need
        no routing at all: a rollup covers the full time axis and every
        windowed query is an O(window) slice of it.  On a lattice miss
        the classic build path runs (out-of-core for sources) and the
        built cube is reported back to the router, which promotes shapes
        that keep missing.  :attr:`route_info` records the decision.
        """
        from repro.cube.cache import RollupCache
        from repro.lattice.spec import RollupSpec
        from repro.store.base import DEFAULT_CHUNK_ROWS
        from repro.store.ingest import load_or_build_from_source
        from repro.store.uri import resolve_source

        if (relation is None) == (source is None):
            raise QueryError(
                "from_lattice needs exactly one of relation= or source="
            )
        if source is not None:
            source = resolve_source(source)
            schema = source.schema
            aggregate = aggregate or source.default_aggregate
        else:
            schema = relation.schema
            aggregate = aggregate or "sum"
        if measure is None:
            measures = schema.measure_names()
            if not measures:
                raise QueryError("the bound data has no measure column")
            measure = measures[0]
        explain_by = tuple(explain_by) if explain_by else schema.dimension_names()
        time_attr = time_attr or schema.require_time()
        session = cls(
            relation if relation is not None else source.read,
            measure=measure,
            explain_by=explain_by,
            aggregate=aggregate,
            time_attr=time_attr,
            config=config,
            scorer_cache_size=scorer_cache_size,
            **config_overrides,
        )
        config = session.config
        spec = RollupSpec(
            dims=explain_by,
            measure=measure,
            aggregate=aggregate,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
        )
        started = time.perf_counter()
        cube, info = router.route(spec)
        if cube is not None:
            session.adopt_snapshot(
                None,
                cube,
                cache_hit=True,
                prepare_seconds=time.perf_counter() - started,
            )
        elif source is not None:
            cache = (
                RollupCache(config.cache_dir, max_entries=config.cache_max_entries)
                if config.cache_dir
                else None
            )
            cube, report = load_or_build_from_source(
                cache,
                source,
                explain_by,
                measure,
                aggregate=aggregate,
                time_attr=time_attr,
                max_order=config.max_order,
                deduplicate=config.deduplicate,
                columnar=config.columnar,
                chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
                out_of_core=out_of_core,
            )
            session.adopt_snapshot(
                report.relation,
                cube,
                cache_hit=report.cache_hit if cache is not None else None,
                prepare_seconds=time.perf_counter() - started,
            )
            session._ingest_report = report
            router.record_build(spec, cube)
        else:
            session.prepare()
            router.record_build(spec, session.cube)
        session._route_info = info
        return session

    @property
    def route_info(self) -> "RouteInfo | None":
        """How :meth:`from_lattice` routed this session (else ``None``)."""
        return self._route_info

    @property
    def ingest_report(self) -> "IngestReport | None":
        """How :meth:`from_source` prepared this session (else ``None``)."""
        return self._ingest_report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ExplainConfig:
        return self._config

    @property
    def relation(self) -> Relation:
        """The base relation, materializing a lazy one on first access."""
        with self._lock:
            if self._relation is None:
                if self._relation_thunk is None:
                    raise QueryError("session has no relation bound")
                self._relation = self._relation_thunk()
            return self._relation

    @property
    def relation_loaded(self) -> bool:
        """Whether the base relation is materialized (never triggers IO).

        ``False`` only for :meth:`from_source` sessions whose cube came
        from the rollup cache or the out-of-core build and that have not
        yet needed rows; consumers that merely *report* (the serving
        tier's ``/datasets``) check this instead of forcing an ingest.
        """
        with self._lock:
            return self._relation is not None

    @property
    def measure(self) -> str:
        return self._measure

    @property
    def explain_by(self) -> tuple[str, ...]:
        return self._explain_by

    @property
    def aggregate(self) -> str:
        return self._aggregate

    @property
    def time_attr(self) -> str:
        return self._time_attr

    @property
    def prepared(self) -> bool:
        """Whether the raw cube has been built or cache-loaded yet."""
        return self._cube is not None

    @property
    def cache_hit(self) -> bool | None:
        """Whether :meth:`prepare` served the cube from the rollup cache.

        ``None`` until :meth:`prepare` has run or when no ``cache_dir`` is
        configured; otherwise ``True`` (loaded from disk) or ``False``
        (built from the relation).
        """
        return self._cache_hit

    @property
    def last_result(self) -> ExplainResult | None:
        """The most recent :meth:`explain` result, if any."""
        return self._last_result

    # ------------------------------------------------------------------
    # Prepare tier
    # ------------------------------------------------------------------
    def prepare(self) -> "ExplainSession":
        """Build or cache-load the raw explanation cube (idempotent).

        Called implicitly by the first query; call it explicitly to pay
        the expensive tier up front (e.g. before handing the session to an
        interactive loop).  Returns ``self`` for chaining.
        """
        with self._lock:
            if self._cube is not None:
                return self
            started = time.perf_counter()
            cube, hit = prepare_cube(
                self.relation,
                self._measure,
                self._explain_by,
                self._aggregate,
                self._time_attr,
                self._config,
            )
            self._prepare_seconds = time.perf_counter() - started
            if hit is not None:
                self._cache_hit = hit
            self._cube = cube
        return self

    @property
    def cube(self) -> ExplanationCube:
        """The raw (unsmoothed, unfiltered) prepared cube."""
        self.prepare()
        assert self._cube is not None
        return self._cube

    def series(self) -> TimeSeries:
        """The aggregated time series being explained (unsmoothed).

        Served from the prepared cube when it exists; otherwise computed
        with a cheap group-by so inspecting the series never forces the
        expensive prepare tier.
        """
        with self._lock:
            if self._cube is not None:
                if self._series is None:
                    self._series = self._cube.overall_series()
                return self._series
            relation = self.relation
        return aggregate_over_time(
            relation, self._measure, self._aggregate, self._time_attr
        )

    # ------------------------------------------------------------------
    # Streaming appends
    # ------------------------------------------------------------------
    def append(self, delta: Relation) -> AppendInfo | None:
        """Absorb newly arrived rows without re-preparing the session.

        When the session's cube is prepared and appendable, the delta is
        scattered into it in O(delta)
        (:meth:`~repro.cube.datacube.ExplanationCube.append`) and only the
        scorer-LRU entries the append actually invalidates are dropped:

        * every entry whose window's right edge reaches into the changed
          region (``stop_pos >= first_changed_position``) — smoothing and
          the support filter are applied *after* slicing, so a window that
          ends strictly before the first changed position is bitwise
          unaffected regardless of those knobs;
        * every entry whose scorer is bound to the live cube object
          (defensive: cached scorers are detached snapshots of the cube's
          buffers, so the in-place append can tear none of them — see
          :meth:`ExplanationCube.detach`);
        * everything, when the append grew the candidate set.

        An unprepared session just grows its relation (the first query
        builds over the full data), and a session whose cube cannot absorb
        deltas (cache-loaded without its ledger) falls back to dropping
        the cube so the next query rebuilds.  Returns the
        :class:`~repro.cube.delta.AppendInfo` when an in-place append
        happened, ``None`` otherwise.
        """
        with self._lock:
            return self._append_locked(delta)

    def _append_locked(self, delta: Relation) -> AppendInfo | None:
        if delta.n_rows == 0:
            # A poll tick with no new rows: touch nothing — no relation
            # concat (O(n) array copies), no cube drop, no scorer-LRU
            # invalidation, and a lazy (source-backed) relation is not
            # forced.  The prepared path still reports a no-op
            # AppendInfo (and validates the delta schema) through the
            # ledger's own empty-delta shortcut.
            if self._cube is not None and self._cube.appendable:
                return self._cube.append(delta)
            return None
        new_relation = self.relation.concat(delta)
        info: AppendInfo | None = None
        if self._cube is not None and self._cube.appendable:
            started = time.perf_counter()
            info = self._cube.append(delta)
            self._prepare_seconds += time.perf_counter() - started
            if not info.is_noop:
                self._series = None
                if info.candidates_changed:
                    self._scorers.clear()
                else:
                    first_changed = info.first_changed_position
                    stale = [
                        key
                        for key, (scorer, _) in self._scorers.items()
                        if key[1] >= first_changed or scorer.cube is self._cube
                    ]
                    for key in stale:
                        del self._scorers[key]
        elif self._cube is not None:
            self._cube = None
            self._scorers.clear()
            self._series = None
            self._cache_hit = None
        self._relation = new_relation
        return info

    def adopt_snapshot(
        self,
        relation: Relation | None,
        cube: ExplanationCube,
        cache_hit: bool | None = True,
        prepare_seconds: float = 0.0,
    ) -> None:
        """Replace the session's relation and prepared cube wholesale.

        The streaming fast-forward path uses this when a later snapshot of
        the stream is already in the rollup cache (base fingerprint +
        append log): instead of re-scattering every delta, the session
        jumps straight to the cached cube.  All derived scorers are
        dropped.  ``cache_hit`` defaults to ``True`` (the fast-forward
        semantics); the serving tier's sharded cold build passes its real
        outcome instead, together with the ``prepare_seconds`` it spent,
        so latency reporting stays truthful.  ``relation=None`` keeps the
        current binding — :meth:`from_source` installs an out-of-core or
        cache-served cube this way without materializing the (lazy)
        relation.
        """
        if (
            cube.measure != self._measure
            or cube.explain_by != tuple(sorted(self._explain_by))
            or cube.aggregate.name != self._aggregate
        ):
            raise QueryError(
                "adopted cube was built for a different query than this session"
            )
        with self._lock:
            if relation is not None:
                self._relation = relation
            self._cube = cube
            self._scorers.clear()
            self._series = None
            self._cache_hit = cache_hit
            self._prepare_seconds = prepare_seconds

    # ------------------------------------------------------------------
    # Run tier
    # ------------------------------------------------------------------
    def _window_positions(
        self, start: Hashable | None, stop: Hashable | None
    ) -> tuple[int, int]:
        """Resolve window labels to inclusive cube positions."""
        cube = self.cube
        n_times = cube.n_times
        if start is None and stop is None:
            return 0, n_times - 1
        series = self.series()
        start_pos = series.position_of(start) if start is not None else 0
        stop_pos = series.position_of(stop) if stop is not None else n_times - 1
        if start_pos >= stop_pos:
            raise QueryError("window must contain at least two time points")
        return start_pos, stop_pos

    def scorer(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> SegmentScorer:
        """The derived run-tier scorer for a label window.

        Slices the prepared cube to ``[start, stop]`` and applies the
        config's smoothing, support filter and difference metric.  Results
        are memoized in the per-session LRU keyed by the window positions
        and the run-tier fields (``SCORER_FIELDS``), so repeated
        interactive queries share one derivation.  A config whose
        cube-shaping fields (``CUBE_FIELDS``) differ from the session's
        is rejected — the prepared cube cannot represent it; open a new
        session (or go through :meth:`explain`, which falls back to a
        fresh build) instead.
        """
        config = config or self._config
        mismatched = [
            field
            for field in CUBE_FIELDS
            if getattr(config, field) != getattr(self._config, field)
        ]
        if mismatched:
            raise QueryError(
                f"config changes cube-shaping field(s) {mismatched}; this "
                "session's prepared cube cannot serve it — create a new "
                "ExplainSession with that configuration"
            )
        with self._lock:
            start_pos, stop_pos = self._window_positions(start, stop)
            return self._scorer_for(start_pos, stop_pos, config)

    def _scorer_for(
        self, start_pos: int, stop_pos: int, config: ExplainConfig
    ) -> SegmentScorer:
        with self._lock:
            key = (start_pos, stop_pos) + tuple(
                getattr(config, field) for field in SCORER_FIELDS
            )
            cached = self._scorers.get(key)
            if cached is not None:
                self._scorers.move_to_end(key)
                return cached[0]
            with span("derive-scorer"):
                cube = self.cube
                if (start_pos, stop_pos) != (0, cube.n_times - 1):
                    cube = cube.slice_time(start_pos, stop_pos)
                if config.smoothing_window is not None:
                    cube = smooth_cube(cube, config.smoothing_window)
                if config.use_filter:
                    cube = apply_support_filter(cube, config.filter_ratio)
                if self._cube is not None and self._cube.appendable:
                    # The derived cube may view/alias the live cube's
                    # buffers, which append() re-finalizes in place.
                    # Snapshot it so a solve running outside the lock can
                    # never observe an append's partial writes (append
                    # still drops the LRU entries the delta invalidates).
                    cube = cube.detach(self._cube)
                scorer = SegmentScorer(cube, config.metric)
            self._scorers[key] = (scorer, self._owned_nbytes(cube))
            self._trim_scorers()
            return scorer

    @property
    def scorer_cache_bytes(self) -> int | None:
        """Byte budget of the scorer LRU, or ``None`` (the default) to bound
        it by count only.

        Counts the arrays the entries own — views into the prepared cube
        are free — and always keeps the newest entry.  The serving
        registry sets it to each session's own size.
        """
        return self._scorer_cache_bytes

    @scorer_cache_bytes.setter
    def scorer_cache_bytes(self, budget: int | None) -> None:
        if budget is not None and budget < 0:
            raise QueryError(f"scorer_cache_bytes must be >= 0, got {budget}")
        with self._lock:
            self._scorer_cache_bytes = budget
            self._trim_scorers()

    def _trim_scorers(self) -> None:
        """Evict least-recently-used scorers past the count or byte budget."""
        budget = self._scorer_cache_bytes
        while len(self._scorers) > self._scorer_cache_size or (
            budget is not None
            and len(self._scorers) > 1
            and sum(nbytes for _, nbytes in self._scorers.values()) > budget
        ):
            self._scorers.popitem(last=False)

    def _owned_nbytes(self, derived: ExplanationCube) -> int:
        """Bytes of ``derived``'s arrays that are not views of the prepared cube."""
        shared = _cube_arrays(self.cube)
        return sum(
            array.nbytes
            for array in _cube_arrays(derived)
            if not any(np.may_share_memory(array, base) for base in shared)
        )

    def pipeline(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> ExplainPipeline:
        """An :class:`ExplainPipeline` seeded with this session's scorer.

        The returned pipeline's prepare phase is already done — its
        :meth:`~ExplainPipeline.prepare` hands back the derived scorer —
        so callers pay only the solve/segment tiers.  A per-call ``config``
        that changes any prepare-tier field (``PREPARE_FIELDS``) falls
        back to a fresh legacy pipeline over the windowed relation: a
        different ``max_order``/``deduplicate`` cannot be served from the
        session's cube at all, and a one-off ``cache_dir``/``columnar``
        must keep its pre-session side effects (build strategy, on-disk
        store) rather than being silently ignored.
        """
        config = config or self._config
        if any(
            getattr(config, field) != getattr(self._config, field)
            for field in PREPARE_FIELDS
        ):
            relation = window_relation(self.relation, self._time_attr, start, stop)
            return ExplainPipeline(
                relation,
                self._measure,
                self._explain_by,
                aggregate=self._aggregate,
                time_attr=self._time_attr,
                config=config,
            )
        with self._lock:
            started = time.perf_counter()
            scorer = self.scorer(start, stop, config)
            derive_seconds = time.perf_counter() - started
            # The cube build is charged to the first query that triggered
            # it; later queries report only their own (slice/smooth/filter)
            # cost.
            build_seconds, self._prepare_seconds = self._prepare_seconds, 0.0
            return ExplainPipeline.from_scorer(
                scorer,
                config,
                epsilon=self.cube.n_explanations,
                cache_hit=self._cache_hit,
                prepare_seconds=build_seconds + derive_seconds,
            )

    def explain(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> ExplainResult:
        """Segment and explain the series, optionally over a label window.

        Parameters
        ----------
        start / stop:
            Timestamp labels delimiting the period of interest (both
            inclusive); defaults to the whole series.  Windowed queries
            are O(window) slices of the prepared cube.
        config:
            One-off configuration override for this call (replaces, not
            merges with, the session config — the
            :class:`~repro.core.engine.TSExplain` contract).
        """
        # The heavy solve/segment tiers run outside the session lock, on
        # the immutable scorer the pipeline was seeded with.
        result = self.pipeline(start, stop, config).run()
        with self._lock:
            self._last_result = result
        return result

    def top_explanations(
        self,
        start: Hashable,
        stop: Hashable,
        m: int | None = None,
        config: ExplainConfig | None = None,
    ) -> list[ScoredExplanation]:
        """Classic two-relations diff between two timestamps.

        The control relation is the data at ``start`` and the test
        relation the data at ``stop`` (Example 3.1); returns the top-m
        non-overlapping explanations of their difference — a single
        O(epsilon) gather against the prepared cube.  ``config`` is a
        one-off override for this call (the builder's
        :meth:`ExplainQuery.top_explanations` routes through it); ``m``
        overrides the explanation quota on top of it.
        """
        config = config or self._config
        if m is not None:
            config = config.updated(m=m)
        # A diff reports no timings, so keep the cube-build cost charged
        # to the next explain() instead of letting pipeline() consume it.
        with self._lock:
            self.prepare()
            build_seconds = self._prepare_seconds
            pipeline = self.pipeline(config=config)
            self._prepare_seconds = build_seconds
        scorer = pipeline.prepare()
        solver = pipeline.solver(scorer)
        series = scorer.cube.overall_series()
        start_pos = series.position_of(start)
        stop_pos = series.position_of(stop)
        if start_pos >= stop_pos:
            raise QueryError(f"start {start!r} must precede stop {stop!r}")
        gammas, taus = scorer.gamma_tau(start_pos, stop_pos)
        result = solver.solve_batch(gammas[None, :])[0]
        return [
            ScoredExplanation(
                explanation=scorer.cube.explanations[index],
                gamma=float(gammas[index]),
                tau=int(taus[index]),
            )
            for index in result.indices
        ]

    def diff(
        self,
        start: Hashable,
        stop: Hashable,
        m: int | None = None,
        config: ExplainConfig | None = None,
    ) -> list[ScoredExplanation]:
        """Alias of :meth:`top_explanations` under its OLAP name."""
        return self.top_explanations(start, stop, m=m, config=config)

    def recommend(
        self,
        candidates: Sequence[str] | None = None,
        m: int = 3,
        n_probes: int = 16,
    ) -> list[AttributeScore]:
        """Rank candidate explain-by attributes for this session's query.

        Delegates to :func:`~repro.core.recommend.recommend_explain_by`
        with the session's relation, measure and aggregate; probing builds
        small single-attribute cubes and never touches (or forces) the
        session's own prepared cube.
        """
        return recommend_explain_by(
            self.relation,
            self._measure,
            candidates=candidates,
            aggregate=self._aggregate,
            time_attr=self._time_attr,
            m=m,
            n_probes=n_probes,
        )

    def query(self) -> "ExplainQuery":
        """Start a fluent run-tier query bound to this session."""
        return ExplainQuery(self)

    def __repr__(self) -> str:
        state = "prepared" if self.prepared else "unprepared"
        rows = (
            f"{self._relation.n_rows} rows"
            if self._relation is not None
            else "relation unmaterialized"
        )
        return (
            f"ExplainSession({self._measure} by {list(self._explain_by)}, "
            f"{rows}, {state}, "
            f"{len(self._scorers)} cached scorer(s))"
        )


class ExplainQuery:
    """Fluent builder for one run-tier query against a session.

    Every setter returns the builder, so run-tier knobs chain without
    touching the prepare tier::

        result = (session.query()
                  .window("2020-03-01", "2020-07-01")
                  .metric("absolute-change")
                  .smoothing(7)
                  .top(5)
                  .run())

    :meth:`run` executes :meth:`ExplainSession.explain` with the collected
    overrides; :meth:`top_explanations` runs the two-point diff over the
    window endpoints instead.  Overrides are validated when the config is
    assembled, so a typo'd metric or variant fails before any work runs.
    """

    def __init__(self, session: ExplainSession):
        self._session = session
        self._start: Hashable | None = None
        self._stop: Hashable | None = None
        self._overrides: dict = {}

    # ------------------------------------------------------------------
    # Window and run-tier knobs
    # ------------------------------------------------------------------
    def window(
        self, start: Hashable | None = None, stop: Hashable | None = None
    ) -> "ExplainQuery":
        """Restrict the query to ``[start, stop]`` (inclusive labels)."""
        self._start = start
        self._stop = stop
        return self

    def metric(self, name: str) -> "ExplainQuery":
        """Difference metric for this query (e.g. ``absolute-change``)."""
        self._overrides["metric"] = name
        return self

    def top(self, m: int) -> "ExplainQuery":
        """Number of explanations returned per segment."""
        self._overrides["m"] = m
        return self

    def segments(self, k: int | None) -> "ExplainQuery":
        """Fix the segment count; ``None`` restores the elbow selection."""
        self._overrides["k"] = k
        return self

    def smoothing(self, window: int | None) -> "ExplainQuery":
        """Moving-average window applied before explaining (``None`` off)."""
        self._overrides["smoothing_window"] = window
        return self

    def variant(self, name: str) -> "ExplainQuery":
        """Within-segment variance design (default ``tse``)."""
        self._overrides["variant"] = name
        return self

    def filtered(self, enabled: bool = True, ratio: float | None = None) -> "ExplainQuery":
        """Toggle the support filter, optionally with a custom ratio."""
        self._overrides["use_filter"] = enabled
        if ratio is not None:
            self._overrides["filter_ratio"] = ratio
        return self

    def configured(self, **overrides) -> "ExplainQuery":
        """Arbitrary :class:`ExplainConfig` field overrides."""
        self._overrides.update(overrides)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_config(self) -> ExplainConfig:
        """The session config with this query's overrides applied."""
        if not self._overrides:
            return self._session.config
        return self._session.config.updated(**self._overrides)

    def run(self) -> ExplainResult:
        """Execute the query and return the evolving explanations."""
        return self._session.explain(self._start, self._stop, config=self.build_config())

    def top_explanations(self) -> list[ScoredExplanation]:
        """Two-point diff between the window's endpoint labels.

        Every collected override (metric, smoothing, filter, ``m``, ...)
        applies, exactly as it would in :meth:`run`.
        """
        if self._start is None or self._stop is None:
            raise QueryError(
                "top_explanations requires an explicit window(start, stop)"
            )
        return self._session.top_explanations(
            self._start, self._stop, config=self.build_config()
        )

    def __repr__(self) -> str:
        knobs = ", ".join(f"{k}={v!r}" for k, v in self._overrides.items())
        return (
            f"ExplainQuery(window=[{self._start!r}, {self._stop!r}]"
            f"{', ' + knobs if knobs else ''})"
        )


def _cube_arrays(cube: ExplanationCube) -> tuple[np.ndarray, ...]:
    return (
        cube.overall_values,
        cube.supports,
        cube.included_values,
        cube.excluded_values,
    )
