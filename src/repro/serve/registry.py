"""Many named prepared sessions behind a memory-budget + TTL LRU.

The registry is the serving tier's state: it owns one
:class:`~repro.core.session.ExplainSession` per *dataset* (a named query:
relation + measure + explain-by + config) and answers "give me the
prepared session for ``name``" under three production constraints:

* **bounded memory** — prepared cubes are the dominant resident cost, so
  sessions carry a byte estimate and the least-recently-used ones are
  evicted once the budget is exceeded (the most recent session always
  survives, even over budget: evicting the session a request is about to
  use would thrash);
* **bounded staleness** — entries idle longer than the TTL are dropped
  lazily on access and by :meth:`sweep`, so a long-running server does
  not pin cold tenants forever;
* **single-flight cold builds** — a per-key build lock makes N concurrent
  requests for a cold dataset trigger exactly *one* prepare; the other
  N-1 threads block on the lock and then adopt the winner's session
  (counted as ``coalesced`` in :meth:`stats`).

Cold prepares go through the :class:`~repro.serve.sharding.ShardedBuilder`
when one is configured (parallel shard builds, byte-identical, feeding the
persistent rollup cache); otherwise through the session's own
:meth:`~repro.core.session.ExplainSession.prepare`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import CubeKey, RollupCache, cube_key
from repro.datasets.base import Dataset
from repro.datasets.registry import available_datasets, load_dataset
from repro.detect.session import DetectSession
from repro.exceptions import QueryError
from repro.lattice.router import LatticeRouter
from repro.obs.metrics import BUILD_BUCKETS, get_registry as get_metrics
from repro.obs.trace import span
from repro.serve.sharding import ShardedBuilder
from repro.store import resolve_source


def default_config_for(dataset: Dataset) -> ExplainConfig:
    """The serving default for a dataset: optimized + its smoothing.

    Mirrors the CLI's ``repro explain`` defaults exactly, so a query
    served over HTTP and the same query run from the command line return
    identical explanations.
    """
    config = ExplainConfig.optimized()
    window = dataset.smoothing_window
    if window is not None and window > 1:
        config = config.updated(smoothing_window=window)
    return config


@dataclass(frozen=True)
class DatasetSpec:
    """How the registry materializes one named dataset on first use.

    ``loader`` is a zero-argument callable returning a
    :class:`~repro.datasets.base.Dataset`; it runs at most once per cold
    build (under the single-flight lock).  ``config`` overrides the
    serving default (:func:`default_config_for`); ``explain_by`` overrides
    the dataset's own attribute set.  ``source`` names a
    :mod:`repro.store` URI instead: the cold build then goes through
    :meth:`ExplainSession.from_source` — source-fingerprint cache lookup
    first (a warm serve skips ingestion entirely), chunked out-of-core
    build on a miss — and the relation stays unmaterialized until a
    request (``/recommend``) actually needs rows.
    """

    name: str
    loader: Callable[[], Dataset]
    config: ExplainConfig | None = None
    explain_by: tuple[str, ...] | None = None
    description: str = ""
    source: str | None = None
    #: Route the cold prepare through the dataset's rollup lattice
    #: (:mod:`repro.lattice`): exact/derived rollups serve without a
    #: build, misses fall back and feed the promotion policy.
    lattice: bool = False

    @classmethod
    def bundled(cls, name: str, **kwargs) -> "DatasetSpec":
        """A spec for one of the bundled datasets (lazy-loaded)."""
        return cls(name=name, loader=lambda: load_dataset(name), **kwargs)

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "DatasetSpec":
        """A spec wrapping an already-materialized dataset."""
        return cls(name=dataset.name, loader=lambda: dataset, **kwargs)

    @classmethod
    def from_source(cls, uri: str, name: str | None = None, **kwargs) -> "DatasetSpec":
        """A spec serving a data-source URI (``csv:``/``npz:``/``sqlite:``)."""

        def loader() -> Dataset:
            # Source-backed specs materialize through the lazy
            # ExplainSession.from_source path in _prepare_from_source;
            # an eager loader call would silently ingest the whole
            # source, so enforce the invariant instead of permitting it.
            raise QueryError(
                f"source-backed spec {uri!r} must not be materialized via "
                "loader(); the registry prepares it lazily from the source"
            )

        return cls(name=name or uri, loader=loader, source=uri, **kwargs)


def session_nbytes(session: ExplainSession) -> int:
    """Resident-size estimate of a prepared session, in bytes.

    Counts the dominant arrays: the finalized series matrices, the
    delta ledger's aggregate states and the drill-down DAG every query's
    solvers derive from (built here if no query has yet).  Derived
    scorer-LRU entries are excluded: the registry budgets each
    session's LRU to this same estimate when it admits the session.  The estimate drives
    relative eviction order, not an allocator.  The detect tier's
    baseline state is counted separately (:func:`detector_nbytes`) and
    folded into the entry estimate when a detector is built.
    """
    cube = session.cube
    total = (
        cube.included_values.nbytes
        + cube.excluded_values.nbytes
        + cube.overall_values.nbytes
        + cube.supports.nbytes
    )
    state = cube.append_state
    if state is not None:
        total += state.overall.nbytes
        for ledger in state.ledgers:
            total += ledger.state.nbytes + ledger.counts.nbytes
    return total + session.candidate_dag().nbytes


def detector_nbytes(detector: DetectSession) -> int:
    """Resident-size estimate of a detect tier, in bytes.

    The :class:`~repro.detect.baselines.TieredBaselines` mean/std
    matrices are ``(n_candidates, n_times)`` float64 — they can rival
    the cube itself, so leaving them out of the entry estimate would
    make the memory budget trigger eviction late.
    """
    baselines = detector.baselines
    return (
        baselines.mean.nbytes
        + baselines.std.nbytes
        + baselines.tier.nbytes
        + baselines.samples.nbytes
    )


@dataclass
class _Entry:
    """One resident session plus its LRU bookkeeping."""

    session: ExplainSession
    nbytes: int
    created: float
    last_used: float
    build_seconds: float
    queries: int = 0


@dataclass
class RegistryStats:
    """Counters the registry exposes through ``/stats``."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0
    expirations: int = 0
    build_seconds: float = 0.0
    artifact_hits: int = 0
    artifact_stores: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "build_seconds": self.build_seconds,
            "artifact_hits": self.artifact_hits,
            "artifact_stores": self.artifact_stores,
        }


class SessionRegistry:
    """Named prepared sessions behind a memory-budget + TTL LRU.

    Parameters
    ----------
    specs:
        Initial :class:`DatasetSpec`s; more can be added with
        :meth:`register`.
    memory_budget_bytes:
        Soft cap on the summed session estimates; ``None`` (default) is
        unbounded.  The most recently used session always survives.
    ttl_seconds:
        Idle time after which a session is dropped; ``None`` disables.
    builder:
        A :class:`~repro.serve.sharding.ShardedBuilder` for parallel cold
        builds; ``None`` prepares sessions in-process, one-shot.
    cache_dir:
        Persistent rollup-cache directory shared by every dataset; cold
        builds load from and store into it.
    artifacts:
        Serve cold prepares from the mmap-able finalized-cube artifact
        (:mod:`repro.cube.artifact`) in ``cache_dir`` when one exists —
        the series matrices are then memory-mapped read-only, so N
        worker processes opening the same artifact share one resident
        copy through the page cache (warm start near zero).  Cold builds
        feed the artifact.  Requires ``cache_dir``; inert without one.
    clock:
        Injectable monotonic clock (tests pin TTL behaviour with it).
    """

    def __init__(
        self,
        specs: Sequence[DatasetSpec] = (),
        memory_budget_bytes: int | None = None,
        ttl_seconds: float | None = None,
        builder: ShardedBuilder | None = None,
        cache_dir: str | None = None,
        artifacts: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._specs: dict[str, DatasetSpec] = {}
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._build_locks: dict[str, threading.Lock] = {}
        self._memory_budget = memory_budget_bytes
        self._ttl = ttl_seconds
        self._builder = builder
        self._cache = RollupCache(cache_dir) if cache_dir else None
        self._cache_dir = cache_dir
        self._artifacts = bool(artifacts and cache_dir)
        self._clock = clock
        self._stats = RegistryStats()
        metrics = get_metrics()
        self._metric_lookups = metrics.counter(
            "repro_registry_lookups_total",
            "Session lookups by outcome (hit / miss / coalesced)",
            labels=("outcome",),
        )
        self._metric_evictions = metrics.counter(
            "repro_registry_evictions_total",
            "Sessions dropped by the LRU (budget) or the TTL (expired)",
            labels=("reason",),
        )
        self._metric_build_seconds = metrics.histogram(
            "repro_registry_build_seconds",
            "Cold session prepare latency",
            buckets=BUILD_BUCKETS,
        )
        # One lattice router per data fingerprint, shared by every spec
        # over the same data (created lazily by the first lattice spec).
        self._routers: dict[str, LatticeRouter] = {}
        # One detect tier per dataset, built lazily on the first /detect
        # and dropped whenever its underlying session is (the baselines
        # are derived state — rebuilt from the fresh cube on demand).
        self._detectors: dict[str, DetectSession] = {}
        for spec in specs:
            self.register(spec)

    @classmethod
    def with_bundled_datasets(cls, names: Sequence[str] | None = None, **kwargs) -> "SessionRegistry":
        """A registry pre-populated with (a subset of) the bundled datasets."""
        names = tuple(names) if names is not None else available_datasets()
        return cls(specs=[DatasetSpec.bundled(name) for name in names], **kwargs)

    # ------------------------------------------------------------------
    # Spec management
    # ------------------------------------------------------------------
    def register(self, spec: DatasetSpec) -> None:
        """Add (or replace) a dataset spec; a resident session is dropped."""
        with self._lock:
            self._specs[spec.name] = spec
            self._entries.pop(spec.name, None)
            self._detectors.pop(spec.name, None)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._specs

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def session(self, name: str) -> ExplainSession:
        """The prepared session for ``name`` (single-flight on cold keys)."""
        with self._lock:
            spec = self._spec_for(name)
            entry = self._live_entry(name)
            if entry is not None:
                self._stats.hits += 1
                self._metric_lookups.inc(outcome="hit")
                entry.queries += 1
                return entry.session
            self._stats.misses += 1
            self._metric_lookups.inc(outcome="miss")
            build_lock = self._build_locks.setdefault(name, threading.Lock())
        # Build outside the registry lock so other datasets stay servable;
        # the per-key lock is what coalesces concurrent cold requests.
        waited = not build_lock.acquire(blocking=False)
        if waited:
            build_lock.acquire()
        try:
            with self._lock:
                entry = self._live_entry(name)
                if entry is not None:
                    # A racer built it while we waited on the key lock.
                    if waited:
                        self._stats.coalesced += 1
                        self._metric_lookups.inc(outcome="coalesced")
                    entry.queries += 1
                    return entry.session
            with span("prepare"):
                session, build_seconds = self._prepare(spec)
            self._metric_build_seconds.observe(build_seconds)
            with self._lock:
                # register() may have replaced the spec while we built;
                # serve this request from the stale session but never
                # cache it — the next request prepares the new spec.
                if self._specs.get(name) is spec:
                    self._admit(name, session, build_seconds)
            return session
        finally:
            build_lock.release()

    def touch(self, name: str) -> None:
        """Refresh ``name``'s LRU position without counting a query."""
        with self._lock:
            self._live_entry(name)

    def detect_session(self, name: str) -> DetectSession:
        """The detect tier over ``name``'s prepared session (lazy, cached).

        Keyed on the *session object*: when the LRU evicted and rebuilt
        the dataset's session, the cached detector is stale and a fresh
        one (baselines rebuilt over the new cube) replaces it.
        """
        session = self.session(name)
        with self._lock:
            detector = self._detectors.get(name)
            if detector is not None and detector.session is session:
                return detector
        # Baseline construction scans the whole cube; build it outside
        # the registry lock so other datasets stay servable meanwhile.
        detector = DetectSession(session)
        with self._lock:
            current = self._detectors.get(name)
            if current is not None and current.session is session:
                return current  # a racer built it first; adopt theirs
            self._detectors[name] = detector
            # The baselines just became resident state of this dataset:
            # fold them into the entry's byte estimate so the memory
            # budget sees them, and re-check the budget right away.
            entry = self._entries.get(name)
            if entry is not None and entry.session is session:
                entry.nbytes = session_nbytes(session) + detector_nbytes(detector)
                self._enforce_budget()
            return detector

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def evict(self, name: str) -> bool:
        """Drop a resident session (the spec stays registered)."""
        with self._lock:
            self._detectors.pop(name, None)
            return self._entries.pop(name, None) is not None

    def clear(self) -> None:
        """Drop every resident session."""
        with self._lock:
            self._entries.clear()
            self._detectors.clear()

    def sweep(self) -> int:
        """Drop every TTL-expired session; returns how many were dropped."""
        if self._ttl is None:
            return 0
        with self._lock:
            now = self._clock()
            expired = [
                name
                for name, entry in self._entries.items()
                if now - entry.last_used > self._ttl
            ]
            for name in expired:
                del self._entries[name]
                self._detectors.pop(name, None)
            self._stats.expirations += len(expired)
            if expired:
                self._metric_evictions.inc(len(expired), reason="expired")
            return len(expired)

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def describe(self) -> list[dict]:
        """One JSON-shaped record per registered dataset (``/datasets``)."""
        with self._lock:
            now = self._clock()
            rows = []
            for name in sorted(self._specs):
                spec = self._specs[name]
                row: dict = {
                    "name": name,
                    "description": spec.description,
                    "loaded": name in self._entries,
                }
                entry = self._entries.get(name)
                if entry is not None:
                    cube = entry.session.cube
                    row.update(
                        # Reporting must never force a lazy (source-backed)
                        # session to ingest its relation.
                        rows=(
                            entry.session.relation.n_rows
                            if entry.session.relation_loaded
                            else None
                        ),
                        epsilon=cube.n_explanations,
                        n_times=cube.n_times,
                        memory_bytes=entry.nbytes,
                        queries=entry.queries,
                        idle_seconds=round(now - entry.last_used, 3),
                        build_seconds=round(entry.build_seconds, 6),
                    )
                rows.append(row)
            return rows

    def stats(self) -> dict:
        """Registry counters plus the resident-session roster (``/stats``)."""
        with self._lock:
            payload = self._stats.as_dict()
            payload.update(
                datasets=len(self._specs),
                resident_sessions=len(self._entries),
                memory_bytes=sum(e.nbytes for e in self._entries.values()),
                memory_budget_bytes=self._memory_budget,
                ttl_seconds=self._ttl,
                cache_dir=self._cache_dir,
                artifacts=self._artifacts,
                sharded_builds=self._builder is not None,
                lattice=self.lattice_stats(),
                detect=self.detect_stats(),
            )
            return payload

    def detect_stats(self) -> dict:
        """Aggregated detect-tier counters (the ``/stats`` detect key)."""
        with self._lock:
            detectors = list(self._detectors.values())
        totals = {
            "sessions": len(detectors),
            "scans": 0,
            "appends": 0,
            "cells_scored": 0,
            "anomalies": 0,
        }
        for detector in detectors:
            stats = detector.stats()
            for key in ("scans", "appends", "cells_scored", "anomalies"):
                totals[key] += stats[key]
        return totals

    def lattice_stats(self) -> dict:
        """Aggregated lattice-router counters (the ``/stats`` lattice key)."""
        with self._lock:
            routers = list(self._routers.values())
        totals = {
            "routers": len(routers),
            "rollups": 0,
            "resident_cubes": 0,
            "exact_hits": 0,
            "derived_hits": 0,
            "lattice_miss": 0,
            "derivations": 0,
            "promotions": 0,
        }
        for router in routers:
            for key, value in router.stats().items():
                totals[key] += value
        return totals

    # ------------------------------------------------------------------
    # Internals (registry lock held unless noted)
    # ------------------------------------------------------------------
    def _spec_for(self, name: str) -> DatasetSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise QueryError(
                f"unknown dataset {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def _live_entry(self, name: str) -> _Entry | None:
        """The entry for ``name`` if resident and fresh; touches its LRU slot."""
        entry = self._entries.get(name)
        if entry is None:
            return None
        now = self._clock()
        if self._ttl is not None and now - entry.last_used > self._ttl:
            del self._entries[name]
            self._stats.expirations += 1
            self._metric_evictions.inc(reason="expired")
            return None
        entry.last_used = now
        self._entries.move_to_end(name)
        return entry

    def _prepare(self, spec: DatasetSpec) -> tuple[ExplainSession, float]:
        """Materialize and prepare a session (runs under the key lock only)."""
        started = time.perf_counter()
        if spec.source is not None:
            return self._prepare_from_source(spec, started)
        dataset = spec.loader()
        config = spec.config if spec.config is not None else default_config_for(dataset)
        if self._cache_dir and not config.cache_dir:
            config = config.updated(cache_dir=self._cache_dir)
        explain_by = spec.explain_by or dataset.explain_by
        artifact_key: CubeKey | None = None
        if self._artifacts and not spec.lattice:
            artifact_key = cube_key(
                dataset.relation,
                dataset.measure,
                explain_by,
                aggregate=dataset.aggregate,
                max_order=config.max_order,
                deduplicate=config.deduplicate,
            )
            adopted = self._adopt_artifact(
                artifact_key,
                relation=dataset.relation,
                measure=dataset.measure,
                explain_by=explain_by,
                aggregate=dataset.aggregate,
                config=config,
                started=started,
            )
            if adopted is not None:
                return adopted
        if spec.lattice:
            router = self._router_for(
                dataset.relation.fingerprint(),
                dataset.relation.schema.require_time(),
            )
            session = ExplainSession.from_lattice(
                router,
                relation=dataset.relation,
                measure=dataset.measure,
                explain_by=explain_by,
                aggregate=dataset.aggregate,
                config=config,
            )
            return session, time.perf_counter() - started
        session = ExplainSession(
            dataset.relation,
            measure=dataset.measure,
            explain_by=explain_by,
            aggregate=dataset.aggregate,
            config=config,
        )
        if self._builder is not None:
            cube, report = self._builder.build_with_report(
                dataset.relation,
                explain_by,
                dataset.measure,
                aggregate=dataset.aggregate,
                max_order=config.max_order,
                deduplicate=config.deduplicate,
                columnar=config.columnar,
                cache=self._cache,
            )
            session.adopt_snapshot(
                dataset.relation,
                cube,
                cache_hit=report.cache_hit,
                prepare_seconds=time.perf_counter() - started,
            )
        else:
            session.prepare()
        self._store_artifact(artifact_key, session)
        return session, time.perf_counter() - started

    def _adopt_artifact(
        self,
        key: CubeKey,
        relation,
        measure: str,
        explain_by,
        aggregate: str,
        config: ExplainConfig,
        started: float,
        time_attr: str | None = None,
    ) -> tuple[ExplainSession, float] | None:
        """Build a session straight from a finalized artifact, if one exists.

        The adopted cube's series matrices are memory-mapped read-only —
        every process opening the same artifact shares one page-cache
        copy, and the warm start skips the build entirely.  ``relation``
        may be a lazy loader (source-backed specs): it is handed to the
        session unmaterialized and stays lazy.
        """
        assert self._cache is not None
        with span("artifact-load"):
            cube = self._cache.load_artifact(key)
        if cube is None:
            return None
        session = ExplainSession(
            relation,
            measure=measure,
            explain_by=explain_by,
            aggregate=aggregate,
            time_attr=time_attr,
            config=config,
        )
        session.adopt_snapshot(
            None,
            cube,
            cache_hit=True,
            prepare_seconds=time.perf_counter() - started,
        )
        with self._lock:
            self._stats.artifact_hits += 1
        return session, time.perf_counter() - started

    def _store_artifact(self, key: CubeKey | None, session: ExplainSession) -> None:
        """Feed the artifact store after a cold build (never fails the build)."""
        if key is None or self._cache is None:
            return
        try:
            self._cache.store_artifact(key, session.cube)
        except (TypeError, OSError):
            # Non-JSON labels/values or an unwritable cache directory make
            # the cube unpersistable; the build itself is still good.
            return
        with self._lock:
            self._stats.artifact_stores += 1

    def _prepare_from_source(
        self, spec: DatasetSpec, started: float
    ) -> tuple[ExplainSession, float]:
        """Cold-build a source-backed spec (source-keyed cache, out-of-core).

        The sharded builder is not used here — the chunked append build is
        the bounded-memory analogue for sources — and the session's
        relation stays lazy: a warm cache serve never parses the source.
        """
        source = resolve_source(spec.source)
        config = spec.config if spec.config is not None else ExplainConfig.optimized()
        if self._cache_dir and not config.cache_dir:
            config = config.updated(cache_dir=self._cache_dir)
        artifact_key: CubeKey | None = None
        if self._artifacts and not spec.lattice:
            from repro.store.ingest import source_cube_key

            schema = source.schema
            measures = schema.measure_names()
            if measures:
                # Mirror ExplainSession.from_source's query defaults so
                # the artifact key matches what the cold build produces.
                measure = measures[0]
                explain_by = (
                    tuple(spec.explain_by)
                    if spec.explain_by
                    else schema.dimension_names()
                )
                artifact_key = source_cube_key(
                    source,
                    measure,
                    explain_by,
                    aggregate=source.default_aggregate,
                    max_order=config.max_order,
                    deduplicate=config.deduplicate,
                )
                adopted = self._adopt_artifact(
                    artifact_key,
                    relation=source.read,
                    measure=measure,
                    explain_by=explain_by,
                    aggregate=source.default_aggregate,
                    config=config,
                    started=started,
                    # The relation is a lazy loader: there is no schema to
                    # default the time attribute from until first read.
                    time_attr=schema.require_time(),
                )
                if adopted is not None:
                    return adopted
        if spec.lattice:
            from repro.lattice.build import lattice_fingerprint

            router = self._router_for(
                lattice_fingerprint(source), source.schema.require_time()
            )
            session = ExplainSession.from_lattice(
                router,
                source=source,
                explain_by=spec.explain_by,
                config=config,
            )
            return session, time.perf_counter() - started
        session = ExplainSession.from_source(
            source,
            explain_by=spec.explain_by,
            config=config,
        )
        self._store_artifact(artifact_key, session)
        return session, time.perf_counter() - started

    def _router_for(self, fingerprint: str, time_attr: str) -> LatticeRouter:
        """The shared lattice router of one data fingerprint (lazy).

        Creation loads and validates the persisted manifest — a corrupt
        document or fingerprint mismatch propagates loudly to the request
        that needed the lattice, per the routing contract.
        """
        with self._lock:
            router = self._routers.get(fingerprint)
            if router is None:
                router = LatticeRouter(
                    fingerprint, time_attr, cache=self._cache
                )
                self._routers[fingerprint] = router
            return router

    def _admit(self, name: str, session: ExplainSession, build_seconds: float) -> None:
        now = self._clock()
        nbytes = session_nbytes(session)
        # Derived scorers may hold at most what the session itself does,
        # so a session's resident size stays within twice its estimate.
        session.scorer_cache_bytes = nbytes
        self._entries[name] = _Entry(
            session=session,
            nbytes=nbytes,
            created=now,
            last_used=now,
            build_seconds=build_seconds,
            queries=1,
        )
        self._entries.move_to_end(name)
        self._stats.build_seconds += build_seconds
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict LRU entries (and their detectors) past the memory budget.

        The most recently used entry always survives, even alone over
        budget — evicting the session a request is about to use would
        thrash.  An evicted dataset's cached detector goes with it:
        keeping baselines for a session the LRU just dropped would leak
        exactly the bytes the budget is trying to bound.
        """
        if self._memory_budget is None:
            return
        while (
            len(self._entries) > 1
            and sum(e.nbytes for e in self._entries.values()) > self._memory_budget
        ):
            evicted, _ = self._entries.popitem(last=False)
            self._detectors.pop(evicted, None)
            self._stats.evictions += 1
            self._metric_evictions.inc(reason="budget")
