"""Persistent rollup cache for built explanation cubes.

Building the explanation cube is the *prepare* phase of TSExplain's
two-tier design: expensive once, then every difference score is an O(1)
lookup.  This module makes that prepare phase a reusable on-disk artifact,
in the spirit of two-tier OLAP rollup stores (prepare once, query in
milliseconds): a built :class:`~repro.cube.datacube.ExplanationCube` is
serialized under a key derived from the relation fingerprint and the query
parameters, and any later explain over the same data and parameters loads
the rollup instead of rescanning the relation.

Cache invalidation contract
---------------------------
A cached cube is served only when **all** components of its
:class:`CubeKey` match:

* ``fingerprint`` — SHA-256 of the relation's schema and cell contents
  (:meth:`repro.relation.table.Relation.fingerprint`), so any data change
  invalidates the entry;
* ``measure``, ``explain_by`` (order-insensitive), ``aggregate``,
  ``time_attr``, ``max_order`` and ``deduplicate`` — the parameters that
  shape the cube itself.

Everything applied *after* the raw cube — smoothing, the support filter,
the difference metric, ``k``/``m`` — is deliberately **not** part of the
key: the cache stores the raw rollup and the pipeline re-applies those
cheap per-query transforms on load, so one cached build serves many
configurations.  A corrupted, truncated or otherwise unreadable entry is
treated as a miss and the cube is rebuilt (and re-stored) from the
relation; stores are atomic (write to a temp file, then rename), so a
crashed writer can never leave a half-written entry that poisons later
runs.

On-disk format
--------------
One file per key: the uncompressed, mmap-able cube file of
:mod:`repro.cube.artifact` (suffix ``.cube.art.npz``).  :meth:`RollupCache.store`
and :meth:`RollupCache.store_artifact` write it, :meth:`RollupCache.load`
reads it back (reviving an appendable cube's delta ledger, so a restarted
stream can keep appending to a loaded snapshot) and
:meth:`RollupCache.load_artifact` memory-maps the same file for the serve
tier.  The JSON header carries the key, labels and explanation items —
deliberately **no pickle**, see :mod:`repro.cube.artifact`.

Entries of the retired compressed format (``.cube.npz``) are never read:
they are misses, are listed as invalid by :meth:`RollupCache.entries`, count
against ``max_entries`` (so eviction removes them first, being oldest) and
are removed by :meth:`RollupCache.clear`.

Streaming replay (chain keys + append log)
------------------------------------------
Streaming snapshots cannot afford a whole-relation fingerprint per
update.  Instead, a stream derives each snapshot's key from its
predecessor: :func:`chain_fingerprint` hashes ``(previous fingerprint,
delta fingerprint)``, so only the O(delta) delta rows are hashed per
update.  :class:`AppendLog` persists the base key plus the delta
fingerprint sequence next to the cache entries; a replayed stream whose
base and deltas match the log fast-forwards by loading the chained
entries instead of re-appending.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.cube.artifact import (
    ARTIFACT_SUFFIX,
    _key_dict,
    artifact_path_for,
    open_artifact,
    read_artifact_header,
    write_artifact,
)
from repro.cube.datacube import ExplanationCube
from repro.exceptions import AggregateError, QueryError
from repro.obs.metrics import get_registry as _get_metrics
from repro.relation.aggregates import AggregateFunction, get_aggregate
from repro.relation.table import Relation


def _requests_counter(name: str, help: str):
    """A labeled ``{outcome}`` counter on the *current* default metrics
    registry (resolved per call so tests that swap the registry with
    ``set_registry`` observe cache traffic in their own instance)."""
    return _get_metrics().counter(name, help, labels=("outcome",))


#: Filename suffix of cache entries: the one cube file of
#: :mod:`repro.cube.artifact`.
CACHE_SUFFIX = ARTIFACT_SUFFIX

#: Filename suffix of the retired compressed entries (read as misses).
LEGACY_SUFFIX = ".cube.npz"

#: Filename suffix of lattice manifests (one per data fingerprint).
MANIFEST_SUFFIX = ".lattice.json"


@dataclass(frozen=True)
class CubeKey:
    """Everything that determines the bytes of a raw explanation cube."""

    fingerprint: str
    measure: str
    explain_by: tuple[str, ...]
    aggregate: str
    time_attr: str
    max_order: int
    deduplicate: bool

    def digest(self) -> str:
        """Filename-safe hex digest of the full key."""
        return hashlib.sha256(repr(asdict(self)).encode("utf-8")).hexdigest()


def cube_key_for_fingerprint(
    fingerprint: str,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str | AggregateFunction = "sum",
    time_attr: str = "",
    max_order: int = 3,
    deduplicate: bool = True,
) -> CubeKey:
    """A :class:`CubeKey` with the data component supplied directly.

    Normalizes the query parameters exactly like :func:`cube_key` (the
    aggregate resolves to its registry name, ``explain_by`` is sorted)
    but takes the fingerprint as a string, so keys can be derived without
    a materialized relation — :mod:`repro.store` keys out-of-core builds
    by a *source* fingerprint (``src-…``), and the streaming chain keys
    (:func:`chain_fingerprint`) live in the same namespace.
    """
    if isinstance(aggregate, str):
        aggregate = get_aggregate(aggregate)
    return CubeKey(
        fingerprint=fingerprint,
        measure=measure,
        explain_by=tuple(sorted(explain_by)),
        aggregate=aggregate.name,
        time_attr=time_attr,
        max_order=max_order,
        deduplicate=deduplicate,
    )


def cube_key(
    relation: Relation,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str | AggregateFunction = "sum",
    time_attr: str | None = None,
    max_order: int = 3,
    deduplicate: bool = True,
) -> CubeKey:
    """The cache key a cube build over these inputs resolves to.

    Mirrors :class:`~repro.cube.datacube.ExplanationCube`'s parameter
    normalization: the aggregate is resolved to its registry name, the
    time attribute to the schema's time attribute, and ``explain_by`` is
    sorted (the cube sorts it too, so attribute order never splits the
    cache).
    """
    return cube_key_for_fingerprint(
        relation.fingerprint(),
        measure,
        explain_by,
        aggregate=aggregate,
        time_attr=time_attr or relation.schema.require_time(),
        max_order=max_order,
        deduplicate=deduplicate,
    )


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one on-disk cache entry (``repro cache inspect``)."""

    path: Path
    size_bytes: int
    valid: bool
    key: CubeKey | None = None
    n_explanations: int = 0
    n_times: int = 0

    def row(self) -> str:
        """One human-readable line for CLI listings."""
        name = self.path.name
        if not self.valid or self.key is None:
            return f"{name}  CORRUPT ({self.size_bytes} bytes)"
        return (
            f"{name[:16]}…  measure={self.key.measure} "
            f"explain_by={list(self.key.explain_by)} agg={self.key.aggregate} "
            f"max_order={self.key.max_order} epsilon={self.n_explanations} "
            f"n={self.n_times} ({self.size_bytes} bytes)"
        )


class RollupCache:
    """A directory of serialized explanation cubes keyed by :class:`CubeKey`.

    Parameters
    ----------
    directory:
        Cache root; ``~`` is expanded.  The directory is created (with
        parents) lazily by the first :meth:`store`, so read-only
        operations (``load``/``entries``/``clear``) never leave stray
        directories behind a mistyped path.  Safe to share between
        queries and datasets — entries are content-addressed by the key
        digest.
    max_entries:
        When set, :meth:`store` evicts the least-recently-used entries
        (by file access/modification time) once the directory holds more
        than this many — the bound that keeps e.g. a long-running
        streaming workload, whose every snapshot has a fresh fingerprint,
        from growing the cache without limit.  ``None`` (default) means
        unbounded.
    """

    def __init__(self, directory: str | Path, max_entries: int | None = None):
        self._directory = Path(directory).expanduser()
        self._max_entries = max_entries

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, key: CubeKey) -> Path:
        """The file path the given key is stored under."""
        return artifact_path_for(self._directory, key)

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: CubeKey) -> ExplanationCube | None:
        """The cached cube for ``key``, or ``None`` on miss/corruption.

        Entries stored with their delta ledger (appendable cubes) revive
        as appendable cubes; ledger-less entries load as fixed cubes.
        Either way the arrays are private copies, not mappings.
        """
        cube = open_artifact(self._directory, key, mmap=False, appendable=None)
        if cube is not None:
            self._touch(key)
        _requests_counter("repro_rollup_cache_requests_total", "Rollup cache operations by outcome (hit / miss / store)").inc(
            outcome="hit" if cube is not None else "miss"
        )
        return cube

    def store(self, key: CubeKey, cube: ExplanationCube) -> Path:
        """Atomically persist a built cube under ``key``; returns the path.

        An appendable cube's delta ledger (aggregate states, group
        values, counts, parent maps) is stored alongside the series
        arrays, so the entry revives as an appendable cube.  Raises
        ``TypeError`` if the cube's labels, explanation values or group
        values are not JSON scalars (str/int/float/bool/None) — relations
        only produce such scalars, so this fires for hand-built cubes
        only.
        """
        path = write_artifact(self._directory, key, cube)
        self._evict()
        _requests_counter(
            "repro_rollup_cache_requests_total", "Rollup cache operations by outcome (hit / miss / store)"
        ).inc(outcome="store")
        return path

    # ------------------------------------------------------------------
    # The serve tier's view of the same files (repro.cube.artifact)
    # ------------------------------------------------------------------
    def artifact_path_for(self, key: CubeKey) -> Path:
        """Where the mmap-able cube file of ``key`` lives (:meth:`path_for`)."""
        return self.path_for(key)

    def store_artifact(self, key: CubeKey, cube: ExplanationCube) -> Path:
        """Make sure ``cube`` is persisted under ``key``; returns the path.

        The file is the one :meth:`store` writes.  When a cold build
        already stored this very cube (same key, same header), nothing is
        written again; otherwise the file is (over)written atomically.
        """
        path = write_artifact(self._directory, key, cube, rewrite=False)
        self._evict()
        _requests_counter(
            "repro_artifact_requests_total", "Finalized-cube artifact operations by outcome (hit / miss / store)"
        ).inc(outcome="store")
        return path

    def load_artifact(
        self, key: CubeKey, mmap: bool = True, appendable: bool = False
    ) -> ExplanationCube | None:
        """The cube for ``key`` with its series memory-mapped, or ``None``
        — same miss contract as :meth:`load` (corruption reads as a miss,
        never an error)."""
        cube = open_artifact(
            self._directory, key, mmap=mmap, appendable=appendable
        )
        if cube is not None:
            self._touch(key)
        _requests_counter(
            "repro_artifact_requests_total", "Finalized-cube artifact operations by outcome (hit / miss / store)"
        ).inc(outcome="hit" if cube is not None else "miss")
        return cube

    def _touch(self, key: CubeKey) -> None:
        """Mark an entry recently used, so LRU eviction keeps hot entries."""
        try:
            os.utime(self.path_for(key))
        except OSError:
            pass

    def _glob(self, pattern: str) -> list[Path]:
        """Directory listing that tolerates the directory vanishing.

        ``Path.glob`` checks ``is_dir`` and then scans; a concurrent
        ``clear()``/``rmtree`` in another process can remove the
        directory between the two, surfacing ``FileNotFoundError`` from
        the scan.  A vanished directory simply has no entries.
        """
        try:
            return list(self._directory.glob(pattern))
        except OSError:
            return []

    def _cube_files(self) -> list[Path]:
        """Every cube file in the directory, retired-format ones included."""
        return self._glob(f"*{CACHE_SUFFIX}") + self._glob(f"*{LEGACY_SUFFIX}")

    def _evict(self) -> None:
        """Drop the oldest cube files beyond ``max_entries`` (newest survive)."""
        if self._max_entries is None:
            return
        paths = self._cube_files()
        if len(paths) <= self._max_entries:
            return
        def age(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0
        paths.sort(key=age)
        for path in paths[: len(paths) - self._max_entries]:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Lattice manifests (repro.lattice)
    # ------------------------------------------------------------------
    def manifest_path_for(self, fingerprint: str) -> Path:
        """Where the lattice manifest of one data fingerprint lives."""
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return self._directory / f"{digest}{MANIFEST_SUFFIX}"

    def load_manifest_payload(self, fingerprint: str) -> dict | None:
        """The raw manifest JSON for a fingerprint, or ``None`` if absent.

        Unlike cube entries, a *present but unreadable* manifest raises
        :class:`~repro.exceptions.QueryError` instead of reading as a
        miss: the manifest tells the lattice router which rollups are
        answerable, and silently forgetting them would quietly rebuild
        what the operator believes is prepared.  Semantic validation
        (format version, fingerprint match) is the caller's job
        (:meth:`repro.lattice.manifest.LatticeManifest.from_payload`).
        """
        path = self.manifest_path_for(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            raise QueryError(
                f"lattice manifest {path} is unreadable: {error}"
            ) from error
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise QueryError(
                f"lattice manifest {path} is corrupt: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise QueryError(f"lattice manifest {path} is corrupt: not an object")
        return payload

    def store_manifest_payload(self, fingerprint: str, payload: dict) -> bool:
        """Atomically persist a manifest document; ``False`` if unwritable.

        The same temp-file + rename discipline as cube entries and append
        logs: a crashed writer can never leave a torn manifest, and a
        torn manifest would be a loud routing failure (see
        :meth:`load_manifest_payload`) rather than a silent one.
        """
        path = self.manifest_path_for(fingerprint)
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=self._directory, suffix=f"{MANIFEST_SUFFIX}.tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(payload, tmp)
            os.replace(tmp_name, path)
            return True
        except OSError:
            # An unwritable cache directory degrades to an in-memory
            # lattice, exactly like an unpersistable cube store.
            return False

    # ------------------------------------------------------------------
    # Maintenance (``repro cache inspect`` / ``repro cache clear``)
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        """Metadata for every cube file in the directory (sorted by name).

        Lists each key's one file — the one :meth:`load` and
        :meth:`load_artifact` serve.  Only the JSON header member is read,
        so inspecting a multi-gigabyte cache is cheap.  Unreadable files
        and entries of the retired compressed format are listed as invalid.
        """
        rows: list[CacheEntry] = []
        if not self._directory.is_dir():
            return rows
        for path in sorted(self._cube_files()):
            try:
                size = path.stat().st_size
            except OSError:
                # Deleted by a concurrent clear()/eviction between the
                # glob and the stat — nothing left to report.
                continue
            try:
                header = read_artifact_header(path)
                key_fields = dict(header["key"])
                key_fields["explain_by"] = tuple(key_fields["explain_by"])
                rows.append(
                    CacheEntry(
                        path=path,
                        size_bytes=size,
                        valid=True,
                        key=CubeKey(**key_fields),
                        n_explanations=int(header["n_explanations"]),
                        n_times=int(header["n_times"]),
                    )
                )
            except FileNotFoundError:
                # Deleted by a concurrent clear()/eviction after the stat;
                # a vanished entry is not a corrupt one.
                continue
            except Exception:
                rows.append(CacheEntry(path=path, size_bytes=size, valid=False))
        return rows

    def clear(self) -> int:
        """Delete every cube file (retired-format ones too), append log,
        lattice manifest, and any orphaned temp file left by a crashed
        writer; returns the number of files removed."""
        removed = 0
        if not self._directory.is_dir():
            return removed
        for pattern in (
            f"*{CACHE_SUFFIX}",
            f"*{CACHE_SUFFIX}.tmp",
            f"*{LEGACY_SUFFIX}",
            f"*{LEGACY_SUFFIX}.tmp",
            f"*{LOG_SUFFIX}",
            f"*{LOG_SUFFIX}.tmp",
            f"*{MANIFEST_SUFFIX}",
            f"*{MANIFEST_SUFFIX}.tmp",
        ):
            for path in self._glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ----------------------------------------------------------------------
# Streaming replay: chained snapshot keys and the append log
# ----------------------------------------------------------------------
#: Filename suffix of append logs.
LOG_SUFFIX = ".append.json"

#: Version tag of the append-log JSON layout.
LOG_FORMAT = 1


def chain_fingerprint(previous: str, delta_fingerprint: str) -> str:
    """The pseudo-fingerprint of ``snapshot + delta``.

    Streaming snapshots key their cache entries by folding each delta's
    fingerprint into the previous snapshot's, so a per-update store/load
    hashes only the O(delta) new rows — never the whole relation.  The
    two components are length-framed before hashing, so no pair of
    (previous, delta) strings can collide by concatenation.
    """
    digest = hashlib.sha256()
    for part in (previous, delta_fingerprint):
        encoded = part.encode("utf-8")
        digest.update(len(encoded).to_bytes(8, "little"))
        digest.update(encoded)
    return f"chain-{digest.hexdigest()}"


def chained_key(base_key: CubeKey, fingerprint: str) -> CubeKey:
    """``base_key`` with its data component replaced by a chained one."""
    return replace(base_key, fingerprint=fingerprint)


class AppendLog:
    """The persisted delta history of one cached stream.

    One JSON file per ``(base relation, query parameters)`` pair, stored
    next to the cache entries: the base :class:`CubeKey` plus the ordered
    delta fingerprints appended so far.  A restarted stream opens the log,
    replays its own deltas against it, and — as long as they match —
    fast-forwards through cached snapshots without rebuilding or
    re-appending; the first mismatching delta truncates the log and the
    chain diverges onto fresh entries.
    """

    def __init__(self, directory: str | Path, base_key: CubeKey):
        self._path = (
            Path(directory).expanduser() / f"{base_key.digest()}{LOG_SUFFIX}"
        )
        self._base_key = base_key
        self._deltas: list[str] = []
        try:
            payload = json.loads(self._path.read_text(encoding="utf-8"))
            if (
                payload.get("format") == LOG_FORMAT
                and payload.get("base_key") == _key_dict(base_key)
            ):
                self._deltas = [str(fp) for fp in payload["deltas"]]
        except (OSError, ValueError, KeyError):
            # Missing or unreadable logs start empty; they are an
            # optimization record, never a correctness input.
            pass

    @property
    def path(self) -> Path:
        return self._path

    @property
    def base_key(self) -> CubeKey:
        return self._base_key

    @property
    def deltas(self) -> tuple[str, ...]:
        """Recorded delta fingerprints, oldest first."""
        return tuple(self._deltas)

    def align(self, position: int, delta_fingerprint: str) -> bool:
        """Record the ``position``-th delta; returns whether it matched.

        A match (the log already holds this fingerprint at this position)
        means the chained cache entry for the resulting snapshot may
        exist — the replay fast-forward case.  A mismatch truncates the
        recorded history from ``position`` on and persists the new
        fingerprint, diverging the chain.
        """
        if position < len(self._deltas) and self._deltas[position] == delta_fingerprint:
            return True
        del self._deltas[position:]
        self._deltas.append(delta_fingerprint)
        self._save()
        return False

    def fingerprint_at(self, position: int) -> str:
        """The chained fingerprint after ``position`` deltas (0 = base)."""
        fingerprint = self._base_key.fingerprint
        for delta in self._deltas[:position]:
            fingerprint = chain_fingerprint(fingerprint, delta)
        return fingerprint

    def _save(self) -> None:
        payload = {
            "format": LOG_FORMAT,
            "base_key": _key_dict(self._base_key),
            "deltas": self._deltas,
        }
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=self._path.parent, suffix=f"{LOG_SUFFIX}.tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(payload, tmp)
            os.replace(tmp_name, self._path)
        except OSError:
            # An unwritable cache directory degrades to an unlogged
            # stream, exactly like an unpersistable cube store.
            pass


def load_or_build(
    cache: RollupCache | None,
    relation: Relation,
    explain_by: Sequence[str],
    measure: str,
    aggregate: str | AggregateFunction = "sum",
    time_attr: str | None = None,
    max_order: int = 3,
    deduplicate: bool = True,
    columnar: bool = True,
) -> tuple[ExplanationCube, bool]:
    """Serve a cube from the cache, building and storing it on a miss.

    Returns ``(cube, cache_hit)``.  With ``cache=None`` this is a plain
    build (``cache_hit`` is ``False``); this is the one entry point the
    pipeline, the streaming engine and the ``repro cache build`` CLI all
    share.

    Two classes of query quietly bypass the cache rather than failing or
    mis-serving: custom :class:`AggregateFunction` instances that are not
    the registry's own (the key stores only the aggregate *name*, so an
    off-registry instance could collide with or shadow a registered one),
    and cubes whose labels/values are not JSON scalars (``store`` would
    reject them).  Both still build and return a correct cube — it just
    is not persisted.
    """
    if cache is not None and not isinstance(aggregate, str):
        try:
            registered = get_aggregate(aggregate.name)
        except AggregateError:
            registered = None
        if registered is not aggregate:
            cache = None
    key = None
    if cache is not None:
        key = cube_key(
            relation,
            measure,
            explain_by,
            aggregate=aggregate,
            time_attr=time_attr,
            max_order=max_order,
            deduplicate=deduplicate,
        )
        cached = cache.load(key)
        if cached is not None:
            return cached, True
    cube = ExplanationCube(
        relation,
        explain_by,
        measure,
        aggregate=aggregate,
        time_attr=time_attr,
        max_order=max_order,
        deduplicate=deduplicate,
        columnar=columnar,
    )
    if cache is not None and key is not None:
        try:
            cache.store(key, cube)
        except (TypeError, OSError):
            # Non-JSON labels/values (e.g. datetime objects) make the query
            # uncacheable; an unwritable/full cache directory makes it
            # unpersistable.  Either way the built cube is correct and a
            # cache problem is never a reason to fail the explain.
            pass
    return cube, False
