"""The one persisted cube format: an uncompressed, mmap-able npz file.

Every cube this package persists — rollup-cache entries
(:class:`~repro.cube.cache.RollupCache`), lattice rollups, chained
streaming snapshots and the serve tier's finalized artifacts — is this
one file per :class:`~repro.cube.cache.CubeKey`, written by
:func:`write_artifact`.  It is an **uncompressed** npz-style archive whose
members are contiguous byte ranges of the file, so a reader can open it
two ways:

* memory-mapped (:func:`open_artifact`, the serve-worker path): the
  series matrices are mapped member by member with the zip-offset
  ``np.memmap`` technique of :mod:`repro.store.npz_source`, so N workers
  on one machine share one page-cache copy instead of N private ones;
* revived appendable (``appendable=True``, the ingest and cache path):
  the delta-maintenance ledger is read into private arrays and the cube
  keeps absorbing appends.

One file holds everything either reader needs, without the relation:

* the four finalized series arrays (``overall``, ``supports``,
  ``included``, ``excluded``);
* the candidate metadata (labels, explanation conjunctions, key) as a
  JSON header encoded into a ``uint8`` member.  Deliberately **no
  pickle** — files are loaded with ``allow_pickle=False``, so a crafted
  file in a shared cache directory can corrupt at most itself, never run
  code in the reader.  JSON confines labels and values to
  str/int/float/bool/None; that is what relations produce, and anything
  else fails the write loudly (``TypeError``);
* the ledger states of an appendable cube (per-subset aggregate states,
  group counts/values, parent maps, the overall state).

Compression is deliberately not used: on cubes built from 58k–492k
source rows zlib saved 7–10% of the bytes of float-heavy cubes at a
23–41x slower write and an up to 3x slower appendable load (measured
table in ``docs/ARCHITECTURE.md``).

Files are written atomically (unique temp file + ``os.replace``) under
the key digest.  A missing, truncated or foreign file — including an
entry of the retired compressed ``.cube.npz`` format — reads as a miss
(``None``), never an error: the caller rebuilds and overwrites.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.cube.datacube import ExplanationCube
from repro.cube.delta import CubeAppendState, SubsetLedger
from repro.relation.aggregates import get_aggregate
from repro.relation.predicates import Conjunction
from repro.relation.schema import Attribute, AttributeKind, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.cube.cache import CubeKey

#: Bump when the layout changes; older files then read as misses.
ARTIFACT_FORMAT = 1

#: Sanity tag distinguishing cube files from other npz archives.
ARTIFACT_KIND = "repro.cube/artifact"

#: Filename suffix of cube files.
ARTIFACT_SUFFIX = ".cube.art.npz"

_SERIES = ("overall", "supports", "included", "excluded")


def artifact_path_for(directory: str | Path, key: "CubeKey") -> Path:
    """Where the cube file of ``key`` lives under ``directory``."""
    return Path(directory).expanduser() / f"{key.digest()}{ARTIFACT_SUFFIX}"


def write_artifact(
    directory: str | Path,
    key: "CubeKey",
    cube: ExplanationCube,
    rewrite: bool = True,
) -> Path:
    """Atomically persist a built cube under ``key``; returns the path.

    An appendable cube's ledger is stored alongside the series arrays, so
    the file revives appendable.  With ``rewrite=False`` a file whose JSON
    header already equals this cube's is left in place: the key carries
    the data fingerprint, so an equal header means the same cube was
    written before (a cold build that stored its cube once must not pay
    for a second, identical write).  Raises ``TypeError`` for non-JSON
    labels or values.
    """
    directory = Path(directory).expanduser()
    header_bytes, arrays = _payload(key, cube)
    path = artifact_path_for(directory, key)
    if not rewrite and _stored_header_bytes(path) == header_bytes:
        return path
    # Crash- and racer-safe: the payload lands in a unique temp file and
    # is published with one atomic rename, so a reader only ever sees a
    # complete file (or none).  A concurrent clear() removing the
    # directory between mkdir and rename surfaces as FileNotFoundError,
    # so retry the whole write before giving up; a removal in progress
    # (rmtree deletes files, then the directory) can span two attempts.
    # mkdir itself raises FileExistsError, despite exist_ok, when the
    # directory it found is removed before its is_dir() re-check.
    last_error: OSError | None = None
    for _ in range(3):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=directory, suffix=f"{ARTIFACT_SUFFIX}.tmp"
            )
        except (FileNotFoundError, FileExistsError) as error:
            last_error = error
            continue
        try:
            with os.fdopen(handle, "wb") as tmp:
                np.savez(
                    tmp,
                    header=np.frombuffer(header_bytes, dtype=np.uint8),
                    **arrays,
                )
            os.replace(tmp_name, path)
        except FileNotFoundError as error:
            last_error = error
            _unlink(tmp_name)
            continue
        except BaseException:
            _unlink(tmp_name)
            raise
        return path
    assert last_error is not None
    raise last_error


def open_artifact(
    directory: str | Path,
    key: "CubeKey",
    mmap: bool = True,
    appendable: bool | None = False,
) -> ExplanationCube | None:
    """The cube stored for ``key``, or ``None`` on miss/corruption.

    ``appendable=False`` (default) opens a *fixed* snapshot — the serve
    path: queries slice and score it, nothing appends — with the series
    arrays memory-mapped read-only unless ``mmap=False`` asks for private
    copies (tests, or filesystems where mapping misbehaves).
    ``appendable=True`` revives the ledger into private arrays and misses
    on a file stored without one; ``appendable=None`` revives when the
    file holds a ledger and opens it fixed otherwise (the rollup cache's
    load).
    """
    path = artifact_path_for(directory, key)
    try:
        with np.load(path, allow_pickle=False) as data:
            header = _read_header(data)
            if not _is_current(header) or header.get("key") != _key_dict(key):
                return None
            ledger = bool(header.get("appendable"))
            if appendable and not ledger:
                return None
            if ledger and appendable is not False:
                return ExplanationCube.from_append_state(
                    _load_append_state(header, data)
                )
            if not mmap:
                series = {name: np.asarray(data[name]) for name in _SERIES}
        if mmap:
            series = _mmap_series(path)
        return ExplanationCube.from_arrays(
            aggregate=get_aggregate(header["aggregate"]),
            measure=header["measure"],
            explain_by=tuple(header["explain_by"]),
            labels=tuple(header["labels"]),
            overall=series["overall"],
            explanations=tuple(
                Conjunction.from_items((name, value) for name, value in items)
                for items in header["explanations"]
            ),
            supports=series["supports"],
            included=series["included"],
            excluded=series["excluded"],
        )
    except FileNotFoundError:
        return None
    except Exception:
        # Unreadable files (truncated writes, foreign files, format
        # drift) are misses, not errors: the caller rebuilds and the next
        # write_artifact overwrites the bad file.
        return None


def read_artifact_header(path: str | Path) -> dict:
    """The JSON header of the cube file at ``path``; only that member is read.

    Raises ``ValueError`` for a file of another kind or format (the
    retired compressed cache entries included), and whatever ``np.load``
    raises for an unreadable one.
    """
    with np.load(path, allow_pickle=False) as data:
        header = _read_header(data)
    if not _is_current(header):
        raise ValueError(f"{path} is not a format-{ARTIFACT_FORMAT} cube file")
    return header


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
def _payload(key: "CubeKey", cube: ExplanationCube) -> tuple[bytes, dict[str, np.ndarray]]:
    """The encoded JSON header and the array members of one cube file."""
    header: dict = {
        "format": ARTIFACT_FORMAT,
        "kind": ARTIFACT_KIND,
        "key": _key_dict(key),
        "aggregate": cube.aggregate.name,
        "measure": cube.measure,
        "explain_by": list(cube.explain_by),
        "labels": list(cube.labels),
        "explanations": [
            [[name, value] for name, value in conj.items]
            for conj in cube.explanations
        ],
        "n_explanations": cube.n_explanations,
        "n_times": cube.n_times,
    }
    arrays: dict[str, np.ndarray] = {
        "overall": np.ascontiguousarray(cube.overall_values, dtype=np.float64),
        "supports": np.ascontiguousarray(cube.supports, dtype=np.int64),
        "included": np.ascontiguousarray(cube.included_values, dtype=np.float64),
        "excluded": np.ascontiguousarray(cube.excluded_values, dtype=np.float64),
    }
    state = cube.append_state
    if state is not None:
        n = state.n_times
        header["appendable"] = True
        header["state"] = {
            "time_attr": state.time_attr,
            "max_order": state.max_order,
            "deduplicate": state.deduplicate,
            "schema": [
                [attribute.name, attribute.kind.value] for attribute in state.schema
            ],
            "subsets": [list(ledger.attrs) for ledger in state.ledgers],
            "values": [
                [[_python_value(value) for value in column] for column in ledger.values]
                for ledger in state.ledgers
            ],
        }
        arrays["overall_state"] = state.overall[:, :n]
        for i, ledger in enumerate(state.ledgers):
            arrays[f"state{i}"] = ledger.state[:, :, :n]
            arrays[f"counts{i}"] = ledger.counts
            arrays[f"parents{i}"] = (
                np.stack(ledger.parents)
                if ledger.parents
                else np.empty((0, ledger.n_slots), dtype=np.intp)
            )
    return json.dumps(header, allow_nan=True).encode("utf-8"), arrays


def _stored_header_bytes(path: Path) -> bytes | None:
    """The raw header member of the file at ``path``, ``None`` if unreadable."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return data["header"].tobytes()
    except Exception:
        return None


def _mmap_series(path: Path) -> dict[str, np.ndarray]:
    """The series members mapped in place, or read privately where a
    member cannot be mapped."""
    from repro.store.npz_source import _mmap_member

    series: dict[str, np.ndarray] = {}
    for name in _SERIES:
        try:
            series[name] = _mmap_member(path, name)
        except (ValueError, KeyError, OSError):
            with np.load(path, allow_pickle=False) as data:
                series[name] = np.asarray(data[name])
    return series


def _read_header(data: "np.lib.npyio.NpzFile") -> dict:
    """Decode the JSON header member of a cube file."""
    return json.loads(bytes(data["header"].tobytes()).decode("utf-8"))


def _is_current(header: dict) -> bool:
    return header.get("kind") == ARTIFACT_KIND and header.get("format") == ARTIFACT_FORMAT


def _key_dict(key: "CubeKey") -> dict:
    """JSON-shaped rendering of a key (tuples become lists)."""
    rendered = asdict(key)
    rendered["explain_by"] = list(rendered["explain_by"])
    return rendered


def _python_value(value: object) -> object:
    return value.item() if hasattr(value, "item") else value


def _load_append_state(header: dict, data: "np.lib.npyio.NpzFile") -> CubeAppendState:
    """Reconstruct a cube's delta ledger from a cube file."""
    meta = header["state"]
    schema = Schema(
        Attribute(name, AttributeKind(kind)) for name, kind in meta["schema"]
    )
    ledgers = []
    for i, (attrs, values) in enumerate(zip(meta["subsets"], meta["values"])):
        parents = np.asarray(data[f"parents{i}"], dtype=np.intp)
        ledgers.append(
            SubsetLedger(
                attrs=tuple(attrs),
                state=np.asarray(data[f"state{i}"], dtype=np.float64),
                counts=np.asarray(data[f"counts{i}"], dtype=np.int64),
                values=values,
                parents=[parents[d] for d in range(parents.shape[0])],
                redundant=np.zeros(len(values[0]) if values else 0, dtype=bool),
            )
        )
    state = CubeAppendState(
        schema=schema,
        measure=header["measure"],
        explain_by=tuple(header["explain_by"]),
        time_attr=meta["time_attr"],
        max_order=int(meta["max_order"]),
        deduplicate=bool(meta["deduplicate"]),
        aggregate=get_aggregate(header["aggregate"]),
        labels=header["labels"],
        overall=np.asarray(data["overall_state"], dtype=np.float64),
        ledgers=ledgers,
    )
    # Redundancy is derived, not stored: replay the dedup rule over the
    # loaded counts/parent maps.
    state._recompute_redundancy()
    return state


def _unlink(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass
