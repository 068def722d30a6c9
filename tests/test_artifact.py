"""Tests for the mmap-able finalized-cube artifact (repro.cube.artifact)."""

import numpy as np
import pytest

from repro.cube.artifact import (
    ARTIFACT_SUFFIX,
    artifact_path_for,
    open_artifact,
    write_artifact,
)
from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from tests.conftest import regime_relation, two_attr_relation


@pytest.fixture
def cube():
    relation = two_attr_relation()
    return ExplanationCube(relation, ["a", "b"], "m"), relation


def _arrays_identical(left: ExplanationCube, right: ExplanationCube) -> bool:
    return (
        left.explanations == right.explanations
        and left.labels == right.labels
        and left.explain_by == right.explain_by
        and left.aggregate.name == right.aggregate.name
        and left.measure == right.measure
        and left.supports.tobytes() == right.supports.tobytes()
        and left.overall_values.tobytes() == right.overall_values.tobytes()
        and left.included_values.tobytes() == right.included_values.tobytes()
        and left.excluded_values.tobytes() == right.excluded_values.tobytes()
    )


def test_round_trip_is_byte_identical(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    path = write_artifact(tmp_path, key, built)
    assert path == artifact_path_for(tmp_path, key)
    assert path.name.endswith(ARTIFACT_SUFFIX)
    reopened = open_artifact(tmp_path, key)
    assert reopened is not None
    assert _arrays_identical(built, reopened)


def test_open_memory_maps_the_series(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    write_artifact(tmp_path, key, built)
    reopened = open_artifact(tmp_path, key)
    # The whole point of the artifact: N processes opening it share one
    # page-cache copy instead of N private heap copies.
    assert isinstance(reopened.included_values, np.memmap)
    assert isinstance(reopened.excluded_values, np.memmap)


def test_open_without_mmap_returns_private_arrays(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    write_artifact(tmp_path, key, built)
    reopened = open_artifact(tmp_path, key, mmap=False)
    assert not isinstance(reopened.included_values, np.memmap)
    assert _arrays_identical(built, reopened)


def test_missing_and_wrong_key_are_misses(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    assert open_artifact(tmp_path, key) is None
    write_artifact(tmp_path, key, built)
    other = cube_key(relation, "m", ["a"])
    assert open_artifact(tmp_path, other) is None


def test_corrupted_artifact_is_a_miss(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    path = write_artifact(tmp_path, key, built)
    path.write_bytes(b"\x00" * 64)
    assert open_artifact(tmp_path, key) is None


def test_appendable_revival_matches_rebuild(tmp_path):
    base = regime_relation(n=24)  # 3 rows per time point, ordered by time
    head = base.head(16 * 3)
    tail = base.take(np.arange(base.n_rows) >= 16 * 3)
    streaming = ExplanationCube(head, ["cat"], "sales", appendable=True)
    key = cube_key(head, "sales", ["cat"])
    write_artifact(tmp_path, key, streaming)

    revived = open_artifact(tmp_path, key, appendable=True)
    assert revived is not None and revived.appendable
    revived.append(tail)
    full = ExplanationCube(base, ["cat"], "sales")
    assert revived.included_values.tobytes() == full.included_values.tobytes()
    assert revived.excluded_values.tobytes() == full.excluded_values.tobytes()

    # A finalized (non-appendable) open of the same artifact still works.
    finalized = open_artifact(tmp_path, key)
    assert finalized is not None and not finalized.appendable


def test_finalized_artifact_has_no_appendable_state(tmp_path):
    relation = two_attr_relation()
    built = ExplanationCube(relation, ["a", "b"], "m", appendable=False)
    key = cube_key(relation, "m", ["a", "b"])
    write_artifact(tmp_path, key, built)
    assert open_artifact(tmp_path, key, appendable=True) is None
    assert open_artifact(tmp_path, key) is not None


def test_write_leaves_no_temp_files(tmp_path, cube):
    built, relation = cube
    key = cube_key(relation, "m", ["a", "b"])
    write_artifact(tmp_path, key, built)
    write_artifact(tmp_path, key, built)  # overwrite is atomic too
    leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
    assert open_artifact(tmp_path, key) is not None


def test_cache_delegation_and_clear(tmp_path, cube):
    built, relation = cube
    cache = RollupCache(tmp_path / "rollups")
    key = cube_key(relation, "m", ["a", "b"])
    assert cache.load_artifact(key) is None
    cache.store_artifact(key, built)
    assert cache.artifact_path_for(key).exists()
    reopened = cache.load_artifact(key)
    assert reopened is not None
    assert _arrays_identical(built, reopened)
    # The artifact *is* the cache entry: one file per key...
    cache.store(key, built)
    assert [entry.path for entry in cache.entries()] == [cache.artifact_path_for(key)]
    # ...which clear() sweeps.
    cache.clear()
    assert cache.load_artifact(key) is None
    assert cache.entries() == []
