"""Tests for the persistent rollup cache (repro.cube.cache)."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.pipeline import ExplainPipeline
from repro.cube.cache import (
    CACHE_SUFFIX,
    LEGACY_SUFFIX,
    RollupCache,
    cube_key,
    load_or_build,
)
from repro.cube.datacube import ExplanationCube
from repro.exceptions import ConfigError
from repro.relation.schema import AttributeKind
from tests.conftest import regime_relation, two_attr_relation


@pytest.fixture
def cache(tmp_path):
    return RollupCache(tmp_path / "rollups")


def _cubes_equal(left: ExplanationCube, right: ExplanationCube) -> bool:
    return (
        left.explanations == right.explanations
        and left.labels == right.labels
        and left.explain_by == right.explain_by
        and left.aggregate.name == right.aggregate.name
        and left.measure == right.measure
        and np.array_equal(left.supports, right.supports)
        and np.array_equal(left.overall_values, right.overall_values)
        and np.array_equal(left.included_values, right.included_values)
        and np.array_equal(left.excluded_values, right.excluded_values)
    )


# ----------------------------------------------------------------------
# Relation fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_instances():
    assert regime_relation().fingerprint() == regime_relation().fingerprint()


def test_fingerprint_changes_with_data():
    base = regime_relation()
    changed = regime_relation(n=24, switch=11)
    assert base.fingerprint() != changed.fingerprint()


def test_fingerprint_changes_with_extra_rows():
    base = regime_relation()
    grown = base.concat(base.head(1))
    assert base.fingerprint() != grown.fingerprint()


# ----------------------------------------------------------------------
# Load / store round trip
# ----------------------------------------------------------------------
def test_store_then_load_round_trips(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store(key, cube)
    assert path.exists()
    loaded = cache.load(key)
    assert loaded is not None
    assert _cubes_equal(cube, loaded)


def test_miss_on_empty_cache(cache):
    key = cube_key(regime_relation(), "sales", ["cat"])
    assert cache.load(key) is None


def test_miss_after_relation_change(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    changed = regime_relation(n=24, switch=10)
    assert cache.load(cube_key(changed, "sales", ["cat"])) is None


def test_miss_on_different_parameters(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    cache.store(cube_key(relation, "m", ["a", "b"]), cube)
    assert cache.load(cube_key(relation, "m", ["a"])) is None
    assert cache.load(cube_key(relation, "m", ["a", "b"], max_order=1)) is None
    assert cache.load(cube_key(relation, "m", ["a", "b"], aggregate="avg")) is None


def test_explain_by_order_does_not_split_cache(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    cache.store(cube_key(relation, "m", ["a", "b"]), cube)
    assert cache.load(cube_key(relation, "m", ["b", "a"])) is not None


def test_corrupted_entry_is_a_miss_and_rebuilds(cache):
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    cube, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    path = cache.path_for(key)
    path.write_bytes(b"this is not a pickle")
    assert cache.load(key) is None
    rebuilt, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    assert _cubes_equal(cube, rebuilt)
    # The rebuild overwrote the poisoned entry, so the next call hits.
    _, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert hit


def test_entries_and_clear(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    (cache.directory / f"junk{CACHE_SUFFIX}").write_bytes(b"garbage")
    entries = cache.entries()
    assert len(entries) == 2
    valid = [entry for entry in entries if entry.valid]
    corrupt = [entry for entry in entries if not entry.valid]
    assert len(valid) == 1 and len(corrupt) == 1
    assert valid[0].n_explanations == cube.n_explanations
    assert valid[0].n_times == cube.n_times
    assert "CORRUPT" in corrupt[0].row()
    assert cache.clear() == 2
    assert cache.entries() == []


# ----------------------------------------------------------------------
# Pipeline / facade integration
# ----------------------------------------------------------------------
def test_pipeline_cache_hit_second_run(tmp_path):
    relation = regime_relation()
    config = ExplainConfig(cache_dir=str(tmp_path))
    first = ExplainPipeline(relation, "sales", ("cat",), config=config)
    first.prepare()
    assert first.cache_hit is False
    second = ExplainPipeline(relation, "sales", ("cat",), config=config)
    second.prepare()
    assert second.cache_hit is True


def test_pipeline_without_cache_reports_none():
    pipeline = ExplainPipeline(regime_relation(), "sales", ("cat",))
    pipeline.prepare()
    assert pipeline.cache_hit is None


def test_cached_and_fresh_results_identical(tmp_path):
    relation = two_attr_relation()
    fresh = TSExplain(relation, "m", ["a", "b"], k=2).explain()
    cold = TSExplain(relation, "m", ["a", "b"], k=2, cache_dir=str(tmp_path)).explain()
    warm = TSExplain(relation, "m", ["a", "b"], k=2, cache_dir=str(tmp_path)).explain()
    for result in (cold, warm):
        assert result.boundaries == fresh.boundaries
        for ours, theirs in zip(result.segments, fresh.segments):
            assert ours.explanations == theirs.explanations
            assert ours.variance == theirs.variance


def test_cached_cube_serves_other_configs(tmp_path):
    """Smoothing/filter/metric are outside the key: one entry, many configs."""
    relation = regime_relation()
    base = ExplainConfig(cache_dir=str(tmp_path))
    ExplainPipeline(relation, "sales", ("cat",), config=base).prepare()
    smoothed = ExplainPipeline(
        relation,
        "sales",
        ("cat",),
        config=base.updated(smoothing_window=3, use_filter=False),
    )
    smoothed.prepare()
    assert smoothed.cache_hit is True


def test_config_rejects_blank_cache_dir():
    with pytest.raises(ConfigError):
        ExplainConfig(cache_dir="   ")


def test_measure_rename_invalidates():
    """Same cell bytes under a renamed measure must not share an entry."""
    relation = regime_relation()
    renamed = relation.project(["t", "cat", "sales"])
    assert relation.fingerprint() == renamed.fingerprint()
    other = (
        relation.project(["t", "cat"])
        .with_column("volume", relation.column("sales"), AttributeKind.MEASURE)
    )
    assert relation.fingerprint() != other.fingerprint()


def test_cache_dir_tilde_is_expanded(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = RollupCache("~/rollups")
    assert cache.directory == tmp_path / "rollups"
    # Read-only operations neither require nor create the directory...
    assert cache.entries() == [] and cache.clear() == 0
    assert not cache.directory.exists()
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    assert cache.load(key) is None
    assert not cache.directory.exists()
    # ...the first store creates it.
    cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
    assert cache.directory.is_dir()
    assert cache.load(key) is not None


def test_clear_removes_orphaned_temp_files(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    # A writer killed between mkstemp and os.replace leaves a .tmp file.
    (cache.directory / f"orphan{CACHE_SUFFIX}.tmp").write_bytes(b"partial")
    assert cache.clear() == 2
    assert list(cache.directory.iterdir()) == []


def test_entries_do_not_load_series_arrays(cache, monkeypatch):
    """inspect must stay metadata-only: loading a series array is a bug."""
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    import numpy.lib.npyio as npyio

    original = npyio.NpzFile.__getitem__

    def guarded(self, name):
        assert name == "header", f"entries() touched array member {name!r}"
        return original(self, name)

    monkeypatch.setattr(npyio.NpzFile, "__getitem__", guarded)
    entries = cache.entries()
    assert len(entries) == 1 and entries[0].valid


def test_store_rejects_non_json_values(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    weird = ExplanationCube.from_arrays(
        aggregate=cube.aggregate,
        measure=cube.measure,
        explain_by=cube.explain_by,
        labels=tuple(str(label).encode() for label in cube.labels),  # bytes: not JSON
        overall=cube.overall_values,
        explanations=cube.explanations,
        supports=cube.supports,
        included=cube.included_values,
        excluded=cube.excluded_values,
    )
    with pytest.raises(TypeError):
        cache.store(cube_key(relation, "sales", ["cat"]), weird)


def test_non_json_labels_degrade_to_uncached(cache):
    """datetime-style labels must not crash a cache-enabled explain."""
    import datetime

    from repro.relation.schema import Schema
    from repro.relation.table import Relation

    days = [datetime.date(2024, 1, d + 1) for d in range(6)]
    columns = {
        "t": np.asarray([d for d in days for _ in ("a", "b")], dtype=object),
        "cat": np.asarray(["a", "b"] * len(days), dtype=object),
        "sales": np.asarray(
            [float(i) for i, _ in enumerate(days) for _ in ("a", "b")]
        ),
    }
    schema = Schema.build(dimensions=["cat"], measures=["sales"], time="t")
    relation = Relation(columns, schema)
    cube, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    assert cube.labels == tuple(days)
    assert cache.entries() == []  # nothing persisted, nothing crashed
    # And a second call is still a (correct) miss, never a crash.
    again, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert not hit and _cubes_equal(cube, again)


def test_custom_aggregate_bypasses_cache(cache):
    from repro.relation.aggregates import Sum

    class TrimmedSum(Sum):
        name = "sum"  # deliberately shadows the registry name

    relation = regime_relation()
    cube, hit = load_or_build(cache, relation, ["cat"], "sales", aggregate=TrimmedSum())
    assert not hit
    assert cache.entries() == []  # never stored under the shadowed name
    # A genuine registry aggregate still caches normally afterwards.
    load_or_build(cache, relation, ["cat"], "sales", aggregate="sum")
    _, hit = load_or_build(cache, relation, ["cat"], "sales", aggregate="sum")
    assert hit


def test_fingerprint_distinguishes_cell_types():
    from tests.conftest import build_relation

    as_str = build_relation(
        {"t": ["t0", "t1"], "cat": np.asarray(["1", "2"], dtype=object), "m": [1.0, 2.0]},
        dimensions=["cat"], measures=["m"], time="t",
    )
    as_int = build_relation(
        {"t": ["t0", "t1"], "cat": np.asarray([1, 2], dtype=object), "m": [1.0, 2.0]},
        dimensions=["cat"], measures=["m"], time="t",
    )
    assert as_str.fingerprint() != as_int.fingerprint()


def test_max_entries_evicts_oldest(tmp_path):
    import os

    cache = RollupCache(tmp_path, max_entries=2)
    paths = []
    for switch in (8, 10, 12):
        relation = regime_relation(switch=switch)
        cube = ExplanationCube(relation, ["cat"], "sales")
        key = cube_key(relation, "sales", ["cat"])
        path = cache.store(key, cube)
        paths.append(path)
        os.utime(path, (switch, switch))  # deterministic ordering
    assert not paths[0].exists()  # oldest evicted
    assert paths[1].exists() and paths[2].exists()
    assert len(cache.entries()) == 2


def _write_legacy_entry(cache: RollupCache, key, cube: ExplanationCube):
    """An entry as the retired compressed (format-2) writer left it."""
    import json
    from dataclasses import asdict

    header = dict(
        format=2,
        key={**asdict(key), "explain_by": list(key.explain_by)},
        aggregate=cube.aggregate.name,
        measure=cube.measure,
        explain_by=list(cube.explain_by),
        labels=list(cube.labels),
        explanations=[[list(item) for item in conj.items] for conj in cube.explanations],
        n_explanations=cube.n_explanations,
        n_times=cube.n_times,
    )
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.directory / f"{key.digest()}{LEGACY_SUFFIX}"
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        overall=cube.overall_values,
        supports=cube.supports,
        included=cube.included_values,
        excluded=cube.excluded_values,
    )
    return path


def test_max_entries_bounds_every_cube_file(tmp_path):
    """Eviction counts artifacts and retired entries, not one suffix."""
    import os

    cache = RollupCache(tmp_path, max_entries=2)
    relation = regime_relation(switch=6)
    legacy = _write_legacy_entry(
        cache, cube_key(relation, "sales", ["cat"]), ExplanationCube(relation, ["cat"], "sales")
    )
    os.utime(legacy, (1, 1))
    for index, switch in enumerate((8, 10, 12)):
        relation = regime_relation(switch=switch)
        key = cube_key(relation, "sales", ["cat"])
        cube = ExplanationCube(relation, ["cat"], "sales")
        store = cache.store_artifact if index % 2 else cache.store
        os.utime(store(key, cube), (index + 2, index + 2))
    survivors = sorted(p.name for p in tmp_path.iterdir())
    assert len(survivors) == 2 and not legacy.exists()
    assert [entry.valid for entry in cache.entries()] == [True, True]


def test_entries_list_the_file_that_serves(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store_artifact(key, ExplanationCube(relation, ["a", "b"], "m"))
    entries = cache.entries()
    assert [(entry.path, entry.valid, entry.key) for entry in entries] == [(path, True, key)]
    assert cache.load_artifact(key) is not None and cache.load(key) is not None


def test_legacy_compressed_entry_is_a_miss_invalid_and_cleared(cache):
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    cube = ExplanationCube(relation, ["cat"], "sales")
    legacy = _write_legacy_entry(cache, key, cube)
    assert cache.load(key) is None and cache.load_artifact(key) is None
    assert [(entry.path, entry.valid) for entry in cache.entries()] == [(legacy, False)]
    # The next cold build stores the current format next to it...
    _, hit = load_or_build(cache, relation, ["cat"], "sales")
    assert not hit and cache.load(key) is not None
    assert sorted(entry.valid for entry in cache.entries()) == [False, True]
    # ...and clear() sweeps both.
    assert cache.clear() == 2
    assert not cache.directory.exists() or list(cache.directory.iterdir()) == []


def test_corrupt_file_is_replaced_by_the_next_cold_build(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    cube = ExplanationCube(relation, ["a", "b"], "m")
    for store in (cache.store, cache.store_artifact):
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(b"garbage")
        assert cache.load(key) is None and cache.load_artifact(key) is None
        assert store(key, cube) == cache.path_for(key)
        assert _cubes_equal(cache.load_artifact(key), cube)


def test_store_artifact_skips_only_an_identical_file(cache, monkeypatch):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    writes = []
    savez = np.savez
    monkeypatch.setattr(np, "savez", lambda file, **arrays: writes.append(1) or savez(file, **arrays))
    appendable = ExplanationCube(relation, ["a", "b"], "m")
    cache.store(key, appendable)
    cache.store_artifact(key, appendable)
    assert len(writes) == 1
    # A different cube under the same key (here: without its ledger) is
    # not the file on disk, so it is written.
    fixed = ExplanationCube(relation, ["a", "b"], "m", appendable=False)
    cache.store_artifact(key, fixed)
    assert len(writes) == 2
    assert not cache.load(key).appendable


def test_fingerprint_framing_resists_separator_injection():
    """Cell contents containing framing bytes must not collide."""
    from tests.conftest import build_relation

    def rel(values):
        return build_relation(
            {"t": ["t0", "t1"], "cat": np.asarray(values, dtype=object), "m": [1.0, 2.0]},
            dimensions=["cat"], measures=["m"], time="t",
        )

    left = rel(["a\x1fstr\x1eb", "c"])
    right = rel(["a", "b\x1fstr\x1ec"])
    assert left.fingerprint() != right.fingerprint()
    shifted = rel(["ab", "c"])
    also_shifted = rel(["a", "bc"])
    assert shifted.fingerprint() != also_shifted.fingerprint()


def test_eviction_spares_recently_loaded_entries(tmp_path):
    """Eviction is LRU: a hit refreshes the entry, store order alone does not."""
    import os

    cache = RollupCache(tmp_path, max_entries=2)
    keys = []
    for index, switch in enumerate((8, 10)):
        relation = regime_relation(switch=switch)
        key = cube_key(relation, "sales", ["cat"])
        path = cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
        os.utime(path, (index + 1, index + 1))
        keys.append(key)
    assert cache.load(keys[0]) is not None  # refreshes mtime of the older entry
    relation = regime_relation(switch=12)
    cache.store(cube_key(relation, "sales", ["cat"]),
                ExplanationCube(relation, ["cat"], "sales"))
    assert cache.load(keys[0]) is not None  # hot entry survived
    assert cache.load(keys[1]) is None      # cold entry was evicted


def test_fingerprint_handles_bytes_columns():
    """S-dtype columns hash raw bytes: no decode crash, no str collision."""
    from tests.conftest import build_relation

    def rel(values):
        return build_relation(
            {"t": ["t0", "t1"], "cat": np.asarray(values), "m": [1.0, 2.0]},
            dimensions=["cat"], measures=["m"], time="t",
        )

    non_ascii = rel([b"caf\xc3\xa9", b"x"])
    assert non_ascii.fingerprint() == rel([b"caf\xc3\xa9", b"x"]).fingerprint()
    assert rel([b"ab", b"c"]).fingerprint() != rel(["ab", "c"]).fingerprint()


def test_unwritable_cache_dir_degrades_to_uncached(tmp_path):
    import os
    import sys

    if os.geteuid() == 0:  # root bypasses permission bits
        pytest.skip("permission test requires a non-root uid")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    try:
        cache = RollupCache(locked)
        relation = regime_relation()
        cube, hit = load_or_build(cache, relation, ["cat"], "sales")
        assert not hit and cube.n_explanations > 0
    finally:
        locked.chmod(0o700)


# ----------------------------------------------------------------------
# Cross-process racers: store/load/clear from two processes at once
# ----------------------------------------------------------------------
_RACER_SCRIPT = """
import sys, shutil, traceback
sys.path.insert(0, {src!r})
from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.relation.schema import Schema
from repro.relation.table import Relation

directory = {directory!r}
role = {role!r}

def relation(shift):
    rows = {{"t": [], "cat": [], "m": []}}
    for t in range(6):
        for cat in ("a", "b"):
            rows["t"].append(f"t{{t}}")
            rows["cat"].append(cat)
            rows["m"].append(float(t * 2 + shift + (1 if cat == "a" else 0)))
    schema = Schema.build(dimensions=["cat"], measures=["m"], time="t")
    return Relation(rows, schema)

try:
    cache = RollupCache(directory, max_entries=2)
    pairs = []
    for shift in range(3):
        rel = relation(shift)
        pairs.append(
            (cube_key(rel, "m", ["cat"]), ExplanationCube(rel, ["cat"], "m"))
        )
    for round_ in range(40):
        key, cube = pairs[round_ % len(pairs)]
        cache.store(key, cube)  # also exercises LRU eviction (max_entries=2)
        loaded = cache.load(key)
        # A racer may clear between store and load; both outcomes are
        # legal, but a loaded cube must be complete and correct.
        if loaded is not None:
            assert loaded.explanations == cube.explanations
            assert loaded.included_values.tobytes() == cube.included_values.tobytes()
        cache.entries()
        if role == "destroyer" and round_ % 5 == 4:
            cache.clear()
        if role == "destroyer" and round_ % 11 == 10:
            # Harsher than clear(): remove the directory itself, which
            # store() must survive by re-creating it and retrying.
            shutil.rmtree(directory, ignore_errors=True)
except Exception:
    traceback.print_exc()
    sys.exit(1)
sys.exit(0)
"""


def test_two_process_store_clear_race(tmp_path):
    """Two processes hammering store/load/clear/rmtree never corrupt or crash.

    Regression test for the cross-process hardening: stores are atomic
    (temp file + rename) and retry when a concurrent clear() — or an
    outright directory removal — yanks the cache out from under them;
    loads and entries() treat vanished files as misses, never as errors.
    """
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    directory = str(tmp_path / "shared-cache")
    processes = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                _RACER_SCRIPT.format(src=src, directory=directory, role=role),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for role in ("storer", "destroyer")
    ]
    outputs = [process.communicate(timeout=120) for process in processes]
    for process, (out, err) in zip(processes, outputs):
        assert process.returncode == 0, f"racer failed:\n{out}\n{err}"
    # The cache is still fully usable afterwards.
    cache = RollupCache(directory)
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
    assert cache.load(key) is not None
