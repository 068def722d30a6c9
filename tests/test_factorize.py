"""Property tests: the prepare tier's factorize-once kernels against the
slow references that stay in the tree.

* :func:`repro.relation.table.factorize` against
  ``np.unique(..., return_inverse=True)``;
* the memoized :func:`repro.cube.explanations._group_rows` against
  :func:`~repro.cube.explanations.group_rows_reference`, the per-subset
  ``np.unique`` version;
* ``enumerate_candidates``, cube builds and chunked appends
  (``CubeAppendState.apply_delta``) against the same runs with every
  factorization and grouping swapped for those references.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube import delta as delta_module
from repro.cube import explanations as explanations_module
from repro.cube.datacube import ExplanationCube
from repro.cube.explanations import _group_rows, enumerate_candidates, group_rows_reference
from repro.relation import table as table_module
from repro.relation.csvio import write_csv
from repro.relation.predicates import Conjunction
from repro.relation.table import factorize
from repro.store import resolve_source
from repro.store.ingest import load_or_build_from_source
from tests.conftest import build_relation


def _unique_reference(column):
    uniques, codes = np.unique(np.asarray(column), return_inverse=True)
    return uniques, codes.reshape(-1).astype(np.intp)


def _assert_same_factorization(column) -> None:
    uniques, codes = factorize(column)
    ref_uniques, ref_codes = _unique_reference(column)
    assert uniques.dtype == ref_uniques.dtype
    assert [(type(v), v) for v in uniques.tolist()] == [
        (type(v), v) for v in ref_uniques.tolist()
    ]
    assert codes.dtype == np.intp
    assert codes.tobytes() == ref_codes.tobytes()


def _objects(values) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


# ----------------------------------------------------------------------
# factorize
# ----------------------------------------------------------------------
SCALARS = {
    "str": st.text(alphabet="abcxyz_-é", max_size=3),
    "int": st.integers(-4, 4) | st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False, width=64).map(lambda x: 0.0 if x == 0 else x),
    "bool": st.booleans(),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(SCALARS)))
def test_factorize_matches_unique_on_object_columns(data, kind):
    values = data.draw(st.lists(SCALARS[kind], max_size=40), label="values")
    _assert_same_factorization(_objects(values))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_factorize_matches_unique_on_fixed_width_columns(data):
    n = data.draw(st.integers(0, 30), label="n")
    kind = data.draw(st.sampled_from(["int64", "float64", "U"]), label="dtype")
    if kind == "int64":
        column = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    elif kind == "float64":
        column = np.asarray(
            data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)),
            dtype=np.float64,
        )
    else:
        column = np.asarray(
            data.draw(st.lists(st.text(alphabet="ab", max_size=2), min_size=n, max_size=n)),
            dtype="U2",
        )
    _assert_same_factorization(column)


@pytest.mark.parametrize(
    "column",
    [
        _objects([]),
        np.asarray([], dtype=np.int64),
        np.asarray([], dtype="U1"),
        _objects(["only"]),
        _objects(["same"] * 5),
        np.asarray([7] * 4),
        np.asarray([2.5]),
        _objects([1.0, float("nan"), 1.0, float("nan")]),
    ],
    ids=["empty-object", "empty-int", "empty-str", "one", "constant", "constant-int",
         "one-float", "object-nan"],
)
def test_factorize_edge_columns(column):
    if column.dtype == object and any(v != v for v in column.tolist()):
        # NaN objects are not ordered by <; the fallback is np.unique itself.
        uniques, codes = factorize(column)
        ref_uniques, ref_codes = _unique_reference(column)
        assert codes.tobytes() == ref_codes.tobytes()
        assert len(uniques) == len(ref_uniques)
        return
    _assert_same_factorization(column)


def test_factorize_rejects_unorderable_columns_like_unique():
    column = _objects(["a", 1, "b"])
    with pytest.raises(TypeError):
        np.unique(column)
    with pytest.raises(TypeError):
        factorize(column)


def test_time_positions_are_factorize_ranks():
    relation = build_relation(
        {"t": _objects(["d2", "d0", "d1", "d0"]), "c": _objects(list("xyxy")), "m": [1.0] * 4},
        dimensions=["c"], measures=["m"], time="t",
    )
    positions, labels = relation.time_positions()
    assert labels == ("d0", "d1", "d2")
    assert positions.tolist() == [2, 0, 1, 0]


# ----------------------------------------------------------------------
# Grouping and everything built on it
# ----------------------------------------------------------------------
DIMENSION_VALUES = {
    "str": st.sampled_from(["a", "b", "c", "dd", "e"]),
    "int": st.integers(0, 5),
    "bool": st.booleans(),
    "float": st.sampled_from([-1.5, 0.0, 2.25, 1e9]),
}


@st.composite
def relations(draw, min_rows: int = 1, max_rows: int = 40):
    """Time-ordered relations of 1-3 object dimensions of mixed kinds."""
    n_dims = draw(st.integers(1, 3), label="n_dims")
    kinds = draw(
        st.lists(st.sampled_from(sorted(DIMENSION_VALUES)), min_size=n_dims, max_size=n_dims),
        label="kinds",
    )
    n = draw(st.integers(min_rows, max_rows), label="rows")
    times = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n), label="times"))
    columns = {"t": _objects([f"d{t}" for t in times])}
    names = []
    for index, kind in enumerate(kinds):
        name = f"x{index}"
        names.append(name)
        columns[name] = _objects(
            draw(st.lists(DIMENSION_VALUES[kind], min_size=n, max_size=n), label=name)
        )
    columns["m"] = np.asarray(
        draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n), label="m"), dtype=np.float64
    )
    return build_relation(columns, dimensions=names, measures=["m"], time="t")


def _reference_grouping() -> ExitStack:
    """Swap every factorization and grouping for the per-subset references."""

    def group_rows(relation, subset, memo=None):
        return group_rows_reference(relation, subset)

    stack = ExitStack()
    for module in (explanations_module, delta_module):
        stack.enter_context(mock.patch.object(module, "_group_rows", group_rows))
    for module in (table_module, delta_module):
        stack.enter_context(mock.patch.object(module, "factorize", _unique_reference))
    return stack


def _candidate_bytes(candidates) -> tuple:
    return (
        candidates.explanations,
        candidates.supports.tobytes(),
        tuple(ids.tobytes() for ids in candidates.row_groups),
        candidates.subset_index,
        candidates.subsets,
        candidates.local_ids,
        tuple(counts.tobytes() for counts in candidates.group_counts),
        tuple(
            tuple([(type(v), v) for v in column.tolist()] for column in values)
            for values in candidates.group_values
        ),
        tuple(mask.tobytes() for mask in candidates.redundant),
        tuple(tuple(p.tobytes() for p in parents) for parents in candidates.parent_groups),
    )


def _cube_bytes(cube: ExplanationCube) -> tuple:
    state = cube.append_state
    ledgers = ()
    if state is not None:
        n = state.n_times
        ledgers = tuple(
            (
                ledger.attrs,
                ledger.state[:, :, :n].tobytes(),
                ledger.counts.tobytes(),
                tuple([(type(v), v) for v in list(column)] for column in ledger.values),
                tuple(np.asarray(p).tobytes() for p in ledger.parents),
                ledger.redundant.tobytes(),
            )
            for ledger in state.ledgers
        )
        ledgers += (state.labels, state.overall[:, :n].tobytes())
    return (
        cube.explanations,
        cube.labels,
        cube.supports.tobytes(),
        cube.overall_values.tobytes(),
        cube.included_values.tobytes(),
        cube.excluded_values.tobytes(),
        ledgers,
    )


@settings(max_examples=120, deadline=None)
@given(relation=relations(), data=st.data())
def test_memoized_group_rows_match_the_reference(relation, data):
    names = sorted(relation.schema.dimension_names())
    subsets = [tuple(names[:k]) for k in range(1, len(names) + 1)]
    subsets += [(name,) for name in names] + [tuple(names[::2])]
    memo: dict = {}
    for subset in data.draw(st.permutations(subsets), label="order"):
        ids, representatives = _group_rows(relation, subset, memo)
        ref_ids, ref_representatives = group_rows_reference(relation, subset)
        assert ids.dtype == ref_ids.dtype and representatives.dtype == ref_representatives.dtype
        assert ids.tobytes() == ref_ids.tobytes()
        assert representatives.tobytes() == ref_representatives.tobytes()


def test_sparse_key_space_takes_the_sorting_path():
    """Prefix groups x values far beyond the row count: np.unique fallback."""
    rng = np.random.default_rng(3)
    n = 400
    relation = build_relation(
        {
            "t": _objects(["d0"] * n),
            "a": _objects([f"a{i}" for i in rng.permutation(n)]),
            "b": rng.permutation(n).astype(np.int64),
            "m": np.ones(n),
        },
        dimensions=["a", "b"], measures=["m"], time="t",
    )
    memo: dict = {}
    for subset in (("a",), ("a", "b"), ("b",)):
        ids, representatives = _group_rows(relation, subset, memo)
        ref_ids, ref_representatives = group_rows_reference(relation, subset)
        assert ids.tobytes() == ref_ids.tobytes()
        assert representatives.tobytes() == ref_representatives.tobytes()


@settings(max_examples=80, deadline=None)
@given(relation=relations(), max_order=st.integers(1, 3), deduplicate=st.booleans())
def test_enumerate_candidates_is_byte_identical_to_the_reference(
    relation, max_order, deduplicate
):
    explain_by = relation.schema.dimension_names()
    fast = enumerate_candidates(relation, explain_by, max_order, deduplicate)
    with _reference_grouping():
        slow = enumerate_candidates(relation, explain_by, max_order, deduplicate)
    assert _candidate_bytes(fast) == _candidate_bytes(slow)


def _chunked_build(relation, cuts, explain_by, max_order):
    bounds = [0, *cuts, relation.n_rows]
    chunks = [
        relation.take(np.arange(start, stop))
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]
    cube = ExplanationCube(chunks[0], explain_by, "m", max_order=max_order)
    infos = [cube.append(chunk) for chunk in chunks[1:]]
    return cube, infos


@settings(max_examples=80, deadline=None)
@given(relation=relations(min_rows=2), data=st.data(), max_order=st.integers(1, 3))
def test_chunked_appends_are_byte_identical_to_the_reference(relation, data, max_order):
    cuts = sorted(
        set(data.draw(st.lists(st.integers(1, relation.n_rows - 1), max_size=4), label="cuts"))
    )
    explain_by = relation.schema.dimension_names()
    fast, fast_infos = _chunked_build(relation, cuts, explain_by, max_order)
    with _reference_grouping():
        slow, slow_infos = _chunked_build(relation, cuts, explain_by, max_order)
    assert fast_infos == slow_infos
    assert _cube_bytes(fast) == _cube_bytes(slow)
    # And both equal a one-shot build, the append ledger's own contract.
    whole = ExplanationCube(relation, explain_by, "m", max_order=max_order)
    assert _cube_bytes(fast)[:6] == _cube_bytes(whole)[:6]


def test_chunked_source_ingest_with_new_categories_and_labels(tmp_path):
    """A CSV ingest whose later chunks bring new categories and new time
    labels builds the same bytes as the reference."""
    rows = {"t": [], "region": [], "product": [], "m": []}
    for day in range(6):
        regions = ["north", "south"] + (["west"] if day >= 3 else [])
        products = ["p1"] + (["p2"] if day >= 2 else []) + (["p3"] if day == 5 else [])
        for region in regions:
            for product in products:
                rows["t"].append(f"2024-01-0{day + 1}")
                rows["region"].append(region)
                rows["product"].append(product)
                rows["m"].append(float(day * 3 + len(region) + len(product)))
    relation = build_relation(rows, dimensions=["region", "product"], measures=["m"], time="t")
    path = tmp_path / "kpi.csv"
    write_csv(relation, path)
    uri = f"csv:{path}?time=t&dimensions=region,product&measure=m"

    def ingest():
        cube, report = load_or_build_from_source(
            None, resolve_source(uri), ["region", "product"], "m", chunk_rows=4
        )
        assert report.out_of_core and report.chunks > 2
        return cube

    fast = ingest()
    with _reference_grouping():
        slow = ingest()
    assert _cube_bytes(fast) == _cube_bytes(slow)
    assert len(fast.labels) == 6
    for item in (("region", "west"), ("product", "p3")):
        assert Conjunction.from_items([item]) in fast.explanations


def test_each_column_is_factorized_once_per_enumeration(monkeypatch):
    relation = build_relation(
        {
            "t": _objects(["d0", "d0", "d1", "d1"]),
            "a": _objects(list("xyxy")),
            "b": _objects(list("ppqq")),
            "c": _objects(list("uvvu")),
            "m": np.arange(4.0),
        },
        dimensions=["a", "b", "c"], measures=["m"], time="t",
    )
    factorized = []

    def counting(column):
        factorized.append(column)
        return factorize(column)

    monkeypatch.setattr(explanations_module, "factorize", counting)
    enumerate_candidates(relation, ["a", "b", "c"], max_order=3)
    assert len(factorized) == 3
