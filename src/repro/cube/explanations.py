"""Candidate-explanation enumeration (Definition 3.1).

Given explain-by attributes ``A`` and an order threshold ``beta_max``, the
candidates are all conjunctions ``A_1=a_1 & ... & A_beta=a_beta`` with
``beta <= beta_max`` that select at least one row of the relation.

Containment deduplication
-------------------------
Hierarchical attributes (e.g. S&P 500's ``category -> subcategory -> stock``)
make many conjunctions redundant: ``category=tech & subcategory=software``
selects exactly the rows of ``subcategory=software``.  Keeping both would
bias the cascading-analysts search and inflate ``epsilon``.  We drop any
candidate whose support equals the support of one of its order-(beta-1)
sub-conjunctions; this reproduces the paper's candidate counts (e.g.
``epsilon = 610 = 11 + 96 + 503`` for S&P 500, Table 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction
from repro.relation.table import Relation, factorize


@dataclass(frozen=True)
class CandidateSet:
    """The enumerated candidates and their bookkeeping arrays.

    Attributes
    ----------
    explanations:
        Candidate conjunctions, deterministically ordered (by order, then by
        attribute tuple, then by values).
    group_ids:
        For each candidate position, the dense row-bucket array mapping every
        relation row to either the candidate-local group it belongs to or -1.
        Stored per *attribute subset* (see ``subset_of``) to stay compact.
    supports:
        Total number of rows selected by each candidate.
    group_counts / group_values / redundant / parent_groups:
        Per-subset bookkeeping over *all* value groups, including the
        containment-redundant ones the candidate list drops:  row counts,
        the group's value per subset attribute, the redundancy mask, and —
        for subsets of order > 1 — the group id each group maps to in the
        parent subset obtained by dropping attribute ``d``.  This is the
        ledger :meth:`repro.cube.datacube.ExplanationCube.append` scatters
        new rows into; redundancy can only be *destroyed* by appends
        (supports grow monotonically, a child never outgrows its parent),
        so groups are append-only.
    """

    explanations: tuple[Conjunction, ...]
    supports: np.ndarray
    row_groups: tuple[np.ndarray, ...]
    subset_index: tuple[int, ...]
    subsets: tuple[tuple[str, ...], ...]
    local_ids: tuple[int, ...]
    group_counts: tuple[np.ndarray, ...] = ()
    group_values: tuple[tuple[np.ndarray, ...], ...] = ()
    redundant: tuple[np.ndarray, ...] = ()
    parent_groups: tuple[tuple[np.ndarray, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.explanations)


def _python_value(value: object) -> object:
    return value.item() if hasattr(value, "item") else value


def enumerate_candidates(
    relation: Relation,
    explain_by: Sequence[str],
    max_order: int = 3,
    deduplicate: bool = True,
) -> CandidateSet:
    """Enumerate candidate explanations present in ``relation``.

    Parameters
    ----------
    relation:
        Source rows.
    explain_by:
        Explain-by attribute names ``A`` (paper: user-specified or all
        dimensions).
    max_order:
        Order threshold ``beta_max`` (paper default 3).
    deduplicate:
        Drop conjunctions whose row set equals a sub-conjunction's (see
        module docstring).  The paper's candidate counts assume this.
    """
    if not explain_by:
        raise ExplanationError("explain_by must name at least one attribute")
    if len(set(explain_by)) != len(explain_by):
        raise ExplanationError(f"explain_by repeats attributes: {explain_by}")
    for name in explain_by:
        relation.schema.require_dimension(name)
    if max_order < 1:
        raise ExplanationError(f"max_order must be >= 1, got {max_order}")
    max_order = min(max_order, len(explain_by))

    explanations: list[Conjunction] = []
    supports: list[int] = []
    row_groups: list[np.ndarray] = []
    subsets: list[tuple[str, ...]] = []
    subset_index: list[int] = []
    local_ids: list[int] = []
    group_counts: list[np.ndarray] = []
    group_values: list[tuple[np.ndarray, ...]] = []
    redundant_masks: list[np.ndarray] = []
    parent_group_maps: list[tuple[np.ndarray, ...]] = []
    # Per processed subset: (row -> group id, per-group support).  Kept for
    # every lower-order subset (including groups later dropped as
    # redundant) so that higher-order conjunctions can still detect
    # redundancy through a chain of redundant intermediates.
    group_info: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
    # Sorted attributes make every subset's prefix an earlier subset, so
    # the memo factorizes each column once for the whole enumeration.
    memo: dict[tuple[str, ...], tuple[np.ndarray, int]] = {}

    ordered_attrs = sorted(explain_by)
    for order in range(1, max_order + 1):
        for subset in itertools.combinations(ordered_attrs, order):
            group_ids, representatives = _group_rows(relation, subset, memo)
            n_groups = representatives.shape[0]
            counts = np.bincount(group_ids, minlength=n_groups)
            # A group is redundant when dropping one attribute lands its
            # representative row in a parent group with identical support:
            # the parent then selects exactly the same rows.  This is the
            # columnar form of the seed's per-conjunction dict lookup.
            redundant = np.zeros(n_groups, dtype=bool)
            parents: list[np.ndarray] = []
            if order > 1:
                for drop in range(order):
                    parent = subset[:drop] + subset[drop + 1 :]
                    parent_rows, parent_counts = group_info[parent]
                    parent_of_group = parent_rows[representatives]
                    parents.append(parent_of_group.astype(np.intp))
                    if deduplicate:
                        redundant |= parent_counts[parent_of_group] == counts
            group_info[subset] = (group_ids, counts)

            subset_pos = len(subsets)
            subsets.append(subset)
            row_groups.append(group_ids)
            group_counts.append(counts.astype(np.int64))
            redundant_masks.append(redundant)
            parent_group_maps.append(tuple(parents))
            columns = relation.columns(subset)
            values_by_attr = tuple(columns[name][representatives] for name in subset)
            group_values.append(values_by_attr)
            for local_id in np.flatnonzero(~redundant):
                conjunction = Conjunction.from_items(
                    (name, _python_value(values_by_attr[k][local_id]))
                    for k, name in enumerate(subset)
                )
                explanations.append(conjunction)
                supports.append(int(counts[local_id]))
                subset_index.append(subset_pos)
                local_ids.append(int(local_id))

    return CandidateSet(
        explanations=tuple(explanations),
        supports=np.asarray(supports, dtype=np.int64),
        row_groups=tuple(row_groups),
        subset_index=tuple(subset_index),
        subsets=tuple(subsets),
        local_ids=tuple(local_ids),
        group_counts=tuple(group_counts),
        group_values=tuple(group_values),
        redundant=tuple(redundant_masks),
        parent_groups=tuple(parent_group_maps),
    )


def _group_rows(
    relation: Relation,
    subset: tuple[str, ...],
    memo: dict[tuple[str, ...], tuple[np.ndarray, int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids over the distinct value combinations of ``subset``.

    Returns ``(group_ids, representatives)`` where ``group_ids[i]`` is the
    bucket of row ``i`` and ``representatives[g]`` is the first row index
    belonging to bucket ``g``.  Buckets are numbered in the lexicographic
    order of the subset's sorted column values.  Works for any column dtype
    (including Python objects) by factorizing one column at a time and
    re-densifying the combined key, so intermediate keys never overflow.

    ``memo`` is a per-call scratchpad shared by every subset of one
    enumeration or one delta: it holds ``(group_ids, n_groups)`` per
    subset already grouped, so each column is factorized once and a
    subset extends the grouping of its prefix instead of starting over.
    """
    if memo is None:
        memo = {}
    group_ids, n_groups = _subset_ids(relation, subset, memo)
    representatives = np.full(n_groups, relation.n_rows, dtype=np.intp)
    np.minimum.at(
        representatives, group_ids, np.arange(relation.n_rows, dtype=np.intp)
    )
    return group_ids, representatives


def _subset_ids(
    relation: Relation,
    subset: tuple[str, ...],
    memo: dict[tuple[str, ...], tuple[np.ndarray, int]],
) -> tuple[np.ndarray, int]:
    """``(group_ids, n_groups)`` of ``subset``, built on its memoized prefix."""
    found = memo.get(subset)
    if found is not None:
        return found
    if len(subset) == 1:
        values, codes = factorize(relation.column(subset[0]))
        found = (codes, int(values.shape[0]))
    else:
        prefix_ids, n_prefix = _subset_ids(relation, subset[:-1], memo)
        codes, n_values = _subset_ids(relation, subset[-1:], memo)
        found = _dense_rank(prefix_ids * n_values + codes, n_prefix * n_values)
    memo[subset] = found
    return found


def _dense_rank(key: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Rank of each key among the distinct keys, all keys in ``[0, bound)``.

    Equal to the inverse of ``np.unique(key)``.  A key space no larger than
    a few times the row count is ranked through a presence table (linear,
    no sort); a sparse one falls back to ``np.unique``.
    """
    if bound <= 2 * key.shape[0] + 65536:
        present = np.zeros(bound, dtype=bool)
        present[key] = True
        rank = np.cumsum(present, dtype=np.intp)
        n_groups = int(rank[-1]) if bound else 0
        rank -= 1
        return rank[key], n_groups
    uniques, inverse = np.unique(key, return_inverse=True)
    return inverse.reshape(-1).astype(np.intp, copy=False), int(uniques.shape[0])


def group_rows_reference(
    relation: Relation, subset: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The per-subset ``np.unique`` form of :func:`_group_rows`.

    Sorts every column of ``subset`` and every combined key again for each
    subset.  Kept as the reference the memoized grouping must match
    byte for byte.
    """
    n_rows = relation.n_rows
    combined = np.zeros(n_rows, dtype=np.int64)
    for name in subset:
        values, codes = np.unique(relation.column(name), return_inverse=True)
        key = combined * np.int64(len(values)) + codes.astype(np.int64).ravel()
        _, combined = np.unique(key, return_inverse=True)
        combined = combined.astype(np.int64).ravel()
    _, representatives = np.unique(combined, return_index=True)
    return combined.astype(np.intp), representatives.astype(np.intp)
