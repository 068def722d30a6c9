"""The Cascading Analysts algorithm (paper section 5.2, module b).

Re-implementation of Ruhl, Sundararajan and Yan's top-m *non-overlapping*
explanation search from the paper's description (Figure 8): starting at the
root with ``m`` quotas, either select the current node's explanation or
drill down along **one** dimension and split the quota among that
dimension's values; children along one dimension are disjoint slices, which
is what guarantees non-overlap.  The enumeration of drill-down dimension and
quota assignment is a dynamic program maximizing the total difference score.

Semantics notes
---------------
* We implement the "at most m" variant from the paper's footnote 2
  (``E*_m = argmax over E_x, x <= m``): since ``gamma >= 0``, the optimum
  never loses value by selecting fewer explanations, and zero-score
  selections are omitted from the result.
* The structure is a DAG, not a tree: the node ``a=1 & b=2`` is a child of
  both ``a=1`` (via dimension ``b``) and ``b=2`` (via dimension ``a``).
* *Virtual* nodes (ancestors of candidates that are themselves not
  selectable — e.g. removed by the support filter or by containment
  deduplication) can be drilled through but never selected.

Batch evaluation
----------------
TSExplain needs ``E*_m`` for every one of ``O(n^2)`` segments.  The DAG is
static across segments — only the ``gamma`` vector changes — so
:meth:`CascadingAnalysts.solve_batch` runs the DP for a chunk of segments
at once, one drill-down level at a time, over the arrays of a
:class:`DagLayout`.  Value tables are quota-major ``(m + 1, nodes, rows)``.
A level's (node, dimension) groups advance together, one kid position per
step; the groups are ordered by kid count, so each step touches only the
prefix of groups that still have a kid.  The backtrack walks the chosen
tasks down the levels: each task picks its node's branch from the
groups' final knapsack values kept by the forward pass, and only the
groups actually chosen re-run their knapsack to recover the quota
split.  No per-kid decision planes are stored.  Row chunks are sized so
the tables plus the widest per-step temporary stay within a fixed
element budget.  The result is a :class:`TopMBatch` of arrays;
:func:`repro.ca.bruteforce.reference_solve` is the one-segment-at-a-time
scalar walk the tests compare it against, bit for bit.

A :class:`DrillDownTree` also serves as an index over its candidates,
coded as rows of item codes: :meth:`DrillDownTree.restrict` builds the
layout of the DAG of any ordered subset of them in numpy, numbered
exactly as a fresh ``DrillDownTree`` of that subset would be.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction

#: node id of the conceptual root (the empty conjunction)
_ROOT = 0

#: Float64 elements one chunk of segments may hold at once: its value and
#: drill tables plus the widest level's knapsacks and step temporaries
#: (48 MB).
_CHUNK_ELEMENTS = 6_000_000

#: Row bounds of a chunk; the upper one also bounds the backtrack's
#: per-task buffers.
_MIN_CHUNK_ROWS = 16
_MAX_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class TopMResult:
    """Top-m non-overlapping explanations of one segment (Definition 3.5).

    Attributes
    ----------
    indices:
        Candidate positions (into the cube / gamma vector), ranked by
        ``gamma`` descending — the ranked list ``[E^1, ..., E^m]`` used by
        the NDCG distance.
    gammas:
        The difference scores of the selected explanations, same order.
    best:
        ``Best[0..m]``: the optimal total score using at most ``q`` quotas,
        for every ``q`` — the side products needed by guess-and-verify
        (Eq. 12).
    taus:
        Change effects ``tau(E^r)`` of the selections on their own segment
        (Definition 3.3); attached by :meth:`with_context` after solving
        because the CA itself only sees non-negative scores.
    source_segment:
        ``(start, stop)`` positions of the segment this result explains;
        attached by :meth:`with_context`.
    """

    indices: tuple[int, ...]
    gammas: tuple[float, ...]
    best: tuple[float, ...]
    taus: tuple[int, ...] = ()
    source_segment: tuple[int, int] | None = None

    def with_context(
        self, taus: Sequence[int], source_segment: tuple[int, int]
    ) -> "TopMResult":
        """A copy annotated with change effects and segment positions."""
        return TopMResult(
            indices=self.indices,
            gammas=self.gammas,
            best=self.best,
            taus=tuple(int(t) for t in taus),
            source_segment=(int(source_segment[0]), int(source_segment[1])),
        )

    @property
    def total(self) -> float:
        """Total difference score of the selection (= ``best[-1]``)."""
        return self.best[-1]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class TopMBatch:
    """Top-m results of many segments, as dense arrays.

    Row ``s`` holds segment ``s``'s ranked selection in its first
    ``valid[s].sum()`` columns (``valid`` is a prefix mask); the padding
    ranks carry index 0 and gamma 0.  This is what
    :meth:`CascadingAnalysts.solve_batch` returns and what the segment-cost
    kernel consumes directly; indexing a row builds the
    :class:`TopMResult` of that one segment.

    Attributes
    ----------
    idx:
        ``(P, m)`` candidate positions, ranked by gamma descending.
    gamma:
        ``(P, m)`` difference scores of the selections.
    valid:
        ``(P, m)`` mask of the ranks actually selected.
    best:
        ``(P, m + 1)`` ``Best[0..m]`` of every segment.
    """

    idx: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray
    best: np.ndarray

    @classmethod
    def empty(cls, n_segments: int, m: int) -> "TopMBatch":
        """``n_segments`` rows with no selection and zero ``Best``."""
        return cls(
            idx=np.zeros((n_segments, m), dtype=np.intp),
            gamma=np.zeros((n_segments, m), dtype=np.float64),
            valid=np.zeros((n_segments, m), dtype=bool),
            best=np.zeros((n_segments, m + 1), dtype=np.float64),
        )

    @property
    def m(self) -> int:
        return self.idx.shape[1]

    def __len__(self) -> int:
        return self.idx.shape[0]

    def __getitem__(self, row: int) -> TopMResult:
        kept = int(np.count_nonzero(self.valid[row]))
        return TopMResult(
            indices=tuple(int(i) for i in self.idx[row, :kept]),
            gammas=tuple(float(g) for g in self.gamma[row, :kept]),
            best=tuple(float(b) for b in self.best[row]),
        )

    def __iter__(self) -> Iterator[TopMResult]:
        return (self[row] for row in range(len(self)))

    @classmethod
    def concatenate(cls, batches: Sequence["TopMBatch"]) -> "TopMBatch":
        """The rows of several batches, in order."""
        return cls(
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in ("idx", "gamma", "valid", "best")
            )
        )

    def take(self, rows: np.ndarray) -> "TopMBatch":
        """The batch of the given rows (an index array or a boolean mask)."""
        return TopMBatch(
            idx=self.idx[rows],
            gamma=self.gamma[rows],
            valid=self.valid[rows],
            best=self.best[rows],
        )

    def put(self, rows: np.ndarray, other: "TopMBatch", idx_map: np.ndarray | None = None) -> None:
        """Write ``other``'s rows into ``rows`` of this batch, in place.

        ``idx_map`` translates ``other``'s candidate positions (e.g. from a
        restricted candidate list back to the full one).
        """
        idx = other.idx if idx_map is None else idx_map[other.idx]
        self.idx[rows] = np.where(other.valid, idx, 0)
        self.gamma[rows] = other.gamma
        self.valid[rows] = other.valid
        self.best[rows] = other.best


def candidates_are_flat(explanations: Sequence[Conjunction]) -> bool:
    """:attr:`DrillDownTree.is_flat` of a candidate list, without the tree.

    The DAG is a single drill-down exactly when every candidate is an
    order-1 conjunction and all of them constrain the same attribute.
    """
    if not explanations:
        return False
    attributes = set()
    for conjunction in explanations:
        if conjunction.order != 1:
            return False
        attributes.add(conjunction.items[0][0])
    return len(attributes) == 1


def check_gammas(gammas: np.ndarray, n_candidates: int) -> np.ndarray:
    """``gammas`` as a float64 ``(n_segments, n_candidates)`` matrix.

    Both solvers call this first.  Raises :class:`ExplanationError` for
    any other shape and for negative or non-finite scores: the DP's
    optimality argument needs ``gamma >= 0``, and a NaN would silently
    poison every comparison.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[1] != n_candidates:
        raise ExplanationError(
            f"gamma matrix shape {gammas.shape} does not match "
            f"{n_candidates} candidates"
        )
    # NaN fails both comparisons.
    if gammas.size and not (gammas.min() >= 0.0 and gammas.max() < np.inf):
        raise ExplanationError("gamma scores must be finite and non-negative")
    return gammas


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Integer keys, equal exactly where rows of ``rows`` are.

    Entries lie in ``[-1, base - 1)``; the columns are combined in mixed
    radix, re-ranked densely whenever the next column could overflow.
    """
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    bound = 1
    for column in rows.T:
        if bound * base >= 1 << 62:
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
            bound = int(keys.max(initial=0)) + 1
        keys = keys * base + (column + 1)
        bound *= base
    return keys


def _present(rows: np.ndarray, order: int) -> np.ndarray:
    """Columns of the set entries of rows with ``order`` of them each, in
    ascending order (that is, attribute name order)."""
    return np.nonzero(rows >= 0)[1].reshape(-1, order)


@dataclass(frozen=True, eq=False)
class _Level:
    """One drill-down level of a :class:`DagLayout`, as the kernel walks it.

    ``groups`` spans the level's groups in the layout's group order;
    ``by_width`` lists them widest first, so the groups that still have a
    kid at step ``i`` are ``by_width[:active]`` and their ``i``-th kids
    are ``step_kids[step_ptr[i]:step_ptr[i + 1]]``.  ``parents`` are the
    level's nodes with groups and ``parent_starts`` where each one's
    groups begin within ``groups``; ``nodes`` are the level's selectable
    nodes and ``positions`` their candidate positions.
    """

    groups: slice
    by_width: np.ndarray
    step_ptr: np.ndarray
    step_kids: np.ndarray
    parents: np.ndarray
    parent_starts: np.ndarray
    nodes: np.ndarray
    positions: np.ndarray


class DagLayout:
    """The drill-down DAG of a candidate list, as arrays: what
    :class:`CascadingAnalysts` runs on.

    A node is a row of item codes by attribute, -1 where the attribute is
    free; the root is the all-free row.  Nodes are numbered by first
    appearance over the root, then each candidate's closure (the
    candidate, then its proper subsets in bitmask order over its items),
    candidates in order.  A *group* is one (node, drill-down dimension)
    pair and its kids.  Groups are stored deepest level first, then by
    node, then by dimension name; each group's kids are in node-id order.
    The numbering fixes how the DP breaks ties, so every DAG of the same
    candidates, whoever builds it, solves to the same bits.

    Parameters
    ----------
    rows:
        ``(candidates, attributes)`` item codes of each candidate.
    dims:
        Attribute names, sorted: the columns of ``rows``.
    items:
        The ``(attribute, value)`` item of each code.
    """

    def __init__(self, rows: np.ndarray, dims: tuple[str, ...], items: list[tuple]):
        self.dims = dims
        self.items = items
        n_candidates, n_dims = rows.shape
        self.n_candidates = n_candidates
        orders = np.count_nonzero(rows >= 0, axis=1)

        # Every candidate's closure rows, in numbering order.
        starts = np.concatenate(([1], 1 + np.cumsum(np.left_shift(1, orders))))
        sequence = np.full((starts[-1], n_dims), -1, dtype=np.intp)
        for order in np.unique(orders).tolist():
            members = np.flatnonzero(orders == order)
            own = rows[members]
            present = _present(own, order)
            every = np.arange(members.size)
            sequence[starts[members]] = own
            for mask in range(2**order - 1):
                subset = np.full_like(own, -1)
                for item in range(order):
                    if mask >> item & 1:
                        subset[every, present[:, item]] = own[every, present[:, item]]
                sequence[starts[members] + 1 + mask] = subset
        base = len(items) + 1
        _, first, inverse = np.unique(
            _row_keys(sequence, base), return_index=True, return_inverse=True
        )
        by_appearance = np.argsort(first)
        node_of = np.empty_like(by_appearance)
        node_of[by_appearance] = np.arange(by_appearance.size)
        self.node_rows = node_rows = sequence[first[by_appearance]]
        self.levels = levels = np.count_nonzero(node_rows >= 0, axis=1)
        n_nodes = levels.size
        self.candidates = np.full(n_nodes, -1, dtype=np.intp)
        self.candidates[node_of[inverse[starts[:-1]]]] = np.arange(n_candidates)

        # One edge per (node, dropped item): its parent and the dimension.
        edge_start = np.concatenate(([0], np.cumsum(levels)))
        parent_rows = np.empty((edge_start[-1], n_dims), dtype=np.intp)
        dim = np.empty(edge_start[-1], dtype=np.intp)
        for level in np.unique(levels[levels > 0]).tolist():
            nodes = np.flatnonzero(levels == level)
            own = node_rows[nodes]
            present = _present(own, level)
            every = np.arange(nodes.size)
            for item in range(level):
                parent = own.copy()
                parent[every, present[:, item]] = -1
                parent_rows[edge_start[nodes] + item] = parent
                dim[edge_start[nodes] + item] = present[:, item]
        keys = _row_keys(np.concatenate((node_rows, parent_rows)), base)
        sorter = np.argsort(keys[:n_nodes])
        parent = sorter[np.searchsorted(keys[:n_nodes], keys[n_nodes:], sorter=sorter)]
        child = np.repeat(np.arange(n_nodes), levels)

        order = np.lexsort((child, dim, parent, -levels[parent]))
        parent, dim, child = parent[order], dim[order], child[order]
        new_group = np.ones(parent.size, dtype=bool)
        new_group[1:] = (parent[1:] != parent[:-1]) | (dim[1:] != dim[:-1])
        group_starts = np.flatnonzero(new_group)
        self.group_parent = parent[group_starts]
        self.group_dim = dim[group_starts]
        self.group_ptr = np.append(group_starts, parent.size)
        self.group_kids = child
        #: first group and group count of every node
        self.node_group_count = np.bincount(self.group_parent, minlength=n_nodes)
        self.node_groups = np.zeros(n_nodes, dtype=np.intp)
        first_groups = np.flatnonzero(_run_starts(self.group_parent))
        self.node_groups[self.group_parent[first_groups]] = first_groups

        group_level = -levels[self.group_parent]  # ascending
        selectable = np.flatnonzero(self.candidates >= 0)
        self.steps: list[_Level] = []
        for level in range(int(levels.max()), -1, -1):
            lo, hi = np.searchsorted(group_level, [-level, -level + 1])
            nodes = selectable[levels[selectable] == level]
            self.steps.append(self._level(int(lo), int(hi), nodes))
        self.widest_level = max(
            (step.groups.stop - step.groups.start for step in self.steps), default=0
        )
        self.is_flat = bool(
            n_nodes > 1 and levels.max() == 1 and self.node_group_count[_ROOT] == 1
        )

    def _level(self, lo: int, hi: int, nodes: np.ndarray) -> _Level:
        ptr = self.group_ptr[lo : hi + 1]
        counts = np.diff(ptr)
        by_width = np.argsort(-counts, kind="stable")
        widths = counts[by_width]
        n_steps = int(widths[0]) if widths.size else 0
        active = widths.size - np.cumsum(np.bincount(widths, minlength=n_steps + 1))
        step_ptr = np.concatenate(([0], np.cumsum(active[:n_steps])))
        rank = np.empty_like(by_width)
        rank[by_width] = np.arange(by_width.size)
        edge_group = np.repeat(np.arange(counts.size), counts)
        within = np.arange(edge_group.size) - (ptr[edge_group] - ptr[0])
        step_kids = np.empty(edge_group.size, dtype=np.intp)
        step_kids[step_ptr[within] + rank[edge_group]] = self.group_kids[ptr[0] : ptr[-1]]
        parents = self.group_parent[lo:hi]
        parent_starts = np.flatnonzero(_run_starts(parents))
        return _Level(
            groups=slice(lo, hi),
            by_width=lo + by_width,
            step_ptr=step_ptr,
            step_kids=step_kids,
            parents=parents[parent_starts],
            parent_starts=parent_starts,
            nodes=nodes,
            positions=self.candidates[nodes],
        )

    @property
    def n_nodes(self) -> int:
        return self.levels.size

    @property
    def n_groups(self) -> int:
        return self.group_parent.size

    @property
    def nbytes(self) -> int:
        arrays = [
            self.node_rows,
            self.levels,
            self.candidates,
            self.group_parent,
            self.group_dim,
            self.group_ptr,
            self.group_kids,
            self.node_group_count,
            self.node_groups,
        ]
        for step in self.steps:
            arrays.extend(v for v in vars(step).values() if isinstance(v, np.ndarray))
        return sum(array.nbytes for array in arrays)

    def conjunction(self, node: int) -> Conjunction:
        """The conjunction labelling a node (built on request)."""
        return Conjunction.from_sorted_items(
            tuple(self.items[code] for code in self.node_rows[node].tolist() if code >= 0)
        )

    def candidate_of(self, node: int) -> int:
        """Candidate position of a node, or -1 for virtual nodes/root."""
        return int(self.candidates[node])

    def children_of(self, node: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(dimension, child node ids)`` groups below a node."""
        first = int(self.node_groups[node])
        return tuple(
            (
                self.dims[self.group_dim[group]],
                tuple(self.group_kids[self.group_ptr[group] : self.group_ptr[group + 1]].tolist()),
            )
            for group in range(first, first + int(self.node_group_count[node]))
        )

    def __repr__(self) -> str:
        return (
            f"DagLayout({self.n_candidates} candidates, {self.n_nodes} nodes, "
            f"{self.n_groups} groups)"
        )


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


class DrillDownTree:
    """The static drill-down DAG over a fixed candidate list.

    It is also an index over its candidates: the candidates coded as
    item rows.  :meth:`restrict` builds the :class:`DagLayout` of any
    ordered subset of them from those rows, and :meth:`positions_of`
    finds such a subset's positions.  A session keeps one over its cube's
    candidates and derives every query's DAGs from it; the layout of the
    whole list is built on first use.

    Parameters
    ----------
    explanations:
        Selectable candidate conjunctions; their *positions* in this
        sequence are the indices used in gamma vectors and results.
    """

    def __init__(self, explanations: Sequence[Conjunction]):
        explanations = tuple(explanations)
        item_lists = [conjunction.items for conjunction in explanations]
        orders = np.fromiter(map(len, item_lists), dtype=np.intp, count=len(item_lists))
        if orders.size and orders.min() == 0:
            raise ExplanationError("the empty conjunction cannot be a candidate")
        self._positions = dict(zip(explanations, range(len(explanations))))
        if len(self._positions) < len(explanations):
            seen: set[Conjunction] = set()
            for conjunction in explanations:
                if conjunction in seen:
                    raise ExplanationError(f"duplicate candidate {conjunction!r}")
                seen.add(conjunction)
        flat = list(itertools.chain.from_iterable(item_lists))
        codes = {item: code for code, item in enumerate(dict.fromkeys(flat))}
        self._items = list(codes)
        self._dims = tuple(sorted({name for name, _ in self._items}))
        rank = {name: index for index, name in enumerate(self._dims)}
        item_dims = np.asarray([rank[name] for name, _ in self._items], dtype=np.intp)
        code = np.fromiter(map(codes.__getitem__, flat), dtype=np.intp, count=len(flat))
        self._rows = np.full((len(explanations), len(self._dims)), -1, dtype=np.intp)
        self._rows[np.repeat(np.arange(len(explanations)), orders), item_dims[code]] = code
        self._explanations = explanations
        self._layout: DagLayout | None = None

    @property
    def n_nodes(self) -> int:
        return self.layout.n_nodes

    @property
    def n_candidates(self) -> int:
        return len(self._explanations)

    @property
    def explanations(self) -> tuple[Conjunction, ...]:
        """The candidate list, as given."""
        return self._explanations

    @property
    def layout(self) -> DagLayout:
        """The array form of this DAG (built on first use)."""
        if self._layout is None:
            self._layout = DagLayout(self._rows, self._dims, self._items)
        return self._layout

    @property
    def is_flat(self) -> bool:
        """True when the DAG is a single drill-down over one attribute.

        In that case all candidates are pairwise non-overlapping values of
        one dimension and the top-m selection degenerates to "take the m
        highest scores" — a fully vectorizable fast path.
        """
        return self.layout.is_flat

    @property
    def nbytes(self) -> int:
        """Estimated resident bytes: the index arrays and containers, and
        the layout once built; the conjunction objects are the caller's."""
        layout = 0 if self._layout is None else self._layout.nbytes
        return (
            self._rows.nbytes
            + layout
            + sys.getsizeof(self._positions)
            + sys.getsizeof(self._items)
        )

    def conjunction(self, node: int) -> Conjunction:
        """The conjunction labelling a node."""
        position = self.layout.candidate_of(node)
        if position >= 0:
            return self._explanations[position]
        return self.layout.conjunction(node)

    def candidate_of(self, node: int) -> int:
        """Candidate position of a node, or -1 for virtual nodes/root."""
        return self.layout.candidate_of(node)

    def children_of(self, node: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(dimension, child node ids)`` groups below a node."""
        return self.layout.children_of(node)

    def iter_topological(self) -> Iterator[int]:
        """Nodes deepest-first (every child before its parents)."""
        return iter(np.argsort(-self.layout.levels, kind="stable").tolist())

    def positions_of(self, explanations: Sequence[Conjunction]) -> np.ndarray | None:
        """Positions of ``explanations`` among this DAG's candidates.

        ``None`` unless they are an ordered subset of them, which is what
        :meth:`restrict` needs.  Every window a session derives keeps its
        cube's candidates in order, filtered or not.
        """
        if explanations is self._explanations:
            return np.arange(len(explanations))
        positions = np.fromiter(
            (self._positions.get(conj, -1) for conj in explanations),
            dtype=np.intp,
            count=len(explanations),
        )
        if positions.size and (positions.min() < 0 or np.any(np.diff(positions) <= 0)):
            return None
        return positions

    def restrict(self, positions: np.ndarray) -> DagLayout:
        """The layout of ``DrillDownTree([explanations[p] for p in positions])``.

        ``positions`` must be strictly increasing.  Built from the coded
        rows, so no conjunction is built, and numbered like that tree, so
        every result is the same.
        """
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size == len(self._explanations):
            return self.layout
        return DagLayout(self._rows[positions], self._dims, self._items)

    def __repr__(self) -> str:
        return f"DrillDownTree({self.n_candidates} candidates)"


class CascadingAnalysts:
    """Dynamic program for top-m non-overlapping explanations.

    Parameters
    ----------
    tree:
        The drill-down DAG of the candidate set: a :class:`DrillDownTree`
        or a :class:`DagLayout` (e.g. one :meth:`DrillDownTree.restrict`
        derived).
    m:
        Quota — the maximum number of explanations to return (paper
        default 3).
    """

    def __init__(self, tree: DrillDownTree | DagLayout, m: int = 3):
        if m < 1:
            raise ExplanationError(f"m must be >= 1, got {m}")
        self._tree = tree
        self._layout = tree.layout if isinstance(tree, DrillDownTree) else tree
        self._m = m

    @property
    def m(self) -> int:
        return self._m

    @property
    def tree(self) -> DrillDownTree | DagLayout:
        return self._tree

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, gamma: np.ndarray) -> TopMResult:
        """Top-m result for a single gamma vector of length ``n_candidates``."""
        return self.solve_batch(np.asarray(gamma, dtype=np.float64)[None, :])[0]

    def solve_batch(self, gammas: np.ndarray, chunk_size: int | None = None) -> TopMBatch:
        """Top-m results for many segments at once.

        Parameters
        ----------
        gammas:
            ``(n_segments, n_candidates)`` matrix of difference scores; all
            entries must be finite and non-negative.
        chunk_size:
            Number of segments solved together; defaults to as many as
            keep the chunk's tables and temporaries within
            ``_CHUNK_ELEMENTS``.
        """
        layout = self._layout
        gammas = check_gammas(gammas, layout.n_candidates)
        batch = TopMBatch.empty(gammas.shape[0], self._m)
        if layout.n_candidates == 0:
            return batch
        if layout.is_flat:
            self._solve_flat(gammas, batch)
            return batch
        if chunk_size is None:
            # Value and drill tables, a level's knapsacks and one step's
            # gathered kid tables.
            per_row = (self._m + 1) * (
                layout.n_nodes + layout.n_groups + 2 * layout.widest_level
            )
            chunk_size = int(
                np.clip(_CHUNK_ELEMENTS // per_row, _MIN_CHUNK_ROWS, _MAX_CHUNK_ROWS)
            )
        for offset in range(0, gammas.shape[0], chunk_size):
            chunk = gammas[offset : offset + chunk_size]
            values, drills = self._forward(chunk)
            batch.best[offset : offset + chunk.shape[0]] = values[:, _ROOT].T
            self._backtrack(chunk, values, drills, batch, offset)
        return batch

    # ------------------------------------------------------------------
    # Flat fast path: one attribute, all values pairwise disjoint
    # ------------------------------------------------------------------
    def _solve_flat(self, gammas: np.ndarray, batch: TopMBatch) -> None:
        m = self._m
        k = min(m, gammas.shape[1])
        # Candidate node ids happen to equal candidate position + 1, but we
        # work purely in candidate positions here.
        top_unsorted = np.argpartition(-gammas, k - 1, axis=1)[:, :k]
        top_unsorted.sort(axis=1)  # deterministic tie-breaking by position
        top_gamma = np.take_along_axis(gammas, top_unsorted, axis=1)
        order = np.argsort(-top_gamma, axis=1, kind="stable")
        top_idx = np.take_along_axis(top_unsorted, order, axis=1)
        top_gamma = np.take_along_axis(top_gamma, order, axis=1)
        # Zero scores are never selected; they sort last, so the kept
        # ranks stay a prefix.
        kept = top_gamma > 0.0
        batch.idx[:, :k] = np.where(kept, top_idx, 0)
        batch.gamma[:, :k] = np.where(kept, top_gamma, 0.0)
        batch.valid[:, :k] = kept
        cumulative = np.cumsum(top_gamma, axis=1)
        batch.best[:, 1:] = cumulative[:, np.minimum(np.arange(1, m + 1), k) - 1]

    # ------------------------------------------------------------------
    # Forward DP over one chunk of segments, a level at a time
    # ------------------------------------------------------------------
    def _forward(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every node's value table and every group's final knapsack.

        Returns ``(values, drills)``: ``values[x, node, s]`` is the best
        total of ``x`` quotas in ``node``'s subtree for segment ``s`` and
        ``drills[x, group, s]`` the best total of ``x`` quotas spread over
        the group's kids.  A knapsack step gives quota ``a`` to the next
        kid and ``x - a`` to the ones before it; groups out of kids are
        left out of the step, which is what padding them with the
        all-zero table would compute.
        """
        layout = self._layout
        m = self._m
        n_rows = gammas.shape[0]
        values = np.zeros((m + 1, layout.n_nodes, n_rows))
        drills = np.zeros((m + 1, layout.n_groups, n_rows))
        for level in layout.steps:
            n_groups = level.by_width.size
            if n_groups:
                knapsack = np.zeros((m + 1, n_groups, n_rows))
                step_ptr = level.step_ptr
                for step in range(step_ptr.size - 1):
                    kids = level.step_kids[step_ptr[step] : step_ptr[step + 1]]
                    child = values[1:, kids]
                    # Quota x keeps x - a for the kids before and gives a
                    # to this one; descending x reads only old entries.
                    # ``knapsack[0]`` and ``values[0]`` are zero, so the
                    # a = 0 and a = x sums reduce to one term each.
                    for x in range(m, 0, -1):
                        best = knapsack[x, : kids.size]
                        np.maximum(best, child[x - 1], out=best)
                        for a in range(1, x):
                            np.maximum(best, knapsack[x - a, : kids.size] + child[a - 1], out=best)
                drills[:, level.by_width] = knapsack
                values[:, level.parents] = np.maximum.reduceat(
                    drills[:, level.groups], level.parent_starts, axis=1
                )
            if level.nodes.size:
                selectable = values[1:, level.nodes]
                np.maximum(selectable, gammas[:, level.positions].T, out=selectable)
                values[1:, level.nodes] = selectable
        return values, drills

    # ------------------------------------------------------------------
    # Batched reconstruction of every segment's optimal selection
    # ------------------------------------------------------------------
    def _backtrack(
        self,
        gammas: np.ndarray,
        values: np.ndarray,
        drills: np.ndarray,
        batch: TopMBatch,
        offset: int,
    ) -> None:
        """Re-derive every segment's decisions top-down, level by level.

        A *task* is ``(node, segment, quota)``: the segment's optimum gives
        ``quota`` explanations to ``node``'s subtree.  Every task of a
        level is decided at once from the forward pass's tables; ties go
        to selecting the node itself, then to the earliest drill-down
        dimension, and each quota split gives the smallest allocation to
        the last child that still attains the optimum.
        """
        layout = self._layout
        n_segments = gammas.shape[0]
        nodes = np.full(n_segments, _ROOT, dtype=np.intp)
        rows = np.arange(n_segments, dtype=np.intp)
        quotas = np.full(n_segments, self._m, dtype=np.intp)
        chosen_rows: list[np.ndarray] = []
        chosen: list[np.ndarray] = []
        while nodes.size:
            candidates = layout.candidates[nodes]
            best = np.where(candidates >= 0, gammas[rows, candidates], 0.0)
            # -1 selects the node, -2 selects nothing, >= 0 drills a group.
            choice = np.where(best > 0.0, -1, -2)
            first = layout.node_groups[nodes]
            counts = layout.node_group_count[nodes]
            for rank in range(int(counts.max())):
                tasks = np.flatnonzero(counts > rank)
                groups = first[tasks] + rank
                drill = drills[quotas[tasks], groups, rows[tasks]]
                take = drill > best[tasks]
                best[tasks[take]] = drill[take]
                choice[tasks[take]] = groups[take]
            selecting = choice == -1
            chosen_rows.append(rows[selecting])
            chosen.append(candidates[selecting])
            drilling = np.flatnonzero(choice >= 0)
            if not drilling.size:
                break
            nodes, rows, quotas = self._split(
                choice[drilling], rows[drilling], quotas[drilling], values
            )

        rows = np.concatenate(chosen_rows)
        if not rows.size:
            return
        candidates = np.concatenate(chosen)
        scores = gammas[rows, candidates]
        # Rank within each segment by gamma descending, ties by position.
        order = np.lexsort((candidates, -scores, rows))
        rows, candidates, scores = rows[order], candidates[order], scores[order]
        ranks = np.arange(rows.size) - np.searchsorted(rows, rows)
        rows = rows + offset
        batch.idx[rows, ranks] = candidates
        batch.gamma[rows, ranks] = scores
        batch.valid[rows, ranks] = True

    def _split(
        self, groups: np.ndarray, rows: np.ndarray, quotas: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split each drilling task's quota among its group's kids.

        Re-runs only the chosen groups' knapsacks, for the tasks' own
        segments, keeping each step's smallest optimal allocation; then
        backtracks from the last kid.  Returns the next level's tasks.
        """
        layout = self._layout
        m = self._m
        first = layout.group_ptr[groups]
        counts = layout.group_ptr[groups + 1] - first
        # Widest first, so the tasks with a kid at each step are a prefix.
        order = np.argsort(-counts, kind="stable")
        first, counts, rows, quotas = first[order], counts[order], rows[order], quotas[order]
        n_tasks = rows.size
        n_steps = int(counts[0])
        active = n_tasks - np.cumsum(np.bincount(counts, minlength=n_steps + 1))
        knapsack = np.zeros((m + 1, n_tasks))
        decision = np.zeros((n_steps, m + 1, n_tasks), dtype=np.min_scalar_type(m))
        for step in range(n_steps):
            live = int(active[step])
            kids = layout.group_kids[first[:live] + step]
            child = values[1:, kids, rows[:live]]
            # The forward step, keeping the smallest optimal allocation:
            # allocations are tried in ascending order and only a strictly
            # better total replaces the incumbent.
            for x in range(m, 0, -1):
                best = knapsack[x, :live]
                allocation = decision[step, x, :live]
                for a in range(1, x + 1):
                    total = knapsack[x - a, :live] + child[a - 1]
                    better = total > best
                    best[better] = total[better]
                    allocation[better] = a

        remaining = quotas.copy()
        below = counts.copy()
        steps = np.arange(n_steps)[:, None]
        tasks = np.arange(n_tasks)
        next_nodes, next_rows, next_quotas = [], [], []
        # Each round hands quota to one more kid, so at most m rounds.
        for _ in range(m):
            allocations = decision[:, remaining, tasks]  # (steps, tasks)
            live = (allocations > 0) & (steps < below)
            found = np.flatnonzero(live.any(axis=0))
            if not found.size:
                break
            last = n_steps - 1 - np.argmax(live[::-1, found], axis=0)
            given = allocations[last, found].astype(np.intp)
            next_nodes.append(layout.group_kids[first[found] + last])
            next_rows.append(rows[found])
            next_quotas.append(given)
            remaining[found] -= given
            below[found] = last
        return (
            np.concatenate(next_nodes),
            np.concatenate(next_rows),
            np.concatenate(next_quotas),
        )
