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
:meth:`CascadingAnalysts.solve_batch` runs the DP once with value tables
vectorized over a chunk of segments, then backtracks every segment's
selection at once, one drill-down level at a time, and returns a
:class:`TopMBatch` of arrays.  :func:`repro.ca.bruteforce.reference_solve`
is the one-segment-at-a-time scalar walk the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction

#: node id of the conceptual root (the empty conjunction)
_ROOT = 0


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


class DrillDownTree:
    """The static drill-down DAG over a fixed candidate list.

    Parameters
    ----------
    explanations:
        Selectable candidate conjunctions; their *positions* in this
        sequence are the indices used in gamma vectors and results.
    """

    def __init__(self, explanations: Sequence[Conjunction]):
        if any(conj.order == 0 for conj in explanations):
            raise ExplanationError("the empty conjunction cannot be a candidate")
        # Nodes are keyed by their sorted item tuples; sub-conjunctions of
        # a conjunction are subsets of its items, so they stay sorted.
        node_ids: dict[tuple, int] = {(): _ROOT}
        conjs: list[Conjunction] = [Conjunction(())]
        selectable: list[int] = [-1]

        def intern(items: tuple, conjunction: Conjunction | None = None) -> int:
            node = node_ids.get(items)
            if node is None:
                node = len(conjs)
                node_ids[items] = node
                conjs.append(conjunction or Conjunction.from_sorted_items(items))
                selectable.append(-1)
            return node

        # Intern every candidate and every sub-conjunction (virtual nodes).
        for position, conjunction in enumerate(explanations):
            node = intern(conjunction.items, conjunction)
            if selectable[node] != -1:
                raise ExplanationError(f"duplicate candidate {conjunction!r}")
            selectable[node] = position
            for sub in _proper_subsets(conjunction.items):
                intern(sub)

        # Children grouped by drill-down dimension.
        children: list[dict[str, list[int]]] = [dict() for _ in conjs]
        for node in range(1, len(conjs)):
            items = conjs[node].items
            for drop in range(len(items)):
                parent = node_ids[items[:drop] + items[drop + 1 :]]
                children[parent].setdefault(items[drop][0], []).append(node)

        self._conjunctions = tuple(conjs)
        self._selectable = np.asarray(selectable, dtype=np.intp)
        self._children: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...] = tuple(
            tuple((dim, tuple(kids)) for dim, kids in sorted(by_dim.items()))
            for by_dim in children
        )
        # Deepest-first topological order (children always precede parents).
        self._topo = sorted(
            range(len(conjs)), key=lambda node: -self._conjunctions[node].order
        )
        self._n_candidates = len(explanations)
        self._is_flat = candidates_are_flat(explanations)

    @property
    def n_nodes(self) -> int:
        return len(self._conjunctions)

    @property
    def n_candidates(self) -> int:
        return self._n_candidates

    @property
    def is_flat(self) -> bool:
        """True when the DAG is a single drill-down over one attribute.

        In that case all candidates are pairwise non-overlapping values of
        one dimension and the top-m selection degenerates to "take the m
        highest scores" — a fully vectorizable fast path.
        """
        return self._is_flat

    def conjunction(self, node: int) -> Conjunction:
        """The conjunction labelling a node."""
        return self._conjunctions[node]

    def candidate_of(self, node: int) -> int:
        """Candidate position of a node, or -1 for virtual nodes/root."""
        return int(self._selectable[node])

    def children_of(self, node: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(dimension, child node ids)`` groups below a node."""
        return self._children[node]

    def iter_topological(self) -> Iterator[int]:
        """Nodes deepest-first (every child before its parents)."""
        return iter(self._topo)

    def __repr__(self) -> str:
        return (
            f"DrillDownTree({self._n_candidates} candidates, "
            f"{self.n_nodes} nodes)"
        )


def _proper_subsets(items: tuple) -> Iterator[tuple]:
    """All strict subsets of ``items`` (the power set, minus itself), in
    bitmask order."""
    n = len(items)
    for mask in range(2**n - 1):
        yield tuple(items[k] for k in range(n) if mask >> k & 1)


def _quota_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays over every ``(x, a)`` with ``1 <= x <= m``, ``0 <= a <= x``.

    A quota ``x`` split as ``a`` to the next child and ``x - a`` to the
    ones before it.  Returns ``(x, rest = x - a, a, starts)`` per pair,
    ordered by ``x`` then ``a``; ``starts`` is where each ``x`` group
    begins (for ``reduceat``).
    """
    quotas = np.repeat(np.arange(1, m + 1), np.arange(2, m + 2))
    alloc = np.concatenate([np.arange(x + 1) for x in range(1, m + 1)])
    starts = np.concatenate([[0], np.cumsum(np.arange(2, m + 1))]).astype(np.intp)
    return quotas, quotas - alloc, alloc, starts


class CascadingAnalysts:
    """Dynamic program for top-m non-overlapping explanations.

    Parameters
    ----------
    tree:
        The drill-down DAG of the candidate set.
    m:
        Quota — the maximum number of explanations to return (paper
        default 3).
    """

    def __init__(self, tree: DrillDownTree, m: int = 3):
        if m < 1:
            raise ExplanationError(f"m must be >= 1, got {m}")
        self._tree = tree
        self._m = m
        self._quota, self._rest, self._alloc, self._starts = _quota_pairs(m)

    @property
    def m(self) -> int:
        return self._m

    @property
    def tree(self) -> DrillDownTree:
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
            entries must be non-negative.
        chunk_size:
            Number of segments whose DP tables are held in memory together;
            defaults to an adaptive size targeting tens of megabytes.
        """
        gammas = np.asarray(gammas, dtype=np.float64)
        if gammas.ndim != 2 or gammas.shape[1] != self._tree.n_candidates:
            raise ExplanationError(
                f"gamma matrix shape {gammas.shape} does not match "
                f"{self._tree.n_candidates} candidates"
            )
        if gammas.size and float(gammas.min()) < 0:
            raise ExplanationError("gamma scores must be non-negative")
        batch = TopMBatch.empty(gammas.shape[0], self._m)
        if self._tree.is_flat:
            self._solve_flat(gammas, batch)
            return batch
        if chunk_size is None:
            bytes_per_segment = 8 * (self._m + 1) * max(self._tree.n_nodes, 1)
            chunk_size = int(np.clip(48_000_000 // bytes_per_segment, 16, 1024))
        for offset in range(0, gammas.shape[0], chunk_size):
            chunk = gammas[offset : offset + chunk_size]
            self._solve_chunk(chunk, batch, offset)
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
    # Forward DP over one chunk of segments
    # ------------------------------------------------------------------
    def _solve_chunk(self, gammas: np.ndarray, batch: TopMBatch, offset: int) -> None:
        tree = self._tree
        m = self._m
        n_segments = gammas.shape[0]
        tables: dict[int, np.ndarray] = {}

        for node in tree.iter_topological():
            candidate = tree.candidate_of(node)
            value = np.zeros((n_segments, m + 1), dtype=np.float64)
            for _, kids in tree.children_of(node):
                knapsack = np.zeros((n_segments, m + 1), dtype=np.float64)
                for child in kids:
                    totals = knapsack[:, self._rest] + tables[child][:, self._alloc]
                    knapsack[:, 1:] = np.maximum.reduceat(totals, self._starts, axis=1)
                np.maximum(value, knapsack, out=value)
            if candidate >= 0:
                np.maximum(value[:, 1:], gammas[:, candidate, None], out=value[:, 1:])
            tables[node] = value

        rows = slice(offset, offset + n_segments)
        batch.best[rows] = tables[_ROOT]
        self._backtrack(gammas, tables, batch, offset)

    # ------------------------------------------------------------------
    # Batched reconstruction of every segment's optimal selection
    # ------------------------------------------------------------------
    def _backtrack(
        self,
        gammas: np.ndarray,
        tables: dict[int, np.ndarray],
        batch: TopMBatch,
        offset: int,
    ) -> None:
        """Re-derive every segment's decisions top-down, level by level.

        A *task* is ``(node, segment, quota)``: the segment's optimum gives
        ``quota`` explanations to ``node``'s subtree.  All tasks of one
        drill-down level are grouped by node and decided together; ties go
        to selecting the node itself, then to the earliest drill-down
        dimension, and each quota split gives the smallest allocation to
        the last child that still attains the optimum.
        """
        n_segments = gammas.shape[0]
        nodes = np.full(n_segments, _ROOT, dtype=np.intp)
        rows = np.arange(n_segments, dtype=np.intp)
        quotas = np.full(n_segments, self._m, dtype=np.intp)
        chosen_rows: list[np.ndarray] = []
        chosen: list[np.ndarray] = []
        while nodes.size:
            order = np.argsort(nodes, kind="stable")
            nodes, rows, quotas = nodes[order], rows[order], quotas[order]
            unique, first = np.unique(nodes, return_index=True)
            bounds = np.append(first, nodes.size).tolist()
            tasks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for position, node in enumerate(unique.tolist()):
                block = slice(bounds[position], bounds[position + 1])
                picked = self._decide(
                    node, rows[block], quotas[block], gammas, tables, tasks
                )
                if picked is not None:
                    chosen_rows.append(picked)
                    chosen.append(np.full(picked.size, self._tree.candidate_of(node)))
            if not tasks:
                break
            nodes, rows, quotas = (np.concatenate(part) for part in zip(*tasks))

        if not chosen_rows:
            return
        rows = np.concatenate(chosen_rows)
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

    def _decide(
        self,
        node: int,
        rows: np.ndarray,
        quotas: np.ndarray,
        gammas: np.ndarray,
        tables: dict[int, np.ndarray],
        tasks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> np.ndarray | None:
        """Decide ``node`` for the given tasks; returns the rows selecting it.

        Rows that drill down push one task per child receiving quota.
        """
        tree = self._tree
        candidate = tree.candidate_of(node)
        best = np.zeros(rows.size, dtype=np.float64)
        choice = np.full(rows.size, -1, dtype=np.intp)
        if candidate >= 0:
            own = gammas[rows, candidate]
            take = own > best
            best[take] = own[take]
            choice[take] = 0
        groups = tree.children_of(node)
        decisions = []
        positions = np.arange(rows.size)
        for group, (_, kids) in enumerate(groups, start=1):
            value, decision = self._allocate(
                kids, None if node == _ROOT else rows, tables, rows.size
            )
            drill = value[positions, quotas]
            take = drill > best
            best[take] = drill[take]
            choice[take] = group
            decisions.append(decision)
        for group, (_, kids) in enumerate(groups, start=1):
            picked = np.flatnonzero(choice == group)
            if picked.size:
                self._split(kids, decisions[group - 1], picked, rows, quotas, tasks)
        selected = rows[choice == 0]
        return selected if selected.size else None

    def _allocate(
        self,
        kids: tuple[int, ...],
        rows: np.ndarray | None,
        tables: dict[int, np.ndarray],
        n_rows: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quota-allocation DP over one dimension's children, with decisions.

        Returns ``(value, decision)``: ``value[s, x]`` is the best total of
        ``x`` quotas spread over all ``kids`` and ``decision[p, s, x]`` the
        smallest allocation to kid ``p`` attaining the best total of ``x``
        quotas over kids ``0..p`` — what backtracking from the last kid
        needs.  ``rows`` selects the segments (``None``: all of them).
        """
        m = self._m
        rest, alloc, starts = self._rest, self._alloc, self._starts
        value = np.zeros((n_rows, m + 1), dtype=np.float64)
        decision = np.zeros((len(kids), n_rows, m + 1), dtype=np.int8)
        for position, kid in enumerate(kids):
            child = tables[kid] if rows is None else tables[kid][rows]
            totals = value[:, rest] + child[:, alloc]
            value[:, 1:] = np.maximum.reduceat(totals, starts, axis=1)
            hit = totals == value[:, self._quota]
            decision[position, :, 1:] = np.minimum.reduceat(
                np.where(hit, alloc, m + 1), starts, axis=1
            )
        return value, decision

    def _split(
        self,
        kids: tuple[int, ...],
        decision: np.ndarray,
        picked: np.ndarray,
        rows: np.ndarray,
        quotas: np.ndarray,
        tasks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Backtrack the quota split of ``picked`` rows, last kid first."""
        kid_nodes = np.asarray(kids, dtype=np.intp)
        n_kids = kid_nodes.size
        kid_positions = np.arange(n_kids)[:, None]
        remaining = quotas[picked].copy()
        below = np.full(picked.size, n_kids)
        # Each step hands quota to one more child, so at most m steps.
        for _ in range(self._m):
            allocations = decision[:, picked, remaining]  # (n_kids, rows)
            live = (allocations > 0) & (kid_positions < below)
            found = np.flatnonzero(live.any(axis=0))
            if not found.size:
                break
            last = n_kids - 1 - np.argmax(live[::-1, found], axis=0)
            given = allocations[last, found].astype(np.intp)
            tasks.append((kid_nodes[last], rows[picked[found]], given))
            remaining[found] -= given
            below[found] = last
