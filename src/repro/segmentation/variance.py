"""Within-segment variance and bulk segment-cost precomputation (Eq. 7).

The K-segmentation DP needs ``cost(a, b) = |P| * var(P)`` for every
candidate segment ``P = [p_a, p_b]``.  :class:`SegmentationCosts`
precomputes that entire matrix:

1. score every *unit object* ``[p_x, p_x+1]`` and every candidate segment
   with the cascading-analysts solver (module b of the pipeline), which
   returns a :class:`~repro.ca.cascade.TopMBatch` of arrays;
2. evaluate the NDCG-based distance between each object and its segment's
   centroid (Eqs. 3–6) — vectorized across a whole block of segments, each
   padded to the widest span in its block and masked;
3. for the ``allpair`` variance structures (Eq. 10), precompute the full
   object-pair distance matrix once and reduce any segment's variance to a
   2-D prefix-sum lookup.

Segment results stay arrays; a :class:`~repro.ca.cascade.TopMResult` is
built only when :meth:`SegmentationCosts.segment_result` asks for one.
:func:`repro.segmentation.distance.explanation_distance` is the scalar
reference the batched kernel is tested against.

Restricted cut grids
--------------------
Sketching (section 5.3.2) re-runs the pipeline with candidate *cutting
positions* restricted to the sketch, but the within-segment variance is
still measured over **full-resolution unit objects** — the paper's phase-II
complexity ``O(m * |S|^2 * n)`` carries the factor ``n`` for exactly this
reason.  ``cut_positions`` therefore only restricts where segments may
start and end; objects are always the consecutive point pairs of the
underlying series.
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence

import numpy as np

from repro.ca.cascade import TopMBatch, TopMResult
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.distance import ALLPAIR_VARIANTS, VARIANTS, dcg_weights

#: Segment-object pairs (segments x widest span) one block of the batched
#: centroid cost evaluates at once.  Each temporary of a block is one such
#: plane, at most 256 KB of float64.
COST_BLOCK_ELEMENTS = 1 << 15


class TopMSolver(Protocol):
    """Anything that maps a gamma matrix to per-segment top-m results."""

    def solve_batch(self, gammas: np.ndarray) -> TopMBatch:  # pragma: no cover
        ...


def _dcg(gammas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_r gammas[..., r] * weights[r]``, summed rank by rank.

    The fixed summation order makes each row's value independent of how
    many rows are computed together.
    """
    total = gammas[..., 0] * weights[0]
    for rank in range(1, weights.shape[0]):
        total = total + gammas[..., rank] * weights[rank]
    return total


class SegmentationCosts:
    """Precomputed ``|P| * var(P)`` for all candidate segments.

    Parameters
    ----------
    scorer:
        Difference scorer over the query's explanation cube.
    solver:
        Top-m solver (:class:`~repro.ca.cascade.CascadingAnalysts` or
        :class:`~repro.ca.guess_verify.GuessAndVerify`).
    m:
        Explanation quota per segment (paper default 3).
    variant:
        Variance design, one of
        :data:`repro.segmentation.distance.VARIANTS` (paper default
        ``tse``).
    cut_positions:
        Sorted original time positions where segments may start/end
        (default: every point).  Only the cut grid shrinks — the variance
        of a segment is always a sum over the full-resolution unit objects
        it covers.  Reduced indices used throughout the public API index
        into this array.
    max_length:
        When given, only segments spanning at most this many original time
        steps get a finite cost — the phase-I constraint of sketching.
    segments:
        When given, costs are computed only for these reduced ``(i, j)``
        pairs.  The resulting cost matrix is *not* suitable for the DP —
        this mode exists for evaluating a fixed scheme (Table 7) and for
        targeted queries.
    """

    def __init__(
        self,
        scorer: SegmentScorer,
        solver: TopMSolver,
        m: int = 3,
        variant: str = "tse",
        cut_positions: Sequence[int] | np.ndarray | None = None,
        max_length: int | None = None,
        segments: Sequence[tuple[int, int]] | None = None,
    ):
        if variant not in VARIANTS:
            raise SegmentationError(
                f"unknown variance variant {variant!r}; use one of {VARIANTS}"
            )
        n_times = scorer.cube.n_times
        if n_times < 2:
            raise SegmentationError("need a series of at least two points")
        cut_positions = _checked_positions(cut_positions, n_times)
        if max_length is not None and max_length < int(np.diff(cut_positions).max()):
            raise SegmentationError(
                "max_length smaller than the widest gap between cut positions; "
                "no valid segmentation exists"
            )

        self._scorer = scorer
        self._solver = solver
        # The candidate tuple at construction time.  Appendable cubes
        # mutate in place but *replace* their explanations tuple when the
        # candidate set grows, so this captured reference is what
        # :meth:`extend` compares against.
        self._explanations = scorer.cube.explanations
        self._m = m
        self._variant = variant
        self._positions = cut_positions
        self._max_length = max_length
        self._only_segments = (
            None
            if segments is None
            else sorted({(int(i), int(j)) for i, j in segments})
        )
        self._n_points = cut_positions.shape[0]
        self._n_units = n_times - 1
        self._weights = dcg_weights(m)
        self.timings: dict[str, float] = {
            "precompute": 0.0,
            "cascading": 0.0,
            "segmentation": 0.0,
        }

        started = time.perf_counter()
        self._prepare_units()
        self.timings["precompute"] += time.perf_counter() - started

        self._init_results()
        if variant in ALLPAIR_VARIANTS:
            self._fill_costs_allpair()
        else:
            self._fill_costs_centroid()

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def variant(self) -> str:
        return self._variant

    @property
    def m(self) -> int:
        return self._m

    @property
    def positions(self) -> np.ndarray:
        """Original time positions of the cut grid."""
        return self._positions

    @property
    def n_points(self) -> int:
        """Number of cut-grid points (``N``); the DP may place ``N - 1`` cuts."""
        return self._n_points

    @property
    def cost_matrix(self) -> np.ndarray:
        """``(N, N)`` matrix of ``|P| * var(P)``; ``inf`` marks disallowed."""
        return self._cost

    def cost(self, start: int, stop: int) -> float:
        """``|P| * var(P)`` for the reduced segment ``[start, stop]``."""
        if not 0 <= start < stop < self._n_points:
            raise SegmentationError(
                f"invalid reduced segment [{start}, {stop}] for {self._n_points} points"
            )
        return float(self._cost[start, stop])

    def variance(self, start: int, stop: int) -> float:
        """``var(P)`` (Eq. 7 / Eq. 10) for the reduced segment.

        The normalizer is the number of unit objects the segment covers,
        i.e. its span in original time steps.
        """
        span = int(self._positions[stop] - self._positions[start])
        return self.cost(start, stop) / span

    def total_cost(self, boundaries: Sequence[int]) -> float:
        """Objective value ``sum |P_i| var(P_i)`` of a segmentation scheme.

        ``boundaries`` are reduced cut-grid indices including both
        endpoints, e.g. ``[0, 3, 7, N-1]`` for a 3-segment scheme.
        """
        boundaries = list(boundaries)
        if boundaries[0] != 0 or boundaries[-1] != self._n_points - 1:
            raise SegmentationError("boundaries must start at 0 and end at N-1")
        total = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            total += self.cost(left, right)
        return total

    def unit_result(self, index: int) -> TopMResult:
        """Top-m result of the ``index``-th full-resolution unit object."""
        result = self._units[index]
        return result.with_context(
            taus=self._unit_tau[index, : len(result)],
            source_segment=(index, index + 1),
        )

    # ------------------------------------------------------------------
    # Incremental growth (streaming appends; paper section 8)
    # ------------------------------------------------------------------
    def extend(
        self,
        scorer: SegmentScorer,
        solver: TopMSolver,
        cut_positions: Sequence[int] | np.ndarray | None = None,
        first_changed_position: int | None = None,
    ) -> "SegmentationCosts":
        """A new :class:`SegmentationCosts` over a *grown* series, reusing
        this instance's work for the unchanged prefix.

        ``scorer`` must score the same candidate set over a series at
        least as long as this instance's; ``first_changed_position`` is
        the smallest time position whose values may differ from the
        series this instance was built on
        (:attr:`repro.cube.delta.AppendInfo.first_changed_position`,
        minus the smoothing half-window when the scorer smooths).  It
        defaults to the old length — a pure extension.

        Two classes of work are reused instead of recomputed:

        * **unit objects** strictly before the changed region keep their
          gamma/tau rows and their cascading-analysts results (each unit
          is solved independently, so the reuse is bit-exact);
        * **segment costs** whose right endpoint lies before the changed
          region are carried over from this instance's cost matrix and
          result arrays (translated through original time positions, so
          the new cut grid may differ from the old one).

        Everything else — new units, and every segment touching the
        appended region — is computed fresh, so per-update cost is
        proportional to the appended suffix, not the total length.
        ``allpair`` variants reuse the unit structures but refill their
        pair-distance prefix sums in full (they are inherently quadratic).
        """
        new_cube = scorer.cube
        old_n_times = self._n_units + 1
        if new_cube.n_times < old_n_times:
            raise SegmentationError(
                "extend() requires a series at least as long as the original"
            )
        same_candidates = new_cube.explanations is self._explanations or (
            new_cube.n_explanations == len(self._explanations)
            and new_cube.explanations == self._explanations
        )
        if not same_candidates:
            raise SegmentationError(
                "extend() requires an unchanged candidate set; build fresh "
                "SegmentationCosts when candidates were added or re-filtered"
            )
        if first_changed_position is None:
            first_changed_position = old_n_times
        first_changed_position = max(0, min(first_changed_position, old_n_times))
        # Unit u spans positions [u, u+1]; it is reusable iff both lie
        # strictly before the changed region.
        keep_units = int(np.clip(first_changed_position - 1, 0, self._n_units))

        grown = SegmentationCosts.__new__(SegmentationCosts)
        grown._scorer = scorer
        grown._solver = solver
        grown._explanations = new_cube.explanations
        grown._m = self._m
        grown._variant = self._variant
        grown._max_length = None
        grown._only_segments = None
        grown._weights = self._weights
        n_times = new_cube.n_times
        grown._positions = _checked_positions(cut_positions, n_times)
        grown._n_points = grown._positions.shape[0]
        grown._n_units = n_times - 1
        grown.timings = {"precompute": 0.0, "cascading": 0.0, "segmentation": 0.0}

        started = time.perf_counter()
        grown._extend_units(self, keep_units)
        grown.timings["precompute"] += time.perf_counter() - started

        grown._init_results()
        if self._variant in ALLPAIR_VARIANTS:
            grown._fill_costs_allpair()
        else:
            carried = self._carry_costs(grown, first_changed_position)
            grown._fill_costs_centroid(skip=carried)
        return grown

    def _extend_units(self, previous: "SegmentationCosts", keep_units: int) -> None:
        """Unit structures for a grown series, reusing a valid prefix."""
        starts = np.arange(keep_units, self._n_units, dtype=np.intp)
        stops = starts + 1
        n_candidates = self._scorer.cube.n_explanations
        if starts.size:
            gamma_new, tau_new = self._scorer.gamma_tau_many(starts, stops)
            ca_started = time.perf_counter()
            solved = _with_width(self._solver.solve_batch(gamma_new.T), self._m)
            self.timings["cascading"] += time.perf_counter() - ca_started
        else:
            gamma_new = np.empty((n_candidates, 0))
            tau_new = np.empty((n_candidates, 0), dtype=np.int8)
            solved = TopMBatch.empty(0, self._m)
        self._gamma_unit = np.concatenate(
            [previous._gamma_unit[:, :keep_units], gamma_new], axis=1
        )
        self._tau_unit = np.concatenate(
            [previous._tau_unit[:, :keep_units], tau_new], axis=1
        )
        kept = previous._units.take(slice(0, keep_units))
        self._set_units(TopMBatch.concatenate([kept, solved]))

    def _carry_costs(
        self, grown: "SegmentationCosts", first_changed_position: int
    ) -> np.ndarray:
        """Copy still-valid segment costs and results into ``grown``.

        A segment is carried when its right endpoint lies strictly before
        the changed region; returns the carried pairs' keys in ``grown``
        so the fill skips them.  Translation goes through *original*
        positions, so the old and new cut grids may differ.
        """
        old_i, old_j = np.nonzero(np.triu(np.isfinite(self._cost), k=1))
        orig_i = self._positions[old_i]
        orig_j = self._positions[old_j]
        new_i = _index_in(grown._positions, orig_i)
        new_j = _index_in(grown._positions, orig_j)
        carry = (orig_j < first_changed_position) & (new_i >= 0) & (new_j >= 0)
        old_i, old_j, new_i, new_j = old_i[carry], old_j[carry], new_i[carry], new_j[carry]
        grown._cost[new_i, new_j] = self._cost[old_i, old_j]

        rows = self._rows_of(old_i, old_j)
        solved = rows >= 0
        if solved.any():
            grown._store_results(
                grown._key(new_i[solved], new_j[solved]),
                self._segments.take(rows[solved]),
                self._segment_tau[rows[solved]],
            )
        return grown._key(new_i, new_j)

    def segment_result(self, start: int, stop: int) -> TopMResult:
        """Top-m result of a reduced segment (lazily computed if needed)."""
        start, stop = int(start), int(stop)
        lo = int(self._positions[start])
        hi = int(self._positions[stop])
        if hi - lo == 1:
            return self.unit_result(lo)
        row = int(self._rows_of(np.asarray([start]), np.asarray([stop]))[0])
        if row >= 0:
            batch, taus = self._segments, self._segment_tau
        else:
            result = self._lazy_results.get((start, stop))
            if result is not None:
                return result
            batch, taus = self._solve_segments(np.asarray([lo]), np.asarray([hi]))
            row = 0
        result = batch[row]
        result = result.with_context(taus=taus[row, : len(result)], source_segment=(lo, hi))
        if batch is not self._segments:
            self._lazy_results[(start, stop)] = result
        return result

    # ------------------------------------------------------------------
    # Unit-object preparation (always full resolution)
    # ------------------------------------------------------------------
    def _prepare_units(self) -> None:
        starts = np.arange(self._n_units, dtype=np.intp)
        stops = starts + 1
        self._gamma_unit, self._tau_unit = self._scorer.gamma_tau_many(starts, stops)

        ca_started = time.perf_counter()
        units = self._solver.solve_batch(self._gamma_unit.T)
        self.timings["cascading"] += time.perf_counter() - ca_started
        self._set_units(_with_width(units, self._m))

    def _set_units(self, units: TopMBatch) -> None:
        """Adopt the unit objects' results and derive their arrays."""
        self._units = units
        self._unit_tau = np.zeros(units.idx.shape, dtype=np.int8)
        if units.valid.any():  # else there may be no candidate to index
            own_taus = self._tau_unit[units.idx, np.arange(units.idx.shape[0])[:, None]]
            self._unit_tau[units.valid] = own_taus[units.valid]
        self._ideal_unit = _dcg(units.gamma, self._weights)

    # ------------------------------------------------------------------
    # Segment results, kept as arrays keyed by reduced pair
    # ------------------------------------------------------------------
    def _init_results(self) -> None:
        self._cost = np.full((self._n_points, self._n_points), np.inf, dtype=np.float64)
        np.fill_diagonal(self._cost, 0.0)
        self._keys = np.empty(0, dtype=np.int64)
        self._segments = TopMBatch.empty(0, self._m)
        self._segment_tau = np.empty((0, self._m), dtype=np.int8)
        self._lazy_results: dict[tuple[int, int], TopMResult] = {}

    def _key(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.asarray(i, dtype=np.int64) * self._n_points + np.asarray(j)

    def _rows_of(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Row of each reduced pair in the result arrays, -1 when absent."""
        return _index_in(self._keys, self._key(i, j))

    def _store_results(self, keys: np.ndarray, batch: TopMBatch, taus: np.ndarray) -> None:
        """Append results for new keys, keeping the arrays sorted by key."""
        keys = np.concatenate([self._keys, keys])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._segments = TopMBatch.concatenate([self._segments, batch]).take(order)
        self._segment_tau = np.concatenate([self._segment_tau, taus])[order]

    # ------------------------------------------------------------------
    # Segment solving helpers
    # ------------------------------------------------------------------
    def _segment_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Reduced ``(i, j)`` pairs needing a cost, honouring constraints.

        Pairs spanning exactly one unit object are excluded — their cost is
        0 by definition and their result is the unit's.
        """
        n_points = self._n_points
        if self._only_segments is not None:
            pairs = np.asarray(self._only_segments, dtype=np.intp).reshape(-1, 2)
            i, j = pairs[:, 0], pairs[:, 1]
        elif self._max_length is None:
            i, j = np.triu_indices(n_points, k=1)
        else:
            # Positions strictly increase, so a span of at most max_length
            # steps covers at most max_length reduced indices.
            width = min(self._max_length, n_points - 1)
            i = np.repeat(np.arange(n_points), width)
            j = i + np.tile(np.arange(1, width + 1), n_points)
            inside = j < n_points
            i, j = i[inside], j[inside]
        span = self._positions[j] - self._positions[i]
        keep = span > 1
        if self._max_length is not None:
            keep &= span <= self._max_length
        return i[keep], j[keep]

    def _solve_segments(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[TopMBatch, np.ndarray]:
        """Top-m results and winner taus of segments given by positions."""
        gammas = self._scorer.gamma_many(starts, stops)
        ca_started = time.perf_counter()
        batch = _with_width(self._solver.solve_batch(gammas.T), self._m)
        self.timings["cascading"] += time.perf_counter() - ca_started
        # Effects are only reported for each segment's m winners, so
        # fetch those instead of materializing the full tau matrix.
        taus = np.zeros(batch.idx.shape, dtype=np.int8)
        if batch.valid.any():
            taus[batch.valid] = self._scorer.tau_many(starts, stops, batch.idx)[batch.valid]
        return batch, taus

    # ------------------------------------------------------------------
    # Centroid-structured variants (tse, dist1, dist2, S-variants)
    # ------------------------------------------------------------------
    def _fill_costs_centroid(self, skip: np.ndarray | None = None) -> None:
        # Single-object segments cost 0 by definition: the object is its
        # own centroid.
        unit_pairs = np.flatnonzero(np.diff(self._positions) == 1)
        self._cost[unit_pairs, unit_pairs + 1] = 0.0

        pair_i, pair_j = self._segment_pairs()
        if skip is not None and skip.size:
            fresh = ~np.isin(self._key(pair_i, pair_j), skip)
            pair_i, pair_j = pair_i[fresh], pair_j[fresh]
        epsilon = max(self._scorer.cube.n_explanations, 1)
        chunk = int(np.clip(4_000_000 // (8 * epsilon), 64, 8192))
        for offset in range(0, pair_i.shape[0], chunk):
            block_i = pair_i[offset : offset + chunk]
            block_j = pair_j[offset : offset + chunk]
            starts = self._positions[block_i]
            stops = self._positions[block_j]
            batch, taus = self._solve_segments(starts, stops)
            distance_started = time.perf_counter()
            self._store_results(self._key(block_i, block_j), batch, taus)
            self._cost[block_i, block_j] = self._centroid_costs(starts, stops, batch, taus)
            self.timings["segmentation"] += time.perf_counter() - distance_started

    def _centroid_costs(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        centroids: TopMBatch,
        centroid_taus: np.ndarray,
    ) -> np.ndarray:
        """``sum_x dist(object_x, centroid)`` of every segment.

        Segments are taken in blocks of similar span (sorted by span) so
        that padding to a block's widest span stays small, and each block
        holds at most :data:`COST_BLOCK_ELEMENTS` segment-object pairs.
        """
        spans = stops - starts
        order = np.argsort(spans, kind="stable")
        costs = np.empty(starts.shape[0], dtype=np.float64)
        done = 0
        while done < order.shape[0]:
            ahead = order[done : done + COST_BLOCK_ELEMENTS]
            padded = spans[ahead] * np.arange(1, ahead.shape[0] + 1)
            count = max(int(np.searchsorted(padded, COST_BLOCK_ELEMENTS, side="right")), 1)
            rows = ahead[:count]
            costs[rows] = self._centroid_block(
                starts[rows], stops[rows], centroids.take(rows), centroid_taus[rows]
            )
            done += count
        return costs

    def _centroid_block(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        centroids: TopMBatch,
        centroid_taus: np.ndarray,
    ) -> np.ndarray:
        """The centroid costs of one block, padded to its widest span.

        Ranks are visited one at a time so every temporary is one
        ``(segments, span)`` plane; DCG sums add rank by rank.
        """
        weights = self._weights
        spans = stops - starts
        offsets = np.arange(int(spans.max()))
        inside = offsets[None, :] < spans[:, None]  # (P, L)
        # Padding objects repeat the segment's first object, then mask.
        objects = np.where(inside, starts[:, None] + offsets[None, :], starts[:, None])

        # --- NDCG(object_x, E*(centroid)) per object ----------------------
        ideal = self._ideal_unit[objects]
        numerator = np.zeros_like(ideal)
        for rank in np.flatnonzero(centroids.valid.any(axis=0)):
            candidate = centroids.idx[:, rank, None]
            agree = self._tau_unit[candidate, objects] == centroid_taus[:, rank, None]
            agree &= centroids.valid[:, rank, None]
            numerator += self._gamma_unit[candidate, objects] * agree * weights[rank]
        centroid_explains_obj = np.ones_like(ideal)
        positive = ideal > 0.0
        centroid_explains_obj[positive] = np.minimum(
            numerator[positive] / ideal[positive], 1.0
        )
        del numerator

        # --- NDCG(centroid, E*(object_x)) per object ----------------------
        ideal_centroid = _dcg(centroids.gamma, weights)  # (P,)
        obj_explains_centroid = np.ones_like(ideal)
        explained = ideal_centroid > 0.0
        if explained.any():
            cube = self._scorer.cube
            lo = starts[explained, None]
            hi = stops[explained, None]
            overall_change = cube.overall_values[hi] - cube.overall_values[lo]
            obj = objects[explained]
            excluded = cube.excluded_values
            numerator_back = np.zeros(obj.shape)
            for rank in range(weights.shape[0]):
                candidate = self._units.idx[obj, rank]
                delta = overall_change - (excluded[candidate, hi] - excluded[candidate, lo])
                agree = np.sign(delta).astype(np.int8) == self._unit_tau[obj, rank]
                agree &= self._units.valid[obj, rank]
                rel = self._scorer.metric.score(delta, overall_change)
                numerator_back += rel * agree * weights[rank]
            obj_explains_centroid[explained] = np.minimum(
                numerator_back / ideal_centroid[explained, None], 1.0
            )

        # combine_ndcg convention: first argument is NDCG(P_i, E*(P_j))
        # with P_i the centroid (Eq. 8).
        distance = self._combine(obj_explains_centroid, centroid_explains_obj)
        distance[~inside] = 0.0
        # A running sum adds each row left to right, whatever the padding.
        return np.cumsum(distance, axis=1)[np.arange(spans.shape[0]), spans - 1]

    # ------------------------------------------------------------------
    # All-pair variants (Eq. 10)
    # ------------------------------------------------------------------
    def _fill_costs_allpair(self) -> None:
        distance_started = time.perf_counter()
        n_units = self._n_units
        # ndcg_pair[x, y] = NDCG(object_x, E*(object_y)) for all unit pairs.
        rel = self._gamma_unit[self._units.idx]  # (n_units, m, n_units): [y, r, x]
        agree = self._tau_unit[self._units.idx] == self._unit_tau[:, :, None]
        masked = rel * agree * self._units.valid[:, :, None]
        numerator = np.einsum("yrx,r->yx", masked, self._weights)
        ndcg_pair = np.ones((n_units, n_units))
        positive = self._ideal_unit > 0.0
        ndcg_pair[positive, :] = np.minimum(
            numerator.T[positive, :] / self._ideal_unit[positive, None], 1.0
        )
        pair_distance = self._combine(ndcg_pair, ndcg_pair.T)
        np.fill_diagonal(pair_distance, 0.0)

        # 2-D prefix sums make every segment's pair total an O(1) lookup.
        prefix = np.zeros((n_units + 1, n_units + 1))
        prefix[1:, 1:] = np.cumsum(np.cumsum(pair_distance, axis=0), axis=1)
        unit_pairs = np.flatnonzero(np.diff(self._positions) == 1)
        self._cost[unit_pairs, unit_pairs + 1] = 0.0
        i, j = self._segment_pairs()
        lo = self._positions[i]
        hi = self._positions[j]
        span = hi - lo
        block = prefix[hi, hi] - prefix[lo, hi] - prefix[hi, lo] + prefix[lo, lo]
        n_pairs = span * (span - 1) / 2.0
        variance = (block / 2.0) / n_pairs
        self._cost[i, j] = span * variance
        self.timings["segmentation"] += time.perf_counter() - distance_started

    # ------------------------------------------------------------------
    def _combine(self, forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
        """Vectorized :func:`repro.segmentation.distance.combine_ndcg`."""
        variant = self._variant
        if variant in ("tse", "allpair"):
            return 1.0 - (forward + backward) / 2.0
        if variant == "dist1":
            return 1.0 - forward
        if variant == "dist2":
            return 1.0 - backward
        if variant in ("Stse", "Sallpair"):
            return 1.0 - np.sqrt((forward * forward + backward * backward) / 2.0)
        if variant == "Sdist1":
            return 1.0 - forward * forward
        return 1.0 - backward * backward


def scheme_total_variance(
    scorer: SegmentScorer,
    solver: TopMSolver,
    boundaries: Sequence[int],
    m: int = 3,
    variant: str = "tse",
) -> tuple[float, list[float]]:
    """Full-resolution objective of a fixed segmentation scheme.

    ``boundaries`` are *original* time positions (endpoints included).
    Only the scheme's own segments are scored, so this stays cheap even
    when the scheme came from a sketch-restricted search — it is how the
    optimization-quality comparison (Table 7) evaluates Vanilla and O1+O2
    on equal footing.

    Returns ``(total, per_segment_variances)``.
    """
    pairs = list(zip(boundaries, boundaries[1:]))
    costs = SegmentationCosts(scorer, solver, m=m, variant=variant, segments=pairs)
    per_segment = [costs.variance(i, j) for i, j in pairs]
    total = sum(costs.cost(i, j) for i, j in pairs)
    return float(total), per_segment


def _with_width(batch: TopMBatch, m: int) -> TopMBatch:
    """``batch`` cut or zero-padded to ``m`` ranks, for a solver whose own
    quota differs from the costs' ``m`` (missing ``Best`` entries repeat
    the last one)."""
    if batch.m == m:
        return batch
    fitted = TopMBatch.empty(len(batch), m)
    keep = min(m, batch.m)
    fitted.idx[:, :keep] = batch.idx[:, :keep]
    fitted.gamma[:, :keep] = batch.gamma[:, :keep]
    fitted.valid[:, :keep] = batch.valid[:, :keep]
    fitted.best[:, : keep + 1] = batch.best[:, : keep + 1]
    fitted.best[:, keep + 1 :] = batch.best[:, keep : keep + 1]
    return fitted


def _checked_positions(
    cut_positions: Sequence[int] | np.ndarray | None, n_times: int
) -> np.ndarray:
    """Validated cut grid; every position when ``cut_positions`` is None."""
    if cut_positions is None:
        return np.arange(n_times, dtype=np.intp)
    cut_positions = np.asarray(cut_positions, dtype=np.intp)
    if cut_positions.ndim != 1 or cut_positions.shape[0] < 2:
        raise SegmentationError("cut_positions must be a 1-D array of >= 2 points")
    if np.any(np.diff(cut_positions) <= 0):
        raise SegmentationError("cut_positions must be strictly increasing")
    if cut_positions[0] < 0 or cut_positions[-1] >= n_times:
        raise SegmentationError(
            f"cut_positions out of range for a series of length {n_times}"
        )
    return cut_positions


def _index_in(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in a sorted array, -1 when absent."""
    found = np.searchsorted(sorted_values, values)
    inside = found < sorted_values.shape[0]
    inside[inside] = sorted_values[found[inside]] == values[inside]
    return np.where(inside, found, -1)
