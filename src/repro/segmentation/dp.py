"""Dynamic program for optimal K-segmentation (paper section 5.1, Eq. 11).

``D(j, k) = min over j' of D(j', k-1) + cost(j', j)`` where ``cost`` is the
precomputed ``|P| * var(P)`` matrix.  The DP fills every ``k`` up to the
requested maximum in one pass, which is exactly what the elbow method of
section 6 needs ("collecting D(n, K) with varying K from 1 to 20 does not
add extra cost").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SegmentationError


@dataclass(frozen=True)
class SegmentationScheme:
    """One K-segmentation scheme ``P_K`` with its objective value.

    Attributes
    ----------
    boundaries:
        Reduced point indices ``(c_1, ..., c_{K+1})`` including both
        endpoints; there are ``K`` segments between consecutive entries.
    total_cost:
        ``sum_i |P_i| var(P_i)`` of the scheme.
    """

    boundaries: tuple[int, ...]
    total_cost: float

    @property
    def k(self) -> int:
        """Number of segments."""
        return len(self.boundaries) - 1

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cutting positions ``(c_2, ..., c_K)``."""
        return self.boundaries[1:-1]

    def segments(self) -> list[tuple[int, int]]:
        """``(start, stop)`` index pairs of each segment."""
        return list(zip(self.boundaries, self.boundaries[1:]))


def solve_k_segmentation(
    cost: np.ndarray, k_max: int, max_object_span: int | None = None
) -> list[SegmentationScheme]:
    """Optimal schemes for every ``K`` in ``1..k_max``.

    Parameters
    ----------
    cost:
        ``(N, N)`` cost matrix over reduced points; ``cost[i, j]`` is the
        weighted variance of segment ``[i, j]`` and ``inf`` marks
        disallowed segments (e.g. exceeding the sketch length constraint).
    k_max:
        Largest segment count of interest (paper caps at 20).
    max_object_span:
        Optional hard cap on ``j - i`` in *reduced* indices, an additional
        pruning knob; the usual length constraint is already encoded as
        ``inf`` entries in ``cost``.

    Returns
    -------
    list of :class:`SegmentationScheme`
        Entry ``r`` is the optimal scheme with ``K = r + 1`` segments.
        Infeasible ``K`` (larger than ``N - 1``) are omitted.

    Each ``k`` is filled for every segment end at once: one masked
    ``D(., k-1) + cost`` matrix and one ``argmin`` down its columns.  The
    first minimum wins, as in :func:`solve_k_segmentation_loop`, the
    one-cell-at-a-time reference it must match exactly.
    """
    n_points, k_max = _check(cost, k_max, max_object_span)
    rows = np.arange(n_points)[:, None]
    columns = np.arange(n_points)[None, :]
    # allowed[i, j]: segment [i, j] may close a scheme ending at j.
    allowed = rows < columns
    if max_object_span is not None:
        allowed &= rows >= columns - max_object_span

    table = np.full((n_points, k_max + 1), np.inf)
    parent = np.full((n_points, k_max + 1), -1, dtype=np.intp)
    table[0, 0] = 0.0
    for k in range(1, k_max + 1):
        # Segment ends j need at least k objects before them, so both the
        # previous end (row) and this one (column) start at k - 1 / k.
        candidates = table[k - 1 :, k - 1, None] + cost[k - 1 :, k:]
        candidates[~allowed[k - 1 :, k:]] = np.inf
        best = np.argmin(candidates, axis=0)
        value = candidates[best, np.arange(best.shape[0])]
        finite = np.isfinite(value)
        table[k:, k] = np.where(finite, value, np.inf)
        parent[k:, k] = np.where(finite, best + k - 1, -1)
    return _schemes(table, parent)


def solve_k_segmentation_loop(
    cost: np.ndarray, k_max: int, max_object_span: int | None = None
) -> list[SegmentationScheme]:
    """:func:`solve_k_segmentation`, one ``(j, k)`` cell at a time.

    The direct transcription of Eq. 11, kept as the reference the
    vectorized DP is tested against.
    """
    n_points, k_max = _check(cost, k_max, max_object_span)
    # table[j, k] = minimal cost covering [0, j] with k segments.
    table = np.full((n_points, k_max + 1), np.inf)
    parent = np.full((n_points, k_max + 1), -1, dtype=np.intp)
    table[0, 0] = 0.0
    for k in range(1, k_max + 1):
        # Segment ends j need at least k objects before them.
        for j in range(k, n_points):
            lo = k - 1
            if max_object_span is not None:
                lo = max(lo, j - max_object_span)
            candidates = table[lo:j, k - 1] + cost[lo:j, j]
            best = int(np.argmin(candidates))
            value = candidates[best]
            if np.isfinite(value):
                table[j, k] = value
                parent[j, k] = lo + best
    return _schemes(table, parent)


def _check(
    cost: np.ndarray, k_max: int, max_object_span: int | None
) -> tuple[int, int]:
    """Validate the DP inputs; returns ``(N, k_max capped at N - 1)``."""
    n_points = cost.shape[0]
    if cost.ndim != 2 or cost.shape[1] != n_points:
        raise SegmentationError(f"cost matrix must be square, got {cost.shape}")
    if n_points < 2:
        raise SegmentationError("need at least two points to segment")
    if k_max < 1:
        raise SegmentationError(f"k_max must be >= 1, got {k_max}")
    if max_object_span is not None and max_object_span < 1:
        raise SegmentationError(f"max_object_span must be >= 1, got {max_object_span}")
    return n_points, min(k_max, n_points - 1)


def _schemes(table: np.ndarray, parent: np.ndarray) -> list[SegmentationScheme]:
    """Backtrack the optimal scheme of every feasible ``K``."""
    n_points = table.shape[0]
    schemes: list[SegmentationScheme] = []
    for k in range(1, table.shape[1]):
        if not np.isfinite(table[n_points - 1, k]):
            continue
        boundaries = [n_points - 1]
        j, level = n_points - 1, k
        while level > 0:
            j = int(parent[j, level])
            boundaries.append(j)
            level -= 1
        boundaries.reverse()
        schemes.append(
            SegmentationScheme(
                boundaries=tuple(boundaries),
                total_cost=float(table[n_points - 1, k]),
            )
        )
    if not schemes:
        raise SegmentationError(
            "no feasible segmentation; the length constraint is too tight"
        )
    return schemes
