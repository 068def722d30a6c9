"""Guess-and-verify optimization (paper section 5.3.1, ``O1``).

Instead of running the cascading-analysts DP over all ``epsilon``
candidates, guess that the answer lies within the ``m_bar`` highest-scoring
candidates, solve the much smaller DP, and verify optimality with the
sufficient condition of Eq. 12:

    Best[m] >= Best[m'] + sum_{1<=j<=m-m'} gamma(E_{r_{m_bar+j}})   for all 0 <= m' < m

where ``chi = [E_r1, E_r2, ...]`` is the candidate list sorted by gamma
descending.  Any feasible selection splits into explanations ranked within
the guess (score bounded by ``Best[m']``) and ones ranked after ``m_bar``
(bounded by the next ``m - m'`` scores in ``chi``), so passing the condition
proves the guessed answer optimal.  On failure the guess size doubles
(Figure 9) until it covers all candidates.

Batched variant
---------------
TSExplain calls O1 for thousands of segments.  Solving each segment's
30-candidate DP separately forfeits the batch vectorization of
:class:`~repro.ca.cascade.CascadingAnalysts`, so :meth:`solve_batch`
restricts to the *union* of the per-segment top-``m_bar`` prefixes and
solves all segments against that one (still small) DAG in a single batched
DP.  The Eq. 12 check stays sound: the union-restricted ``Best[m']`` upper-
bounds the per-segment restricted one, so passing the (harder) condition
still certifies optimality; failing segments retry with a doubled prefix.

Each union's DAG is derived in arrays from one
:class:`~repro.ca.cascade.DrillDownTree` over a superset of the candidates
(:meth:`~repro.ca.cascade.DrillDownTree.restrict`): a session passes the
one it prepared over its cube, whose candidates every window's filtered
list is an ordered subset of; without one the solver builds its own on
first use.  The derived DAG numbers nodes exactly as a ``DrillDownTree``
of the union would, so every result is the same bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ca.cascade import (
    CascadingAnalysts,
    DrillDownTree,
    TopMBatch,
    TopMResult,
    check_gammas,
)
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction

#: Paper's empirical initial guess size when m = 3.
DEFAULT_INITIAL_GUESS = 30

#: When the guessed union covers this fraction of all candidates, fall back
#: to the full solver — the restriction no longer saves anything.
_FULL_FALLBACK_FRACTION = 0.8

#: Scores :func:`ranked_prefix` partitions at once (4 MB of float64).
_RANK_BLOCK_ELEMENTS = 1 << 19


class GuessAndVerify:
    """Top-m solver that restricts the DP to high-score candidate prefixes.

    Parameters
    ----------
    explanations:
        The full candidate list (cube order); gamma vectors passed to
        :meth:`solve` index into it.
    m:
        Explanation quota.
    initial_guess:
        Starting prefix size ``m_bar`` (paper: 30 for m=3).
    dag:
        A :class:`~repro.ca.cascade.DrillDownTree` whose candidates include
        ``explanations`` in order; every restricted DAG is derived from it.
        Defaults to one built over ``explanations`` on first use.
    """

    def __init__(
        self,
        explanations: Sequence[Conjunction],
        m: int = 3,
        initial_guess: int = DEFAULT_INITIAL_GUESS,
        dag: DrillDownTree | None = None,
    ):
        if initial_guess < m:
            raise ExplanationError(
                f"initial guess {initial_guess} must be >= m ({m})"
            )
        self._explanations = tuple(explanations)
        self._m = m
        self._initial_guess = initial_guess
        self._dag = dag
        #: positions of ``explanations`` among the DAG's candidates
        self._positions: np.ndarray | None = None
        self._full_solver: CascadingAnalysts | None = None
        #: number of guess rounds performed across calls (telemetry/tests)
        self.iterations = 0

    @property
    def m(self) -> int:
        return self._m

    # ------------------------------------------------------------------
    def solve(self, gamma: np.ndarray) -> TopMResult:
        """Verified-optimal top-m result for one gamma vector."""
        return self.solve_batch(np.asarray(gamma, dtype=np.float64)[None, :])[0]

    def solve_batch(self, gammas: np.ndarray) -> TopMBatch:
        """Verified-optimal top-m results for a gamma matrix."""
        gammas = check_gammas(gammas, len(self._explanations))
        n_segments, n_candidates = gammas.shape
        results = TopMBatch.empty(n_segments, self._m)
        if n_segments == 0:
            return results
        pending = np.arange(n_segments)
        guess = min(self._initial_guess, n_candidates)
        while pending.size:
            self.iterations += 1
            if guess >= n_candidates:
                self._solve_full(gammas, pending, results)
                break
            rows = gammas if pending.size == n_segments else gammas[pending]
            order = ranked_prefix(rows, guess + self._m)
            union = np.unique(order[:, :guess])
            if union.shape[0] >= _FULL_FALLBACK_FRACTION * n_candidates:
                self._solve_full(gammas, pending, results)
                break
            solver = self._restricted_solver(union)
            local = solver.solve_batch(rows[:, union])
            tail = np.take_along_axis(rows, order[:, guess:], axis=1)
            verified = self._verified(local.best, tail)
            results.put(pending[verified], local.take(verified), idx_map=union)
            pending = pending[~verified]
            guess = min(2 * guess, n_candidates)
        return results

    # ------------------------------------------------------------------
    def _index(self) -> tuple[DrillDownTree, np.ndarray]:
        """The DAG restrictions come from, and this solver's positions in it."""
        if self._positions is None:
            if self._dag is not None:
                self._positions = self._dag.positions_of(self._explanations)
            if self._positions is None:
                self._dag = DrillDownTree(self._explanations)
                self._positions = np.arange(len(self._explanations))
        return self._dag, self._positions

    def _solve_full(
        self, gammas: np.ndarray, pending: np.ndarray, results: TopMBatch
    ) -> None:
        """Exact fallback over the complete candidate set."""
        if self._full_solver is None:
            dag, positions = self._index()
            self._full_solver = CascadingAnalysts(dag.restrict(positions), self._m)
        results.put(pending, self._full_solver.solve_batch(gammas[pending]))

    def _restricted_solver(self, union: np.ndarray) -> CascadingAnalysts:
        dag, positions = self._index()
        return CascadingAnalysts(dag.restrict(positions[union]), self._m)

    def _verified(self, best: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Rows passing the sufficient optimality condition of Eq. 12.

        ``best`` holds each row's ``Best[0..m]`` on the guess and ``tail``
        the gammas ranked right after the guess (up to ``m`` of them).
        """
        tail_prefix_sums = np.concatenate(
            [np.zeros((tail.shape[0], 1)), np.cumsum(tail, axis=1)], axis=1
        )
        best_m = best[:, self._m]
        slack = 1e-12 * np.maximum(1.0, np.abs(best_m))
        verified = np.ones(best.shape[0], dtype=bool)
        for m_prime in range(self._m):
            tail_sum = tail_prefix_sums[:, min(self._m - m_prime, tail.shape[1])]
            verified &= ~(best_m < best[:, m_prime] + tail_sum - slack)
        return verified


def ranked_prefix(gammas: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(-gammas, axis=1, kind="stable")[:, :count]``, without
    sorting whole rows.

    Each row's ``count`` best candidates (ties by position) are picked
    around the ``count``-th largest score with a partition, then only those
    are sorted.
    """
    n_rows, n_candidates = gammas.shape
    if count >= n_candidates:
        return np.argsort(-gammas, axis=1, kind="stable")
    block = max(_RANK_BLOCK_ELEMENTS // n_candidates, 1)
    if n_rows > block:  # bound the partition's copy of the scores
        return np.concatenate(
            [ranked_prefix(gammas[lo : lo + block], count) for lo in range(0, n_rows, block)]
        )
    kth = n_candidates - count
    threshold = np.partition(gammas, kth, axis=1)[:, kth, None]
    chosen = gammas >= threshold
    crowded = np.flatnonzero(np.count_nonzero(chosen, axis=1) > count)
    if crowded.size:
        # Too many ties at the threshold: keep the earliest-positioned.
        rows = gammas[crowded]
        above = rows > threshold[crowded]
        tied = rows == threshold[crowded]
        room = count - np.count_nonzero(above, axis=1)
        chosen[crowded] = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    picked = np.nonzero(chosen)[1].reshape(n_rows, count)
    scores = np.take_along_axis(gammas, picked, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.take_along_axis(picked, order, axis=1)
