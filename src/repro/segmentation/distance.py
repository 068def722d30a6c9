"""Explanation-based distance between segments (paper section 4.1.3).

The distance between two segments is built from NDCG: treating segment
``P_i`` as the query, the ranked explanation list ``E*_m(P_j)`` of the other
segment as the retrieved documents, and the *rectified* difference score

    gamma_bar(E^r_j, P_i) = gamma(E^r_j, P_i) * 1[tau(E^r_j, P_j) == tau(E^r_j, P_i)]

as relevance (Table 2): an explanation that moves the KPI in opposite
directions on the two segments is treated as irrelevant.

This module is the *reference* implementation — direct, segment-at-a-time,
used by tests and by one-off distance queries.  The batched cost kernel
that the pipeline uses lives in :mod:`repro.segmentation.variance` and is
cross-checked against this one in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ca.cascade import TopMResult
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError

#: The eight within-segment variance designs evaluated in section 4.2.2.
VARIANTS = ("tse", "dist1", "dist2", "allpair", "Stse", "Sdist1", "Sdist2", "Sallpair")

#: Variants whose inner structure compares all object pairs instead of
#: object-vs-centroid (Eq. 10).
ALLPAIR_VARIANTS = frozenset({"allpair", "Sallpair"})


def dcg_weights(m: int) -> np.ndarray:
    """Discount weights ``1 / log2(r + 1)`` for ranks ``r = 1..m``."""
    ranks = np.arange(1, m + 1, dtype=np.float64)
    return 1.0 / np.log2(ranks + 1.0)


def ideal_dcg(result: TopMResult) -> float:
    """``DCG(P_i, E*_m(P_i))`` (Eq. 4): no rectification on the own segment."""
    total = 0.0
    for rank, gamma in enumerate(result.gammas, start=1):
        total += gamma / math.log2(rank + 1)
    return total


def dcg_cross(
    scorer: SegmentScorer,
    target: tuple[int, int],
    source_result: TopMResult,
) -> float:
    """``DCG(P_target, E*_m(P_source))`` (Eq. 3) with rectified relevance."""
    if not source_result.indices:
        return 0.0
    if len(source_result.taus) != len(source_result.indices):
        raise SegmentationError(
            "TopMResult lacks change-effect context; call with_context() first"
        )
    indices = np.asarray(source_result.indices)
    gammas, taus = scorer.gamma_tau(target[0], target[1], indices)
    total = 0.0
    for rank, (gamma_on_target, tau_on_target, tau_on_source) in enumerate(
        zip(gammas, taus, source_result.taus), start=1
    ):
        if int(tau_on_target) == int(tau_on_source):
            total += float(gamma_on_target) / math.log2(rank + 1)
    return total


def ndcg(
    scorer: SegmentScorer,
    target: tuple[int, int],
    target_result: TopMResult,
    source_result: TopMResult,
) -> float:
    """``NDCG(P_target, E*_m(P_source))`` (Eq. 5), clamped into [0, 1].

    Degenerate case: a flat target segment has ideal DCG 0; we define the
    NDCG as 1 there (a flat segment is perfectly explained by anything that
    contributes nothing) — the cross DCG is necessarily 0 too because every
    ``gamma(., P_target)`` vanishes.
    """
    denominator = ideal_dcg(target_result)
    if denominator <= 0.0:
        return 1.0
    numerator = dcg_cross(scorer, target, source_result)
    return min(numerator / denominator, 1.0)


def combine_ndcg(forward: float, backward: float, variant: str) -> float:
    """Distance from the two NDCG terms under a variance design variant.

    ``forward`` is ``NDCG(P_i, E*_m(P_j))`` (how well the *other* segment's
    explanations explain ``P_i``) and ``backward`` is the mirrored term.
    In the centroid-structured variants ``P_i`` is the centroid and ``P_j``
    the object, matching Eqs. 8 and 9.

    The ``S*`` variants replace the arithmetic mean in Eq. 6 with the
    quadratic (l2) mean; the one-sided variants square their single term.
    """
    if variant in ("tse", "allpair"):
        return 1.0 - (forward + backward) / 2.0
    if variant == "dist1":
        return 1.0 - forward
    if variant == "dist2":
        return 1.0 - backward
    if variant in ("Stse", "Sallpair"):
        return 1.0 - math.sqrt((forward * forward + backward * backward) / 2.0)
    if variant == "Sdist1":
        return 1.0 - forward * forward
    if variant == "Sdist2":
        return 1.0 - backward * backward
    raise SegmentationError(f"unknown variance variant {variant!r}; use one of {VARIANTS}")


def explanation_distance(
    scorer: SegmentScorer,
    segment_i: tuple[int, int],
    segment_j: tuple[int, int],
    result_i: TopMResult,
    result_j: TopMResult,
    variant: str = "tse",
) -> float:
    """``dist(P_i, P_j)`` (Eq. 6 and its variants), in ``[0, 1]``.

    ``result_i``/``result_j`` are the segments' top-m results (they carry
    the gamma values that form the ideal DCG denominators).
    """
    forward = ndcg(scorer, segment_i, result_i, result_j)
    backward = ndcg(scorer, segment_j, result_j, result_i)
    return combine_ndcg(forward, backward, variant)

