"""Property tests: each array-native run-tier kernel against the slow
reference that stays in the tree.

* the vectorized K-segmentation DP against the one-cell-at-a-time loop;
* batched cascading-analysts reconstruction against the scalar walk of
  :func:`repro.ca.bruteforce.reference_solve` (and its optimum against
  the exhaustive :func:`~repro.ca.bruteforce.cascading_optimum`);
* the batched centroid cost against the scalar NDCG distance;
* ``SegmentationCosts.extend`` against a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ca.bruteforce import cascading_optimum, reference_solve
from repro.ca.cascade import CascadingAnalysts, DrillDownTree, candidates_are_flat
from repro.ca.guess_verify import GuessAndVerify, ranked_prefix
from repro.core import pipeline as pipeline_module
from repro.core.config import ExplainConfig
from repro.core.pipeline import ExplainPipeline
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.relation.predicates import Conjunction
from repro.segmentation import variance
from repro.segmentation.distance import ALLPAIR_VARIANTS, VARIANTS, explanation_distance
from repro.segmentation.dp import solve_k_segmentation, solve_k_segmentation_loop
from repro.segmentation.variance import SegmentationCosts
from tests.conftest import build_relation, two_attr_relation

CENTROID_VARIANTS = [v for v in VARIANTS if v not in ALLPAIR_VARIANTS]
METRICS = ("absolute-change", "relative-change", "risk-ratio")


# ----------------------------------------------------------------------
# K-segmentation DP
# ----------------------------------------------------------------------
def _schemes_or_error(solve, cost, k_max, span):
    try:
        return [
            (scheme.boundaries, float(scheme.total_cost).hex())
            for scheme in solve(cost, k_max, span)
        ]
    except SegmentationError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vectorized_dp_is_byte_identical_to_the_loop(data):
    n = data.draw(st.integers(2, 12), label="n")
    # Few distinct values force ties; inf marks disallowed segments.
    entry = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, np.inf]),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    cost = np.asarray(
        data.draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=np.float64
    ).reshape(n, n)
    k_max = data.draw(st.integers(1, n + 1), label="k_max")
    span = data.draw(st.none() | st.integers(1, n), label="max_object_span")
    assert _schemes_or_error(solve_k_segmentation, cost, k_max, span) == (
        _schemes_or_error(solve_k_segmentation_loop, cost, k_max, span)
    )


def test_dp_rejects_a_non_positive_span_cap():
    cost = np.zeros((4, 4))
    for solve in (solve_k_segmentation, solve_k_segmentation_loop):
        with pytest.raises(SegmentationError, match="max_object_span"):
            solve(cost, 2, max_object_span=0)


# ----------------------------------------------------------------------
# Cascading Analysts: batched backtracking
# ----------------------------------------------------------------------
def conj(**items) -> Conjunction:
    return Conjunction.from_items(sorted(items.items()))


def _candidates(data) -> list[Conjunction]:
    n_a = data.draw(st.integers(1, 3), label="values of A")
    n_b = data.draw(st.integers(0, 2), label="values of B")
    n_c = data.draw(st.integers(0, 2), label="values of C")
    pool = [conj(A=a) for a in range(n_a)]
    pool += [conj(B=b) for b in range(n_b)] + [conj(C=c) for c in range(n_c)]
    pool += [conj(A=a, B=b) for a in range(n_a) for b in range(n_b)]
    pool += [conj(A=a, C=c) for a in range(n_a) for c in range(n_c)]
    pool += [conj(A=a, B=b, C=c) for a in range(n_a) for b in range(n_b) for c in range(n_c)]
    # Dropping candidates leaves virtual nodes behind.
    keep = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    kept = [c for c, flag in zip(pool, keep) if flag]
    return kept or pool[:1]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_reconstruction_matches_the_reference_walk(data):
    candidates = _candidates(data)
    m = data.draw(st.integers(1, 3), label="m")
    n_rows = data.draw(st.integers(1, 6), label="segments")
    # Small integers tie often; sums of them are exact, so every tie is real.
    score = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 50.0, allow_nan=False))
    gammas = np.asarray(
        data.draw(
            st.lists(
                st.lists(score, min_size=len(candidates), max_size=len(candidates)),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=np.float64,
    )
    solver = CascadingAnalysts(DrillDownTree(candidates), m=m)
    batch = solver.solve_batch(gammas, chunk_size=data.draw(st.integers(1, 4)))
    assert batch.idx.shape == batch.gamma.shape == batch.valid.shape == (n_rows, m)
    for row in range(n_rows):
        reference = reference_solve(candidates, gammas[row], m)
        if candidates_are_flat(candidates) and not np.all(gammas[row] == np.round(gammas[row])):
            # The flat fast path sorts; with inexact sums only the optimum
            # is comparable.
            assert batch[row].total == pytest.approx(reference.total)
            continue
        assert batch[row] == reference
        assert reference.total == pytest.approx(cascading_optimum(candidates, gammas[row], m))
        # Valid ranks form a prefix and padding is zeroed.
        kept = len(reference.indices)
        assert batch.valid[row].tolist() == [True] * kept + [False] * (m - kept)
        assert not batch.gamma[row, kept:].any() and not batch.idx[row, kept:].any()


def test_ties_resolve_like_the_reference():
    """Self before drill, earlier dimension first, earliest children."""
    candidates = [conj(A=0), conj(A=1), conj(B=0), conj(B=1), conj(A=0, B=0)]
    gammas = np.asarray(
        [
            [2.0, 2.0, 2.0, 2.0, 2.0],  # A and B tie: A (earlier) wins
            [4.0, 0.0, 0.0, 0.0, 4.0],  # A=0 ties its child: A=0 itself
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ]
    )
    solver = CascadingAnalysts(DrillDownTree(candidates), m=2)
    batch = solver.solve_batch(gammas)
    for row in range(gammas.shape[0]):
        assert batch[row] == reference_solve(candidates, gammas[row], 2)
    assert batch[0].indices == (0, 1)
    assert batch[1].indices == (0,)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ranked_prefix_is_the_stable_argsort_prefix(data):
    n_rows = data.draw(st.integers(1, 8))
    n_candidates = data.draw(st.integers(1, 30))
    values = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 5.0, allow_nan=False))
    gammas = np.asarray(
        data.draw(st.lists(values, min_size=n_rows * n_candidates, max_size=n_rows * n_candidates))
    ).reshape(n_rows, n_candidates)
    count = data.draw(st.integers(1, n_candidates + 3))
    expected = np.argsort(-gammas, axis=1, kind="stable")[:, :count]
    assert np.array_equal(ranked_prefix(gammas, count), expected)


# ----------------------------------------------------------------------
# Batched centroid costs and streaming extension
# ----------------------------------------------------------------------
def _relation(seed: int, n_times: int, two_dims: bool):
    rng = np.random.default_rng(seed)
    rows = {"t": [], "a": [], "b": [], "v": []}
    for t in range(n_times):
        for a in ("x", "y", "z"):
            for b in ("p", "q") if two_dims else ("p",):
                rows["t"].append(f"t{t:03d}")
                rows["a"].append(a)
                rows["b"].append(b)
                # Integers repeat, so scores tie and effects cancel.
                rows["v"].append(float(rng.integers(0, 6)))
    dims = ["a", "b"] if two_dims else ["a"]
    return build_relation(rows, dimensions=["a", "b"], measures=["v"], time="t"), dims


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_times=st.integers(3, 12),
    two_dims=st.booleans(),
    guess_verify=st.booleans(),
    variant=st.sampled_from(CENTROID_VARIANTS),
    metric=st.sampled_from(METRICS),
    m=st.integers(1, 3),
    block=st.sampled_from([1, 7, 1 << 15]),
)
def test_batched_centroid_costs_match_the_scalar_distance(
    seed, n_times, two_dims, guess_verify, variant, metric, m, block
):
    relation, dims = _relation(seed, n_times, two_dims)
    cube = ExplanationCube(relation, dims, "v")
    scorer = SegmentScorer(cube, metric)
    if guess_verify:
        solver = GuessAndVerify(cube.explanations, m=m, initial_guess=m)
    else:
        solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
    with pytest.MonkeyPatch.context() as patch:
        # Tiny blocks pad segments of different spans together.
        patch.setattr(variance, "COST_BLOCK_ELEMENTS", block)
        costs = SegmentationCosts(scorer, solver, m=m, variant=variant)
    for start in range(n_times - 1):
        for stop in range(start + 2, n_times):
            centroid = costs.segment_result(start, stop)
            winners = np.asarray(centroid.indices, dtype=np.intp)
            assert centroid.taus == tuple(int(t) for t in scorer.tau(start, stop, winners))
            reference = sum(
                explanation_distance(
                    scorer, (start, stop), (x, x + 1), centroid, costs.unit_result(x), variant
                )
                for x in range(start, stop)
            )
            assert costs.cost(start, stop) == pytest.approx(reference, abs=1e-9)


def _day_rows(days, seed):
    rng = np.random.default_rng(seed)
    rows = {"t": [], "cat": [], "m": []}
    for t in days:
        for cat in ("a", "b", "c"):
            rows["t"].append(f"t{t:03d}")
            rows["cat"].append(cat)
            rows["m"].append(float(rng.integers(0, 9)))
    return build_relation(rows, dimensions=["cat"], measures=["m"], time="t")


def _results(costs: SegmentationCosts) -> list:
    return [
        costs.segment_result(i, j)
        for i in range(costs.n_points - 1)
        for j in range(i + 1, costs.n_points)
        if np.isfinite(costs.cost(i, j))
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_old=st.integers(3, 10),
    n_new=st.integers(0, 5),
    late=st.integers(0, 3),
    variant=st.sampled_from(CENTROID_VARIANTS),
    restricted=st.booleans(),
)
def test_extend_is_byte_identical_to_a_fresh_build(
    seed, n_old, n_new, late, variant, restricted
):
    cube = ExplanationCube(_day_rows(range(n_old), seed), ["cat"], "m")
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
    costs = SegmentationCosts(scorer, solver, variant=variant)
    # Late rows revise the last ``late`` days before new days arrive.
    revised = range(max(n_old - late, 0), n_old + n_new)
    info = cube.append(_day_rows(revised, seed + 1))
    grid = None
    if restricted:
        grid = np.unique(np.r_[0, np.arange(1, cube.n_times, 2), cube.n_times - 1])
    extended = costs.extend(
        scorer, solver, cut_positions=grid, first_changed_position=info.first_changed_position
    )
    fresh = SegmentationCosts(scorer, solver, variant=variant, cut_positions=grid)
    assert extended.cost_matrix.tobytes() == fresh.cost_matrix.tobytes()
    assert _results(extended) == _results(fresh)
    assert [extended.unit_result(u) for u in range(cube.n_times - 1)] == [
        fresh.unit_result(u) for u in range(cube.n_times - 1)
    ]


# ----------------------------------------------------------------------
# Drill-down DAG builds per explain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("guess_verify", [False, True])
def test_explain_builds_the_full_drill_down_tree_at_most_once(monkeypatch, guess_verify):
    # Long enough that the sketch keeps fewer points than the series.
    relation = two_attr_relation(n=100)
    config = ExplainConfig(
        k=2, use_sketch=True, use_guess_verify=guess_verify, use_filter=False
    )
    pipeline = ExplainPipeline(relation, "m", ["a", "b"], config=config)
    n_candidates = pipeline.prepare().cube.n_explanations
    full_builds = []
    original = DrillDownTree.__init__

    def counting_init(self, explanations):
        if len(explanations) == n_candidates:
            full_builds.append(1)
        original(self, explanations)

    monkeypatch.setattr(DrillDownTree, "__init__", counting_init)
    rescored = []
    original_rescore = pipeline_module.scheme_total_variance

    def counting_rescore(*args, **kwargs):
        rescored.append(1)
        return original_rescore(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "scheme_total_variance", counting_rescore)
    assert pipeline.run().segments
    assert rescored == [1]
    # The sketch has the scheme's variance re-scored at full resolution,
    # reusing the run's solver instead of building a second DAG.
    # Guess-and-verify builds it lazily: its guesses cover all 11
    # candidates here, so it falls back to the full DAG once.
    assert len(full_builds) == 1
