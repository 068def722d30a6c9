"""Property tests: each array-native run-tier kernel against the slow
reference that stays in the tree.

* the vectorized K-segmentation DP against the one-cell-at-a-time loop;
* the level-batched cascading-analysts kernel against the scalar walk of
  :func:`repro.ca.bruteforce.reference_solve` (and its optimum against
  the exhaustive :func:`~repro.ca.bruteforce.cascading_optimum`), on
  full DAGs and through guess-and-verify;
* DAGs derived by :meth:`DrillDownTree.restrict` against a fresh
  ``DrillDownTree`` of the same candidates;
* the batched centroid cost against the scalar NDCG distance;
* ``SegmentationCosts.extend`` against a fresh build.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ca.bruteforce import cascading_optimum, is_non_overlapping, reference_solve
from repro.ca.cascade import CascadingAnalysts, DrillDownTree, candidates_are_flat
from repro.ca.guess_verify import GuessAndVerify, ranked_prefix
from repro.core import pipeline as pipeline_module
from repro.core.config import ExplainConfig
from repro.core.pipeline import ExplainPipeline
from repro.core.session import ExplainSession
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import ExplanationError, SegmentationError
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


def _hierarchy(data) -> tuple[list[Conjunction], list[Conjunction]]:
    """Every conjunction of orders 1-3 over 2-3 attributes, and a random
    subset of it in the same order; dropped sub-conjunctions leave
    virtual nodes behind."""
    attributes = "ABC"[: data.draw(st.integers(2, 3), label="attributes")]
    most = 3 if len(attributes) == 2 else 2
    values = [data.draw(st.integers(1, most), label=f"values of {name}") for name in attributes]
    pool = [
        Conjunction.from_items((attributes[name], value) for name, value in zip(names, combo))
        for order in (1, 2, 3)
        for names in itertools.combinations(range(len(attributes)), order)
        for combo in itertools.product(*(range(values[name]) for name in names))
    ]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    return pool, [c for c, flag in zip(pool, keep) if flag] or pool[-1:]


def _gamma_rows(data, n_candidates: int) -> np.ndarray:
    """Scores with many zeros and exact ties (sums of small integers are
    exact, so every tie is real)."""
    n_rows = data.draw(st.integers(1, 9), label="segments")
    score = st.one_of(
        st.just(0.0), st.integers(0, 3).map(float), st.floats(0.0, 50.0, allow_nan=False)
    )
    rows = data.draw(
        st.lists(
            st.lists(score, min_size=n_candidates, max_size=n_candidates),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    if data.draw(st.booleans(), label="one row all tied"):
        rows[0] = [rows[0][0]] * n_candidates
    return np.asarray(rows, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_level_kernel_matches_the_reference_on_hierarchies(data):
    _, kept = _hierarchy(data)
    candidates = data.draw(st.permutations(kept), label="candidate order")
    assume(not candidates_are_flat(candidates))
    m = data.draw(st.integers(1, 3), label="m")
    gammas = _gamma_rows(data, len(candidates))
    chunk_size = data.draw(st.sampled_from([1, 3, 5, 7, None]), label="chunk_size")
    solver = CascadingAnalysts(DrillDownTree(candidates), m=m)
    batch = solver.solve_batch(gammas, chunk_size=chunk_size)
    for row in range(gammas.shape[0]):
        assert batch[row] == reference_solve(candidates, gammas[row], m)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_guess_and_verify_doubling_and_fallback_run_the_kernel(data):
    pool, candidates = _hierarchy(data)
    assume(not candidates_are_flat(candidates))
    m = data.draw(st.integers(1, 3), label="m")
    gammas = _gamma_rows(data, len(candidates))
    # The smallest guess doubles, and falls back to the full DAG, often.
    batch = GuessAndVerify(candidates, m=m, initial_guess=m).solve_batch(gammas)
    for row in range(gammas.shape[0]):
        result = batch[row]
        assert result.total == pytest.approx(reference_solve(candidates, gammas[row], m).total)
        assert result.gammas == tuple(float(g) for g in gammas[row, list(result.indices)])
        assert is_non_overlapping([candidates[i] for i in result.indices])
    # Deriving every DAG from an index over a superset (a session's cube)
    # changes no bit.
    indexed = GuessAndVerify(candidates, m=m, initial_guess=m, dag=DrillDownTree(pool))
    again = indexed.solve_batch(gammas)
    for name in ("idx", "gamma", "valid", "best"):
        assert getattr(again, name).tobytes() == getattr(batch, name).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_restricted_dag_is_the_tree_of_the_union(data):
    _, kept = _hierarchy(data)
    candidates = data.draw(st.permutations(kept), label="candidate order")
    members = data.draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    union = [i for i, flag in enumerate(members) if flag]
    dag = DrillDownTree(candidates)
    subset = [candidates[i] for i in union]
    assert dag.positions_of(subset).tolist() == union
    layout = dag.restrict(np.asarray(union, dtype=np.intp))
    tree = DrillDownTree(subset)
    assert (layout.n_nodes, layout.n_candidates) == (tree.n_nodes, tree.n_candidates)
    assert layout.is_flat == tree.is_flat == candidates_are_flat(subset)
    # Nodes in first appearance over each member, then its proper subsets
    # in bitmask order, members in ascending position.
    expected = [()]
    for conj in subset:
        items = conj.items
        closure = [items] + [
            tuple(items[k] for k in range(len(items)) if mask >> k & 1)
            for mask in range(2 ** len(items) - 1)
        ]
        expected += [sub for sub in closure if sub not in expected]
    assert tree.n_nodes == len(expected)
    positions = {conj.items: position for position, conj in enumerate(subset)}
    for node, items in enumerate(expected):
        assert layout.conjunction(node).items == tree.conjunction(node).items == items
        assert layout.candidate_of(node) == tree.candidate_of(node) == positions.get(items, -1)
        # Kids have one item more, grouped by its attribute (by name), in
        # node-id order.
        groups: dict[str, list[int]] = {}
        for kid, kid_items in enumerate(expected):
            if len(kid_items) == len(items) + 1 and set(items) < set(kid_items):
                (extra,) = set(kid_items) - set(items)
                groups.setdefault(extra[0], []).append(kid)
        children = tuple((dim, tuple(kids)) for dim, kids in sorted(groups.items()))
        assert layout.children_of(node) == tree.children_of(node) == children
    if len(union) >= 2:
        assert dag.positions_of(subset[::-1]) is None
    assert dag.positions_of([Conjunction.from_items([("Z", 0)])]) is None


def _cascading(candidates):
    return CascadingAnalysts(DrillDownTree(candidates), m=3)


def _guess_and_verify(candidates):
    return GuessAndVerify(candidates, m=3, initial_guess=3)


@pytest.mark.parametrize("make_solver", [_cascading, _guess_and_verify])
@pytest.mark.parametrize(
    "bad", [-1.0, np.nan, np.inf], ids=["negative-outside-the-guess", "nan", "inf"]
)
def test_solvers_reject_negative_and_non_finite_gammas(make_solver, bad):
    candidates = [conj(A=a) for a in range(3)] + [conj(B=b) for b in range(3)]
    candidates += [conj(A=0, B=0), conj(A=1, B=2)]
    # Ranked last, so outside guess-and-verify's initial guess of 3.
    gamma = np.linspace(10.0, 1.0, len(candidates))
    gamma[-1] = bad
    with pytest.raises(ExplanationError, match="finite and non-negative"):
        make_solver(candidates).solve_batch(gamma[None, :])


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
    # Guess-and-verify builds it on first use and derives every guess's
    # DAG from it.
    assert len(full_builds) == 1


@pytest.mark.parametrize("guess_verify", [False, True])
def test_a_warm_session_explain_builds_no_dag_and_no_conjunction(monkeypatch, guess_verify):
    relation = two_attr_relation(n=100)
    # A small guess makes guess-and-verify restrict, double and fall back.
    config = ExplainConfig.optimized(k=2, initial_guess=3).updated(use_guess_verify=guess_verify)
    session = ExplainSession(relation, "m", ["a", "b"], config=config)
    labels = session.series().labels
    session.explain(labels[0], labels[60])
    built = []
    original_init = DrillDownTree.__init__

    def counting_init(self, explanations):
        built.append("DrillDownTree")
        original_init(self, explanations)

    original_items = Conjunction.from_sorted_items.__func__

    def counting_items(cls, items):
        built.append("Conjunction.from_sorted_items")
        return original_items(cls, items)

    monkeypatch.setattr(DrillDownTree, "__init__", counting_init)
    monkeypatch.setattr(Conjunction, "from_sorted_items", classmethod(counting_items))
    assert session.explain(labels[30], labels[99]).segments
    assert built == []
