"""Exhaustive reference implementations used to test the CA dynamic program.

Three oracles:

* :func:`cascading_optimum` — exhaustive recursion over the *cascading*
  search space (choose one drill dimension per node, split quota among its
  values), which is exactly what the DP optimizes.  Exponential; only for
  tiny candidate sets in tests.
* :func:`is_non_overlapping` — the Definition 3.4 invariant: explanations
  are non-overlapping for *every* relation iff each pair conflicts on some
  shared attribute.
* :func:`reference_solve` — the cascading DP for one segment in plain
  Python scalars, with the per-segment recursive walk that reconstructs
  the selection.  The batched solver must return exactly its indices,
  gammas and ``Best`` values, ties included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ca.cascade import DrillDownTree, TopMResult, _ROOT
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction


def conflicts(left: Conjunction, right: Conjunction) -> bool:
    """True when the conjunctions assign different values to a shared attribute."""
    right_items = dict(right.items)
    for name, value in left.items:
        if name in right_items and right_items[name] != value:
            return True
    return False


def is_non_overlapping(explanations: Sequence[Conjunction]) -> bool:
    """Definition 3.4 check: every pair must conflict (disjoint in any R)."""
    for i, left in enumerate(explanations):
        for right in explanations[i + 1 :]:
            if not conflicts(left, right):
                return False
    return True


def cascading_optimum(
    explanations: Sequence[Conjunction], gamma: np.ndarray, m: int
) -> float:
    """Best total score reachable by cascading drill-downs, by brute force."""
    tree = DrillDownTree(explanations)
    gamma = np.asarray(gamma, dtype=np.float64)

    def node_value(node: int, quota: int) -> float:
        if quota <= 0:
            return 0.0
        best = 0.0
        candidate = tree.candidate_of(node)
        if candidate >= 0:
            best = max(best, float(gamma[candidate]))
        for _, kids in tree.children_of(node):
            best = max(best, split_value(kids, 0, quota))
        return best

    def split_value(kids: tuple[int, ...], position: int, quota: int) -> float:
        if position == len(kids) or quota == 0:
            return 0.0
        best = split_value(kids, position + 1, quota)
        for allocation in range(1, quota + 1):
            best = max(
                best,
                node_value(kids[position], allocation)
                + split_value(kids, position + 1, quota - allocation),
            )
        return best

    return node_value(_ROOT, m)


def reference_solve(
    explanations: Sequence[Conjunction], gamma: np.ndarray, m: int
) -> TopMResult:
    """Top-m selection of one segment, one scalar at a time.

    Node values come from the same recurrence as
    :class:`~repro.ca.cascade.CascadingAnalysts` (so every float is the
    same); the selection is re-derived by walking the optimal decisions
    from the root.  Ties go to selecting the node itself, then to the
    earliest drill-down dimension, and each quota split gives the smallest
    allocation to the last child that still attains the optimum.
    """
    tree = DrillDownTree(explanations)
    gamma = np.asarray(gamma, dtype=np.float64)
    values: dict[int, list[float]] = {}
    for node in tree.iter_topological():
        value = [0.0] * (m + 1)
        for _, kids in tree.children_of(node):
            drill = _knapsack(kids, m, values)[-1]
            value = [max(mine, theirs) for mine, theirs in zip(value, drill)]
        candidate = tree.candidate_of(node)
        if candidate >= 0:
            own = float(gamma[candidate])
            value = [value[0]] + [max(v, own) for v in value[1:]]
        values[node] = value

    selected: list[int] = []

    def walk(node: int, quota: int) -> None:
        if quota <= 0:
            return
        candidate = tree.candidate_of(node)
        best_value = 0.0
        best_choice: tuple | None = None
        if candidate >= 0 and float(gamma[candidate]) > best_value:
            best_value = float(gamma[candidate])
            best_choice = ("self",)
        for _, kids in tree.children_of(node):
            table = _knapsack(kids, quota, values)
            if table[-1][quota] > best_value:
                best_value = table[-1][quota]
                best_choice = ("drill", kids, table)
        if best_choice is None:
            return
        if best_choice[0] == "self":
            selected.append(candidate)
            return
        _, kids, table = best_choice
        remaining = quota
        for position in range(len(kids), 0, -1):
            child_value = values[kids[position - 1]]
            target = table[position][remaining]
            for allocation in range(remaining + 1):
                if table[position - 1][remaining - allocation] + child_value[allocation] == target:
                    walk(kids[position - 1], allocation)
                    remaining -= allocation
                    break
            else:  # pragma: no cover - float safety net, not expected to trigger
                raise ExplanationError("knapsack backtracking failed")

    walk(_ROOT, m)
    ranked = sorted(selected, key=lambda candidate: (-gamma[candidate], candidate))
    return TopMResult(
        indices=tuple(ranked),
        gammas=tuple(float(gamma[candidate]) for candidate in ranked),
        best=tuple(values[_ROOT]),
    )


def _knapsack(
    kids: tuple[int, ...], quota: int, values: dict[int, list[float]]
) -> list[list[float]]:
    """Quota-allocation DP over one dimension's children, with history.

    ``table[i][x]`` is the best total using the first ``i`` children and
    ``x`` quotas; the full history enables exact backtracking.
    """
    table = [[0.0] * (quota + 1)]
    for child in kids:
        child_value = values[child]
        previous = table[-1]
        row = [0.0] * (quota + 1)
        for x in range(quota + 1):
            best = previous[x]
            for y in range(1, x + 1):
                best = max(best, previous[x - y] + child_value[y])
            row[x] = best
        table.append(row)
    return table
