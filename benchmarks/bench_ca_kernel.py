"""Cascading Analysts kernel: guess-and-verify batches of real windows.

Guess-and-verify (paper section 5.3.1, ``O1``) is where a warm query on
a hierarchical dataset spends its CA time.  This bench records the gamma
batches that seeded ``/explain``-style windows of sp500 and liquor hand
to :meth:`GuessAndVerify.solve_batch`, then replays them through it
against the session's drill-down DAG, as a served query does.  It
reports, per dataset:

* ``replay_ms``: the best of three replays of every batch;
* the work behind it, which only changes when behaviour does: gamma
  rows requested, rows the inner :class:`CascadingAnalysts` solves
  ran, and the summed nodes, (node, dimension) groups and knapsack
  level steps of the DAGs those solves ran on.

A sample of the inner solves' rows is checked byte for byte against the
scalar :func:`repro.ca.bruteforce.reference_solve` on the same
candidates.  Each run appends one record to ``BENCH_ca.json``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.ca.bruteforce import reference_solve
from repro.ca.cascade import CascadingAnalysts
from repro.ca.guess_verify import GuessAndVerify
from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from support import append_run, emit, git_rev, is_paper_scale, real_dataset, scale, with_smoothing

BENCH_JSON = Path(__file__).parent / "BENCH_ca.json"
DATASETS = ("sp500", "liquor")
WINDOW_FRACTIONS = (0.10, 0.15, 0.20, 0.25)
METRICS = ("absolute-change", "relative-change")
SEED = 1
#: Inner solves whose rows are checked against the scalar reference, and
#: rows checked in each.
CHECKED_SOLVES = 3
CHECKED_ROWS = 2


@contextmanager
def _recording(cls, name: str, sink: list):
    """Append ``(solver, args, result)`` of every ``cls.name`` call to ``sink``."""
    original = getattr(cls, name)

    def recorded(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        sink.append((self, args, result))
        return result

    setattr(cls, name, recorded)
    try:
        yield sink
    finally:
        setattr(cls, name, original)


def _windows(labels: tuple, count: int, rng: random.Random):
    for index in range(count):
        length = round(WINDOW_FRACTIONS[index % len(WINDOW_FRACTIONS)] * (len(labels) - 1))
        start = rng.randint(0, len(labels) - 1 - length)
        yield labels[start], labels[start + length], METRICS[index % len(METRICS)]


def _solver_candidates(layout) -> list:
    """A restricted DAG's candidates, by candidate position."""
    candidates = [None] * layout.n_candidates
    for node in np.flatnonzero(layout.candidates >= 0):
        candidates[layout.candidates[node]] = layout.conjunction(node)
    return candidates


def _dataset_run(name: str, n_windows: int):
    """The dataset's record, the rows checked and its replay."""
    dataset = real_dataset(name)
    config = with_smoothing(dataset, ExplainConfig.optimized())
    session = ExplainSession(
        dataset.relation, dataset.measure, dataset.explain_by, config=config
    )
    labels = session.series().labels
    rng = random.Random(SEED)
    batches: list = []
    with _recording(GuessAndVerify, "solve_batch", batches):
        for start, stop, metric in _windows(labels, n_windows, rng):
            session.explain(start, stop, config=config.updated(metric=metric))
    dag = session.candidate_dag()
    replays = [
        (solver._explanations, solver.m, solver._initial_guess, args[0])
        for solver, args, _ in batches
    ]

    def replay() -> list:
        return [
            GuessAndVerify(explanations, m=m, initial_guess=guess, dag=dag).solve_batch(gammas)
            for explanations, m, guess, gammas in replays
        ]

    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        replay()
        seconds.append(time.perf_counter() - started)
    inner: list = []
    with _recording(CascadingAnalysts, "solve_batch", inner):
        results = replay()
    for (_, _, recorded), result in zip(batches, results):
        for field in ("idx", "gamma", "valid", "best"):
            assert getattr(result, field).tobytes() == getattr(recorded, field).tobytes()

    layouts = [solver.tree for solver, _, _ in inner]
    checked = 0
    for solver, args, result in inner[:: max(len(inner) // CHECKED_SOLVES, 1)][:CHECKED_SOLVES]:
        candidates = _solver_candidates(solver.tree)
        gammas = args[0]
        for row in np.linspace(0, gammas.shape[0] - 1, CHECKED_ROWS).astype(int):
            assert result[row] == reference_solve(candidates, gammas[row], solver.m)
            checked += 1
    record = {
        "name": name,
        "windows": n_windows,
        "candidates": dag.n_candidates,
        "batches": len(replays),
        "rows": int(sum(gammas.shape[0] for *_, gammas in replays)),
        "ca_solves": len(inner),
        "ca_rows": int(sum(args[0].shape[0] for _, args, _ in inner)),
        "dag_nodes": int(sum(layout.n_nodes for layout in layouts)),
        "dag_groups": int(sum(layout.n_groups for layout in layouts)),
        "level_steps": int(
            sum(step.step_ptr.size - 1 for layout in layouts for step in layout.steps)
        ),
        "replay_ms": round(min(seconds) * 1000, 3),
    }
    return record, checked, replay


def bench_ca_kernel(benchmark):
    n_windows = 16 if is_paper_scale() else 6
    runs = []
    checked = 0
    for name in DATASETS:
        record, rows, replay = _dataset_run(name, n_windows)
        runs.append(record)
        checked += rows
    # The official pytest-benchmark number: one replay of the last
    # dataset's (liquor's) batches.
    benchmark.pedantic(replay, rounds=1, iterations=1)

    lines = [
        f"{'dataset':<8} {'cands':>6} {'batches':>7} {'rows':>6} {'CA rows':>7} "
        f"{'nodes':>7} {'groups':>7} {'steps':>6} {'replay ms':>10}"
    ]
    for run in runs:
        lines.append(
            f"{run['name']:<8} {run['candidates']:>6} {run['batches']:>7} {run['rows']:>6} "
            f"{run['ca_rows']:>7} {run['dag_nodes']:>7} {run['dag_groups']:>7} "
            f"{run['level_steps']:>6} {run['replay_ms']:>10.1f}"
        )
    lines.append(f"rows checked byte for byte against reference_solve: {checked}")
    emit("ca_kernel", "\n".join(lines))

    append_run(
        BENCH_JSON,
        {
            "bench": "ca_kernel",
            "scale": scale(),
            "git_rev": git_rev(),
            "datasets": runs,
            "reference_rows_checked": checked,
        },
    )
