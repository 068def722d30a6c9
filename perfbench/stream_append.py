"""stream_append: one-day appends to a live stream, each followed by a read.

A ``StreamingExplainer`` with the default ``pinned`` schedule and the
serving configuration runs over a seeded synthetic stream whose first half
is the base.  One caller; each step appends the next day (the operation,
``StreamingExplainer.update``: the cube's write path and
``SegmentationCosts.extend``) and then explains a trailing window on the
live session (the follow-up), its length a seeded share of the stream
(``common.WINDOW_FRACTIONS``, the rule ``serve_mixed`` uses).  Every
append invalidates the scorers it touches, so every read derives its
scorer again.

A round appends ``ROUND_DAYS`` days to a fresh stream; rounds repeat, off
the clock in between, until the time is up, and a round always completes.
Step cost grows with the stream, so whole rounds keep a faster program
from being measured further along a longer stream than a slower one.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.core.streaming import StreamingExplainer
from repro.cube.datacube import ExplanationCube
from repro.datasets.synthetic import generate_synthetic

from common import (
    WINDOW_FRACTIONS,
    Ops,
    Outcome,
    balanced,
    latency_report,
    peak_rss_mb,
    result_fingerprint,
    same_cube,
)

#: ``(points, categories)`` of the whole stream per scale.
STREAM = {"full": (480, 256), "small": (120, 64)}
#: Days appended per round; a fixed-size (traced) pass is one round.
ROUND_DAYS = {"full": 48, "small": 10}
#: Every this many steps a read is checked against a fresh session.
CHECK_EVERY = 8
SETUP_REPEATS = 5


class Stream:
    """The generated stream: the base half plus one delta per day of a round."""

    def __init__(self, seed: int, scale: str):
        points, categories = STREAM[scale]
        dataset = generate_synthetic(
            seed=seed, snr_db=40.0, n_points=points, n_categories=categories
        ).dataset
        relation = dataset.relation
        positions, _ = relation.time_positions(None)
        order = np.argsort(positions, kind="stable")
        bounds = np.searchsorted(positions[order], np.arange(points + 1))
        half = points // 2
        self.measure = dataset.measure
        self.explain_by = list(dataset.explain_by)
        self.config = ExplainConfig.optimized()
        self.base = relation.take(order[: bounds[half]])
        self.deltas = [
            relation.take(order[bounds[day] : bounds[day + 1]])
            for day in range(half, half + ROUND_DAYS[scale])
        ]

    def start(self) -> StreamingExplainer:
        explainer = StreamingExplainer(
            self.base, self.measure, self.explain_by, config=self.config
        )
        explainer.refresh()
        return explainer

    def grown(self, days: int):
        """The base plus the first ``days`` deltas, as the stream saw them."""
        relation = self.base
        for delta in self.deltas[:days]:
            relation = relation.concat(delta)
        return relation


def _check_cube(stream: Stream, explainer: StreamingExplainer, days: int, outcome: Outcome) -> None:
    """The appended cube must equal a rebuild over the grown relation, as
    the benchmark grew it, not as the program did."""
    grown = stream.grown(days)
    if explainer.relation.n_rows != grown.n_rows:
        outcome.fail(f"stream holds {explainer.relation.n_rows} rows, expected {grown.n_rows}")
    rebuilt = ExplanationCube(grown, stream.explain_by, stream.measure)
    if not same_cube(explainer.session().cube, rebuilt):
        outcome.fail("appended cube differs from a rebuild over the grown relation")


def _check_reads(stream: Stream, samples: list, outcome: Outcome) -> None:
    """Sampled reads must equal a fresh session's explain of the window."""
    for days, start, stop, fingerprint in samples:
        fresh = ExplainSession(
            stream.grown(days), stream.measure, stream.explain_by, config=stream.config
        ).explain(start, stop)
        if result_fingerprint(fresh) != fingerprint:
            outcome.fail(f"read [{start}, {stop}] after {days} days differs from a fresh session")


def run(seed: int, seconds: float | None, scale: str, tracer=None) -> Outcome:
    """Timed when ``seconds`` is given, else exactly one round."""
    ops = Ops(tracer)
    outcome = Outcome()
    repeats = SETUP_REPEATS if seconds is not None else 1
    for _ in range(repeats):
        stream = explainer = None
        gc.collect()  # an earlier set-up's stream is freed now, not whenever
        started = time.perf_counter()
        stream = Stream(seed, scale)
        explainer = stream.start()
        outcome.setup_seconds.append(time.perf_counter() - started)

    windows = balanced(random.Random(seed), WINDOW_FRACTIONS)
    samples: list[tuple] = []
    steps = 0
    day = 0
    paused = 0.0
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    while True:
        if day == ROUND_DAYS[scale]:
            if deadline is None or time.perf_counter() >= deadline:
                break
            # Start the next round off the clock; the last round's cube is
            # checked after the run.
            begun = time.perf_counter()
            explainer = None
            gc.collect()
            explainer = stream.start()
            day = 0
            paused += time.perf_counter() - begun
        outcome.attempted += 2
        with ops.op("append"):
            begun = time.perf_counter()
            explainer.update(stream.deltas[day])
            outcome.ops.append(time.perf_counter() - begun)
        labels = explainer.session().series().labels
        start, stop = labels[-1 - round(next(windows) * (len(labels) - 1))], labels[-1]
        with ops.op("read"):
            begun = time.perf_counter()
            result = explainer.session().explain(start, stop)
            outcome.followups.append(time.perf_counter() - begun)
        steps += 1
        day += 1
        if steps % CHECK_EVERY == 1:
            samples.append((day, start, stop, result_fingerprint(result)))
    outcome.wall_seconds = time.perf_counter() - started - paused
    outcome.peak_rss_mb = peak_rss_mb()
    _check_cube(stream, explainer, day, outcome)
    _check_reads(stream, samples, outcome)

    outcome.report.update(latency_report("append", outcome.ops))
    outcome.report.update(latency_report("read", outcome.followups))
    return outcome
