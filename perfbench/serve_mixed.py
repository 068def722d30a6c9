"""serve_mixed: distinct ``/explain`` queries from a closed loop of analysts.

An in-process ``ServeApp`` over loopback HTTP serves four datasets with
their serving defaults, every cube prepared during set-up.  Each client
takes the next window from one seeded plan (its length a seeded share of
the dataset's span, ``common.WINDOW_FRACTIONS``), asks for it, waits for
the answer, then asks for the same window again at another ``k`` — the
way an analyst re-asks a chart at another K.  No two requests share every
parameter, so request coalescing and any whole-result cache never hit and
the run tier does the work.

The operation is the first ask of a window; the follow-up is the re-ask.
Windows come in rounds; once the time is up the current round completes,
so every run weighs the mix alike.
"""

from __future__ import annotations

import gc
import itertools
import random
import threading
import time
from typing import NamedTuple

from repro.core.session import ExplainSession
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import generate_synthetic
from repro.serve.registry import DatasetSpec, default_config_for

from common import (
    WINDOW_FRACTIONS,
    Ops,
    Outcome,
    Server,
    balanced,
    current_rss_bytes,
    latency_report,
    peak_rss_mb,
    result_fingerprint,
    served_fingerprint,
)

#: Closed-loop clients; the number of cores of the 2-core reference box.
CLIENTS = 2
#: Datasets in the order windows visit them: flat CA on synthetic and
#: covid-daily, hierarchical CA with guess-and-verify on sp500 and liquor.
#: Flat datasets come twice per cycle, so the median falls among flat-CA
#: queries and the 90th percentile among hierarchical ones.
DATASET_CYCLE = ("synthetic", "covid-daily", "sp500", "synthetic", "covid-daily", "liquor")
#: Windows per round: every dataset sees each window fraction a whole
#: number of times.
ROUND_WINDOWS = len(DATASET_CYCLE) * len(WINDOW_FRACTIONS)
#: ``None`` leaves the parameter to the dataset's serving default.
K_PAIRS = tuple(
    (first, second)
    for first in (None, 2, 3, 4, 5)
    for second in (None, 2, 3, 4, 5)
    if first != second
)
SMOOTHING_CHOICES = (None, 1, 3, 5)
METRIC_CHOICES = ("absolute-change", "relative-change")
#: Windows of a fixed-size (traced) pass.
FIXED_WINDOWS = {"full": 12, "small": 4}
SETUP_REPEATS = 3


def load_datasets(seed: int) -> dict:
    synthetic = generate_synthetic(seed=seed, snr_db=40.0, n_points=240, n_categories=256)
    datasets = {"synthetic": synthetic.dataset}
    for name in ("covid-daily", "sp500", "liquor"):
        datasets[name] = load_dataset(name)
    return datasets


def time_labels(dataset) -> tuple:
    return dataset.relation.time_positions(None)[1]


def _start(datasets: dict) -> Server:
    """A server with every cube prepared and every dataset warmed up."""
    server = Server(
        [
            DatasetSpec(name=name, loader=lambda dataset=dataset: dataset)
            for name, dataset in datasets.items()
        ]
    )
    for name in datasets:
        server.registry.session(name)
    # One small explain per dataset; ``k=1`` never appears in the plan.
    # Not an operation: it opens no operation span when tracing.
    client = server.client(Ops(None))
    try:
        for name, dataset in datasets.items():
            labels = time_labels(dataset)
            params = {"dataset": name, "start": labels[0], "stop": labels[16], "k": "1"}
            _, status, payload = client.get("warmup", "/explain", params)
            if status != 200:
                raise RuntimeError(f"warm-up {params} failed: {payload}")
    finally:
        client.close()
    return server


def plan(seed: int, datasets: dict):
    """Endless seeded windows, each a pair of distinct requests."""
    rng = random.Random(seed)
    labels = {name: time_labels(dataset) for name, dataset in datasets.items()}
    lengths = {name: balanced(rng, WINDOW_FRACTIONS) for name in datasets}
    k_pairs = balanced(rng, K_PAIRS)
    smoothings = balanced(rng, SMOOTHING_CHOICES)
    metrics = balanced(rng, METRIC_CHOICES)
    seen: set[tuple] = set()
    for index in itertools.count():
        name = DATASET_CYCLE[index % len(DATASET_CYCLE)]
        series = labels[name]
        length = round(next(lengths[name]) * (len(series) - 1))
        start = rng.randint(0, len(series) - 1 - length)
        while (name, start, length) in seen:
            start = rng.randint(0, len(series) - 1 - length)
        seen.add((name, start, length))
        base = {
            "dataset": name,
            "start": series[start],
            "stop": series[start + length],
            "metric": next(metrics),
        }
        smoothing = next(smoothings)
        if smoothing is not None:
            base["smoothing"] = str(smoothing)
        asks = []
        for k in next(k_pairs):
            params = dict(base)
            if k is not None:
                params["k"] = str(k)
            asks.append(params)
        yield asks


class Served(NamedTuple):
    """One request of the closed loop and what came back."""

    window: int
    ask: int
    params: dict
    seconds: float
    status: int
    fingerprint: object


def _load(server: Server, windows, ops: Ops, deadline: float | None) -> list[Served]:
    """Run the closed loop over ``(number, asks)`` windows, until they run
    out or, once ``deadline`` has passed, at the end of a round."""
    lock = threading.Lock()
    handed = 0
    records: list[Served] = []
    errors: list[BaseException] = []

    def analyst() -> None:
        nonlocal handed
        client = server.client(ops)
        try:
            while True:
                with lock:
                    timed_out = deadline is not None and time.perf_counter() >= deadline
                    if timed_out and handed % ROUND_WINDOWS == 0:
                        return
                    window, asks = next(windows, (None, None))
                    handed += 1
                if asks is None:
                    return
                for ask, params in enumerate(asks):
                    kind = "explain" if ask == 0 else "explain_followup"
                    try:
                        seconds, status, payload = client.get(kind, "/explain", params)
                    except OSError as error:
                        seconds, status, payload = 0.0, 0, {"error": repr(error)}
                    fingerprint = served_fingerprint(payload) if status == 200 else payload
                    with lock:
                        records.append(Served(window, ask, params, seconds, status, fingerprint))
        except Exception as error:  # re-raised on the calling thread below
            errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=analyst) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


def _replay(datasets: dict, records: list[Served], outcome: Outcome) -> None:
    """Check served answers against an in-process session (untimed).

    Every request must succeed.  Answers are replayed for every other full
    cycle of ``DATASET_CYCLE`` windows: every dataset, about half the
    requests, so the check costs about half the measured time.
    """
    sessions = {}
    for name, dataset in datasets.items():
        sessions[name] = ExplainSession(
            dataset.relation,
            measure=dataset.measure,
            explain_by=dataset.explain_by,
            aggregate=dataset.aggregate,
            config=default_config_for(dataset),
        ).prepare()
    for record in records:
        params = record.params
        if record.status != 200:
            outcome.fail(f"/explain {params} -> {record.status} {record.fingerprint}")
            continue
        if (record.window // len(DATASET_CYCLE)) % 2:
            continue
        session = sessions[params["dataset"]]
        overrides = {"metric": params["metric"]}
        if "k" in params:
            overrides["k"] = int(params["k"])
        if "smoothing" in params:
            overrides["smoothing_window"] = int(params["smoothing"])
        result = session.explain(
            params["start"], params["stop"], config=session.config.updated(**overrides)
        )
        if result_fingerprint(result) != record.fingerprint:
            outcome.fail(f"/explain {params} differs from an in-process session")


def run(seed: int, seconds: float | None, scale: str, tracer=None) -> Outcome:
    """Timed when ``seconds`` is given, else a fixed number of windows."""
    ops = Ops(tracer)
    outcome = Outcome()
    repeats = SETUP_REPEATS if seconds is not None else 1
    server = None
    for _ in range(repeats):
        if server is not None:
            server.close()
            server = None
            gc.collect()  # the closed server's cubes are freed now, not whenever
        started = time.perf_counter()
        datasets = load_datasets(seed)
        server = _start(datasets)
        outcome.setup_seconds.append(time.perf_counter() - started)
    windows = enumerate(plan(seed, datasets))
    if seconds is None:
        windows = iter([next(windows) for _ in range(FIXED_WINDOWS[scale])])
    try:
        warm = server.scheduler.stats()
        started = time.perf_counter()
        deadline = started + seconds if seconds is not None else None
        records = _load(server, windows, ops, deadline)
        outcome.wall_seconds = time.perf_counter() - started
        outcome.peak_rss_mb = peak_rss_mb()
        outcome.serve_stats = {
            "misses": server.registry.stats()["misses"],
            "memory_bytes": server.registry.memory_bytes(),
            "rss_growth_bytes": current_rss_bytes() - server.rss_before,
        }
    finally:
        scheduler = server.close()
    for key in ("wait_seconds", "submitted", "coalesced"):
        outcome.serve_stats[key] = scheduler[key] - warm[key]
    ok = [r for r in records if r.status == 200]
    outcome.ops = [r.seconds for r in ok if r.ask == 0]
    outcome.followups = [r.seconds for r in ok if r.ask == 1]
    outcome.attempted = len(records)
    _replay(datasets, records, outcome)
    explains = [r.seconds for r in ok]
    outcome.report.update(latency_report("explain", explains))
    outcome.report["explain_qps"] = (len(ok) / outcome.wall_seconds, "1/s", len(ok))
    return outcome
