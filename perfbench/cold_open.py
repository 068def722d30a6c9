"""cold_open: first answers on sources the server has never seen.

Set-up writes seeded ``npz:`` and ``csv:`` sources — synthetic series of
61k to 492k rows over 64 to 1024 categories, and the bundled sp500 and
liquor relations, so one-attribute and multi-attribute cube builds both
appear — and starts a server over an empty cache dir with artifacts on.

One client, one request at a time.  A round sends one whole-range ``/diff``
per source (the operation: ingest, cube build, rollup-cache and artifact
writes, then one diff), restarts the server over the same cache dir and
sends the same ``/diff`` again (the follow-up: served from the artifact,
which the registry's artifact counters confirm).
Rounds repeat, each over a fresh cache dir, until the time is up; a round
always completes, so every run weighs the sources alike.  Peak memory is
read after the first round.
"""

from __future__ import annotations

import gc
import tempfile
import time
from pathlib import Path

from repro.cube.datacube import ExplanationCube
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import generate_synthetic
from repro.relation.csvio import write_csv
from repro.serve.registry import DatasetSpec, SessionRegistry
from repro.store import resolve_source, write_npz

from common import (
    Ops,
    Outcome,
    Server,
    current_rss_bytes,
    diff_fingerprint,
    latency_report,
    peak_rss_mb,
    same_cube,
)

#: ``(name, (points, categories) or bundled dataset, scheme)`` per scale.
SOURCES = {
    "full": (
        ("syn-long", (960, 64), "npz"),
        ("syn-wide", (480, 512), "csv"),
        ("syn-huge", (480, 1024), "npz"),
        ("sp500", "sp500", "csv"),
        ("liquor", "liquor", "npz"),
    ),
    "small": (
        ("syn-long", (240, 64), "npz"),
        ("syn-wide", (120, 128), "csv"),
        ("sp500", "sp500", "csv"),
    ),
}
SETUP_REPEATS = 3


class Source:
    """One written source file and the query that opens it."""

    def __init__(self, name: str, spec, scheme: str, seed: int, directory: Path):
        if isinstance(spec, str):
            dataset = load_dataset(spec)
        else:
            points, categories = spec
            dataset = generate_synthetic(
                seed=seed, snr_db=40.0, n_points=points, n_categories=categories
            ).dataset
        relation = dataset.relation
        path = directory / f"{name}.{scheme}"
        if scheme == "npz":
            write_npz(relation, path)
            self.uri = f"npz:{path}"
        else:
            write_csv(relation, path)
            schema = relation.schema
            self.uri = (
                f"csv:{path}?time={schema.require_time()}"
                f"&dimensions={','.join(schema.dimension_names())}"
                f"&measure={dataset.measure}"
            )
        labels = relation.time_positions(None)[1]
        self.name = name
        self.rows = relation.n_rows
        self.params = {"dataset": name, "start": str(labels[0]), "stop": str(labels[-1])}


def _server(sources: list[Source], cache_dir: Path) -> Server:
    """A server over every source, with artifacts in ``cache_dir``."""
    specs = [DatasetSpec.from_source(source.uri, name=source.name) for source in sources]
    return Server(specs, cache_dir=str(cache_dir), artifacts=True)


def _close(server: Server, stats: dict) -> dict:
    """Stop ``server``, adding its scheduler and registry counters to
    ``stats``; returns its own registry counters."""
    scheduler = server.close()
    for key in ("wait_seconds", "submitted", "coalesced"):
        stats[key] = stats.get(key, 0) + scheduler[key]
    registry = server.registry.stats()
    stats["misses"] = stats.get("misses", 0) + registry["misses"]
    return registry


def _check_artifacts(
    registry: dict, counter: str, sources: list[Source], kind: str, outcome: Outcome
) -> None:
    """A cold server stores one artifact per source; a reopened one serves
    every source from them (a miss would rebuild from the source instead)."""
    if registry[counter] != len(sources):
        outcome.fail(f"{kind}: {counter} {registry[counter]}, expected {len(sources)}")


def _setup(seed: int, scale: str) -> tuple[list[Source], Path, Server]:
    directory = Path(tempfile.mkdtemp(prefix="sources-"))
    sources = [
        Source(name, spec, scheme, seed + index, directory)
        for index, (name, spec, scheme) in enumerate(SOURCES[scale])
    ]
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-"))
    return sources, cache_dir, _server(sources, cache_dir)


def _open_all(server: Server, sources: list[Source], kind: str, ops: Ops, outcome: Outcome, latencies: list) -> dict:
    """One ``/diff`` per source; returns ``{name: fingerprint}``."""
    client = server.client(ops)
    answers = {}
    try:
        for source in sources:
            outcome.attempted += 1
            try:
                seconds, status, payload = client.get(kind, "/diff", source.params)
            except OSError as error:
                outcome.fail(f"{kind} {source.name}: {error!r}")
                continue
            if status != 200:
                outcome.fail(f"{kind} {source.name} -> {status} {payload}")
                continue
            latencies.append(seconds)
            answers[source.name] = diff_fingerprint(payload)
    finally:
        client.close()
    return answers


def _check_cubes(registry: SessionRegistry, sources: list[Source], outcome: Outcome) -> None:
    """Source-built cubes must equal in-memory builds of the same relation."""
    for source in sources:
        cube = registry.session(source.name).cube
        data = resolve_source(source.uri)
        schema = data.schema
        reference = ExplanationCube(
            data.read(),
            schema.dimension_names(),
            schema.measure_names()[0],
            aggregate=data.default_aggregate,
        )
        if not same_cube(cube, reference):
            outcome.fail(f"cold_open {source.name}: cube differs from an in-memory build")


def run(seed: int, seconds: float | None, scale: str, tracer=None) -> Outcome:
    """Timed when ``seconds`` is given, else exactly one round."""
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
        sources, cache_dir, server = _setup(seed, scale)
        outcome.setup_seconds.append(time.perf_counter() - started)

    total_rows = sum(source.rows for source in sources)
    cold_seconds: list[float] = []
    first_cold: dict | None = None
    cache_bytes: list[int] = []
    stats: dict = {}
    paused = 0.0
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    while True:
        cold = _open_all(server, sources, "cold_open", ops, outcome, cold_seconds)
        # The round's source-built cubes are checked after the run; only
        # the last round's stay alive.
        cold_registry = server.registry
        _check_artifacts(_close(server, stats), "artifact_stores", sources, "cold_open", outcome)
        server = _server(sources, cache_dir)
        reopened = _open_all(server, sources, "reopen", ops, outcome, outcome.followups)
        _check_artifacts(server.registry.stats(), "artifact_hits", sources, "reopen", outcome)
        cache_bytes.append(sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file()))
        for name, answer in reopened.items():
            if cold.get(name) != answer:
                outcome.fail(f"reopen {name}: /diff differs from the cold /diff")
        if first_cold is None:
            first_cold = cold
            # Peak memory of the set-ups and the first round, which every
            # run completes: each later round raises the peak a little, and
            # how many fit in the run depends on the machine's speed.
            outcome.peak_rss_mb = peak_rss_mb()
        for name, answer in cold.items():
            if first_cold.get(name) != answer:
                outcome.fail(f"cold_open {name}: /diff differs from the first round's")
        if deadline is None or time.perf_counter() >= deadline:
            break
        _close(server, stats)
        begun = time.perf_counter()
        server = cold_registry = None
        gc.collect()
        paused += time.perf_counter() - begun
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-"))
        server = _server(sources, cache_dir)
    outcome.wall_seconds = time.perf_counter() - started - paused
    stats["memory_bytes"] = server.registry.memory_bytes()
    stats["rss_growth_bytes"] = current_rss_bytes() - server.rss_before
    _close(server, stats)
    outcome.serve_stats = stats
    outcome.ops = cold_seconds
    _check_cubes(cold_registry, sources, outcome)

    outcome.report.update(latency_report("open_cold", outcome.ops))
    outcome.report.update(latency_report("open_artifact", outcome.followups))
    rounds = len(cache_bytes)
    outcome.report["cold_rows_per_s"] = (
        total_rows * rounds / sum(cold_seconds) if cold_seconds else 0.0,
        "1/s",
        len(cold_seconds),
    )
    outcome.report["cache_bytes_per_row"] = (
        sum(cache_bytes) / (total_rows * rounds),
        "B",
        rounds,
    )
    return outcome
