"""Pieces the three workloads share: timing records, HTTP, memory, checks."""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator
from urllib.parse import urlencode

from repro.serve.http import ServeApp
from repro.serve.registry import SessionRegistry
from repro.serve.scheduler import QueryScheduler

from layers import OP_PREFIX, request_key
from tracer import Span, Tracer


#: Window lengths as shares of the series' span, one rule for every
#: dataset and stream: an analyst zooms into a tenth to a quarter of the
#: chart.
WINDOW_FRACTIONS = (0.10, 0.15, 0.20, 0.25)


def balanced(rng: random.Random, choices: tuple) -> Iterator:
    """Every choice once per block, in a seeded order: a seed moves the
    queries, not the mix, so runs on different seeds stay comparable."""
    while True:
        block = list(choices)
        rng.shuffle(block)
        yield from block


@dataclass
class Outcome:
    """What one pass of a workload measured.

    ``ops`` and ``followups`` hold latencies in seconds of the workload's
    two operation kinds (see ``run.py``); ``report`` holds the workload's
    own named metrics as ``name: (value, unit, samples)``.
    """

    setup_seconds: list[float] = field(default_factory=list)
    ops: list[float] = field(default_factory=list)
    followups: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    serve_stats: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Ops:
    """Opens operation root spans when tracing, and nothing otherwise."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    @contextmanager
    def op(self, kind: str, http: bool = False) -> Iterator[Span | None]:
        if self.tracer is None:
            yield None
            return
        with self.tracer.span(f"{OP_PREFIX}{kind}", root=True) as span:
            span.attrs["http"] = http
            yield span

    def link(self, span: Span | None, path: str, params: dict) -> None:
        if span is not None:
            self.tracer.link(request_key(path, params), span)


class Client:
    """One keep-alive HTTP connection, like one analyst's browser tab."""

    def __init__(self, host: str, port: int, ops: Ops):
        self._host = host
        self._port = port
        self._ops = ops
        self._conn = http.client.HTTPConnection(host, port, timeout=120)

    def get(self, kind: str, path: str, params: dict) -> tuple[float, int, dict]:
        """Send one GET; returns ``(seconds, status, json body)``."""
        url = f"{path}?{urlencode(params)}"
        with self._ops.op(kind, http=True) as span:
            self._ops.link(span, path, params)
            started = time.perf_counter()
            try:
                self._conn.request("GET", url)
                response = self._conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                self._conn.close()
                self._conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
                raise
            seconds = time.perf_counter() - started
        return seconds, response.status, json.loads(body)

    def close(self) -> None:
        self._conn.close()


class Server:
    """A registry, its query scheduler and an HTTP server on a free port.

    The program's own trace sampling is 0 and no obs dir is set, so the
    program records no spans of its own.
    """

    def __init__(self, specs: list, **registry_options):
        self.rss_before = current_rss_bytes()
        self.registry = SessionRegistry(specs, **registry_options)
        self.scheduler = QueryScheduler(self.registry)
        self.app = ServeApp(self.registry, self.scheduler, port=0, trace_sample=0.0)
        self.app.start()

    def client(self, ops: Ops) -> Client:
        return Client(self.app.host, self.app.port, ops)

    def close(self) -> dict:
        """Stop serving and wait for the query threads; returns their counters."""
        self.app.shutdown()
        self.scheduler.shutdown(wait=True)
        return self.scheduler.stats()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def percentile(values: list[float], q: float) -> float:
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def latency_report(prefix: str, seconds: list[float]) -> dict[str, tuple[float, str, int]]:
    ms = [value * 1000.0 for value in seconds]
    return {
        f"{prefix}_p50_ms": (percentile(ms, 50), "ms", len(ms)),
        f"{prefix}_p90_ms": (percentile(ms, 90), "ms", len(ms)),
    }


def served_fingerprint(payload: dict) -> tuple:
    """K, boundaries and byte-exact top-k of an ``/explain`` response."""
    return (
        payload["k"],
        tuple(
            (
                segment["start_label"],
                segment["stop_label"],
                tuple(
                    (scored["explanation"], scored["gamma_hex"], scored["tau"])
                    for scored in segment["explanations"]
                ),
            )
            for segment in payload["segments"]
        ),
    )


def result_fingerprint(result) -> tuple:
    """The same rendering of an in-process :class:`ExplainResult`."""
    return (
        result.k,
        tuple(
            (
                segment.start_label,
                segment.stop_label,
                tuple(
                    (repr(s.explanation), float(s.gamma).hex(), s.tau)
                    for s in segment.explanations
                ),
            )
            for segment in result.segments
        ),
    )


def diff_fingerprint(payload: dict) -> tuple:
    return tuple(
        (scored["explanation"], scored["gamma_hex"], scored["tau"])
        for scored in payload["explanations"]
    )


def same_cube(left, right) -> bool:
    """Byte identity of two explanation cubes."""
    return (
        left.labels == right.labels
        and left.explanations == right.explanations
        and all(
            getattr(left, name).dtype == getattr(right, name).dtype
            and getattr(left, name).tobytes() == getattr(right, name).tobytes()
            for name in ("overall_values", "supports", "included_values", "excluded_values")
        )
    )
