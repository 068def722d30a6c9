"""Which entry points the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Every wrapper sits where
the caller looks the name up, so the program runs unchanged apart from
the timing calls.  Work counts are taken from arguments and results the
program already exposes (array shapes, returned objects, file sizes).

Every metric is a total over the traced operations divided by the number
of operations, unless its entry in :data:`PER_LAYER` says otherwise.  The
second field of each entry names the end-to-end metric the layer should
move.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import Span, SpanIndex, Tracer

#: ``name: (unit, better, end-to-end metric it should move, what is measured)``.
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "serve.http.self_ms": ("ms", "lower", "explain_p50_ms", "client latency minus QueryScheduler.execute, per HTTP op"),
    "serve.jsonio.encode_ms": ("ms", "lower", "explain_p50_ms", "result_to_json + diff_to_json, per HTTP op"),
    "serve.scheduler.queue_wait_ms": ("ms", "lower", "explain_p90_ms", "QueryScheduler.stats() wait_seconds, per HTTP op"),
    "serve.scheduler.coalesced_ratio": ("ratio", "lower", "explain_qps", "coalesced / submitted; must be 0"),
    "serve.registry.prepare_ms": ("ms", "lower", "open_cold_p50_ms, setup_s", "SessionRegistry.session time per prepare (miss), set-up included"),
    "serve.registry.prepares": ("count", "lower", "setup_s", "registry misses, set-up included"),
    "serve.registry.accounted_ratio": ("ratio", "higher", "peak_rss_mb", "memory_bytes() / RSS growth since the server was built"),
    "core.session.derive_scorer_ms": ("ms", "lower", "explain_p50_ms, read_p50_ms", "ExplainSession.scorer time"),
    "core.session.scorer_hit_ratio": ("ratio", "higher", "explain_p50_ms, read_p50_ms", "scorer calls returning an already-derived scorer / calls"),
    "core.pipeline.assemble_ms": ("ms", "lower", "explain_p50_ms", "self time of ExplainPipeline.run"),
    "core.streaming.update_self_ms": ("ms", "lower", "append_p50_ms", "self time of StreamingExplainer.update"),
    "segmentation.sketch.self_ms": ("ms", "lower", "explain_p50_ms, read_p50_ms", "self time of select_sketch"),
    "segmentation.costs.self_ms.in_sketch": ("ms", "lower", "explain_p50_ms, read_p50_ms", "self time of SegmentationCosts built by select_sketch"),
    "segmentation.costs.self_ms.full": ("ms", "lower", "explain_p50_ms, read_p50_ms", "self time of SegmentationCosts built by the pipeline or the stream"),
    "segmentation.costs.pairs": ("count", "lower", "explain_p50_ms, read_p50_ms", "finite multi-unit segment costs"),
    "segmentation.costs.cut_points": ("count", "lower", "explain_p50_ms, read_p50_ms", "cut positions of every cost matrix"),
    "segmentation.costs.extend_ms": ("ms", "lower", "append_p50_ms", "SegmentationCosts.extend time"),
    "segmentation.costs.extend_pairs": ("count", "lower", "append_p50_ms", "segments scored inside extend"),
    "segmentation.dp.self_ms.in_sketch": ("ms", "lower", "explain_p50_ms, read_p50_ms", "solve_k_segmentation called by select_sketch"),
    "segmentation.dp.self_ms.full": ("ms", "lower", "explain_p50_ms, read_p50_ms", "solve_k_segmentation called by select_scheme"),
    "segmentation.dp.cells": ("count", "lower", "explain_p50_ms, read_p50_ms", "(j, k) table cells filled"),
    "segmentation.variance.rescore_ms": ("ms", "lower", "explain_p50_ms, read_p50_ms", "scheme_total_variance time"),
    "ca.solve_ms.flat": ("ms", "lower", "explain_p90_ms", "CascadingAnalysts.solve_batch outside guess-and-verify"),
    "ca.solve_ms.guess_verify": ("ms", "lower", "explain_p90_ms", "GuessAndVerify.solve_batch time"),
    "ca.solves": ("count", "lower", "explain_p90_ms", "gamma rows solved by the outermost solver"),
    "ca.gv_rows_per_request": ("ratio", "lower", "explain_p90_ms", "CA rows run inside guess-and-verify / rows requested"),
    "diff.gamma_ms": ("ms", "lower", "explain_p50_ms, open_cold_p50_ms", "SegmentScorer gamma/tau time"),
    "diff.segments_scored": ("count", "lower", "explain_p50_ms, open_cold_p50_ms", "segments passed to SegmentScorer"),
    "cube.build_ms": ("ms", "lower", "open_cold_p50_ms, cold_rows_per_s", "ExplanationCube build self time, chunk appends of an ingest included"),
    "cube.epsilon": ("count", "lower", "open_cold_p50_ms, cold_rows_per_s", "candidates of every cube built"),
    "cube.cells": ("count", "lower", "open_cold_p50_ms, cold_rows_per_s", "candidates x time points of every cube built"),
    "cube.cache_store_ms": ("ms", "lower", "open_cold_p50_ms", "RollupCache.store time"),
    "cube.artifact_write_ms": ("ms", "lower", "open_cold_p50_ms, cache_bytes_per_row", "RollupCache.store_artifact time"),
    "cube.artifact_bytes": ("B", "lower", "cache_bytes_per_row", "size of the artifacts written"),
    "cube.artifact_load_ms": ("ms", "lower", "open_artifact_p50_ms", "RollupCache.load_artifact time"),
    "cube.detach_bytes": ("B", "lower", "peak_rss_mb, explain_p50_ms", "bytes copied by ExplanationCube.detach per derived scorer"),
    "cube.append_ms": ("ms", "lower", "append_p50_ms", "ExplanationCube.append time outside an ingest"),
    "cube.append_rows": ("count", "lower", "append_p50_ms", "rows appended outside an ingest"),
    "store.read_ms.csv": ("ms", "lower", "open_cold_p50_ms, cold_rows_per_s", "CsvSource.read / iter_chunks time"),
    "store.read_ms.npz": ("ms", "lower", "open_cold_p50_ms, cold_rows_per_s", "NpzSource.read / iter_chunks time"),
    "store.rows.csv": ("count", "lower", "cold_rows_per_s", "rows read from csv: sources"),
    "store.rows.npz": ("count", "lower", "cold_rows_per_s", "rows read from npz: sources"),
    "store.chunks.csv": ("count", "lower", "cold_rows_per_s", "chunks read from csv: sources"),
    "store.chunks.npz": ("count", "lower", "cold_rows_per_s", "chunks read from npz: sources"),
    "store.fingerprint_ms": ("ms", "lower", "open_cold_p50_ms, open_artifact_p50_ms", "DataSource.fingerprint time"),
    "trace.ops": ("count", "lower", "-", "end-to-end operations in the traced pass (not divided)"),
    "trace.overhead_pct": ("%", "lower", "-", "traced operation time against the same operations untraced"),
    "trace.unattributed_pct": ("%", "lower", "-", "operation time no layer span covers"),
}


#: Work counts that must repeat exactly for one seed.
WORK_COUNTS = (
    "cube.epsilon",
    "cube.cells",
    "segmentation.costs.pairs",
    "segmentation.dp.cells",
    "ca.solves",
    "store.rows.csv",
    "store.rows.npz",
    "cube.artifact_bytes",
)

#: Prefix of every operation root span.
OP_PREFIX = "op."


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _rows(span: Span, args, kwargs, result) -> None:
    span.attrs["rows"] = int(np.shape(args[1])[0])


def _segments(span: Span, args, kwargs, result) -> None:
    span.attrs["segments"] = int(np.size(args[1]))


def _no_segments(span: Span, args, kwargs, result) -> None:
    # tau() and overall_changes() revisit segments a gamma call scored.
    span.attrs["segments"] = 0


def _costs(span: Span, args, kwargs, result) -> None:
    matrix = result.cost_matrix
    positions = result.positions
    upper = np.triu(np.isfinite(matrix), k=1)
    multi_unit = (positions[None, :] - positions[:, None]) > 1
    span.attrs["pairs"] = int(np.count_nonzero(upper & multi_unit))
    span.attrs["cut_points"] = int(result.n_points)


def _dp_cells(span: Span, args, kwargs, result) -> None:
    n_points = int(args[0].shape[0])
    k_max = min(int(kwargs.get("k_max", args[1] if len(args) > 1 else 1)), n_points - 1)
    span.attrs["cells"] = sum(n_points - k for k in range(1, k_max + 1))


def _cube_size(span: Span, cube) -> None:
    span.attrs["epsilon"] = cube.n_explanations
    span.attrs["cells"] = cube.n_explanations * cube.n_times


def _built(span: Span, args, kwargs, result) -> None:
    _cube_size(span, args[0])


def _ingested(span: Span, args, kwargs, result) -> None:
    _cube_size(span, result[0])


def _appended(span: Span, args, kwargs, result) -> None:
    span.attrs["rows"] = int(args[1].n_rows)


def _detached(span: Span, args, kwargs, result) -> None:
    cube = args[0]
    copied = 0
    if result is not cube:
        for name in ("overall_values", "supports", "included_values", "excluded_values"):
            mine, theirs = getattr(cube, name), getattr(result, name)
            if mine is not theirs:
                copied += theirs.nbytes
    span.attrs["bytes"] = copied


def _artifact_written(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = Path(result).stat().st_size


class _ScorerHits:
    """Marks a ``scorer()`` call a hit when it returns a scorer seen before."""

    def __init__(self):
        self._seen: "weakref.WeakSet" = weakref.WeakSet()

    def __call__(self, span: Span, args, kwargs, result) -> None:
        span.attrs["hit"] = int(result in self._seen)
        self._seen.add(result)


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point; undo with ``tracer.unwrap_all()``."""
    from repro.ca.cascade import CascadingAnalysts
    from repro.ca.guess_verify import GuessAndVerify
    from repro.core import pipeline, session, streaming
    from repro.cube.cache import RollupCache
    from repro.cube.datacube import ExplanationCube
    from repro.diff.scorer import SegmentScorer
    from repro.segmentation import sketch
    from repro.segmentation.variance import SegmentationCosts
    from repro.serve import http
    from repro.serve.registry import SessionRegistry
    from repro.serve.scheduler import QueryScheduler
    from repro.store import ingest
    from repro.store.csv_source import CsvSource
    from repro.store.npz_source import NpzSource

    def http_parent(args, kwargs):
        path, params = args[1], args[2]
        return tracer.linked(request_key(path, params))

    wrap = tracer.wrap
    wrap(http.ServeApp, "dispatch", "serve.http", parent_of=http_parent)
    wrap(http, "result_to_json", "serve.jsonio")
    wrap(http, "diff_to_json", "serve.jsonio")
    wrap(QueryScheduler, "execute", "serve.scheduler")
    wrap(SessionRegistry, "session", "serve.registry")

    wrap(session.ExplainSession, "explain", "core.session.explain")
    wrap(session.ExplainSession, "top_explanations", "core.session.diff")
    wrap(session.ExplainSession, "append", "core.session.append")
    wrap(session.ExplainSession, "scorer", "core.session.scorer", record=_ScorerHits())
    wrap(pipeline.ExplainPipeline, "run", "core.pipeline.run")
    wrap(streaming.StreamingExplainer, "update", "core.streaming.update")

    wrap(pipeline, "select_sketch", "segmentation.sketch")
    wrap(pipeline, "SegmentationCosts", "segmentation.costs.full", record=_costs)
    wrap(streaming, "SegmentationCosts", "segmentation.costs.full", record=_costs)
    wrap(sketch, "SegmentationCosts", "segmentation.costs.in_sketch", record=_costs)
    wrap(SegmentationCosts, "extend", "segmentation.costs.extend")
    wrap(pipeline, "solve_k_segmentation", "segmentation.dp.full", record=_dp_cells)
    wrap(sketch, "solve_k_segmentation", "segmentation.dp.in_sketch", record=_dp_cells)
    wrap(pipeline, "scheme_total_variance", "segmentation.variance.rescore")

    wrap(CascadingAnalysts, "solve_batch", "ca.cascade", record=_rows)
    wrap(GuessAndVerify, "solve_batch", "ca.guess_verify", record=_rows)

    for method in ("gamma", "gamma_tau", "gamma_many", "gamma_tau_many"):
        wrap(SegmentScorer, method, f"diff.scorer.{method}", record=_segments)
    for method in ("tau", "overall_changes"):
        wrap(SegmentScorer, method, f"diff.scorer.{method}", record=_no_segments)

    wrap(ExplanationCube, "__init__", "cube.build", record=_built)
    wrap(ExplanationCube, "append", "cube.append", record=_appended)
    wrap(ExplanationCube, "detach", "cube.detach", record=_detached)
    wrap(RollupCache, "store", "cube.cache_store")
    wrap(RollupCache, "store_artifact", "cube.artifact_write", record=_artifact_written)
    wrap(RollupCache, "load_artifact", "cube.artifact_load")

    wrap(ingest, "load_or_build_from_source", "store.ingest", record=_ingested)
    for source, scheme in ((CsvSource, "csv"), (NpzSource, "npz")):
        tracer.wrap_chunks(source, "iter_chunks", f"store.read.{scheme}")
        wrap(source, "read", f"store.read.{scheme}", record=_read_rows)
        wrap(source, "fingerprint", "store.fingerprint")


def _read_rows(span: Span, args, kwargs, result) -> None:
    span.attrs.update(rows=result.n_rows, chunks=1)


def request_key(path: str, params: dict) -> tuple:
    """What links a client request to the handler call that serves it."""
    return (path, tuple(sorted(params.items())))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def per_layer(
    spans: list[Span],
    serve_stats: dict,
    overhead_pct: float,
) -> tuple[dict[str, float], list[str]]:
    """Every :data:`PER_LAYER` metric, plus notes on the absent ones.

    ``serve_stats`` carries what the benchmark read from the program's own
    counters: scheduler ``wait_seconds``/``submitted``/``coalesced``,
    registry ``misses``, ``memory_bytes`` and the RSS growth it is set
    against.
    """
    index = SpanIndex(spans)
    op_roots = [s for s in spans if s.parent is None and s.name.startswith(OP_PREFIX)]
    op_ids = {s.sid for s in op_roots}
    n_ops = max(len(op_roots), 1)
    in_ops = [s for s in spans if s.root in op_ids]

    total = defaultdict(float)  # seconds or counts summed over op spans
    for span in in_ops:
        name = span.name
        if name.startswith("diff.scorer."):
            if not any(a.name.startswith("diff.scorer.") for a in index.ancestors(span)):
                total["diff.s"] += span.duration
                total["diff.segments"] += span.attrs["segments"]
        elif name == "serve.jsonio":
            total["jsonio.s"] += span.duration
        elif name == "serve.scheduler":
            total["scheduler.s"] += span.duration
        elif name == "core.session.scorer":
            total["scorer.s"] += span.duration
            total["scorer.calls"] += 1
            total["scorer.hits"] += span.attrs["hit"]
        elif name == "core.pipeline.run":
            total["assemble.s"] += index.self_time(span)
        elif name == "core.streaming.update":
            total["update_self.s"] += index.self_time(span)
        elif name == "segmentation.sketch":
            total["sketch.s"] += index.self_time(span)
        elif name in ("segmentation.costs.in_sketch", "segmentation.costs.full"):
            phase = name.rsplit(".", 1)[1]
            total[f"costs.{phase}.s"] += index.self_time(span)
            total["costs.pairs"] += span.attrs["pairs"]
            total["costs.cut_points"] += span.attrs["cut_points"]
        elif name == "segmentation.costs.extend":
            total["extend.s"] += span.duration
            total["extend.pairs"] += sum(
                child.attrs["segments"]
                for child in index.children.get(span.sid, ())
                if child.name == "diff.scorer.gamma_many"
            )
        elif name.startswith("segmentation.dp."):
            phase = name.rsplit(".", 1)[1]
            total[f"dp.{phase}.s"] += index.self_time(span)
            total["dp.cells"] += span.attrs["cells"]
        elif name == "segmentation.variance.rescore":
            total["rescore.s"] += span.duration
        elif name == "ca.guess_verify":
            total["gv.s"] += span.duration
            total["gv.requested"] += span.attrs["rows"]
            total["ca.solves"] += span.attrs["rows"]
        elif name == "ca.cascade":
            if index.has_ancestor(span, "ca.guess_verify"):
                total["gv.ca_rows"] += span.attrs["rows"]
            else:
                total["ca.flat.s"] += span.duration
                total["ca.solves"] += span.attrs["rows"]
        elif name in ("cube.build", "cube.append"):
            in_ingest = index.has_ancestor(span, "store.ingest")
            if name == "cube.build" or in_ingest:
                total["build.s"] += index.self_time(span)
            else:
                total["append.s"] += span.duration
                total["append.rows"] += span.attrs["rows"]
            if name == "cube.build" and not in_ingest:
                total["epsilon"] += span.attrs["epsilon"]
                total["cells"] += span.attrs["cells"]
        elif name == "store.ingest":
            total["epsilon"] += span.attrs["epsilon"]
            total["cells"] += span.attrs["cells"]
        elif name == "cube.detach":
            total["detach.bytes"] += span.attrs["bytes"]
        elif name == "cube.cache_store":
            total["cache_store.s"] += span.duration
        elif name == "cube.artifact_write":
            total["artifact_write.s"] += span.duration
            total["artifact.bytes"] += span.attrs["bytes"]
        elif name == "cube.artifact_load":
            total["artifact_load.s"] += span.duration
        elif name.startswith("store.read."):
            scheme = name.rsplit(".", 1)[1]
            total[f"read.{scheme}.s"] += index.self_time(span)
            total[f"rows.{scheme}"] += span.attrs.get("rows", 0)
            total[f"chunks.{scheme}"] += span.attrs.get("chunks", 0)
        elif name == "store.fingerprint":
            total["fingerprint.s"] += span.duration

    http_ops = [root for root in op_roots if root.attrs.get("http")]
    http_latency = sum(root.duration for root in http_ops)
    registry_s = sum(s.duration for s in spans if s.name == "serve.registry")
    misses = serve_stats.get("misses", 0)
    derived = total["scorer.calls"] - total["scorer.hits"]
    op_time = sum(root.duration for root in op_roots)
    unattributed = sum(index.self_time(root) for root in op_roots)

    def per_op(value: float, scale: float = 1.0) -> float:
        return value * scale / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ms = 1000.0
    metrics = {
        "serve.http.self_ms": ratio((http_latency - total["scheduler.s"]) * ms, max(len(http_ops), 1)),
        "serve.jsonio.encode_ms": ratio(total["jsonio.s"] * ms, max(len(http_ops), 1)),
        "serve.scheduler.queue_wait_ms": ratio(serve_stats.get("wait_seconds", 0.0) * ms, max(len(http_ops), 1)),
        "serve.scheduler.coalesced_ratio": ratio(serve_stats.get("coalesced", 0), serve_stats.get("submitted", 0)),
        "serve.registry.prepare_ms": ratio(registry_s * ms, misses),
        "serve.registry.prepares": float(misses),
        "serve.registry.accounted_ratio": ratio(serve_stats.get("memory_bytes", 0), serve_stats.get("rss_growth_bytes", 0)),
        "core.session.derive_scorer_ms": per_op(total["scorer.s"], ms),
        "core.session.scorer_hit_ratio": ratio(total["scorer.hits"], total["scorer.calls"]),
        "core.pipeline.assemble_ms": per_op(total["assemble.s"], ms),
        "core.streaming.update_self_ms": per_op(total["update_self.s"], ms),
        "segmentation.sketch.self_ms": per_op(total["sketch.s"], ms),
        "segmentation.costs.self_ms.in_sketch": per_op(total["costs.in_sketch.s"], ms),
        "segmentation.costs.self_ms.full": per_op(total["costs.full.s"], ms),
        "segmentation.costs.pairs": per_op(total["costs.pairs"]),
        "segmentation.costs.cut_points": per_op(total["costs.cut_points"]),
        "segmentation.costs.extend_ms": per_op(total["extend.s"], ms),
        "segmentation.costs.extend_pairs": per_op(total["extend.pairs"]),
        "segmentation.dp.self_ms.in_sketch": per_op(total["dp.in_sketch.s"], ms),
        "segmentation.dp.self_ms.full": per_op(total["dp.full.s"], ms),
        "segmentation.dp.cells": per_op(total["dp.cells"]),
        "segmentation.variance.rescore_ms": per_op(total["rescore.s"], ms),
        "ca.solve_ms.flat": per_op(total["ca.flat.s"], ms),
        "ca.solve_ms.guess_verify": per_op(total["gv.s"], ms),
        "ca.solves": per_op(total["ca.solves"]),
        "ca.gv_rows_per_request": ratio(total["gv.ca_rows"], total["gv.requested"]),
        "diff.gamma_ms": per_op(total["diff.s"], ms),
        "diff.segments_scored": per_op(total["diff.segments"]),
        "cube.build_ms": per_op(total["build.s"], ms),
        "cube.epsilon": per_op(total["epsilon"]),
        "cube.cells": per_op(total["cells"]),
        "cube.cache_store_ms": per_op(total["cache_store.s"], ms),
        "cube.artifact_write_ms": per_op(total["artifact_write.s"], ms),
        "cube.artifact_bytes": per_op(total["artifact.bytes"]),
        "cube.artifact_load_ms": per_op(total["artifact_load.s"], ms),
        "cube.detach_bytes": ratio(total["detach.bytes"], derived),
        "cube.append_ms": per_op(total["append.s"], ms),
        "cube.append_rows": per_op(total["append.rows"]),
        "store.read_ms.csv": per_op(total["read.csv.s"], ms),
        "store.read_ms.npz": per_op(total["read.npz.s"], ms),
        "store.rows.csv": per_op(total["rows.csv"]),
        "store.rows.npz": per_op(total["rows.npz"]),
        "store.chunks.csv": per_op(total["chunks.csv"]),
        "store.chunks.npz": per_op(total["chunks.npz"]),
        "store.fingerprint_ms": per_op(total["fingerprint.s"], ms),
        "trace.ops": float(len(op_roots)),
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100.0 * ratio(unattributed, op_time),
    }
    assert set(metrics) == set(PER_LAYER)
    notes = [
        f"{name} = 0 ({PER_LAYER[name][3]}): none in this workload's operations"
        for name, value in metrics.items()
        if value == 0 and name not in ("serve.scheduler.coalesced_ratio", "trace.overhead_pct")
    ]
    return metrics, notes
