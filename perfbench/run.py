"""The repository benchmark: one command, three workloads, two kinds of run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The program is imported from ``src/`` of the same checkout and driven only
through its public API and its HTTP server.  The seed makes every input;
the program only ever sees the generated inputs.  ``DEFAULT_SEED`` is the
seed to develop against and ``HELD_OUT_SEED`` the one to confirm a claim
on.

Workloads (loop type, operation, follow-up):

``serve_mixed``
    Closed loop, 2 clients.  Operation: the first ``/explain`` of a window.
    Follow-up: the re-ask of that window at another ``k``.
``cold_open``
    Closed loop, 1 client.  Operation: the first ``/diff`` on a source the
    server has never seen (ingest + cube build + artifact write).
    Follow-up: the same ``/diff`` after a restart, served from the artifact.
``stream_append``
    Closed loop, 1 caller.  Operation: ``StreamingExplainer.update`` with a
    one-day delta.  Follow-up: the explain of a trailing window after it.

``--trace 0`` measures with tracing off (the program's own trace sampling
is 0 and no obs dir is set) for ``--seconds`` and prints the end-to-end
metrics: ``op_p50_ms``/``op_p90_ms`` and ``followup_p50_ms``/
``followup_p90_ms`` (latency of the two kinds), ``ops_per_s`` (both kinds
completed per second of measured wall time), ``setup_s`` (median of
several set-ups: inputs generated, server started, cubes prepared, warmed)
and ``peak_rss_mb``.  Under the workload's own names (``explain_p50_ms``,
``open_cold_p50_ms``, ``append_p50_ms``, ...) the same figures and a few
more (``explain_qps``, ``cold_rows_per_s``, ``cache_bytes_per_row``,
``error_rate``) are printed above the result line with their sample
counts.

``--trace 1`` runs a fixed number of operations three times, untraced,
traced and untraced again, and prints the per-layer metrics of
:mod:`layers`.  Work counts
repeat exactly for one seed.  The span trees go to
``.perfbench_out/<workload>-seed<seed>.spans.jsonl.gz`` next to the
results file ``.perfbench_out/<workload>-seed<seed>.json``.

Every answer is checked (see each workload's module); a failed check counts
as a failed operation.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402  (fails fast outside a checkout of the program)

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

import layers  # noqa: E402
from common import Outcome, latency_report  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("serve_mixed", "cold_open", "stream_append")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: The run length the benchmark declares, the default of ``--seconds``.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: End-to-end metrics: ``name: unit``.
END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "followup_p50_ms": "ms",
    "followup_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str, int]]:
    completed = len(outcome.ops) + len(outcome.followups)
    rows = latency_report("op", outcome.ops)
    rows.update(latency_report("followup", outcome.followups))
    rows["ops_per_s"] = (completed / outcome.wall_seconds, "1/s", completed)
    rows["setup_s"] = (statistics.median(outcome.setup_seconds), "s", len(outcome.setup_seconds))
    rows["peak_rss_mb"] = (outcome.peak_rss_mb, "MB", 1)
    assert {name: unit for name, (_, unit, _) in rows.items()} == END_TO_END
    return rows


def print_lines(title: str, rows: dict[str, tuple[float, str, int]]) -> None:
    print(title)
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:<40} {value:>14.4f} {unit:<6} n={samples}")


def print_outcome(workload: str, outcome: Outcome) -> None:
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    rows = dict(outcome.report, error_rate=(rate, "ratio", outcome.attempted))
    print_lines(f"{workload}: workload metrics", rows)
    for error in outcome.errors:
        print(f"  FAILED: {error}")


def timed(workload: str, seed: int, seconds: float) -> dict:
    module = importlib.import_module(workload)
    outcome = module.run(seed, seconds, "full")
    rows = end_to_end(outcome)
    print_lines(f"{workload}: end-to-end metrics (seed {seed}, {outcome.wall_seconds:.1f} s measured)", rows)
    print_outcome(workload, outcome)
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }


def traced(workload: str, seed: int, scale: str) -> dict:
    """Untraced, traced, untraced: the same operations each time, so drift
    in the machine's speed cancels out of the tracing overhead."""
    module = importlib.import_module(workload)
    untraced = [module.run(seed, None, scale)]
    tracer = Tracer()
    layers.install(tracer)
    try:
        outcome = module.run(seed, None, scale, tracer=tracer)
    finally:
        tracer.unwrap_all()
    untraced.append(module.run(seed, None, scale))
    before = sum(sum(u.ops) + sum(u.followups) for u in untraced) / len(untraced)
    after = sum(outcome.ops) + sum(outcome.followups)
    overhead = 100.0 * (after / before - 1.0) if before else 0.0
    metrics, notes = layers.per_layer(tracer.spans, outcome.serve_stats, overhead)
    rows = {name: (value, layers.PER_LAYER[name][0], int(metrics["trace.ops"])) for name, value in metrics.items()}
    print_lines(f"{workload}: per-layer metrics (seed {seed}, per operation of the traced pass)", rows)
    for note in notes:
        print(f"  note: {note}")
    print_outcome(workload, outcome)
    for number, passed in enumerate(untraced, 1):
        print_outcome(f"{workload} (untraced pass {number})", passed)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    spans_path = stem.with_name(stem.name + ".spans.jsonl.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
        tracer.write_to(handle)
    results = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "per_layer": metrics,
        "moves": {name: layers.PER_LAYER[name][2] for name in metrics},
        "notes": notes,
        "report": {name: value for name, (value, _, _) in outcome.report.items()},
        "spans": spans_path.name,
    }
    stem.with_suffix(".json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    attempted = outcome.attempted + sum(u.attempted for u in untraced)
    failed = outcome.failed + sum(u.failed for u in untraced)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exited with {completed.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="size of a traced pass; 'small' is the determinism self-test's",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    tempfile.tempdir = str(workdir)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.scale)
        else:
            result = timed(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
