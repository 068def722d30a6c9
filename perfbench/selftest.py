"""Determinism self-test of the benchmark.

Runs every workload's traced pass twice at the small scale with one seed,
each in its own process, and requires the work counts of
:data:`layers.WORK_COUNTS` to repeat exactly, every check to pass, and no
``/explain`` of ``serve_mixed`` to be coalesced (a coalesced request would
measure the scheduler's merging instead of compute).  It also requires
``BENCHMARK.json`` to declare exactly the metrics ``run.py`` prints.  Run
from the root of a checkout::

    python3 perfbench/selftest.py [--seed N]

Exits 1 and names the offending metric on failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER, WORK_COUNTS
from run import DEFAULT_SEED, END_TO_END, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def declared_metrics() -> list[str]:
    """Differences between ``BENCHMARK.json`` and what ``run.py`` prints."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    per_layer = {name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}
    if {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} != per_layer:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return problems


def traced(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--trace", "1", "--scale", "small",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {completed.returncode}\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    failures = declared_metrics()
    for workload in WORKLOADS:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        for result in (first, second):
            if not result["correct"]:
                failures.append(f"{workload}: {result['failed']} failed checks")
        for name in WORK_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:<14} {name:<28} {a!r:>16} {b!r:>16}  {status}")
            if a != b:
                failures.append(f"{workload}: {name} {a!r} != {b!r}")
        if workload == "serve_mixed":
            for result in (first, second):
                ratio = result["metrics"]["serve.scheduler.coalesced_ratio"]["value"]
                if ratio != 0:
                    failures.append(f"serve_mixed: coalesced_ratio {ratio} != 0")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
