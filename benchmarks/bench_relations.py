#!/usr/bin/env python3
"""Per-architecture smoke benchmark for the relation engine, recorded to
BENCH_relations.json.

Times the Table 1 pipeline (synthesis + hardware validation) for each
architecture -- SC, x86, Power, and ARMv8 -- and appends one timestamped
entry per architecture to ``BENCH_relations.json`` at the repo root, so
the performance trajectory stays visible per-architecture across PRs.
Both phases run through one single-worker ``CheckPipeline``.  The
synthesis phase is the workload that exercises the relation-algebra
IR executor hardest: Power runs the herding-cats ``ppo`` fixpoint plus
three reflexive-transitive closures per candidate, ARMv8 the large ``ob``
union.

Run:  PYTHONPATH=src python benchmarks/bench_relations.py [label]

Environment:
    REPRO_BENCH_EVENTS   event bound for the synthesis runs (default 3)
    REPRO_BENCH_ARCHES   comma-separated subset of sc,x86,power,armv8
                         (default: all four)
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import CheckPipeline  # noqa: E402
from repro.harness.table1 import run_table1  # noqa: E402

RESULTS_FILE = REPO_ROOT / "BENCH_relations.json"
DEFAULT_ARCHES = ("sc", "x86", "power", "armv8")


def bench(arch: str, bound: int) -> dict:
    with CheckPipeline(workers=1) as pipeline:
        t0 = time.monotonic()
        synthesis = pipeline.synthesis(arch, bound)
        synth_seconds = time.monotonic() - t0

        t0 = time.monotonic()
        table = run_table1(arch, bound, synthesis=synthesis, pipeline=pipeline)
        validate_seconds = time.monotonic() - t0

    forbid_total = sum(r.forbid_total for r in table.rows)
    allow_total = sum(r.allow_total for r in table.rows)
    return {
        "bench": f"table1_{arch}",
        "event_bound": bound,
        "synthesis_seconds": round(synth_seconds, 3),
        "validation_seconds": round(validate_seconds, 3),
        "total_seconds": round(synth_seconds + validate_seconds, 3),
        "candidates_examined": synthesis.candidates_examined,
        "forbid_tests": forbid_total,
        "allow_tests": allow_total,
    }


def main() -> None:
    bound = int(os.environ.get("REPRO_BENCH_EVENTS", "3"))
    arches = tuple(
        a.strip()
        for a in os.environ.get(
            "REPRO_BENCH_ARCHES", ",".join(DEFAULT_ARCHES)
        ).split(",")
        if a.strip()
    )
    label = sys.argv[1] if len(sys.argv) > 1 else "local"
    history = []
    if RESULTS_FILE.exists():
        history = json.loads(RESULTS_FILE.read_text())
    for arch in arches:
        entry = {
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "label": label,
            "python": platform.python_version(),
            **bench(arch, bound),
        }
        history.append(entry)
        print(json.dumps(entry, indent=2))
    RESULTS_FILE.write_text(json.dumps(history, indent=2) + "\n")
    print(f"recorded to {RESULTS_FILE}")


if __name__ == "__main__":
    main()
