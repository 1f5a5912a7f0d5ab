"""The repository benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``).  Each repetition of the workload runs in a fresh
interpreter (``perfbench/rep.py``) with its verdict cache, fuzz corpus
and temporary files in a private directory under ``.perfbench_tmp/``,
which is removed at the end.  Repetitions continue while the next
one is expected to end within S seconds.

``--trace 0`` reports every ``end_to_end`` metric of BENCHMARK.json
over the repetitions: ``setup_s`` and ``peak_rss_mb`` as the median,
``cpu_s`` and ``items_per_s`` as the trimmed mean (see
:func:`trimmed_mean`).  Times are CPU seconds: on a shared box wall
time moves with other tenants' load, so it is printed in the summary
but not reported as a metric.  ``--trace 1`` runs pairs of one
untraced and one traced repetition with the same seed, checks that both
give the same outputs, and reports every ``per_layer`` metric.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary (host fingerprint, pinned-answer sources,
value / median / tail / sample count per metric).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: Hard cap on one invocation; repetitions are cut off before it.
DEADLINE_S = 170.0


def host_fingerprint() -> dict:
    """Enough about the box that numbers from two boxes are never
    compared by accident, plus a fixed pure-Python calibration score
    (median seconds of a constant integer loop)."""

    def loop() -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - started

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": round(statistics.median(loop() for _ in range(5)), 6),
    }


def child_env(tmp: str) -> dict:
    """The parent's environment minus the program's own knobs, with
    temporary files kept inside the run's directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload: str, seed: int, trace: bool, tmp_root: str, timeout: float):
    """One repetition in a fresh interpreter; its record, or None if it
    failed (the reason goes to stderr)."""
    tmp = tempfile.mkdtemp(dir=tmp_root)
    out = os.path.join(tmp, "record.json")
    argv = [sys.executable, os.path.join(HERE, "rep.py"), workload,
            str(seed), "1" if trace else "0", tmp, out]
    started = time.perf_counter()
    # Own process group, so a timeout also stops the pool workers it forked.
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(tmp), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err = err + b"\nrepetition timed out"
    elapsed = time.perf_counter() - started
    record = None
    if proc.returncode == 0 and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    else:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-15:]
        print(f"repetition failed ({workload}, seed {seed}):", *tail,
              sep="\n  ", file=sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    return record, elapsed


def tail_percentile(values: list[float], better: str):
    """The highest percentile on the bad side (slow for ``lower``, low
    for ``higher``) with at least ten samples beyond it, as
    ``(percent, value)``; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    worst_last = sorted(values, reverse=(better == "higher"))
    return math.floor(100 * (n - 10) / n), worst_last[n - 11]


def trimmed_mean(values: list[float]) -> float:
    """The mean without the lowest and the highest value; with fewer
    than five samples nothing is dropped.  A repetition's CPU time
    moves by +-25% with the load other tenants put on the shared box,
    spread evenly rather than with a sharp peak, so the mean of a run's
    repetitions is steadier from run to run than their median; dropping
    the two extremes keeps one stalled repetition from moving it."""
    if len(values) >= 5:
        values = sorted(values)[1:-1]
    return statistics.fmean(values)


#: End-to-end metrics reported as the median of the repetitions; the
#: others are the trimmed mean.  The median keeps the odd slow
#: interpreter start out of set-up; peak RSS barely moves.
MEDIAN_METRICS = ("setup_s", "peak_rss_mb")


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [r["setup_cpu_s"] for r in records],
        "cpu_s": [r["round_cpu_s"] for r in records],
        "items_per_s": [r["items"] / r["item_cpu_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for plain, traced in pairs:
        for name, value in traced["layers"].items():
            samples.setdefault(name, []).append(value)
        samples.setdefault("obs.trace_overhead_pct", []).append(
            100.0 * (traced["round_cpu_s"] / plain["round_cpu_s"] - 1.0)
        )
        samples.setdefault("obs.counter_increments", []).append(
            plain["counter_total"]
        )
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host:", json.dumps(host_fingerprint()))
    print("pinned answers:", workload.SOURCE)

    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_parent)
    began = time.perf_counter()
    records, pairs = [], []
    attempted = failed = 0
    mismatched = 0
    durations: list[float] = []
    try:
        rep = 0
        while True:
            seed = args.seed * 1000 + rep
            rep += 1
            group = []
            for traced in ((False, True) if args.trace else (False,)):
                remaining = DEADLINE_S - (time.perf_counter() - began)
                record, elapsed = run_rep(
                    args.workload, seed, traced, tmp_root, max(remaining, 1.0)
                )
                durations.append(elapsed)
                attempted += workload.OPS
                if record is None:
                    failed += workload.OPS
                else:
                    failed += record["failed"]
                group.append(record)
            if all(r is not None for r in group):
                records.append(group[0])
                if args.trace:
                    if group[0]["outputs"] != group[1]["outputs"]:
                        mismatched += 1
                        print(f"traced outputs differ from untraced "
                              f"(seed {seed})", file=sys.stderr)
                    pairs.append((group[0], group[1]))
            spent = time.perf_counter() - began
            per_rep = sum(durations) / rep
            # Stop once another repetition would likely end past the budget.
            if spent + per_rep >= min(args.seconds, DEADLINE_S):
                break
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass

    if not records or (args.trace and not pairs):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    samples = per_layer(pairs) if args.trace else end_to_end(records)
    metrics = {}
    print(f"repetitions: {len(records)}  ops attempted: {attempted}  "
          f"ops_failed: {failed / attempted:.4f}")
    # Wall time is what a user waits for, but on a shared box it moves
    # with other tenants' load, so it is shown here and not bounded.
    print(f"  wall clock (median): set-up "
          f"{statistics.median(r['setup_s'] for r in records):.4g} s, round "
          f"{statistics.median(r['round_s'] for r in records):.4g} s")
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        values = samples[name]
        median = statistics.median(values)
        if args.trace or name in MEDIAN_METRICS:
            value = median
        else:
            value = trimmed_mean(values)
        tail = tail_percentile(values, entry["better"])
        if tail:
            tail_text = f"p{tail[0]}={tail[1]:.6g}"
        else:
            worst = max(values) if entry["better"] == "lower" else min(values)
            tail_text = f"worst={worst:.6g}"
        print(f"  {name:<36} {value:>14.6g} {unit:<6} median={median:<12.6g} "
              f"{tail_text:<16} n={len(values)}")
        metrics[name] = {"value": value, "unit": unit}

    correct = failed == 0 and mismatched == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
