"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED TRACE TMPDIR OUTFILE

Set-up ends when the workload's set-up returns, so it covers starting
the interpreter, importing ``repro`` and building the models, IR plans
and simulated machines.  The round follows.  Both are recorded as wall
seconds and as CPU seconds (the round's CPU includes its reaped pool
workers).  The results go to OUTFILE as JSON (stdout is left to the
program).  With TRACE=1 the layer probes are installed before set-up
and the layer metrics are derived from the program's registry after the
round.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped pool workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_sum(counters: dict, pattern: str) -> int:
    rx = re.compile(pattern)
    return sum(v for name, v in counters.items() if rx.fullmatch(name))


def layer_metrics(workload, result, phases, setup_snap, snap, local_round):
    """Every per-layer metric of BENCHMARK.json except the two the
    driving process adds (``obs.*``)."""
    from repro.obs import REGISTRY

    counters, timers = snap["counters"], snap["timers"]

    def seconds(layer, with_setup=False):
        total = timers.get(f"perfbench.{layer}", {}).get("total", 0.0)
        if with_setup:
            total += setup_snap["timers"].get(f"perfbench.{layer}", {}).get(
                "total", 0.0
            )
        return total

    def calls(layer):
        return timers.get(f"perfbench.{layer}", {}).get("count", 0)

    def hit_ratio(prefix):
        return _ratio(
            counters.get(f"{prefix}.hits", 0), counters.get(f"{prefix}.lookups", 0)
        )

    enum = r"enumeration\.\w+\.bound\d+\."
    candidates = _counter_sum(counters, enum + "candidates")
    forbidden = _counter_sum(counters, enum + "forbidden")
    consistent_calls = calls("ir.consistent")
    busy = timers.get("pipeline.job.seconds", {}).get("total", 0.0)
    job = REGISTRY.histogram("pipeline.job.seconds")
    wait = REGISTRY.histogram("pipeline.job.queue_wait_seconds")
    wall = sum(p["wall"] for p in phases.values())
    outputs = result["outputs"]
    cold = outputs.get("cold", {})
    warm = outputs.get("warm", {})
    meta_rows = outputs.get("rows", [])
    fuzz_cases = counters.get("fuzz.cases", 0)
    rejects = counters.get("fuzz.generator.wellformed_rejects", 0)

    values = {
        "enumeration.skeletons": _counter_sum(counters, enum + "skeletons"),
        "enumeration.candidates": candidates,
        "enumeration.pruned_consistent": _counter_sum(
            counters, enum + "pruned_consistent"
        ),
        "enumeration.pruned_baseline": _counter_sum(
            counters, enum + "pruned_baseline"
        ),
        "enumeration.pruned_nonminimal": _counter_sum(
            counters, enum + "pruned_nonminimal"
        ),
        "enumeration.pruned_duplicate": _counter_sum(
            counters, enum + "pruned_duplicate"
        ),
        "enumeration.forbidden": forbidden,
        "enumeration.forbid_yield": _ratio(forbidden, candidates),
        "enumeration.complete_s": seconds("enumeration.complete"),
        "enumeration.canonical_calls": calls("enumeration.canonical"),
        "enumeration.canonical_s": seconds("enumeration.canonical"),
        "enumeration.minimality_checks": calls("enumeration.minimality"),
        "enumeration.minimality_s": seconds("enumeration.minimality"),
        "enumeration.weakenings_s": seconds("enumeration.weakenings"),
        "events.derive_s": seconds("events.derive"),
        "relations.global_intern.hit_ratio": hit_ratio("relations.global_intern"),
        "relations.context.hit_ratio": hit_ratio("relations.context"),
        "relations.closure_cache.hit_ratio": hit_ratio("relations.closure_cache"),
        "relations.acyclic_cache.hit_ratio": hit_ratio("relations.acyclic_cache"),
        "ir.compile_s": seconds("ir.compile", with_setup=True),
        "ir.consistent_calls": consistent_calls,
        "ir.consistent_s": seconds("ir.consistent"),
        "ir.consistent_us": 1e6 * _ratio(seconds("ir.consistent"), consistent_calls),
        "ir.exec.node_evals": counters.get("ir.exec.node_evals", 0),
        "ir.exec.node_cache_hits": counters.get("ir.exec.node_cache_hits", 0),
        "ir.exec.compiled_runs": counters.get("ir.exec.compiled_runs", 0),
        "ir.exec.relation_fallbacks": counters.get("ir.exec.relation_fallbacks", 0),
        "ir.plan.cse_hits": counters.get("ir.plan.cse_hits", 0)
        + setup_snap["counters"].get("ir.plan.cse_hits", 0),
        "scheduler.chunks": counters.get("scheduler.chunks", 0),
        "scheduler.steals": counters.get("scheduler.steals", 0),
        "pipeline.job_s.p50": job.quantile(0.5) if job.count else 0.0,
        "pipeline.job_s.p99": job.quantile(0.99) if job.count else 0.0,
        "pipeline.queue_wait_s.p50": wait.quantile(0.5) if wait.count else 0.0,
        "pipeline.queue_wait_s.p99": wait.quantile(0.99) if wait.count else 0.0,
        "scheduler.worker_busy_s": busy,
        "scheduler.parallel_efficiency": _ratio(
            busy, max(workload.workers, 1) * wall
        ),
        "verdict_cache.lookups": counters.get("verdict_cache.lookups", 0),
        "verdict_cache.hit_ratio": _ratio(
            warm.get("cache_hits", 0), warm.get("cache_lookups", 0)
        ),
        "verdict_cache.appends": counters.get("verdict_cache.appends", 0),
        "verdict_cache.digest_s": seconds("verdict_cache.digest"),
        "verdict_cache.open_s": seconds("verdict_cache.open"),
        "table1.cold_s": phases.get("cold", {}).get("wall", 0.0),
        "table1.warm_s": phases.get("warm", {}).get("wall", 0.0),
        "litmus.convert_s": seconds("litmus.convert"),
        "litmus.find_witness_calls": calls("litmus.find_witness"),
        "litmus.find_witness_s": seconds("litmus.find_witness"),
        "sim.observable_calls": calls("sim.observable"),
        "sim.observable_s": seconds("sim.observable"),
        "sim.allow_seen_ratio": _ratio(cold.get("allow_seen", 0), cold.get("allow", 0)),
        "metatheory.elision_s": seconds("metatheory.elision"),
        "metatheory.compilation_s": seconds("metatheory.compilation"),
        "metatheory.monotonicity_s": seconds("metatheory.monotonicity"),
        "metatheory.outcomes_checked": sum(
            r[4] for r in meta_rows if r[0] == "elision"
        ),
        "metatheory.executions_checked": sum(
            r[4] for r in meta_rows if r[0] != "elision"
        ),
        "cat.load_s": seconds("cat.load", with_setup=True),
        "fuzz.cases": fuzz_cases,
        "fuzz.oracle_s": seconds("fuzz.oracle"),
        "fuzz.shrink_s": seconds("fuzz.shrink"),
        "fuzz.shrink.attempts": counters.get("fuzz.shrink.attempts", 0),
        "fuzz.generator.reject_ratio": _ratio(rejects, rejects + fuzz_cases),
        "unattributed_s": wall - sum(local_round.values()),
    }
    return values


class Marks:
    """Wall and CPU time at the start of the round and at the end of
    each phase the workload marks."""

    def __init__(self):
        self.points = [("start", time.perf_counter(), _cpu_seconds())]

    def __call__(self, phase: str) -> None:
        self.points.append((phase, time.perf_counter(), _cpu_seconds()))

    def phases(self) -> dict:
        """phase → wall and CPU seconds (a repeated phase name adds up)."""
        out = {}
        for before, after in zip(self.points, self.points[1:]):
            spent = out.setdefault(after[0], {"wall": 0.0, "cpu": 0.0})
            spent["wall"] += after[1] - before[1]
            spent["cpu"] += after[2] - before[2]
        return out


def main(argv) -> int:
    workload_name, seed, trace, tmp, out = argv
    trace = trace == "1"
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    probes = None
    if trace:
        import probes as probe_module

        probes = probe_module.install()
    from repro.obs import REGISTRY, reset_observability

    workload.setup(tmp)
    setup_s = time.perf_counter() - _STARTED
    # CPU since the interpreter started, start-up and imports included.
    setup_cpu_s = time.process_time()
    setup_snap = REGISTRY.snapshot()
    reset_observability()
    local_before = dict(probes.local) if probes else {}

    marks = Marks()
    result = workload.run(int(seed), tmp, marks)
    snap = REGISTRY.snapshot()
    phases = marks.phases()
    item_phases = result["item_phases"] or list(phases)
    record = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "round_s": sum(p["wall"] for p in phases.values()),
        "round_cpu_s": sum(p["cpu"] for p in phases.values()),
        "items": result["items"],
        "item_cpu_s": sum(phases[name]["cpu"] for name in item_phases),
        "outputs": result["outputs"],
        "failed": workload.check(result["outputs"]),
        "peak_rss_mb": _peak_rss_mb(),
        "counter_total": sum(snap["counters"].values()),
    }
    if probes:
        local_round = {
            k: v - local_before.get(k, 0.0) for k, v in probes.local.items()
        }
        record["layers"] = layer_metrics(
            workload, result, phases, setup_snap, snap, local_round
        )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
