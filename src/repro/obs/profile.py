"""Per-IR-plan-node cost profiler: which nodes does a model spend in?

The IR executor (:mod:`repro.ir.executor`) evaluates hash-consed term
DAGs; this profiler, when enabled, attributes wall time to individual
plan nodes keyed by ``(model, constraint, node uid)``, recording per
node:

* evaluation count and cumulative wall time (inclusive of children),
* *self* time (inclusive minus time spent evaluating child nodes --
  the number that actually ranks hot nodes, since a root's inclusive
  time is always the whole constraint),
* result-row cardinality (bits set in the produced rows/mask), and
* memo hits (evaluations answered from the per-execution cache).

Profiling is **off by default** and costs one ``PROFILER.enabled``
attribute check per node evaluation when off.  Enable it with
``--profile`` on the harness commands or ``REPRO_PROFILE=1`` in the
environment.  While enabled the executor takes the interpretive path
instead of the compiled runners, so the profiler sees every node --
profiled runs are slower *and more instrumentable* by design.

Outputs:

* :meth:`PlanProfiler.hot_table` -- the top-N nodes by self time;
* :meth:`PlanProfiler.dot` -- a Graphviz rendering of one plan's
  constraint DAGs annotated with observed cost;
* :meth:`PlanProfiler.calibration` -- per model, the planner's static
  cheapest-first schedule against observed per-constraint cost, with
  out-of-order pairs flagged (the check that keeps
  :mod:`repro.ir.plan`'s cost model honest).

Cross-process: pool workers drain their samples with
:meth:`flush_delta` into each job's result payload; the parent
:meth:`merges <PlanProfiler.merge>` them.  Node uids are deterministic
(terms are hash-consed in import order), so samples from forked or
spawned workers key to the same nodes; labels ride along as a guard for
human consumption either way.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..ir.plan import Plan
    from ..ir.terms import Term

#: Stats-list slots for one (model, constraint, uid) key.
_COUNT, _SECONDS, _SELF, _ROWS, _HITS = range(5)

#: Context used for node evaluations outside any constraint check
#: (direct ``ir.evaluate`` calls, term materialisation in tests).
_NO_CONSTRAINT = ("-", "-")


def term_label(t: "Term") -> str:
    """A short, deterministic label for a term node (leaves spell their
    base name; inner nodes their operator)."""
    if t.op in ("base", "set"):
        return f"{t.args[0]}#{t.uid}"
    if t.op == "var":
        return f"var{t.args[0]}#{t.uid}"
    return f"{t.op}#{t.uid}"


def _cardinality(value) -> int:
    """Bits set in a produced value: pairs for relation rows, events for
    set masks."""
    if isinstance(value, int):
        return value.bit_count()
    if isinstance(value, tuple):
        total = 0
        for row in value:
            if isinstance(row, int):
                total += row.bit_count()
        return total
    return 0


def _env_enabled() -> bool:
    from .._env import env_str

    return bool(env_str("REPRO_PROFILE"))


class PlanProfiler:
    """Per-plan-node sample accumulator (process-global singleton at
    :data:`PROFILER`)."""

    def __init__(self) -> None:
        #: Read on the executor's hot path; everything else is cold.
        self.enabled = _env_enabled()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (model, constraint, uid) -> [count, seconds, self, rows, hits]
        self._stats: dict[tuple, list] = {}
        #: uid -> short label (for rendering; uids are deterministic).
        self._labels: dict[int, str] = {}
        #: model name -> noted schedule (for the calibration report).
        self._plans: dict[str, dict] = {}

    # -- control ----------------------------------------------------------

    def enable(self, on: bool = True) -> None:
        self.enabled = on

    def reset(self) -> None:
        """Drop all samples and return to the environment's default
        enablement (test isolation, via ``reset_observability``)."""
        with self._lock:
            self._stats.clear()
            self._labels.clear()
            self._plans.clear()
        self._local = threading.local()
        self.enabled = _env_enabled()

    # -- executor hooks ----------------------------------------------------

    def _frame(self):
        local = self._local
        key = getattr(local, "key", _NO_CONSTRAINT)
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return key, stack

    @contextmanager
    def constraint(self, model: str, name: str) -> Iterator[None]:
        """Attribute node evaluations inside the block to
        ``(model, name)``."""
        local = self._local
        previous = getattr(local, "key", _NO_CONSTRAINT)
        local.key = (model, name)
        try:
            yield
        finally:
            local.key = previous

    def begin(self) -> None:
        """A node evaluation starts: push a child-time accumulator."""
        _, stack = self._frame()
        stack.append(0.0)

    def end(self, t: "Term", elapsed: float, value) -> None:
        """A node evaluation finished: charge ``elapsed`` to the node
        (self time = elapsed minus children) and to the parent's
        child-time accumulator."""
        key, stack = self._frame()
        child_seconds = stack.pop() if stack else 0.0
        if stack:
            stack[-1] += elapsed
        skey = (key[0], key[1], t.uid)
        with self._lock:
            stat = self._stats.get(skey)
            if stat is None:
                stat = self._stats[skey] = [0, 0.0, 0.0, 0, 0]
                self._labels.setdefault(t.uid, term_label(t))
            stat[_COUNT] += 1
            stat[_SECONDS] += elapsed
            stat[_SELF] += max(0.0, elapsed - child_seconds)
            stat[_ROWS] += _cardinality(value)

    def abort(self, elapsed: float) -> None:
        """A node evaluation raised: drop its accumulator but still
        charge the time to the parent (a crashed child is time the
        parent spent)."""
        _, stack = self._frame()
        if stack:
            stack.pop()
        if stack:
            stack[-1] += elapsed

    def hit(self, t: "Term") -> None:
        """A node answered from the per-execution memo."""
        key, _ = self._frame()
        skey = (key[0], key[1], t.uid)
        with self._lock:
            stat = self._stats.get(skey)
            if stat is None:
                stat = self._stats[skey] = [0, 0.0, 0.0, 0, 0]
                self._labels.setdefault(t.uid, term_label(t))
            stat[_HITS] += 1

    def note_plan(self, plan: "Plan") -> None:
        """Record a plan's schedule (once per model name) so the
        calibration report can compare it against observed cost."""
        if plan.name in self._plans:
            return
        with self._lock:
            self._plans.setdefault(
                plan.name,
                {
                    "constraints": [
                        {
                            "name": c.name,
                            "kind": c.kind,
                            "cost": c.cost,
                            "uid": c.term.uid,
                        }
                        for c in plan.constraints
                    ],
                    "scheduled": [c.name for c in plan.scheduled],
                },
            )

    # -- cross-process merge ----------------------------------------------

    def flush_delta(self) -> dict | None:
        """Drain accumulated samples for shipping to a parent process
        (the profiler twin of ``MetricsRegistry.flush_delta``); ``None``
        when there is nothing to ship."""
        with self._lock:
            if not self._stats:
                return None
            nodes = [
                [model, constraint, uid, self._labels.get(uid, "?"), *stat]
                for (model, constraint, uid), stat in self._stats.items()
            ]
            self._stats = {}
        return {"nodes": nodes}

    def merge(self, delta: dict | None) -> None:
        """Fold a worker's :meth:`flush_delta` payload into this
        profiler."""
        if not delta:
            return
        with self._lock:
            for model, constraint, uid, label, *values in delta.get(
                "nodes", ()
            ):
                skey = (model, constraint, uid)
                stat = self._stats.get(skey)
                if stat is None:
                    stat = self._stats[skey] = [0, 0.0, 0.0, 0, 0]
                    self._labels.setdefault(uid, label)
                stat[_COUNT] += values[_COUNT]
                stat[_SECONDS] += values[_SECONDS]
                stat[_SELF] += values[_SELF]
                stat[_ROWS] += values[_ROWS]
                stat[_HITS] += values[_HITS]

    # -- reports -----------------------------------------------------------

    def snapshot(self) -> dict:
        """All samples + noted schedules, JSON-serialisable, hot first."""
        with self._lock:
            nodes = [
                {
                    "model": model,
                    "constraint": constraint,
                    "uid": uid,
                    "label": self._labels.get(uid, "?"),
                    "count": stat[_COUNT],
                    "seconds": stat[_SECONDS],
                    "self_seconds": stat[_SELF],
                    "rows": stat[_ROWS],
                    "hits": stat[_HITS],
                }
                for (model, constraint, uid), stat in self._stats.items()
            ]
            plans = {name: dict(plan) for name, plan in self._plans.items()}
        nodes.sort(
            key=lambda n: (-n["self_seconds"], -n["count"], n["uid"])
        )
        return {
            "nodes": nodes,
            "plans": plans,
            "calibration": self.calibration(),
        }

    def hot_nodes(self, limit: int = 20) -> list[dict]:
        return self.snapshot()["nodes"][:limit]

    def hot_table(self, limit: int = 20) -> str:
        """The top-``limit`` nodes by self time, as an aligned text
        table."""
        nodes = self.hot_nodes(limit)
        if not nodes:
            return "profile: no node samples recorded"
        header = (
            f"{'self-s':>9} {'total-s':>9} {'evals':>8} {'hits':>8} "
            f"{'rows':>10}  node"
        )
        lines = [header, "-" * len(header)]
        for n in nodes:
            where = f"{n['model']}/{n['constraint']}"
            lines.append(
                f"{n['self_seconds']:>9.4f} {n['seconds']:>9.4f} "
                f"{n['count']:>8} {n['hits']:>8} {n['rows']:>10}  "
                f"{n['label']} [{where}]"
            )
        return "\n".join(lines)

    def constraint_seconds(self) -> dict[tuple[str, str], float]:
        """Observed cost per (model, constraint): summed node self time
        (self times partition a constraint's wall time, so the sum does
        not double count shared subterms)."""
        totals: dict[tuple[str, str], float] = {}
        with self._lock:
            for (model, constraint, _uid), stat in self._stats.items():
                key = (model, constraint)
                totals[key] = totals.get(key, 0.0) + stat[_SELF]
        return totals

    def calibration(self) -> list[dict]:
        """Per noted plan: the static cheapest-first schedule against
        observed per-constraint seconds, flagging scheduled-earlier /
        observed-costlier pairs.  A flagged pair means the planner's
        syntactic cost model mis-ranked those constraints on this
        workload."""
        observed = self.constraint_seconds()
        reports = []
        for model in sorted(self._plans):
            plan = self._plans[model]
            scheduled = plan["scheduled"]
            seconds = {
                name: observed.get((model, name), 0.0) for name in scheduled
            }
            mismatches = [
                [earlier, later]
                for i, earlier in enumerate(scheduled)
                for later in scheduled[i + 1 :]
                if seconds[earlier] > seconds[later]
                and seconds[earlier] > 0.0
            ]
            reports.append(
                {
                    "model": model,
                    "scheduled": list(scheduled),
                    "observed_seconds": seconds,
                    "mismatches": mismatches,
                    "agrees": not mismatches,
                }
            )
        return reports

    def calibration_report(self) -> str:
        """The calibration as human-readable text."""
        reports = self.calibration()
        if not reports:
            return "calibration: no plans noted (nothing profiled)"
        lines = []
        for report in reports:
            verdict = (
                "schedule agrees with observed cost"
                if report["agrees"]
                else f"{len(report['mismatches'])} out-of-order pair(s)"
            )
            lines.append(f"{report['model']}: {verdict}")
            for name in report["scheduled"]:
                seconds = report["observed_seconds"][name]
                lines.append(f"  {seconds:>9.4f}s  {name}")
            for earlier, later in report["mismatches"]:
                lines.append(
                    f"  ! {earlier!r} scheduled before {later!r} "
                    f"but observed costlier"
                )
        return "\n".join(lines)

    def dot(self, plan: "Plan") -> str:
        """One plan's constraint term DAGs as Graphviz dot, each node
        annotated (and shaded) by its observed self time."""
        with self._lock:
            per_uid: dict[int, list] = {}
            for (model, _constraint, uid), stat in self._stats.items():
                if model != plan.name:
                    continue
                agg = per_uid.setdefault(uid, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(stat):
                    agg[i] += value
        hottest = max(
            (agg[_SELF] for agg in per_uid.values()), default=0.0
        )
        lines = [
            f'digraph "{plan.name}" {{',
            "  rankdir=BT;",
            '  node [shape=box, style=filled, fillcolor="#ffffff", '
            'fontname="monospace"];',
        ]
        seen: set[int] = set()

        def emit(t: "Term") -> None:
            if t.uid in seen:
                return
            seen.add(t.uid)
            agg = per_uid.get(t.uid)
            label = term_label(t)
            if agg:
                label += (
                    f"\\n{agg[_SELF]:.4f}s self / {agg[_COUNT]} evals"
                    f"\\n{agg[_ROWS]} rows, {agg[_HITS]} hits"
                )
                heat = agg[_SELF] / hottest if hottest else 0.0
                # White (cold) to red (hot) by self-time share.
                channel = 255 - int(round(170 * heat))
                fill = f"#ff{channel:02x}{channel:02x}"
            else:
                fill = "#f0f0f0"
            lines.append(
                f'  n{t.uid} [label="{label}", fillcolor="{fill}"];'
            )
            for arg in t.args:
                if hasattr(arg, "uid") and hasattr(arg, "op"):
                    lines.append(f"  n{arg.uid} -> n{t.uid};")
                    emit(arg)

        for constraint in plan.constraints:
            lines.append(
                f'  c_{constraint.name.replace(" ", "_")} '
                f'[label="{constraint.kind} {constraint.name}", '
                'shape=ellipse, fillcolor="#e8f0fe"];'
            )
            lines.append(
                f"  n{constraint.term.uid} -> "
                f'c_{constraint.name.replace(" ", "_")};'
            )
            emit(constraint.term)
        lines.append("}")
        return "\n".join(lines)


#: The process-global profiler the IR executor's hooks consult.
PROFILER = PlanProfiler()
