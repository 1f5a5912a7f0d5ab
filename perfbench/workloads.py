"""The three workloads: set-up, one timed round, and pinned answers.

Each workload object is built inside a fresh interpreter
(``perfbench/rep.py``).  :meth:`setup` imports what the round needs and
builds its models, IR plans (with their generated runners) and
simulated machines.  :meth:`run` performs one round through the public
entry points (``repro.api``, ``repro.metatheory``, ``repro.fuzz``),
calls ``mark(phase)`` at the end of each phase so the repetition can
time it, and returns its outputs as plain data plus its work count
(``items``, done in ``item_phases``; an empty list means the whole
round).  :meth:`check` compares the outputs with the pinned answers;
every answer names where it comes from.

A round is made of *operations*: one Table 1 pass, one Table 2 row,
or one fuzz case.  ``ops_failed`` counts the operations
that raised, gave a wrong pinned answer or found a fuzz discrepancy.
"""

from __future__ import annotations

import hashlib


def _digest(executions) -> str:
    text = repr([x.fingerprint() for x in executions])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _warm(model) -> None:
    """Build the model's IR plan and generated runner (first call)."""
    from repro.catalog import figures

    model.consistent(figures.fig1())


class Table1Cache:
    """Table 1 for x86 at bound 3, twice against one verdict cache."""

    name = "table1-x86-b3-cache"
    workers = 2
    OPS = 2
    bound = 3
    #: BENCH_relations.json table1_x86 bound 3 (3453 candidates, 4 Forbid,
    #: 17 Allow); the paper's Table 1 has 4 Forbid tests at |E|=3 and
    #: none seen on TSX hardware (benchmarks/test_table1_x86.py); every
    #: Allow test is seen on the TSO machine at this bound.
    PINNED = {
        "candidates": 3453,
        "forbid": 4,
        "forbid_seen": 0,
        "allow": 17,
        "allow_seen": 17,
    }
    SOURCE = (
        "BENCH_relations.json table1_x86 bound 3; paper Table 1 x86 "
        "(4 Forbid at |E|=3, none seen); all 17 Allow seen on TSO"
    )

    def setup(self, tmp: str) -> None:
        from repro import api
        from repro.harness.pipeline import hardware_for

        model = api.load_model("x86tm")
        _warm(model)
        _warm(model.baseline())
        hardware_for("x86")

    def _pass(self, cache: str) -> dict:
        from repro import api
        from repro.obs import REGISTRY

        lookups = REGISTRY.counter("verdict_cache.lookups")
        hits = REGISTRY.counter("verdict_cache.hits")
        before = (lookups.value, hits.value)
        table = api.run_table(
            "table1", arch="x86", bound=self.bound, workers=self.workers,
            cache=cache,
        )
        rows = [
            (r.events, r.forbid_total, r.forbid_seen, r.allow_total, r.allow_seen)
            for r in table.rows
        ]
        synthesis = table.synthesis
        return {
            "candidates": synthesis.candidates_examined,
            "forbid": sum(r[1] for r in rows),
            "forbid_seen": sum(r[2] for r in rows),
            "allow": sum(r[3] for r in rows),
            "allow_seen": sum(r[4] for r in rows),
            "complete": synthesis.complete,
            "rows": rows,
            "digest": _digest(synthesis.forbidden + synthesis.allowed),
            "cache_lookups": lookups.value - before[0],
            "cache_hits": hits.value - before[1],
        }

    def run(self, seed: int, tmp: str, mark) -> dict:
        cache = f"{tmp}/verdicts"
        cold = self._pass(cache)
        mark("cold")
        warm = self._pass(cache)
        mark("warm")
        # Which cold-pass lookups hit depends on how chunks landed on the
        # two workers, so it is not an output.
        del cold["cache_hits"]
        return {
            "items": cold["candidates"],
            "item_phases": ["cold"],
            "outputs": {"cold": cold, "warm": warm},
        }

    def check(self, outputs: dict) -> int:
        cold, warm = outputs["cold"], outputs["warm"]
        cold_ok = cold["complete"] and all(
            cold[key] == value for key, value in self.PINNED.items()
        )
        same = {k: v for k, v in warm.items() if not k.startswith("cache_")}
        warm_ok = (
            same == {k: v for k, v in cold.items() if not k.startswith("cache_")}
            and warm["cache_lookups"] > 0
            and warm["cache_hits"] == warm["cache_lookups"]
        )
        return (not cold_ok) + (not warm_ok)


#: (property, target, bound, expected verdict).  Verdict is ``sound``
#: for elision/compilation and ``holds`` for monotonicity.  Sources:
#: the paper's Table 2 (arXiv:1710.04839) as reproduced and pinned in
#: benchmarks/test_table2_lock_elision.py, test_table2_compilation.py
#: and test_table2_monotonicity.py.  Power lock elision unsound is this
#: reproduction's finding where the paper's search timed out.
TABLE2_ROWS = (
    ("elision", "x86", None, True),
    ("elision", "power", None, False),
    ("elision", "armv8", None, False),
    ("elision", "armv8-fixed", None, True),
    ("compilation", "x86", 2, True),
    ("compilation", "power", 2, True),
    ("compilation", "armv8", 2, True),
    ("monotonicity", "x86", 3, True),
    ("monotonicity", "power", 3, False),
    ("monotonicity", "cpp", 2, True),
)


class Metatheory:
    """Ten Table 2 rows at small bounds, in-process."""

    name = "metatheory"
    workers = 0
    OPS = len(TABLE2_ROWS)
    SOURCE = (
        "paper Table 2 via benchmarks/test_table2_*.py: elision sound on "
        "x86/armv8-fixed, unsound on power/armv8; compilation sound; "
        "monotonicity holds on x86/cpp, fails on power"
    )

    def setup(self, tmp: str) -> None:
        from repro import api
        import repro.metatheory  # noqa: F401  (part of the set-up cost)

        for name in ("x86tm", "powertm", "armv8tm", "cpptm"):
            model = api.load_model(name)
            _warm(model)
            _warm(model.baseline())

    def run(self, seed: int, tmp: str, mark) -> dict:
        from repro.metatheory import (
            check_compilation,
            check_lock_elision,
            check_monotonicity,
        )

        rows = []
        for prop, target, bound, _ in TABLE2_ROWS:
            if prop == "elision":
                result = check_lock_elision(target)
                verdict, checked = result.sound, result.outcomes_checked
            elif prop == "compilation":
                result = check_compilation(target, bound)
                verdict, checked = result.sound, result.executions_checked
            else:
                result = check_monotonicity(target, bound)
                verdict, checked = result.holds, result.executions_checked
            rows.append([prop, target, verdict, result.complete, checked])
            mark(prop)
        return {
            "items": sum(row[4] for row in rows),
            "item_phases": [],
            "outputs": {"rows": rows},
        }

    def check(self, outputs: dict) -> int:
        failed = 0
        for row, (_, _, _, expected) in zip(outputs["rows"], TABLE2_ROWS):
            verdict, complete = row[2], row[3]
            # A positive verdict only counts if the search was exhaustive.
            if verdict != expected or (expected and not complete):
                failed += 1
        return failed + len(TABLE2_ROWS) - len(outputs["rows"])


class FuzzDiff:
    """Differential fuzzing (oracle matrix, shrinking on) for x86 and
    armv8, one campaign each, seeded from the benchmark seed."""

    name = "fuzz-diff"
    workers = 1
    ARCHES = ("x86", "armv8")
    BUDGET = 100
    OPS = len(ARCHES) * BUDGET
    SOURCE = "zero discrepancies: the oracles must agree (tests/test_fuzz.py)"

    def setup(self, tmp: str) -> None:
        from repro.cat import load_cat_model
        from repro.fuzz import DIFF_MODELS
        from repro.harness.pipeline import hardware_for, model_for

        for name in DIFF_MODELS:
            _warm(model_for(name))
            _warm(load_cat_model(name))
        for arch in self.ARCHES:
            hardware_for(arch)

    def run(self, seed: int, tmp: str, mark) -> dict:
        from repro.fuzz import FuzzConfig, run_fuzz

        reports = []
        for arch in self.ARCHES:
            report = run_fuzz(
                FuzzConfig(
                    arch=arch,
                    seed=seed,
                    budget=self.BUDGET,
                    mode="diff",
                    shrink=True,
                    workers=1,
                    corpus=f"{tmp}/corpus-{arch}.jsonl",
                )
            )
            reports.append(report)
            mark(arch)
        cases = sum(r.cases for r in reports)
        return {
            "items": cases,
            "item_phases": [],
            "outputs": {
                "cases": [r.cases for r in reports],
                "discrepancies": [len(r.discrepancies) for r in reports],
                "coverage": [r.coverage for r in reports],
            },
        }

    def check(self, outputs: dict) -> int:
        short = sum(max(0, self.BUDGET - n) for n in outputs["cases"])
        return sum(outputs["discrepancies"]) + short


WORKLOADS = {
    w.name: w for w in (Table1Cache, Metatheory, FuzzDiff)
}
