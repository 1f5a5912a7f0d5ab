"""The result type of conformance-test synthesis (§4.2, §5.3).

Synthesis reproduces the paper's Memalloy pipeline:

* **Forbid** -- every execution, up to the event bound and up to
  isomorphism, that is (a) *inconsistent* under the transactional model,
  (b) *consistent* under the non-transactional baseline (so the test is
  genuinely about transactions), and (c) *minimal* in the ⊏ order;
* **Allow** -- the one-step ⊏-weakenings of the Forbid tests (all
  consistent, by minimality), deduplicated.

The loop itself is :func:`repro.harness.scheduler.synthesise_sharded`,
reached through :meth:`repro.harness.pipeline.CheckPipeline.synthesis`
or :func:`repro.api.synthesize`.  Discovery timestamps are recorded per
Forbid test so that Figure 7's "fraction of tests found vs. time"
distribution can be regenerated, and a wall-clock budget makes a row
"non-exhaustive" exactly like the paper's 2-hour SAT timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events import Execution


@dataclass
class SynthesisResult:
    """The output of one synthesis run."""

    target: str
    max_events: int
    #: canonical Forbid representatives, in discovery order
    forbidden: list[Execution] = field(default_factory=list)
    #: canonical Allow representatives
    allowed: list[Execution] = field(default_factory=list)
    #: seconds since start, one entry per Forbid discovery
    discovery_times: list[float] = field(default_factory=list)
    #: total candidates examined
    candidates_examined: int = 0
    elapsed: float = 0.0
    complete: bool = True

    def forbidden_by_size(self) -> dict[int, list[Execution]]:
        out: dict[int, list[Execution]] = {}
        for x in self.forbidden:
            out.setdefault(len(x), []).append(x)
        return out

    def allowed_by_size(self) -> dict[int, list[Execution]]:
        out: dict[int, list[Execution]] = {}
        for x in self.allowed:
            out.setdefault(len(x), []).append(x)
        return out

    def transaction_histogram(self) -> dict[int, int]:
        """Forbid tests by number of transactions (§5.3 reports this)."""
        out: dict[int, int] = {}
        for x in self.forbidden:
            n = len(x.txn_classes)
            out[n] = out.get(n, 0) + 1
        return out
