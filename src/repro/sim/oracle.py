"""Axiomatic-oracle hardware for Power and ARMv8 (substitution layer).

The paper validates its Power model on an 80-core POWER8 and its ARMv8
model against an RTL prototype.  Neither is available here, so simulated
hardware is an *oracle*: a machine that exhibits exactly the behaviours
some axiomatic model allows, optionally restricted by implementation
conservatism.

Two knobs reproduce the paper's empirical observations:

* ``no_load_buffering`` -- POWER8 has never been observed to perform the
  LB shape (§5.3: "Many of the unobserved Power Allow tests are based on
  the load-buffering (LB) shape, which has never actually been observed
  on a Power machine").  The filter adds ``acyclic(po ∪ rf)`` to the
  implementation, so LB-shaped Allow tests come back "not seen" exactly
  as in Table 1.

* ``drop_axiom`` -- the §6.2 story: ARM architects used the generated
  conformance suite to find a TxnOrder violation in an RTL prototype.
  ``drop_axiom="TxnOrder"`` builds that buggy implementation; running
  the Forbid suite against it flags the bug.
"""

from __future__ import annotations

from ..events import Execution
from ..litmus.candidates import passing_candidates
from ..litmus.program import Program
from ..models.base import AxiomThunk, MemoryModel
from ..obs import REGISTRY

_OBSERVABLE_TIMER = REGISTRY.timer("sim.observable.seconds")
_CANDIDATES = REGISTRY.counter("sim.observable.candidates")


class FilteredModel(MemoryModel):
    """A model with named axioms removed and/or extra axioms added."""

    def __init__(
        self,
        base: MemoryModel,
        drop_axioms: tuple[str, ...] = (),
        extra_axioms: tuple[AxiomThunk, ...] = (),
        name: str | None = None,
    ):
        self.base = base
        self.drop_axioms = tuple(drop_axioms)
        self._extra = tuple(extra_axioms)
        self.is_transactional = base.is_transactional
        self.name = name or (
            base.name
            + "".join(f"-{a}" for a in drop_axioms)
        )

    def axiom_thunks(self, execution: Execution) -> list[AxiomThunk]:
        thunks = [
            (axiom, thunk)
            for axiom, thunk in self.base.axiom_thunks(execution)
            if axiom not in self.drop_axioms
        ]
        return thunks

    def baseline(self) -> MemoryModel:
        return self.base.baseline()


class OracleHardware:
    """Simulated hardware whose observable behaviours are exactly the
    executions consistent with ``implementation`` (a sub-model of the
    architecture)."""

    def __init__(
        self,
        implementation: MemoryModel,
        no_load_buffering: bool = False,
        name: str = "oracle",
    ):
        self.implementation = implementation
        self.no_load_buffering = no_load_buffering
        self.name = name

    @staticmethod
    def power8(model: MemoryModel) -> "OracleHardware":
        """A POWER8-like machine: model-exact except LB shapes never
        manifest."""
        return OracleHardware(model, no_load_buffering=True, name="POWER8-sim")

    @staticmethod
    def armv8_rtl_buggy(model: MemoryModel) -> "OracleHardware":
        """The §6.2 RTL prototype with its TxnOrder bug."""
        return OracleHardware(
            FilteredModel(model, drop_axioms=("TxnOrder",)),
            name="ARM-RTL-buggy",
        )

    # ------------------------------------------------------------------

    def _implementation_allows(self, execution: Execution) -> bool:
        if self.no_load_buffering and not (execution.po | execution.rf).is_acyclic():
            return False
        return self.implementation.consistent(execution)

    def observable(
        self,
        program: Program,
        intended_co: dict[str, tuple[int, ...]] | None = None,
    ) -> bool:
        """Would running this test on the simulated machine ever satisfy
        its postcondition?  With ``intended_co``, the candidate's
        coherence order must match the generating execution's."""
        with _OBSERVABLE_TIMER.time():
            for candidate in passing_candidates(program):
                _CANDIDATES.inc()
                if intended_co is not None and not _co_matches(
                    candidate, intended_co
                ):
                    continue
                if self._implementation_allows(candidate.execution):
                    return True
            return False


def _co_matches(candidate, intended_co: dict[str, tuple[int, ...]]) -> bool:
    """Does the candidate's coherence order, read off as per-location
    value sequences, match the intended one?  (§2.2 tests use distinct
    values per location, so the value sequence identifies co.)"""
    actual = candidate.co_value_sequences()
    return all(
        actual.get(loc, ()) == tuple(values)
        for loc, values in intended_co.items()
    )


class TSOHardware:
    """Adapter giving the operational TSX machine the same interface."""

    name = "TSX-sim"

    def observable(
        self,
        program: Program,
        intended_co: dict[str, tuple[int, ...]] | None = None,
    ) -> bool:
        from .tso import TSOMachine

        with _OBSERVABLE_TIMER.time():
            return TSOMachine(program).observable(intended_co)
