"""Self-time probes wrapped around the program's public layer functions.

A traced repetition calls :func:`install` before it builds anything.
Every public function listed in :data:`FUNCTIONS`, every method in
:data:`METHODS` and every derived relation of ``Execution`` in
:data:`DERIVED` is replaced, at each module attribute that holds it, by
a wrapper that measures the call's *self* time: its duration minus the
time of the probed calls nested inside it.  So the layer seconds of one
process never count an interval twice.

Each wrapper adds its self time to two places:

* a ``perfbench.<layer>`` timer in the program's ``repro.obs`` registry.
  Pool workers are forked after :func:`install`, inherit the wrappers,
  and ship the timer back in their metric deltas, so a registry snapshot
  covers every process.
* :attr:`Probes.local`, which only this process updates.  It gives the
  driving process's own layer time, which is what ``unattributed_s`` is
  measured against.

Nothing under ``src/`` changes: the probes only rebind attributes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from functools import cached_property

#: layer → ``(module, attribute)`` of the public functions it covers.
FUNCTIONS = {
    "enumeration.complete": [
        ("repro.enumeration.shapes", "enumerate_skeletons"),
        ("repro.enumeration.complete", "complete_skeleton"),
        ("repro.enumeration.complete", "enumerate_executions"),
        ("repro.enumeration.sharding", "complete_shard_range"),
        ("repro.enumeration.sharding", "complete_skeleton_range"),
    ],
    "enumeration.canonical": [("repro.enumeration.canonical", "canonical_key")],
    "enumeration.minimality": [
        ("repro.enumeration.minimality", "is_minimal_inconsistent")
    ],
    "enumeration.weakenings": [("repro.enumeration.minimality", "weakenings")],
    "ir.consistent": [("repro.ir.executor", "consistent")],
    "ir.compile": [
        ("repro.ir.plan", "compile_model"),
        ("repro.ir.codegen", "build"),
    ],
    "verdict_cache.digest": [
        ("repro.harness.verdict_cache", "execution_digest")
    ],
    "litmus.convert": [("repro.litmus.convert", "execution_to_litmus")],
    "litmus.find_witness": [("repro.litmus.candidates", "find_witness")],
    "metatheory.elision": [
        ("repro.metatheory.lock_elision", "check_lock_elision")
    ],
    "metatheory.compilation": [
        ("repro.metatheory.compilation", "check_compilation")
    ],
    "metatheory.monotonicity": [
        ("repro.metatheory.monotonicity", "check_monotonicity")
    ],
    "cat.load": [("repro.cat.loader", "load_cat_model")],
    "fuzz.oracle": [("repro.fuzz.oracles", "evaluate_case")],
    "fuzz.shrink": [("repro.fuzz.shrink", "shrink")],
}

#: layer → ``(module, class, method)``.
METHODS = {
    "verdict_cache.open": [
        ("repro.harness.verdict_cache", "VerdictCache", "__init__")
    ],
    "sim.observable": [
        ("repro.sim.oracle", "TSOHardware", "observable"),
        ("repro.sim.oracle", "OracleHardware", "observable"),
    ],
}

#: The derived relations of ``Execution`` (``fr``, ``com`` and the
#: external/internal splits), timed as the ``events.derive`` layer.
DERIVED = ("fr", "fre", "fri", "com", "come", "rfe", "rfi", "coe", "coi")

LAYERS = tuple(FUNCTIONS) + tuple(METHODS) + ("events.derive",)


class Probes:
    """The installed wrappers of one process and their local totals."""

    def __init__(self) -> None:
        from repro.obs import REGISTRY

        self._registry = REGISTRY
        #: Child-time accumulators, one per open probed call; the first
        #: entry collects the time of outermost calls.
        self._stack = [0.0]
        #: layer → self seconds spent in this process.
        self.local = dict.fromkeys(LAYERS, 0.0)

    def _record(self, layer: str, timer, elapsed: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += elapsed
        own = elapsed - child
        timer.observe(own)
        self.local[layer] += own

    def wrap(self, layer: str, fn):
        timer = self._registry.timer(f"perfbench.{layer}")
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # Only the generator's own steps count: the consumer's work
            # between two items belongs to whoever consumes them.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    started = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._record(layer, timer, clock() - started)
                        return
                    except BaseException:
                        self._record(layer, timer, clock() - started)
                        raise
                    self._record(layer, timer, clock() - started)
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(layer, timer, clock() - started)

        return call


def install() -> Probes:
    """Import every probed module and rebind each probed function at
    every ``repro`` module attribute that holds it."""
    import importlib

    probes = Probes()
    replacements = {}
    for layer, sites in FUNCTIONS.items():
        for module_name, attr in sites:
            original = getattr(importlib.import_module(module_name), attr)
            replacements[id(original)] = (original, probes.wrap(layer, original))
    # Modules already loaded that import a probed function by name hold
    # their own reference to it, so every loaded repro module is
    # searched; modules loaded later import the rebound attribute.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    for layer, sites in METHODS.items():
        for module_name, class_name, method in sites:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, method, probes.wrap(layer, cls.__dict__[method]))

    from repro.events import Execution

    for name in DERIVED:
        original = Execution.__dict__[name]
        timed = cached_property(probes.wrap("events.derive", original.func))
        timed.__set_name__(Execution, name)
        setattr(Execution, name, timed)
    return probes
