"""Per-execution and cross-execution interning of derived values.

Models and the IR executor repeatedly ask one execution the same
questions.  :class:`RelationContext` is created at most once per
execution (it lives in the execution's ``__dict__``, so sharing
skeleton caches between candidate executions also shares contexts'
inputs) and memoises those answers under string keys, so derived
values are computed once per execution instead of once per axiom.
:func:`global_intern` memoises values across executions, keyed by
their true inputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..obs import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..events.execution import Execution


#: Cross-execution intern table for derived relations, keyed by their
#: true inputs (e.g. ``po`` by the interned universe and the thread
#: sequences).  Enumeration visits thousands of skeletons that share
#: thread shapes, location assignments, or transaction structures; the
#: intern table computes each distinct derived relation once globally.
_GLOBAL_STATIC: dict[tuple, object] = {}
_GLOBAL_STATIC_MAX = 1 << 18

_GI_LOOKUPS = REGISTRY.counter("relations.global_intern.lookups")
_GI_HITS = REGISTRY.counter("relations.global_intern.hits")
_GI_MISSES = REGISTRY.counter("relations.global_intern.misses")


def global_intern(key: tuple, compute: Callable[[], object]) -> object:
    """Memoise ``compute()`` under ``key`` across all executions.

    The key must capture every input the computed value depends on;
    values must be immutable.
    """
    _GI_LOOKUPS.inc()
    value = _GLOBAL_STATIC.get(key)
    if value is None:
        _GI_MISSES.inc()
        value = compute()
        if len(_GLOBAL_STATIC) >= _GLOBAL_STATIC_MAX:
            # Reset rather than stop caching: bounds memory while keeping
            # the table effective for the current workload.
            _GLOBAL_STATIC.clear()
        _GLOBAL_STATIC[key] = value
    else:
        _GI_HITS.inc()
    return value


_CTX_LOOKUPS = REGISTRY.counter("relations.context.lookups")
_CTX_HITS = REGISTRY.counter("relations.context.hits")
_CTX_MISSES = REGISTRY.counter("relations.context.misses")


class RelationContext:
    """Interned per-execution cache of derived relational values."""

    __slots__ = ("execution", "_cache")

    def __init__(self, execution: "Execution"):
        self.execution = execution
        self._cache: dict[str, object] = {}

    def __reduce__(self):
        # A cache: pickle the context empty and let it refill lazily,
        # so checkpoints and pool payloads stay small.
        return (RelationContext, (self.execution,))

    @classmethod
    def of(cls, execution: "Execution") -> "RelationContext":
        """The (unique) context of an execution, created on first use."""
        ctx = execution.__dict__.get("_relation_context")
        if ctx is None:
            ctx = cls(execution)
            execution.__dict__["_relation_context"] = ctx
        return ctx

    def get(self, key: str, compute: Callable[[], object]) -> object:
        """Generic memo slot (used by models sharing work across axioms)."""
        _CTX_LOOKUPS.inc()
        cache = self._cache
        if key not in cache:
            _CTX_MISSES.inc()
            cache[key] = compute()
        else:
            _CTX_HITS.inc()
        return cache[key]
