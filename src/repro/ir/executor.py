"""The IR executor: evaluates plans over executions at bitset-row level.

One engine replaces the three historical consistency paths (generic
``axiom_thunks``, per-architecture hand-fused kernels, compiled ``.cat``
closures).  The executor works directly over adjacency-bitset rows
(``tuple[int, ...]``) and set masks (``int``) -- no intermediate
:class:`~repro.relations.Relation` objects on the hot path -- with four
layers of caching, all derived mechanically from term structure:

* **per-execution memo** -- every node value is stored under its term
  ``uid`` in a dict living on the execution (its ``_State``), so axioms
  (and different models checking the same execution) share subterm
  values;
* **skeleton adoption** -- static nodes are fetched through
  ``context.get("static:ir.n{uid}", ...)``, the prefix
  :meth:`Execution.adopt_skeleton_caches` copies across rf/co
  completions of one skeleton;
* **cross-execution interning** -- a static node's value is a pure
  function of its base-leaf rows, so it is resolved through
  :func:`~repro.relations.context.global_intern` keyed on those rows;
  fixpoint groups are interned the same way, keyed on their
  variable-free input values (generalising the hand-written Power
  ``ppo`` row cache);
* **verdict caches** -- acyclicity goes through
  :func:`acyclic_rows_cached`, and per-constraint verdicts are memoised
  per execution.

Evaluation short-circuits on empty operands (an empty left factor kills
a composition without touching the right factor; an empty accumulator
kills an intersection), which is how the old hand-fused kernels skipped
transactional machinery on transaction-free executions -- here it falls
out of the algebra.  Constraints run in the plan's cheapest-first order
with early exit (counted by ``ir.exec.constraint_short_circuits``).

One evaluator per purpose:

* :func:`_compute` is the one row-level op table.  :func:`_eval` wraps
  it with the node memo and the profiler, and ``let rec`` fixpoint
  rounds run through it too, on a per-round view of the state;
* the codegen runner (:mod:`repro.ir.codegen`) is the same op table
  emitted as straight-line source per plan -- the synthesis fast path;
* :func:`_rel_apply` is the Relation-level reference semantics
  (:func:`fallback_value`, :func:`reference_holds`).  It is what the
  property tests and the fuzzer compare the row engine against, and
  the live path for executions whose primitive relations live in mixed
  universes (hand-built tests) and so cannot be row-aligned.

:data:`_ACCESSORS` is the base vocabulary both engines read.

Profiling: when :data:`~repro.obs.profile.PROFILER` is enabled
(``--profile`` / ``REPRO_PROFILE=1``), evaluation takes the interpretive
path (compiled runners bypassed, so every node is visible) and each node
evaluation is timed and attributed to ``(model, constraint, node uid)``
-- see :mod:`repro.obs.profile` for the hot-node table, dot export and
planner-calibration report.  When disabled the only hot-path cost is
one ``PROFILER.enabled`` attribute check per node evaluation.
"""

from __future__ import annotations

import time
from operator import and_ as _and, attrgetter, or_ as _or

from ..events import NA as _NA_TAG
from ..obs import REGISTRY
from ..obs.profile import PROFILER
from ..relations import Relation
from ..relations.context import RelationContext, global_intern
from ..relations.relation import (
    _universe,
    acyclic_rows_cached,
    closure_rows_cached,
    compose_rows,
    rtc_rows_cached,
    transpose_rows,
)
from .plan import Constraint, Plan
from .terms import Term

_NODE_EVALS = REGISTRY.counter("ir.exec.node_evals")
_NODE_HITS = REGISTRY.counter("ir.exec.node_cache_hits")
_SHORT_CIRCUITS = REGISTRY.counter("ir.exec.constraint_short_circuits")
_FALLBACKS = REGISTRY.counter("ir.exec.relation_fallbacks")
_FAST_RUNS = REGISTRY.counter("ir.exec.compiled_runs")

_MISS = object()


class _Misaligned(Exception):
    """A base relation's universe cannot be aligned with the execution's
    event universe (hand-built executions): use the Relation fallback."""


#: The base vocabulary: each relation and event-set name → its accessor
#: on an :class:`~repro.events.Execution` (a Relation, or a set of event
#: ids).  The row engine (:func:`_base_rows`, :func:`_set_mask`) and the
#: Relation-level reference (:func:`_rel_apply`) both read it, fetching
#: only the names a term uses.  ``id`` is absent: each engine builds the
#: identity from the execution's universe.
_ACCESSORS = {
    # relations
    "po": attrgetter("po"),
    "poimm": attrgetter("po_imm"),
    "poloc": attrgetter("poloc"),
    "sloc": attrgetter("sloc"),
    "rf": attrgetter("rf"),
    "rfe": attrgetter("rfe"),
    "rfi": attrgetter("rfi"),
    "co": attrgetter("co"),
    "coe": attrgetter("coe"),
    "coi": attrgetter("coi"),
    "fr": attrgetter("fr"),
    "fre": attrgetter("fre"),
    "fri": attrgetter("fri"),
    "com": attrgetter("com"),
    "come": attrgetter("come"),
    "addr": attrgetter("addr"),
    "ctrl": attrgetter("ctrl"),
    "data": attrgetter("data"),
    "rmw": attrgetter("rmw"),
    "deps": attrgetter("deps"),
    "stxn": attrgetter("stxn"),
    "stxnat": attrgetter("stxnat"),
    "tfence": attrgetter("tfence"),
    "mfence": attrgetter("mfence"),
    "sync": attrgetter("sync"),
    "lwsync": attrgetter("lwsync"),
    "isync": attrgetter("isync"),
    "dmb": attrgetter("dmb"),
    "dmbld": attrgetter("dmbld"),
    "dmbst": attrgetter("dmbst"),
    "isb": attrgetter("isb"),
    # event sets
    "EV": attrgetter("eids"),
    "R": attrgetter("reads"),
    "W": attrgetter("writes"),
    "F": attrgetter("fences"),
    "M": attrgetter("memory_events"),
    "ACQ": attrgetter("acq"),
    "REL": attrgetter("rel"),
    "SC": attrgetter("sc_events"),
    "ATO": attrgetter("atomics"),
    "NA": lambda x: frozenset(
        e.eid for e in x.events if e.is_memory_access and _NA_TAG in e.tags
    ),
    "WEX": lambda x: x.rmw.range(),
    "LKD": lambda x: x.rmw.domain() | x.rmw.range(),
}


# ---------------------------------------------------------------------------
# Per-execution evaluation state
# ---------------------------------------------------------------------------


#: Per-interned-universe (n, zero, id_rows) -- every candidate execution
#: of a synthesis run shares one universe, so _State construction should
#: not rebuild these tuples 10^4 times.  Keyed on id(): interned
#: universes are immortal for the process (the intern table holds them).
_UNI_CONSTS: dict[int, tuple] = {}


class _State:
    """Row-level evaluation state for one execution, cached on the
    execution object itself (like its ``RelationContext``)."""

    __slots__ = ("x", "_ctx", "uni", "n", "zero", "id_rows", "vals", "_rels")

    def __init__(self, x):
        self.x = x
        self._ctx = None
        uni = _universe(frozenset(x.eids))
        self.uni = uni
        consts = _UNI_CONSTS.get(id(uni)) if uni.interned else None
        if consts is None:
            n = len(uni.elements)
            consts = (n, (0,) * n, tuple(1 << i for i in range(n)))
            if uni.interned and len(_UNI_CONSTS) < 1 << 12:
                _UNI_CONSTS[id(uni)] = consts
        self.n, self.zero, self.id_rows = consts
        #: term uid → rows tuple / set mask (plus verdict and fix-group
        #: entries under tuple keys).  Dynamic values persist for the
        #: execution's lifetime, so every plan touching the same term
        #: shares one evaluation.
        self.vals: dict = {}
        #: term uid → materialised Relation/frozenset (for `evaluate`);
        #: built lazily, most states never materialise anything.
        self._rels: dict | None = None

    @property
    def ctx(self) -> RelationContext:
        ctx = self._ctx
        if ctx is None:
            ctx = self._ctx = RelationContext.of(self.x)
        return ctx

    @property
    def rels(self) -> dict:
        rels = self._rels
        if rels is None:
            rels = self._rels = {}
        return rels

    def view(self, vals: dict) -> "_State":
        """This state with ``vals`` as its node memo (the scope of one
        fixpoint round, see :func:`_fix_iterate`)."""
        view = _State.__new__(_State)
        for slot in _State.__slots__:
            setattr(view, slot, getattr(self, slot))
        view.vals = vals
        return view

    def __reduce__(self):
        # A cache: serialise as "rebuild empty for this execution" so
        # checkpoints stay small (mirrors RelationContext.__reduce__).
        return (_state, (self.x,))


def _state(x) -> _State:
    own = x.__dict__
    st = own.get("_ir_state")
    if st is None:
        st = own["_ir_state"] = _State(x)
    return st


# ---------------------------------------------------------------------------
# Row-level term evaluation
# ---------------------------------------------------------------------------


def _eval(st: _State, t: Term):
    vals = st.vals
    v = vals.get(t.uid, _MISS)
    if v is not _MISS:
        _NODE_HITS.inc()
        if PROFILER.enabled:
            PROFILER.hit(t)
        return v
    # Under profiling the miss is timed (self time via the profiler's
    # child-time stack) and its result cardinality recorded.
    profiling = PROFILER.enabled
    if profiling:
        PROFILER.begin()
        started = time.perf_counter()
    try:
        if t.intern_root:
            v = _static_fetch(st, t)
        elif t.op == "fix":
            v = _eval_fix(st, t)
        else:
            v = _compute(st, t)
    except BaseException:
        if profiling:
            PROFILER.abort(time.perf_counter() - started)
        raise
    vals[t.uid] = v
    if profiling:
        PROFILER.end(t, time.perf_counter() - started, v)
    return v


def _static_fetch(st: _State, t: Term):
    # Routed through the context (counted, and the ``static:`` prefix
    # makes the entry ride ``adopt_skeleton_caches``), then through the
    # global intern table keyed on the leaf values the node is a pure
    # function of.
    return st.ctx.get(t.skey, lambda: _intern_static(st, t))


#: Structural-dependency tag → cheap cached key component (see
#: ``terms._LEAF_SDEPS``).  ``_intern_uid`` pins the interned universe
#: (hence the bit indexing), so these only need to pin the structural
#: facts the node's leaves derive from.
_SDEP_FETCH = {
    "threads": lambda x: x.threads,
    "locs": lambda x: x._loc_key,
    "kinds": lambda x: x._kind_key,
    "tags": lambda x: x._tag_key,
    "txn": lambda x: x._txn_key,
    "atxn": lambda x: tuple(sorted(x.atomic_txns)),
    "addr": lambda x: x.addr._rows,
    "ctrl": lambda x: x.ctrl._rows,
    "data": lambda x: x.data._rows,
    "rmw": lambda x: x.rmw._rows,
}


def _intern_static(st: _State, t: Term):
    # A static node's value is a pure function of the universe indexing
    # plus the structural facts its leaves derive from; the key is
    # assembled from those (cheap, already-cached) structural tuples --
    # never from the leaf values, which would have to be materialised
    # just to build a key for a table hit.
    x = st.x
    key = ("irs", t.uid, x._intern_uid) + tuple(
        _SDEP_FETCH[dep](x) for dep in t.sdeps
    )
    return global_intern(key, lambda: _compute(st, t))


def _eval_fix(st: _State, t: Term):
    group = t.group
    gkey = ("g", group.uid)
    results = st.vals.get(gkey, _MISS)
    if results is _MISS:
        invals = tuple(_eval(st, inp) for inp in group.inputs)
        results = global_intern(
            ("irfix", group.uid, st.n) + invals,
            lambda: _fix_iterate(st, group, invals),
        )
        st.vals[gkey] = results
    return results[t.args[1]]


def _fix_iterate(st: _State, group, invals: tuple) -> tuple:
    """Kleene iteration from the kind-appropriate bottoms.

    Each round evaluates the bodies through :func:`_eval` on a view of
    ``st`` whose memo holds only the group's inputs (evaluated by the
    caller) and its variables bound to the current iterate; every
    variable-free child of a variable-containing node is an input
    (``terms._inputs_of``), so no other value is needed, and the
    variable-containing nodes memoise per round."""
    inputs = {inp.uid: v for inp, v in zip(group.inputs, invals)}
    cur = [st.zero if kind == "rel" else 0 for kind in group.kinds]
    while True:
        vals = dict(inputs)
        for variable in group.variables:
            vals[variable.uid] = cur[variable.args[0]]
        view = st.view(vals)
        nxt = [_eval(view, body) for body in group.bodies]
        if nxt == cur:
            return tuple(nxt)
        cur = nxt


def _base_rows(st: _State, name: str):
    if name == "id":
        return st.id_rows
    relation = _ACCESSORS[name](st.x)
    if relation._uni is st.uni:
        return relation._rows
    try:
        return tuple(relation._realigned_rows(st.uni))
    except KeyError:
        raise _Misaligned(name) from None


def _set_mask(st: _State, name: str) -> int:
    index = st.uni.index
    mask = 0
    for eid in _ACCESSORS[name](st.x):
        i = index.get(eid)
        if i is None:
            raise _Misaligned(name)
        mask |= 1 << i
    return mask


def _domain_mask(rows) -> int:
    mask = 0
    for i, row in enumerate(rows):
        if row:
            mask |= 1 << i
    return mask


def _range_mask(rows) -> int:
    mask = 0
    for row in rows:
        mask |= row
    return mask


def _has_reflexive(rows) -> bool:
    for i, row in enumerate(rows):
        if (row >> i) & 1:
            return True
    return False


def _compute(st: _State, t: Term):
    """Compute one node from its children: the row-level op table.

    Children recurse straight into :func:`_eval` and the n-ary folds run
    through C-level ``map``; fixpoint rounds run here too, on a per-round
    view of the state.  The codegen emitter spells the same semantics as
    source, and the property tests compare both against the
    Relation-level reference."""
    _NODE_EVALS.inc()
    op = t.op
    args = t.args
    if op == "base":
        return _base_rows(st, args[0])
    if op == "union":
        if t.kind == "rel":
            acc = _eval(st, args[0])
            for child in args[1:]:
                acc = tuple(map(_or, acc, _eval(st, child)))
            return acc
        mask = 0
        for child in args:
            mask |= _eval(st, child)
        return mask
    if op == "seq":
        a = _eval(st, args[0])
        if not any(a):
            return st.zero
        b = _eval(st, args[1])
        if not any(b):
            return st.zero
        return tuple(compose_rows(a, b))
    if op == "inter":
        # Children are cost-sorted at construction; stop as soon as the
        # accumulator goes empty (``rmw ∩ ...`` on rmw-free executions).
        if t.kind == "rel":
            acc = _eval(st, args[0])
            if not any(acc):
                return st.zero
            for child in args[1:]:
                acc = tuple(map(_and, acc, _eval(st, child)))
                if not any(acc):
                    return st.zero
            return acc
        mask = _eval(st, args[0])
        for child in args[1:]:
            if not mask:
                return 0
            mask &= _eval(st, child)
        return mask
    if op == "diff":
        left, right = args
        if t.kind == "rel":
            a = _eval(st, left)
            if not any(a):
                return st.zero
            b = _eval(st, right)
            if not any(b):
                return a
            return tuple(p & ~q for p, q in zip(a, b))
        return _eval(st, left) & ~_eval(st, right)
    if op == "opt":
        rows = _eval(st, args[0])
        return tuple(row | (1 << i) for i, row in enumerate(rows))
    if op == "plus":
        return closure_rows_cached(st.uni, _eval(st, args[0]))
    if op == "star":
        return rtc_rows_cached(st.uni, _eval(st, args[0]))
    if op == "set":
        return _set_mask(st, args[0])
    return _apply_rest(st, t, op, args)


def _apply_rest(st: _State, t: Term, op: str, args):
    """The cold tail of the op vocabulary."""
    if op == "inv":
        return tuple(transpose_rows(_eval(st, args[0])))
    if op == "comp":
        full = st.uni.full_mask
        return tuple(~row & full for row in _eval(st, args[0]))
    if op == "setrel":
        mask = _eval(st, args[0])
        return tuple((1 << i) if (mask >> i) & 1 else 0 for i in range(st.n))
    if op == "cross":
        sources = _eval(st, args[0])
        if not sources:
            return st.zero
        targets = _eval(st, args[1])
        if not targets:
            return st.zero
        return tuple(targets if (sources >> i) & 1 else 0 for i in range(st.n))
    if op == "domain":
        return _domain_mask(_eval(st, args[0]))
    if op == "range":
        return _range_mask(_eval(st, args[0]))
    if op == "empty":
        return st.zero if t.kind == "rel" else 0
    if op == "fix":
        # An interned static fix node, computed under its intern key.
        return _eval_fix(st, t)
    raise AssertionError(f"unexpected op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Constraint checking
# ---------------------------------------------------------------------------


def _holds(st: _State, constraint: Constraint) -> bool:
    rows = _eval(st, constraint.term)
    kind = constraint.kind
    if kind == "acyclic":
        return acyclic_rows_cached(st.uni, rows)
    if kind == "irreflexive":
        return not _has_reflexive(rows)
    return not any(rows)


def _check(st: _State, constraint: Constraint) -> bool:
    """Per-execution verdict memo, keyed on (kind, term) so the same
    axiom shared between plans (TM model and its baseline, say) is
    decided once."""
    key = constraint.vkey
    v = st.vals.get(key, _MISS)
    if v is not _MISS:
        return v
    v = _holds(st, constraint)
    st.vals[key] = v
    return v


def _checked(st: _State, plan: Plan, constraint: Constraint) -> bool:
    if PROFILER.enabled:
        PROFILER.note_plan(plan)
        with PROFILER.constraint(plan.name, constraint.name):
            with REGISTRY.timer(
                f"ir.constraint.{plan.name}.{constraint.name}"
            ).time():
                return _check(st, constraint)
    return _check(st, constraint)


# ---------------------------------------------------------------------------
# Compiled runners (repro.ir.codegen)
# ---------------------------------------------------------------------------


#: Primitives handed to generated runners (see ``codegen.build``).
_CODEGEN_NS = {
    "_M": _MISS,
    "_s": _static_fetch,
    "_b": _base_rows,
    "_m": _set_mask,
    "_fx": _eval_fix,
    "_cr": compose_rows,
    "_clo": closure_rows_cached,
    "_rtc": rtc_rows_cached,
    "_tr": transpose_rows,
    "_acy": acyclic_rows_cached,
    "_or": _or,
    "_and": _and,
    "_dif": lambda p, q: p & ~q,
    "_dom": _domain_mask,
    "_rng": _range_mask,
    "_refl": _has_reflexive,
    "_sc": _SHORT_CIRCUITS,
}


def _runner_for(plan: Plan):
    runner = plan.runner
    if runner is None:
        from . import codegen

        try:
            runner = codegen.build(plan, _CODEGEN_NS)
        except Exception:  # pragma: no cover - codegen must not break models
            runner = False
        plan.runner = runner
    return runner


# ---------------------------------------------------------------------------
# Relation-level fallback (mixed-universe executions; reference semantics)
# ---------------------------------------------------------------------------


def _fallback_memo(x) -> dict:
    cache = RelationContext.of(x)._cache
    memo = cache.get("ir.relvals")
    if memo is None:
        memo = {}
        cache["ir.relvals"] = memo
    return memo


def fallback_value(term: Term, x):
    """Relation-level evaluation of a term (the reference semantics the
    row engine is property-tested against; also the live path for
    executions whose primitives cannot be row-aligned)."""
    return _rel_eval(term, x, _fallback_memo(x))


def _rel_eval(t: Term, x, memo: dict):
    v = memo.get(t.uid, _MISS)
    if v is _MISS:
        v = memo[t.uid] = _rel_apply(t, x, memo)
    return v


def _rel_apply(t: Term, x, memo: dict):
    ev = lambda child: _rel_eval(child, x, memo)
    op = t.op
    if op in ("base", "set"):
        name = t.args[0]
        if name == "id":
            return Relation.identity(x.eids)
        return _ACCESSORS[name](x)
    if op == "union":
        value = ev(t.args[0])
        for child in t.args[1:]:
            value = value | ev(child)
        return value
    if op == "inter":
        value = ev(t.args[0])
        for child in t.args[1:]:
            value = value & ev(child)
        return value
    if op == "diff":
        return ev(t.args[0]) - ev(t.args[1])
    if op == "seq":
        return ev(t.args[0]).compose(ev(t.args[1]))
    if op == "plus":
        return ev(t.args[0]).transitive_closure()
    if op == "star":
        return ev(t.args[0]).reflexive_transitive_closure()
    if op == "opt":
        return ev(t.args[0]).optional()
    if op == "inv":
        return ev(t.args[0]).inverse()
    if op == "comp":
        return ~ev(t.args[0])
    if op == "setrel":
        return Relation.from_set(ev(t.args[0]), x.eids)
    if op == "cross":
        return Relation.cross(ev(t.args[0]), ev(t.args[1]), x.eids)
    if op == "domain":
        return ev(t.args[0]).domain()
    if op == "range":
        return ev(t.args[0]).range()
    if op == "empty":
        return Relation.empty(x.eids) if t.kind == "rel" else frozenset()
    if op == "fix":
        # Kleene iteration; each round's memo holds the group's inputs
        # and its variables bound to the current iterate.
        group = t.group
        results = memo.get(("g", group.uid), _MISS)
        if results is _MISS:
            inputs = {inp.uid: ev(inp) for inp in group.inputs}
            cur = [
                Relation.empty(x.eids) if kind == "rel" else frozenset()
                for kind in group.kinds
            ]
            while True:
                rounds = dict(inputs)
                for variable in group.variables:
                    rounds[variable.uid] = cur[variable.args[0]]
                nxt = [_rel_eval(body, x, rounds) for body in group.bodies]
                if nxt == cur:
                    break
                cur = nxt
            results = tuple(cur)
            memo[("g", group.uid)] = results
        return results[t.args[1]]
    raise AssertionError(f"unexpected op {op!r}")  # pragma: no cover


def reference_holds(constraint: Constraint, x) -> bool:
    """A constraint's verdict by the Relation-level reference semantics
    (no row kernels, no codegen, no verdict memo)."""
    value = fallback_value(constraint.term, x)
    if constraint.kind == "acyclic":
        return value.is_acyclic()
    if constraint.kind == "irreflexive":
        return value.is_irreflexive()
    return value.is_empty()


def _verdict(st: _State, plan: Plan, constraint: Constraint) -> bool:
    """One constraint's verdict on the row engine, or by the reference
    when the execution's primitives cannot be row-aligned."""
    try:
        return _checked(st, plan, constraint)
    except _Misaligned:
        _FALLBACKS.inc()
        return reference_holds(constraint, st.x)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def consistent(plan: Plan, x) -> bool:
    """All constraints hold, evaluated cheapest-first with early exit."""
    st = _state(x)
    scheduled = plan.scheduled
    # Under profiling every check takes the interpretive loop below: the
    # compiled runners fold node evaluation into opaque generated code,
    # which would hide exactly the per-node structure being profiled.
    if not PROFILER.enabled:
        vals = st.vals
        if vals:
            # Repeat calls answer from the verdict memo (a False verdict
            # decides the conjunction even if later ones are missing).
            for constraint in scheduled:
                v = vals.get(constraint.vkey)
                if v is None:
                    break
                if not v:
                    return False
            else:
                return True
        # The synthesis hot path: run the plan's compiled runner, which
        # records its verdicts in ``vals`` so thunk/diagnostic calls (and
        # other plans sharing constraints) agree with it.  Re-running a
        # plan recomputes rows rather than reading the interpretive node
        # memo, but expensive verdicts still hit the row-level caches.
        runner = _runner_for(plan)
        if runner is not False:
            _FAST_RUNS.inc()
            try:
                return runner(st)
            except _Misaligned:
                pass  # the loop below decides by the reference
    for position, constraint in enumerate(scheduled):
        if not _verdict(st, plan, constraint):
            if position + 1 < len(scheduled):
                _SHORT_CIRCUITS.inc()
            return False
    return True


def violated_axioms(plan: Plan, x) -> list[str]:
    """Names of failing constraints, in declaration order, straight from
    the executor's per-constraint verdicts (no separate diagnostic
    path)."""
    st = _state(x)
    return [c.name for c in plan.constraints if not _verdict(st, plan, c)]


def axiom_thunks(plan: Plan, x) -> list[tuple[str, "callable"]]:
    """``(name, thunk)`` pairs in declaration order; each thunk resolves
    through the executor's verdict memo (so the thunk view and the fast
    path can never disagree)."""
    st = _state(x)
    return [
        (c.name, lambda c=c: _verdict(st, plan, c)) for c in plan.constraints
    ]


def evaluate(term: Term, x):
    """Materialise a term over an execution as a
    :class:`~repro.relations.Relation` (or frozenset for set terms),
    interned per execution so repeated calls return the identical
    object."""
    st = _state(x)
    v = st.rels.get(term.uid, _MISS)
    if v is not _MISS:
        return v
    try:
        raw = _eval(st, term)
    except _Misaligned:
        _FALLBACKS.inc()
        v = fallback_value(term, x)
    else:
        if term.kind == "rel":
            v = Relation._make(st.uni, raw)
        else:
            elements = st.uni.elements
            v = frozenset(
                elements[i] for i in range(st.n) if (raw >> i) & 1
            )
    st.rels[term.uid] = v
    return v
