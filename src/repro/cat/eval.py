"""Lowering: compile a parsed cat model into the relational-algebra IR.

Expressions denote either a relation or a set of event ids; lowering
type-checks operator applications (``;`` needs relations, ``[·]`` needs
a set, ``|``/``&``/``\\`` need two values of the same kind) and resolves
names, once per parsed model, raising :class:`CatNameError` /
:class:`CatTypeError`.

Each model's AST is lowered once into the IR (:mod:`repro.ir`) by
:func:`_compile_model` (cached per parsed model) and executed by the
same planner/executor as the native Python models.  Hash-consing makes
a ``.cat`` twin's terms unify with its Python twin's wherever they are
written the same way, so the two front ends literally share
derived-relation values, ``static:`` interning, and per-constraint
verdicts on each execution.

``let rec`` groups become IR fixpoint groups, solved by Kleene
iteration from empty values of each binding's inferred kind (set or
relation): the defining operators are all monotone, and the universe is
finite, so the least fixpoint is reached in finitely many rounds --
this is how the Power ``ppo`` recursion (ii/ic/ci/cc) executes.
"""

from __future__ import annotations

from ..models.base import IRModel
from ..obs import REGISTRY
from .. import ir
from .ast import (
    Call,
    Complement,
    Diff,
    EmptyRel,
    Expr,
    Ident,
    Inter,
    Inverse,
    Let,
    Model,
    Optional,
    ReflTransClosure,
    Seq,
    SetToRel,
    TransClosure,
    Union,
)
from .errors import CatNameError, CatTypeError


# ---------------------------------------------------------------------------
# Kind inference (sets vs relations) for let-rec seeding
# ---------------------------------------------------------------------------

#: Builtin functions with a known result kind.
_FUNCTION_KINDS = {
    "weaklift": "rel",
    "stronglift": "rel",
    "cross": "rel",
    "domain": "set",
    "range": "set",
}


def _infer_kind(expr: Expr, kinds: dict[str, str]) -> str | None:
    """``"rel"``, ``"set"``, or ``None`` when undetermined (an identifier
    of unknown kind, e.g. a not-yet-resolved recursive binding)."""
    if isinstance(expr, Ident):
        return kinds.get(expr.name)
    if isinstance(expr, EmptyRel):
        return "rel"
    if isinstance(expr, (Union, Inter, Diff)):
        return _infer_kind(expr.left, kinds) or _infer_kind(expr.right, kinds)
    if isinstance(
        expr,
        (Seq, TransClosure, ReflTransClosure, Optional, Inverse, Complement, SetToRel),
    ):
        return "rel"
    if isinstance(expr, Call):
        return _FUNCTION_KINDS.get(expr.function)
    return None


def _rec_seed_kinds(bindings, kinds: dict[str, str]) -> dict[str, str]:
    """The kind each ``let rec`` binding should be seeded with.

    Kinds propagate through the group until a fixpoint: a binding whose
    expression mentions only resolved names resolves too.  A binding
    whose kind stays undetermined (e.g. ``let rec a = b and b = a``)
    defaults to a relation, matching the historical behaviour.
    """
    kinds = dict(kinds)
    for binding in bindings:
        kinds.pop(binding.name, None)  # shadowed by the rec group
    pending = {b.name for b in bindings}
    changed = True
    while changed and pending:
        changed = False
        for binding in bindings:
            if binding.name not in pending:
                continue
            kind = _infer_kind(binding.value, kinds)
            if kind is not None:
                kinds[binding.name] = kind
                pending.discard(binding.name)
                changed = True
    return {b.name: kinds.get(b.name, "rel") for b in bindings}


# ---------------------------------------------------------------------------
# AST → IR plan, once per parsed model
# ---------------------------------------------------------------------------

#: Builtin function identifiers, mapped to IR combinators.  The IR
#: builders carry the kind discipline, so misuse surfaces as a
#: CatTypeError at lowering time.
_IR_FUNCTIONS = {
    "weaklift": ir.weaklift,
    "stronglift": ir.stronglift,
    "cross": ir.cross,
    "domain": ir.domain,
    "range": ir.range_,
}


def _base_term_env() -> dict[str, ir.Term]:
    """The builtin identifier environment: one IR leaf per name of the
    base vocabulary (:data:`repro.ir.BASE_RELATIONS` and
    :data:`repro.ir.EVENT_SETS`)."""
    env: dict[str, ir.Term] = {
        name: ir.rel(name) for name in ir.BASE_RELATIONS
    }
    env.update({name: ir.evset(name) for name in ir.EVENT_SETS})
    return env


def _lower_expr(expr: Expr, env: dict[str, ir.Term]) -> ir.Term:
    """Translate an expression into a hash-consed IR term.

    Name resolution and kind checking happen here, once per model,
    instead of on every evaluation.
    """
    if isinstance(expr, Ident):
        term = env.get(expr.name)
        if term is None:
            raise CatNameError(f"undefined identifier {expr.name!r}")
        return term
    if isinstance(expr, EmptyRel):
        return ir.empty("rel")
    if isinstance(expr, Union):
        return ir.union(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, Inter):
        return ir.inter(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, Diff):
        return ir.diff(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, Seq):
        return ir.seq(_lower_expr(expr.left, env), _lower_expr(expr.right, env))
    if isinstance(expr, TransClosure):
        return ir.plus(_lower_expr(expr.operand, env))
    if isinstance(expr, ReflTransClosure):
        return ir.star(_lower_expr(expr.operand, env))
    if isinstance(expr, Optional):
        return ir.opt(_lower_expr(expr.operand, env))
    if isinstance(expr, Inverse):
        return ir.inv(_lower_expr(expr.operand, env))
    if isinstance(expr, Complement):
        return ir.comp(_lower_expr(expr.operand, env))
    if isinstance(expr, SetToRel):
        return ir.setrel(_lower_expr(expr.operand, env))
    if isinstance(expr, Call):
        fn = _IR_FUNCTIONS.get(expr.function)
        if fn is None:
            raise CatNameError(f"undefined function {expr.function!r}")
        return fn(*[_lower_expr(a, env) for a in expr.arguments])
    raise TypeError(f"unknown expression {expr!r}")


def _lower_let(let: Let, env: dict[str, ir.Term]) -> None:
    """Bind a let statement's names to terms (in ``env``, mutated)."""
    if not let.recursive:
        for binding in let.bindings:
            env[binding.name] = _lower_expr(binding.value, env)
        return
    # A let rec group becomes one IR fixpoint group: each binding is a
    # de Bruijn variable inside the bodies, and the executor runs a
    # Kleene iteration seeded from each binding's inferred kind (a
    # recursive *set* definition must start from the empty set, not an
    # empty relation), with the group's result interned across
    # executions on its input values.
    seeds = _rec_seed_kinds(
        let.bindings, {name: term.kind for name, term in env.items()}
    )
    kinds = [seeds[b.name] for b in let.bindings]
    rec_env = dict(env)
    for index, binding in enumerate(let.bindings):
        rec_env[binding.name] = ir.var(index, kinds[index])
    bodies = [_lower_expr(b.value, rec_env) for b in let.bindings]
    fixes = ir.fix(bodies, kinds)
    for binding, fixed in zip(let.bindings, fixes):
        env[binding.name] = fixed


_CHECK_BUILDERS = {
    "acyclic": ir.acyclic,
    "irreflexive": ir.irreflexive,
    "empty": ir.empty_c,
}

#: Lowered plans, keyed by the (hashable, structurally-compared) parsed
#: model, so every CatModel over the same AST -- including repeated
#: ``load_cat_model`` calls -- shares one plan, one term DAG, and
#: therefore one set of per-execution caches.
_COMPILED_CACHE: dict[Model, ir.Plan] = {}

_COMPILE_LOOKUPS = REGISTRY.counter("cat.compile_cache.lookups")
_COMPILE_HITS = REGISTRY.counter("cat.compile_cache.hits")
_COMPILE_MISSES = REGISTRY.counter("cat.compile_cache.misses")


def _compile_model(model: Model) -> ir.Plan:
    """Lower a parsed model into an IR constraint plan (cached).

    Terms are hash-consed globally, so wherever a ``.cat`` model writes
    the same derived relation as a native Python model (or another cat
    model), the two share one term -- and with it the per-execution
    value memo, the ``static:`` interning, and the constraint verdict.
    """
    _COMPILE_LOOKUPS.inc()
    cached = _COMPILED_CACHE.get(model)
    if cached is not None:
        _COMPILE_HITS.inc()
        return cached
    _COMPILE_MISSES.inc()
    env = _base_term_env()
    constraints: list[ir.Constraint] = []
    try:
        for statement in model.statements:
            if isinstance(statement, Let):
                _lower_let(statement, env)
            else:
                constraints.append(
                    _CHECK_BUILDERS[statement.kind](
                        statement.name, _lower_expr(statement.expr, env)
                    )
                )
    except ir.IRTypeError as exc:
        # The IR builders' message texts are the cat language's.
        raise CatTypeError(str(exc)) from None
    plan = ir.compile_model(model.name, constraints)
    _COMPILED_CACHE[model] = plan
    return plan


class CatModel(IRModel):
    """A parsed cat model exposed through the MemoryModel interface, so
    cat-defined and native models are interchangeable everywhere.

    The AST is lowered to an IR plan once per parsed model (shared
    across instances over equal ASTs); consistency checks, axiom thunks
    and diagnostics all run on the shared IR executor, exactly like the
    native models'.
    """

    def __init__(self, model: Model, transactional: bool = True):
        self.model = model
        self.name = model.name
        self.is_transactional = transactional
        self._plan = _compile_model(model)

    def plan(self) -> ir.Plan:
        return self._plan
