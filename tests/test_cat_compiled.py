"""The lowered cat path: one AST→IR lowering per parsed model, running
on the shared planner/executor.

``tests/test_cat_models_agree.py`` pins the lowered evaluator's
verdicts against the native models; these tests pin the *lowering*
itself -- plan sharing, hash-cons unification with the Python twins,
static classification, ``static:`` interning/adoption, let-rec kinds,
and error behaviour.
"""

from __future__ import annotations

import pytest

from repro import ir
from repro.cat import (
    available_cat_models,
    load_cat_file,
    load_cat_model,
    parse,
)
from repro.cat.eval import CatModel, _compile_model
from repro.events import ExecutionBuilder
from repro.models import get_model


def _execution():
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w = t0.write("x")
    r = t1.read("x")
    b.rf(w, r)
    return b.build()


def test_compilation_shared_across_instances():
    """Loading the same bundled model twice parses its source once and
    reuses one lowered plan (and therefore one term DAG and one
    per-execution cache space); each load is still a new ``CatModel``."""
    for name in available_cat_models():
        first, second = load_cat_model(name), load_cat_model(name)
        assert first is not second
        assert first.model is second.model
        assert first.plan() is second.plan()


def test_load_cat_file_rereads_its_file(tmp_path):
    """An arbitrary ``.cat`` file is read afresh on every load, so an
    edit between two loads is seen."""
    path = tmp_path / "m.cat"
    path.write_text('"m" acyclic po as A')
    before = load_cat_file(path)
    path.write_text('"m" acyclic po | rf as A')
    after = load_cat_file(path)
    assert before.model != after.model
    assert before.plan() is not after.plan()


def test_distinct_models_get_distinct_plans():
    a = CatModel(parse('"m" let s = po acyclic s as A'))
    b = CatModel(parse('"m" let s = po | poloc acyclic s as A'))
    assert a.plan() is not b.plan()


def test_cat_twin_terms_unify_with_python_models():
    """Hash-consing makes the two encodings *literally share terms*:
    the cat SC model's ``po | com`` is the same object as the Python
    ``SCModel``'s, so their per-execution values and Order verdicts can
    never diverge -- agreement is structural, not coincidental."""
    cat_plan = load_cat_model("sc").plan()
    native_plan = get_model("sc").plan()
    assert cat_plan is not native_plan
    assert cat_plan.constraints[0].term is native_plan.constraints[0].term
    # ...and the shared (kind, term) pair shares one verdict-memo key.
    assert cat_plan.constraints[0].vkey == native_plan.constraints[0].vkey


def test_static_classification():
    """Bindings over skeleton-static identifiers lower to static terms;
    anything touching rf/co-derived relations is dynamic.  Staticness
    flows through earlier static bindings."""
    plan = _compile_model(
        parse(
            '"m" '
            "let fences = sync | lwsync "
            "let ord = fences | po "
            "let obs = rf | co "
            "let mixed = ord | obs "
            "acyclic fences as A "
            "acyclic ord as B "
            "acyclic obs as C "
            "acyclic mixed as D"
        )
    )
    flags = {c.name: c.term.static for c in plan.constraints}
    assert flags == {"A": True, "B": True, "C": False, "D": False}


def test_dynamic_shadowing_revokes_staticness():
    """A dynamic let shadowing a static name (here the builtin sloc)
    makes later readers of that name dynamic: their values depend on
    rf/co and must not be interned under a static: key."""
    plan = _compile_model(
        parse('"m" let sloc = rf | co let q = sloc acyclic q as A')
    )
    (constraint,) = plan.constraints
    assert not constraint.term.static
    assert constraint.term.skey is None


def test_static_bindings_interned_per_execution():
    """A static binding's value lands in the execution's
    RelationContext under its term's mechanical ``static:ir.n{uid}``
    key, and is reused by any other model whose lowering produced the
    same hash-consed term.  (The closure keeps it above the intern cost
    floor; trivially cheap static terms are recomputed instead.)"""
    source = '"m" let ord = (po | poloc)+ acyclic ord | rf as A'
    x = _execution()
    cat = CatModel(parse(source))
    assert cat.consistent(x)
    (constraint,) = cat.plan().constraints
    static_roots = [
        t
        for t in constraint.term.args
        if t.static and t.intern_root
    ]
    assert static_roots, "the static part of the axiom must be hoisted"
    for term in static_roots:
        assert term.skey.startswith("static:ir.")
        assert term.skey in x.context._cache


def test_static_bindings_adopted_across_completions():
    """Completions of one skeleton share the static cat bindings through
    ``Execution.adopt_skeleton_caches`` -- same mechanism, same keys, as
    the native models' static subterms."""
    cat = CatModel(parse('"m" let ord = (po | poloc)+ acyclic ord | rf as A'))
    template = _execution()
    assert cat.consistent(template)
    (constraint,) = cat.plan().constraints
    keys = [
        t.skey for t in constraint.term.args if t.static and t.intern_root
    ]
    assert keys
    sibling = _execution().adopt_skeleton_caches(template)
    for key in keys:
        assert key in sibling.context._cache
        assert sibling.context._cache[key] is template.context._cache[key]


def test_letrec_lowers_to_fix_group():
    """A ``let rec`` group lowers to one IR fixpoint group, shared by
    hash-consing across equal ASTs (the Power ppo recursion's cache)."""
    source = (
        '"m" let rec ii = rfi | ci and ci = ii ; po '
        "acyclic ii as A irreflexive ci as B"
    )
    plan_a = _compile_model(parse(source))
    plan_b = _compile_model(parse(source.replace('"m"', '"m2"')))
    a_ii, a_ci = (c.term for c in plan_a.constraints)
    assert a_ii.op == "fix" and a_ci.op == "fix"
    assert a_ii.group is a_ci.group
    b_ii = plan_b.constraints[0].term
    assert b_ii is a_ii  # same bodies → same hash-consed group


def test_letrec_seeds_set_kind():
    """Set-valued let-rec bindings are seeded from the empty set (same
    kind inference as the AST-walking evaluator), so a recursive *set*
    definition lowers and runs without a spurious type error."""
    cat = CatModel(
        parse(
            '"m" let rec obs = W | range([obs] ; rf) '
            "empty [obs] & (rf | rf^-1) as NoSelf"
        )
    )
    x = _execution()
    assert cat.consistent(x)


def test_lowering_errors_match_evaluator():
    """Lowering raises the same cat errors, with the same messages, as
    the walker -- now at model-construction time instead of first use."""
    from repro.cat import CatNameError, CatTypeError

    with pytest.raises(CatNameError, match="undefined identifier 'nonsense'"):
        CatModel(parse('"m" acyclic nonsense as A'))
    with pytest.raises(CatNameError, match="undefined function 'frob'"):
        CatModel(parse('"m" acyclic frob(po) as A'))
    with pytest.raises(CatTypeError, match="; needs a relation, got a set"):
        CatModel(parse('"m" acyclic W ; R as A'))
    with pytest.raises(CatTypeError, match="union of a set and a relation"):
        CatModel(parse('"m" acyclic W | po as A'))
    with pytest.raises(CatTypeError, match="needs a set, got a relation"):
        CatModel(parse('"m" acyclic [po] as A'))
    with pytest.raises(CatTypeError, match="acyclic needs a relation, got a set"):
        CatModel(parse('"m" acyclic W as A'))


def test_failed_axioms_reported_by_name():
    """Diagnostics come straight from the executor's per-constraint
    verdicts: the lowered model names the failed axioms exactly."""
    cat = CatModel(
        parse('"m" acyclic po | com as Order empty rf as NoReads')
    )
    x = _execution()
    assert cat.violated_axioms(x) == ["NoReads"]
    assert [name for name, _ in cat.axiom_thunks(x)] == ["Order", "NoReads"]
