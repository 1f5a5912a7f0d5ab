"""The postcondition-filtered candidate stream.

``passing_candidates`` tests the postcondition on the final state before
building an execution.  It must yield exactly the candidates that
``candidate_executions`` yields and ``Candidate.passes`` keeps, in the
same order, so ``find_witness`` and ``OracleHardware.observable`` keep
their answers.
"""

from __future__ import annotations

import inspect

import pytest

from repro.catalog import classics, figures
from repro.events import Execution
from repro.litmus import candidate_executions, execution_to_litmus
from repro.litmus.candidates import find_witness, passing_candidates
from repro.models import get_model, model_names
from repro.sim.oracle import OracleHardware, _co_matches


def _catalog() -> dict[str, Execution]:
    """Every zero-argument classic and figure execution of the catalog."""
    out = {}
    for module in (classics, figures):
        for name, factory in inspect.getmembers(module, inspect.isfunction):
            if factory.__module__ != module.__name__ or name.startswith("_"):
                continue
            value = factory()
            if isinstance(value, Execution):
                out[f"{module.__name__.rsplit('.', 1)[-1]}.{name}"] = value
    return out


CATALOG = _catalog()


def _summary(candidate) -> tuple:
    return (
        candidate.execution.fingerprint(),
        candidate.registers,
        candidate.memory,
        candidate.committed,
    )


@pytest.fixture(scope="module", params=sorted(CATALOG))
def litmus(request):
    return execution_to_litmus(CATALOG[request.param], request.param)


def test_catalog_covers_classics_and_figures():
    assert "classics.sb" in CATALOG and "figures.fig10_concrete" in CATALOG
    assert len(CATALOG) > 25


def test_filtered_stream_equals_filtered_enumeration(litmus):
    program = litmus.program
    expected = [
        _summary(c) for c in candidate_executions(program) if c.passes(program)
    ]
    assert [_summary(c) for c in passing_candidates(program)] == expected


def _first_witness(program, model):
    """``find_witness`` written over the unfiltered enumeration."""
    for candidate in candidate_executions(program):
        if candidate.passes(program) and model.consistent(candidate.execution):
            return candidate
    return None


def _observable(hardware, program, intended_co):
    """``OracleHardware.observable`` written over the unfiltered
    enumeration."""
    for candidate in candidate_executions(program):
        if not candidate.passes(program):
            continue
        if intended_co is not None and not _co_matches(candidate, intended_co):
            continue
        if hardware._implementation_allows(candidate.execution):
            return True
    return False


@pytest.mark.parametrize("model_name", model_names())
def test_find_witness_and_observable_unchanged(litmus, model_name):
    program = litmus.program
    model = get_model(model_name)
    witness = find_witness(program, model)
    expected = _first_witness(program, get_model(model_name))
    if expected is None:
        assert witness is None
    else:
        assert witness is not None
        assert _summary(witness.candidate) == _summary(expected)

    for hardware in (OracleHardware(model), OracleHardware.power8(model)):
        for intended_co in (None, litmus.intended_co):
            assert hardware.observable(program, intended_co) == _observable(
                hardware, program, intended_co
            )
