"""Shared fixtures: session-scoped caches of enumerated executions.

Several test modules quantify over "all well-formed executions up to a
bound"; enumerating once per session keeps the suite fast.

The autouse ``isolate_pipeline_caches`` fixture snapshots and restores
the harness's per-process hardware/model registries around every test,
and re-asserts the pre-test entries of the IR hash-cons tables, so a
test that mutates process-global state (monkeypatched machines,
dropped-axiom models, cleared or clobbered intern tables) cannot leak
into a later test -- the suite must pass in any order
(``pytest -p no:randomly`` parity).

The autouse ``hermetic_env`` fixture removes every ``REPRO_*`` variable
:mod:`repro._env` reads, so an ambient worker count, seed or verdict
cache cannot change what the suite computes.

``golden_synthesis`` checks a synthesis result against
``tests/data/synthesis_golden.json``: per target and bound, the
candidate count, completeness, and the ordered sha256 digests of the
Forbid and Allow executions' ``fingerprint()``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.enumeration import enumerate_executions, get_config
from repro.harness import pipeline as _pipeline
from repro.ir import terms as _terms

#: Every variable repro._env documents.
_REPRO_ENV = (
    "REPRO_WORKERS",
    "REPRO_RETRIES",
    "REPRO_BACKOFF",
    "REPRO_SOFT_TIMEOUT",
    "REPRO_SEED",
    "REPRO_CACHE",
    "REPRO_PROFILE",
)

_GOLDEN = Path(__file__).parent / "data" / "synthesis_golden.json"


@pytest.fixture(scope="session", autouse=True)
def hermetic_env():
    """Session-scoped, so module- and session-scoped fixtures run
    without the ambient variables too."""
    with pytest.MonkeyPatch.context() as patch:
        for name in _REPRO_ENV:
            patch.delenv(name, raising=False)
        yield


def _digests(executions) -> list[str]:
    return [
        hashlib.sha256(repr(x.fingerprint()).encode()).hexdigest()
        for x in executions
    ]


@pytest.fixture(scope="session")
def golden_synthesis():
    """A checker: ``golden_synthesis(result)`` asserts ``result`` is
    byte-identical to the ledger entry for its target and bound."""
    golden = json.loads(_GOLDEN.read_text())

    def check(result) -> None:
        assert {
            "allowed": _digests(result.allowed),
            "candidates_examined": result.candidates_examined,
            "complete": result.complete,
            "forbidden": _digests(result.forbidden),
            "max_events": result.max_events,
            "target": result.target,
        } == golden[f"{result.target}@{result.max_events}"]

    return check


@pytest.fixture(autouse=True)
def isolate_pipeline_caches():
    """Snapshot/restore per-process caches around each test.

    The IR hash-cons tables get the *re-assert* treatment rather than a
    wholesale clear-and-restore: every entry present before the test is
    put back (same objects), so a test that clears or replaces interned
    terms cannot break pointer-identity for later tests -- but entries
    the test *added* stay, because hash-consing is monotone by design
    (plans built lazily in one test must keep sharing subterms with
    plans built in another).  ``_NEXT_UID`` is deliberately never
    rewound: reusing the uid of a still-alive term held by an lru plan
    cache would silently corrupt verdict memos keyed on uid.
    """
    hardware = dict(_pipeline._HARDWARE_CACHE)
    models = dict(_pipeline._MODEL_CACHE)
    intern_snapshot = dict(_terms._INTERN)
    fix_snapshot = dict(_terms._FIX_INTERN)
    yield
    _pipeline._HARDWARE_CACHE.clear()
    _pipeline._HARDWARE_CACHE.update(hardware)
    _pipeline._MODEL_CACHE.clear()
    _pipeline._MODEL_CACHE.update(models)
    _terms._INTERN.update(intern_snapshot)
    _terms._FIX_INTERN.update(fix_snapshot)


def _enumerate(target: str, max_events: int) -> list:
    config = get_config(target)
    out = []
    for n in range(1, max_events + 1):
        out.extend(enumerate_executions(config, n))
    return out


@pytest.fixture(scope="session")
def sc_executions_3():
    return _enumerate("sc", 3)


@pytest.fixture(scope="session")
def x86_executions_3():
    return _enumerate("x86", 3)


@pytest.fixture(scope="session")
def power_executions_3():
    return _enumerate("power", 3)


@pytest.fixture(scope="session")
def armv8_executions_3():
    return _enumerate("armv8", 3)


@pytest.fixture(scope="session")
def cpp_executions_3():
    return _enumerate("cpp", 3)
