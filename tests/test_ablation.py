"""The axiom-ablation harness: per-axiom attribution of Forbid tests."""

import pytest

from repro.api import synthesize
from repro.harness.ablation import run_ablation


@pytest.fixture(scope="module")
def x86_ablation():
    return run_ablation("x86", synthesis=synthesize("x86", 3))


def test_every_test_attributed(x86_ablation):
    assert x86_ablation.total_tests == 4
    attributed = (
        sum(x86_ablation.sole_catcher_counts.values())
        + x86_ablation.never_escaping
    )
    # Tests with several escaping axioms are rare at this bound; every
    # test is either solely caught or redundantly caught.
    assert attributed <= x86_ablation.total_tests


def test_isolation_axioms_dominate_small_x86_suite(x86_ablation):
    """The 3-event x86 Forbid tests are the Fig. 3 shapes: all caught by
    StrongIsol."""
    assert x86_ablation.violation_counts.get("StrongIsol", 0) == 4


def test_power_ablation_attributes_txn_cancels_rmw():
    result = run_ablation("power", synthesis=synthesize("power", 2))
    assert result.total_tests == 2
    assert result.sole_catcher_counts.get("TxnCancelsRMW", 0) == 2


def test_render(x86_ablation):
    out = x86_ablation.render()
    assert "Axiom ablation" in out and "StrongIsol" in out
