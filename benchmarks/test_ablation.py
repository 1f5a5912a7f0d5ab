"""Ablation bench: per-axiom attribution of the Forbid suites.

Not a paper table, but a design-choice analysis: it quantifies what
each TM axiom contributes to the synthesised suites (e.g. TxnCancelsRMW
solely accounts for the |E|=2 Power tests; the isolation axioms
dominate the small x86 suite).
"""

from repro.api import synthesize
from repro.harness.ablation import run_ablation


def test_ablation_x86(benchmark, x86_synthesis):
    result = benchmark.pedantic(
        lambda: run_ablation("x86", synthesis=x86_synthesis),
        iterations=1,
        rounds=1,
    )
    assert result.violation_counts.get("StrongIsol", 0) >= 4
    print()
    print(result.render())


def test_ablation_power(benchmark):
    synthesis = synthesize("power", 2)
    result = benchmark.pedantic(
        lambda: run_ablation("power", synthesis=synthesis),
        iterations=1,
        rounds=1,
    )
    assert result.sole_catcher_counts.get("TxnCancelsRMW", 0) == 2
    print()
    print(result.render())
