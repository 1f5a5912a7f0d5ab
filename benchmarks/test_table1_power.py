"""Table 1, Power rows: synthesis + POWER8-oracle validation.

Paper (SAT backend): |E|=2: 2 Forbid, |E|=3: 9, |E|=4: 60, ... with no
Forbid test seen on an 80-core POWER8 and 88% of Allow tests seen (the
unseen ones dominated by LB shapes).

Reproduction: |E|=2 gives exactly the paper's 2 tests (the split-RMW
TxnCancelsRMW pair) and |E|=4 gives exactly the paper's 60 (run
separately, ~35 min); |E|=3 finds 4 vs. the paper's 9, a documented
open discrepancy.  The POWER8 oracle sees no
Forbid test, and hides LB-shaped Allow tests exactly as real silicon
does.
"""

from repro.harness.table1 import run_table1


def test_table1_power_synthesis(benchmark):
    from repro.api import synthesize

    result = benchmark.pedantic(
        lambda: synthesize("power", 2), iterations=1, rounds=1
    )
    assert len(result.forbidden) == 2, "paper: 2 Forbid tests at |E|=2"
    for x in result.forbidden:
        assert x.rmw.pairs, "both |E|=2 tests are split RMWs"
        assert len(x.txn_classes) == 1


def test_table1_power_hardware_validation(benchmark, power_synthesis):
    table = benchmark.pedantic(
        lambda: run_table1(
            "power", power_synthesis.max_events, synthesis=power_synthesis
        ),
        iterations=1,
        rounds=1,
    )
    assert all(row.forbid_seen == 0 for row in table.rows)
    total_allow = sum(r.allow_total for r in table.rows)
    seen_allow = sum(r.allow_seen for r in table.rows)
    assert seen_allow / max(total_allow, 1) >= 0.8, "paper: 88% of Allow seen"
    print()
    print(table.render())


def test_power8_oracle_hides_lb(benchmark):
    """The implementation-conservatism knob: LB-shaped tests are never
    seen on the simulated POWER8, matching §5.3's observation."""
    from repro.catalog.classics import lb
    from repro.litmus import execution_to_litmus
    from repro.models import get_model
    from repro.sim import OracleHardware

    oracle = OracleHardware.power8(get_model("powertm"))
    test = execution_to_litmus(lb(), "LB")
    seen = benchmark(lambda: oracle.observable(test.program, test.intended_co))
    assert seen is False
