"""Table 1, x86 rows: synthesis + TSX-machine validation.

Paper (SAT backend, 4-core Haswell):  |E|=2: 0 Forbid, |E|=3: 4,
|E|=4: 22, ... with **no Forbid test seen** on four TSX machines and
83% of Allow tests seen.

Reproduction (explicit enumeration, this machine): identical Forbid
counts at the shared bounds; hardware is the operational TSO+TSX
machine, against which no Forbid test is observable and all small Allow
tests are.
"""

from repro.harness.table1 import run_table1
from repro.litmus import execution_to_litmus
from repro.sim import TSOHardware


def test_table1_x86_synthesis(benchmark, x86_synthesis):
    """Benchmark: regenerate the x86 Forbid/Allow suites."""
    from repro.api import synthesize

    result = benchmark.pedantic(
        lambda: synthesize("x86", 3), iterations=1, rounds=1
    )
    by_size = result.forbidden_by_size()
    assert len(by_size.get(2, [])) == 0, "paper: 0 Forbid tests at |E|=2"
    assert len(by_size.get(3, [])) == 4, "paper: 4 Forbid tests at |E|=3"


def test_table1_x86_hardware_validation(benchmark, x86_synthesis):
    """Benchmark: run the suites on the simulated TSX machine."""
    table = benchmark.pedantic(
        lambda: run_table1("x86", 3, synthesis=x86_synthesis),
        iterations=1,
        rounds=1,
    )
    assert all(row.forbid_seen == 0 for row in table.rows), (
        "a forbidden test was observed: the model would be too strong"
    )
    total_allow = sum(r.allow_total for r in table.rows)
    seen_allow = sum(r.allow_seen for r in table.rows)
    assert seen_allow / total_allow >= 0.8, "paper: 83% of Allow seen"
    print()
    print(table.render())


def test_table1_x86_single_test_cost(benchmark, x86_synthesis):
    """Benchmark: validating one Forbid test on the TSX machine (the
    unit of work the paper repeats 1M times per silicon target)."""
    test = execution_to_litmus(x86_synthesis.forbidden[0], "forbid-0")
    hardware = TSOHardware()
    seen = benchmark(
        lambda: hardware.observable(test.program, test.intended_co)
    )
    assert seen is False
