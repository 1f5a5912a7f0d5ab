"""Table 2, Compilation rows.

Paper: C++ transactions compile soundly to x86 (14 h), Power (16 h) and
ARMv8 (20 h) for all source executions with up to 6 events.

Reproduction: the same verdict (no counterexample) at our bounds, in
seconds -- the mapping is deterministic here, so the search is a single
scan over C++ executions rather than a SAT query over (X, Y, π) triples.
"""

import os

import pytest

from repro.metatheory import check_compilation

# Bound 2 keeps the benchmark suite to seconds; the bound-3 sweep
# (257,968 C++ source executions, ~90-160 s per target, same verdict)
# is enabled with REPRO_BENCH_EVENTS=4 or higher.
BOUND = 3 if int(os.environ.get("REPRO_BENCH_EVENTS", "3")) >= 4 else 2


@pytest.mark.parametrize("target", ["x86", "power", "armv8"])
def test_compilation_sound(benchmark, target):
    result = benchmark.pedantic(
        lambda: check_compilation(target, BOUND), iterations=1, rounds=1
    )
    assert result.sound, f"paper: compilation to {target} is sound"
    assert result.complete
    assert result.executions_checked > 0
