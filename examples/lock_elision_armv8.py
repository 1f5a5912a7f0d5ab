#!/usr/bin/env python3
"""Lock elision under weak memory: Example 1.1, end to end (§1.1, §8.3).

For each architecture this script:

1. builds the concrete program -- the recommended spinlock around the
   critical region ``x ← x + k`` on thread 0, and an elided (purely
   transactional) critical region ``x ← v`` on thread 1;
2. asks whether the mutual-exclusion-violating outcome (thread 0 reads
   the initial x, yet its write ends up coherence-final) is reachable
   under the architecture's TM model;
3. prints the witness for the architectures where elision is unsound.

Expected output: ARMv8 broken (the paper's headline, Example 1.1);
ARMv8+DMB and x86 sound; Power broken under the literal Fig. 6 model --
this reproduction's finding (the paper's search timed out with no
verdict; benchmarks/test_table2_lock_elision.py explains why).

Run:  python examples/lock_elision_armv8.py
"""

from repro.litmus import find_witness, render
from repro.metatheory import body, build_concrete_program, check_lock_elision
from repro.models import get_model

BODY_CR = body(("update", "x"))  # x <- x + k   (LDR; ADD; STR with data dep)
BODY_TXN = body(("write", "x"))  # x <- v       (single store)
BAD_REGISTERS = {(0, "a0"): 0}  # the CR read saw the initial value...
BAD_MEMORY = {"x": 1}  # ...yet its write is coherence-final


def main() -> None:
    print("Critical regions: T0 (locked): x <- x+k | T1 (elided): x <- v")
    print("Mutual exclusion forbids: T0 reads 0 AND T0's write is final.")
    print()

    for arch, render_as in (
        ("x86", "x86"),
        ("power", "power"),
        ("armv8", "armv8"),
        ("armv8-fixed", "armv8"),
    ):
        model = get_model("armv8tm" if arch.startswith("armv8") else f"{arch}tm")
        program = build_concrete_program(
            arch, BODY_CR, BODY_TXN, BAD_REGISTERS, BAD_MEMORY,
            name=f"example1.1-{arch}",
        )
        witness = find_witness(program, model)
        status = "UNSOUND (witness found)" if witness else "sound here"
        print(f"--- {arch}: lock elision is {status}")
        if witness:
            print(render(program, render_as))
            print("witness execution:")
            print(witness.candidate.execution.describe())
        print()

    print("=== exhaustive sweep over the §8.3 body menu ===")
    for arch in ("x86", "power", "armv8", "armv8-fixed"):
        result = check_lock_elision(arch)
        verdict = "sound" if result.sound else "COUNTEREXAMPLE"
        print(
            f"  {arch:<12} {verdict:<16} "
            f"({result.outcomes_checked} outcomes, {result.elapsed:.1f}s)"
        )


if __name__ == "__main__":
    main()
