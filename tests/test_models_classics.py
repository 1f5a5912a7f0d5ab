"""Model verdicts on the classic litmus shapes (§5.1, §5.3, §6).

Ground truth comes from the weak-memory literature and the paper's
prose; every row here is a documented architectural behaviour.
"""

import pytest

from repro.catalog import classics
from repro.models import get_model

ALLOW = True
FORBID = False

CASES = [
    # Coherence shapes: forbidden under every model.
    ("corr", {}, "sc", FORBID),
    ("corr", {}, "x86", FORBID),
    ("corr", {}, "power", FORBID),
    ("corr", {}, "armv8", FORBID),
    ("corr", {}, "cpp", FORBID),
    ("coww", {}, "power", FORBID),
    # Store buffering: the canonical TSO relaxation.
    ("sb", {}, "sc", FORBID),
    ("sb", {}, "x86", ALLOW),
    ("sb", {}, "power", ALLOW),
    ("sb", {}, "armv8", ALLOW),
    ("sb", {"fences": "mfence"}, "x86", FORBID),
    ("sb", {"fences": "sync"}, "power", FORBID),
    ("sb", {"fences": "dmb"}, "armv8", FORBID),
    # Transactions restore order: committed txns have fence semantics.
    ("sb_txn", {}, "x86tm", FORBID),
    ("sb_txn", {}, "powertm", FORBID),
    ("sb_txn", {}, "armv8tm", FORBID),
    ("sb_txn", {}, "tsc", FORBID),
    # Message passing.
    ("mp", {}, "x86", FORBID),
    ("mp", {}, "sc", FORBID),
    ("mp", {}, "power", ALLOW),
    ("mp", {}, "armv8", ALLOW),
    ("mp", {"fence": "lwsync"}, "power", ALLOW),  # needs the reader dep too
    ("mp", {"fence": "lwsync", "dep": "addr"}, "power", FORBID),
    ("mp", {"fence": "sync", "dep": "addr"}, "power", FORBID),
    ("mp", {"fence": "dmb", "dep": "addr"}, "armv8", FORBID),
    ("mp", {"acq_rel": True}, "armv8", FORBID),
    ("mp", {"dep": "addr"}, "power", ALLOW),  # writer side unfenced
    ("mp", {"dep": "ctrl"}, "armv8", ALLOW),  # ctrl does not order R->R
    # Transactional MP (the §9 comparison shape).
    ("mp_txn", {}, "cpptm", FORBID),
    ("mp_txn", {}, "powertm", FORBID),
    ("mp_txn", {}, "x86tm", FORBID),
    ("mp_txn", {}, "armv8tm", FORBID),
    # Transactional reader substitutes for the missing dependency on
    # ARMv8 (TxnOrder); Power's literal Fig. 6 hb cannot lift fre, so
    # the sync variant stays allowed there (see classics.mp_txn_reader).
    ("mp_txn_reader", {"fence": "dmb"}, "armv8tm", FORBID),
    ("mp_txn_reader", {"fence": "sync"}, "powertm", ALLOW),
    # Load buffering.
    ("lb", {}, "x86", FORBID),
    ("lb", {}, "power", ALLOW),
    ("lb", {}, "armv8", ALLOW),
    ("lb", {"deps": True}, "power", FORBID),
    ("lb", {"deps": True}, "armv8", FORBID),
    # Write-to-read causality: multicopy-atomicity differences.
    ("wrc", {}, "power", ALLOW),
    ("wrc", {}, "armv8", FORBID),
    ("wrc", {"fence1": "sync"}, "power", FORBID),
    ("wrc", {"fence1": "lwsync"}, "power", FORBID),
    # IRIW.
    ("iriw", {}, "power", ALLOW),
    ("iriw", {}, "armv8", FORBID),
    ("iriw", {}, "x86", FORBID),
    ("iriw", {"fences": "sync"}, "power", FORBID),
]


@pytest.mark.parametrize("shape,kwargs,model_name,expected", CASES)
def test_classic_verdict(shape, kwargs, model_name, expected):
    execution = getattr(classics, shape)(**kwargs)
    model = get_model(model_name)
    assert model.consistent(execution) == expected, (
        f"{shape}({kwargs}) under {model.name}: expected "
        f"{'allow' if expected else 'forbid'}, violated: "
        f"{model.violated_axioms(execution)}"
    )


def test_txn_erasure_restores_baseline_verdict():
    """A TM model on a txn-free execution agrees with its baseline."""
    for shape in (classics.sb, classics.mp, classics.lb, classics.iriw):
        x = shape()
        for name in ("x86tm", "powertm", "armv8tm", "cpptm"):
            model = get_model(name)
            assert model.consistent(x) == model.baseline().consistent(x)


def test_transactional_sb_violates_isolation_or_order():
    x = classics.sb_txn()
    violated = get_model("x86tm").violated_axioms(x)
    assert violated, "SB with transactions must violate a TM axiom"


def test_mp_txn_reader_violates_only_txn_order_on_armv8():
    """The §6.2 shape: caught by TxnOrder and nothing else."""
    x = classics.mp_txn_reader("dmb")
    assert get_model("armv8tm").violated_axioms(x) == ["TxnOrder"]
