"""Classic litmus-test shapes as executions, plus transactional variants.

These are the standard shapes of the weak-memory literature (SB, MP, LB,
WRC, IRIW, coherence shapes) that the paper's §5.3 testing campaign and
our model unit tests revolve around.  Each function returns the
*execution of interest* -- the candidate whose observability is being
asked about -- with the conventional rf/co choices for that shape.

Naming follows the diy/litmus convention: ``mp(lwsync=True, addr=True)``
is MP+lwsync+addr, etc.
"""

from __future__ import annotations

from ..events import (
    ACQ,
    DMB,
    LWSYNC,
    MFENCE,
    REL,
    SYNC,
    ExecutionBuilder,
)
from ..events.execution import Execution


def corr() -> Execution:
    """CoRR: same-location read pairs must respect coherence.

    T0 writes x twice; T1 reads x twice, observing the writes in the
    *opposite* order.  Forbidden everywhere (Coherence).
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w1 = t0.write("x")
    w2 = t0.write("x")
    r1 = t1.read("x")
    r2 = t1.read("x")
    b.co(w1, w2)
    b.rf(w2, r1)
    b.rf(w1, r2)
    return b.build()


def coww() -> Execution:
    """CoWW: po-ordered writes with contradicting co. Forbidden everywhere."""
    b = ExecutionBuilder()
    t0 = b.thread()
    w1 = t0.write("x")
    w2 = t0.write("x")
    b.co(w2, w1)
    return b.build()


def sb(fences: str | None = None) -> Execution:
    """SB (store buffering): each thread writes one location then reads
    the other, both reads seeing the initial value.

    Allowed on x86/Power/ARMv8 without fences; forbidden under SC, and
    everywhere once full fences separate the write from the read
    (``fences`` ∈ {"mfence", "sync", "dmb"}).
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    w0 = t0.write("x")
    if fences == "mfence":
        t0.fence(MFENCE)
    elif fences == "sync":
        t0.fence(SYNC)
    elif fences == "dmb":
        t0.fence(DMB)
    r0 = t0.read("y")
    w1 = t1.write("y")
    if fences == "mfence":
        t1.fence(MFENCE)
    elif fences == "sync":
        t1.fence(SYNC)
    elif fences == "dmb":
        t1.fence(DMB)
    r1 = t1.read("x")
    # Both reads observe the initial value: no rf edges; fr is implied.
    del w0, w1, r0, r1
    return b.build()


def sb_txn() -> Execution:
    """SB with each thread's pair wrapped in a transaction.

    Forbidden under every TM model: committed transactions carry full
    fence semantics (tfence / TxnOrder), so the store-buffering
    relaxation disappears.
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction():
        t0.write("x")
        t0.read("y")
    with t1.transaction():
        t1.write("y")
        t1.read("x")
    return b.build()


def mp(
    fence: str | None = None,
    dep: str | None = None,
    acq_rel: bool = False,
) -> Execution:
    """MP (message passing): T0 writes data then flag; T1 reads flag
    (seeing it set) then data (seeing the initial value).

    * plain: allowed on Power/ARMv8, forbidden on x86/SC;
    * ``fence`` ∈ {"lwsync", "sync", "dmb"} orders T0's writes;
    * ``dep`` ∈ {"addr", "ctrl"} orders T1's reads;
    * ``acq_rel`` uses STLR/LDAR-style annotations instead.
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    wx = t0.write("x")
    if fence == "lwsync":
        t0.fence(LWSYNC)
    elif fence == "sync":
        t0.fence(SYNC)
    elif fence == "dmb":
        t0.fence(DMB)
    wy = t0.write("y", tags={REL} if acq_rel else frozenset())
    ry = t1.read("y", tags={ACQ} if acq_rel else frozenset())
    rx = t1.read("x")
    b.rf(wy, ry)
    if dep == "addr":
        b.addr(ry, rx)
    elif dep == "ctrl":
        b.ctrl(ry, rx)
    del wx
    return b.build()


def mp_txn() -> Execution:
    """MP with both threads transactional.  Forbidden under every TM
    model (and under C++ TM via tsw -- the §9 comparison execution)."""
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    with t0.transaction():
        t0.write("x")
        wy = t0.write("y")
    with t1.transaction():
        ry = t1.read("y")
        t1.read("x")
    b.rf(wy, ry)
    return b.build()


def mp_txn_reader(fence: str = "dmb") -> Execution:
    """MP with a fenced writer and a *transactional* reader (no
    dependency between the reader's loads).

    Forbidden under ARMv8+TM purely by **TxnOrder**: the transaction's
    two reads are glued together when lifting ``ob`` (which contains
    ``fre``), standing in for the missing address dependency.  StrongIsol
    alone does not catch it (the writer's two locations never
    communicate), which makes this the shape that exposes the §6.2 RTL
    prototype bug.

    Under Power+TM the ``sync`` variant is *allowed* by the literal
    Fig. 6 model: Power's ``hb`` is ``rfe? ; ihb ; rfe?`` and contains
    no ``fre`` edge, so the TxnOrder lift cannot close the cycle -- a
    structural difference between Fig. 6 and Fig. 8.
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    wx = t0.write("x")
    if fence == "dmb":
        t0.fence(DMB)
    elif fence == "sync":
        t0.fence(SYNC)
    elif fence == "lwsync":
        t0.fence(LWSYNC)
    wy = t0.write("y")
    with t1.transaction():
        ry = t1.read("y")
        t1.read("x")
    b.rf(wy, ry)
    del wx
    return b.build()


def lb(deps: bool = False) -> Execution:
    """LB (load buffering): each thread reads one location then writes
    the other; each read observes the other thread's write.

    Allowed by the Power and ARMv8 models without dependencies (although
    never observed on Power silicon -- §5.3); forbidden on x86 and with
    data dependencies on both sides.
    """
    b = ExecutionBuilder()
    t0, t1 = b.thread(), b.thread()
    r0 = t0.read("x")
    w0 = t0.write("y")
    r1 = t1.read("y")
    w1 = t1.write("x")
    b.rf(w0, r1)
    b.rf(w1, r0)
    if deps:
        b.data(r0, w0)
        b.data(r1, w1)
    return b.build()


def wrc(dep1: bool = True, dep2: bool = True, fence1: str | None = None) -> Execution:
    """WRC (write-to-read causality): T0 writes x; T1 sees it and writes
    y; T2 sees y but still reads the initial x.

    With dependencies only, allowed on Power (not multicopy-atomic) but
    forbidden on ARMv8 and x86; with ``fence1`` ∈ {"sync", "lwsync"} in
    T1, forbidden on Power too (A-cumulativity).
    """
    b = ExecutionBuilder()
    t0, t1, t2 = b.thread(), b.thread(), b.thread()
    wx = t0.write("x")
    rx = t1.read("x")
    if fence1 == "sync":
        t1.fence(SYNC)
    elif fence1 == "lwsync":
        t1.fence(LWSYNC)
    wy = t1.write("y")
    ry = t2.read("y")
    rx2 = t2.read("x")
    b.rf(wx, rx)
    b.rf(wy, ry)
    if dep1 and fence1 is None:
        b.data(rx, wy)
    if dep2:
        b.addr(ry, rx2)
    return b.build()


def wrc_txn() -> Execution:
    """WRC with T1's pair transactional -- §5.2 execution (1).

    Forbidden under Power+TM by the transaction's integrated memory
    barrier (tprop1 + Observation); allowed by the baseline.
    """
    b = ExecutionBuilder()
    t0, t1, t2 = b.thread(), b.thread(), b.thread()
    wx = t0.write("x")
    with t1.transaction():
        rx = t1.read("x")
        wy = t1.write("y")
    ry = t2.read("y")
    rx2 = t2.read("x")
    b.rf(wx, rx)
    b.rf(wy, ry)
    b.addr(ry, rx2)
    return b.build()


def iriw(deps: bool = True, fences: str | None = None) -> Execution:
    """IRIW (independent reads of independent writes): two writer
    threads, two reader threads observing the writes in opposite orders.

    With dependencies, allowed on Power (non-MCA) but forbidden on
    ARMv8/x86; with ``fences="sync"``, forbidden on Power.
    """
    b = ExecutionBuilder()
    t0, t1, t2, t3 = b.thread(), b.thread(), b.thread(), b.thread()
    wx = t0.write("x")
    wy = t1.write("y")
    rx1 = t2.read("x")
    if fences == "sync":
        t2.fence(SYNC)
    ry1 = t2.read("y")
    ry2 = t3.read("y")
    if fences == "sync":
        t3.fence(SYNC)
    rx2 = t3.read("x")
    b.rf(wx, rx1)
    b.rf(wy, ry2)
    if deps and fences is None:
        b.addr(rx1, ry1)
        b.addr(ry2, rx2)
    return b.build()


def iriw_txn(both: bool = True) -> Execution:
    """IRIW with the writes transactional -- §5.2 execution (3).

    With *both* writes transactional, forbidden under Power+TM: the two
    transactions cannot be serialised (thb cycle).  With only one write
    transactional the behaviour was observed on POWER8 and is allowed.
    """
    b = ExecutionBuilder()
    t0, t1, t2, t3 = b.thread(), b.thread(), b.thread(), b.thread()
    with t0.transaction():
        wx = t0.write("x")
    if both:
        with t1.transaction():
            wy = t1.write("y")
    else:
        wy = t1.write("y")
    rx1 = t2.read("x")
    ry1 = t2.read("y")
    ry2 = t3.read("y")
    rx2 = t3.read("x")
    b.rf(wx, rx1)
    b.rf(wy, ry2)
    b.addr(rx1, ry1)
    b.addr(ry2, rx2)
    return b.build()
