"""Rendering litmus tests as per-architecture pseudo-assembly.

The semantics of tests live in the instruction AST; these renderers
exist for human consumption (examples, reports, discussions with
"architects" in the paper's workflow).  Dependency annotations are
rendered with the standard litmus idioms: address dependencies via
``xor``-zero indexing, data dependencies via ``xor``-zero addition,
control dependencies via compare-and-branch to the next line.

Supported targets: ``pseudo`` (the paper's diagram notation), ``x86``,
``power``, ``armv8``, and ``cpp``.
"""

from __future__ import annotations

from ..events import ACQ, ACQ_REL, NA, REL, RLX, SC
from .program import (
    AbortUnless,
    Fence,
    Instruction,
    Load,
    LoadLinked,
    Program,
    Rmw,
    Store,
    StoreConditional,
    TxBegin,
    TxEnd,
)

ARCHES = ("pseudo", "x86", "power", "armv8", "cpp")


def render(program: Program, arch: str = "pseudo") -> str:
    """Render a litmus test for one architecture."""
    if arch not in ARCHES:
        raise ValueError(f"unknown arch {arch!r}; choose from {ARCHES}")
    renderer = {
        "pseudo": _render_pseudo_instruction,
        "x86": _render_x86_instruction,
        "power": _render_power_instruction,
        "armv8": _render_armv8_instruction,
        "cpp": _render_cpp_instruction,
    }[arch]

    lines = [f"{arch.upper()} {program.name}"]
    init = ", ".join(f"{loc} = 0" for loc in program.locations)
    lines.append(f"Initially: {init}" if init else "Initially: (no locations)")
    for tid, thread in enumerate(program.threads):
        lines.append(f"--- thread {tid} ---")
        txn_index = 0
        for ins in thread:
            if isinstance(ins, TxBegin):
                txn_index += 1
            for out in renderer(ins, tid, txn_index):
                lines.append("  " + out)
    lines.append(f"Test: {program.postcondition}")
    return "\n".join(lines)


def _deps_comment(ins: Instruction) -> str:
    parts = []
    for label, regs in (
        ("addr", getattr(ins, "addr_regs", ())),
        ("data", getattr(ins, "data_regs", ())),
        ("ctrl", getattr(ins, "ctrl_regs", ())),
    ):
        if regs:
            parts.append(f"{label}({', '.join(regs)})")
    return f"   // dep: {', '.join(parts)}" if parts else ""


# ---------------------------------------------------------------------------
# Pseudocode (the paper's diagram notation, Figs 1-2)
# ---------------------------------------------------------------------------


def _render_pseudo_instruction(ins: Instruction, tid: int, txn: int) -> list[str]:
    if isinstance(ins, Load):
        return [f"{ins.reg} <- [{ins.loc}]{_mode_suffix(ins.tags)}{_deps_comment(ins)}"]
    if isinstance(ins, Store):
        return [f"[{ins.loc}]{_mode_suffix(ins.tags)} <- {ins.value}{_deps_comment(ins)}"]
    if isinstance(ins, Rmw):
        return [f"{ins.reg} <- RMW [{ins.loc}] := {ins.value}"]
    if isinstance(ins, LoadLinked):
        return [f"{ins.reg} <-LL [{ins.loc}]{_mode_suffix(ins.tags)}"]
    if isinstance(ins, StoreConditional):
        return [f"[{ins.loc}] <-SC({ins.link}) {ins.value}"]
    if isinstance(ins, Fence):
        return [f"fence<{ins.flavour.lower()}>"]
    if isinstance(ins, TxBegin):
        kind = "atomic" if ins.atomic else "txn"
        return [f"txbegin ({kind}) Lfail{txn}"]
    if isinstance(ins, TxEnd):
        return ["txend"]
    if isinstance(ins, AbortUnless):
        return [f"if {ins.reg} != {ins.expected}: txabort"]
    raise TypeError(f"unknown instruction {ins!r}")


def _mode_suffix(tags: frozenset[str]) -> str:
    for tag, suffix in (
        (SC, ".sc"),
        (ACQ, ".acq"),
        (REL, ".rel"),
        (ACQ_REL, ".acqrel"),
        (RLX, ".rlx"),
        (NA, ""),
    ):
        if tag in tags:
            return suffix
    return ""


# ---------------------------------------------------------------------------
# x86 (TSX)
# ---------------------------------------------------------------------------


def _render_x86_instruction(ins: Instruction, tid: int, txn: int) -> list[str]:
    if isinstance(ins, Load):
        return [f"MOV {_x86reg(ins.reg)}, [{ins.loc}]{_deps_comment(ins)}"]
    if isinstance(ins, Store):
        return [f"MOV [{ins.loc}], ${ins.value}{_deps_comment(ins)}"]
    if isinstance(ins, Rmw):
        return [f"LOCK XCHG {_x86reg(ins.reg)}<-${ins.value}, [{ins.loc}]"]
    if isinstance(ins, (LoadLinked, StoreConditional)):
        raise ValueError("x86 has no load-linked/store-conditional")
    if isinstance(ins, Fence):
        return ["MFENCE"]
    if isinstance(ins, TxBegin):
        return [f"XBEGIN Lfail{txn}"]
    if isinstance(ins, TxEnd):
        return ["XEND", f"JMP Lsucc{txn}", f"Lfail{txn}: MOV [ok], $0", f"Lsucc{txn}:"]
    if isinstance(ins, AbortUnless):
        return [f"CMP {_x86reg(ins.reg)}, ${ins.expected}", "JNE .abort; XABORT"]
    raise TypeError(f"unknown instruction {ins!r}")


def _x86reg(reg: str) -> str:
    return "E" + reg.upper().replace("R", "X") if reg.startswith("r") else reg


# ---------------------------------------------------------------------------
# Power
# ---------------------------------------------------------------------------

_POWER_FENCES = {"SYNC": "sync", "LWSYNC": "lwsync", "ISYNC": "isync"}


def _render_power_instruction(ins: Instruction, tid: int, txn: int) -> list[str]:
    if isinstance(ins, Load):
        lines = []
        addr = f"0({ins.loc})"
        if ins.addr_regs:
            dep = ins.addr_regs[0]
            lines.append(f"xor r9,{dep},{dep}")
            addr = f"r9({ins.loc})"
        if ins.ctrl_regs:
            lines.extend(_power_ctrl(ins.ctrl_regs))
        lines.append(f"lwz {ins.reg},{addr}")
        return lines
    if isinstance(ins, Store):
        lines = []
        value = str(ins.value)
        if ins.data_regs:
            dep = ins.data_regs[0]
            lines.append(f"xor r9,{dep},{dep}")
            value = f"{ins.value}+r9"
        if ins.ctrl_regs:
            lines.extend(_power_ctrl(ins.ctrl_regs))
        lines.append(f"li r10,{value}")
        lines.append(f"stw r10,0({ins.loc})")
        return lines
    if isinstance(ins, Rmw):
        return [
            f"Loop{tid}:",
            f"lwarx {ins.reg},0,{ins.loc}",
            f"stwcx. {ins.value},0,{ins.loc}",
            f"bne Loop{tid}",
        ]
    if isinstance(ins, LoadLinked):
        return [f"lwarx {ins.reg},0,{ins.loc}"]
    if isinstance(ins, StoreConditional):
        return [f"stwcx. {ins.value},0,{ins.loc}   // linked to {ins.link}"]
    if isinstance(ins, Fence):
        return [_POWER_FENCES.get(ins.flavour, ins.flavour.lower())]
    if isinstance(ins, TxBegin):
        return [f"tbegin. ; beq Lfail{txn}"]
    if isinstance(ins, TxEnd):
        return ["tend.", f"b Lsucc{txn}", f"Lfail{txn}: li r11,0 ; stw r11,0(ok)", f"Lsucc{txn}:"]
    if isinstance(ins, AbortUnless):
        return [f"cmpwi {ins.reg},{ins.expected}", "bne .+8", "tabort."]
    raise TypeError(f"unknown instruction {ins!r}")


def _power_ctrl(regs: tuple[str, ...]) -> list[str]:
    dep = regs[0]
    return [f"cmpw {dep},{dep}", "beq .+4"]


# ---------------------------------------------------------------------------
# ARMv8
# ---------------------------------------------------------------------------

_ARM_FENCES = {"DMB": "DMB SY", "DMBLD": "DMB LD", "DMBST": "DMB ST", "ISB": "ISB"}


def _render_armv8_instruction(ins: Instruction, tid: int, txn: int) -> list[str]:
    if isinstance(ins, Load):
        op = "LDAR" if ACQ in ins.tags else "LDR"
        lines = []
        addr = f"[{ins.loc}]"
        if ins.addr_regs:
            dep = ins.addr_regs[0]
            lines.append(f"EOR W9,{_armreg(dep)},{_armreg(dep)}")
            addr = f"[{ins.loc},W9]"
        if ins.ctrl_regs:
            lines.extend(_arm_ctrl(ins.ctrl_regs))
        lines.append(f"{op} {_armreg(ins.reg)},{addr}")
        return lines
    if isinstance(ins, Store):
        op = "STLR" if REL in ins.tags else "STR"
        lines = []
        if ins.data_regs:
            dep = ins.data_regs[0]
            lines.append(f"EOR W9,{_armreg(dep)},{_armreg(dep)}")
            lines.append(f"ADD W10,W9,#{ins.value}")
        else:
            lines.append(f"MOV W10,#{ins.value}")
        if ins.ctrl_regs:
            lines.extend(_arm_ctrl(ins.ctrl_regs))
        lines.append(f"{op} W10,[{ins.loc}]")
        return lines
    if isinstance(ins, Rmw):
        acq = "A" if ACQ in ins.read_tags else ""
        rel = "L" if REL in ins.write_tags else ""
        return [
            f"Loop{tid}:",
            f"LD{acq}XR {_armreg(ins.reg)},[{ins.loc}]",
            f"MOV W10,#{ins.value}",
            f"ST{rel}XR W11,W10,[{ins.loc}]",
            f"CBNZ W11,Loop{tid}",
        ]
    if isinstance(ins, LoadLinked):
        acq = "A" if ACQ in ins.tags else ""
        return [f"LD{acq}XR {_armreg(ins.reg)},[{ins.loc}]"]
    if isinstance(ins, StoreConditional):
        return [
            f"MOV W10,#{ins.value}",
            f"STXR W11,W10,[{ins.loc}]   // linked to {ins.link}",
        ]
    if isinstance(ins, Fence):
        return [_ARM_FENCES.get(ins.flavour, ins.flavour)]
    if isinstance(ins, TxBegin):
        return [f"TXBEGIN Lfail{txn}"]
    if isinstance(ins, TxEnd):
        return ["TXEND", f"B Lsucc{txn}", f"Lfail{txn}: STR WZR,[ok]", f"Lsucc{txn}:"]
    if isinstance(ins, AbortUnless):
        return [f"CMP {_armreg(ins.reg)},#{ins.expected}", "BEQ .+8", "TXABORT"]
    raise TypeError(f"unknown instruction {ins!r}")


def _armreg(reg: str) -> str:
    return "W" + reg[1:] if reg.startswith("r") else reg


def _arm_ctrl(regs: tuple[str, ...]) -> list[str]:
    dep = regs[0]
    return [f"CBNZ {_armreg(dep)},.+4"]


# ---------------------------------------------------------------------------
# C++
# ---------------------------------------------------------------------------

_CPP_ORDERS = {
    SC: "memory_order_seq_cst",
    ACQ: "memory_order_acquire",
    REL: "memory_order_release",
    ACQ_REL: "memory_order_acq_rel",
    RLX: "memory_order_relaxed",
}


def _cpp_order(tags: frozenset[str]) -> str | None:
    for tag, order in _CPP_ORDERS.items():
        if tag in tags:
            return order
    return None


def _render_cpp_instruction(ins: Instruction, tid: int, txn: int) -> list[str]:
    if isinstance(ins, Load):
        order = _cpp_order(ins.tags)
        if order is None:
            return [f"int {ins.reg} = {ins.loc};{_deps_comment(ins)}"]
        return [f"int {ins.reg} = atomic_load_explicit(&{ins.loc}, {order});"]
    if isinstance(ins, Store):
        order = _cpp_order(ins.tags)
        if order is None:
            return [f"{ins.loc} = {ins.value};{_deps_comment(ins)}"]
        return [
            f"atomic_store_explicit(&{ins.loc}, {ins.value}, {order});"
        ]
    if isinstance(ins, Rmw):
        return [
            f"int {ins.reg} = atomic_exchange_explicit(&{ins.loc}, "
            f"{ins.value}, memory_order_seq_cst);"
        ]
    if isinstance(ins, (LoadLinked, StoreConditional)):
        raise ValueError("C++ has no load-linked/store-conditional")
    if isinstance(ins, Fence):
        order = _cpp_order(ins.tags) or "memory_order_seq_cst"
        return [f"atomic_thread_fence({order});"]
    if isinstance(ins, TxBegin):
        return ["atomic {" if ins.atomic else "synchronized {"]
    if isinstance(ins, TxEnd):
        return ["}"]
    if isinstance(ins, AbortUnless):
        return [f"if ({ins.reg} != {ins.expected}) abort_txn();"]
    raise TypeError(f"unknown instruction {ins!r}")
