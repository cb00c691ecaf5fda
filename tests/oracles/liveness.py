"""The per-instruction liveness fixpoint block-level dataflow replaced.

``analyze`` iterates every instruction of every block to a fixpoint
and builds the live intervals eagerly.  It returns
``(live_in, live_out, intervals)`` for comparison with
:func:`repro.ir.liveness.analyze`.
"""

from __future__ import annotations

from repro.ir.cfg import build_cfg
from repro.ir.function import IRFunction
from repro.ir.instructions import IROp
from repro.ir.liveness import LiveInterval


def analyze(fn: IRFunction) -> tuple:
    """Run backward liveness over ``fn`` and derive live intervals."""
    cfg = build_cfg(fn)
    count = len(fn.instrs)
    live_in = [set() for _ in range(count)]
    live_out = [set() for _ in range(count)]

    uses = []
    defs = []
    for ins in fn.instrs:
        uses.append({r.name for r in ins.uses()})
        defs.append({r.name for r in ins.defs()})

    changed = True
    while changed:
        changed = False
        # Iterate blocks in reverse for faster convergence.
        for block in reversed(cfg.blocks):
            for idx in reversed(range(block.start, block.end)):
                out: set = set()
                if idx == block.end - 1 or fn.instrs[idx].is_terminator:
                    for succ in cfg.successors_of_instr(idx):
                        out |= live_in[succ]
                else:
                    out = set(live_in[idx + 1])
                new_in = uses[idx] | (out - defs[idx])
                if out != live_out[idx] or new_in != live_in[idx]:
                    live_out[idx] = out
                    live_in[idx] = new_in
                    changed = True

    intervals = _build_intervals(fn, live_in, live_out)
    return live_in, live_out, intervals


def _build_intervals(fn, live_in, live_out) -> dict[str, LiveInterval]:
    intervals: dict[str, LiveInterval] = {}
    vreg_by_name = {r.name: r for r in fn.vregs()}

    def touch(name: str, index: int) -> None:
        reg = vreg_by_name[name]
        interval = intervals.get(name)
        if interval is None:
            intervals[name] = LiveInterval(vreg=reg, start=index, end=index)
        else:
            interval.start = min(interval.start, index)
            interval.end = max(interval.end, index)

    # Parameters are live from function entry.
    for reg in fn.param_vregs:
        touch(reg.name, 0)

    for idx, ins in enumerate(fn.instrs):
        for name in {r.name for r in ins.vregs()}:
            touch(name, idx)
        for name in live_out[idx]:
            touch(name, idx)
        for name in live_in[idx]:
            touch(name, idx)

    # Flag call-crossing intervals.
    for idx, ins in enumerate(fn.instrs):
        if ins.op is IROp.CALL:
            for name in live_out[idx]:
                # Live out of the call and live into it -> value must
                # survive the call.
                if name in live_in[idx] and name not in {r.name for r in ins.defs()}:
                    if name in intervals:
                        intervals[name].crosses_call = True
            # The call's own arguments do not need to survive it.
    return intervals
