"""Liveness analysis and live intervals.

Provides the dataflow facts every register allocator in this repo
consumes:

* ``live_out``/``live_in`` sets per instruction (backward dataflow over
  the CFG),
* :class:`LiveInterval` — the linear-scan view ``[start, end]`` over
  instruction indices,
* per-instruction def/use/last-use classification — the exact notions
  (``def.a.s``, ``use.a.s``, ``lastUse.a.s``) the paper's ILP model in
  §3.3 builds its decision variables from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import CFG, build_cfg
from .function import IRFunction
from .instructions import IROp, VReg


@dataclass
class LiveInterval:
    """Linear live interval of one virtual register.

    ``start`` is the index of the first definition; ``end`` is the last
    instruction index at which the vreg is live (inclusive).
    """

    vreg: VReg
    start: int
    end: int
    #: True if the value is live across any CALL instruction (such vregs
    #: must sit in callee-saved registers under our calling convention).
    crosses_call: bool = False

    def overlaps(self, other: "LiveInterval") -> bool:
        return not (self.end < other.start or other.end < self.start)

    def covers(self, index: int) -> bool:
        return self.start <= index <= self.end

    def __repr__(self) -> str:  # pragma: no cover
        return f"LiveInterval({self.vreg.name}, [{self.start}, {self.end}])"


@dataclass
class LivenessInfo:
    """All liveness facts for one function.

    ``live_in``/``live_out`` hold one set per instruction; inside a
    block ``live_out[i]`` is the same set object as ``live_in[i + 1]``,
    so treat them as read-only.  ``intervals`` is built on first access,
    from the function as it is then: read it before rewriting ``fn``.
    """

    function: IRFunction
    cfg: CFG
    live_in: list[set]
    live_out: list[set]
    _intervals: dict[str, LiveInterval] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def intervals(self) -> dict[str, LiveInterval]:
        if self._intervals is None:
            self._intervals = _build_intervals(self.function, self.live_in, self.live_out)
        return self._intervals

    def interval(self, name: str) -> LiveInterval:
        return self.intervals[name]

    def live_at(self, index: int) -> set:
        """Vreg names live *out of* instruction ``index``."""
        return self.live_out[index]

    def is_last_use(self, index: int, name: str) -> bool:
        """Is instruction ``index`` the last use of ``name`` (paper's
        ``lastUse.a.s``): the vreg is used here and dead afterwards?"""
        ins = self.function.instrs[index]
        if name not in {r.name for r in ins.uses()}:
            return False
        return name not in self.live_out[index]

    def is_def(self, index: int, name: str) -> bool:
        ins = self.function.instrs[index]
        return any(r.name == name for r in ins.defs())

    def is_use(self, index: int, name: str) -> bool:
        ins = self.function.instrs[index]
        return any(r.name == name for r in ins.uses())


def analyze(fn: IRFunction) -> LivenessInfo:
    """Run backward liveness over ``fn``; intervals follow on demand.

    The dataflow runs per CFG block: each block's instructions fold
    into one ``live_in = gen | (live_out - kill)`` transfer, the block
    equations iterate to their least fixpoint, and one backward sweep
    per block then fills in the per-instruction sets.
    """
    cfg = build_cfg(fn)
    instrs = fn.instrs
    count = len(instrs)
    uses = []
    defs = []
    for ins in instrs:
        uses.append({r.name for r in ins.uses()})
        defs.append({r.name for r in ins.defs()})

    blocks = cfg.blocks
    gen = []
    kill = []
    for block in blocks:
        block_gen: set = set()
        block_kill: set = set()
        for idx in range(block.end - 1, block.start - 1, -1):
            block_gen = uses[idx] | (block_gen - defs[idx])
            block_kill |= defs[idx]
        gen.append(block_gen)
        kill.append(block_kill)

    block_in: list[set] = list(gen)  # the transfer of an empty live_out
    block_out: list[set] = [set() for _ in blocks]
    changed = True
    while changed:
        changed = False
        # Reverse block order converges fastest for backward flow.
        for block in reversed(blocks):
            b = block.index
            out: set = set()
            for succ in block.successors:
                out |= block_in[succ]
            if out != block_out[b]:
                block_out[b] = out
                block_in[b] = gen[b] | (out - kill[b])
                changed = True

    live_in: list[set] = [set()] * count  # every entry is replaced below
    live_out: list[set] = [set()] * count
    for block in blocks:
        live = block_out[block.index]
        for idx in range(block.end - 1, block.start - 1, -1):
            live_out[idx] = live
            live = uses[idx] | (live - defs[idx])
            live_in[idx] = live
    return LivenessInfo(function=fn, cfg=cfg, live_in=live_in, live_out=live_out)


def _build_intervals(fn, live_in, live_out) -> dict[str, LiveInterval]:
    # name -> [first, last] index at which the vreg is touched or live.
    # The sweep runs in index order, so a name's first touch is its
    # start.  Parameters are live from function entry.
    bounds: dict[str, list[int]] = {}
    vreg_by_name: dict[str, VReg] = {}  # first appearance, as fn.vregs()
    for reg in fn.param_vregs:
        vreg_by_name.setdefault(reg.name, reg)
        bounds[reg.name] = [0, 0]
    for idx, ins in enumerate(fn.instrs):
        touched = []
        for reg in ins.vregs():
            vreg_by_name.setdefault(reg.name, reg)
            touched.append(reg.name)
        for names in (touched, live_out[idx], live_in[idx]):
            for name in names:
                span = bounds.get(name)
                if span is None:
                    bounds[name] = [idx, idx]
                else:
                    span[1] = idx
    intervals = {
        name: LiveInterval(vreg=vreg_by_name[name], start=start, end=end)
        for name, (start, end) in bounds.items()
    }

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


def interference_pairs(info: LivenessInfo) -> set[tuple[str, str]]:
    """All pairs of vreg names that are simultaneously live.

    The classic interference definition: ``a`` interferes with ``b`` if
    ``a`` is defined while ``b`` is live (or vice versa).  Used by the
    graph-coloring baseline allocator.
    """
    pairs: set[tuple[str, str]] = set()
    for idx, ins in enumerate(info.function.instrs):
        live = info.live_out[idx]
        for dreg in ins.defs():
            for other in live:
                if other != dreg.name:
                    pairs.add(_ordered(dreg.name, other))
        # MOV coalescing candidates are still interference-free; the
        # baseline allocator handles that separately.
    # Parameters interfere with each other (all live at entry).
    params = [r.name for r in info.function.param_vregs]
    for i, first in enumerate(params):
        for second in params[i + 1 :]:
            pairs.add(_ordered(first, second))
    return pairs


def _ordered(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)
