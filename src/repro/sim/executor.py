"""Instruction-level simulator (the reproduction's Avrora stand-in).

Executes a :class:`~repro.isa.assembler.BinaryImage` with per-opcode
cycle accounting, AVR-style flag semantics for the subset the code
generator emits, and an execution profiler that attributes machine
instructions back to (function, IR index) — the ``freq(s)`` input of
the paper's energy objective.

Cycle fidelity: base costs come from the opcode table; taken branches
cost one extra cycle, like the ATmega128.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import devices as memmap
from ..isa.assembler import BinaryImage
from ..isa.instructions import F_BR, OPCODES
from ..obs import metrics, trace
from .devices import DeviceBoard


class SimulationError(Exception):
    """Raised on invalid execution (bad PC, stack mismatch, bad port)."""


@dataclass(frozen=True)
class Divergence:
    """First observable difference between two simulation runs.

    ``channel`` names the device stream ("led", "radio", "timer",
    "adc", "halted", "main_returned"); ``index`` is the position of the
    first differing event in that stream (``None`` for scalar
    channels); ``a``/``b`` are the differing observations.
    """

    channel: str
    a: object
    b: object
    index: int | None = None

    def render(self) -> str:
        at = f"[{self.index}]" if self.index is not None else ""
        return f"{self.channel}{at}: {self.a!r} != {self.b!r}"


def traces_equal(a: "RunResult", b: "RunResult") -> Divergence | None:
    """Compare the observable device traces of two runs.

    Two binaries are behaviourally equivalent for update purposes when
    every externally visible effect matches: the LED write sequence,
    the radio packet sequence, the timer fire count, the ADC sample
    count, and how the run ended.  Returns ``None`` when the traces
    agree, else the first :class:`Divergence` (sequence channels are
    compared before scalar ones, so the returned divergence is the most
    debuggable observation).
    """
    for channel, seq_a, seq_b in (
        ("led", a.devices.led.writes, b.devices.led.writes),
        ("radio", a.devices.radio.sent, b.devices.radio.sent),
    ):
        for index, (va, vb) in enumerate(zip(seq_a, seq_b)):
            if va != vb:
                return Divergence(channel=channel, a=va, b=vb, index=index)
        if len(seq_a) != len(seq_b):
            index = min(len(seq_a), len(seq_b))
            longer = seq_a if len(seq_a) > len(seq_b) else seq_b
            return Divergence(
                channel=channel,
                a=longer[index] if longer is seq_a else "<absent>",
                b=longer[index] if longer is seq_b else "<absent>",
                index=index,
            )
    for channel, va, vb in (
        ("timer", a.devices.timer.fires, b.devices.timer.fires),
        ("adc", a.devices.adc.reads, b.devices.adc.reads),
        ("halted", a.halted, b.halted),
        ("main_returned", a.main_returned, b.main_returned),
    ):
        if va != vb:
            return Divergence(channel=channel, a=va, b=vb)
    return None


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    cycles: int
    instructions: int
    halted: bool
    main_returned: bool
    devices: DeviceBoard
    #: (function name, IR index) -> executed machine instructions
    profile: dict = field(default_factory=dict)

    def ir_frequencies(self, function: str) -> dict[int, int]:
        """Executed-count per IR index for one function."""
        freqs: dict[int, int] = {}
        for (fn, ir_index), count in self.profile.items():
            if fn == function and ir_index >= 0:
                freqs[ir_index] = freqs.get(ir_index, 0) + count
        return freqs


class Simulator:
    """Executes one binary image."""

    def __init__(
        self,
        image: BinaryImage,
        devices: DeviceBoard | None = None,
        collect_profile: bool = False,
    ):
        self.image = image
        self.devices = devices or DeviceBoard()
        self.collect_profile = collect_profile
        self.regs = bytearray(32)
        self.sram = bytearray(memmap.DATA_START + memmap.SRAM_SIZE)
        base = image.data_base or memmap.DATA_START
        self.sram[base : base + len(image.data)] = image.data
        self.flag_z = False
        self.flag_c = False
        self.pc = image.entry
        self.stack: list[tuple[str, int]] = []  # ("byte", v) / ("ret", addr)
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self.main_returned = False
        self.profile: dict[tuple[str, int], int] = {}
        self._decoded = _predecode(image)

    # -- register/memory helpers ----------------------------------------------

    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = value & 0xFF

    def pair(self, base: int) -> int:
        return self.regs[base] | (self.regs[base + 1] << 8)

    def set_pair(self, base: int, value: int) -> None:
        self.regs[base] = value & 0xFF
        self.regs[base + 1] = (value >> 8) & 0xFF

    def load(self, address: int) -> int:
        self._check_addr(address)
        return self.sram[address]

    def store(self, address: int, value: int) -> None:
        self._check_addr(address)
        self.sram[address] = value & 0xFF

    def _check_addr(self, address: int) -> None:
        if not memmap.DATA_START <= address < len(self.sram):
            raise SimulationError(f"data access outside SRAM: {address:#06x}")

    # -- execution -----------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (none once halted)."""
        # Every instruction costs at least one cycle, so a budget of
        # one more cycle stops the loop after exactly one step.
        self._run_until(self.cycles + 1)

    def _run_until(self, max_cycles: int) -> None:
        """Run the predecoded program until halt or ``max_cycles``.

        The machine state lives in locals for the whole loop and is
        written back on exit, exceptions included.  Ops are tested in
        measured frequency order: on the 15 Figure 9 cases (old and new
        images) the first sixteen are 92% of executed instructions.
        """
        decoded = self._decoded
        regs = self.regs
        sram = self.sram
        sram_end = len(sram)
        data_start = memmap.DATA_START
        stack = self.stack
        push = stack.append
        devices = self.devices
        profile = self.profile
        collect_profile = self.collect_profile
        flag_z = self.flag_z
        flag_c = self.flag_c
        pc = self.pc
        cycles = self.cycles
        executed = self.executed
        halted = self.halted
        try:
            while not halted and cycles < max_cycles:
                try:
                    op, rd, rr, imm, addr, next_pc, cost, is_cond_branch, ins = decoded[pc]
                except KeyError:
                    raise SimulationError(f"invalid PC {pc:#06x}") from None
                if op == "lds":
                    if not data_start <= addr < sram_end:
                        raise SimulationError(f"data access outside SRAM: {addr:#06x}")
                    regs[rd] = sram[addr]
                elif op == "ldi":
                    regs[rd] = imm & 0xFF
                elif op == "clr":
                    regs[rd] = 0
                    flag_z = True
                elif op == "cp":
                    total = regs[rd] - regs[rr]
                    flag_c = total < 0
                    flag_z = total & 0xFF == 0
                elif op == "rjmp":
                    next_pc += addr
                elif op == "call":
                    push(("ret", next_pc))
                    next_pc = addr
                elif op == "ret":
                    if not stack:
                        # main returned: the program is done.
                        halted = True
                        self.main_returned = True
                        next_pc = pc
                    else:
                        kind, value = stack.pop()
                        if kind != "ret":
                            raise SimulationError("ret with unbalanced stack")
                        next_pc = value
                elif op == "sts":
                    if not data_start <= addr < sram_end:
                        raise SimulationError(f"data access outside SRAM: {addr:#06x}")
                    sram[addr] = regs[rd]
                elif op == "subi":
                    total = regs[rd] - imm
                    flag_c = total < 0
                    regs[rd] = value = total & 0xFF
                    flag_z = value == 0
                elif op == "sbci":
                    total = regs[rd] - imm - flag_c
                    flag_c = total < 0
                    regs[rd] = value = total & 0xFF
                    flag_z = flag_z and value == 0
                elif op == "out":
                    devices.io_write(rr, regs[rd])
                elif is_cond_branch:
                    if op == "brlo":
                        taken = flag_c
                    elif op == "brne":
                        taken = not flag_z
                    elif op == "breq":
                        taken = flag_z
                    else:  # brsh
                        taken = not flag_c
                    if taken:
                        next_pc += addr
                        cost += 1  # taken conditional-branch penalty
                elif op == "cpc":
                    total = regs[rd] - regs[rr] - flag_c
                    flag_c = total < 0
                    flag_z = flag_z and total & 0xFF == 0
                elif op == "mov":
                    regs[rd] = regs[rr]
                elif op == "in":
                    regs[rd] = devices.io_read(rr, cycles) & 0xFF
                # -- the rarer ops ---------------------------------------------
                elif op == "add" or op == "adc":
                    total = regs[rd] + regs[rr] + (flag_c if op == "adc" else 0)
                    flag_c = total > 0xFF
                    regs[rd] = value = total & 0xFF
                    flag_z = value == 0
                elif op == "sub" or op == "sbc":
                    total = regs[rd] - regs[rr] - (flag_c if op == "sbc" else 0)
                    flag_c = total < 0
                    regs[rd] = value = total & 0xFF
                    flag_z = (flag_z if op == "sbc" else True) and value == 0
                elif op == "cpi":
                    total = regs[rd] - imm
                    flag_c = total < 0
                    flag_z = total & 0xFF == 0
                elif op == "and" or op == "andi":
                    value = regs[rd] & (regs[rr] if op == "and" else imm)
                    regs[rd] = value & 0xFF
                    flag_z = value == 0
                elif op == "or" or op == "ori":
                    value = regs[rd] | (regs[rr] if op == "or" else imm)
                    regs[rd] = value & 0xFF
                    flag_z = value == 0
                elif op == "eor" or op == "eori":
                    value = regs[rd] ^ (regs[rr] if op == "eor" else imm)
                    regs[rd] = value & 0xFF
                    flag_z = value == 0
                elif op == "push":
                    push(("byte", regs[rd]))
                elif op == "pop":
                    if not stack or stack[-1][0] != "byte":
                        raise SimulationError("pop without matching push")
                    regs[rd] = stack.pop()[1]
                elif op == "halt":
                    halted = True
                    next_pc = pc
                elif op == "jmp":
                    next_pc = addr
                elif op == "movw":
                    regs[rd], regs[rd + 1] = regs[rr], regs[rr + 1]
                elif op == "inc" or op == "dec":
                    regs[rd] = value = (regs[rd] + (1 if op == "inc" else -1)) & 0xFF
                    flag_z = value == 0
                elif op == "neg":
                    regs[rd] = value = -regs[rd] & 0xFF
                    flag_z = value == 0
                    flag_c = value != 0
                elif op == "com":
                    regs[rd] = value = ~regs[rd] & 0xFF
                    flag_z = value == 0
                elif op == "lsl" or op == "rol":
                    value = regs[rd]
                    carry_in = flag_c if op == "rol" else 0
                    flag_c = bool(value & 0x80)
                    regs[rd] = value = ((value << 1) | carry_in) & 0xFF
                    flag_z = value == 0
                elif op == "lsr" or op == "ror":
                    value = regs[rd]
                    carry_in = flag_c if op == "ror" else 0
                    flag_c = bool(value & 1)
                    regs[rd] = value = (value >> 1) | (carry_in << 7)
                    flag_z = value == 0
                elif op == "mul":
                    regs[rd] = (regs[rd] * regs[rr]) & 0xFF
                elif op == "div":
                    regs[rd] = regs[rd] // regs[rr] if regs[rr] else 0xFF
                elif op == "mod":
                    regs[rd] = regs[rd] % regs[rr] if regs[rr] else regs[rd]
                elif op == "mul16" or op == "div16" or op == "mod16":
                    left = regs[rd] | (regs[rd + 1] << 8)
                    right = regs[rr] | (regs[rr + 1] << 8)
                    if op == "mul16":
                        value = (left * right) & 0xFFFF
                    elif op == "div16":
                        value = left // right if right else 0xFFFF
                    else:
                        value = left % right if right else left
                    regs[rd] = value & 0xFF
                    regs[rd + 1] = (value >> 8) & 0xFF
                elif op == "ld_z" or op == "ld_zp" or op == "st_z" or op == "st_zp":
                    address = regs[30] | (regs[31] << 8)
                    self._check_addr(address)
                    if op == "ld_z" or op == "ld_zp":
                        regs[rd] = sram[address]
                    else:
                        sram[address] = regs[rd]
                    if op == "ld_zp" or op == "st_zp":
                        address = (address + 1) & 0xFFFF
                        regs[30] = address & 0xFF
                        regs[31] = address >> 8
                elif op != "nop":
                    raise SimulationError(f"cannot execute {ins}")  # pragma: no cover
                pc = next_pc
                cycles += cost
                executed += 1
                if collect_profile:
                    key = (ins.comment, ins.ir_index)
                    profile[key] = profile.get(key, 0) + 1
        finally:
            self.pc = pc
            self.cycles = cycles
            self.executed = executed
            self.halted = halted
            self.flag_z = flag_z
            self.flag_c = flag_c

    def run(self, max_cycles: int = 5_000_000) -> RunResult:
        """Run until HALT, main-return, or the cycle budget.

        Metrics are published once per run (never per instruction), so
        the simulation loop itself stays uninstrumented.
        """
        with trace.span("sim.run", max_cycles=max_cycles) as span:
            self._run_until(max_cycles)
            span.set(cycles=self.cycles, instructions=self.executed)
        metrics.counter("sim.runs").inc()
        metrics.counter("sim.cycles").inc(self.cycles)
        metrics.counter("sim.instructions").inc(self.executed)
        if not self.halted:
            metrics.counter("sim.cycle_budget_hits").inc()
        return RunResult(
            cycles=self.cycles,
            instructions=self.executed,
            halted=self.halted,
            main_returned=self.main_returned,
            devices=self.devices,
            profile=dict(self.profile),
        )


def _predecode(image: BinaryImage) -> dict[int, tuple]:
    """Decode ``image.code`` once: word address -> ``(op, rd, rr, imm,
    addr, next_pc, base_cost, is_cond_branch, instr)``."""
    decoded: dict[int, tuple] = {}
    for enc in image.code:
        ins = enc.instr
        spec = OPCODES[ins.mnemonic]
        decoded[enc.address] = (
            ins.mnemonic,
            ins.rd,
            ins.rr,
            ins.imm,
            ins.addr,
            enc.address + len(enc.words),
            spec.cycles,
            spec.fmt == F_BR and ins.mnemonic != "rjmp",
            ins,
        )
    return decoded


def run_image(
    image: BinaryImage,
    devices: DeviceBoard | None = None,
    max_cycles: int = 5_000_000,
    collect_profile: bool = False,
) -> RunResult:
    """Convenience: simulate ``image`` to completion."""
    sim = Simulator(image, devices=devices, collect_profile=collect_profile)
    return sim.run(max_cycles=max_cycles)
