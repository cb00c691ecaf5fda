"""The if-chain instruction stepper the predecoded simulator replaced.

``Simulator`` here is the pre-predecode :class:`repro.sim.Simulator`:
every step fetches the :class:`~repro.isa.assembler.EncodedInstr`,
reads the opcode table through ``MachineInstr`` properties and walks
one ``if op == ...`` chain.  ``run`` keeps the loop but publishes no
span or metrics.
"""

from __future__ import annotations

from repro.isa import devices as memmap
from repro.isa.assembler import BinaryImage, EncodedInstr
from repro.isa.instructions import MachineInstr
from repro.sim.devices import DeviceBoard
from repro.sim.executor import RunResult, SimulationError


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
        # word address -> EncodedInstr for fetch
        self._by_address: dict[int, EncodedInstr] = {
            enc.address: enc for enc in image.code
        }

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

    # -- flag helpers --------------------------------------------------------------

    def _add(self, a: int, b: int, carry_in: int = 0) -> int:
        total = a + b + carry_in
        self.flag_c = total > 0xFF
        result = total & 0xFF
        self.flag_z = result == 0
        return result

    def _sub(self, a: int, b: int, borrow_in: int = 0, keep_z: bool = False) -> int:
        total = a - b - borrow_in
        self.flag_c = total < 0
        result = total & 0xFF
        if keep_z:
            self.flag_z = self.flag_z and result == 0
        else:
            self.flag_z = result == 0
        return result

    # -- execution -----------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            return
        enc = self._by_address.get(self.pc)
        if enc is None:
            raise SimulationError(f"invalid PC {self.pc:#06x}")
        ins = enc.instr
        next_pc = self.pc + enc.size_words
        cost = ins.cycles

        taken_pc = self._execute(ins, next_pc)
        if (
            taken_pc is not None
            and ins.spec.fmt == "br"
            and ins.mnemonic != "rjmp"  # rjmp's 2 cycles are in the table
        ):
            cost += 1  # taken conditional-branch penalty
        self.pc = taken_pc if taken_pc is not None else next_pc
        self.cycles += cost
        self.executed += 1
        if self.collect_profile:
            key = (ins.comment, ins.ir_index)
            self.profile[key] = self.profile.get(key, 0) + 1

    def _execute(self, ins: MachineInstr, next_pc: int) -> int | None:
        """Execute; return the next PC for control transfers."""
        op = ins.mnemonic
        rd, rr = ins.rd, ins.rr
        R = self.regs

        if op == "nop":
            return None
        if op == "halt":
            self.halted = True
            return self.pc
        if op == "mov":
            self.set_reg(rd, R[rr])
            return None
        if op == "movw":
            self.set_pair(rd, self.pair(rr))
            return None
        if op == "ldi":
            self.set_reg(rd, ins.imm)
            return None
        if op == "clr":
            self.set_reg(rd, 0)
            self.flag_z = True
            return None
        if op == "add":
            self.set_reg(rd, self._add(R[rd], R[rr]))
            return None
        if op == "adc":
            self.set_reg(rd, self._add(R[rd], R[rr], int(self.flag_c)))
            return None
        if op == "sub":
            self.set_reg(rd, self._sub(R[rd], R[rr]))
            return None
        if op == "sbc":
            self.set_reg(rd, self._sub(R[rd], R[rr], int(self.flag_c), keep_z=True))
            return None
        if op == "subi":
            self.set_reg(rd, self._sub(R[rd], ins.imm))
            return None
        if op == "sbci":
            self.set_reg(rd, self._sub(R[rd], ins.imm, int(self.flag_c), keep_z=True))
            return None
        if op == "and" or op == "andi":
            value = R[rd] & (R[rr] if op == "and" else ins.imm)
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "or" or op == "ori":
            value = R[rd] | (R[rr] if op == "or" else ins.imm)
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "eor" or op == "eori":
            value = R[rd] ^ (R[rr] if op == "eor" else ins.imm)
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "cp":
            self._sub(R[rd], R[rr])
            return None
        if op == "cpc":
            self._sub(R[rd], R[rr], int(self.flag_c), keep_z=True)
            return None
        if op == "cpi":
            self._sub(R[rd], ins.imm)
            return None
        if op == "mul":
            self.set_reg(rd, (R[rd] * R[rr]) & 0xFF)
            return None
        if op == "div":
            self.set_reg(rd, R[rd] // R[rr] if R[rr] else 0xFF)
            return None
        if op == "mod":
            self.set_reg(rd, R[rd] % R[rr] if R[rr] else R[rd])
            return None
        if op == "mul16":
            self.set_pair(rd, (self.pair(rd) * self.pair(rr)) & 0xFFFF)
            return None
        if op == "div16":
            divisor = self.pair(rr)
            self.set_pair(rd, self.pair(rd) // divisor if divisor else 0xFFFF)
            return None
        if op == "mod16":
            divisor = self.pair(rr)
            self.set_pair(rd, self.pair(rd) % divisor if divisor else self.pair(rd))
            return None
        if op == "neg":
            value = (-R[rd]) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            self.flag_c = value != 0
            return None
        if op == "com":
            value = (~R[rd]) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "inc":
            value = (R[rd] + 1) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "dec":
            value = (R[rd] - 1) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "lsl":
            self.flag_c = bool(R[rd] & 0x80)
            value = (R[rd] << 1) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "lsr":
            self.flag_c = bool(R[rd] & 1)
            value = R[rd] >> 1
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "rol":
            carry = int(self.flag_c)
            self.flag_c = bool(R[rd] & 0x80)
            value = ((R[rd] << 1) | carry) & 0xFF
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "ror":
            carry = int(self.flag_c)
            self.flag_c = bool(R[rd] & 1)
            value = (R[rd] >> 1) | (carry << 7)
            self.set_reg(rd, value)
            self.flag_z = value == 0
            return None
        if op == "push":
            self.stack.append(("byte", R[rd]))
            return None
        if op == "pop":
            if not self.stack or self.stack[-1][0] != "byte":
                raise SimulationError("pop without matching push")
            _, value = self.stack.pop()
            self.set_reg(rd, value)
            return None
        if op == "in":
            self.set_reg(rd, self.devices.io_read(rr, self.cycles))
            return None
        if op == "out":
            self.devices.io_write(rr, R[rd])
            return None
        if op == "lds":
            self.set_reg(rd, self.load(ins.addr))
            return None
        if op == "sts":
            self.store(ins.addr, R[rd])
            return None
        if op == "ld_z":
            self.set_reg(rd, self.load(self.pair(30)))
            return None
        if op == "ld_zp":
            address = self.pair(30)
            self.set_reg(rd, self.load(address))
            self.set_pair(30, (address + 1) & 0xFFFF)
            return None
        if op == "st_z":
            self.store(self.pair(30), R[rd])
            return None
        if op == "st_zp":
            address = self.pair(30)
            self.store(address, R[rd])
            self.set_pair(30, (address + 1) & 0xFFFF)
            return None
        if op == "rjmp":
            return next_pc + ins.addr
        if op == "breq":
            return next_pc + ins.addr if self.flag_z else None
        if op == "brne":
            return next_pc + ins.addr if not self.flag_z else None
        if op == "brlo":
            return next_pc + ins.addr if self.flag_c else None
        if op == "brsh":
            return next_pc + ins.addr if not self.flag_c else None
        if op == "jmp":
            return ins.addr
        if op == "call":
            self.stack.append(("ret", next_pc))
            return ins.addr
        if op == "ret":
            if not self.stack:
                # main returned: the program is done.
                self.halted = True
                self.main_returned = True
                return self.pc
            kind, value = self.stack.pop()
            if kind != "ret":
                raise SimulationError("ret with unbalanced stack")
            return value
        raise SimulationError(f"cannot execute {ins}")  # pragma: no cover

    def run(self, max_cycles: int = 5_000_000) -> RunResult:
        """Run until HALT, main-return, or the cycle budget."""
        while not self.halted and self.cycles < max_cycles:
            self.step()
        return RunResult(
            cycles=self.cycles,
            instructions=self.executed,
            halted=self.halted,
            main_returned=self.main_returned,
            devices=self.devices,
            profile=dict(self.profile),
        )
