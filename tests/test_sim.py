"""Simulator tests: instruction semantics, devices, cycle accounting."""

import pytest

from repro.core import compile_source
from repro.sim import DeviceBoard, SimulationError, Simulator, Timer, run_image
from repro.workloads import CASES

MAX_CYCLES = 20_000_000


def run(source, **kwargs):
    prog = compile_source(source)
    return prog, run_image(prog.image, **kwargs)


def final_global(source, name):
    prog = compile_source(source)
    sim = Simulator(prog.image)
    sim.run()
    addr = prog.layout.addresses[name]
    size = prog.module.checked.global_symbol(name).ctype.size_bytes
    value = sim.load(addr)
    if size == 2:
        value |= sim.load(addr + 1) << 8
    return value


class TestArithmetic:
    def test_u8_wraparound_add(self):
        assert final_global("u8 r; void main() { r = 200 + 100; halt(); }", "r") == 44

    def test_u8_subtraction_borrow(self):
        src = "u8 r; void main() { u8 a = 5; u8 b = 9; r = a - b; halt(); }"
        assert final_global(src, "r") == (5 - 9) & 0xFF

    def test_u16_arithmetic(self):
        src = "u16 r; void main() { u16 a = 300; u16 b = 500; r = a * b + 7; halt(); }"
        assert final_global(src, "r") == (300 * 500 + 7) & 0xFFFF

    def test_u16_carry_propagation(self):
        src = "u16 r; void main() { u16 a = 0x00ff; r = a + 1; halt(); }"
        assert final_global(src, "r") == 0x0100

    def test_division_and_modulo(self):
        src = "u8 q; u8 m; void main() { u8 a = 47; u8 b = 5; q = a / b; m = a % b; halt(); }"
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["q"]) == 9
        assert sim.load(prog.layout.addresses["m"]) == 2

    def test_u16_division(self):
        src = "u16 r; void main() { u16 a = 50000; u16 b = 7; r = a / b; halt(); }"
        assert final_global(src, "r") == 50000 // 7

    def test_shifts(self):
        src = "u8 l; u8 r; void main() { u8 a = 0x81; l = a << 1; r = a >> 1; halt(); }"
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["l"]) == 0x02
        assert sim.load(prog.layout.addresses["r"]) == 0x40

    def test_u16_shift_crosses_bytes(self):
        src = "u16 r; void main() { u16 a = 0x0180; r = a << 2; halt(); }"
        assert final_global(src, "r") == 0x0600

    def test_dynamic_shift_amount(self):
        src = "u8 r; void main() { u8 a = 1; u8 n = 5; r = a << n; halt(); }"
        assert final_global(src, "r") == 32

    def test_bitwise_ops(self):
        src = (
            "u8 a; u8 o; u8 x; void main() { u8 p = 0xcc; u8 q = 0xaa; "
            "a = p & q; o = p | q; x = p ^ q; halt(); }"
        )
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["a"]) == 0xCC & 0xAA
        assert sim.load(prog.layout.addresses["o"]) == 0xCC | 0xAA
        assert sim.load(prog.layout.addresses["x"]) == 0xCC ^ 0xAA

    def test_unary_neg_and_not(self):
        src = "u8 n; u8 c; void main() { u8 a = 5; n = -a; c = ~a; halt(); }"
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["n"]) == (-5) & 0xFF
        assert sim.load(prog.layout.addresses["c"]) == (~5) & 0xFF

    def test_u16_negation(self):
        src = "u16 r; void main() { u16 a = 300; r = -a; halt(); }"
        assert final_global(src, "r") == (-300) & 0xFFFF


class TestComparisons:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("==", 5, 5, 1), ("==", 5, 6, 0),
            ("!=", 5, 6, 1), ("!=", 5, 5, 0),
            ("<", 3, 9, 1), ("<", 9, 3, 0), ("<", 4, 4, 0),
            ("<=", 4, 4, 1), ("<=", 5, 4, 0),
            (">", 9, 3, 1), (">", 3, 9, 0),
            (">=", 3, 3, 1), (">=", 2, 3, 0),
        ],
    )
    def test_u8_comparisons(self, op, a, b, expected):
        src = f"u8 r; void main() {{ u8 x = {a}; u8 y = {b}; r = x {op} y; halt(); }}"
        assert final_global(src, "r") == expected

    def test_u16_comparison_uses_both_bytes(self):
        src = "u8 r; void main() { u16 a = 0x0100; u16 b = 0x00ff; r = a > b; halt(); }"
        assert final_global(src, "r") == 1

    def test_mixed_width_comparison(self):
        src = "u8 r; void main() { u16 a = 256; u8 b = 0; r = a == b; halt(); }"
        assert final_global(src, "r") == 0


class TestControlFlow:
    def test_loop_sum(self):
        src = "u16 s; void main() { u8 i; for (i = 0; i < 10; i++) { s = s + i; } halt(); }"
        assert final_global(src, "s") == sum(range(10))

    def test_nested_loops(self):
        src = """
        u16 s;
        void main() {
            u8 i; u8 j;
            for (i = 0; i < 5; i++) {
                for (j = 0; j < 4; j++) { s = s + 1; }
            }
            halt();
        }
        """
        assert final_global(src, "s") == 20

    def test_break_and_continue(self):
        src = """
        u16 s;
        void main() {
            u8 i;
            for (i = 0; i < 100; i++) {
                if (i == 50) { break; }
                if (i % 2 == 0) { continue; }
                s = s + 1;
            }
            halt();
        }
        """
        assert final_global(src, "s") == 25

    def test_short_circuit_evaluation_order(self):
        src = """
        u8 touched = 0;
        u8 bump() { touched = touched + 1; return 1; }
        void main() {
            u8 a = 0;
            if (a && bump()) { led_set(1); }
            halt();
        }
        """
        assert final_global(src, "touched") == 0

    def test_function_calls_and_returns(self):
        src = """
        u16 r;
        u16 square(u8 x) { return x * x; }
        void main() { r = square(13); halt(); }
        """
        assert final_global(src, "r") == 169

    def test_recursive_style_chain_calls(self):
        src = """
        u8 r;
        u8 h(u8 x) { return x + 1; }
        u8 g(u8 x) { return h(x) * 2; }
        void main() { r = g(h(1)); halt(); }
        """
        assert final_global(src, "r") == (1 + 1 + 1) * 2

    def test_arrays_in_loops(self):
        src = """
        u8 t[8];
        u16 s;
        void main() {
            u8 i;
            for (i = 0; i < 8; i++) { t[i] = i * i; }
            for (i = 0; i < 8; i++) { s = s + t[i]; }
            halt();
        }
        """
        assert final_global(src, "s") == sum(i * i for i in range(8))

    def test_u16_array_elements(self):
        src = """
        u16 t[4];
        u16 s;
        void main() {
            u8 i;
            for (i = 0; i < 4; i++) { t[i] = 300 * i; }
            for (i = 0; i < 4; i++) { s = s + t[i]; }
            halt();
        }
        """
        assert final_global(src, "s") == sum(300 * i for i in range(4))


class TestDevices:
    def test_led_writes_recorded(self):
        _, result = run("void main() { led_set(5); led_set(2); halt(); }")
        assert result.devices.led.writes == [5, 2]

    def test_led_readback(self):
        src = "u8 r; void main() { led_set(6); r = led_get(); halt(); }"
        assert final_global(src, "r") == 6

    def test_radio_sends_u16(self):
        _, result = run("void main() { radio_send(0x1234); halt(); }")
        assert result.devices.radio.sent == [0x1234]

    def test_timer_fires_periodically(self):
        src = """
        u16 fires;
        void main() {
            u16 i;
            for (i = 0; i < 3000; i++) {
                if (timer_fired()) { fires = fires + 1; }
            }
            halt();
        }
        """
        prog = compile_source(src)
        board = DeviceBoard(timer=Timer(period_cycles=1000))
        sim = Simulator(prog.image, devices=board)
        result = sim.run()
        addr = prog.layout.addresses["fires"]
        fires = sim.load(addr) | (sim.load(addr + 1) << 8)
        assert fires == result.cycles // 1000

    def test_adc_deterministic(self):
        src = "u16 a; u16 b; void main() { a = adc_read(); b = adc_read(); halt(); }"
        first = final_global(src, "a")
        second = final_global(src, "a")
        assert first == second  # same seed, same stream

    def test_adc_stream_varies(self):
        src = "u16 a; u16 b; void main() { a = adc_read(); b = adc_read(); halt(); }"
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        a = sim.load(prog.layout.addresses["a"]) | (sim.load(prog.layout.addresses["a"] + 1) << 8)
        b = sim.load(prog.layout.addresses["b"]) | (sim.load(prog.layout.addresses["b"] + 1) << 8)
        assert a != b


class TestExecutionAccounting:
    def test_cycles_monotonic_and_positive(self):
        _, result = run("void main() { u8 i; for (i = 0; i < 5; i++) { } halt(); }")
        assert result.cycles > result.instructions > 0

    def test_taken_branch_costs_extra(self):
        taken = compile_source(
            "void main() { u8 a = 1; if (a) { led_set(1); } halt(); }"
        )
        r1 = run_image(taken.image)
        assert r1.halted

    def test_profile_attributes_to_functions(self):
        src = """
        u8 f(u8 x) { return x + 1; }
        void main() { u8 a = f(1); led_set(a); halt(); }
        """
        prog = compile_source(src)
        result = run_image(prog.image, collect_profile=True)
        functions = {fn for fn, _ in result.profile}
        assert {"f", "main"} <= functions

    def test_ir_frequencies_positive_in_loop(self):
        src = "void main() { u8 i; for (i = 0; i < 7; i++) { led_set(i); } halt(); }"
        prog = compile_source(src)
        result = run_image(prog.image, collect_profile=True)
        freqs = result.ir_frequencies("main")
        assert max(freqs.values()) >= 7

    def test_max_cycles_stops_infinite_loop(self):
        src = "void main() { while (1) { } }"
        prog = compile_source(src)
        result = run_image(prog.image, max_cycles=10_000)
        assert not result.halted
        assert result.cycles >= 10_000

    def test_main_return_ends_run(self):
        _, result = run("void main() { led_set(1); }")
        assert result.main_returned

    def test_stack_misuse_detected(self):
        # pop without push cannot be produced by the compiler; drive the
        # simulator directly.
        from repro.isa import MachineInstr, assemble, label

        image = assemble([label("main"), MachineInstr("pop", rd=2)])
        sim = Simulator(image)
        with pytest.raises(SimulationError):
            sim.step()

    def test_bad_memory_access_detected(self):
        from repro.isa import MachineInstr, assemble, label

        image = assemble([label("main"), MachineInstr("lds", rd=2, addr=0x10)])
        sim = Simulator(image)
        with pytest.raises(SimulationError):
            sim.step()


class TestStepping:
    """``step()`` runs the same predecoded loop as ``run()``, one
    instruction at a time."""

    @pytest.mark.parametrize("case_id", sorted(CASES))
    def test_stepping_matches_run_on_figure9_images(self, case_id):
        for source in (CASES[case_id].old_source, CASES[case_id].new_source):
            image = compile_source(source).image
            board = lambda: DeviceBoard(timer=Timer(fire_every_polls=3))  # noqa: E731
            whole = Simulator(image, devices=board(), collect_profile=True).run(MAX_CYCLES)
            stepped = Simulator(image, devices=board(), collect_profile=True)
            while not stepped.halted and stepped.cycles < MAX_CYCLES:
                stepped.step()
            assert whole.halted and stepped.halted
            assert (stepped.cycles, stepped.executed, stepped.main_returned) == (
                whole.cycles,
                whole.instructions,
                whole.main_returned,
            )
            assert stepped.profile == whole.profile
            assert stepped.devices.led.writes == whole.devices.led.writes
            assert stepped.devices.radio.sent == whole.devices.radio.sent

    def test_step_after_halt_does_nothing(self):
        from repro.isa import MachineInstr, assemble, label

        sim = Simulator(assemble([label("main"), MachineInstr("halt")]))
        sim.step()
        state = (sim.pc, sim.cycles, sim.executed)
        sim.step()
        assert sim.halted and (sim.pc, sim.cycles, sim.executed) == state == (0, 1, 1)


class TestSimulationErrors:
    """Invalid execution raises :class:`SimulationError` with these
    exact messages, and leaves the state as it was before the failing
    instruction."""

    @pytest.mark.parametrize(
        "program,message,executed",
        # ``executed`` counts the leading ldi: the jmp to a hole runs,
        # every other last instruction fails.
        [
            (["jmp@0x0100"], "invalid PC 0x0100", 2),
            (["pop"], "pop without matching push", 1),
            (["push", "ret"], "ret with unbalanced stack", 2),
            (["lds@0x0010"], "data access outside SRAM: 0x0010", 1),
            (["sts@0x1100"], "data access outside SRAM: 0x1100", 1),
            (["ld_z"], "data access outside SRAM: 0x0000", 1),
        ],
        ids=["invalid-pc", "pop", "ret", "lds", "sts", "ld_z"],
    )
    def test_message(self, program, message, executed):
        from repro.isa import MachineInstr, assemble, label

        instrs = [label("main"), MachineInstr("ldi", rd=2, imm=7)]
        for text in program:
            mnemonic, _, addr = text.partition("@")
            instrs.append(MachineInstr(mnemonic, rd=2, addr=int(addr or "0", 16)))
        sim = Simulator(assemble(instrs))
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        assert str(excinfo.value) == message
        # Only the instructions before the failing one took effect.
        assert sim.executed == executed
        assert sim.reg(2) == 7
