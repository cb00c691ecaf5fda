"""Differential tests: the shipped hot loops against their oracles.

``tests/oracles/`` keeps the straightforward versions of four loops
that ``src/`` replaced with faster ones: the if-chain instruction
stepper, the character-at-a-time lexer, the level-recursive binary
expression parser and the per-instruction liveness fixpoint.  Over the
15 Figure 9 update cases (old and new source) and 200 programs from
:mod:`repro.fuzz.progen`, the shipped code must give exactly the
oracles' answers: the same cycles, instruction count, device traces and
execution profile; the same tokens with their locations; the same ASTs;
the same per-instruction live sets, interval bounds and call-crossing
flags.  Random inputs also pin the error paths: the same exception
type, message and location.
"""

from __future__ import annotations

import random

import pytest

from repro.core import compile_source
from repro.fuzz.progen import GenConfig, generate_program
from repro.ir import analyze, build_ir
from repro.isa import MachineInstr, assemble, label
from repro.isa import devices as memmap
from repro.lang import frontend, tokenize
from repro.lang.errors import CompileError
from repro.lang.lexer import Lexer
from repro.lang.parser import Parser
from repro.opt import optimize_module
from repro.sim import DeviceBoard, SimulationError, Simulator, Timer
from repro.workloads import CASES

from .oracles import lexer as lexer_oracle
from .oracles import liveness as liveness_oracle
from .oracles import parser as parser_oracle
from .oracles import sim as sim_oracle

PROGEN_PROGRAMS = 200
MAX_CYCLES = 2_000_000


def _figure9_sources():
    return [
        (f"case{cid}.{side}", source)
        for cid, case in CASES.items()
        for side, source in (("old", case.old_source), ("new", case.new_source))
    ]


#: Short event loops keep 200 runs on the oracle stepper quick.
PROGEN_CONFIG = GenConfig(scheduler_iters=12, max_loop_bound=4)


def _progen_sources():
    return [
        (
            f"progen{i}",
            generate_program(random.Random(f"oracle:{i}"), PROGEN_CONFIG).render(),
        )
        for i in range(PROGEN_PROGRAMS)
    ]


CORPORA = {"figure9": _figure9_sources, "progen": _progen_sources}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    return CORPORA[request.param]()


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


def _observed(result):
    devices = result.devices
    return (
        result.cycles,
        result.instructions,
        result.halted,
        result.main_returned,
        result.profile,
        devices.led.writes,
        devices.radio.sent,
        devices.timer.fires,
        devices.adc.reads,
    )


#: The poll-driven timer Diff_cycle measurements use, and the
#: cycle-driven one, which reads the cycle count on every poll.
BOARDS = (
    lambda: DeviceBoard(timer=Timer(fire_every_polls=3)),
    lambda: DeviceBoard(timer=Timer(period_cycles=700)),
)


_ALU_RR = ["add", "adc", "sub", "sbc", "and", "or", "eor", "mov", "movw", "cp", "cpc",
           "mul", "div", "mod", "mul16", "div16", "mod16"]
_ALU_R = ["neg", "com", "inc", "dec", "lsl", "lsr", "rol", "ror", "clr", "push", "pop"]
_ALU_IMM = ["ldi", "subi", "sbci", "andi", "ori", "eori", "cpi"]
_BRANCHES = ["breq", "brne", "brlo", "brsh", "rjmp"]
_PORTS_IN = [memmap.PORT_LED, memmap.PORT_TIMER, memmap.PORT_ADC_LO, memmap.PORT_ADC_HI]
_PORTS_OUT = [memmap.PORT_LED, memmap.PORT_RADIO_LO, memmap.PORT_RADIO_HI]


def _random_program(rng: random.Random, number: int) -> list:
    """A random instruction sequence that only branches forward."""
    reg = lambda: rng.randrange(31)  # noqa: E731 - pairs need r+1
    body = [label("main")]
    pending = []  # forward branch targets still to place
    for step in range(rng.randint(1, 24)):
        if pending and rng.random() < 0.3:
            body.append(label(pending.pop()))
        kind = rng.random()
        if kind < 0.35:
            body.append(MachineInstr(rng.choice(_ALU_RR), rd=reg(), rr=reg()))
        elif kind < 0.55:
            body.append(MachineInstr(rng.choice(_ALU_R), rd=reg()))
        elif kind < 0.7:
            body.append(MachineInstr(rng.choice(_ALU_IMM), rd=reg(), imm=rng.randrange(256)))
        elif kind < 0.8:
            target = f"main.t{number}.{step}"
            pending.append(target)
            body.append(MachineInstr(rng.choice(_BRANCHES), target=target))
        elif kind < 0.88:
            # Z mostly inside SRAM, sometimes just below it.
            address = rng.choice([rng.randrange(0x0100, 0x1100), rng.randrange(0x00F0, 0x0100)])
            body.append(MachineInstr("ldi", rd=30, imm=address & 0xFF))
            body.append(MachineInstr("ldi", rd=31, imm=address >> 8))
            body.append(MachineInstr(rng.choice(["ld_z", "ld_zp", "st_z", "st_zp"]), rd=reg()))
        elif kind < 0.95:
            address = rng.choice([rng.randrange(0x0100, 0x1100), rng.randrange(0x1100, 0x1110)])
            body.append(MachineInstr(rng.choice(["lds", "sts"]), rd=reg(), addr=address))
        elif kind < 0.98:
            body.append(MachineInstr("in", rd=reg(), rr=rng.choice(_PORTS_IN)))
        else:
            body.append(MachineInstr("out", rd=reg(), rr=rng.choice(_PORTS_OUT)))
    body.extend(label(name) for name in pending)
    body.append(MachineInstr(rng.choice(["halt", "ret", "nop"])))
    return body


class TestSimulator:
    def test_runs_match_the_if_chain_stepper(self, corpus):
        for number, (name, source) in enumerate(corpus):
            image = compile_source(source).image
            # Both boards on even programs; odd ones alternate.
            boards = BOARDS if number % 2 == 0 else (BOARDS[number // 2 % 2],)
            for board in boards:
                shipped = Simulator(image, devices=board(), collect_profile=True)
                oracle = sim_oracle.Simulator(image, devices=board(), collect_profile=True)
                got = _observed(shipped.run(MAX_CYCLES))
                want = _observed(oracle.run(MAX_CYCLES))
                assert got == want, name
                assert shipped.regs == oracle.regs, name
                assert shipped.sram == oracle.sram, name
                assert (shipped.pc, shipped.flag_z, shipped.flag_c) == (
                    oracle.pc,
                    oracle.flag_z,
                    oracle.flag_c,
                ), name

    def test_random_machine_code_matches(self):
        """Every opcode's semantics, including the corners compiled
        code rarely reaches: division by zero, overlapping ``movw``,
        the Z-flag chain of ``sbc``/``sbci``/``cpc``, accesses outside
        SRAM, unbalanced stacks."""
        rng = random.Random("oracle-machine")
        for number in range(600):
            image = assemble(_random_program(rng, number))
            # Boundary values often, so zero divisors and carries occur.
            init = [rng.choice((0, 1, 0x7F, 0x80, 0xFF, rng.randrange(256))) for _ in range(32)]
            runs = []
            for sim in (Simulator(image, collect_profile=True),
                        sim_oracle.Simulator(image, collect_profile=True)):
                sim.regs[:] = bytes(init)
                try:
                    outcome = _observed(sim.run(10_000))
                except (SimulationError, ValueError) as exc:
                    outcome = (type(exc).__name__, str(exc))
                runs.append((
                    outcome, bytes(sim.regs), bytes(sim.sram), sim.flag_z, sim.flag_c,
                    sim.pc, sim.cycles, sim.executed, sim.stack,
                ))
            assert runs[0] == runs[1], number

    def test_cycle_budget_cut_matches(self):
        image = compile_source(CASES["1"].new_source).image
        for budget in (1, 2, 57, 1000, 12345):
            shipped = Simulator(image, collect_profile=True).run(budget)
            oracle = sim_oracle.Simulator(image, collect_profile=True).run(budget)
            assert _observed(shipped) == _observed(oracle), budget

    @pytest.mark.parametrize(
        "program",
        [
            [label("main"), MachineInstr("jmp", addr=0x0100)],
            [label("main"), MachineInstr("pop", rd=2)],
            [label("main"), MachineInstr("push", rd=2), MachineInstr("ret")],
            [label("main"), MachineInstr("lds", rd=2, addr=0x10)],
            [label("main"), MachineInstr("sts", rd=2, addr=0xFFFF)],
            [label("main"), MachineInstr("ld_z", rd=2)],
            [label("main"), MachineInstr("ldi", rd=30, imm=0xFF), MachineInstr("st_zp", rd=2)],
        ],
        ids=["bad-pc", "pop", "ret", "lds", "sts", "ld_z", "st_zp"],
    )
    def test_errors_match(self, program):
        image = assemble(program)
        shipped = Simulator(image)
        oracle = sim_oracle.Simulator(image)
        with pytest.raises(SimulationError) as got:
            shipped.run()
        with pytest.raises(SimulationError) as want:
            oracle.run()
        assert str(got.value) == str(want.value)
        # The failing instruction leaves the state as it was before it.
        assert (shipped.pc, shipped.cycles, shipped.executed, shipped.stack) == (
            oracle.pc,
            oracle.cycles,
            oracle.executed,
            oracle.stack,
        )


# ---------------------------------------------------------------------------
# Lexer and parser
# ---------------------------------------------------------------------------


def _lex(lexer_cls, source):
    try:
        return [
            (tok.kind, tok.value, tok.location)
            for tok in lexer_cls(source, "f.c").tokenize()
        ]
    except CompileError as exc:
        return (type(exc).__name__, exc.message, exc.location)
    except ValueError as exc:  # int() of a non-ASCII digit run
        return (type(exc).__name__, str(exc))


def _parse(parser_cls, source):
    try:
        tokens = tokenize(source, "f.c")
    except CompileError as exc:
        return ("lex", exc.message, exc.location)
    try:
        return parser_cls(tokens).parse_program()
    except CompileError as exc:
        return (type(exc).__name__, exc.message, exc.location)


#: Fragments that reach every lexer branch: each punctuator, comments,
#: hex and char literals and their malformed forms, and non-ASCII
#: letters, digits and numerals.
LEX_ALPHABET = list("ab_09xXf' \\\n\t\r@$") + [
    "/*", "*/", "//", "0x", "0X1f", "'\\n'", "'\\q", "<<=", ">>=", "u8", "é",
    "²", "½", "٣", "'", "''",
] + list(lexer_oracle.PUNCTUATORS)

#: Tokens for random expression statements, valid and not.
PARSE_ALPHABET = [
    "a", "b", "t", "1", "0x2", "(", ")", "[", "]", ",", "f(", "-", "+", "~", "!",
    "*", "/", "%", "<<", ">>", "<", "<=", ">", ">=", "==", "!=", "&", "^", "|",
    "&&", "||", "=", "+=", "<<=", "++", "--", ";", "u8",
]


class TestFrontEnd:
    def test_tokens_match_the_character_lexer(self, corpus):
        for name, source in corpus:
            assert _lex(Lexer, source) == _lex(lexer_oracle.Lexer, source), name

    def test_asts_match_the_level_recursive_parser(self, corpus):
        for name, source in corpus:
            assert _parse(Parser, source) == _parse(parser_oracle.Parser, source), name

    def test_random_text_lexes_identically(self):
        rng = random.Random("oracle-lexer")
        for _ in range(4000):
            source = "".join(
                rng.choice(LEX_ALPHABET) for _ in range(rng.randint(0, 14))
            )
            assert _lex(Lexer, source) == _lex(lexer_oracle.Lexer, source), source

    def test_random_statements_parse_identically(self):
        rng = random.Random("oracle-parser")
        for _ in range(3000):
            body = " ".join(rng.choice(PARSE_ALPHABET) for _ in range(rng.randint(1, 12)))
            source = f"u8 a; u8 b; u8 t[4];\nvoid f() {{ {body}; }}"
            assert _parse(Parser, source) == _parse(parser_oracle.Parser, source), body


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


def _functions(source):
    """Every function as lowered, and again after the optimiser."""
    lowered = build_ir(frontend(source))
    optimized = build_ir(frontend(source))
    optimize_module(optimized)
    return list(lowered.functions.values()) + list(optimized.functions.values())


class TestLiveness:
    def test_facts_match_the_instruction_fixpoint(self, corpus):
        for name, source in corpus:
            for fn in _functions(source):
                info = analyze(fn)
                live_in, live_out, intervals = liveness_oracle.analyze(fn)
                where = f"{name}:{fn.name}"
                assert info.live_in == live_in, where
                assert info.live_out == live_out, where
                got = {
                    key: (iv.vreg, iv.start, iv.end, iv.crosses_call)
                    for key, iv in info.intervals.items()
                }
                want = {
                    key: (iv.vreg, iv.start, iv.end, iv.crosses_call)
                    for key, iv in intervals.items()
                }
                assert got == want, where
