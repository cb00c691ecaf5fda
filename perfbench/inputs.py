"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is derived here from the
workload seed, so the same seed always yields byte-identical inputs.
:func:`digest_of` hashes those inputs for the report: a change to a
generator shows up as a changed workload, not as a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import Callable, List

#: Size knobs of the two generated-program classes of the sink stream.
#: ``aes`` programs have up to 7 functions and, within the source band
#: below, take as long to plan as the AES-128 benchmark (Figure 9 case
#: 10) or longer.  Both bound the main loop, loop trip counts
#: and statement nesting, so a simulated run stays within the paper
#: programs' 20-40k cycles instead of a heavy tail of multi-second runs.
#: Functions stay short: the assembler has no branch relaxation, so a
#: function longer than the relative-branch range fails to assemble
#: (larger ``max_stmts`` settings produce such functions).
_DYNAMIC_BOUNDS = dict(scheduler_iters=6, max_loop_bound=3, max_nesting=1)
FUZZ_SIZES = {
    "small": dict(_DYNAMIC_BOUNDS),
    "aes": dict(_DYNAMIC_BOUNDS, max_globals=8, max_funcs=6, max_stmts=6),
}
#: Source-length band (characters) of the generated programs of a class;
#: a program outside it is drawn again.  A request's planning time
#: follows its source length (correlation 0.88 over 64 ``aes`` pairs).
#: Unbanded, ``aes`` programs run from 0.5 to 3.3 kB, and the few largest
#: of a seed were among the sink's slowest requests; with them (and run
#: counts drawn per request) the latency tail moved by 20% between seeds.
FUZZ_CHARS = {"small": (0, 1 << 30), "aes": (1600, 2400)}


class Deck:
    """Draws from ``items`` in a seeded shuffled order, reshuffling when
    exhausted, so every item appears equally often in a long stream."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.order: list = []

    def draw(self):
        if not self.order:
            self.order = self.rng.sample(self.items, len(self.items))
        return self.order.pop()


def rng_for(component: str, seed: int, *parts: object) -> random.Random:
    """A derived, independent RNG per input dimension."""
    tail = ":".join(str(part) for part in parts)
    return random.Random(f"perfbench-{component}:{seed}:{tail}")


def digest_of(payload: object) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def fuzz_pair(seed: int, index: int, size: str) -> "tuple[str, str]":
    """One ``repro.fuzz`` update pair: a generated program and a
    mutated successor with one to four semantic edits."""
    from repro.fuzz.mutator import mutate
    from repro.fuzz.progen import GenConfig, generate_program

    rng = rng_for("fuzz", seed, size, index)
    low, high = FUZZ_CHARS[size]
    program = generate_program(rng, GenConfig(**FUZZ_SIZES[size]))
    while not low <= len(program.render()) <= high:
        program = generate_program(rng, GenConfig(**FUZZ_SIZES[size]))
    edited, _ = mutate(program, rng, rng.randint(1, 4))
    return program.render(), edited.render()


# ---------------------------------------------------------------------------
# Release edits: seeded, always-valid source edits of the paper programs
# ---------------------------------------------------------------------------

_FUNCTION_OPEN = re.compile(r"^(?:void|u8|u16) \w+\([^)]*\) \{$", re.MULTILINE)
_SCALAR_INIT = re.compile(r"^(u8|u16) (\w+) = (\d+);$", re.MULTILINE)
_ARRAY_INIT = re.compile(r"^u8 \w+\[\d+\] = \{[^}]*\};", re.MULTILINE)
_HEX_BYTE = re.compile(r"0x[0-9a-f]{2}")


def _insert_emit(source: str, rng: random.Random) -> str:
    """Insert a device write at the top of one function body."""
    opens = list(_FUNCTION_OPEN.finditer(source))
    at = rng.choice(opens).end()
    call = rng.choice(("led_set", "radio_send"))
    return f"{source[:at]}\n    {call}({rng.randrange(256)});{source[at:]}"


def _tweak_scalar(source: str, rng: random.Random) -> str:
    """Change the initial value of one scalar global (a data edit)."""
    inits = list(_SCALAR_INIT.finditer(source))
    if not inits:
        return _tweak_array_byte(source, rng)
    match = rng.choice(inits)
    value = rng.randrange(256)
    line = f"{match.group(1)} {match.group(2)} = {value};"
    return source[: match.start()] + line + source[match.end():]


def _tweak_array_byte(source: str, rng: random.Random) -> str:
    """Change one byte of a writable array initializer (a data edit)."""
    arrays = list(_ARRAY_INIT.finditer(source))
    if not arrays:
        return _insert_emit(source, rng)
    array = rng.choice(arrays)
    byte = rng.choice(list(_HEX_BYTE.finditer(array.group(0))))
    start = array.start() + byte.start()
    return f"{source[:start]}0x{rng.randrange(256):02x}{source[start + 4:]}"


_RELEASE_EDITS: List[Callable[[str, random.Random], str]] = [
    _insert_emit,
    _insert_emit,
    _tweak_scalar,
    _tweak_array_byte,
]


def release_history(base: str, rng: random.Random, releases: int) -> List[str]:
    """``releases`` cumulative seeded edits of ``base``; element ``k``
    is the source of release ``k + 1``."""
    history = []
    source = base
    for _ in range(releases):
        source = rng.choice(_RELEASE_EDITS)(source, rng)
        history.append(source)
    return history
