"""Content-addressed caches backing the fleet update service.

A :class:`ContentCache` is a bounded LRU from content digest (any
string, typically a SHA-256 hex from :mod:`repro.config`) to an
arbitrary value.  It is deliberately dumb: it neither computes digests
nor publishes telemetry — call sites own their key derivation and emit
their own literal metric names (`docs/OBSERVABILITY.md` requires
metric names to be literals at the call site, so a generic cache must
not publish on behalf of its users).

Four caches matter in practice, all owned by one
:class:`~repro.service.fleet.FleetUpdateService` (pool workers keep
module-level copies of the last three):

* the **job cache** — :meth:`repro.config.FleetJob.digest` →
  :class:`~repro.service.fleet.JobOutcome`; a warm batch replays
  without planning anything;
* the **compile cache** — :func:`compile_key`, ``(source digest,
  CompileConfig digest)`` → :class:`~repro.core.compiler.CompiledProgram`;
  shared by every job that redeploys the same old program;
* the **front-end cache** — :func:`front_end_key`, ``(source digest,
  optimize, depths)`` → the optimised :class:`~repro.ir.function.IRModule`
  of a new source; shared read-only by every strategy that plans it;
* the **cycles cache** — :func:`cycles_key`, every image field the
  simulator reads plus the timer and cycle budget → the cycle count of
  one run; shared by every plan that measures the same image.

(A fifth content-addressed cache, for canonicalised ILP models,
lives with the solver in :mod:`repro.ilp.canonical`.)
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:
    from ..isa.assembler import BinaryImage


def source_digest(source: str) -> str:
    """SHA-256 content address of one source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compile_key(source: str, config_digest: str) -> str:
    """Cache key of one compile: source content x configuration."""
    return f"{source_digest(source)}:{config_digest}"


def front_end_key(source: str, optimize: bool, depths: Mapping[str, int]) -> str:
    """Cache key of one front end: source content x the two compiler
    options :meth:`~repro.core.compiler.Compiler.front_and_middle`
    reads."""
    return f"{source_digest(source)}:{int(optimize)}:{sorted(depths.items())!r}"


def cycles_key(image: "BinaryImage", fire_every_polls: int, max_cycles: int) -> str:
    """Cache key of one simulated run: every field of ``image`` the
    simulator reads (per instruction: address, words and the decoded
    operands; the data segment, its base and the entry point) x the
    timer period x the cycle budget."""
    code = [
        (
            enc.address,
            enc.words,
            enc.instr.mnemonic,
            enc.instr.rd,
            enc.instr.rr,
            enc.instr.imm,
            enc.instr.addr,
        )
        for enc in image.code
    ]
    tail = f"|{image.data_base}|{image.entry}|{fire_every_polls}|{max_cycles}"
    digest = hashlib.sha256(repr(code).encode("utf-8"))
    digest.update(image.data)
    digest.update(tail.encode("utf-8"))
    return digest.hexdigest()


class ContentCache:
    """A bounded LRU keyed by content digest."""

    def __init__(self, maxsize: int = 1024, name: str = "cache"):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[Any]:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, value: Any) -> None:
        self._entries[digest] = value
        self._entries.move_to_end(digest)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


__all__ = [
    "ContentCache",
    "compile_key",
    "cycles_key",
    "front_end_key",
    "source_digest",
]
