"""Benchmark-side layer tracing: spans around each layer's public entry
points, installed by rebinding names from outside the program.

:class:`LayerTracer` replaces every reference to a layer entry point
held by a loaded ``repro`` module (module globals, module-level dict
values such as the allocator tables, and class attributes for
methods) with a wrapper that records a span, and restores the
originals on :meth:`LayerTracer.uninstall`.  The program itself is not
modified and runs unwrapped when tracing is off.

Event-kernel callbacks get one more hook: the wrapper around
:meth:`repro.net.kernel.SimKernel.schedule_at` wraps each scheduled
callback, so a dispatched event is attributed to the module that
defined its handler (``net.trickle``, ``net.gossip``,
``net.fleet_sim``, ``net.campaign``) and the kernel's own self time is
the scheduler alone.

Aggregates are kept online — per layer: outermost ``calls``, ``busy``
(wall time inside the layer's outermost spans, children included) and
``self`` (span time minus child spans) — so the numbers are exact even
when the span list kept for the Chrome trace is capped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> dotted paths of its public entry points.  A path naming a
#: method (``module.Class.method``) wraps it on the class.
LAYER_ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "service": (
        "repro.service.fleet.FleetUpdateService.run",
        "repro.service.fleet.execute_job",
    ),
    "core": (
        "repro.core.update.UpdatePlanner.plan",
        "repro.core.session.UpdateSession.push_campaign",
        "repro.core.compiler.Compiler.compile",
    ),
    "lang": ("repro.lang.frontend",),
    "ir": ("repro.core.compiler.Compiler.front_and_middle",),
    "regalloc": (
        "repro.core.compiler.Compiler.allocate_registers",
        "repro.regalloc.ucc_ra.allocate_ucc_greedy",
        "repro.regalloc.ilp_ra.allocate_ucc_ilp",
        "repro.regalloc.graph_coloring.allocate_graph_coloring",
        "repro.regalloc.linear_scan.allocate_linear_scan",
        "repro.regalloc.base.verify_allocation",
    ),
    "ilp": ("repro.ilp.solver.solve",),
    "datalayout": (
        "repro.core.compiler.Compiler.lay_out_data",
        "repro.datalayout.layout.collect_layout_objects",
        "repro.datalayout.ucc_da.allocate_ucc_da",
        "repro.datalayout.gcc_da.allocate_gcc_da",
    ),
    "codegen": ("repro.core.compiler.Compiler.back_end",),
    "diff": (
        "repro.diff.differ.diff_images",
        "repro.diff.data_diff.diff_data",
        "repro.diff.data_diff.apply_data",
        "repro.diff.patcher.patched_words",
        "repro.diff.patcher.verify_patch",
        "repro.diff.packets.packetize",
    ),
    "sim": ("repro.sim.executor.run_image",),
    "net.campaign": ("repro.net.campaign.run_campaign",),
    "net.trickle": ("repro.net.trickle.run_trickle",),
    "net.gossip": ("repro.net.gossip.run_gossip",),
    "net.coding": ("repro.net.coding.run_coded_campaign",),
    "net.kernel": ("repro.net.kernel.SimKernel.run",),
    "versioning": (
        "repro.versioning.graph.build_version_graph",
        "repro.versioning.planner.plan_cohorts",
        "repro.versioning.campaign.run_versioned_campaign",
    ),
}

#: Layers reached only through kernel event handlers (see
#: :meth:`LayerTracer._hook_kernel_callbacks`).
HANDLER_LAYERS = ("net.fleet_sim",)
#: Every layer the tracer reports on.
LAYERS = tuple(LAYER_ENTRY_POINTS) + HANDLER_LAYERS

#: Layer of the benchmark's own per-op root span.
OP_LAYER = "op"

#: Spans kept for the Chrome trace; aggregates stay exact beyond it.
MAX_TRACE_SPANS = 100_000


def _resolve(path: str):
    """``(owner, attribute, value)`` for a dotted entry-point path."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:-1]:
            owner = getattr(owner, attribute)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"cannot resolve entry point {path!r}")


def _handler_function(callback):
    """The function behind a scheduled callback (partials and bound
    methods unwrapped)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__func__", callback)


def _handler_layer(function) -> Tuple[str, str]:
    """``(layer, name)`` of an event handler: the layer is the ``repro``
    module that defined it."""
    module = getattr(function, "__module__", "") or ""
    layer = module[len("repro."):] if module.startswith("repro.") else "net.kernel"
    return layer, getattr(function, "__name__", "callback")


class LayerTracer:
    """Records nested spans for the wrapped layer entry points."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.busy_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: inclusive time per entry-point name (``build_version_graph``)
        self.name_s: Dict[str, float] = {}
        #: (id, parent id, layer, name, start, end, op) for the trace
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: kernel event-handler spans: aggregated, not kept for the trace
        self.handler_spans = 0
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 0
        self._op: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, layer, name, 0.0, 0.0]
        self._stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        frame[4] = perf_counter()
        return frame

    def _exit(self, frame: list, keep: bool = True) -> None:
        end = perf_counter()
        span_id, parent, layer, name, start, child_s = frame
        duration = end - start
        self._stack.pop()
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        if depth == 0:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.busy_s[layer] = self.busy_s.get(layer, 0.0) + duration
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.name_s[name] = self.name_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][5] += duration
        if not keep:
            self.handler_spans += 1
        elif len(self.spans) < MAX_TRACE_SPANS:
            self.spans.append((span_id, parent, layer, name, start, end, self._op))
        else:
            self.dropped_spans += 1

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def op(self, index: int, fn: Callable, *args):
        """Run one benchmark op under the root span."""
        self._op = index
        frame = self._enter(OP_LAYER, f"op{index}")
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self._op = None

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every reference a ``repro`` module holds at
        ``original`` to ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                if value is original:
                    self._set(module, attribute, replacement)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._set_item(value, key, replacement)

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _set_item(self, table: dict, key, value) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = value

    def install(self) -> None:
        for layer, paths in LAYER_ENTRY_POINTS.items():
            for path in paths:
                owner, attribute, fn = _resolve(path)
                wrapped = self.wrap(layer, attribute, fn)
                if isinstance(owner, type):
                    self._set(owner, attribute, wrapped)
                else:
                    self._rebind(fn, wrapped)
        self._hook_kernel_callbacks()

    def _hook_kernel_callbacks(self) -> None:
        from repro.net.kernel import SimKernel

        schedule_at = SimKernel.schedule_at
        enter, leave = self._enter, self._exit
        layers: Dict[object, Tuple[str, str]] = {}

        @functools.wraps(schedule_at)
        def traced_schedule_at(kernel, time_s, node, callback):
            function = _handler_function(callback)
            if function not in layers:
                layers[function] = _handler_layer(function)
            layer, name = layers[function]

            def handler():
                frame = enter(layer, name)
                try:
                    callback()
                finally:
                    leave(frame, False)

            return schedule_at(kernel, time_s, node, handler)

        self._set(SimKernel, "schedule_at", traced_schedule_at)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return self._next_id

    def coverage(self) -> float:
        """Share of op wall time spent inside named layers."""
        op_total = self.busy_s.get(OP_LAYER, 0.0)
        if op_total <= 0.0:
            return 0.0
        return 1.0 - self.self_s.get(OP_LAYER, 0.0) / op_total

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, parent, layer, name, start, end, op in self.spans
        ]
        meta = dict(
            metadata,
            dropped_spans=self.dropped_spans,
            handler_spans=self.handler_spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": meta}, handle)
