"""The fleet update service: batched, cached, process-parallel planning.

The paper's sink plans one update at a time; a production fleet plans
*many* — several program versions across several node groups, often
with heavy overlap between jobs.  :class:`FleetUpdateService` executes
a batch of :class:`~repro.config.FleetJob`s with three accelerations:

* **content-addressed caching** — compiles are memoised on ``(source
  digest, CompileConfig digest)``, whole jobs on
  :meth:`~repro.config.FleetJob.digest`, the front end of a new source
  on ``(source digest, optimize, depths)``, simulated cycle counts on
  the image, and register-allocation ILPs on their canonical model
  (:mod:`repro.ilp.canonical`), so work that does not depend on the
  strategy runs once per service and a warm batch replays without
  redoing any of it;
* **process parallelism** — cache misses fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with deterministic
  result ordering (outcomes always return in job order), a per-job
  deadline that runs from the job's own start, bounded retries, and
  graceful degradation to in-process serial execution when the pool
  cannot be created or breaks;
* **telemetry** — ``service.*`` spans and metrics (see
  ``docs/OBSERVABILITY.md``) report batch/job wall time, cache
  hit-rates, retries, and fallbacks.

Jobs are plain frozen dataclasses of sources and configs — cheap to
pickle, deterministic to digest — and outcomes are flat metric
records, so nothing heavyweight (IR, images, solver state) ever
crosses a process boundary.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import FleetJob
from ..obs import metrics, trace
from .cache import ContentCache, compile_key, cycles_key, front_end_key


@dataclass(frozen=True)
class JobOutcome:
    """Flat, picklable record of one executed (or failed) job.

    Everything except ``index``/``job_id``/``cached``/``attempts``/
    ``wall_ms`` is a pure function of the job's content — that is what
    :meth:`key_metrics` exposes and what the determinism tests pin.
    """

    index: int
    job_id: str
    ok: bool
    error: str = ""
    cached: bool = False
    attempts: int = 1
    wall_ms: float = 0.0
    # -- plan metrics (the paper's vocabulary) ---------------------------
    ra: str = ""
    da: str = ""
    cp: str = ""
    diff_inst: int = 0
    diff_words: int = 0
    reused_instructions: int = 0
    script_bytes: int = 0
    code_script_bytes: int = 0
    data_script_bytes: int = 0
    packet_count: int = 0
    bytes_on_air: int = 0
    old_instructions: int = 0
    new_instructions: int = 0
    moves_inserted: int = 0
    #: first bytes of the edit script's rendering digest — lets tests
    #: assert bit-identical scripts without shipping the script itself
    script_digest: str = ""
    # -- dissemination (zeros when the job had no topology) --------------
    nodes_patched: int = 0
    network_energy_j: float = 0.0
    dissemination_rounds: int = 0
    # -- campaign (empty/zero unless the job carried a fault plan) -------
    #: "converged" or "partial"; "" for plain dissemination jobs
    campaign_outcome: str = ""
    nodes_quarantined: int = 0
    #: sha256 of the canonical CampaignReport JSON — pins determinism
    campaign_digest: str = ""
    # -- simulation (None unless measure_cycles) -------------------------
    old_cycles: Optional[int] = None
    new_cycles: Optional[int] = None

    def key_metrics(self) -> dict:
        """The deterministic slice of the outcome (execution-mode and
        cache-state independent)."""
        skip = {"index", "job_id", "cached", "attempts", "wall_ms"}
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in skip
        }


@dataclass
class FleetResult:
    """Outcome of one batch, in job order."""

    outcomes: List[JobOutcome]
    wall_ms: float = 0.0
    workers: int = 1
    #: "serial", "parallel", "cached", "serial-fallback", or
    #: "parallel+serial-fallback"
    mode: str = "serial"
    job_cache_hits: int = 0
    job_cache_misses: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        total = self.job_cache_hits + self.job_cache_misses
        return self.job_cache_hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"fleet batch: {len(self.outcomes)} jobs, mode={self.mode}, "
            f"workers={self.workers}, wall={self.wall_ms:.1f} ms",
            f"job cache  : {self.job_cache_hits} hits / "
            f"{self.job_cache_misses} misses "
            f"(hit rate {100.0 * self.cache_hit_rate:.0f}%)",
            "",
            f"{'job':<14} {'ra/da/cp':<16} {'Diff_inst':>9} {'script B':>8} "
            f"{'packets':>7} {'wall ms':>8}  status",
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else f"FAIL: {outcome.error}"
            if outcome.ok and outcome.campaign_outcome == "partial":
                status = (
                    f"partial ({outcome.nodes_quarantined} quarantined)"
                )
            if outcome.cached:
                status += " (cached)"
            strategy = f"{outcome.ra}/{outcome.da}/{outcome.cp}"
            lines.append(
                f"{outcome.job_id:<14} {strategy:<16} {outcome.diff_inst:>9} "
                f"{outcome.script_bytes:>8} {outcome.packet_count:>7} "
                f"{outcome.wall_ms:>8.1f}  {status}"
            )
        return "\n".join(lines)


def _failed(job: FleetJob, index: int, error: str, attempts: int) -> JobOutcome:
    return JobOutcome(
        index=index,
        job_id=job.job_id or str(index),
        ok=False,
        error=error,
        attempts=attempts,
        ra=job.update.ra,
        da=job.update.da,
        cp=job.update.resolved_cp(),
    )


def execute_job(
    job: FleetJob,
    index: int = 0,
    compile_cache: Optional[ContentCache] = None,
    front_end_cache: Optional[ContentCache] = None,
    cycles_cache: Optional[ContentCache] = None,
) -> JobOutcome:
    """Plan (and optionally disseminate/simulate) one job, serially.

    Never raises: expected failures — bad source, infeasible update,
    incomplete dissemination — come back as ``ok=False`` outcomes with
    the exception message, so a batch always yields one outcome per
    job.  Shared by the in-process serial path and the pool workers.

    Each cache given memoises one strategy-independent stage (see
    :mod:`repro.service.cache`); the outcome is the same with or
    without them.
    """
    # Imported here so a forked worker only pays for what it runs.
    import hashlib

    from ..core.update import UpdatePlanner, _measure_cycles, simulated_cycles
    from ..net.campaign import run_campaign
    from ..net.dissemination import disseminate
    from ..net.errors import DisseminationIncomplete
    from ..net.lossy import disseminate_lossy

    start = time.perf_counter()
    with trace.span("service.job", index=index, ra=job.update.ra):
        try:
            old = _compile_cached(job.old_source, job.compile, compile_cache)
            planner = UpdatePlanner(old, config=job.update)
            if front_end_cache is not None:
                planner._front_end = partial(_front_end_cached, front_end_cache)
            result = planner.plan(job.new_source)
            nodes = 0
            energy_j = 0.0
            rounds = 0
            campaign_outcome = ""
            nodes_quarantined = 0
            campaign_digest = ""
            if job.topology is not None:
                topology = job.topology.build()
                if job.fault_plan is not None:
                    # Fault-tolerant campaign: graceful degradation —
                    # an unconverged fleet is a structured partial
                    # outcome, never an exception.
                    blob = (
                        result.diff.script.to_bytes()
                        + result.data_script.to_bytes()
                    )
                    report = run_campaign(
                        topology,
                        blob,
                        job.fault_plan,
                        loss=job.loss,
                        seed=job.loss_seed,
                        max_rounds=job.max_rounds,
                        payload_per_packet=result.packets.payload_per_packet,
                        overhead_per_packet=result.packets.overhead_per_packet,
                    )
                    nodes = len(report.converged_nodes)
                    energy_j = report.total_energy_j
                    rounds = report.rounds
                    campaign_outcome = report.outcome
                    nodes_quarantined = len(report.quarantined)
                    campaign_digest = report.digest()
                elif job.loss > 0.0:
                    dissemination = disseminate_lossy(
                        topology,
                        result.packets,
                        loss=job.loss,
                        seed=job.loss_seed,
                    )
                    if not dissemination.complete:
                        raise DisseminationIncomplete(
                            missing=dissemination.missing,
                            rounds=dissemination.rounds,
                            packets=dissemination.packets,
                        )
                    nodes = topology.node_count - 1
                    energy_j = dissemination.total_energy_j
                    rounds = dissemination.rounds
                else:
                    dissemination = disseminate(topology, result.packets)
                    nodes = topology.node_count - 1
                    energy_j = dissemination.total_energy_j
                    rounds = dissemination.rounds
            if job.measure_cycles:
                cycles_of = (
                    simulated_cycles
                    if cycles_cache is None
                    else partial(_cycles_cached, cycles_cache)
                )
                _measure_cycles(result, cycles_of)
            script_digest = hashlib.sha256(
                result.diff.script.render().encode("utf-8")
            ).hexdigest()
        except Exception as exc:  # noqa: BLE001 — the contract is one
            # outcome per job, whatever the planner raises.
            detail = traceback.format_exc(limit=2).strip().splitlines()[-1]
            outcome = _failed(job, index, f"{type(exc).__name__}: {exc}", 1)
            return replace(
                outcome,
                error=f"{outcome.error} ({detail})" if detail else outcome.error,
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        return JobOutcome(
            index=index,
            job_id=job.job_id or str(index),
            ok=True,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            ra=result.ra_strategy,
            da=result.da_strategy,
            cp=result.new.placement.algorithm,
            diff_inst=result.diff_inst,
            diff_words=result.diff_words,
            reused_instructions=result.reused_instructions,
            script_bytes=result.script_bytes,
            code_script_bytes=result.code_script_bytes,
            data_script_bytes=result.data_script_bytes,
            packet_count=result.packets.packet_count,
            bytes_on_air=result.packets.bytes_on_air,
            old_instructions=result.diff.old_instructions,
            new_instructions=result.diff.new_instructions,
            moves_inserted=result.moves_inserted(),
            script_digest=script_digest,
            nodes_patched=nodes,
            network_energy_j=energy_j,
            dissemination_rounds=rounds,
            campaign_outcome=campaign_outcome,
            nodes_quarantined=nodes_quarantined,
            campaign_digest=campaign_digest,
            old_cycles=result.old_cycles,
            new_cycles=result.new_cycles,
        )


def _compile_cached(source, config, cache: Optional[ContentCache]):
    from ..core.compiler import Compiler

    if cache is None:
        return Compiler(config.to_options()).compile(source)
    key = compile_key(source, config.digest())
    program = cache.get(key)
    if program is not None:
        metrics.counter("service.cache.compile_hits").inc()
        return program
    metrics.counter("service.cache.compile_misses").inc()
    program = Compiler(config.to_options()).compile(source)
    cache.put(key, program)
    return program


def _front_end_cached(cache: ContentCache, compiler, source: str):
    """``compiler.front_and_middle(source)``, memoised in ``cache``.  A
    front end that raises is not cached.  The cached module keeps no
    syntax tree (:meth:`~repro.lang.sema.CheckedProgram.without_syntax`),
    which halves what it holds."""
    options = compiler.options
    key = front_end_key(source, options.optimize, options.depths)
    module = cache.get(key)
    if module is not None:
        metrics.counter("service.cache.front_end_hits").inc()
        return module
    metrics.counter("service.cache.front_end_misses").inc()
    module = compiler.front_and_middle(source)
    module = replace(module, checked=module.checked.without_syntax())
    cache.put(key, module)
    return module


def _cycles_cached(
    cache: ContentCache, image, fire_every_polls: int, max_cycles: int
) -> int:
    """Cycles of one simulated run of ``image``, memoised in ``cache``.
    A run that raises is not cached."""
    from ..core.update import simulated_cycles

    key = cycles_key(image, fire_every_polls, max_cycles)
    cycles = cache.get(key)
    if cycles is not None:
        metrics.counter("service.cache.cycles_hits").inc()
        return cycles
    metrics.counter("service.cache.cycles_misses").inc()
    cycles = simulated_cycles(image, fire_every_polls, max_cycles)
    cache.put(key, cycles)
    return cycles


#: Per-worker-process caches (module globals: they survive across the
#: jobs one worker executes; with fork start, they seed from the parent).
_WORKER_COMPILE_CACHE = ContentCache(maxsize=256, name="worker-compile")
_WORKER_FRONT_END_CACHE = ContentCache(maxsize=256, name="worker-front-end")
_WORKER_CYCLES_CACHE = ContentCache(maxsize=256, name="worker-cycles")


def _worker_run(payload: Tuple[int, FleetJob]) -> JobOutcome:
    index, job = payload
    return execute_job(
        job,
        index=index,
        compile_cache=_WORKER_COMPILE_CACHE,
        front_end_cache=_WORKER_FRONT_END_CACHE,
        cycles_cache=_WORKER_CYCLES_CACHE,
    )


class FleetUpdateService:
    """Executes batches of update jobs with caching and parallelism.

    One service instance owns the parent-side caches (job, compile,
    front end and cycles; the last three are sized by
    ``compile_cache_size``); reuse it across batches to keep them warm.
    A fresh service starts cold.  ``workers=1`` (or
    ``use_processes=False``) forces the in-process serial path —
    results are identical either way, only wall time changes.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        use_processes: bool = True,
        job_cache_size: int = 1024,
        compile_cache_size: int = 256,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.workers = workers or min(8, os.cpu_count() or 1)
        self.timeout_s = timeout_s
        self.retries = retries
        self.use_processes = use_processes
        self.job_cache = ContentCache(job_cache_size, name="job")
        self.compile_cache = ContentCache(compile_cache_size, name="compile")
        self.front_end_cache = ContentCache(compile_cache_size, name="front-end")
        self.cycles_cache = ContentCache(compile_cache_size, name="cycles")

    # -- public API -----------------------------------------------------

    def run(self, jobs: Sequence[FleetJob]) -> FleetResult:
        """Execute a batch; outcomes come back in job order."""
        jobs = list(jobs)
        start = time.perf_counter()
        job_hits_before = self.job_cache.hits
        job_misses_before = self.job_cache.misses
        compile_hits_before = self.compile_cache.hits
        compile_misses_before = self.compile_cache.misses
        with trace.span("service.batch", jobs=len(jobs), workers=self.workers):
            metrics.counter("service.batches").inc()
            metrics.gauge("service.workers").set(self.workers)
            outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
            pending: List[Tuple[int, str, FleetJob]] = []
            for index, job in enumerate(jobs):
                digest = job.digest()
                hit = self.job_cache.get(digest)
                if hit is not None:
                    metrics.counter("service.cache.job_hits").inc()
                    metrics.counter("service.jobs").inc()
                    outcomes[index] = replace(
                        hit,
                        index=index,
                        job_id=job.job_id or str(index),
                        cached=True,
                    )
                else:
                    metrics.counter("service.cache.job_misses").inc()
                    pending.append((index, digest, job))

            mode = "cached"
            if pending:
                parallel_worthwhile = (
                    self.use_processes and self.workers > 1 and len(pending) > 1
                )
                if parallel_worthwhile:
                    mode = self._run_parallel(pending, outcomes)
                else:
                    self._run_serial(pending, outcomes)
                    mode = "serial"

        wall_ms = (time.perf_counter() - start) * 1000.0
        metrics.histogram("service.batch_wall_ms").observe(wall_ms)
        done = [outcome for outcome in outcomes if outcome is not None]
        assert len(done) == len(jobs), "every job must produce an outcome"
        return FleetResult(
            outcomes=done,
            wall_ms=wall_ms,
            workers=self.workers,
            mode=mode,
            job_cache_hits=self.job_cache.hits - job_hits_before,
            job_cache_misses=self.job_cache.misses - job_misses_before,
            compile_cache_hits=self.compile_cache.hits - compile_hits_before,
            compile_cache_misses=self.compile_cache.misses - compile_misses_before,
        )

    # -- execution paths ------------------------------------------------

    def _finish(
        self,
        index: int,
        digest: str,
        outcome: JobOutcome,
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        outcomes[index] = outcome
        metrics.counter("service.jobs").inc()
        metrics.histogram("service.job_wall_ms").observe(outcome.wall_ms)
        if outcome.ok:
            self.job_cache.put(digest, outcome)
        else:
            metrics.counter("service.job_failures").inc()

    def _execute(self, job: FleetJob, index: int) -> JobOutcome:
        return execute_job(
            job,
            index=index,
            compile_cache=self.compile_cache,
            front_end_cache=self.front_end_cache,
            cycles_cache=self.cycles_cache,
        )

    def _run_serial(
        self,
        pending: List[Tuple[int, str, FleetJob]],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        for index, digest, job in pending:
            self._finish(index, digest, self._execute(job, index), outcomes)

    def _run_parallel(
        self,
        pending: List[Tuple[int, str, FleetJob]],
        outcomes: List[Optional[JobOutcome]],
    ) -> str:
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending))
            )
        except Exception:
            metrics.counter("service.serial_fallbacks").inc()
            self._run_serial(pending, outcomes)
            return "serial-fallback"

        slots = min(self.workers, len(pending))
        attempts = {index: 0 for index, _, _ in pending}
        remaining = list(pending)
        degraded = False
        try:
            while remaining:
                futures = [
                    pool.submit(_worker_run, (index, job))
                    for index, _, job in remaining
                ]
                expired = self._await(futures, slots)
                retry: List[Tuple[int, str, FleetJob]] = []
                for (index, digest, job), future in zip(remaining, futures):
                    attempts[index] += 1
                    if future in expired:
                        future.cancel()
                        metrics.counter("service.job_timeouts").inc()
                        outcome = _failed(
                            job,
                            index,
                            f"timeout after {self.timeout_s:g}s",
                            attempts[index],
                        )
                        self._finish(index, digest, outcome, outcomes)
                        continue
                    try:
                        outcome = future.result()
                        outcome = replace(outcome, attempts=attempts[index])
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # infrastructure failure
                        if attempts[index] <= self.retries:
                            metrics.counter("service.job_retries").inc()
                            retry.append((index, digest, job))
                            continue
                        # Last resort: run it here, in-process.
                        metrics.counter("service.serial_fallbacks").inc()
                        degraded = True
                        outcome = self._execute(job, index)
                        if outcome.ok:
                            outcome = replace(outcome, attempts=attempts[index])
                        else:
                            outcome = replace(
                                outcome,
                                attempts=attempts[index],
                                error=f"{outcome.error} (after pool error: "
                                f"{type(exc).__name__})",
                            )
                    self._finish(index, digest, outcome, outcomes)
                remaining = retry
        except (BrokenProcessPool, OSError):
            # The pool is gone; degrade every job still unaccounted for.
            metrics.counter("service.serial_fallbacks").inc()
            degraded = True
            leftovers = [
                (index, digest, job)
                for index, digest, job in pending
                if outcomes[index] is None
            ]
            self._run_serial(leftovers, outcomes)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return "parallel+serial-fallback" if degraded else "parallel"

    def _await(self, futures: List[Future], slots: int) -> Set[Future]:
        """Wait for all of ``futures`` (in submission order) together;
        return the ones that ran past their deadline.

        A job's deadline is ``timeout_s`` after it starts.  The pool
        runs jobs in submission order, one per free worker, so a job is
        taken to start when it becomes one of the first ``slots`` jobs
        that have neither finished nor expired.  An expired job stops
        counting even though its worker may still be busy, so a job
        queued behind a hung worker gets a ``timeout_s`` of its own (and
        expires too if the worker stays hung): a batch never waits
        unboundedly, and no job waits more than ``timeout_s`` once
        started.  A hung worker is not recycled.
        """
        if self.timeout_s is None:
            wait(futures)
            return set()
        deadlines: Dict[Future, float] = {}
        expired: Set[Future] = set()
        while True:
            now = time.monotonic()
            running = [
                future
                for future in futures
                if not future.done() and future not in expired
            ][:slots]
            if not running:
                return expired
            for future in running:
                deadlines.setdefault(future, now + self.timeout_s)
            due = [future for future in running if deadlines[future] <= now]
            if due:
                expired.update(due)
                continue
            wait(
                running,
                timeout=min(deadlines[future] for future in running) - now,
                return_when=FIRST_COMPLETED,
            )


def run_batch(
    jobs: Sequence[FleetJob],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    use_processes: bool = True,
) -> FleetResult:
    """One-shot convenience: a fresh service, one batch."""
    service = FleetUpdateService(
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        use_processes=use_processes,
    )
    return service.run(jobs)


__all__ = [
    "FleetResult",
    "FleetUpdateService",
    "JobOutcome",
    "execute_job",
    "run_batch",
]
