"""The fleet update service (`repro.service`).

Pins the three service guarantees:

* **determinism** — serial, parallel, and cached execution produce
  identical per-job metrics (down to the edit-script digest), and
  outcomes always come back in job order;
* **the acceptance batch** — the ISSUE's 16-job Figure-9 batch on a
  5x5 grid runs >= 2x faster through a warm service than through a
  plain serial loop, with identical per-job metrics;
* **resilience** — per-job failures, pool breakage, and timeouts
  degrade to ``ok=False`` outcomes or serial execution, never to a
  raised batch.
"""

import random
import time
from dataclasses import replace

import pytest

from repro.config import CompileConfig, FleetJob, TopologySpec, UpdateConfig
from repro.core.compiler import Compiler
from repro.obs import metrics
from repro.service import ContentCache, FleetUpdateService, execute_job, run_batch
from repro.service.cache import front_end_key
from repro.service import fleet as fleet_module
from repro.workloads import CASES, RA_CASE_IDS

GRID = TopologySpec.grid(5, 5)


def _case_job(case_id, ra="ucc", da="ucc", topology=GRID, job_id=""):
    case = CASES[case_id]
    return FleetJob(
        old_source=case.old_source,
        new_source=case.new_source,
        compile=CompileConfig(),
        update=UpdateConfig(ra=ra, da=da),
        topology=topology,
        job_id=job_id or f"case{case_id}/{ra}",
    )


def _small_batch():
    return [
        _case_job("1", topology=None),
        _case_job("6", topology=None),
        _case_job("6", ra="gcc", da="gcc", topology=None),
    ]


def _metrics(outcomes):
    return [outcome.key_metrics() for outcome in outcomes]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_serial_and_parallel_agree(self):
        jobs = _small_batch()
        serial = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        parallel = FleetUpdateService(workers=2).run(jobs)
        assert serial.ok and parallel.ok
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert _metrics(serial.outcomes) == _metrics(parallel.outcomes)

    def test_outcomes_come_back_in_job_order(self):
        jobs = _small_batch()
        result = FleetUpdateService(workers=2).run(jobs)
        assert [outcome.index for outcome in result.outcomes] == [0, 1, 2]
        assert [outcome.job_id for outcome in result.outcomes] == [
            job.job_id for job in jobs
        ]

    def test_warm_replay_is_bit_identical(self):
        jobs = _small_batch()
        service = FleetUpdateService(workers=1, use_processes=False)
        cold = service.run(jobs)
        warm = service.run(jobs)
        assert warm.mode == "cached"
        assert warm.cache_hit_rate == 1.0
        assert all(outcome.cached for outcome in warm.outcomes)
        assert not any(outcome.cached for outcome in cold.outcomes)
        # Bit-identical edit scripts, not just equal sizes.
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert after.script_digest == before.script_digest
        assert _metrics(cold.outcomes) == _metrics(warm.outcomes)

    def test_compile_cache_dedupes_shared_old_sources(self):
        # Jobs 2 and 3 of the small batch share old_source under the
        # same CompileConfig: the second compile must be a hit.
        service = FleetUpdateService(workers=1, use_processes=False)
        result = service.run(_small_batch())
        assert result.compile_cache_hits >= 1

    def test_run_batch_convenience(self):
        result = run_batch(_small_batch(), workers=1, use_processes=False)
        assert result.ok
        assert len(result.outcomes) == 3


# ---------------------------------------------------------------------------
# The ISSUE acceptance batch: 16 Figure-9 jobs on a 5x5 grid
# ---------------------------------------------------------------------------


def _acceptance_jobs():
    """16 jobs: the 12 Figure 9/10 RA cases under ucc/ucc, plus four
    gcc/gcc baselines — every job disseminated over a 5x5 grid."""
    jobs = [_case_job(case_id) for case_id in RA_CASE_IDS]
    jobs += [_case_job(case_id, ra="gcc", da="gcc") for case_id in RA_CASE_IDS[:4]]
    assert len(jobs) == 16
    return jobs


class TestAcceptanceBatch:
    def test_warm_service_beats_serial_loop_2x(self):
        jobs = _acceptance_jobs()

        start = time.perf_counter()
        loop_outcomes = [
            execute_job(job, index=index) for index, job in enumerate(jobs)
        ]
        serial_ms = (time.perf_counter() - start) * 1000.0
        assert all(outcome.ok for outcome in loop_outcomes)

        service = FleetUpdateService(workers=4)
        cold = service.run(jobs)  # warms the job cache
        warm = service.run(jobs)

        assert cold.ok and warm.ok
        assert warm.mode == "cached"
        assert warm.cache_hit_rate == 1.0
        assert warm.wall_ms * 2 <= serial_ms, (
            f"warm batch took {warm.wall_ms:.1f} ms vs {serial_ms:.1f} ms serial"
        )
        # Identical per-job metrics across all three execution modes.
        assert _metrics(loop_outcomes) == _metrics(cold.outcomes)
        assert _metrics(loop_outcomes) == _metrics(warm.outcomes)
        # Every job disseminated to the 24 sensor nodes of the grid.
        assert all(outcome.nodes_patched == 24 for outcome in warm.outcomes)
        assert all(outcome.network_energy_j > 0 for outcome in warm.outcomes)

    def test_fastpath_batch_digest_identical_to_reference(self):
        """The vectorized fast path (repro.fastpath) re-runs the 16-job
        acceptance batch with bit-identical campaign and job digests;
        the speedup is recorded in the assertion message."""
        from repro.fastpath import reference_mode
        from repro.ilp.canonical import SOLVE_CACHE

        jobs = _acceptance_jobs()

        SOLVE_CACHE.clear()
        start = time.perf_counter()
        fast = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        fast_ms = (time.perf_counter() - start) * 1000.0

        # reference_mode is process-local, so the reference run must
        # stay in-process too (a worker pool would ignore the toggle).
        SOLVE_CACHE.clear()
        with reference_mode(True):
            start = time.perf_counter()
            ref = FleetUpdateService(workers=1, use_processes=False).run(jobs)
            ref_ms = (time.perf_counter() - start) * 1000.0

        assert fast.ok and ref.ok
        assert _metrics(fast.outcomes) == _metrics(ref.outcomes)
        digests = [
            (outcome.script_digest, outcome.campaign_digest)
            for outcome in fast.outcomes
        ]
        assert digests == [
            (outcome.script_digest, outcome.campaign_digest)
            for outcome in ref.outcomes
        ]
        assert all(script for script, _campaign in digests)
        # Record the measured batch speedup; the fast path must at the
        # very least not slow the batch down materially (the heavy ILP
        # jobs in the batch are where the >= 5x kernel gain lands —
        # benchmarks/baselines/BENCH_ilp.json pins that).
        assert fast_ms < ref_ms * 1.5, (
            f"fast batch {fast_ms:.0f} ms vs reference {ref_ms:.0f} ms "
            f"(speedup {ref_ms / fast_ms:.2f}x)"
        )


# ---------------------------------------------------------------------------
# Resilience
# ---------------------------------------------------------------------------


class TestFailurePaths:
    def test_bad_source_fails_one_job_not_the_batch(self):
        jobs = [
            _case_job("1", topology=None),
            FleetJob(old_source="this is not ucc-C", new_source="nor is this"),
            _case_job("6", topology=None),
        ]
        result = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        assert not result.ok
        assert [outcome.ok for outcome in result.outcomes] == [True, False, True]
        failed = result.outcomes[1]
        assert failed.error
        assert failed.script_digest == ""

    def test_failed_jobs_are_not_cached(self):
        bad = FleetJob(old_source="syntax error", new_source="syntax error")
        service = FleetUpdateService(workers=1, use_processes=False)
        service.run([bad])
        second = service.run([bad])
        # The failure re-executes (a transient infra failure must not
        # poison the cache); both runs miss.
        assert second.job_cache_hits == 0
        assert not second.outcomes[0].cached

    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", broken_pool)
        jobs = _small_batch()
        result = FleetUpdateService(workers=4).run(jobs)
        assert result.ok
        assert result.mode == "serial-fallback"
        reference = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        assert _metrics(result.outcomes) == _metrics(reference.outcomes)

    def test_timeout_produces_failed_outcome(self):
        jobs = [_case_job("1", topology=None), _case_job("6", topology=None)]
        result = FleetUpdateService(workers=2, timeout_s=1e-6).run(jobs)
        assert not result.ok
        timed_out = [outcome for outcome in result.outcomes if not outcome.ok]
        assert timed_out
        assert all("timeout" in outcome.error for outcome in timed_out)

    def test_hung_jobs_time_out_together(self, monkeypatch):
        # Four jobs whose workers hang for 3x the timeout, on four
        # workers: every job's deadline runs from its own start, so the
        # batch returns after about one timeout, not one per job.
        monkeypatch.setattr(fleet_module, "_worker_run", _hung_worker)
        jobs = [_case_job(case_id, topology=None) for case_id in "1234"]
        service = FleetUpdateService(workers=4, timeout_s=HUNG_TIMEOUT_S)
        start = time.perf_counter()
        result = service.run(jobs)
        elapsed = time.perf_counter() - start
        assert result.mode == "parallel"
        assert [outcome.ok for outcome in result.outcomes] == [False] * 4
        assert all("timeout after 1s" in o.error for o in result.outcomes)
        # 1.5x the timeout, plus up to a second to start the pool.
        assert elapsed < 1.5 * HUNG_TIMEOUT_S + 1.0, elapsed

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetUpdateService(workers=0)
        with pytest.raises(ValueError, match="retries"):
            FleetUpdateService(retries=-1)


HUNG_TIMEOUT_S = 1.0


def _hung_worker(payload):
    """A pool worker that hangs for a bounded 3x the timeout."""
    time.sleep(3 * HUNG_TIMEOUT_S)
    index, job = payload
    return fleet_module._failed(job, index, "woke after its deadline", 1)


# ---------------------------------------------------------------------------
# Strategy-independent memos: front end and simulated cycles
# ---------------------------------------------------------------------------

MEMO_STRATEGIES = ("ucc", "ucc-ilp", "gcc")
MEMO_CASE_IDS = tuple(CASES)


def _memo_jobs():
    """The 15 Figure 9 cases x {ucc, ucc-ilp, gcc} x {with, without
    cycles}, in a seeded shuffled order."""
    jobs = [
        FleetJob(
            old_source=CASES[case_id].old_source,
            new_source=CASES[case_id].new_source,
            update=UpdateConfig(ra=ra),
            measure_cycles=cycles,
            job_id=f"case{case_id}/{ra}/{int(cycles)}",
        )
        for case_id in MEMO_CASE_IDS
        for ra in MEMO_STRATEGIES
        for cycles in (False, True)
    ]
    random.Random(1414).shuffle(jobs)
    return jobs


def _fresh_front_end(source):
    return Compiler(CompileConfig().to_options()).front_and_middle(source)


def _render(module):
    """The IR text plus the per-function depths the data layout reads."""
    depths = {name: fn.depth for name, fn in module.functions.items()}
    return f"{module.render()}\n{depths!r}"


class TestStrategyIndependentMemos:
    def test_memoised_outcomes_equal_uncached_execution(self):
        jobs = _memo_jobs()
        assert len(MEMO_CASE_IDS) == 15 and len(jobs) == 90
        service = FleetUpdateService(workers=1, use_processes=False)
        rendered = {}
        for job in jobs:
            outcome = service.run([job]).outcomes[0]
            assert outcome.ok, outcome.error
            reference = execute_job(job)
            assert outcome.key_metrics() == reference.key_metrics(), job.job_id
            if job.measure_cycles:
                assert outcome.old_cycles is not None
                assert outcome.new_cycles is not None
            # Snapshot each module as it enters the cache.
            for key, module in service.front_end_cache._entries.items():
                rendered.setdefault(key, _render(module))
        # One front end per distinct new source, one simulation per
        # distinct image; the rest are hits.
        cache = service.front_end_cache
        assert len(cache) == len({job.new_source for job in jobs})
        assert cache.hits == len(jobs) - len(cache)
        assert service.cycles_cache.hits > 0
        assert len(service.cycles_cache) == service.cycles_cache.misses
        # No later stage mutated a shared module: each renders as it did
        # when cached, and as a fresh front end of its source does.
        sources = {
            front_end_key(job.new_source, True, {}): job.new_source for job in jobs
        }
        assert set(cache._entries) == set(sources) == set(rendered)
        for key, module in cache._entries.items():
            assert _render(module) == rendered[key]
            assert _render(module) == _render(_fresh_front_end(sources[key]))
            # The cache holds the IR, not the syntax tree it came from.
            assert not module.checked.program.functions
            assert not module.checked.functions

    def test_parse_error_fails_the_same_way_every_time(self):
        case = CASES["1"]
        bad = FleetJob(
            old_source=case.old_source,
            new_source=case.new_source.replace("void main", "void main(("),
            update=UpdateConfig(ra="ucc"),
        )
        good = FleetJob(old_source=case.old_source, new_source=case.new_source)
        reference = execute_job(bad)
        assert not reference.ok and "ParseError" in reference.error
        service = FleetUpdateService(workers=1, use_processes=False)
        errors = []
        for job in [bad, good, bad, replace(bad, update=UpdateConfig(ra="gcc"))]:
            outcome = service.run([job]).outcomes[0]
            if job.new_source == bad.new_source:
                errors.append(outcome.error)
        assert errors == [reference.error] * 2 + [
            execute_job(replace(bad, update=UpdateConfig(ra="gcc"))).error
        ]
        # The failing front end is never cached: only the good one is.
        assert len(service.front_end_cache) == 1
        assert service.front_end_cache.misses == 4

    def test_memos_are_per_service_and_counted_apart(self):
        case = CASES["6"]
        jobs = [
            FleetJob(
                old_source=case.old_source,
                new_source=case.new_source,
                update=UpdateConfig(ra=ra),
                measure_cycles=True,
            )
            for ra in ("ucc", "gcc")
        ]
        before = metrics.REGISTRY.values("service.cache.")
        first = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        delta = metrics.REGISTRY.delta(before, "service.cache.")
        assert delta["service.cache.front_end_misses"] == 1
        assert delta["service.cache.front_end_hits"] == 1
        # The shared old image simulates once.
        assert delta["service.cache.cycles_hits"] >= 1
        assert delta["service.cache.compile_misses"] == 1
        assert delta["service.cache.compile_hits"] == 1
        # A fresh service starts cold.
        second = FleetUpdateService(workers=1, use_processes=False)
        assert len(second.front_end_cache) == 0 and len(second.cycles_cache) == 0
        assert _metrics(second.run(jobs).outcomes) == _metrics(first.outcomes)
        assert second.front_end_cache.misses == 1


# ---------------------------------------------------------------------------
# The cache primitive
# ---------------------------------------------------------------------------


class TestContentCache:
    def test_lru_eviction(self):
        cache = ContentCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_rate_accounting(self):
        cache = ContentCache(maxsize=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5
