"""The benchmark workloads.

Each workload is a closed loop with one client: the next op starts
only after the previous one returned.  A workload object has

* ``setup(seed)`` — generate every input from the seed (pure function
  of the seed) and return them with their digest;
* ``warm_up()`` — one small op of each kind, so lazy imports and
  first-call costs land in set-up;
* ``start(inputs)`` — fresh program state for one measured pass (a new
  service or session; process-wide solver memo cleared);
* ``op(state, inputs, index)`` — one request, returning an
  :class:`OpResult`;
* ``fingerprint(result)`` — the deterministic part of an op's output,
  which every pass must reproduce exactly;
* ``check(inputs, results)`` — the output checks, run after the timed
  region; returns the indices of ops whose outputs are wrong.

The inputs of a workload are one pass of ``PASS_OPS`` ops, a whole
number of repeats of a ``PERIOD`` with a fixed mix (request kinds,
protocols, programs).  A run repeats the pass, each time from fresh
state, so every pass does the same work; the exact quality counts
(script bytes, Diff_inst, energy, ...) are summed over one pass, so
they depend on the seed alone.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from inputs import (
    Deck,
    digest_of,
    fuzz_pair,
    release_history,
    rng_for,
    source_digest,
)

#: Per-link loss of the fleet.
FLEET_LOSS = 0.15
FLEET_NODES = 1000
#: Unit-disc radio range of the random-geometric fleet (mean degree ~29).
RADIO_RANGE = 0.1
#: Campaign budget in rounds (simulated seconds for the kernel protocols).
#: With 60 rounds a LoRaWAN flood converged after 46-52 rounds at some
#: seeds and stalled at others, at twice the cost.  With 40, 15 of the
#: 20 LoRaWAN pushes of seeds 1-10 end ``stalled-budget``, 2 ``partial``
#: and 3 converge.
MAX_ROUNDS = 40
#: Fault plans strike within the first rounds, while the fleet is still
#: disseminating (a fault-free flood converges in 12-16 rounds).  Over
#: the whole budget, late partition windows stretch a flood to 2.6 s of
#: wall time and doubled the spread of the workload's throughput.
FAULT_HORIZON = 30
#: Scale of ``generate_fault_plan``'s crash count and corruption and
#: duplication rates (1.0 is its default).
FAULT_INTENSITY = 0.5
#: The one partition window of a partitioned push: its island size and
#: rounds are fixed, the seed picks the island.  The window that
#: ``generate_fault_plan`` draws cuts off 1 to 333 nodes for 2 to 9
#: rounds, which made one partitioned flood cost up to three times
#: another.
ISLAND_NODES = 100
PARTITION_START = 3
PARTITION_ROUNDS = 5
#: Poll-driven timer period shared by every simulated run, so machine
#: and IR executions see the same logical event schedule.
FIRE_EVERY_POLLS = 3
MAX_CYCLES = 20_000_000


@dataclass
class OpResult:
    """One op's outcome: pass/fail, its exact quality counts, and the
    evidence the post-run checks inspect."""

    ok: bool
    counts: Dict[str, float] = field(default_factory=dict)
    evidence: object = None
    error: str = ""


@dataclass
class Inputs:
    """A workload's generated op inputs and their digest."""

    items: list
    digest: str
    extra: dict = field(default_factory=dict)


def _board():
    from repro.sim.devices import DeviceBoard, Timer

    return DeviceBoard(timer=Timer(fire_every_polls=FIRE_EVERY_POLLS))


def _fresh_solver_memo() -> None:
    from repro.ilp.canonical import SOLVE_CACHE

    SOLVE_CACHE.clear()


# ---------------------------------------------------------------------------
# sink_plan_stream
# ---------------------------------------------------------------------------


class SinkPlanStream:
    """Update requests submitted one at a time to one long-lived
    ``FleetUpdateService(workers=1)``."""

    name = "sink_plan_stream"
    #: Generated pairs per seed; a request draws one from its class, so
    #: each pair is requested once per pass.
    FUZZ_POOL = {"small": 16, "aes": 16}
    #: One block of 21 requests: 4 exact repeats of earlier requests
    #: plus 17 fresh ones of these pair classes, in shuffled order.  The
    #: 15 paper slots draw each of the 15 Figure 9 cases once.
    BLOCK_REPEATS = 4
    BLOCK_PAIRS = ["paper"] * 15 + ["small", "aes"]
    PERIOD = BLOCK_REPEATS + len(BLOCK_PAIRS)
    #: Strategy mix and cycle-measurement share: 16 (strategy,
    #: measure_cycles, expected_runs) combinations, 11 ucc, 2 ucc-ilp and
    #: 3 gcc, 4 of them measuring cycles, with expected run counts
    #: log-spaced from 10 to 10^6 across each strategy.  Each paper case,
    #: and each fuzz class as a whole, deals them out in turn, so each
    #: meets every combination in the same proportions.  The run count
    #: steers the update-conscious trade-off and so the planning time;
    #: drawn per request, it moved the latency tail between seeds.
    COMBOS = list(
        zip(
            ["ucc", "ucc", "gcc", "ucc", "ucc-ilp", "ucc", "ucc", "gcc"]
            + ["ucc", "ucc", "ucc-ilp", "ucc", "gcc", "ucc", "ucc", "ucc"],
            [True, False, True, False, True, False, False, False]
            + [True, False, False, False, False, False, False, False],
            [float(round(10 ** (1 + 5 * k / 15))) for k in range(16)],
        )
    )
    #: Requests per pass: 16 blocks, so each paper case and each fuzz
    #: class meets each combination equally often, and only the fuzz
    #: programs, the repeats and the order change with the seed.
    PASS_OPS = len(COMBOS) * PERIOD

    def setup(self, seed: int) -> Inputs:
        from repro.config import CompileConfig, FleetJob, UpdateConfig
        from repro.workloads import CASES

        pools: Dict[str, List[tuple]] = {
            "paper": [
                (f"case{cid}", case.old_source, case.new_source)
                for cid, case in CASES.items()
            ]
        }
        for size, count in self.FUZZ_POOL.items():
            pools[size] = [
                (f"{size}{i}",) + fuzz_pair(seed, i, size) for i in range(count)
            ]
        rng = rng_for("sink-stream", seed)
        pair_decks = {name: Deck(pairs, rng) for name, pairs in pools.items()}
        combo_decks: Dict[str, Deck] = {}
        jobs: List[FleetJob] = []
        while len(jobs) < self.PASS_OPS:
            block = ["repeat"] * self.BLOCK_REPEATS + self.BLOCK_PAIRS
            rng.shuffle(block)
            if not jobs and block[0] == "repeat":
                first = next(i for i, slot in enumerate(block) if slot != "repeat")
                block[0], block[first] = block[first], "repeat"
            for slot in block:
                if slot == "repeat":
                    jobs.append(jobs[rng.randrange(len(jobs))])
                    continue
                label, old, new = pair_decks[slot].draw()
                deck = label if slot == "paper" else slot
                if deck not in combo_decks:
                    combo_decks[deck] = Deck(self.COMBOS, rng)
                ra, measure_cycles, expected_runs = combo_decks[deck].draw()
                update = UpdateConfig(
                    ra=ra,
                    da="gcc" if ra == "gcc" else "ucc",
                    expected_runs=expected_runs,
                )
                jobs.append(
                    FleetJob(
                        old_source=old,
                        new_source=new,
                        compile=CompileConfig(),
                        update=update,
                        measure_cycles=measure_cycles,
                        job_id=label,
                    )
                )
        jobs = jobs[: self.PASS_OPS]
        return Inputs(items=jobs, digest=digest_of([job.digest() for job in jobs]))

    def warm_up(self) -> None:
        """Load the compiler, the ILP backend and the simulator once."""
        from repro.config import FleetJob, UpdateConfig
        from repro.service import FleetUpdateService
        from repro.workloads import CASES

        case = CASES["1"]
        FleetUpdateService(workers=1).run(
            [
                FleetJob(
                    case.old_source,
                    case.new_source,
                    update=UpdateConfig(ra="ucc-ilp"),
                    measure_cycles=True,
                )
            ]
        )

    def start(self, inputs: Inputs):
        from repro.service import FleetUpdateService

        _fresh_solver_memo()
        return FleetUpdateService(workers=1)

    def op(self, service, inputs: Inputs, index: int) -> OpResult:
        job = inputs.items[index]
        outcome = service.run([job]).outcomes[0]
        counts = {}
        if outcome.ok:
            counts = {
                "script_bytes": outcome.script_bytes,
                "diff_inst": outcome.diff_inst,
            }
            if job.measure_cycles:
                counts["diff_cycle"] = outcome.new_cycles - outcome.old_cycles
        return OpResult(
            ok=outcome.ok, counts=counts, evidence=(job, outcome), error=outcome.error
        )

    def fingerprint(self, result: OpResult):
        return result.evidence[1].key_metrics()

    def check(self, inputs: Inputs, results: Sequence[OpResult]) -> List[int]:
        """Check every distinct request once (see :class:`_SinkChecker`);
        exact repeats must return the same outcome."""
        groups: Dict[str, List[int]] = {}
        for index, result in enumerate(results):
            if result.evidence is not None:
                groups.setdefault(result.evidence[0].digest(), []).append(index)
        checker = _SinkChecker()
        bad: List[int] = []
        for indices in groups.values():
            job, outcome = results[indices[0]].evidence
            reference = outcome.key_metrics()
            repeats_agree = all(
                results[i].evidence[1].key_metrics() == reference
                for i in indices[1:]
            )
            if not outcome.ok:
                continue  # already counted as failed by the op
            try:
                correct = repeats_agree and checker.request_correct(job, outcome)
            except Exception:  # noqa: BLE001 - a raising check is a failed check
                traceback.print_exc()
                correct = False
            if not correct:
                bad.extend(indices)
        return bad


class _SinkChecker:
    """Independent re-derivation of one request's outputs, with the
    old compiles, IR runs and simulations shared between requests."""

    def __init__(self) -> None:
        self._compiled: Dict[tuple, object] = {}
        self._ir_runs: Dict[str, object] = {}
        self._sim_runs: Dict[tuple, object] = {}

    def _old(self, job):
        from repro.api import compile_source

        key = (source_digest(job.old_source), job.compile.digest())
        if key not in self._compiled:
            self._compiled[key] = compile_source(job.old_source, job.compile)
        return self._compiled[key]

    def _ir_run(self, job):
        from repro.core.compiler import Compiler
        from repro.ir.interp import run_ir

        key = source_digest(job.new_source)
        if key not in self._ir_runs:
            module = Compiler(job.compile.to_options()).front_and_middle(
                job.new_source
            )
            self._ir_runs[key] = run_ir(module, devices=_board(), max_steps=MAX_CYCLES)
        return self._ir_runs[key]

    def _simulate(self, image):
        from repro.sim.executor import run_image

        key = (tuple(image.words()), bytes(image.data))
        if key not in self._sim_runs:
            self._sim_runs[key] = run_image(
                image, devices=_board(), max_cycles=MAX_CYCLES
            )
        return self._sim_runs[key]

    def request_correct(self, job, outcome) -> bool:
        """A direct ``plan_update`` of the pair yields the service's
        script, the script round-trips through the sensor-side patcher,
        the new image's device trace equals the IR interpreter's on the
        new source, and measured cycles match a fresh simulation."""
        from repro.api import plan_update
        from repro.diff.data_diff import apply_data
        from repro.diff.patcher import patched_words

        old = self._old(job)
        plan = plan_update(old, job.new_source, job.update)
        script_digest = hashlib.sha256(
            plan.diff.script.render().encode("utf-8")
        ).hexdigest()
        ir_run = self._ir_run(job)
        new_run = self._simulate(plan.new.image)
        correct = (
            script_digest == outcome.script_digest
            and plan.script_bytes == outcome.script_bytes
            and plan.diff_inst == outcome.diff_inst
            and patched_words(old.image, plan.diff.script) == plan.new.image.words()
            and apply_data(old.image.data, plan.data_script) == plan.new.image.data
            and ir_run.halted
            and new_run.halted
            and new_run.devices.led.writes == ir_run.devices.led.writes
            and new_run.devices.radio.sent == ir_run.devices.radio.sent
        )
        if correct and job.measure_cycles:
            correct = (
                outcome.new_cycles == new_run.cycles
                and outcome.old_cycles == self._simulate(old.image).cycles
            )
        return correct


# ---------------------------------------------------------------------------
# fleet_campaign
# ---------------------------------------------------------------------------

#: One period of fleet ops, repeating.  A push is (protocol, device
#: profile, partition window in its fault plan).  Flood and Trickle get
#: one push with and one without a partition.  Gossip gets none: a
#: partitioned gossip push costs 2-6x an unpartitioned one and varies
#: 3x with the window drawn, which swamped every latency percentile of
#: the workload.  A rollout ships a whole release history to a
#: version-heterogeneous fleet; the flag forces full images on its
#: NACK wave.
FLEET_SCHEDULE = (
    ("push", "flood", None, True),
    ("push", "trickle", None, False),
    ("push", "gossip", None, False),
    ("rollout", False),
    ("push", "flood", "lorawan-dr3", False),
    ("push", "trickle", "batteryless", True),
    ("push", "gossip", None, False),
    ("rollout", True),
)
#: Program of the pushes and of the rollouts' release histories.
PUSH_PROGRAM = "CntToLedsAndRfm"
ROLLOUT_PROGRAM = "CntToRfm"
ROLLOUT_VERSIONS = 5


@dataclass(frozen=True)
class FleetPush:
    source: str
    protocol: str
    profile: Optional[str]
    plan: object  # repro.net.faults.FaultPlan

    def content(self) -> list:
        """What the workload's input digest covers."""
        return [source_digest(self.source), self.protocol, self.profile, self.plan.digest()]


@dataclass(frozen=True)
class Rollout:
    releases: Dict[int, str]
    fleet: Dict[int, int]
    full: bool

    def content(self) -> list:
        """What the workload's input digest covers."""
        return [
            {v: source_digest(s) for v, s in self.releases.items()},
            digest_of(sorted(self.fleet.items())),
            self.full,
        ]


class FleetCampaign:
    """Ops on one 1000-node random-geometric fleet at 15% loss.

    A push sends one seeded release edit through ``UpdateSession
    .push_campaign`` under a seeded fault plan.  A rollout compiles a
    seeded release history into a version graph, plans cohorts for a
    version-heterogeneous fleet, and runs one wave per stale cohort,
    alternating LT-coded flood and NACK flood.
    """

    name = "fleet_campaign"
    PERIOD = len(FLEET_SCHEDULE)
    PASS_OPS = 2 * PERIOD

    def setup(self, seed: int) -> Inputs:
        from repro.config import TopologySpec
        from repro.workloads import PROGRAMS

        spec = TopologySpec.random(
            FLEET_NODES,
            radio_range=RADIO_RANGE,
            seed=rng_for("fleet-topo", seed).randrange(1 << 30),
        )
        topology = spec.build()
        base = PROGRAMS[PUSH_PROGRAM]
        ops: list = []
        previous = base
        for index in range(self.PASS_OPS):
            kind, *params = FLEET_SCHEDULE[index % len(FLEET_SCHEDULE)]
            if kind == "rollout":
                ops.append(_rollout(rng_for("fleet-rollout", seed, index), *params))
                continue
            protocol, profile, partitioned = params
            rng = rng_for("fleet-release", seed, index)
            source = previous
            while source == previous:  # a release must change something
                source = release_history(base, rng, rng.randint(1, 2))[-1]
            previous = source
            plan = _fault_plan(rng_for("fleet-faults", seed, index), profile, partitioned)
            ops.append(FleetPush(source, protocol, profile, plan))
        digest = digest_of(
            {
                "topology": spec.digest(),
                "base": source_digest(base),
                "ops": [op.content() for op in ops],
            }
        )
        return Inputs(items=ops, digest=digest, extra={"topology": topology, "base": base})

    def warm_up(self) -> None:
        from repro.api import (
            CodedTransferParams,
            build_version_graph,
            compile_source,
            make_session,
            plan_cohorts,
            run_versioned_campaign,
        )
        from repro.net.topology import grid
        from repro.workloads import CASES

        case = CASES["8"]
        session = make_session(
            compile_source(case.old_source), topology=grid(4, 4), loss=0.1
        )
        sources = (case.new_source, case.old_source, case.new_source)
        for protocol, source in zip(("flood", "trickle", "gossip"), sources):
            session.push_campaign(
                {session.version + 1: source},
                protocol=protocol,
                max_rounds=MAX_ROUNDS,
            )
        graph = build_version_graph({1: case.old_source, 2: case.new_source})
        plans = plan_cohorts(graph, {node: 1 for node in range(16)})
        run_versioned_campaign(
            graph, plans, grid(4, 4), loss=0.1, coding=CodedTransferParams()
        )

    def start(self, inputs: Inputs):
        from repro.api import compile_source, make_session

        _fresh_solver_memo()
        return make_session(
            compile_source(inputs.extra["base"]),
            topology=inputs.extra["topology"],
            loss=FLEET_LOSS,
            loss_seed=1,
        )

    def op(self, session, inputs: Inputs, index: int) -> OpResult:
        item = inputs.items[index]
        if isinstance(item, Rollout):
            return _run_rollout(item, inputs.extra["topology"], index)
        return _run_push(item, session)

    def fingerprint(self, result: OpResult):
        if isinstance(result.evidence, list):
            return [report.digest() for report in result.evidence]
        return result.evidence[2].report.digest()

    def check(self, inputs: Inputs, results: Sequence[OpResult]) -> List[int]:
        bad = []
        for index, result in enumerate(results):
            if result.evidence is None:
                continue
            try:
                correct = _op_correct(result.evidence)
            except Exception:  # noqa: BLE001 - a raising check is a failed check
                traceback.print_exc()
                correct = False
            if not correct:
                bad.append(index)
        return bad


def _fault_plan(rng, profile_name: Optional[str], partitioned: bool):
    """A seeded fault plan whose partition window, if any, has the
    fixed size above; an energy-limited profile adds power traces."""
    from repro.net.faults import (
        PartitionWindow,
        generate_fault_plan,
        generate_power_traces,
    )
    from repro.net.profiles import get_profile

    plan = generate_fault_plan(
        rng, FLEET_NODES, max_rounds=FAULT_HORIZON, intensity=FAULT_INTENSITY
    )
    partitions = ()
    if partitioned:
        island = tuple(sorted(rng.sample(range(1, FLEET_NODES), ISLAND_NODES)))
        end = PARTITION_START + PARTITION_ROUNDS
        partitions = (PartitionWindow(PARTITION_START, end, island),)
    plan = replace(plan, partitions=partitions)
    profile = get_profile(profile_name) if profile_name is not None else None
    if profile is not None and profile.is_energy_limited:
        # Cuts scaled to one flash page, so they land inside the apply
        # of these one-page scripts.
        plan = replace(
            plan,
            power_traces=generate_power_traces(
                rng,
                FLEET_NODES,
                storage_j=profile.storage_j,
                scale_j=profile.flash_write_j_per_page,
            ),
        )
    return plan


def _rollout(rng, full: bool) -> Rollout:
    """A seeded release history and a fleet with two stale cohorts plus
    nodes already current, in seeded shares."""
    from repro.workloads import PROGRAMS

    base = PROGRAMS[ROLLOUT_PROGRAM]
    sources = [base] + release_history(base, rng, ROLLOUT_VERSIONS - 1)
    releases = {version + 1: source for version, source in enumerate(sources)}
    versions = sorted(rng.sample(range(1, ROLLOUT_VERSIONS), 2)) + [ROLLOUT_VERSIONS]
    weights = [rng.random() + 0.2 for _ in versions]
    fleet = {0: ROLLOUT_VERSIONS}
    for node in range(1, FLEET_NODES):
        fleet[node] = rng.choices(versions, weights)[0]
    return Rollout(releases, fleet, full)


def _run_push(push: FleetPush, session) -> OpResult:
    from repro.net.profiles import get_profile

    deployed, version = session.deployed, session.version
    result = session.push_campaign(
        {version + 1: push.source},
        plan=push.plan,
        protocol=push.protocol,
        profile=get_profile(push.profile) if push.profile else None,
        max_rounds=MAX_ROUNDS,
    )
    report = result.report
    sim_s = getattr(report, "time_s", None)
    if sim_s is None:
        sim_s = float(report.rounds)  # flood rounds are ROUND_S = 1 s
    counts = {
        "script_bytes": result.update.script_bytes,
        "diff_inst": result.update.diff_inst,
        "network_energy_j": report.total_energy_j,
        "sim_convergence_s": sim_s,
        "converged_nodes": len(report.converged_nodes),
        "fleet_nodes": len(report.node_versions) - 1,
    }
    return OpResult(
        ok=True, counts=counts, evidence=(deployed, version, result, session.version)
    )


def _run_rollout(rollout: Rollout, topology, index: int) -> OpResult:
    from repro.api import (
        CodedTransferParams,
        VersionGraphConfig,
        build_version_graph,
        plan_cohorts,
        run_versioned_campaign,
    )

    graph = build_version_graph(
        rollout.releases, config=VersionGraphConfig(loss=FLEET_LOSS)
    )
    reports = []
    for wave, plan in enumerate(plan_cohorts(graph, rollout.fleet)):
        coded = wave % 2 == 0
        if rollout.full and not coded:
            plan = _full_image_plan(graph, plan)
        reports.append(
            run_versioned_campaign(
                graph,
                (plan,),
                topology,
                loss=FLEET_LOSS,
                seed=1000 * index + wave + 1,
                coding=CodedTransferParams() if coded else None,
            )
        )
    cohorts = [cohort for report in reports for cohort in report.cohorts]
    stale = sum(len(cohort.plan.nodes) for cohort in cohorts)
    counts = {
        "script_bytes": sum(cohort.blob_bytes for cohort in cohorts),
        "network_energy_j": sum(cohort.energy_j for cohort in cohorts),
        "sim_convergence_s": float(sum(cohort.rounds for cohort in cohorts)),
        "converged_nodes": stale - sum(len(c.quarantined) for c in cohorts),
        "fleet_nodes": stale,
    }
    return OpResult(ok=True, counts=counts, evidence=reports)


def _op_correct(evidence) -> bool:
    """A rollout: every planned path rebuilt the byte-identical target
    image.  A push: the shipped script rebuilds the target image from
    the deployed one, no node holds a third version, a converged fleet
    holds the target everywhere and advanced the session, and no device
    broke its airtime budget."""
    from repro.diff.data_diff import apply_data
    from repro.diff.patcher import patched_words

    if isinstance(evidence, list):
        return all(report.replay_identical for report in evidence)
    deployed, version, outcome, version_after = evidence
    report, update = outcome.report, outcome.update
    stats = report.profile_stats or {}
    fleet = len(report.node_versions) - 1
    return (
        report.new_version == version + 1
        and set(report.node_versions.values()) <= {version, version + 1}
        and patched_words(deployed.image, update.diff.script)
        == update.new.image.words()
        and apply_data(deployed.image.data, update.data_script)
        == update.new.image.data
        and not set(report.converged_nodes) & set(report.quarantined)
        and version_after == (version + 1 if report.converged else version)
        and (not report.converged or len(report.converged_nodes) == fleet)
        and stats.get("airtime_violations", 0) == 0
    )


def _full_image_plan(graph, plan):
    from repro.config import CohortPlan

    edge = graph.full_edge(plan.from_version, plan.to_version)
    return CohortPlan(
        from_version=plan.from_version,
        to_version=plan.to_version,
        nodes=plan.nodes,
        strategy="full",
        path=(plan.from_version, plan.to_version),
        script_bytes=edge.script_bytes,
        predicted_energy_j=plan.predicted_energy_j,
    )


WORKLOADS = {
    workload.name: workload for workload in (SinkPlanStream(), FleetCampaign())
}
