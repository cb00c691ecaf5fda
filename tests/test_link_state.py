"""Partition link state and the demand-first flood broadcast.

Every simulator asks :class:`repro.net.faults.LinkState` whether a link
is cut, and the flood broadcast phase skips senders that no linked
neighbour wants anything from.  Both are pure speed-ups, so these tests
pin them against the semantics they replace:

* a hypothesis property: over random plans with overlapping windows,
  the per-round island sets answer exactly what
  ``any(w.severs(a, b, round))`` answers;
* golden report digests, recorded before the change, of partitioned
  runs of every protocol on a 200-node random-geometric fleet — any
  change to delivery order, RNG draw order or link semantics moves
  them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.fastpath import reference_mode
from repro.net import (
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    random_geometric,
    run_campaign,
)
from repro.net.coding import CodedTransferParams
from repro.net.faults import LinkState, linked
from repro.versioning import (
    build_version_graph,
    plan_cohorts,
    run_versioned_campaign,
)
from repro.workloads import CASES

NODES = 30

windows = st.builds(
    lambda start, length, nodes: PartitionWindow(
        start, start + length, tuple(sorted(nodes))
    ),
    st.integers(1, 20),
    st.integers(1, 10),
    st.sets(st.integers(1, NODES - 1), min_size=1, max_size=12),
)


class TestLinkStateProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        partitions=st.lists(windows, max_size=4),
        round_no=st.integers(0, 35),
        pairs=st.lists(
            st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_islands_agree_with_severs(self, partitions, round_no, pairs):
        links = LinkState(tuple(partitions))
        islands = links.islands(round_no)
        open_windows = [
            w for w in partitions if w.start <= round_no < w.end
        ]
        if not open_windows:
            assert islands is None
        else:
            assert islands == tuple(frozenset(w.nodes) for w in open_windows)
        for a, b in pairs:
            up = islands is None or linked(islands, a, b)
            assert up == (not any(w.severs(a, b, round_no) for w in partitions))
        # Memoised per round: asking again gives the same answer.
        assert links.islands(round_no) is islands


# -- golden digests -----------------------------------------------------

TOPOLOGY = random_geometric(200, radio_range=0.13, seed=11)
BLOB = bytes(range(251)) * 2

#: Two overlapping windows (their islands overlap too), a crash with a
#: reboot, a crash that reboots after both windows heal, and the
#: corruption/duplication coins.
PLAN = FaultPlan(
    crashes=(
        NodeCrash(node=17, round=2, reboot_round=9),
        NodeCrash(node=42, round=5, reboot_round=15),
    ),
    partitions=(
        PartitionWindow(3, 10, tuple(range(100, 150))),
        PartitionWindow(6, 14, tuple(range(130, 180))),
    ),
    corrupt_prob=0.02,
    duplicate_prob=0.03,
    seed=29,
)

#: A small island cut off long after the rest of the fleet converged:
#: in the late rounds only its nodes want anything, and no sender that
#: could serve them is linked to them.
LATE_PLAN = FaultPlan(
    partitions=(PartitionWindow(2, 45, tuple(range(190, 200))),),
    seed=3,
)


def flood(plan=PLAN, max_rounds=80):
    return run_campaign(
        TOPOLOGY, BLOB, plan, loss=0.1, seed=7, max_rounds=max_rounds
    )


def flood_reference(plan=PLAN):
    with reference_mode(True):
        return flood(plan)


def kernel(protocol):
    return run_campaign(
        TOPOLOGY, BLOB, PLAN, loss=0.1, seed=7, max_rounds=80,
        protocol=protocol,
    )


def lt_wave():
    case = CASES["3"]
    graph = build_version_graph({1: case.old_source, 2: case.new_source})
    fleet = {node: 1 for node in range(TOPOLOGY.node_count)}
    plans = plan_cohorts(graph, fleet)
    return run_versioned_campaign(
        graph, plans, TOPOLOGY, loss=0.1, seed=7,
        coding=CodedTransferParams(scheme="lt"), fault_plan=PLAN,
        max_rounds=80,
    )


SCENARIOS = {
    "flood-kernel": flood,
    "flood-rounds": flood_reference,
    "trickle": lambda: kernel("trickle"),
    "gossip": lambda: kernel("gossip"),
    "lt-wave": lt_wave,
    "flood-late-island": lambda: flood(LATE_PLAN),
    "flood-late-island-rounds": lambda: flood_reference(LATE_PLAN),
}

#: Recorded with the per-module ``any(w.severs(...))`` link checks the
#: engines used before ``LinkState``.
GOLDEN = {
    "flood-kernel": (
        "cdff28d848e31328dcc7ee397761081bcafc9a044cb73360b77d9e1b29767ace"
    ),
    "flood-rounds": (
        "cdff28d848e31328dcc7ee397761081bcafc9a044cb73360b77d9e1b29767ace"
    ),
    "trickle": (
        "e5248a845cb4b2226b41440a318714c0488d81c7f5f7effad0dab985bc564dec"
    ),
    "gossip": (
        "4c9c3a125bfae7cc912d39a463d70b8c6415da3c541ca8a8e7c1557e62cda7a6"
    ),
    "lt-wave": (
        "71fb3a6fb534319312ee0518bc2ff51e38d9c749729c4540dbc5623d6c4ebb66"
    ),
    "flood-late-island": (
        "70f23079f48f8ea8ec45bc885db7d12b5fd67c2f2a9f8c33a2e65fe82c7528a3"
    ),
    "flood-late-island-rounds": (
        "70f23079f48f8ea8ec45bc885db7d12b5fd67c2f2a9f8c33a2e65fe82c7528a3"
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_partitioned_run_digest_unchanged(self, name):
        assert SCENARIOS[name]().digest() == GOLDEN[name]

    def test_late_island_outlives_the_rest_of_the_fleet(self):
        """The late-island run really has rounds in which no sender has
        anything wanted: stopped before the window heals, every node
        outside the island has committed (so advertises nothing) and no
        island node holds a packet to offer."""
        window = LATE_PLAN.partitions[0]
        report = flood(LATE_PLAN, max_rounds=window.end - 1)
        island = set(window.nodes)
        assert set(report.quarantined) == island
        assert report.rounds < window.end
        assert all(
            report.ledgers[node].packets_received == 0 for node in island
        )
        assert flood(LATE_PLAN).converged
