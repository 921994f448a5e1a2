"""Tests for clustering: event-driven replication, failover, catch-up."""

import random

import pytest

from repro.cluster import Cluster
from repro.core import NotesDatabase
from repro.errors import ClusterError
from repro.replication import (
    ConflictPolicy, Replicator, SimulatedNetwork, converged,
)
from repro.sim import VirtualClock


@pytest.fixture
def world():
    clock = VirtualClock()
    network = SimulatedNetwork(clock)
    for name in ("c1", "c2", "c3"):
        network.add_server(name)
    db = NotesDatabase("app.nsf", clock=clock, rng=random.Random(3), server="c1")
    network.server("c1").add_database(db)
    cluster = Cluster("TestCluster", network)
    for name in ("c1", "c2", "c3"):
        cluster.add_member(name)
    replicas = cluster.cluster_database(db)
    return clock, network, cluster, replicas


class TestMembership:
    def test_members_get_replicas(self, world):
        _, network, _, replicas = world
        assert len(replicas) == 3
        assert {r.server for r in replicas} == {"c1", "c2", "c3"}
        assert len({r.replica_id for r in replicas}) == 1

    def test_duplicate_member_rejected(self, world):
        _, _, cluster, _ = world
        with pytest.raises(ClusterError):
            cluster.add_member("c1")

    def test_cluster_size_cap(self, world):
        clock, network, cluster, _ = world
        for index in range(3, 6):
            network.add_server(f"c{index + 1}")
            cluster.add_member(f"c{index + 1}")
        network.add_server("overflow")
        with pytest.raises(ClusterError):
            cluster.add_member("overflow")

    def test_preexisting_content_seeded(self):
        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        network.add_server("c1")
        network.add_server("c2")
        db = NotesDatabase("pre.nsf", clock=clock, rng=random.Random(1), server="c1")
        network.server("c1").add_database(db)
        seeded = db.create({"S": "existing"})
        db_deleted = db.create({"S": "gone"})
        db.delete(db_deleted.unid)
        cluster = Cluster("C", network)
        cluster.add_member("c1")
        cluster.add_member("c2")
        replicas = cluster.cluster_database(db)
        replica = next(r for r in replicas if r.server == "c2")
        assert seeded.unid in replica
        assert db_deleted.unid in replica.stubs


class TestEventDrivenReplication:
    def test_create_propagates_immediately(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "live"})
        assert doc.unid in b and doc.unid in c

    def test_update_propagates(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "v1"})
        b.update(doc.unid, {"S": "v2"})
        assert a.get(doc.unid).get("S") == "v2"
        assert c.get(doc.unid).get("S") == "v2"

    def test_delete_propagates(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "x"})
        c.delete(doc.unid)
        assert doc.unid not in a and doc.unid not in b
        assert converged([a, b, c])

    def test_no_echo_storm(self, world):
        _, _, cluster, (a, b, c) = world
        replicator = next(iter(cluster.replicators.values()))
        a.create({"S": "once"})
        # one change, two pushes (to b and c) — no echoes back
        assert replicator.stats.pushes == 2

    def test_conflicting_cluster_edits_resolve(self, world):
        clock, _, cluster, (a, b, c) = world
        # simulate a partition so concurrent edits are possible
        doc = a.create({"S": "base"})
        cluster.network.partition("c1", "c2")
        cluster.network.partition("c1", "c3")
        cluster.network.partition("c2", "c3")
        clock.advance(1)
        a.update(doc.unid, {"S": "a!"})
        clock.advance(1)
        b.update(doc.unid, {"S": "b!"})
        for pair_names in (("c1", "c2"), ("c1", "c3"), ("c2", "c3")):
            cluster.network.partition(*pair_names, partitioned=False)
        replicator = next(iter(cluster.replicators.values()))
        for _ in range(3):
            replicator.catch_up()
        assert converged([a, b, c])
        assert replicator.stats.conflicts >= 1


class TestTrashAndTrims:
    def test_soft_delete_lands_in_mates_trash(self, world):
        """A soft delete is mirrored into every mate's trash, not turned
        into a deletion stub, so a scheduled pass between mates cannot
        carry a stub back over the trashed original."""
        clock, _, _, (a, b, c) = world
        doc = a.create({"S": "x"})
        clock.advance(1)
        a.soft_delete(doc.unid)
        assert b.trash == [doc.unid] and c.trash == [doc.unid]
        assert doc.unid not in b.stubs and doc.unid not in c.stubs
        clock.advance(1)
        Replicator().replicate(b, a)
        a.restore(doc.unid)
        assert b.get(doc.unid).get("S") == "x"
        assert doc.unid in c
        assert converged([a, b, c])

    def test_cutoff_delete_stays_local(self, world):
        clock, _, _, (a, b, c) = world
        old = a.create({"S": "old"})
        clock.advance(1000)
        a.create({"S": "new"})
        assert a.cutoff_delete(older_than=500.0) == 1
        assert old.unid not in a
        assert b.get(old.unid).get("S") == "old" and old.unid in c
        assert old.unid not in b.stubs and old.unid not in c.stubs


class TestFailover:
    def test_preferred_server_when_up(self, world):
        _, _, cluster, (a, _, _) = world
        result = cluster.open_database(a.replica_id, preferred="c1")
        assert result.server == "c1" and not result.failed_over

    def test_failover_when_preferred_down(self, world):
        _, _, cluster, (a, _, _) = world
        cluster.fail("c1")
        result = cluster.open_database(
            a.replica_id, preferred="c1", rng=random.Random(0)
        )
        assert result.server in ("c2", "c3")
        assert result.failed_over
        assert cluster.failovers == 1

    def test_all_down_raises(self, world):
        _, _, cluster, (a, _, _) = world
        for name in ("c1", "c2", "c3"):
            cluster.fail(name)
        with pytest.raises(ClusterError):
            cluster.open_database(a.replica_id)

    def test_load_balancing_spreads_opens(self, world):
        _, _, cluster, (a, _, _) = world
        rng = random.Random(42)
        servers = [
            cluster.open_database(a.replica_id, rng=rng).server
            for _ in range(30)
        ]
        assert len(set(servers)) == 3  # no single member takes everything

    def test_availability_index_decreases_with_load(self, world):
        _, _, cluster, (a, _, _) = world
        before = cluster.availability_index("c1")
        for _ in range(5):
            cluster.open_database(a.replica_id, preferred="c1")
        assert cluster.availability_index("c1") < before
        cluster.close_session("c1")
        assert cluster.availability_index("c1") == before - 20

    def test_changes_queue_while_down_and_drain_on_restore(self, world):
        _, _, cluster, (a, b, c) = world
        cluster.fail("c1")
        doc = b.create({"S": "while c1 down"})
        replicator = next(iter(cluster.replicators.values()))
        assert replicator.backlog_size >= 1
        assert doc.unid in c and doc.unid not in a
        drained = cluster.restore("c1")
        assert drained >= 1
        assert doc.unid in a
        assert converged([a, b, c])

    def test_queued_delete_drains(self, world):
        _, _, cluster, (a, b, c) = world
        doc = a.create({"S": "to delete"})
        cluster.fail("c3")
        b.delete(doc.unid)
        cluster.restore("c3")
        assert doc.unid not in c
        assert converged([a, b, c])

    def test_edit_superseded_while_down_applies_latest(self, world):
        clock, _, cluster, (a, b, c) = world
        doc = a.create({"S": "v1"})
        cluster.fail("c1")
        clock.advance(1)
        b.update(doc.unid, {"S": "v2"})
        clock.advance(1)
        b.update(doc.unid, {"S": "v3"})
        cluster.restore("c1")
        assert a.get(doc.unid).get("S") == "v3"
