"""Tests for the update-sequence journal and its change-feed semantics.

The journal turns "what changed since seq N" from a full-database scan
into a suffix read of a by-seq log (CouchDB ``_changes`` style). These
tests pin the semantics the replicator relies on: the journal read and the
O(database) scan agree, multi-hop hub routing still counts an installed
note as changed *now*, ``clear_replication_history`` forces a full
re-examination, and the journal survives a storage-engine reopen.
"""

import random

import pytest

from repro.core import NotesDatabase
from repro.replication import Replicator, converged
from repro.sim import VirtualClock
from repro.storage import StorageEngine


@pytest.fixture
def rep():
    return Replicator()


class TestJournalBasics:
    def test_seqs_are_monotonic_across_write_kinds(self, db, clock):
        doc = db.create({"S": "a"})
        assert db.update_seq == 1
        clock.advance(1)
        db.update(doc.unid, {"S": "b"})
        assert db.update_seq == 2
        other = db.create({"S": "c"})
        assert db.update_seq == 3
        clock.advance(1)
        db.delete(other.unid)
        assert db.update_seq == 4

    def test_changed_since_seq_returns_exact_delta(self, db, clock):
        for index in range(20):
            db.create({"N": index})
            clock.advance(0.1)
        mark = db.update_seq
        clock.advance(1)
        changed = random.Random(3).sample(db.unids(), 5)
        for unid in changed:
            db.update(unid, {"S": "edited"})
        docs, stubs = db.changed_since_seq(mark)
        assert {d.unid for d in docs} == set(changed)
        assert stubs == []
        assert db.last_scan_cost <= len(changed)

    def test_repeated_edits_collapse_to_one_candidate(self, db, clock):
        doc = db.create({"S": "v0"})
        mark = db.update_seq
        for version in range(10):
            clock.advance(1)
            db.update(doc.unid, {"S": f"v{version + 1}"})
        docs, stubs = db.changed_since_seq(mark)
        assert [d.unid for d in docs] == [doc.unid]
        assert stubs == []

    def test_deletion_shows_up_as_stub(self, db, clock):
        doc = db.create({"S": "x"})
        mark = db.update_seq
        clock.advance(1)
        db.delete(doc.unid)
        docs, stubs = db.changed_since_seq(mark)
        assert docs == []
        assert [s.unid for s in stubs] == [doc.unid]

    def test_seq_and_timestamp_paths_agree(self, db, clock):
        rng = random.Random(11)
        for index in range(30):
            db.create({"N": index})
            clock.advance(0.2)
        mark_seq = db.update_seq
        clock.advance(1)
        for unid in rng.sample(db.unids(), 8):
            db.update(unid, {"S": "new"})
        doomed = rng.sample([u for u in db.unids()], 3)
        for unid in doomed:
            db.delete(unid)

        def key(result):
            docs, stubs = result
            return ({d.unid for d in docs}, {s.unid for s in stubs})

        via_seq = key(db.changed_since_seq(mark_seq))
        via_scan = key(db.changed_since_scan(mark_seq))
        assert via_seq == via_scan
        assert len(via_seq[0]) >= 5 and len(via_seq[1]) == 3
        assert key(db.changed_since_scan(0)) == key(db.changed_since_seq(0))

    def test_compaction_preserves_the_feed(self, db, clock):
        doc = db.create({"S": "hot"})
        cold = db.create({"S": "cold"})
        mark = db.update_seq
        # Hammer one document until the journal compacts away the
        # superseded entries, then check the feed is still exact.
        for version in range(500):
            clock.advance(0.01)
            db.update(doc.unid, {"V": version})
        assert len(db._journal) < 500
        docs, stubs = db.changed_since_seq(mark)
        assert {d.unid for d in docs} == {doc.unid}
        assert stubs == []
        assert cold.unid in db

    def test_scan_cost_is_delta_not_database_size(self, db, clock):
        for index in range(2000):
            db.create({"N": index})
            clock.advance(0.001)
        mark = db.update_seq
        clock.advance(1)
        for unid in random.Random(5).sample(db.unids(), 10):
            db.update(unid, {"S": "touched"})
        db.changed_since_seq(mark)
        assert db.last_scan_cost <= 10
        db.changed_since_scan(mark)
        assert db.last_scan_cost >= 2000


class TestReplicationSeqHistory:
    def test_second_pull_scans_nothing(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.docs_examined == 0
        assert stats.docs_scanned == 0
        assert b.replication_seq[(a.server, "receive")] == a.update_seq

    def test_installed_note_counts_as_changed_now(self, clock):
        """Multi-hop: a note a hub *receives* must flow onward even though
        its original modification time predates the spoke's cutoff."""
        a = NotesDatabase(
            "hub.nsf", clock=clock, rng=random.Random(1), server="alpha"
        )
        hub = a.new_replica("hub")
        c = a.new_replica("gamma")
        rep = Replicator()
        doc = a.create({"S": "routed"})
        clock.advance(1)
        rep.pull(c, hub)  # spoke establishes history before the doc arrives
        clock.advance(1)
        rep.pull(hub, a)
        clock.advance(1)
        stats = rep.pull(c, hub)
        assert stats.docs_transferred == 1
        assert doc.unid in c

    def test_clear_history_forces_full_reexamination(self, pair, clock, rep):
        a, b = pair
        for index in range(10):
            a.create({"N": index})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        b.clear_replication_history()
        assert b.replication_seq == {}
        stats = rep.pull(b, a)
        assert stats.docs_examined == 10  # everything re-examined
        assert stats.docs_transferred == 0  # ...but nothing re-shipped

    def test_timestamp_history_fallback_interop(self, pair, clock):
        """The scan replicator and the journal replicator record the same
        seq cursor, so either one's history yields a correct incremental
        pass for the other on the same link."""
        a, b = pair
        old = a.create({"S": "old"})
        clock.advance(1)
        Replicator(journal=False).pull(b, a)
        assert b.replication_seq[(a.server, "receive")] == a.update_seq
        clock.advance(1)
        fresh = a.create({"S": "fresh"})
        clock.advance(1)
        stats = Replicator(journal=True).pull(b, a)
        assert stats.docs_transferred == stats.docs_examined == 1
        assert stats.docs_scanned == 1
        assert fresh.unid in b and old.unid in b
        assert b.replication_seq[(a.server, "receive")] == a.update_seq
        clock.advance(1)
        late = a.create({"S": "late"})
        clock.advance(1)
        stats = Replicator(journal=False).pull(b, a)
        assert stats.docs_transferred == stats.docs_examined == 1
        assert stats.docs_scanned == 3  # the scan visits every note
        assert late.unid in b
        clock.advance(1)
        assert Replicator(journal=True).pull(b, a).docs_examined == 0

    def test_journal_and_scan_replicas_converge_identically(self):
        def run(journal: bool) -> str:
            clock = VirtualClock()
            base = NotesDatabase(
                "conv.nsf", clock=clock, rng=random.Random(99), server="a1"
            )
            other = base.new_replica("a2")
            rng = random.Random(42)
            rep = Replicator(journal=journal)
            for round_no in range(4):
                for index in range(5):
                    base.create({"N": f"{round_no}.{index}"})
                    clock.advance(0.3)
                if base.unids():
                    other_doc = rng.choice(base.unids())
                    base.update(other_doc, {"S": "touched"})
                clock.advance(1)
                rep.replicate(base, other)
                clock.advance(1)
            assert converged([base, other])
            return base.state_fingerprint()

        assert run(journal=True) == run(journal=False)


class TestAgentSeqTracking:
    def test_agent_sees_replicated_documents(self, pair, clock, rep):
        from repro.agents import Agent, AgentRunner

        a, b = pair
        runner = AgentRunner(b)
        seen = []
        agent = runner.add(
            Agent(name="inbox", action=lambda d, database: seen.append(d.unid))
        )
        doc = a.create({"S": "mail"})
        clock.advance(1)
        rep.pull(b, a)
        runner.run_agent(agent)
        assert seen == [doc.unid]
        clock.advance(1)
        runner.run_agent(agent)
        assert seen == [doc.unid]  # not reprocessed


class TestJournalPersistence:
    @pytest.fixture
    def store(self, tmp_path):
        def open_db(seed=1):
            engine = StorageEngine(str(tmp_path / "nsf"))
            clock = VirtualClock()
            db = NotesDatabase(
                "feed.nsf", clock=clock, rng=random.Random(seed), engine=engine
            )
            return engine, db

        return open_db

    def test_update_seq_survives_reopen(self, store):
        engine, db = store()
        doc = db.create({"S": "a"})
        db.clock.advance(1)
        db.update(doc.unid, {"S": "b"})
        db.create({"S": "c"})
        high_water = db.update_seq
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.update_seq == high_water

    def test_feed_continues_across_reopen(self, store):
        engine, db = store()
        for index in range(5):
            db.create({"N": index})
            db.clock.advance(0.1)
        mark = db.update_seq
        db.clock.advance(1)
        changed = db.create({"S": "late"})
        engine.close()
        _, reloaded = store(seed=2)
        docs, stubs = reloaded.changed_since_seq(mark)
        assert [d.unid for d in docs] == [changed.unid]
        assert stubs == []

    def test_stub_seq_survives_reopen(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.clock.advance(1)
        mark = db.update_seq
        db.delete(doc.unid)
        engine.close()
        _, reloaded = store(seed=2)
        docs, stubs = reloaded.changed_since_seq(mark)
        assert docs == []
        assert [s.unid for s in stubs] == [doc.unid]

    def test_fingerprint_stable_across_reopen(self, store):
        engine, db = store()
        for index in range(8):
            db.create({"N": index})
        db.delete(db.unids()[0])
        before = db.state_fingerprint()
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.state_fingerprint() == before


class TestRollingFingerprint:
    def test_matches_recompute_through_mixed_workload(self, db, clock):
        rng = random.Random(7)
        for step in range(200):
            clock.advance(0.5)
            roll = rng.random()
            unids = db.unids()
            if roll < 0.45 or not unids:
                db.create({"N": step, "Body": f"body {step}"})
            elif roll < 0.70:
                db.update(rng.choice(unids), {"S": f"edit {step}"})
            elif roll < 0.80:
                db.delete(rng.choice(unids))
            elif roll < 0.88:
                db.soft_delete(rng.choice(unids))
            elif roll < 0.94 and db.trash:
                db.restore(rng.choice(db.trash))
            elif db.trash:
                db.empty_trash()
            else:
                db.purge_stubs(older_than=0.0)
            assert db.state_fingerprint() == db._fingerprint_recompute()

    def test_purge_and_cutoff_keep_fingerprint_incremental(self, db, clock):
        for index in range(10):
            db.create({"N": index})
            clock.advance(1)
        for unid in db.unids()[:3]:
            db.delete(unid)
        clock.advance(1000)
        db.purge_stubs(older_than=10.0)
        db.cutoff_delete(older_than=10.0)
        assert db.state_fingerprint() == db._fingerprint_recompute()
