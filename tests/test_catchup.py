"""Equivalence and safety tests for seq-checkpointed catch-up (E14).

The property under test: a consumer topped up from the update journal is
entry-for-entry identical to one rebuilt from scratch, after randomized
batches of creates, updates, hard deletes, soft deletes, and restores —
and the ``journal=False`` ablation reaches the same state through the
rebuild path. Plus the fallbacks (changed journal identity, purge log
that no longer reaches back) and the seq-acknowledged stub purge.
"""

import random

import pytest

from repro.core import NotesDatabase
from repro.fulltext import FullTextIndex
from repro.replication import SimulatedNetwork
from repro.cluster import ClusterReplicator
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import SortOrder, View, ViewColumn

WORDS = ("budget", "meeting", "release", "replica", "schedule",
         "review", "forecast", "inventory", "proposal", "summary")


def make_view(db, journal=True, persist=True, mode="auto"):
    return View(
        db, "Equiv",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        mode=mode, persist=persist, journal=journal,
    )


def seed_docs(db, rng, n):
    for index in range(n):
        db.clock.advance(0.1)
        db.create({
            "Form": rng.choice(["Memo", "Memo", "Memo", "Task"]),
            "Subject": f"{rng.choice(WORDS)} {index}",
            "Body": " ".join(rng.choice(WORDS) for _ in range(6)),
            "Amount": rng.randrange(100),
        })


def random_ops(db, rng, n_ops):
    """A randomized batch over every mutation kind a consumer must track."""
    for _ in range(n_ops):
        db.clock.advance(0.1)
        roll = rng.random()
        unids = db.unids()
        if roll < 0.35 or not unids:
            db.create({
                "Form": rng.choice(["Memo", "Memo", "Task"]),
                "Subject": f"{rng.choice(WORDS)} new",
                "Body": " ".join(rng.choice(WORDS) for _ in range(6)),
                "Amount": rng.randrange(100),
            })
        elif roll < 0.65:
            db.update(rng.choice(unids), {
                "Subject": f"{rng.choice(WORDS)} edited",
                "Amount": rng.randrange(100),
            })
        elif roll < 0.80:
            db.delete(rng.choice(unids))
        elif roll < 0.90:
            db.soft_delete(rng.choice(unids))
        elif db.trash:
            db.restore(rng.choice(db.trash))


def view_state(view):
    return [(entry.unid, entry.values) for entry in view.entries()]


class TestViewEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    @pytest.mark.parametrize("journal", [True, False])
    def test_warm_open_equals_rebuild_after_random_batch(
        self, tmp_path, seed, journal
    ):
        path = str(tmp_path / f"eq{seed}{journal}")
        rng = random.Random(seed)
        engine = StorageEngine(path)
        db = NotesDatabase("eq.nsf", clock=VirtualClock(),
                           rng=random.Random(seed * 7), engine=engine)
        seed_docs(db, rng, 40)
        make_view(db).close()  # saves the sidecar at the current seq
        engine.close()

        engine = StorageEngine(path)
        db = NotesDatabase("eq.nsf", clock=VirtualClock(),
                           rng=random.Random(seed * 13), engine=engine)
        random_ops(db, rng, 60)
        warm = make_view(db, journal=journal)
        if journal:
            assert warm.loaded_from_disk
            assert warm.rebuilds == 0
            assert warm.catch_up.last_path == "topup"
        else:
            assert not warm.loaded_from_disk
            assert warm.catch_up.last_path == "rebuild"
        cold = make_view(db, journal=False, persist=False)
        assert view_state(warm) == view_state(cold)
        engine.close()

    def test_trash_saved_in_sidecar_reconciles(self, tmp_path):
        path = str(tmp_path / "trash")
        engine = StorageEngine(path)
        db = NotesDatabase("t.nsf", clock=VirtualClock(),
                           rng=random.Random(1), engine=engine)
        kept = db.create({"Form": "Memo", "Subject": "kept", "Amount": 1})
        gone = db.create({"Form": "Memo", "Subject": "gone", "Amount": 2})
        db.soft_delete(gone.unid)
        make_view(db).close()
        engine.close()

        engine = StorageEngine(path)
        db = NotesDatabase("t.nsf", clock=VirtualClock(),
                           rng=random.Random(2), engine=engine)
        warm = make_view(db)
        cold = make_view(db, journal=False, persist=False)
        assert view_state(warm) == view_state(cold)
        assert kept.unid in warm.all_unids()
        engine.close()


class TestFullTextEquivalence:
    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("journal", [True, False])
    def test_warm_open_equals_rebuild_after_random_batch(
        self, tmp_path, seed, journal
    ):
        path = str(tmp_path / f"ft{seed}{journal}")
        rng = random.Random(seed)
        engine = StorageEngine(path)
        db = NotesDatabase("ft.nsf", clock=VirtualClock(),
                           rng=random.Random(seed * 7), engine=engine)
        seed_docs(db, rng, 40)
        FullTextIndex(db, persist=True).close()
        engine.close()

        engine = StorageEngine(path)
        db = NotesDatabase("ft.nsf", clock=VirtualClock(),
                           rng=random.Random(seed * 13), engine=engine)
        random_ops(db, rng, 60)
        warm = FullTextIndex(db, persist=True, journal=journal)
        if journal:
            assert warm.loaded_from_disk
            assert warm.catch_up.last_path == "topup"
        else:
            assert not warm.loaded_from_disk
            assert warm.catch_up.last_path == "rebuild"
        cold = FullTextIndex(db)
        assert warm.document_count == cold.document_count
        assert warm.postings_snapshot() == cold.postings_snapshot()
        for word in WORDS:
            assert [hit.unid for hit in warm.search(word)] == [
                hit.unid for hit in cold.search(word)
            ]
        warm.close()
        cold.close()
        engine.close()


class TestFallbacks:
    def test_view_rebuilds_when_journal_identity_changes(self, tmp_path):
        path = str(tmp_path / "reseed")
        engine = StorageEngine(path)
        db = NotesDatabase("r.nsf", clock=VirtualClock(),
                           rng=random.Random(1), engine=engine)
        db.create({"Form": "Memo", "Subject": "a", "Amount": 1})
        make_view(db).close()
        engine.close()

        engine = StorageEngine(path)
        db = NotesDatabase("r.nsf", clock=VirtualClock(),
                           rng=random.Random(2), engine=engine)
        db.create({"Form": "Memo", "Subject": "b", "Amount": 2})
        # A sidecar stamped by a different journal must not be topped
        # up — seqs are not comparable.
        db.journal_id = "0123456789abcdef"
        warm = make_view(db)
        assert not warm.loaded_from_disk
        assert warm.catch_up.last_path == "rebuild"
        assert sorted(values for _, values in view_state(warm)) == [
            ("a", 1), ("b", 2)
        ]
        engine.close()

    def test_refresh_rebuilds_when_purge_log_cannot_reach_back(self):
        db = NotesDatabase("p.nsf", clock=VirtualClock(),
                           rng=random.Random(9))
        rng = random.Random(9)
        seed_docs(db, rng, 10)
        view = make_view(db, persist=False, mode="manual")
        assert view.refresh() == "noop"
        # Push more purges through the log than it retains.
        doomed = [
            db.create({"Form": "Task", "Subject": "churn"}).unid
            for _ in range(1100)
        ]
        for unid in doomed:
            db.delete(unid)
        db.clock.advance(10)
        assert db.purge_stubs(db.clock.now) == 1100
        assert db.purges_since(0) is None  # log no longer reaches back
        db.update(db.unids()[0], {"Amount": 999})  # a real change on top
        assert view.refresh() == "rebuild"
        cold = make_view(db, journal=False, persist=False)
        assert view_state(view) == view_state(cold)

    def test_refresh_tops_up_over_a_purge(self):
        db = NotesDatabase("p2.nsf", clock=VirtualClock(),
                           rng=random.Random(4))
        rng = random.Random(4)
        seed_docs(db, rng, 8)
        view = make_view(db, persist=False, mode="manual")
        victim = next(
            unid for unid in db.unids()
            if db.get(unid).get("Form") == "Memo"
        )
        db.delete(victim)
        db.clock.advance(10)
        db.purge_stubs(db.clock.now)
        assert view.refresh() == "topup"
        assert victim not in view.all_unids()
        cold = make_view(db, journal=False, persist=False)
        assert view_state(view) == view_state(cold)


class TestSegmentedLayoutFallbacks:
    """The rebuild fallbacks again, but with a *multi-segment* sidecar on
    disk: falling back must also clear every old segment key, not just
    one snapshot record (the pre-segment tests above never had more than
    one record to lose)."""

    def _multi_segment_world(self, path, seed=31):
        """Two save cycles → at least two segments in every sidecar."""
        rng = random.Random(seed)
        engine = StorageEngine(path)
        db = NotesDatabase("seg.nsf", clock=VirtualClock(),
                           rng=random.Random(seed * 7), engine=engine)
        seed_docs(db, rng, 30)
        view = make_view(db)
        index = FullTextIndex(db, persist=True)
        view.save_index()
        index.save_checkpoint()
        random_ops(db, rng, 20)
        view.save_index()
        index.save_checkpoint()
        assert view.catch_up.segment_stats["entries"].segments >= 2
        assert index.catch_up.segment_stats["docs"].segments >= 2
        view.close()
        index.close()
        engine.close()

    @staticmethod
    def _assert_no_orphan_segment_keys(engine, view_name="Equiv"):
        """Every sidecar key must be named by a committed manifest."""
        import json

        expected = set()
        for meta_key, manifests in (
            (b"viewidx:" + view_name.encode(),
             {"index": b"viewidx:" + view_name.encode()}),
            (b"ftidx:meta", {"terms": b"ftidx:terms", "docs": b"ftidx:docs"}),
        ):
            raw = engine.get(meta_key)
            if raw is None:
                continue
            expected.add(meta_key)
            meta = json.loads(raw.decode())
            for field, namespace in manifests.items():
                for seg_id in meta.get(field, {}).get("segments", ()):
                    expected.add(namespace + b":dir:" + str(seg_id).encode())
                    expected.add(namespace + b":blob:" + str(seg_id).encode())
        actual = {
            key for key in engine.keys()
            if key.startswith(b"viewidx:") or key.startswith(b"ftidx:")
        }
        assert actual == expected

    def test_foreign_journal_id_rebuilds_and_resets_segments(self, tmp_path):
        path = str(tmp_path / "foreign")
        self._multi_segment_world(path)

        engine = StorageEngine(path)
        db = NotesDatabase("seg.nsf", clock=VirtualClock(),
                           rng=random.Random(2), engine=engine)
        db.create({"Form": "Memo", "Subject": "post-reseed", "Amount": 7})
        # A multi-segment sidecar stamped by another journal: seqs are
        # not comparable, so neither consumer may top up from it.
        db.journal_id = "fedcba9876543210"
        warm_view = make_view(db)
        warm_index = FullTextIndex(db, persist=True)
        assert not warm_view.loaded_from_disk
        assert warm_view.catch_up.last_path == "rebuild"
        assert not warm_index.loaded_from_disk
        assert warm_index.catch_up.last_path == "rebuild"
        cold_view = make_view(db, journal=False, persist=False)
        cold_index = FullTextIndex(db)
        assert view_state(warm_view) == view_state(cold_view)
        assert warm_index.postings_snapshot() == cold_index.postings_snapshot()
        # Saving the rebuilt state sweeps every segment the foreign
        # checkpoint left behind — nothing orphaned, fresh single segment.
        warm_view.save_index()
        warm_index.save_checkpoint()
        self._assert_no_orphan_segment_keys(engine)
        assert warm_view.catch_up.segment_stats["entries"].segments == 1
        assert warm_index.catch_up.segment_stats["docs"].segments == 1
        warm_index.close()
        cold_index.close()
        engine.close()

    def test_purge_log_overflow_rebuilds_and_resets_segments(self, tmp_path):
        path = str(tmp_path / "overflow")
        self._multi_segment_world(path)

        engine = StorageEngine(path)
        db = NotesDatabase("seg.nsf", clock=VirtualClock(),
                           rng=random.Random(3), engine=engine)
        # Push more purges through the log than it retains, so the saved
        # checkpoints' purge seq falls off the back of the log.
        doomed = [
            db.create({"Form": "Task", "Subject": "churn"}).unid
            for _ in range(1100)
        ]
        for unid in doomed:
            db.delete(unid)
        db.clock.advance(10)
        assert db.purge_stubs(db.clock.now) >= 1100  # plus leftover stubs
        db.update(db.unids()[0], {"Amount": 999})
        warm_view = make_view(db)
        warm_index = FullTextIndex(db, persist=True)
        assert not warm_view.loaded_from_disk
        assert warm_view.catch_up.last_path == "rebuild"
        assert not warm_index.loaded_from_disk
        assert warm_index.catch_up.last_path == "rebuild"
        cold_view = make_view(db, journal=False, persist=False)
        cold_index = FullTextIndex(db)
        assert view_state(warm_view) == view_state(cold_view)
        assert warm_index.postings_snapshot() == cold_index.postings_snapshot()
        warm_view.save_index()
        warm_index.save_checkpoint()
        self._assert_no_orphan_segment_keys(engine)
        warm_index.close()
        cold_index.close()
        engine.close()

    def test_warm_open_tops_up_over_multiple_segments(self, tmp_path):
        """The happy path on a fragmented sidecar: a third session tops
        up from a two-segment stack and appends a third segment."""
        path = str(tmp_path / "fragmented")
        self._multi_segment_world(path)

        engine = StorageEngine(path)
        db = NotesDatabase("seg.nsf", clock=VirtualClock(),
                           rng=random.Random(4), engine=engine)
        rng = random.Random(77)
        random_ops(db, rng, 15)
        warm = make_view(db)
        assert warm.loaded_from_disk
        assert warm.catch_up.last_path == "topup"
        cold = make_view(db, journal=False, persist=False)
        assert view_state(warm) == view_state(cold)
        warm.save_index()
        assert warm.catch_up.segment_stats["entries"].segments >= 3 or (
            warm.catch_up.merges > 0
        )
        engine.close()


class TestSeqAcknowledgedPurge:
    def _db_with_stub(self):
        db = NotesDatabase("a.nsf", clock=VirtualClock(),
                           rng=random.Random(2), server="hub")
        doc = db.create({"Form": "Memo", "Subject": "x"})
        db.clock.advance(1)
        db.delete(doc.unid)
        return db, doc.unid

    def test_no_partners_purges_nothing(self):
        db, unid = self._db_with_stub()
        assert db.acknowledged_seq() is None
        assert db.purge_acknowledged_stubs() == 0
        assert unid in db.stubs

    def test_waits_for_the_slowest_partner(self):
        db, unid = self._db_with_stub()
        stub_seq = db.update_seq
        db.replication_seq[("fast", "send")] = stub_seq
        db.replication_seq[("slow", "send")] = stub_seq - 1
        assert db.acknowledged_seq() == stub_seq - 1
        assert db.purge_acknowledged_stubs() == 0
        assert unid in db.stubs

        db.replication_seq[("slow", "send")] = stub_seq
        assert db.purge_acknowledged_stubs() == 1
        assert unid not in db.stubs
        # The purge is journaled so stale consumers replay it.
        assert (db.purge_seq, unid) in db.purges_since(0)

    def test_receive_entries_are_not_acks(self):
        db, unid = self._db_with_stub()
        db.replication_seq[("peer", "receive")] = db.update_seq
        assert db.acknowledged_seq() is None
        assert db.purge_acknowledged_stubs() == 0


class TestClusterJournalReplay:
    def _world(self):
        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        for name in ("c1", "c2"):
            network.add_server(name)
        a = NotesDatabase("app.nsf", clock=clock, rng=random.Random(3),
                          server="c1")
        network.server("c1").add_database(a)
        b = a.new_replica("c2")
        network.server("c2").add_database(b)
        cluster = ClusterReplicator(network)
        cluster.attach(a)
        cluster.attach(b)
        return clock, network, cluster, a, b

    def test_repeated_edits_drain_as_one_push(self):
        clock, network, cluster, a, b = self._world()
        doc = a.create({"S": "v0"})
        network.partition("c1", "c2")
        for version in range(50):
            clock.advance(0.1)
            a.update(doc.unid, {"S": f"v{version + 1}"})
        assert cluster.backlog_size == 1
        pushes_before = cluster.stats.pushes
        network.partition("c1", "c2", partitioned=False)
        cluster.catch_up()
        assert b.get(doc.unid).get("S") == "v50"
        # 50 journal entries collapsed to the one live revision.
        assert cluster.stats.pushes - pushes_before == 1

    def test_drain_acknowledges_for_stub_purge(self):
        clock, network, cluster, a, b = self._world()
        doc = a.create({"S": "x"})
        clock.advance(1)
        a.delete(doc.unid)
        # The delete was pushed live, so the partner has acked the seq
        # and the stub is immediately purgeable — no wall-clock wait.
        assert a.acknowledged_seq() == a.update_seq
        assert a.purge_acknowledged_stubs() == 1
        assert doc.unid not in a.stubs
        assert doc.unid not in b

    def test_stalled_link_blocks_purge_until_drained(self):
        clock, network, cluster, a, b = self._world()
        doc = a.create({"S": "x"})
        network.partition("c1", "c2")
        clock.advance(1)
        a.delete(doc.unid)
        assert a.purge_acknowledged_stubs() == 0  # c2 has not seen it
        network.partition("c1", "c2", partitioned=False)
        cluster.catch_up()
        assert doc.unid not in b
        assert a.purge_acknowledged_stubs() == 1

    def test_soft_delete_during_outage_rides_pending(self):
        clock, network, cluster, a, b = self._world()
        doc = a.create({"S": "x"})
        network.partition("c1", "c2")
        clock.advance(1)
        a.soft_delete(doc.unid)  # journaled: drains like any write
        assert cluster.backlog_size >= 1
        network.partition("c1", "c2", partitioned=False)
        cluster.catch_up()
        assert cluster.backlog_size == 0
        assert doc.unid not in b
