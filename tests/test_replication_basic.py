"""Tests for basic incremental replication."""

import pytest

from repro.errors import ReplicationError
from repro.replication import Replicator, converged


@pytest.fixture
def rep():
    return Replicator()


class TestPull:
    def test_new_documents_flow(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "one"})
        a.create({"S": "two"})
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.docs_transferred == 2
        assert len(b) == 2
        assert converged([a, b])

    def test_documents_identical_after_transfer(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"Subject": "x", "Amount": 5}, author="alice")
        clock.advance(1)
        rep.pull(b, a)
        copy = b.get(doc.unid)
        assert copy.oid == doc.oid
        assert copy.get("Subject") == "x"
        assert copy.updated_by == doc.updated_by
        assert copy.revisions == doc.revisions

    def test_second_pull_transfers_nothing(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.docs_transferred == 0
        assert stats.docs_examined == 0  # history cutoff skipped the scan

    def test_update_propagates(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"S": "v1"})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        a.update(doc.unid, {"S": "v2"})
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.docs_transferred == 1
        assert b.get(doc.unid).get("S") == "v2"
        assert b.get(doc.unid).seq == 2

    def test_pull_does_not_push(self, pair, clock, rep):
        a, b = pair
        b.create({"S": "only in b"})
        clock.advance(1)
        rep.pull(b, a)
        assert len(a) == 0

    def test_replicate_is_bidirectional(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "from a"})
        b.create({"S": "from b"})
        clock.advance(1)
        rep.replicate(a, b)
        assert len(a) == len(b) == 2
        assert converged([a, b])

    def test_identical_replicas_no_traffic(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.replicate(a, b)
        clock.advance(1)
        stats = rep.replicate(a, b)
        assert stats.bytes_transferred == 0

    def test_mismatched_replica_ids_rejected(self, clock, rep):
        from repro.core import NotesDatabase

        a = NotesDatabase("one", clock=clock)
        b = NotesDatabase("two", clock=clock)
        with pytest.raises(ReplicationError):
            rep.pull(a, b)

    def test_self_replication_rejected(self, pair, rep):
        a, _ = pair
        with pytest.raises(ReplicationError):
            rep.pull(a, a)

    def test_updated_remote_doc_keeps_local_note_id(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"S": "x"})
        b_local = b.create({"S": "local"})
        clock.advance(1)
        rep.pull(b, a)
        incoming = b.get(doc.unid)
        assert incoming.note_id not in (0, b_local.note_id)


class TestTrash:
    def test_soft_delete_transfers_nothing(self, pair, clock, rep):
        """A soft delete journals, so a pass examines the document, but
        its revision is unchanged: the partner keeps its live copy."""
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.replicate(a, b)
        a.soft_delete(doc.unid)
        clock.advance(1)
        assert rep.replicate(a, b).bytes_transferred == 0
        assert doc.unid in b and a.trash == [doc.unid]

    def test_document_trashed_on_both_sides_is_not_reshipped(
        self, pair, clock, rep
    ):
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.replicate(a, b)
        a.soft_delete(doc.unid)
        b.soft_delete(doc.unid)
        a.clear_replication_history()
        b.clear_replication_history()
        for _ in range(2):
            clock.advance(1)
            assert rep.replicate(a, b).bytes_transferred == 0
        assert a.trash == b.trash == [doc.unid]


class TestFullCopyBaseline:
    def test_full_copy_ships_everything_every_time(self, pair, clock, rep):
        a, b = pair
        for index in range(10):
            a.create({"S": str(index)})
        clock.advance(1)
        first = rep.full_copy(b, a)
        clock.advance(1)
        second = rep.full_copy(b, a)
        assert first.docs_examined == second.docs_examined == 10
        assert second.bytes_transferred == first.bytes_transferred
        assert converged([a, b])

    def test_incremental_cheaper_than_full_after_small_change(self, pair, clock, rep):
        a, b = pair
        for index in range(50):
            a.create({"S": str(index), "Body": "y" * 300})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        a.update(a.unids()[0], {"S": "changed"})
        clock.advance(1)
        incremental = rep.pull(b, a)
        full = rep.full_copy(b, a)
        assert incremental.bytes_transferred < full.bytes_transferred / 10


class TestTimestampAblation:
    def test_clock_skew_loses_update_with_timestamps(self, pair, clock):
        """The ablation DESIGN.md calls out: timestamp-based replication
        silently drops the edit made on the replica whose clock lags."""
        a, b = pair
        doc = a.create({"S": "base"})
        clock.advance(10)
        Replicator().replicate(a, b)
        # b edits later in *real* order, but we fake a lagging clock by
        # editing a at a later virtual time than b.
        clock.advance(1)
        b.update(doc.unid, {"S": "good edit"}, author="bob")
        clock.advance(1)
        a.update(doc.unid, {"S": "skewed edit"}, author="alice")
        clock.advance(1)
        skewed = Replicator(versioning="timestamp")
        stats = skewed.replicate(a, b)
        assert stats.conflicts == 0  # never even notices the divergence
        assert a.get(doc.unid).get("S") == b.get(doc.unid).get("S") == "skewed edit"

    def test_oid_versioning_detects_same_divergence(self, pair, clock):
        a, b = pair
        doc = a.create({"S": "base"})
        clock.advance(10)
        Replicator().replicate(a, b)
        clock.advance(1)
        b.update(doc.unid, {"S": "good edit"}, author="bob")
        clock.advance(1)
        a.update(doc.unid, {"S": "skewed edit"}, author="alice")
        clock.advance(1)
        stats = Replicator().replicate(a, b)
        assert stats.conflicts >= 1
