"""Tests for NotesDatabase persistence over the storage engine."""

import json
import random

import pytest

from repro.core import NotesDatabase
from repro.errors import DatabaseError
from repro.sim import VirtualClock
from repro.storage import StorageEngine


@pytest.fixture
def store(tmp_path):
    def open_db(seed=1):
        engine = StorageEngine(str(tmp_path / "nsf"))
        clock = VirtualClock()
        db = NotesDatabase(
            "persist.nsf", clock=clock, rng=random.Random(seed), engine=engine
        )
        return engine, db

    return open_db


class TestPersistence:
    def test_documents_survive_clean_close(self, store):
        engine, db = store()
        doc = db.create({"Subject": "kept", "Amount": 5})
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 1
        fresh = reloaded.get(doc.unid)
        assert fresh.get("Subject") == "kept"
        assert fresh.get("Amount") == 5
        assert fresh.seq == doc.seq

    def test_updates_persisted(self, store):
        engine, db = store()
        doc = db.create({"S": "v1"})
        db.update(doc.unid, {"S": "v2"})
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.get(doc.unid).get("S") == "v2"
        assert reloaded.get(doc.unid).seq == 2

    def test_stubs_persisted(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.delete(doc.unid)
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 0
        assert doc.unid in reloaded.stubs

    def test_trash_survives_clean_close(self, store):
        engine, db = store()
        db.create({"S": "kept"})
        trashed = db.create({"S": "trashed"})
        db.soft_delete(trashed.unid)
        before = db.state_fingerprint()
        db.close()
        _, reloaded = store(seed=2)
        assert reloaded.trash == [trashed.unid]
        assert trashed.unid not in reloaded
        assert reloaded.state_fingerprint() == before
        reloaded.restore(trashed.unid)
        assert reloaded.get(trashed.unid).get("S") == "trashed"

    def test_crash_recovery_keeps_documents(self, store):
        engine, db = store()
        doc = db.create({"Subject": "pre-crash"})
        engine.simulate_crash()
        _, recovered = store(seed=2)
        assert recovered.get(doc.unid).get("Subject") == "pre-crash"

    def test_deleted_doc_gone_after_crash(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.delete(doc.unid)
        engine.simulate_crash()
        _, recovered = store(seed=2)
        assert doc.unid not in recovered
        assert doc.unid in recovered.stubs

    def test_revision_history_survives(self, store):
        engine, db = store()
        doc = db.create({"S": "1"})
        for index in range(5):
            db.clock.advance(1)
            db.update(doc.unid, {"S": str(index)})
        revisions = list(db.get(doc.unid).revisions)
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.get(doc.unid).revisions == revisions

    def test_many_documents_roundtrip(self, store):
        engine, db = store()
        expected = {}
        for index in range(100):
            doc = db.create({"Subject": f"doc {index}", "N": index})
            expected[doc.unid] = index
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 100
        for unid, number in expected.items():
            assert reloaded.get(unid).get("N") == number


class TestNoteRecordFormat:
    def test_one_record_per_note_carrying_its_seq(self, store):
        engine, db = store()
        kept = db.create({"S": "kept"})
        gone = db.create({"S": "gone"})
        db.delete(gone.unid)
        assert sorted(engine.keys()) == sorted(
            [b"doc:" + kept.unid.encode(), b"stub:" + gone.unid.encode(),
             b"meta:journal"]
        )
        record = json.loads(engine.get(b"stub:" + gone.unid.encode()))
        assert record["journal_seq"] == db.update_seq

    @pytest.mark.parametrize("prefix", [b"doc:", b"stub:"])
    def test_record_without_journal_seq_is_a_typed_error(self, store, prefix):
        engine, db = store()
        doc = db.create({"S": "x"})
        if prefix == b"stub:":
            db.delete(doc.unid)
        key = prefix + doc.unid.encode()
        record = json.loads(engine.get(key))
        del record["journal_seq"]
        engine.set(key, json.dumps(record).encode())
        engine.close()
        with pytest.raises(DatabaseError, match=key.decode()):
            store(seed=2)
