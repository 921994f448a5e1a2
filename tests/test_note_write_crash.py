"""Crash injection for every note write path: kill the engine at each of
its write points inside one database write, recover, and require the
reopened database to hold exactly the state before or after the write.

A note is one engine record carrying its journal seq, and each write path
commits one engine transaction, so no crash point can leave a half-applied
write — in particular a delete can never lose both the document and its
stub (which would let a partner resurrect the document).

The database stays small and the engine is checkpointed before arming, so
the buffer pool evicts nothing during the write under test.
"""

import random

import pytest

from repro.core import DeletionStub, Document, NotesDatabase
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from tests.test_segments_crash import CrashPoint, arm


def build(path):
    """Deterministic durable database: live docs, a stub, a document in
    the trash, a partner ack."""
    engine = StorageEngine(path)
    db = NotesDatabase("writes.nsf", clock=VirtualClock(),
                       rng=random.Random(3), engine=engine)
    for index in range(8):
        db.clock.advance(1)
        db.create({"Subject": f"note {index}", "Body": "x" * (40 * index)})
    db.clock.advance(1)
    gone = db.unids()[1]
    revived = db.get(gone).copy()
    db.delete(gone)
    db.soft_delete(db.unids()[-1])
    db.clock.advance(100)
    db.replication_seq[("partner", "send")] = db.update_seq
    engine.checkpoint()
    return engine, db, revived


def remote_stub(db):
    doc = db.get(db.unids()[2])
    now, tick = db.clock.timestamp()
    return DeletionStub(doc.unid, doc.seq + 1, (now, tick), now, "remote")


def revived_doc(revived):
    revived.seq += 5
    revived.seq_time = (500.0, 1)
    return revived


def foreign_doc():
    return Document("F" * 32, seq=4, seq_time=(2.0, 1), created=1.0,
                    modified=2.0)


WRITES = {
    "create": lambda db, revived: db.create({"Subject": "fresh"}),
    "update": lambda db, revived: db.update(db.unids()[0], {"Subject": "v2"}),
    "attach_file": lambda db, revived: db.attach_file(
        db.unids()[0], "notes.txt", b"attached bytes"),
    "delete": lambda db, revived: db.delete(db.unids()[0]),
    "raw_put_new": lambda db, revived: db.raw_put(foreign_doc()),
    "raw_put_over_stub": lambda db, revived: db.raw_put(revived_doc(revived)),
    "raw_delete": lambda db, revived: db.raw_delete(remote_stub(db)),
    "soft_delete": lambda db, revived: db.soft_delete(db.unids()[0]),
    "restore": lambda db, revived: db.restore(db.trash[0]),
    "cutoff_delete": lambda db, revived: db.cutoff_delete(older_than=4.5),
    "purge_acknowledged_stubs": lambda db, revived: db.purge_acknowledged_stubs(),
    "purge_stubs": lambda db, revived: db.purge_stubs(older_than=1000.0),
}


def state(db):
    return (db.state_fingerprint(), frozenset(db.unids()),
            frozenset(db.stubs))


def run(tmp_path, name, fail_at=None):
    """Build, checkpoint, arm and run one write; returns the engine, the
    database, the pre-write state and the write-point count."""
    path = str(tmp_path / f"{name}-{fail_at}")
    engine, db, revived = build(path)
    before = state(db)
    counter = arm(engine, fail_at)
    if fail_at is None:
        WRITES[name](db, revived)
    else:
        with pytest.raises(CrashPoint):
            WRITES[name](db, revived)
    return path, engine, db, before, counter["n"]


def recovered_state(path, engine):
    """Crash ``engine``, reopen the files and read back the state."""
    engine.simulate_crash()
    recovered = StorageEngine(path)
    try:
        return state(NotesDatabase("writes.nsf", clock=VirtualClock(),
                                   rng=random.Random(99), engine=recovered))
    finally:
        recovered.close()


@pytest.mark.parametrize("name", sorted(WRITES))
def test_every_write_point_recovers_before_or_after(tmp_path, name):
    path, engine, db, before, total = run(tmp_path, name)
    after = state(db)
    assert after != before  # the write really changes something
    # A crash right after the write returns keeps all of it.
    assert recovered_state(path, engine) == after
    assert total >= 2
    for fail_at in range(1, total + 1):
        path, engine, _, _, _ = run(tmp_path, name, fail_at)
        assert recovered_state(path, engine) in (before, after), fail_at
