"""Benchmark smoke: a <60s sanity pass over the experiment shapes.

Runs shrunken versions of the headline experiment cells without the
pytest-benchmark timing machinery, so CI can assert the qualitative
claims (incremental beats full copy, the change feed examines the delta,
the cluster backlog drains) on every PR without paying for the full
sweeps. Run with::

    pytest benchmarks/bench_smoke.py -q
"""

from __future__ import annotations

import os
import random

from repro.bench.runners import (
    build_catchup_corpus,
    build_changefeed_db,
    build_deployment,
    catchup_view,
    populate,
)
from repro.cluster import ClusterReplicator
from repro.core import DeletionStub, Document, NotesDatabase
from repro.fulltext import FullTextIndex
from repro.replication import Replicator, converged
from repro.sim import VirtualClock
from repro.storage import StorageEngine


def test_smoke_incremental_beats_full_copy():
    deployment = build_deployment(2, seed=1)
    a, b = deployment.databases
    populate(a, 200, deployment.rng)
    deployment.clock.advance(1)
    rep = Replicator()
    rep.pull(b, a)
    deployment.clock.advance(1)
    for unid in deployment.rng.sample(a.unids(), 5):
        a.update(unid, {"Status": "edited"})
    deployment.clock.advance(1)
    incremental = rep.pull(b, a)
    full = rep.full_copy(b, a)
    assert incremental.docs_transferred == 5
    assert full.bytes_transferred > 10 * max(incremental.bytes_transferred, 1)
    assert converged([a, b])


def test_smoke_changefeed_examines_delta():
    db, mark_seq = build_changefeed_db(5_000, 50)
    docs, stubs = db.changed_since_seq(mark_seq)
    assert len(docs) == 50 and not stubs
    assert db.last_scan_cost <= 50
    db.changed_since_scan(mark_seq)
    assert db.last_scan_cost >= 5_000


def test_smoke_note_write_costs(tmp_path):
    """Storage cost counters: every note write path commits exactly one
    engine transaction and leaves one engine record per live or trashed
    doc or stub (plus the journal meta record), and an update of an
    N-byte note appends its redo image once — under N + 256 WAL bytes."""
    path = str(tmp_path / "costs")
    engine = StorageEngine(path)
    db = NotesDatabase("costs.nsf", clock=VirtualClock(),
                       rng=random.Random(4), engine=engine)
    commits = []
    commit = engine.commit

    def counted_commit(txn):
        commits.append(txn)
        commit(txn)

    engine.commit = counted_commit

    def write(apply):
        before = len(commits)
        db.clock.advance(1)
        result = apply()
        assert len(commits) == before + 1
        assert len(engine) == len(db) + len(db.stubs) + len(db.trash) + 1
        return result

    docs = [write(lambda: db.create({"Body": "x" * 4000})) for _ in range(6)]
    write(lambda: db.attach_file(docs[0].unid, "a.txt", b"attached"))
    gone = docs[1].copy()
    write(lambda: db.delete(gone.unid))
    gone.seq, gone.seq_time = gone.seq + 5, (db.clock.now + 1, 1)
    write(lambda: db.raw_put(gone))  # replaces the stub
    write(lambda: db.raw_put(Document("F" * 32, seq=2, seq_time=(1.0, 1),
                                      created=1.0, modified=1.0)))
    now = db.clock.now
    write(lambda: db.raw_delete(
        DeletionStub(docs[2].unid, 9, (now, 1), now, "remote")))
    write(lambda: db.delete(docs[3].unid))
    db.replication_seq[("partner", "send")] = db.update_seq
    write(db.purge_acknowledged_stubs)
    write(lambda: db.delete(docs[4].unid))
    write(lambda: db.purge_stubs(older_than=db.clock.now + 1))
    write(lambda: db.cutoff_delete(older_than=1.5))
    write(lambda: db.soft_delete(docs[5].unid))
    write(lambda: db.restore(docs[5].unid))

    wal_before = os.path.getsize(path + ".wal")
    write(lambda: db.update(docs[5].unid, {"Status": "edited"}))
    record_bytes = len(engine.get(b"doc:" + docs[5].unid.encode()))
    assert record_bytes > 4000
    assert os.path.getsize(path + ".wal") - wal_before < record_bytes + 256
    engine.close()


def test_smoke_replication_pass_scans_delta_only():
    deployment = build_deployment(2, seed=13)
    a, b = deployment.databases
    populate(a, 500, deployment.rng, body_bytes=64)
    deployment.clock.advance(1)
    rep = Replicator()
    rep.pull(b, a)
    deployment.clock.advance(1)
    for unid in deployment.rng.sample(a.unids(), 10):
        a.update(unid, {"Status": "tick"})
    deployment.clock.advance(1)
    stats = rep.pull(b, a)
    assert stats.docs_transferred == 10
    assert stats.docs_scanned <= 10


def test_smoke_cluster_backlog_drains():
    deployment = build_deployment(3, seed=7)
    a, b, c = deployment.databases
    cluster = ClusterReplicator(deployment.network)
    for member in deployment.databases:
        cluster.attach(member)
    a.create({"S": "live"})
    assert len(b) == len(c) == 1
    deployment.network.partition(a.server, c.server)
    deployment.network.partition(b.server, c.server)
    for index in range(5):
        a.create({"S": f"offline {index}"})
    assert len(b) == 6 and len(c) == 1
    assert cluster.backlog_size >= 5
    deployment.network.partition(a.server, c.server, partitioned=False)
    deployment.network.partition(b.server, c.server, partitioned=False)
    cluster.catch_up()
    assert len(c) == 6
    assert cluster.backlog_size == 0
    # The drain came from the update journal, not a queued-event table.
    assert cluster.stats.replayed >= 5


def test_smoke_segment_saves_append_then_fold(tmp_path):
    """E15 shape: a checkpoint save appends one segment per delta; the
    single-segment ablation folds everything back down every save."""
    from repro.storage import SINGLE_SEGMENT

    engine, db = build_catchup_corpus(str(tmp_path / "segs"), 300, 10)
    try:
        view = catchup_view(db)  # warm load + top-up
        index = FullTextIndex(db, persist=True)
        view.save_index()
        index.save_checkpoint()
        view_stats = view.catch_up.segment_stats["entries"]
        ft_stats = index.catch_up.segment_stats["docs"]
        # The save appended the 10-doc delta as a second segment instead
        # of rewriting the 300-entry base.
        assert view_stats.segments == 2
        assert view_stats.records_appended <= 310  # base + the delta
        assert ft_stats.segments == 2
        assert view.catch_up.merges == index.catch_up.merges == 0

        db.clock.advance(1)
        for unid in db.rng.sample(db.unids(), 10):
            db.update(unid, {"Subject": "fold me"})
        view.merge_policy = SINGLE_SEGMENT
        index.merge_policy = SINGLE_SEGMENT
        view.save_index()
        index.save_checkpoint()
        assert view_stats.segments == 1
        assert ft_stats.segments == 1
        assert view.catch_up.merges > 0 and view_stats.bytes_folded > 0
        assert index.catch_up.merges > 0 and ft_stats.bytes_folded > 0
        index.close()
        view.close()
    finally:
        engine.close()


def test_smoke_catchup_rides_the_delta(tmp_path):
    """E14 shape: every seq-checkpointed consumer tops up from the journal."""
    engine, db = build_catchup_corpus(str(tmp_path / "smoke"), 300, 10)
    try:
        view = catchup_view(db, mode="manual", persist=False)
        baseline = catchup_view(
            db, mode="manual", persist=False, journal=False
        )
        db.clock.advance(1)
        for unid in db.rng.sample(db.unids(), 10):
            db.update(unid, {"Subject": "smoke edit"})
        assert view.refresh() == "topup"
        assert view.rebuilds == 1  # the constructor's, none since
        assert baseline.refresh() == "rebuild"
        assert view.all_unids() == baseline.all_unids()

        warm = FullTextIndex(db, persist=True)
        assert warm.loaded_from_disk
        assert warm.catch_up.last_path == "topup"
        # Both deltas (the corpus's 10 and ours) replay; the 300-doc
        # base segment does not.
        assert warm.catch_up.notes_replayed <= 20
        assert len(warm.search("smoke")) == 10
        warm.close()
        view.close()
        baseline.close()
    finally:
        engine.close()


def test_smoke_faulty_replication_resumes_from_cursor():
    """E16 shape: under an identical seeded fault plan the resumable
    replicator converges at the fault-free wire cost while the
    all-or-nothing ablation re-ships interrupted exchanges."""
    from benchmarks.bench_e16_faults import run_cell

    res = run_cell(0.3, resumable=True)
    abl = run_cell(0.3, resumable=False)
    assert res[6]  # converged despite drops and mid-exchange aborts
    assert res[5] > 0  # cursors actually checkpointed mid-pass
    assert abl[1] > res[1]  # the ablation paid for its restarts
    assert run_cell(0.3, resumable=True) == res  # seed => same run
