"""``nsf_writes``: a Notes client writing to one durable NSF.

A ``StorageEngine`` with ``durability="wal"`` (the log is fsynced on every
commit) and the default 256-page buffer pool carries a database with a
persisted categorized view, a persisted full-text index and an ON_CREATE
formula agent. Set-up bulk-loads the preloaded documents without the log,
then opens the NSF durably. The client creates, updates and deletes
documents whose bodies range from 120 B to 6 KB, with Zipf-skewed update
targets. Every ``CHECKPOINT_EVERY`` operations the sidecars are saved and
the engine takes a sharp checkpoint, standing in for the server's
background checkpoints. After the loop the space is measured at a
checkpoint, the client writes on, the server shuts down (the engine closes
cleanly; the view and full-text index keep their last saved checkpoints)
and a timed restart follows, in which both catch up from the journal.

With ``CRASH`` set (``run.py --crash``) the shutdown is a simulated crash
instead, so the restart redoes the log. That path fails on the current
engine (see README.md, "Defects the benchmark exposes"), which is why the
benchmark's own runs shut down cleanly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from time import perf_counter

from gen import Zipf, body, log_uniform_sizes, vocabulary
from repro.agents import Agent, AgentRunner, AgentTrigger
from repro.core import NotesDatabase
from repro.fulltext import FullTextIndex
from repro.sim import VirtualClock, derive_rng
from repro.storage import PAGE_SIZE, StorageEngine
from repro.views import SortOrder, View, ViewColumn

NAME = "nsf_writes"
# Client operations per traced / untraced block; 25 blocks per checkpoint
# cycle, so the cycle's save and checkpoint alternate between the halves.
TRACE_BLOCK = 40
WINDOW = 1000  # operations per throughput window: one checkpoint cycle
COUNT_OPS = 3000  # operations of a --counts run
# Counts that must repeat exactly for one seed and operation count.
COUNTS = ("storage.pages_per_live_record", "storage.wal_bytes_per_commit",
          "log_bytes_per_write", "storage.pool_evictions",
          "storage.recovery_records_scanned", "views.catch_up_notes",
          "fulltext.catch_up_notes", "views.segment_merges",
          "fulltext.segment_merges", "space_amp", "pages", "live_docs")
PRELOAD_DOCS = 3000
VOCABULARY = 2000
BODY_POOL = 256
BODY_BYTES = (120, 6000)
CATEGORIES = 24
# Shares of creates and deletes; the rest are updates. Equal shares keep
# the live set near its preloaded size however long the run.
CREATE_SHARE = 0.2
DELETE_SHARE = 0.2
CHECKPOINT_EVERY = 1000
# After the loop: a checkpoint, then this many untimed operations, then the
# shutdown, so the sidecars always have the same amount of work to catch up
# (and, with CRASH, the log the same amount of work to redo).
SHUTDOWN_AFTER = 500
# Shut down by a simulated crash instead of a clean engine close.
CRASH = False
SELECTION = 'SELECT Form = "Memo"'
COLUMNS = [
    ViewColumn(title="Category", item="Category", categorized=True),
    ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
]


class Inputs:
    """Everything the workload will write, drawn from the seed alone."""

    def __init__(self, seed: int) -> None:
        rng = derive_rng(seed, NAME, "inputs")
        self.seed = seed
        self.words = vocabulary(rng, VOCABULARY)
        zipf = Zipf(len(self.words))
        self.bodies = [
            body(rng, self.words, zipf, size)
            for size in log_uniform_sizes(rng, *BODY_BYTES, BODY_POOL)
        ]
        self.categories = [f"cat{index:02d}" for index in range(CATEGORIES)]
        self.preload = [self.memo(rng) for _ in range(PRELOAD_DOCS)]

    def memo(self, rng: random.Random) -> dict:
        return {
            "Form": "Memo",
            "Category": rng.choice(self.categories),
            "Subject": " ".join(rng.sample(self.words[:400], 4)),
            "Body": rng.choice(self.bodies),
        }


class State:
    def __init__(self, inputs: Inputs, workdir: str) -> None:
        if os.path.exists(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        self.inputs = inputs
        self.workdir = workdir
        self.path = os.path.join(workdir, "mail.nsf")
        self.clock = VirtualClock()
        # unid -> the user items last written (for the live-data size).
        self.live: dict[str, dict] = {}
        self.order: list[str] = []  # live unids; update targets rank here
        self._load(inputs)
        self._open("open")
        self.rng = derive_rng(inputs.seed, NAME, "ops")
        self.zipf = Zipf(PRELOAD_DOCS)
        self.ops = 0
        self.wal_bytes = 0
        self.pool_start = _pool_counters(self.engine)

    def _load(self, inputs: Inputs) -> None:
        """Bulk-load the preloaded documents without the log (as when a
        database copy is made), build and save the indexes, close."""
        engine = StorageEngine(self.path, durability="none")
        db = NotesDatabase("nsf", clock=self.clock, server="notes1",
                           rng=derive_rng(inputs.seed, NAME, "unids"),
                           engine=engine)
        _add_agent(db)
        for items in inputs.preload:
            self.clock.advance(1)
            doc = db.create(items, author="client/Acme")
            self.live[doc.unid] = items
            self.order.append(doc.unid)
        View(db, "ByCategory", SELECTION, COLUMNS, persist=True)
        FullTextIndex(db, persist=True)
        db.save_checkpoints()
        engine.checkpoint()
        engine.close()

    def _open(self, purpose: str) -> None:
        """Open the NSF durably with its persisted view, full-text index and
        agent, as the server does."""
        start = perf_counter()
        self.engine = StorageEngine(self.path, durability="wal")
        self.recovery_ms = (perf_counter() - start) * 1000.0  # incl. redo
        self.engine_open = True
        self.db = NotesDatabase(
            "nsf", clock=self.clock, server="notes1",
            rng=derive_rng(self.inputs.seed, NAME, purpose),
            engine=self.engine)
        self.view = View(self.db, "ByCategory", SELECTION, COLUMNS,
                         persist=True)
        self.index = FullTextIndex(self.db, persist=True)
        self.runner = _add_agent(self.db)


def _add_agent(db: NotesDatabase) -> AgentRunner:
    runner = AgentRunner(db)
    runner.add(Agent(name="intake", trigger=AgentTrigger.ON_CREATE,
                     selection=SELECTION, formula='FIELD Status := "new"'))
    return runner


def setup(inputs: Inputs, workdir: str, tracer=None) -> State:
    return State(inputs, workdir)


def discard(state: State) -> None:
    """Drop an unused set-up without the cost of a clean close, and its
    files, outside the timed set-up of the next one."""
    if state.engine_open:
        state.engine.simulate_crash()
        state.engine_open = False
    shutil.rmtree(state.workdir, ignore_errors=True)


def trace(state: State, tracer) -> None:
    """Shim the layer boundaries of this workload's objects."""
    tracer.wrap(state.engine, "put", "storage.put")
    tracer.wrap(state.engine, "delete", "storage.put")
    tracer.wrap(state.engine, "commit", "storage.commit")
    tracer.wrap(state.engine, "checkpoint", "storage.checkpoint")
    for method in ("create", "update", "delete"):
        tracer.wrap(state.db, method, f"core.{method}")
    tracer.reroute_observers(state.db, [
        (state.view._on_change, "views.maintain"),
        (state.index._on_change, "fulltext.index"),
        (state.runner._on_change, "agents.run"),
    ])
    tracer.reroute_checkpointers(state.db, [
        (state.view.save_index, "views.save"),
        (state.index.save_checkpoint, "fulltext.save"),
    ])
    # The view and the agent share one memoized compiled selection.
    from repro.formula import compile_formula

    tracer.wrap(compile_formula(SELECTION), "run", "formula.select")


def op(state: State, rec) -> None:
    """One client write; every CHECKPOINT_EVERY operations also the
    background sidecar save and engine checkpoint."""
    rng = state.rng
    state.clock.advance(1)
    wal_before = _size(state.path + ".wal")
    draw = rng.random()
    if draw < CREATE_SHARE or not state.order:
        items = state.inputs.memo(rng)
        doc = rec.write(state.db.create, items, author="client/Acme")
        state.live[doc.unid] = items
        state.order.append(doc.unid)
    elif draw < CREATE_SHARE + DELETE_SHARE:
        position = rng.randrange(len(state.order))
        unid = state.order[position]
        state.order[position] = state.order[-1]
        state.order.pop()
        rec.write(state.db.delete, unid, author="client/Acme")
        del state.live[unid]
    else:
        unid = state.order[state.zipf.draw(rng) % len(state.order)]
        changes = {
            "Subject": " ".join(rng.sample(state.inputs.words[:400], 4)),
            "Body": rng.choice(state.inputs.bodies),
        }
        rec.write(state.db.update, unid, changes, author="client/Acme")
        state.live[unid] = {**state.live[unid], **changes}
    state.ops += 1
    background = state.ops % CHECKPOINT_EVERY == 0
    if background:
        state.db.save_checkpoints()
    # Log growth, measured before the checkpoint truncates the log.
    state.wal_bytes += _size(state.path + ".wal") - wal_before
    if background:
        state.engine.checkpoint()


class _Untimed:
    """A recorder that only makes the calls."""

    def write(self, call, *args, **kwargs):
        return call(*args, **kwargs)


def _pool_counters(engine) -> tuple[int, int, int]:
    """(hits, misses, evictions) of the engine's buffer pool. The engine
    exports no statistics call, so this reads the pool's own counters."""
    pool = engine._pool
    return pool.hits, pool.misses, pool.evictions


def finish(state: State, rec, tracer) -> dict:
    """Space after a checkpoint, then a shutdown in mid-cycle, a timed
    restart and the equivalence checks."""
    hits, misses, evictions = (
        now - then for now, then in
        zip(_pool_counters(state.engine), state.pool_start))
    report = {
        "views.segment_merges": state.view.catch_up.merges,
        "fulltext.segment_merges": state.index.catch_up.merges,
        "log_bytes_per_write": state.wal_bytes / max(rec.writes, 1),
        "storage.pool_hit_ratio": hits / max(hits + misses, 1),
        "storage.pool_evictions": evictions,
    }
    if tracer is not None:  # only the traced run counts commits
        report["storage.wal_bytes_per_commit"] = (
            state.wal_bytes / max(tracer.calls["storage.commit"], 1))
    # What a clean close leaves on disk: sidecars saved, heap flushed,
    # index persisted, log truncated (close() adds only closing the files).
    state.db.save_checkpoints()
    state.engine.checkpoint()
    pages = _size(state.path + ".pages") // PAGE_SIZE
    on_disk = sum(_size(state.path + suffix)
                  for suffix in (".pages", ".wal", ".chk"))
    live_bytes = sum(len(json.dumps(items).encode())
                     for items in state.live.values())
    report["space_amp"] = on_disk / live_bytes
    report["storage.pages_per_live_record"] = pages / len(state.engine)
    report["pages"] = pages
    report["live_docs"] = len(state.live)
    try:
        # Untimed operations half a cycle past that checkpoint, so the
        # sidecars (and with CRASH the log) hold work when the shutdown
        # comes.
        state.ops = 0
        for _ in range(SHUTDOWN_AFTER):
            op(state, _Untimed())
        fingerprint = state.db.state_fingerprint()
        if CRASH:
            state.engine.simulate_crash()
        else:
            # The NSF closes cleanly (sharp checkpoint); the view and the
            # full-text index are not saved, as when the server stops
            # between two background saves.
            state.engine.close()
        state.engine_open = False
        failures = _reopen_and_check(state, report, fingerprint)
    except Exception as exc:  # e.g. a recovery that cannot open the NSF
        failures = [f"shutdown and reopen failed: {type(exc).__name__}: "
                    f"{exc}"]
    return {"report": report, "failures": failures}


def _reopen_and_check(state: State, report: dict, fingerprint: str) -> list:
    """Timed restart, then equivalence with the state before the shutdown
    and with fresh rebuilds."""
    state.recovery_ms = None
    start = perf_counter()
    try:
        state._open("reopen")
    finally:
        if state.recovery_ms is not None:  # the engine's redo completed
            report["storage.recovery_ms"] = state.recovery_ms
            report["storage.recovery_records_scanned"] = (
                state.engine.last_recovery.records_scanned)
    report["restart_s"] = perf_counter() - start
    report["views.catch_up_notes"] = state.view.catch_up.notes_replayed
    report["fulltext.catch_up_notes"] = state.index.catch_up.notes_replayed

    failures = []
    db = state.db
    if db.state_fingerprint() != fingerprint:
        failures.append("reopened fingerprint differs from the state before "
                        "the shutdown")
    if set(db.unids()) != set(state.live):
        failures.append("live documents differ from acknowledged writes")
    fresh_view = View(db, "ByCategoryFresh", SELECTION, COLUMNS)
    if [(row.unid, row.values) for row in state.view.entries()] != [
            (row.unid, row.values) for row in fresh_view.entries()]:
        failures.append("reopened view differs from a fresh rebuild")
    fresh_view.close()
    fresh_index = FullTextIndex(db)
    if state.index.postings_snapshot() != fresh_index.postings_snapshot():
        failures.append("reopened full-text index differs from a rebuild")
    fresh_index.close()
    return failures


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0
