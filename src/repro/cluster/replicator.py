"""The event-driven cluster replicator.

Subscribes to every member replica; each local change is pushed at once to
the other members (with the same originator-id comparison the scheduled
replicator uses, so echoes and races resolve identically). Pushes to an
unreachable member stall that link; ``catch_up`` is the cluster-join/
restart path that drains stalled links.

Every push — live, drained or seeding a new member — sends one note's
*current* state on the origin: its document, its deletion stub, or its
document in the trash, which the target mirrors into its own trash (a
soft delete on one member is a soft delete on every member, and a restore
brings it back everywhere). Because soft deletes and restores are journaled
writes like any other, the backlog *is* the database's update-sequence
journal: a stalled link keeps only the origin seq it last drained, and
``catch_up`` replays ``journal_entries_since`` past that cursor — O(1)
state per link however many changes pile up during the outage, with a
drain bounded by the number of distinct changed notes. Cutoff trims drop
notes without a journal entry and stay local to the member that trimmed.

Successful pushes acknowledge the origin's ``update_seq`` into
``replication_seq[(target, "send")]`` — the same ledger scheduled
replication uses — which is what makes seq-acknowledged stub purging safe
inside a cluster: a stub may only be purged once every known partner's
acknowledged seq has passed it, and a stalled link stops acknowledging
until its drain completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.core.database import DeletionStub, NotesDatabase
from repro.core.document import Document
from repro.errors import LinkFailure
from repro.replication.conflicts import ConflictPolicy, detect, resolve
from repro.replication.network import SimulatedNetwork

_STUB_WIRE_SIZE = 96


@dataclass
class ClusterReplicationStats:
    pushes: int = 0
    queued: int = 0
    drained: int = 0
    replayed: int = 0
    conflicts: int = 0
    bytes_pushed: int = 0
    catch_up_seconds: float = 0.0
    # Pushes/drains a link fault killed; the link (re-)stalls and the
    # next catch_up resumes from its advanced seq cursor.
    interrupted: int = 0
    push_latency: list[float] = field(default_factory=list)


class ClusterReplicator:
    """Keeps a family of cluster replicas synchronized in near-real-time."""

    def __init__(
        self,
        network: SimulatedNetwork,
        conflict_policy: ConflictPolicy = ConflictPolicy.CONFLICT_DOC,
    ) -> None:
        self.network = network
        self.conflict_policy = conflict_policy
        self.stats = ClusterReplicationStats()
        self._members: list[NotesDatabase] = []
        # (source server, target server) -> origin seq last known pushed.
        # A link appears here only while stalled; catch_up replays the
        # journal suffix past the cursor and removes it.
        self._stalled: dict[tuple[str, str], int] = {}
        self._pushing = False

    # -- membership -----------------------------------------------------

    def attach(self, db: NotesDatabase) -> None:
        """Add a replica to the cluster-replication family.

        Every member pair is registered in ``replication_seq`` at ack 0,
        so seq-acknowledged stub purging knows the partner exists *before*
        the first push — a stub can never be purged out from under a
        cluster mate that has acknowledged nothing yet.
        """
        if self._members and db.replica_id != self._members[0].replica_id:
            from repro.errors import ClusterError

            raise ClusterError("cluster replicas must share a replica id")
        for member in self._members:
            member.replication_seq.setdefault((db.server, "send"), 0)
            db.replication_seq.setdefault((member.server, "send"), 0)
        self._members.append(db)
        db.subscribe(self._make_handler(db))

    def _make_handler(self, origin: NotesDatabase):
        def handler(kind, payload, old) -> None:
            if self._pushing:
                return  # change caused by a cluster push: do not echo
            note = origin.note(payload.unid)
            if note is not None:  # None: a cutoff trim, which stays local
                self._push_all(origin, note)

        return handler

    # -- pushing ----------------------------------------------------------

    def _push_all(
        self, origin: NotesDatabase, note: Document | DeletionStub
    ) -> None:
        for member in self._members:
            if member is origin:
                continue
            link = (origin.server, member.server)
            if self.network.is_reachable(*link):
                try:
                    self.network.begin_attempt(*link)
                    self._push(origin, member, note)
                except LinkFailure:
                    # The push died on the wire (drop/flap/abort): stall
                    # the link as if the member had been unreachable.
                    self.stats.interrupted += 1
                else:
                    if link not in self._stalled:
                        self._ack(origin, member)
                    continue
            # Stall the link at the seq *before* this change (the notify
            # runs after the journal append, so update_seq is this
            # change's seq).
            self._stalled.setdefault(link, origin.update_seq - 1)
            self.stats.queued += 1

    def _ack(self, origin: NotesDatabase, target: NotesDatabase) -> None:
        """Record that ``target`` holds everything up to origin's seq."""
        origin.replication_seq[(target.server, "send")] = origin.update_seq

    def _push(
        self,
        origin: NotesDatabase,
        target: NotesDatabase,
        note: Document | DeletionStub,
    ) -> None:
        """Bring ``target``'s copy of one note to ``note``, the origin's
        current state: a stub deletes an older revision; a document
        revision installs over an older one or resolves a conflict; then
        the target's trash follows the origin's."""
        self._pushing = True
        try:
            local = target.note(note.unid)
            if isinstance(note, DeletionStub):
                if not isinstance(local, Document) or (
                    note.seq, tuple(note.seq_time)
                ) > (local.seq, tuple(local.seq_time)):
                    self._transfer(origin, target, _STUB_WIRE_SIZE)
                    target.raw_delete(note)
                return
            relation = (
                detect(local, note) if isinstance(local, Document) else "new"
            )
            if relation in ("new", "incoming_newer"):
                self._transfer(origin, target, note.size())
                target.raw_put(note.copy())
            elif relation == "conflict":
                self._transfer(origin, target, note.size())
                resolve(target, local, note.copy(), self.conflict_policy)
                self.stats.conflicts += 1
            trashed = note.unid not in origin
            if (note.unid in target) == trashed:
                self._transfer(origin, target, _STUB_WIRE_SIZE)
                target.raw_trash(note.unid, trashed)
        finally:
            self._pushing = False

    def _transfer(
        self, origin: NotesDatabase, target: NotesDatabase, nbytes: int
    ) -> None:
        self._account(
            self.network.transfer(origin.server, target.server, nbytes), nbytes
        )

    def _account(self, latency: float, nbytes: int) -> None:
        self.stats.pushes += 1
        self.stats.bytes_pushed += nbytes
        self.stats.push_latency.append(latency)

    # -- catch-up after failure ------------------------------------------

    def catch_up(self) -> int:
        """Drain every stalled link that is reachable again.

        Per link this is one ``journal_entries_since(cursor)`` call — a
        binary search plus a walk over the notes actually changed during
        the outage. The *current* state of each note is pushed, so
        repeated edits to one note during the outage cost a single
        transfer.

        Drains are *resumable*: the link's seq cursor advances after
        every pushed entry, so a drain killed mid-flight by a link fault
        leaves the link stalled at its progress point and the next
        ``catch_up`` replays only what is still missing — never the whole
        outage again. Returns the number of changes applied; a completed
        drain acknowledges the origin's seq so stub purging may proceed.
        """
        started = perf_counter()
        drained = 0
        for link, cursor in list(self._stalled.items()):
            if not self.network.is_reachable(*link):
                continue
            source = self._member_on(link[0])
            target = self._member_on(link[1])
            if source is None or target is None:
                continue
            try:
                self.network.begin_attempt(*link)
                for seq, note in source.journal_entries_since(cursor):
                    self._push(source, target, note)
                    self._stalled[link] = seq  # the drain's resume point
                    drained += 1
                del self._stalled[link]
                self._ack(source, target)
            except LinkFailure:
                # Fault mid-drain: the link stays stalled at the cursor
                # it reached; the next catch_up resumes from there.
                self.stats.interrupted += 1
        self.stats.drained += drained
        self.stats.replayed += drained
        self.stats.catch_up_seconds += perf_counter() - started
        return drained

    def seed(self, origin: NotesDatabase, target: NotesDatabase) -> None:
        """Copy every note ``origin`` holds onto a new member ``target``:
        the same push as a drain, from the start of the journal."""
        for _, note in origin.journal_entries_since(0):
            self._push(origin, target, note)

    def _member_on(self, server: str) -> NotesDatabase | None:
        for member in self._members:
            if member.server == server:
                return member
        return None

    @property
    def backlog_size(self) -> int:
        """Distinct notes awaiting drain across all stalled links,
        computed from the journal suffix past each link's cursor — the
        replicator itself stores no per-note backlog state."""
        total = 0
        for link, cursor in self._stalled.items():
            source = self._member_on(link[0])
            if source is not None:
                total += len(source.journal_entries_since(cursor))
        return total
