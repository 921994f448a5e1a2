"""One catch-up protocol for every structure derived from a database.

A view index and the full-text index stay current the same way: live, by
a change notification per write; after a restart or a deferred batch, by
replaying the update journal past a checkpoint. :class:`JournalConsumer`
owns that protocol once. A subclass supplies only what differs:

* ``forget(unid)`` and ``reindex(doc)``, the per-note step;
* ``_rebuild_index()``, the from-scratch fallback (returns the entry count);
* its sidecar: ``_save()``; ``_read_meta()``, the meta record, or None
  when there is none it can use (absent, another design, an old layout);
  ``_load_segments(meta)``, which loads the entries ``meta`` names and
  returns False when one is lost.

The checkpoint is ``(journal_id, indexed_seq, indexed_purge_seq)``. Every
write, soft deletes and restores included, takes a journal seq, so
replaying a checkpoint means: forget each note the purge log dropped since
``indexed_purge_seq``, then take each note of the journal suffix past
``indexed_seq`` and reindex it if the database still holds it live, else
forget it. A checkpoint cut from another journal, ahead of this one, or
older than the retained purge log cannot be replayed, and the consumer
rebuilds.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document
from repro.core.stats import CatchUpStats


class JournalConsumer:
    """Base of the derived structures that follow one database's journal.

    ``mode="auto"`` applies every change notification as it happens;
    ``"manual"`` catches up on :meth:`refresh`. ``persist`` keeps the
    structure in a sidecar of the database's storage engine, reopened
    from its checkpoint. ``journal=False`` is the ablation baseline: a
    stale sidecar or a manual refresh always rebuilds.
    """

    def __init__(
        self, db: NotesDatabase, mode: str, persist: bool, journal: bool
    ) -> None:
        self.db = db
        self.mode = mode
        self.persist = persist
        self.journal = journal
        self.rebuilds = 0
        self.incremental_ops = 0
        self.loaded_from_disk = False
        self.catch_up = CatchUpStats()
        # The journal position the structure reflects.
        self._checkpoint: tuple = ("", -1, 0)

    def _open(self) -> None:
        """Subscribe, register the sidecar save, then load or rebuild.
        Called last by the subclass constructor."""
        if self.mode == "auto":
            self.db.subscribe(self._on_change)
        if self.persist:
            self.db.register_checkpointer(self._save)
        if not (self.persist and self._load_checkpoint()):
            self.rebuild()

    def close(self) -> None:
        """Detach from database events; save the sidecar when persistent."""
        if self.persist:
            self._save()
            self.db.unregister_checkpointer(self._save)
        if self.mode == "auto":
            self.db.unsubscribe(self._on_change)

    # -- the protocol ------------------------------------------------------

    def _position(self) -> tuple:
        db = self.db
        return (db.journal_id, db.update_seq, db.purge_seq)

    def _mark_indexed(self) -> None:
        """Stamp the checkpoint: the structure reflects the database now."""
        self._checkpoint = self._position()

    def _checkpoint_fields(self) -> dict:
        """The checkpoint as sidecar meta fields. An ``auto`` consumer has
        applied every change, so it stamps the current position first; a
        ``manual`` one saves what it last caught up to."""
        if self.mode == "auto":
            self._mark_indexed()
        journal_id, seq, purge_seq = self._checkpoint
        return {"journal_id": journal_id, "indexed_seq": seq,
                "indexed_purge_seq": purge_seq}

    def _purges_since(self, checkpoint: tuple) -> list | None:
        """The purge events to replay from ``checkpoint``, or None when it
        cannot be replayed (journal off, another journal, a seq this
        journal never reached, a purge log that no longer reaches back)."""
        journal_id, seq, purge_seq = checkpoint
        db = self.db
        if not self.journal or journal_id != db.journal_id:
            return None
        if seq > db.update_seq:
            return None
        return db.purges_since(purge_seq)

    def _apply(self, unid: str) -> None:
        """The per-note step: reindex a live document, forget the rest."""
        doc = self.db.try_get(unid)
        if doc is None:
            self.forget(unid)
        else:
            self.reindex(doc)

    def _on_change(self, kind: ChangeKind, payload, old: Document | None) -> None:
        self.incremental_ops += 1
        self._apply(payload.unid)

    def _catch_up_from_journal(self) -> bool:
        """Replay the purges and the journal suffix past the checkpoint;
        False when the checkpoint cannot be replayed. O(log n + changes),
        ending in exactly the state a rebuild would produce."""
        purges = self._purges_since(self._checkpoint)
        if purges is None:
            return False
        started = perf_counter()
        for _, unid in purges:
            self.forget(unid)
        entries = self.db.journal_entries_since(self._checkpoint[1])
        for _, note in entries:
            self._apply(note.unid)
        self._mark_indexed()
        self.catch_up.record_topup(
            len(entries), len(purges), perf_counter() - started
        )
        return True

    def _load_checkpoint(self) -> bool:
        """Load the sidecar and replay the journal past its checkpoint.

        A checkpoint at the database's current position loads as-is (also
        with ``journal=False``). A stale one loads only when it can be
        replayed. Returns False (the caller rebuilds) otherwise.
        """
        meta = self._read_meta()
        if meta is None:
            return False
        saved = (meta.get("journal_id"), meta.get("indexed_seq"),
                 meta.get("indexed_purge_seq"))
        current = saved == self._position()
        if not current and self._purges_since(saved) is None:
            return False
        if not self._load_segments(meta):
            return False
        self._checkpoint = saved
        if current:
            self.catch_up.record_noop()
        else:
            self._catch_up_from_journal()
        self.loaded_from_disk = True
        return True

    def rebuild(self) -> int:
        """Discard and rebuild from every live document; returns the
        number of entries."""
        started = perf_counter()
        count = self._rebuild_index()
        self.rebuilds += 1
        self._mark_indexed()
        self.catch_up.record_rebuild(perf_counter() - started)
        return count

    def refresh(self) -> str:
        """Bring a ``manual`` consumer up to date; report which path ran.

        ``"noop"`` when nothing was written since the checkpoint (and
        always in ``auto`` mode, which rides the notifications),
        ``"topup"`` for a journal replay of only the notes sequenced past
        it, ``"merge"`` for a top-up of a persistent consumer whose
        checkpoint save also folded sidecar segments, and ``"rebuild"``
        when the checkpoint cannot be replayed (always with
        ``journal=False``). ``rebuilds`` counts only the last.
        """
        if self.mode != "manual" or self._checkpoint == self._position():
            self.catch_up.record_noop()
        elif not self._catch_up_from_journal():
            self.rebuild()
        elif self.persist:
            # Persist the topped-up checkpoint; a fold here promotes
            # last_path to "merge".
            self._save()
        return self.catch_up.last_path
