"""The View: a sorted, categorized, incrementally-maintained index.

A view owns a B+tree whose keys are collation tuples built from the sorted
columns (plus a per-document tie-break, plus response markers in
hierarchical views) and whose values are display entries. Two maintenance
modes exist so experiment E5 can compare them:

``auto`` (default)
    The view subscribes to database change events and applies them
    incrementally — O(log n) per changed document.
``manual``
    The view catches up on :meth:`refresh`. With the journal enabled
    (the default) a stale view records the ``update_seq`` it last
    indexed and tops up from ``changed_since_seq`` — O(log n + changes).
    With ``journal=False`` (the ablation E5/E14 measure against) every
    refresh is the O(n log n) "view rebuild" the paper calls out as the
    thing incremental indexing avoids.

Alongside the tree the view keeps a *category directory*: per key prefix
of the categorized columns, the entry count, the rows under the heading
and the totals-column subtotals. It is what lets :meth:`View.window` serve
a ``?OpenView&Start=n&Count=30`` page by reading ~30 entries instead of
rendering every row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from time import perf_counter
from typing import Any, Iterator

from repro.errors import ViewError
from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document
from repro.core.stats import CatchUpStats
from repro.formula import compile_formula
from repro.storage.btree import BPlusTree
from repro.storage.segments import MergePolicy, SegmentStack, SegmentStats
from repro.views.column import SortOrder, ViewColumn, collate


@dataclass(frozen=True)
class DocumentRow:
    """One document line in a view display."""

    unid: str
    values: tuple
    level: int = 0


@dataclass(frozen=True)
class CategoryRow:
    """A category heading produced by a categorized column."""

    value: Any
    level: int
    count: int
    subtotals: dict = dataclass_field(default_factory=dict, compare=False)


@dataclass
class _Entry:
    unid: str
    values: tuple
    level: int


class _Subtotal:
    """Exact running sum of one totals column over one category.

    Integers add exactly and finite floats accumulate as Fractions, so a
    removal leaves no rounding residue and the sum reads the same however
    the category was built up: an int while no float cell is in it, else
    the correctly rounded float. Non-finite cells are kept aside and
    added on read. Booleans and non-numbers do not count.
    """

    __slots__ = ("exact", "floats", "special")

    def __init__(self) -> None:
        self.exact: int | Fraction = 0
        self.floats = 0
        self.special: dict[str, int] = {}  # "inf"/"-inf"/"nan" -> count

    def add(self, cell: Any, sign: int) -> None:
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            return
        if isinstance(cell, float):
            self.floats += sign
            if not math.isfinite(cell):
                left = self.special.get(repr(cell), 0) + sign
                if left:
                    self.special[repr(cell)] = left
                else:
                    del self.special[repr(cell)]
                return
            cell = Fraction(cell)
        self.exact += cell if sign > 0 else -cell

    def value(self) -> int | float:
        if not self.floats:
            return int(self.exact)
        total = float(self.exact)
        for special in self.special:
            total += float(special)
        return total


class _Group:
    """One node of the category directory.

    The root group (key prefix ``()``) holds every entry; below it there is
    one group per distinct key prefix of the categorized columns, with its
    children (the groups one categorized column deeper) in collation order.
    """

    __slots__ = ("entries", "rows", "children", "totals")

    def __init__(self, totals_columns: list[int]) -> None:
        self.entries = 0  # documents in the group, responses included
        self.rows = 0  # rows rendered under the group's heading
        self.children: list[tuple] = []
        self.totals = {column: _Subtotal() for column in totals_columns}


class View:
    """A named, sorted projection of one database.

    Parameters
    ----------
    db:
        The backing :class:`NotesDatabase`.
    name:
        View name (unique per application by convention, not enforced).
    selection:
        Selection formula source; defaults to everything.
    columns:
        The :class:`ViewColumn` list. Categorized columns must come first.
    mode:
        ``"auto"`` for incremental maintenance, ``"manual"`` for
        rebuild-on-refresh.
    hierarchical:
        Show response documents indented beneath their parents.
    persist:
        Store the view index in the database's storage engine (the NSF
        kept view indexes too). On open, a saved index whose database
        state fingerprint still matches is loaded instead of rebuilding;
        a *stale* saved index is loaded and topped up from the update
        journal when possible. On disk the entries live in a
        :class:`repro.storage.SegmentStack` sidecar: each
        :meth:`save_index` appends only the entries dirtied since the
        last save as a new immutable segment (close cost O(delta), the
        E15 claim), and ``merge_policy`` decides when segments fold back
        together. Call :meth:`save_index` (or :meth:`close`) to write it
        back; the database's :meth:`~NotesDatabase.close` also sweeps
        registered persistent views.
    merge_policy:
        :class:`repro.storage.MergePolicy` for the sidecar segments
        (default :data:`repro.storage.DEFAULT_POLICY`;
        :data:`repro.storage.SINGLE_SEGMENT` restores rewrite-everything
        saves as the E15 ablation).
    journal:
        Allow seq-checkpointed catch-up from the database's update
        journal. ``False`` restores the pre-journal behaviour — stale
        snapshots and manual refreshes always rebuild — and exists as
        the ablation baseline for E5/E14.
    """

    def __init__(
        self,
        db: NotesDatabase,
        name: str,
        selection: str = "SELECT @All",
        columns: list[ViewColumn] | None = None,
        mode: str = "auto",
        hierarchical: bool = False,
        persist: bool = False,
        journal: bool = True,
        merge_policy: MergePolicy | None = None,
    ) -> None:
        if mode not in ("auto", "manual"):
            raise ViewError(f"mode must be 'auto' or 'manual', got {mode!r}")
        if persist and db.engine is None:
            raise ViewError("persist=True needs a database with a storage engine")
        self.db = db
        self.name = name
        self.selection_source = selection
        self.columns = columns or [ViewColumn(title="Subject", item="Subject")]
        self._validate_columns()
        self._category_columns = [
            index for index, column in enumerate(self.columns) if column.categorized
        ]
        self._totals_columns = [
            index for index, column in enumerate(self.columns) if column.totals
        ]
        # The category directory, keyed by key prefix: what window() needs
        # to find a row without walking the index. _count keeps it current.
        self._groups: dict[tuple, _Group] = {(): _Group(self._totals_columns)}
        self.mode = mode
        self.hierarchical = hierarchical
        self.persist = persist
        self.journal = journal
        self.merge_policy = merge_policy or MergePolicy()
        self._selection = compile_formula(selection)
        self._tree: BPlusTree = BPlusTree(order=64)
        # On-disk segment stack behind the persisted index (None until a
        # save or load; None again after a rebuild, which rewrites it).
        self._stack: SegmentStack | None = None
        # Entries touched since the last save — the next save's segment.
        self._dirty: set[str] = set()
        self._segment_stats = SegmentStats()
        self._keys: dict[str, tuple] = {}
        self._children: dict[str, set[str]] = {}
        # Reverse of _children: child unid -> parent unid, so _remove can
        # discard its membership in O(1) instead of sweeping every set.
        self._parent_of: dict[str, str] = {}
        self.rebuilds = 0
        self.incremental_ops = 0
        self.pending_changes = 0
        self.loaded_from_disk = False
        self.catch_up = CatchUpStats()
        self.catch_up.segment_stats["entries"] = self._segment_stats
        # What the index currently reflects: the journal checkpoint a
        # refresh or a saved-snapshot load tops up from. Soft deletes and
        # restores don't journal, so the trash membership at index time
        # rides along and is reconciled by set difference.
        self._indexed_seq = -1
        self._indexed_purge_seq = 0
        self._indexed_journal_id = ""
        self._indexed_state = ""
        self._indexed_trash: set[str] = set()
        if mode == "auto":
            db.subscribe(self._on_change)
        if persist:
            db.register_checkpointer(self.save_index)
        if not (persist and self._try_load_index()):
            self.rebuild()

    # -- column checks ----------------------------------------------------

    def _validate_columns(self) -> None:
        seen_plain_sort = False
        for column in self.columns:
            if column.categorized:
                if seen_plain_sort:
                    raise ViewError(
                        "categorized columns must precede sorted columns"
                    )
            elif column.sort != SortOrder.NONE:
                seen_plain_sort = True

    @property
    def _sorted_columns(self) -> list[ViewColumn]:
        return [c for c in self.columns if c.sort != SortOrder.NONE]

    @property
    def _categorized_columns(self) -> list[ViewColumn]:
        return [c for c in self.columns if c.categorized]

    # -- maintenance --------------------------------------------------------

    def close(self) -> None:
        """Detach from database events; save the index when persistent."""
        if self.persist:
            self.save_index()
            self.db.unregister_checkpointer(self.save_index)
        if self.mode == "auto":
            self.db.unsubscribe(self._on_change)

    # -- index persistence -----------------------------------------------

    def _design_fingerprint(self) -> str:
        import hashlib

        spec = repr((
            self.selection_source,
            self.hierarchical,
            [(c.title, c.item, c.formula, c.sort.value, c.categorized,
              c.totals) for c in self.columns],
        ))
        return hashlib.sha256(spec.encode()).hexdigest()

    def _index_key(self) -> bytes:
        return b"viewidx:" + self.name.encode()

    @staticmethod
    def _encode_key(key: tuple) -> list:
        out = []
        for component in key:
            from repro.views.column import Descending

            if isinstance(component, Descending):
                out.append(["d", list(component.inner)])
            else:
                out.append(["a", list(component)])
        return out

    @staticmethod
    def _decode_key(encoded: list) -> tuple:
        from repro.views.column import Descending

        components = []
        for kind, inner in encoded:
            value = tuple(inner)
            components.append(Descending(value) if kind == "d" else value)
        return tuple(components)

    def _namespace(self) -> bytes:
        return b"viewidx:" + self.name.encode()

    def _make_stack(self) -> None:
        self._stack = SegmentStack(
            self.db.engine,
            self._namespace(),
            policy=self.merge_policy,
            stats=self._segment_stats,
        )

    def _record_for(self, unid: str) -> tuple:
        """The per-entry segment record: everything a reopen needs to put
        the entry back (key, display values, level, parent link)."""
        key = self._keys[unid]
        entry = self._tree.get(key)
        return (
            self._encode_key(key),
            list(entry.values),
            entry.level,
            self._parent_of.get(unid),
        )

    def save_index(self) -> None:
        """Write the index changes since the last save to the engine.

        The entries live in a segment stack: a save appends only the
        dirtied entries as a new immutable segment — O(delta), however
        big the view — then folds segments if the merge policy demands
        it. One engine transaction covers the segment, any folds, and
        the meta record naming them, so a crash mid-save leaves the
        previous checkpoint fully readable.

        The meta record carries the journal checkpoint the index
        reflects (``journal_id`` + ``indexed_seq`` + ``indexed_purge_seq``
        + the trash membership at index time), so a later open against a
        moved-on database tops up from ``changed_since_seq`` instead of
        rebuilding.
        """
        import json

        if self.db.engine is None:
            raise ViewError("database has no storage engine")
        if self.mode == "auto":
            # An auto view is continuously current: stamp the checkpoint
            # now. A manual view saves whatever it last indexed.
            self._mark_indexed()
        engine = self.db.engine
        txn = engine.begin()
        fresh = self._stack is None
        if fresh:
            # A rebuild (or first save) rewrites the stack from scratch;
            # clear whatever segments a previous layout left behind.
            raw = engine.get(self._index_key())
            if raw is not None:
                old_meta = json.loads(raw.decode())
                SegmentStack.delete_manifest(
                    engine, txn, self._namespace(), old_meta.get("index", {})
                )
            self._make_stack()
        self._stack.policy = self.merge_policy  # honour runtime swaps
        folds: list[int] = []
        if fresh:
            dirty = set(self._keys)
            removed: set[str] = set()
        else:
            dirty = {unid for unid in self._dirty if unid in self._keys}
            removed = self._dirty - dirty
        if dirty or removed:
            records = {unid: self._record_for(unid) for unid in dirty}
            self._stack.append(txn, records, remove=removed)
            folds = self._stack.maintain(txn)
        snapshot = {
            "design": self._design_fingerprint(),
            "state": self._indexed_state,
            "journal_id": self._indexed_journal_id,
            "indexed_seq": self._indexed_seq,
            "indexed_purge_seq": self._indexed_purge_seq,
            "trash": sorted(self._indexed_trash),
            "index": self._stack.manifest(),
        }
        engine.put(txn, self._index_key(), json.dumps(snapshot).encode())
        engine.commit(txn)
        self._dirty.clear()
        self.catch_up.record_merge(len(folds))

    def _try_load_index(self) -> bool:
        """Load a saved index; top up a stale one from the journal.

        A snapshot whose state fingerprint still matches loads as-is. A
        stale snapshot cut under the *same journal identity* loads and
        replays only the notes sequenced past its checkpoint — the
        incremental top-up E14 measures. Returns False (caller rebuilds)
        only for a changed design, a pre-journal snapshot, a reseeded
        journal, or a purge log that no longer reaches back far enough.
        """
        import json

        raw = self.db.engine.get(self._index_key())
        if raw is None:
            return False
        snapshot = json.loads(raw.decode())
        if snapshot.get("design") != self._design_fingerprint():
            return False
        if "index" not in snapshot:
            return False  # pre-segment snapshot layout: rebuild once
        current = snapshot.get("state") == self.db.state_fingerprint()
        if not current:
            if not self.journal:
                return False
            if snapshot.get("journal_id") != self.db.journal_id:
                return False  # pre-journal snapshot or reseeded journal
            if snapshot["indexed_seq"] > self.db.update_seq:
                return False  # checkpoint from a future this journal lost
            if self.db.purges_since(snapshot["indexed_purge_seq"]) is None:
                return False
        self._make_stack()
        if not self._stack.load(snapshot["index"]):
            self._stack = None
            return False  # manifest names a segment the engine lost
        pairs = []
        for unid, record in self._stack.live_items():
            encoded_key, values, level, parent = record
            key = self._decode_key(encoded_key)
            pairs.append((key, _Entry(unid, tuple(values), level)))
            self._keys[unid] = key
            if parent is not None:
                self._children.setdefault(parent, set()).add(unid)
                self._parent_of[unid] = parent
        self._load(pairs)
        if current:
            self._mark_indexed()
            self.catch_up.record_noop()
        else:
            self._indexed_seq = snapshot["indexed_seq"]
            self._indexed_purge_seq = snapshot["indexed_purge_seq"]
            self._indexed_journal_id = snapshot["journal_id"]
            self._indexed_trash = set(snapshot.get("trash", ()))
            if not self._catch_up_from_journal():  # pragma: no cover
                # Validity was pre-checked above; top-up cannot fail here.
                return False
        self.loaded_from_disk = True
        return True

    def _mark_indexed(self) -> None:
        """Stamp the checkpoint: the index now reflects this exact state."""
        db = self.db
        self._indexed_seq = db.update_seq
        self._indexed_purge_seq = db.purge_seq
        self._indexed_journal_id = db.journal_id
        self._indexed_state = db.state_fingerprint()
        self._indexed_trash = set(db._trash)

    def _catch_up_from_journal(self) -> bool:
        """Replay journal entries past the checkpoint; False -> rebuild.

        O(log n + changes): purge-log entries drop vanished notes,
        ``changed_since_seq`` replays updated documents and deletion
        stubs in seq order, and the trash-membership diff covers soft
        deletes/restores (which never journal). Ends with the index
        byte-for-byte what a rebuild would produce.
        """
        db = self.db
        if not self.journal or self._indexed_journal_id != db.journal_id:
            return False
        if self._indexed_seq > db.update_seq:
            return False
        purges = db.purges_since(self._indexed_purge_seq)
        if purges is None:
            return False
        started = perf_counter()
        replayed = 0
        for _, unid in purges:
            self._remove(unid)
            self._rekey_descendants(unid)
        docs, stubs = db.changed_since_seq(self._indexed_seq)
        for doc in docs:
            live = db.try_get(doc.unid)  # None when trashed meanwhile
            self._remove(doc.unid)
            if live is not None and self._selected(live):
                self._insert(live)
            self._rekey_descendants(doc.unid)
            replayed += 1
        for stub in stubs:
            self._remove(stub.unid)
            self._rekey_descendants(stub.unid)
            replayed += 1
        current_trash = set(db._trash)
        for unid in current_trash - self._indexed_trash:
            self._remove(unid)
            self._rekey_descendants(unid)
            replayed += 1
        for unid in self._indexed_trash - current_trash:
            doc = db.try_get(unid)
            if doc is not None and unid not in self._keys and self._selected(doc):
                self._insert(doc)
                self._rekey_descendants(unid)
            replayed += 1
        self._mark_indexed()
        self.pending_changes = 0
        self.catch_up.record_topup(
            replayed, len(purges), perf_counter() - started
        )
        return True

    def rebuild(self) -> int:
        """Discard and rebuild the whole index; returns the entry count.

        Keys are computed once per document (parents before children, so
        hierarchical placement is correct regardless of creation order —
        replication can deliver responses first), sorted, and bulk-loaded
        into a fresh B+tree.
        """
        started = perf_counter()
        self._tree = BPlusTree(order=64)
        self._keys.clear()
        self._children.clear()
        self._parent_of.clear()
        # The on-disk stack no longer matches anything incremental; the
        # next save rewrites it from scratch (and deletes the old keys).
        self._stack = None
        self._dirty.clear()
        docs = [doc for doc in self.db.all_documents() if self._selected(doc)]
        if self.hierarchical:
            docs.sort(key=self._hierarchy_depth)
        pairs = []
        for doc in docs:
            key, level = self._key_for(doc)
            values = tuple(
                column.value_for(doc, self.db) for column in self.columns
            )
            self._keys[doc.unid] = key
            if doc.parent_unid is not None:
                self._children.setdefault(doc.parent_unid, set()).add(doc.unid)
                self._parent_of[doc.unid] = doc.parent_unid
            pairs.append((key, _Entry(doc.unid, values, level)))
        self._load(pairs)
        self.rebuilds += 1
        self.pending_changes = 0
        self._mark_indexed()
        self.catch_up.record_rebuild(perf_counter() - started)
        return len(self._tree)

    def _load(self, pairs: list[tuple[tuple, _Entry]]) -> None:
        """Bulk-load (key, entry) pairs into the empty tree and count them
        into a fresh category directory."""
        pairs.sort(key=lambda pair: pair[0])  # segments are unordered
        self._tree.bulk_load(pairs)
        self._groups = {(): _Group(self._totals_columns)}
        for key, entry in pairs:
            self._count(key, entry.values, 1)

    def _hierarchy_depth(self, doc: Document) -> int:
        depth = 0
        current = doc
        while current.parent_unid is not None and depth < 64:
            parent = self.db.try_get(current.parent_unid)
            if parent is None:
                break
            depth += 1
            current = parent
        return depth

    def refresh(self) -> str:
        """Bring a manual-mode view up to date; report which path ran.

        Returns ``"noop"`` (already current — ``auto`` views ride change
        notifications, and an unchanged fingerprint short-circuits),
        ``"topup"`` (journal replay of only the notes sequenced past the
        checkpoint), ``"merge"`` (a top-up on a persistent view whose
        checkpoint save also folded sidecar segments — the amortized
        compaction bill coming due), or ``"rebuild"`` (the O(n log n)
        fallback, taken only with ``journal=False``, after a journal
        reseed, or when the purge log no longer reaches back to the
        checkpoint).

        ``rebuilds`` increments only on the rebuild path; top-ups count
        in ``catch_up.topups`` whether or not the save folded.
        """
        if self.mode != "manual" or (
            self.db.state_fingerprint() == self._indexed_state
        ):
            self.catch_up.record_noop()
            return "noop"
        if not self._catch_up_from_journal():
            self.rebuild()
        elif self.persist:
            # Persist the topped-up checkpoint; if the merge policy folds
            # segments here, record_merge promotes last_path to "merge".
            self.save_index()
        return self.catch_up.last_path

    def _on_change(self, kind: ChangeKind, payload, old: Document | None) -> None:
        self.incremental_ops += 1
        if kind in (ChangeKind.CREATE, ChangeKind.UPDATE, ChangeKind.REPLACE,
                    ChangeKind.RESTORE):
            doc: Document = payload
            self._remove(doc.unid)
            if self._selected(doc):
                self._insert(doc)
            self._rekey_descendants(doc.unid)
        elif kind == ChangeKind.DELETE:
            unid = payload.unid
            self._remove(unid)
            self._rekey_descendants(unid)

    # -- selection ----------------------------------------------------------

    def _selected(self, doc: Document) -> bool:
        # Design notes are a different note class: never shown in data views.
        form = doc.form
        if isinstance(form, str) and form.startswith("$Design"):
            return False
        selected, wants_children, wants_descendants = self._selection.select_ex(
            doc, db=self.db
        )
        if selected:
            return True
        if not doc.is_response:
            return False
        if wants_descendants:
            return self._ancestor_selected(doc, max_depth=None)
        if wants_children:
            return self._ancestor_selected(doc, max_depth=1)
        return False

    def _ancestor_selected(self, doc: Document, max_depth: int | None) -> bool:
        depth = 0
        current = doc
        while current.parent_unid is not None:
            parent = self.db.try_get(current.parent_unid)
            if parent is None:
                return False
            depth += 1
            if max_depth is not None and depth > max_depth:
                return False
            selected, _, _ = self._selection.select_ex(parent, db=self.db)
            if selected:
                return True
            current = parent
        return False

    # -- index operations ---------------------------------------------------

    def _base_key(self, doc: Document) -> tuple:
        components = []
        for column in self._sorted_columns:
            components.append(column.key_component(column.value_for(doc, self.db)))
        if not components:
            components.append(collate(doc.created))
        return tuple(components)

    def _key_for(self, doc: Document) -> tuple[tuple, int]:
        """Full collation key and display level for ``doc``."""
        marker = (1, doc.created, doc.unid)
        if self.hierarchical and doc.parent_unid is not None:
            parent_key = self._keys.get(doc.parent_unid)
            if parent_key is not None:
                level = self._level_of(parent_key) + 1
                return parent_key + ((2, doc.created, doc.unid),), level
        return self._base_key(doc) + (marker,), 0

    def _level_of(self, key: tuple) -> int:
        return sum(
            1
            for component in key
            if isinstance(component, tuple) and component and component[0] == 2
        )

    def _insert(self, doc: Document) -> None:
        key, level = self._key_for(doc)
        values = tuple(column.value_for(doc, self.db) for column in self.columns)
        self._tree.insert(key, _Entry(doc.unid, values, level))
        self._count(key, values, 1)
        self._keys[doc.unid] = key
        self._dirty.add(doc.unid)
        if doc.parent_unid is not None:
            self._children.setdefault(doc.parent_unid, set()).add(doc.unid)
            self._parent_of[doc.unid] = doc.parent_unid

    def _remove(self, unid: str) -> None:
        key = self._keys.pop(unid, None)
        if key is None:
            return
        self._dirty.add(unid)
        try:
            entry = self._tree.delete(key)
        except KeyError:  # pragma: no cover - defensive
            pass
        else:
            self._count(key, entry.values, -1)
        parent = self._parent_of.pop(unid, None)
        if parent is not None:
            siblings = self._children.get(parent)
            if siblings is not None:
                siblings.discard(unid)
                if not siblings:
                    del self._children[parent]

    def _count(self, key: tuple, values: tuple, sign: int) -> None:
        """Add (``sign=1``) or take away (``-1``) one entry in the
        category directory.

        The entry belongs to the root group and to one group per
        categorized column, keyed by that many components of its key
        (responses carry their root's prefix, so they count where they
        render). A group that gains its first entry is filed in its
        parent's sorted children and one that loses its last is unfiled;
        ``rows`` moves by one for the entry plus one per heading opened or
        closed beneath the group. O(categorized columns), plus a bisect
        when a category appears or vanishes.
        """
        groups = self._groups
        depth = len(self._category_columns)
        path = [groups[()]]
        for length in range(1, depth + 1):
            group = groups.get(key[:length])
            if group is None:
                group = groups[key[:length]] = _Group(self._totals_columns)
                insort(path[-1].children, key[:length])
            path.append(group)
        headings = 0  # headings opened or closed under the current group
        for length in range(depth, -1, -1):
            group = path[length]
            group.entries += sign
            group.rows += sign * (1 + headings)
            for column, subtotal in group.totals.items():
                subtotal.add(values[column], sign)
            if length and group.entries == (1 if sign > 0 else 0):
                headings += 1
                if not group.entries:
                    del groups[key[:length]]
                    siblings = path[length - 1].children
                    del siblings[bisect_left(siblings, key[:length])]

    def _rekey_descendants(self, unid: str) -> None:
        """Re-insert (or re-evaluate) responses after their ancestor moved."""
        if not self.hierarchical:
            return
        for child_unid in list(self._children.get(unid, ())):
            child = self.db.try_get(child_unid)
            if child is None:
                continue
            self._remove(child_unid)
            if self._selected(child):
                self._insert(child)
            self._rekey_descendants(child_unid)
        # Responses that were excluded (orphans) may become eligible now.
        for doc in self.db.responses(unid):
            if doc.unid not in self._keys and self._selected(doc):
                self._insert(doc)
                self._rekey_descendants(doc.unid)

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, unid: str) -> bool:
        return unid in self._keys

    def entries(self) -> Iterator[_Entry]:
        """All entries in collation order (no category rows)."""
        for _, entry in self._tree.items():
            yield entry

    def all_unids(self) -> list[str]:
        """Document UNIDs in view order."""
        return [entry.unid for entry in self.entries()]

    def documents(self, as_user: str | None = None) -> Iterator[Document]:
        """Documents in view order, honouring reader fields for ``as_user``."""
        for entry in self.entries():
            doc = self.db.try_get(entry.unid)
            if doc is None:
                continue
            if as_user is None or self.db._can_read(as_user, doc):
                yield doc

    def rows(self, as_user: str | None = None) -> list:
        """Render the view: category rows interleaved with document rows.

        Walks every entry (and, for ``as_user``, reads every document to
        check its reader fields): O(n). Use :meth:`window` to read a page.
        """
        category_indices = self._category_columns
        n_categories = len(category_indices)
        totals_columns = self._totals_columns
        output: list = []
        open_values: list = [object()] * n_categories  # sentinels != anything
        # First pass gathers rows; category counts/subtotals need a second
        # pass, so collect member indices per open category.
        pending: list[tuple[int, Any, int]] = []  # (output idx, value, level)

        for entry in self.entries():
            doc = self.db.try_get(entry.unid)
            if doc is not None and as_user is not None:
                if not self.db._can_read(as_user, doc):
                    continue
            # Responses (level > 0) live under their ancestor's category:
            # their own column values never open or close category groups.
            if entry.level == 0:
                for depth in range(n_categories):
                    value = entry.values[category_indices[depth]]
                    if isinstance(value, list):
                        value = value[0] if value else ""
                    if value != open_values[depth]:
                        for reset in range(depth, n_categories):
                            open_values[reset] = object()
                        open_values[depth] = value
                        pending.append((len(output), value, depth))
                        output.append(None)  # placeholder for CategoryRow
            output.append(
                DocumentRow(
                    unid=entry.unid,
                    values=entry.values,
                    level=entry.level + n_categories,
                )
            )
        # Fill in category rows with counts and subtotals.
        for position, (index, value, level) in enumerate(pending):
            end = (
                pending[position + 1][0]
                if position + 1 < len(pending)
                else len(output)
            )
            members = [
                row
                for row in output[index + 1 : end]
                if isinstance(row, DocumentRow)
            ]
            # A deeper category's members also belong to enclosing ones; for
            # level-L rows count every document row until the next category
            # at a level <= L.
            if level < n_categories - 1:
                stop = len(output)
                for later_index, _, later_level in pending[position + 1 :]:
                    if later_level <= level:
                        stop = later_index
                        break
                members = [
                    row
                    for row in output[index + 1 : stop]
                    if isinstance(row, DocumentRow)
                ]
            subtotals = {}
            for column_index in totals_columns:
                subtotal = _Subtotal()
                for row in members:
                    subtotal.add(row.values[column_index], 1)
                subtotals[column_index] = subtotal.value()
            output[index] = CategoryRow(
                value=value, level=level, count=len(members), subtotals=subtotals
            )
        return output

    def window(
        self, start: int, count: int, as_user: str | None = None
    ) -> tuple[list, int]:
        """Rows ``start`` to ``start + count - 1`` (1-based) and the row total.

        Returns exactly ``rows(as_user)[start - 1 : start - 1 + count]``
        (a ``start`` below 1 reads from the top) and ``len(rows(as_user))``.
        Without ``as_user`` only the window is read: the category
        directory finds the category holding ``start`` in O(categories),
        then one B+tree range read from that category's first key skips to
        the row and stops after ``count`` rows — O(log n + offset within
        the category + count). Reader fields make row positions depend on
        the user, so with ``as_user`` the window is a slice of the full
        per-user :meth:`rows`, as in Domino.
        """
        if count < 0:
            raise ViewError(f"window count must be >= 0, got {count}")
        offset = max(start - 1, 0)
        if as_user is not None:
            rows = self.rows(as_user)
            return rows[offset : offset + count], len(rows)
        total = self._groups[()].rows
        if offset >= total or count == 0:
            return [], total
        return self._read_window(offset, count), total

    def _read_window(self, skip: int, count: int) -> list:
        """``count`` rows from row ``skip`` (0-based, inside the view)."""
        groups = self._groups
        depth = len(self._category_columns)
        # Descend the directory: at each categorized column, step over
        # whole sibling categories (heading + rows) until the one holding
        # the target row. Headings already passed stay "open" so the
        # stream below does not repeat them.
        opened: list = [None] * depth
        prefix: tuple = ()
        for level in range(depth):
            for child in groups[prefix].children:
                span = 1 + groups[child].rows
                if skip < span:
                    break
                skip -= span
            prefix = child
            if skip == 0:
                break  # the window opens on this category's heading
            opened[level] = prefix
            skip -= 1
        # ``skip`` now counts the entries of ``prefix`` before the window.
        out: list = []
        for key, entry in self._tree.range(lo=prefix or None):
            if skip:
                skip -= 1
                continue
            if entry.level == 0:
                for level in range(depth):
                    heading = key[: level + 1]
                    if heading != opened[level]:
                        opened[level] = heading
                        out.append(self._heading(heading, level, entry))
                        if len(out) == count:
                            return out
            out.append(DocumentRow(entry.unid, entry.values, entry.level + depth))
            if len(out) == count:
                break
        return out

    def _heading(self, prefix: tuple, level: int, first: _Entry) -> CategoryRow:
        """The heading row of category ``prefix``, whose first entry is
        ``first`` (its value is the heading's, as in :meth:`rows`)."""
        value = first.values[self._category_columns[level]]
        if isinstance(value, list):
            value = value[0] if value else ""
        group = self._groups[prefix]
        return CategoryRow(
            value=value,
            level=level,
            count=group.entries,
            subtotals={
                column: subtotal.value()
                for column, subtotal in group.totals.items()
            },
        )

    def totals(self) -> dict[int, float]:
        """Grand totals for every totals column, keyed by column index."""
        return {
            column: subtotal.value()
            for column, subtotal in self._groups[()].totals.items()
        }

    def documents_by_key(self, value: Any) -> list[Document]:
        """Index lookup: documents whose first sort column equals ``value``.

        This is the ``GetDocumentByKey`` operation — a B+tree descent, not a
        scan (experiment E6 measures exactly this).
        """
        if not self._sorted_columns:
            raise ViewError(f"view {self.name!r} has no sorted column")
        component = self._sorted_columns[0].key_component(value)
        matches = []
        for key, entry in self._tree.range(lo=(component,)):
            first = key[0]
            if first != component:
                break
            doc = self.db.try_get(entry.unid)
            if doc is not None:
                matches.append(doc)
        return matches

    def first_by_key(self, value: Any) -> Document | None:
        """First match of :meth:`documents_by_key`, or None."""
        matches = self.documents_by_key(value)
        return matches[0] if matches else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"View({self.name!r}, {len(self)} entries, mode={self.mode})"
