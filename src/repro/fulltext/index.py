"""The inverted full-text index.

Postings map ``term -> unid -> field -> [positions]``. The index subscribes
to database change events for incremental maintenance (``auto`` mode); the
``rebuild()`` path re-tokenizes the whole database and is the E8 baseline.

With ``persist=True`` the postings plus a seq checkpoint are written
through the storage engine as a **stack of immutable segments**
(:class:`repro.storage.SegmentStack`): each ``save_checkpoint`` appends
the live overlay as a *new* segment — close cost O(delta), the other
half of what the seq journal did for reopen — and a merge policy folds
segments back together (smallest adjacent pair first) when their count
or dead ratio crosses a threshold, the LSM/Lucene amortization. Two
stacks ride in positional lockstep: ``ftidx:terms`` holds each segment's
term → postings records (every segment's record is live data for the
documents written in that segment) and ``ftidx:docs`` holds the
doc → terms table whose newest-wins positions arbitrate which segment's
postings for a document still count.

A reopened database loads only the meta record and the per-segment
offset directories; postings blobs stay unparsed bytes until a query
touches a term, and only notes sequenced past the checkpoint are
re-tokenized. That keeps reopen O(directories + changes) and close
O(delta) — both ends of the session now ride the delta (experiments E14
and E15).

Scoring is tf–idf: ``tf * log(N / df)`` summed over the positive terms of
the query. Phrases verify adjacent positions inside one field.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from repro.errors import FullTextError
from repro.core.consumer import JournalConsumer
from repro.core.database import NotesDatabase
from repro.core.document import Document
from repro.core.items import ItemType
from repro.fulltext.query import And, Not, Or, Phrase, Term, parse_query
from repro.fulltext.tokenizer import stem, tokenize
from repro.storage.segments import MergePolicy, SegmentStack, SegmentStats

_TEXT_TYPES = (ItemType.TEXT, ItemType.RICH_TEXT, ItemType.TEXT_LIST,
               ItemType.NAMES, ItemType.AUTHORS, ItemType.READERS)

#: Engine keys of the persisted checkpoint. The meta record is JSON and
#: embeds both stacks' manifests; the per-segment directories and blobs
#: live under the stack namespaces and are managed by SegmentStack.
_META_KEY = b"ftidx:meta"
_TERMS_NS = b"ftidx:terms"
_DOCS_NS = b"ftidx:docs"


@dataclass(frozen=True)
class SearchHit:
    unid: str
    score: float


class FullTextIndex(JournalConsumer):
    """An incrementally-maintained inverted index over one database."""

    #: Default per-field score multipliers: a hit in the Subject counts
    #: double — title matches rank above body mentions.
    DEFAULT_FIELD_WEIGHTS = {"subject": 2.0}

    def __init__(
        self,
        db: NotesDatabase,
        mode: str = "auto",
        field_weights: dict[str, float] | None = None,
        persist: bool = False,
        journal: bool = True,
        merge_policy: MergePolicy | None = None,
    ) -> None:
        if mode not in ("auto", "manual"):
            raise FullTextError(f"mode must be 'auto' or 'manual', got {mode!r}")
        if persist and db.engine is None:
            raise FullTextError(
                "persist=True needs a database with a storage engine"
            )
        super().__init__(db, mode, persist, journal)
        self.merge_policy = merge_policy or MergePolicy()
        self.field_weights = (
            dict(self.DEFAULT_FIELD_WEIGHTS)
            if field_weights is None
            else {name.lower(): weight for name, weight in field_weights.items()}
        )
        # Live overlay: term -> unid -> field(lower) -> positions, plus
        # unid -> term set (for cheap removal). Everything indexed since
        # the last segment append lives here; save_checkpoint freezes it
        # into a new segment.
        self._postings: dict[str, dict[str, dict[str, list[int]]]] = {}
        self._doc_terms: dict[str, set[str]] = {}
        # The frozen segment stacks (None until a checkpoint is loaded or
        # saved). ``_dead`` masks stack documents superseded or deleted
        # since the last append; it becomes the stack's tombstones at the
        # next save.
        self._terms_stack: SegmentStack | None = None
        self._docs_stack: SegmentStack | None = None
        self._dead: set[str] = set()
        # Per-term merge of overlay + stack-minus-dead, invalidated on
        # writes that touch the term.
        self._merged_cache: dict[str, dict[str, dict[str, list[int]]]] = {}
        self._doc_count = 0
        # Stats objects outlive stack reconstructions (rebuilds, reloads)
        # so the counters accumulate across the index's whole life.
        self._terms_stats = SegmentStats()
        self._docs_stats = SegmentStats()
        self.catch_up.segment_stats["terms"] = self._terms_stats
        self.catch_up.segment_stats["docs"] = self._docs_stats
        self._open()

    # -- maintenance --------------------------------------------------------

    def _rebuild_index(self) -> int:
        """Re-index every live document; returns the document count."""
        self._postings.clear()
        self._doc_terms.clear()
        self._drop_base()
        self._doc_count = 0
        for doc in self.db.all_documents():
            self._add(doc)
        return self._doc_count

    def _drop_base(self) -> None:
        """Forget the loaded stacks; the next save rewrites from scratch
        (and deletes whatever segment keys the old meta still names)."""
        self._terms_stack = None
        self._docs_stack = None
        self._dead.clear()
        self._merged_cache.clear()

    # -- checkpoint persistence -------------------------------------------

    def _make_stacks(self) -> None:
        self._terms_stack = SegmentStack(
            self.db.engine, _TERMS_NS, policy=self.merge_policy,
            newest_wins=False, stats=self._terms_stats,
        )
        self._docs_stack = SegmentStack(
            self.db.engine, _DOCS_NS, policy=self.merge_policy,
            stats=self._docs_stats,
        )

    def _fold_combine(self, index: int, newer_doc_keys: set[str]):
        """Combine callback folding the terms stack in lockstep with a
        docs-stack fold at ``index``.

        A document's postings for a term must come from the segment that
        holds the document's live version: entries whose document was
        rewritten in the pair's newer segment (``newer_doc_keys``, the
        docs directory captured *before* the docs fold) or in a segment
        above the pair are dead and dropped here — folds are where the
        tombstone debt gets paid down.
        """
        docs = self._docs_stack

        def combine(term, older, newer):
            merged = {}
            for unid, fields in (older or {}).items():
                if unid not in newer_doc_keys and docs.position_of(unid) == index:
                    merged[unid] = fields
            for unid, fields in (newer or {}).items():
                if docs.position_of(unid) == index:
                    merged[unid] = fields
            return merged or None

        return combine

    def save_checkpoint(self) -> None:
        """Append the live overlay as a new segment + the seq checkpoint.

        One transaction covers the appended segment pair, any folds the
        merge policy demands, and the meta record naming them, so a crash
        never leaves a torn checkpoint: either the whole new stack state
        is readable or the previous one still is. Cost is O(overlay) —
        the delta since the last save — plus whatever the policy folds.
        """
        if self.db.engine is None:
            raise FullTextError("database has no storage engine")
        checkpoint = self._checkpoint_fields()
        engine = self.db.engine
        txn = engine.begin()
        if self._terms_stack is None:
            raw_meta = engine.get(_META_KEY)
            if raw_meta is not None:
                old_meta = json.loads(raw_meta.decode())
                SegmentStack.delete_manifest(
                    engine, txn, _TERMS_NS, old_meta.get("terms", {})
                )
                SegmentStack.delete_manifest(
                    engine, txn, _DOCS_NS, old_meta.get("docs", {})
                )
            self._make_stacks()
        # Honour runtime policy swaps (the E15 ablation flips a warm
        # index to SINGLE_SEGMENT between saves).
        self._terms_stack.policy = self.merge_policy
        self._docs_stack.policy = self.merge_policy
        folds: list[int] = []
        if self._doc_terms or self._dead:
            docs_records = {
                unid: tuple(sorted(terms))
                for unid, terms in self._doc_terms.items()
            }
            terms_records = {
                term: postings
                for term, postings in self._postings.items()
                if postings
            }
            self._docs_stack.append(txn, docs_records, remove=self._dead)
            self._terms_stack.append(txn, terms_records)
            folds = self._docs_stack.maintain(
                txn,
                mirror=lambda index, newer_keys: self._terms_stack.fold(
                    txn, index, self._fold_combine(index, newer_keys)
                ),
            )
            # The overlay now lives in the stack (append seeded the
            # record caches, so nothing re-parses on the next query).
            self._postings = {}
            self._doc_terms = {}
            self._dead = set()
        meta = json.dumps({
            **checkpoint,
            "terms": self._terms_stack.manifest(),
            "docs": self._docs_stack.manifest(),
        }).encode()
        engine.put(txn, _META_KEY, meta)
        engine.commit(txn)
        self.catch_up.record_merge(len(folds))

    _save = save_checkpoint

    def _read_meta(self) -> dict | None:
        raw_meta = self.db.engine.get(_META_KEY)
        return None if raw_meta is None else json.loads(raw_meta.decode())

    def _load_segments(self, meta: dict) -> bool:
        """Adopt the persisted segments: parses only the per-segment
        offset directories — postings blobs stay bytes until a term is
        touched."""
        self._make_stacks()
        if not self._docs_stack.load(meta.get("docs", {})) or (
            not self._terms_stack.load(meta.get("terms", {}))
        ):
            self._drop_base()
            return False
        self._doc_count = self._docs_stack.live_count()
        return True

    # -- segment stack access ----------------------------------------------

    def _merged(self, term: str) -> dict[str, dict[str, list[int]]]:
        """Overlay + stack-minus-dead view of one term's postings.

        Terms absent from every segment need no merging — the overlay
        dict is returned as-is (and never cached, so it is never mutated
        by :meth:`_supersede`). Cached merges are always freshly-built
        dicts this index owns. A stack entry counts only when its
        segment is the document's newest home (the docs stack
        arbitrates) and the document is not dead.
        """
        if self._terms_stack is None or term not in self._terms_stack:
            live = self._postings.get(term)
            return live if live is not None else {}
        merged = self._merged_cache.get(term)
        if merged is not None:
            return merged
        merged = {}
        for position, record in self._terms_stack.records(term):
            for unid, fields in record.items():
                if unid in self._dead or unid in self._doc_terms:
                    continue  # superseded since the last append
                if self._docs_stack.position_of(unid) != position:
                    continue  # a newer segment rewrote this document
                merged[unid] = fields
        live = self._postings.get(term)
        if live:
            merged.update(live)
        self._merged_cache[term] = merged
        return merged

    def _in_stack(self, unid: str) -> bool:
        return (
            self._docs_stack is not None
            and unid not in self._dead
            and self._docs_stack.position_of(unid) is not None
        )

    def _terms_of(self, unid: str) -> set[str]:
        terms = self._doc_terms.get(unid)
        if terms is not None:
            return terms
        if not self._in_stack(unid):
            return set()
        record = self._docs_stack.get(unid)
        return set(record) if record else set()

    def _all_doc_unids(self) -> set[str]:
        unids = set(self._doc_terms)
        if self._docs_stack is not None:
            unids.update(
                unid
                for unid in self._docs_stack.live_keys()
                if unid not in self._dead
            )
        return unids

    def _supersede(self, unid: str) -> None:
        """Tombstone a stack document instead of editing frozen segments.

        Already-materialized merges drop the unid directly — cheaper than
        parsing the doc's stack term list, and a no-op at reopen catch-up
        time when no merge has been materialized yet.
        """
        self._dead.add(unid)
        for entry in self._merged_cache.values():
            entry.pop(unid, None)

    def forget(self, unid: str) -> None:
        self._remove(unid)

    def reindex(self, doc: Document) -> None:
        self._remove(doc.unid)
        self._add(doc)

    def _add(self, doc: Document) -> None:
        if self._in_stack(doc.unid):
            self._supersede(doc.unid)
            self._doc_count -= 1
        terms: set[str] = set()
        for item in doc:
            if item.type not in _TEXT_TYPES:
                continue
            text = (
                " ".join(item.value) if isinstance(item.value, list) else item.value
            )
            field = item.name.lower()
            for position, token in enumerate(tokenize(text)):
                slot = (
                    self._postings.setdefault(token, {})
                    .setdefault(doc.unid, {})
                    .setdefault(field, [])
                )
                slot.append(position)
                terms.add(token)
        self._doc_terms[doc.unid] = terms
        for term in terms:
            self._merged_cache.pop(term, None)
        self._doc_count += 1

    def _remove(self, unid: str) -> None:
        terms = self._doc_terms.pop(unid, None)
        if terms is None:
            if self._in_stack(unid):
                self._supersede(unid)
                self._doc_count -= 1
            return
        for term in terms:
            postings = self._postings.get(term)
            if postings is not None:
                postings.pop(unid, None)
                if not postings:
                    del self._postings[term]
            self._merged_cache.pop(term, None)
        if self._in_stack(unid):  # overlay shadowed an older stack entry
            self._supersede(unid)
        self._doc_count -= 1

    # -- stats ------------------------------------------------------------

    @property
    def term_count(self) -> int:
        """Distinct terms with at least one live posting.

        With segments loaded this materializes every stack term (it must
        check for tombstone survivors), so it is a diagnostics property,
        not a hot path.
        """
        if self._terms_stack is None:
            return len(self._postings)
        terms = set(self._postings)
        for term in self._terms_stack.keys():
            if term not in terms and self._merged(term):
                terms.add(term)
        return len(terms)

    @property
    def document_count(self) -> int:
        return self._doc_count

    def postings_snapshot(self) -> dict[str, dict[str, dict[str, list[int]]]]:
        """Fully-materialized postings (overlay + stack), for equivalence
        checks — forces every lazy term, so O(index)."""
        snapshot = {}
        terms = set(self._postings)
        if self._terms_stack is not None:
            terms.update(self._terms_stack.keys())
        for term in terms:
            merged = self._merged(term)
            if merged:
                snapshot[term] = merged
        return snapshot

    # -- search -------------------------------------------------------------

    def search(
        self,
        query: str,
        limit: int | None = None,
        as_user: str | None = None,
    ) -> list[SearchHit]:
        """Run ``query``; returns hits ranked by tf–idf, best first.

        Each query word is stemmed once, and each positive word's postings
        and idf are looked up once per search, so ranking costs
        O(matches × positive words). With ``limit`` only the best
        ``limit`` hits are selected (a heap, not a full sort); reader
        fields filter before that cut. Ties rank by unid.
        """
        if limit is not None and limit < 0:
            raise FullTextError(f"limit must be >= 0, got {limit}")
        tree = parse_query(query)
        words = _leaf_words(tree, {})
        matched = [unid for unid in self._eval(tree, words) if unid in self.db]
        if as_user is not None:
            matched = [
                unid
                for unid in matched
                if self.db._can_read(as_user, self.db.get(unid))
            ]
        score = self._scorer(tree, words)
        ranked = [(-score(unid), unid) for unid in matched]
        best = sorted(ranked) if limit is None else heapq.nsmallest(limit, ranked)
        return [SearchHit(unid, -negated) for negated, unid in best]

    # -- boolean evaluation --------------------------------------------------

    def _universe(self) -> set[str]:
        return self._all_doc_unids()

    def _eval(self, node, words: dict) -> set[str]:
        if isinstance(node, Term):
            return self._term_docs(words[node][0], node.field)
        if isinstance(node, Phrase):
            return self._phrase_docs(words[node], node.field)
        if isinstance(node, And):
            parts = [self._eval(part, words) for part in node.parts]
            result = parts[0]
            for part in parts[1:]:
                result &= part
            return result
        if isinstance(node, Or):
            result: set[str] = set()
            for part in node.parts:
                result |= self._eval(part, words)
            return result
        if isinstance(node, Not):
            return self._universe() - self._eval(node.part, words)
        raise FullTextError(f"cannot evaluate query node {node!r}")

    def _term_docs(self, word: str, field: str | None) -> set[str]:
        postings = self._merged(word)
        if field is None:
            return set(postings)
        field = field.lower()
        return {unid for unid, fields in postings.items() if field in fields}

    def _phrase_docs(self, words: list[str], field: str | None) -> set[str]:
        if not words:
            return set()
        if len(words) == 1:
            return self._term_docs(words[0], field)
        candidates = None
        for word in words:
            docs = set(self._merged(word))
            candidates = docs if candidates is None else candidates & docs
        result = set()
        for unid in candidates or ():
            if self._phrase_in_doc(words, unid, field):
                result.add(unid)
        return result

    def _phrase_in_doc(self, words: list[str], unid: str, field: str | None) -> bool:
        fields = set()
        for word in words:
            entry = self._merged(word).get(unid, {})
            fields |= set(entry)
        if field is not None:
            fields &= {field.lower()}
        for candidate_field in fields:
            starts = self._merged(words[0]).get(unid, {}).get(
                candidate_field, []
            )
            for start in starts:
                if all(
                    (start + offset)
                    in self._merged(word).get(unid, {}).get(
                        candidate_field, []
                    )
                    for offset, word in enumerate(words[1:], 1)
                ):
                    return True
        return False

    # -- scoring ------------------------------------------------------------

    def _scorer(self, tree, words: dict):
        """The per-query tf–idf scorer.

        Looks up each positive word's postings and idf once; the returned
        function then sums ``tf * idf`` over those words for one document,
        in query order — the same terms in the same order for every
        document, so scores do not depend on how many documents match.
        NOT subtrees do not contribute to relevance.
        """
        n_docs = max(self._doc_count, 1)
        plan = []
        for node in _positive_leaves(tree):
            for word in words[node]:
                postings = self._merged(word)
                if postings:
                    plan.append((postings, math.log(n_docs / len(postings)) + 1.0))
        weight = self.field_weights.get

        def score(unid: str) -> float:
            total = 0.0
            for postings, idf in plan:
                fields = postings.get(unid)
                if fields is not None:
                    tf = sum([
                        len(positions) * weight(field, 1.0)
                        for field, positions in fields.items()
                    ])
                    total += tf * idf
            return total

        return score


def _leaf_words(node, words: dict) -> dict:
    """Map each Term/Phrase leaf of a query to its index words, stemming
    each query word once: a term is lowercased and stemmed, a phrase
    tokenized as documents are."""
    if isinstance(node, Term):
        if node not in words:
            words[node] = [stem(node.text.lower())]
    elif isinstance(node, Phrase):
        if node not in words:
            words[node] = tokenize(node.text)
    elif isinstance(node, (And, Or)):
        for part in node.parts:
            _leaf_words(part, words)
    elif isinstance(node, Not):
        _leaf_words(node.part, words)
    return words


def _positive_leaves(node) -> list:
    """Term/Phrase leaves outside NOT subtrees, in query order."""
    if isinstance(node, (Term, Phrase)):
        return [node]
    if isinstance(node, (And, Or)):
        out = []
        for part in node.parts:
            out.extend(_positive_leaves(part))
        return out
    return []
