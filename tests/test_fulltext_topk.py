"""Top-k search ranks exactly as a full sort with the per-document scorer.

``FullTextIndex.search`` scores each match with a per-query scorer (stems,
postings and idf looked up once) and selects the best ``limit`` hits with
a heap. The reference here is the straightforward algorithm it replaced:
re-derive every positive term's words and postings for each matching
document, sum ``tf * idf`` in query order, sort every hit by
``(-score, unid)`` and cut. Results must agree hit for hit — same unids,
same order, equal float scores — for ties, NOT and phrase queries, field
scopes, and reader fields that drop hits ranked above the cut.

The fast lane runs in the default job; the ``slow``-marked lane has the
full example budget. The last tests are deterministic cost counters.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fulltext.index as index_module
import repro.fulltext.tokenizer as tokenizer_module
from repro.core import ItemType, NotesDatabase
from repro.fulltext import FullTextIndex
from repro.fulltext.query import And, Not, Or, Phrase, Term, parse_query
from repro.fulltext.tokenizer import stem, tokenize
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

WORDS = ("budget", "budgets", "meeting", "meetings", "release", "replica",
         "review", "reviewed", "forecast", "summary")


def build_corpus(seed=11, n=60):
    rng = random.Random(seed)
    db = NotesDatabase("ft.nsf", clock=VirtualClock(), rng=random.Random(seed))
    for index in range(n):
        db.clock.advance(1)
        subject = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
        body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 8)))
        db.create({"Form": "Memo", "Subject": subject, "Body": body})
        if index % 7 == 0:  # exact duplicates: tied scores
            db.create({"Form": "Memo", "Subject": subject, "Body": body})
    return db, FullTextIndex(db)


# -- the reference ranking ------------------------------------------------


def positive_terms(node):
    if isinstance(node, (Term, Phrase)):
        return [node]
    if isinstance(node, (And, Or)):
        out = []
        for part in node.parts:
            out.extend(positive_terms(part))
        return out
    return []


def reference_score(index, unid, tree):
    total = 0.0
    n_docs = max(index.document_count, 1)
    for node in positive_terms(tree):
        words = (tokenize(node.text) if isinstance(node, Phrase)
                 else [stem(node.text.lower())])
        for word in words:
            postings = index._merged(word)
            if not postings or unid not in postings:
                continue
            tf = sum(
                len(positions) * index.field_weights.get(field, 1.0)
                for field, positions in postings[unid].items()
            )
            total += tf * (math.log(n_docs / len(postings)) + 1.0)
    return total


def reference_search(index, query, limit=None, as_user=None):
    db = index.db
    # The match set comes from an unlimited search: what is under test here
    # is the scoring, the ranking and the cut.
    matched = [hit.unid for hit in index.search(query)]
    hits = [(unid, reference_score(index, unid, parse_query(query)))
            for unid in matched]
    if as_user is not None:
        hits = [(unid, score) for unid, score in hits
                if db._can_read(as_user, db.get(unid))]
    hits.sort(key=lambda hit: (-hit[1], hit[0]))
    return hits[:limit] if limit is not None else hits


def as_pairs(hits):
    return [(hit.unid, hit.score) for hit in hits]


# -- query strategy ---------------------------------------------------------

WORD = st.sampled_from(WORDS + ("the", "absent"))
ATOM = st.one_of(
    WORD,
    st.builds(lambda field, word: f"{field}:{word}",
              st.sampled_from(["subject", "body"]), WORD),
    st.builds(lambda a, b: f'"{a} {b}"', WORD, WORD),
    st.builds(lambda word: f'"{word}"', WORD),
)
QUERY = st.recursive(
    ATOM,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"{a} AND {b}", inner, inner),
        st.builds(lambda a, b: f"({a}) OR ({b})", inner, inner),
        st.builds(lambda a, b: f"{a} NOT {b}", inner, inner),
        st.builds(lambda a, b: f"{a} {b}", inner, inner),
    ),
    max_leaves=4,
)
LIMITS = st.one_of(st.none(), st.integers(min_value=0, max_value=30))

_CORPUS = build_corpus()


def check_topk(query, limit):
    _, index = _CORPUS
    got = as_pairs(index.search(query, limit=limit))
    full = reference_search(index, query)
    assert set(got) <= set(full)
    assert got == reference_search(index, query, limit=limit)


def check_reader_fields(query, limit, hide_every):
    db, index = build_corpus(seed=hide_every)
    db.acl = AccessControlList(default_level=AclLevel.EDITOR)
    # Hide the best-ranked hits first, so the cut has to reach past them.
    ranked = [hit.unid for hit in index.search(query)]
    for position, unid in enumerate(ranked):
        if position % hide_every == 0:
            db.get(unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
    got = as_pairs(index.search(query, limit=limit, as_user="peon/Acme"))
    assert got == reference_search(index, query, limit=limit,
                                   as_user="peon/Acme")
    assert not set(unid for unid, _ in got) & set(ranked[::hide_every])


# -- fast lane ----------------------------------------------------------------


@settings(max_examples=60, parent=RELAXED)
@given(query=QUERY, limit=LIMITS)
def test_topk_equals_full_sort(query, limit):
    check_topk(query, limit)


@settings(max_examples=15, parent=RELAXED)
@given(query=QUERY, limit=LIMITS, hide_every=st.integers(1, 3))
def test_topk_with_reader_fields(query, limit, hide_every):
    check_reader_fields(query, limit, hide_every)


# -- slow lane ----------------------------------------------------------------


@pytest.mark.slow
@settings(max_examples=400, parent=RELAXED)
@given(query=QUERY, limit=LIMITS)
def test_topk_equals_full_sort_full(query, limit):
    check_topk(query, limit)


@pytest.mark.slow
@settings(max_examples=100, parent=RELAXED)
@given(query=QUERY, limit=LIMITS, hide_every=st.integers(1, 3))
def test_topk_with_reader_fields_full(query, limit, hide_every):
    check_reader_fields(query, limit, hide_every)


# -- examples -----------------------------------------------------------------


def test_ties_rank_by_unid():
    db = NotesDatabase("t.nsf", clock=VirtualClock(), rng=random.Random(2))
    index = FullTextIndex(db)
    for _ in range(12):
        db.create({"Subject": "budget", "Body": "review"})
    hits = index.search("budget", limit=5)
    assert len({hit.score for hit in hits}) == 1
    assert [hit.unid for hit in hits] == sorted(db.unids())[:5]


def test_single_word_phrase_matches_like_the_term():
    """A one-word phrase is tokenized once, like the word on its own:
    "meetings" matches (and scores) the documents holding "meetings"."""
    db = NotesDatabase("p.nsf", clock=VirtualClock(), rng=random.Random(3))
    index = FullTextIndex(db)
    plural = db.create({"Subject": "meetings"}).unid
    db.create({"Subject": "meeting"})
    assert index.search('"meetings"') == index.search("meetings")
    assert [hit.unid for hit in index.search('"meetings"')] == [plural]


def test_negative_limit_rejected():
    from repro.errors import FullTextError

    _, index = _CORPUS
    with pytest.raises(FullTextError):
        index.search("budget", limit=-1)


# -- cost counter ---------------------------------------------------------------


@pytest.mark.parametrize("query, words", [
    ("budget", 1),
    ("budget review", 2),
    ('"budget review"', 2),
    ("subject:budget OR body:meetings", 2),
])
def test_search_stems_each_query_word_once(monkeypatch, query, words):
    """However many documents match, a search stems each query word once."""
    for n_docs in (5, 300):
        db = NotesDatabase("s.nsf", clock=VirtualClock(),
                           rng=random.Random(n_docs))
        index = FullTextIndex(db)
        for _ in range(n_docs):
            db.create({"Subject": "budget review", "Body": "meetings budget"})
        calls = 0

        def counted_stem(word):
            nonlocal calls
            calls += 1
            return stem(word)

        with monkeypatch.context() as patch:
            patch.setattr(tokenizer_module, "stem", counted_stem)
            patch.setattr(index_module, "stem", counted_stem)
            hits = index.search(query, limit=10)
        assert len(hits) == min(10, n_docs)
        assert calls == words, (query, n_docs, calls)
