"""``web_reads``: the Domino HTTP task over an in-memory database.

Browsers call ``DominoWebServer.handle`` with a fixed request mix: OpenView
and ReadViewEntries at a random ``Start``, SearchView with one or two terms
drawn from a Zipf vocabulary (so selectivity varies from a handful of hits
to most of the database), OpenDocument, and one EditDocument in every
twenty requests. There is no storage engine, so the views and the
full-text index serve queries here rather than absorb maintenance, and the
storage layer is bypassed entirely.
"""

from __future__ import annotations

import re
from gen import Zipf, body, log_uniform, vocabulary
from repro.core import NotesDatabase
from repro.design import Application
from repro.fulltext import FullTextIndex, tokenize
from repro.sim import VirtualClock, derive_rng
from repro.views import DocumentRow, SortOrder, ViewColumn
from repro.web import DominoWebServer

NAME = "web_reads"
TRACE_BLOCK = 40  # two turns of SCHEDULE, so both halves see one mix
WINDOW = 200  # requests per throughput window (ten turns of SCHEDULE)
COUNT_OPS = 400
COUNTS = ("views.rows_examined_per_row_returned",
          "fulltext.matches_per_hit_returned")
DOCS = 5000
VOCABULARY = 2000
BODY_BYTES = (150, 900)
CATEGORIES = 40
AUTHORS = 60
DB_PATH = "kb.nsf"
VIEW = "ByCategory"
COUNT = 30
SEARCH_COUNT = 25
# The request mix, as a repeating schedule of twenty slots: the share of
# each kind is exact in every run, only the arguments are random.
SCHEDULE = (
    ["view"] * 5 + ["entries"] * 3 + ["search"] * 6 + ["document"] * 5
    + ["edit"]
)
# Every CHECK_EVERY-th view window and search result is compared against
# the view's own rows / the generator's record of which words each
# document holds.
CHECK_EVERY = 16
_UNID_LINK = re.compile(r"/([0-9A-F]{32})\?OpenDocument")
_UNID_ATTR = re.compile(r'unid="([0-9A-F]{32})"')


class Inputs:
    def __init__(self, seed: int) -> None:
        rng = derive_rng(seed, NAME, "inputs")
        self.seed = seed
        self.words = vocabulary(rng, VOCABULARY)
        self.zipf = Zipf(len(self.words))
        categories = [f"topic{index:02d}" for index in range(CATEGORIES)]
        category_zipf = Zipf(CATEGORIES, 0.8)
        self.categories = categories
        self.docs = []
        for _ in range(DOCS):
            self.docs.append({
                "Form": "Article",
                "Category": categories[category_zipf.draw(rng)],
                "Author": f"author{rng.randrange(AUTHORS):02d}",
                "Subject": body(rng, self.words, self.zipf, 30),
                "Body": body(rng, self.words, self.zipf,
                             log_uniform(rng, *BODY_BYTES)),
                "Status": "draft",
            })


class State:
    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.clock = VirtualClock()
        self.db = NotesDatabase("kb", clock=self.clock,
                                rng=derive_rng(inputs.seed, NAME, "unids"),
                                server="www1")
        self.unids = []
        # word -> unids whose Subject or Body holds it (edits never touch
        # either item, so this stays the ground truth for searches).
        self.holders: dict[str, set[str]] = {}
        for items in inputs.docs:
            self.clock.advance(1)
            unid = self.db.create(items, author="loader").unid
            self.unids.append(unid)
            for word in set((items["Subject"] + " " + items["Body"]).split()):
                self.holders.setdefault(word, set()).add(unid)
        self.app = Application(self.db, designer="web/Acme")
        self.view = self.app.save_view(VIEW, 'SELECT Form = "Article"', [
            ViewColumn(title="Category", item="Category", categorized=True),
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Author", item="Author"),
        ])
        self.server = DominoWebServer()
        self.server.register(DB_PATH, self.app)
        self.rng = derive_rng(inputs.seed, NAME, "requests")
        self.requests = 0
        self.rows_returned = 0
        self.matches = 0
        self.hits = 0


def setup(inputs: Inputs, workdir: str, tracer=None) -> State:
    return State(inputs)


def discard(state: State) -> None:
    pass


def trace(state: State, tracer) -> None:
    tracer.wrap(state.server, "handle", "web.handle")
    rows = state.view.rows

    def counted_rows(*args, **kwargs):
        result = rows(*args, **kwargs)
        tracer.count("views.rows_examined", len(result))
        return result

    state.view.rows = counted_rows
    tracer.wrap(state.view, "rows", "views.rows")
    # The server builds its own index on register(); it is the only
    # FullTextIndex in this process, so trace the method on the class.
    tracer.wrap(FullTextIndex, "search", "fulltext.search")
    # OpenDocument and EditDocument fetch through get(); View.rows() reads
    # every entry through try_get(), which stays inside views.rows.
    tracer.wrap(state.db, "get", "core.get")
    tracer.wrap(state.db, "update", "core.update")


def op(state: State, rec) -> None:
    rng = state.rng
    kind = SCHEDULE[state.requests % len(SCHEDULE)]
    state.requests += 1
    check = state.requests % CHECK_EVERY == 0
    view_rows = len(state.view) + CATEGORIES
    if kind in ("view", "entries"):
        start_row = rng.randint(1, view_rows)
        command = "OpenView" if kind == "view" else "ReadViewEntries"
        url = f"/{DB_PATH}/{VIEW}?{command}&Start={start_row}&Count={COUNT}"
    elif kind == "search":
        terms = [state.inputs.words[state.inputs.zipf.draw(rng)]
                 for _ in range(rng.randint(1, 2))]
        url = (f"/{DB_PATH}/{VIEW}?SearchView&Query={'+'.join(terms)}"
               f"&Count={SEARCH_COUNT}")
    elif kind == "document":
        url = f"/{DB_PATH}/{VIEW}/{rng.choice(state.unids)}?OpenDocument"
    else:
        state.clock.advance(1)
        url = (f"/{DB_PATH}/{VIEW}/{rng.choice(state.unids)}?EditDocument"
               f"&Status=rev{rng.randrange(1000)}"
               f"&Category={rng.choice(state.inputs.categories)}")
    if kind == "edit":
        response = rec.write(state.server.handle, url)
    else:
        response = rec.request("view" if kind == "entries" else kind,
                               state.server.handle, url)
    if response.status != 200:
        rec.fail(f"{url} -> {response.status}")
        return
    if kind in ("view", "entries"):
        if rec.tracing:
            state.rows_returned += max(min(COUNT, view_rows - start_row + 1), 1)
        if check:
            with rec.excluded():
                rows = state.view.rows()
                _check_window(rec, kind, response.body,
                              rows[start_row - 1:start_row - 1 + COUNT])
    elif kind == "search":
        wanted = set.intersection(*(state.holders.get(term, set())
                                    for term in terms))
        state.matches += len(wanted)
        state.hits += max(min(len(wanted), SEARCH_COUNT), 1)
        if check:
            with rec.excluded():
                _check_search(state, rec, terms, wanted, response.body)


def _check_search(state, rec, terms, wanted, html) -> None:
    got = _UNID_LINK.findall(html)
    if len(got) != min(len(wanted), SEARCH_COUNT) or not set(got) <= wanted:
        rec.fail(f"search {terms} returned documents without them")
    for unid in got[:3]:
        doc = state.db.try_get(unid)
        held = set(tokenize(doc.get("Subject") + " " + doc.get("Body")))
        if not set(terms) <= held:
            rec.fail(f"hit {unid} lacks {terms}")


def _check_window(rec, kind, html, window) -> None:
    expected = [row.unid for row in window if isinstance(row, DocumentRow)]
    pattern = _UNID_LINK if kind == "view" else _UNID_ATTR
    if pattern.findall(html) != expected:
        rec.fail(f"{kind} window differs from View.rows()")


def finish(state: State, rec, tracer) -> dict:
    report = {
        "views.rows_examined_per_row_returned":
            tracer.counts["views.rows_examined"] / max(state.rows_returned, 1)
            if tracer else 0.0,
        "fulltext.matches_per_hit_returned":
            state.matches / max(state.hits, 1),
    }
    return {"report": report, "failures": []}
