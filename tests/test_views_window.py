"""A view window equals the slice of the full rendering it pages through.

``View.window(start, count)`` serves ``?OpenView`` / ``?ReadViewEntries``
pages from the category directory and one B+tree range read. The property:
it returns exactly ``rows()[start - 1 : start - 1 + count]`` — category
values, levels, counts and subtotals included — with ``len(rows())`` as
the total, whatever history built the view. ``CategoryRow`` equality
ignores subtotals, so they are compared explicitly.

Layouts cover 0, 1 and 2 categorized columns (the first ascending or
descending, the second fed multi-valued items), a totals column with int,
float and non-numeric cells, and hierarchical views with responses and
orphans. Histories mix creates, replies, updates, retypes, hard deletes,
soft deletes and restores; one property reloads a persisted snapshot and
tops it up from the journal, another reads through reader fields.

Each property runs twice: a reduced-example fast lane in the default job
and a ``slow``-marked lane with the full example budget (``pytest -m
slow``). The last test bounds the entries a window visits, a
deterministic cost counter.
"""

import math
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ItemType, NotesDatabase
from repro.design import Application
from repro.errors import ViewError
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import CategoryRow, SortOrder, View, ViewColumn
from repro.web import DominoWebServer

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CATEGORY_VALUES = st.sampled_from(
    ["a", "B", "b", "", "zz", 3, 1.5, ["a", "zz"], ["b"], []]
)
AMOUNTS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just("n/a"),
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "reply", "update", "retype", "delete",
                         "soft_delete", "restore"]),
        st.integers(min_value=0, max_value=1000),
        CATEGORY_VALUES,
        CATEGORY_VALUES,
        AMOUNTS,
    ),
    max_size=40,
)
LAYOUTS = st.fixed_dictionaries({
    "categories": st.integers(min_value=0, max_value=2),
    "descending": st.booleans(),
    "totals": st.booleans(),
    "hierarchical": st.booleans(),
})


def make_view(db, layout, **kwargs):
    columns = []
    if layout["categories"] >= 1:
        order = (SortOrder.DESCENDING if layout["descending"]
                 else SortOrder.ASCENDING)
        columns.append(ViewColumn(title="Cat", item="Cat", categorized=True,
                                  sort=order))
    if layout["categories"] == 2:
        columns.append(ViewColumn(title="Sub", item="Sub", categorized=True))
    columns.append(ViewColumn(title="Subject", item="Subject",
                              sort=SortOrder.ASCENDING))
    columns.append(ViewColumn(title="Amount", item="Amount",
                              totals=layout["totals"]))
    return View(db, "W", selection='SELECT Form = "Memo"', columns=columns,
                hierarchical=layout["hierarchical"], **kwargs)


def apply(db, ops):
    for op, pick, cat, sub, amount in ops:
        db.clock.advance(1)
        unids = db.unids()
        if op in ("create", "reply") or not unids:
            parent = unids[pick % len(unids)] if op == "reply" and unids else None
            # Some parents are not selected, so their responses are orphans.
            form = "Other" if pick % 5 == 0 else "Memo"
            db.create({"Form": form, "Cat": cat, "Sub": sub,
                       "Subject": f"s{pick % 7}", "Amount": amount},
                      parent=parent)
            continue
        target = unids[pick % len(unids)]
        if op == "update":
            db.update(target, {"Cat": cat, "Sub": sub, "Amount": amount})
        elif op == "retype":
            db.update(target, {"Form": "Other" if pick % 2 else "Memo"})
        elif op == "delete":
            db.delete(target)
        elif op == "soft_delete":
            db.soft_delete(target)
        elif db.trash:
            db.restore(db.trash[pick % len(db.trash)])


def subtotals(rows):
    return [row.subtotals if isinstance(row, CategoryRow) else None
            for row in rows]


def starts_to_check(rows, rng):
    """0, 1, past the end, every category row, and a few random starts."""
    total = len(rows)
    starts = {0, 1, total, total + 1, total + 7}
    starts.update(index + 1 for index, row in enumerate(rows)
                  if isinstance(row, CategoryRow))
    starts.update(rng.randint(1, total + 1) for _ in range(5))
    return sorted(starts)


def assert_windows_match(view, as_user=None, seed=0):
    rows = view.rows(as_user=as_user)
    rng = random.Random(seed)
    for start in starts_to_check(rows, rng):
        for count in (0, 1, 3, 30, len(rows) + 1):
            window, total = view.window(start, count, as_user=as_user)
            offset = max(start - 1, 0)
            expected = rows[offset:offset + count]
            assert total == len(rows)
            assert window == expected, (start, count)
            assert subtotals(window) == subtotals(expected), (start, count)


def fresh_db():
    return NotesDatabase("w.nsf", clock=VirtualClock(), rng=random.Random(7))


def check_history(layout, ops):
    db = fresh_db()
    view = make_view(db, layout)
    apply(db, ops[: len(ops) // 2])
    assert_windows_match(view)
    apply(db, ops[len(ops) // 2:])
    assert_windows_match(view)
    # Counts and subtotals kept through the history equal a rebuild's.
    rebuilt = make_view(db, layout, mode="manual")
    assert view.rows() == rebuilt.rows()
    assert subtotals(view.rows()) == subtotals(rebuilt.rows())
    assert view.totals() == rebuilt.totals()
    assert_windows_match(rebuilt)


def check_snapshot_topup(layout, ops):
    with tempfile.TemporaryDirectory() as workdir:
        engine = StorageEngine(f"{workdir}/nsf", durability="none")
        db = NotesDatabase("w.nsf", clock=VirtualClock(),
                           rng=random.Random(7), engine=engine)
        apply(db, ops[: len(ops) // 2])
        make_view(db, layout, persist=True).close()  # saves the snapshot
        apply(db, ops[len(ops) // 2:])
        view = make_view(db, layout, persist=True)
        assert view.loaded_from_disk
        assert_windows_match(view)
        cold = make_view(db, layout, mode="manual")
        assert subtotals(view.rows()) == subtotals(cold.rows())
        view.close()
        engine.close()


def check_reader_fields(layout, ops, hidden):
    db = fresh_db()
    view = make_view(db, layout)
    apply(db, ops)
    db.acl = AccessControlList(default_level=AclLevel.EDITOR)
    for index, unid in enumerate(db.unids()):
        if hidden[index % len(hidden)]:
            db.get(unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
    for user in ("peon/Acme", "boss/Acme"):
        assert_windows_match(view, as_user=user)


HIDDEN = st.lists(st.booleans(), min_size=1, max_size=5)

# -- fast lane (default job: reduced examples) --------------------------


@settings(max_examples=40, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS)
def test_window_equals_rows_slice(layout, ops):
    check_history(layout, ops)


@settings(max_examples=8, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS)
def test_window_after_snapshot_topup(layout, ops):
    check_snapshot_topup(layout, ops)


@settings(max_examples=15, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS, hidden=HIDDEN)
def test_window_with_reader_fields(layout, ops, hidden):
    check_reader_fields(layout, ops, hidden)


# -- slow lane (full budget: pytest -m slow) ----------------------------


@pytest.mark.slow
@settings(max_examples=300, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS)
def test_window_equals_rows_slice_full(layout, ops):
    check_history(layout, ops)


@pytest.mark.slow
@settings(max_examples=60, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS)
def test_window_after_snapshot_topup_full(layout, ops):
    check_snapshot_topup(layout, ops)


@pytest.mark.slow
@settings(max_examples=100, parent=RELAXED)
@given(layout=LAYOUTS, ops=OPS, hidden=HIDDEN)
def test_window_with_reader_fields_full(layout, ops, hidden):
    check_reader_fields(layout, ops, hidden)


# -- examples -----------------------------------------------------------


def test_window_argument_edges():
    db = fresh_db()
    view = make_view(db, {"categories": 1, "descending": False,
                          "totals": True, "hierarchical": False})
    for index in range(5):
        db.create({"Form": "Memo", "Cat": "ab"[index % 2],
                   "Subject": f"s{index}", "Amount": index})
    rows = view.rows()
    assert view.window(1, len(rows)) == (rows, len(rows))
    assert view.window(-3, 2) == (rows[:2], len(rows))
    assert view.window(len(rows) + 1, 5) == ([], len(rows))
    with pytest.raises(ViewError):
        view.window(1, -1)


def test_float_subtotals_do_not_drift():
    """Exact subtotals: cancelling values leave no rounding residue."""
    db = fresh_db()
    view = make_view(db, {"categories": 1, "descending": False,
                          "totals": True, "hierarchical": False})
    big = db.create({"Form": "Memo", "Cat": "a", "Subject": "x",
                     "Amount": 1e16})
    db.create({"Form": "Memo", "Cat": "a", "Subject": "y", "Amount": 1.0})
    db.delete(big.unid)
    heading = view.window(1, 1)[0][0]
    assert heading.subtotals == {2: 1.0}
    assert view.rows()[0].subtotals == {2: 1.0}
    assert view.totals() == {2: 1.0}


# -- cost counter ---------------------------------------------------------


def test_window_visits_only_offset_and_count(monkeypatch):
    """At 5k docs a 30-row page visits at most ``count`` + (its offset
    inside the category it starts in) entries: range reads and document
    fetches are counted, whatever they go through."""
    clock = VirtualClock()
    db = NotesDatabase("big.nsf", clock=clock, rng=random.Random(3))
    categories = [f"cat{index:02d}" for index in range(40)]
    rng = random.Random(4)
    for index in range(5000):
        clock.advance(1)
        db.create({"Form": "Memo", "Cat": rng.choice(categories),
                   "Subject": f"memo {index:05d}"})
    app = Application(db)
    view = app.save_view("ByCat", 'SELECT Form = "Memo"', [
        ViewColumn(title="Cat", item="Cat", categorized=True),
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
    ])
    server = DominoWebServer()
    server.register("big.nsf", app)
    rows = view.rows()

    visits = 0
    tree = view._tree
    for name in ("range", "items"):
        original = getattr(tree, name)

        def counted(*args, _original=original, **kwargs):
            nonlocal visits
            for pair in _original(*args, **kwargs):
                visits += 1
                yield pair

        monkeypatch.setattr(tree, name, counted)
    try_get = db.try_get

    def counted_try_get(unid):
        nonlocal visits
        visits += 1
        return try_get(unid)

    monkeypatch.setattr(db, "try_get", counted_try_get)

    count = 30
    headings = [index + 1 for index, row in enumerate(rows)
                if isinstance(row, CategoryRow)]
    for start in (1, 2, 700, 2500, len(rows) - 10, headings[3], headings[-1]):
        heading = max(index for index in range(start)
                      if isinstance(rows[index], CategoryRow))
        # Entries of the starting category that lie before the window.
        offset = max(start - 2 - heading, 0)
        for command in ("OpenView", "ReadViewEntries"):
            visits = 0
            response = server.handle(
                f"/big.nsf/ByCat?{command}&Start={start}&Count={count}"
            )
            assert response.ok
            assert visits <= count + offset, (command, start, visits)


def test_non_finite_subtotals():
    db = fresh_db()
    view = make_view(db, {"categories": 1, "descending": False,
                          "totals": True, "hierarchical": False})
    db.create({"Form": "Memo", "Cat": "a", "Subject": "x",
               "Amount": float("inf")})
    db.create({"Form": "Memo", "Cat": "a", "Subject": "y", "Amount": 2})
    assert view.window(1, 1)[0][0].subtotals == {2: float("inf")}
    negative = db.create({"Form": "Memo", "Cat": "a", "Subject": "z",
                          "Amount": float("-inf")})
    assert math.isnan(view.window(1, 1)[0][0].subtotals[2])
    assert math.isnan(view.rows()[0].subtotals[2])
    db.delete(negative.unid)
    assert view.window(1, 1)[0][0].subtotals == {2: float("inf")}
    assert view.rows()[0].subtotals == {2: float("inf")}
