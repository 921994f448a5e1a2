"""Tests for the Domino web engine: URLs, rendering, request handling."""

from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.design import Application
from repro.security import AccessControlList, AclLevel
from repro.views import SortOrder, ViewColumn
from repro.web import DominoWebServer, parse_url
from repro.web.urls import WebError
from repro.core import ItemType


class TestUrlParsing:
    def test_database_only(self):
        parsed = parse_url("/sales.nsf")
        assert parsed.database == "sales.nsf"
        assert parsed.command == "opendatabase"

    def test_view_defaults_to_openview(self):
        parsed = parse_url("/sales.nsf/ByCustomer")
        assert parsed.command == "openview"
        assert parsed.view == "ByCustomer"

    def test_document_defaults_to_opendocument(self):
        parsed = parse_url("/db.nsf/v/ABC123")
        assert parsed.command == "opendocument"
        assert parsed.unid == "ABC123"

    def test_explicit_command_and_params(self):
        parsed = parse_url("/db.nsf/v?OpenView&Start=5&Count=10")
        assert parsed.command == "openview"
        assert parsed.param("start") == "5"
        assert parsed.param("COUNT") == "10"  # case-insensitive lookup

    def test_params_keep_case_for_item_names(self):
        parsed = parse_url("/db.nsf/v/U1?EditDocument&Status=done")
        assert parsed.params["Status"] == "done"

    def test_command_case_insensitive(self):
        assert parse_url("/db.nsf/v?openview").command == "openview"
        assert parse_url("/db.nsf/v?OPENVIEW").command == "openview"

    def test_url_decoding(self):
        parsed = parse_url("/db.nsf/By%20Customer?OpenView")
        assert parsed.view == "By Customer"

    def test_search_query(self):
        parsed = parse_url("/db.nsf/v?SearchView&Query=budget+cuts")
        assert parsed.command == "searchview"
        assert parsed.param("query") == "budget cuts"

    def test_bad_urls_rejected(self):
        for bad in ("nope", "/", "/db/v/u/extra", "/db.nsf?MakeCoffee",
                    "/db.nsf?OpenDocument"):
            with pytest.raises(WebError):
                parse_url(bad)


@pytest.fixture
def site(db):
    app = Application(db)
    app.save_view(
        "ByCustomer", 'SELECT Form = "Order"',
        [
            ViewColumn(title="Customer", item="Customer", categorized=True),
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
        ],
    )
    docs = [
        db.create({"Form": "Order", "Customer": f"cust{i % 2}",
                   "Subject": f"order {i}", "Body": f"needs widget {i}"})
        for i in range(6)
    ]
    server = DominoWebServer()
    server.register("sales.nsf", app)
    return db, server, docs


class TestRequests:
    def test_open_database_lists_views(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf")
        assert response.ok
        assert "ByCustomer" in response.body
        assert "test.nsf" in response.body  # the db title

    def test_open_view_renders_rows_and_categories(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf/ByCustomer?OpenView")
        assert response.ok
        assert response.body.count('class="doc"') == 6
        assert response.body.count('class="category"') == 2
        assert "OpenDocument" in response.body

    def test_view_paging(self, site):
        db, server, _ = site
        first = server.handle("/sales.nsf/ByCustomer?OpenView&Count=3")
        assert first.body.count('class="doc"') <= 3
        assert 'class="next"' in first.body
        # following the Next link terminates
        second = server.handle(
            "/sales.nsf/ByCustomer?OpenView&Start=4&Count=30"
        )
        assert 'class="next"' not in second.body

    def test_open_document(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?OpenDocument"
        )
        assert response.ok
        assert "order 0" in response.body
        assert "$" not in response.body.split("<dl>")[1]  # hidden items hidden

    def test_search_view(self, site):
        db, server, docs = site
        response = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=widget+3"
        )
        assert response.ok
        assert docs[3].unid in response.body

    def test_edit_document_writes_items(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?EditDocument&Status=shipped",
            user="web/Acme",
        )
        assert response.ok
        doc = db.get(docs[0].unid)
        assert doc.get("Status") == "shipped"
        assert doc.updated_by[-1] == "web/Acme"
        assert doc.seq == 2

    def test_delete_document(self, site):
        db, server, docs = site
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[5].unid}?DeleteDocument"
        )
        assert response.ok
        assert docs[5].unid not in db
        # and the view no longer shows it
        view_response = server.handle("/sales.nsf/ByCustomer?OpenView")
        assert view_response.body.count('class="doc"') == 5

    def test_default_view(self, site):
        db, server, _ = site
        response = server.handle("/sales.nsf/$defaultview?OpenView")
        assert response.ok and "ByCustomer" in response.body

    def test_unknown_database_404(self, site):
        _, server, _ = site
        assert server.handle("/ghost.nsf").status == 404

    def test_unknown_view_404(self, site):
        _, server, _ = site
        assert server.handle("/sales.nsf/Nope?OpenView").status == 404

    def test_unknown_document_404(self, site):
        _, server, _ = site
        response = server.handle("/sales.nsf/ByCustomer/" + "0" * 32)
        assert response.status == 404

    def test_malformed_url_400(self, site):
        _, server, _ = site
        assert server.handle("/sales.nsf?BrewCoffee").status == 400

    @pytest.mark.parametrize("url", [
        "/sales.nsf/ByCustomer?OpenView&Start=abc",
        "/sales.nsf/ByCustomer?OpenView&Count=3.5",
        "/sales.nsf/ByCustomer?OpenView&Count=-1",
        "/sales.nsf/ByCustomer?ReadViewEntries&Count=x",
        "/sales.nsf/ByCustomer?ReadViewEntries&Start=",
        "/sales.nsf/ByCustomer?SearchView&Query=(((",
        "/sales.nsf/ByCustomer?SearchView&Query=%22open",
        "/sales.nsf/ByCustomer?SearchView&Query=widget&Count=many",
    ])
    def test_bad_parameters_400(self, site, url):
        _, server, _ = site
        response = server.handle(url)
        assert response.status == 400
        assert "400 Bad Request" in response.body

    def test_bad_request_body_is_escaped(self, site):
        _, server, _ = site
        response = server.handle(
            "/sales.nsf/ByCustomer?OpenView&Start=%3Cb%3E"
        )
        assert response.status == 400
        assert "<b>" not in response.body

    def test_html_is_escaped(self, site):
        db, server, _ = site
        doc = db.create({"Form": "Order", "Customer": "cust0",
                         "Subject": "<script>alert(1)</script>"})
        response = server.handle(
            f"/sales.nsf/ByCustomer/{doc.unid}?OpenDocument"
        )
        assert "<script>" not in response.body
        assert "&lt;script&gt;" in response.body


class TestReadViewEntries:
    def test_xml_shape(self, site):
        db, server, docs = site
        response = server.handle("/sales.nsf/ByCustomer?ReadViewEntries")
        assert response.ok
        body = response.body
        assert body.startswith('<?xml version="1.0"')
        assert 'toplevelentries="6"' in body
        assert body.count('category="true"') == 2
        assert body.count('unid="') == 6
        import xml.etree.ElementTree as ET

        root = ET.fromstring(body)
        entries = root.findall("viewentry")
        assert len(entries) == 8  # 2 categories + 6 documents
        doc_entry = next(e for e in entries if e.get("unid"))
        names = [e.get("name") for e in doc_entry.findall("entrydata")]
        assert names == ["Customer", "Subject"]

    def test_paging(self, site):
        db, server, _ = site
        response = server.handle(
            "/sales.nsf/ByCustomer?ReadViewEntries&Start=2&Count=3"
        )
        import xml.etree.ElementTree as ET

        root = ET.fromstring(response.body)
        assert root.get("start") == "2"
        assert len(root.findall("viewentry")) == 3

    def test_respects_reader_fields(self, site):
        db, server, docs = site
        from repro.security import AccessControlList, AclLevel

        db.acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.get(docs[0].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle(
            "/sales.nsf/ByCustomer?ReadViewEntries", user="peon/Acme"
        )
        assert response.body.count('unid="') == 5
        assert docs[0].unid not in response.body

    def test_xml_escaping(self, site):
        db, server, _ = site
        db.create({"Form": "Order", "Customer": "cust0",
                   "Subject": "<&> weird"})
        response = server.handle("/sales.nsf/ByCustomer?ReadViewEntries")
        import xml.etree.ElementTree as ET

        ET.fromstring(response.body)  # must stay well-formed


class TestWebSecurity:
    def test_acl_gates_database(self, site):
        db, server, _ = site
        acl = AccessControlList(default_level=AclLevel.NO_ACCESS)
        acl.add("web/Acme", AclLevel.EDITOR)
        db.acl = acl
        assert server.handle("/sales.nsf", user="stranger").status == 401
        assert server.handle("/sales.nsf", user="web/Acme").ok

    def test_reader_fields_hide_documents_from_views(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.acl = acl
        db.get(docs[0].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle("/sales.nsf/ByCustomer?OpenView",
                                 user="peon/Acme")
        assert response.body.count('class="doc"') == 5
        direct = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?OpenDocument",
            user="peon/Acme",
        )
        assert direct.status == 401

    def test_search_respects_reader_fields(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.acl = acl
        db.get(docs[2].unid).set("Hidden", ["boss/Acme"], ItemType.READERS)
        response = server.handle(
            "/sales.nsf/ByCustomer?SearchView&Query=widget+2",
            user="peon/Acme",
        )
        assert docs[2].unid not in response.body

    def test_edit_denied_for_reader(self, site):
        db, server, docs = site
        acl = AccessControlList(default_level=AclLevel.READER)
        db.acl = acl
        response = server.handle(
            f"/sales.nsf/ByCustomer/{docs[0].unid}?EditDocument&Status=nope",
            user="reader/Acme",
        )
        assert response.status == 401
        assert db.get(docs[0].unid).get("Status") is None


class TestFuzz:
    """Whatever the URL, ``handle`` answers with a status, never raises."""

    COMMANDS = st.sampled_from([
        "OpenView", "ReadViewEntries", "SearchView", "OpenDocument",
        "EditDocument", "DeleteDocument", "OpenDatabase", "", "Bogus",
    ])
    PARAMS = st.lists(
        st.tuples(st.sampled_from(["Start", "Count", "Query", "Subject"]),
                  st.text(max_size=6)),
        max_size=3,
    )

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=COMMANDS, view=st.sampled_from(["ByCustomer", "Nope", ""]),
           document=st.booleans(), params=PARAMS, junk=st.text(max_size=10))
    def test_any_request_gets_a_status(self, site, command, view, document,
                                       params, junk):
        _, server, docs = site
        path = "/sales.nsf" + (f"/{view}" if view else "")
        if document and view:
            path += f"/{docs[0].unid}"
        query = "&".join([command] + [f"{key}={quote(value)}"
                                      for key, value in params])
        for url in (f"{path}?{query}", path + junk, junk):
            assert server.handle(url).status in (200, 400, 401, 404)
