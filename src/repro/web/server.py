"""The web request handler over registered databases.

``handle(url, user)`` does what the Domino HTTP task did: parse the URL
command, resolve the database and design element, enforce the ACL (including
document reader fields), and return rendered HTML with an HTTP-ish status
code: 400 for a malformed URL or unusable ``Start``/``Count``/``Query``
parameters, 401/404 for access and lookup failures. Views are served by the
window (:meth:`repro.views.View.window`) and searches by the top ``Count``
hits. ``EditDocument``/``DeleteDocument`` mutate through the normal database
API, so agents and views react exactly as for a Notes client.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape

from repro.design.application import Application
from repro.errors import AccessDenied, DocumentNotFound, FullTextError
from repro.fulltext.index import FullTextIndex
from repro.security.acl import AclLevel
from repro.web.render import (
    render_database,
    render_document,
    render_search_results,
    render_view,
    render_view_entries_xml,
)
from repro.web.urls import BadRequest, WebError, parse_url


@dataclass(frozen=True)
class WebResponse:
    status: int
    body: str

    @property
    def ok(self) -> bool:
        return self.status == 200


class DominoWebServer:
    """Serves registered applications to "browsers" (the test suite)."""

    def __init__(self, default_user: str = "Anonymous") -> None:
        self.default_user = default_user
        self._apps: dict[str, Application] = {}
        self._indexes: dict[str, FullTextIndex] = {}
        self.requests = 0

    # -- registration -----------------------------------------------------

    def register(self, path: str, app: Application) -> None:
        """Mount an application at ``/path`` (e.g. ``"sales.nsf"``)."""
        self._apps[path.lower()] = app
        self._indexes[path.lower()] = FullTextIndex(app.db)

    # -- request handling ---------------------------------------------------

    def handle(self, url: str, user: str | None = None) -> WebResponse:
        """Process one request; returns (status, rendered HTML)."""
        self.requests += 1
        user = user or self.default_user
        try:
            parsed = parse_url(url)
        except WebError as exc:
            return WebResponse(
                400, f"<h1>400 Bad Request</h1><p>{escape(str(exc))}</p>"
            )
        app = self._apps.get(parsed.database.lower())
        if app is None:
            return WebResponse(404, f"<h1>404</h1><p>no database {parsed.database}</p>")
        db = app.db
        if db.acl is not None and db.acl.level_of(user) < AclLevel.READER:
            return WebResponse(
                401, f"<h1>401</h1><p>{user} has no access to {db.title}</p>"
            )
        try:
            return self._dispatch(parsed, app, user)
        except AccessDenied as exc:
            return WebResponse(401, f"<h1>401</h1><p>{exc}</p>")
        except DocumentNotFound as exc:
            return WebResponse(404, f"<h1>404</h1><p>{exc}</p>")
        except (BadRequest, FullTextError) as exc:
            return WebResponse(
                400, f"<h1>400 Bad Request</h1><p>{escape(str(exc))}</p>"
            )
        except WebError as exc:
            return WebResponse(404, f"<h1>404</h1><p>{exc}</p>")

    def _dispatch(self, parsed, app: Application, user: str) -> WebResponse:
        db = app.db
        path = parsed.database
        command = parsed.command
        if command == "opendatabase":
            return WebResponse(200, render_database(db, path, app.view_names))
        if command == "openview":
            view = self._resolve_view(app, parsed.view)
            start = _int_param(parsed, "Start", 1)
            count = _int_param(parsed, "Count", 30, minimum=0)
            return WebResponse(
                200, render_view(view, path, start=start, count=count,
                                 as_user=user if db.acl else None)
            )
        if command == "readviewentries":
            view = self._resolve_view(app, parsed.view)
            start = _int_param(parsed, "Start", 1)
            count = _int_param(parsed, "Count", 30, minimum=0)
            return WebResponse(
                200,
                render_view_entries_xml(
                    view, start=start, count=count,
                    as_user=user if db.acl else None,
                ),
            )
        if command == "searchview":
            query = (parsed.param("query") or "").strip()
            if not query:
                raise WebError("SearchView needs a Query parameter")
            count = _int_param(parsed, "Count", 25, minimum=0)
            index = self._indexes[path.lower()]
            hits = index.search(query, limit=count,
                                as_user=user if db.acl else None)
            return WebResponse(
                200,
                render_search_results(db, path, parsed.view, query, hits),
            )
        if command == "opendocument":
            doc = db.get(parsed.unid, as_user=user if db.acl else None)
            return WebResponse(
                200, render_document(doc, path, parsed.view or "0")
            )
        if command == "editdocument":
            updates = {
                key: value
                for key, value in parsed.params.items()
                if not key.startswith("$")
                and key.lower() not in ("start", "count")
            }
            db.update(parsed.unid, updates, author=user)
            doc = db.get(parsed.unid)
            return WebResponse(200, render_document(doc, path, parsed.view or "0"))
        if command == "deletedocument":
            db.delete(parsed.unid, author=user)
            return WebResponse(200, "<h1>Document deleted</h1>")
        raise WebError(f"unhandled command {command}")  # pragma: no cover

    def _resolve_view(self, app: Application, name: str):
        if name == "$defaultview":
            if not app.view_names:
                raise WebError("database has no views")
            return app.view(app.view_names[0])
        try:
            return app.view(name)
        except Exception:
            raise WebError(f"no view {name!r}") from None


def _int_param(
    parsed, name: str, default: int, minimum: int | None = None
) -> int:
    """An integer URL parameter; :class:`BadRequest` when it is not one."""
    raw = parsed.param(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise BadRequest(f"{name} must be at least {minimum}, got {value}")
    return value
