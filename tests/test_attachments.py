"""Tests for file attachments ($FILE items)."""

import pytest

from repro.core import (
    ItemType,
    attach,
    attachment_bytes,
    attachment_names,
    detach,
    remove_attachment,
)
from repro.errors import DocumentError, ItemError
from repro.replication import Replicator, SelectiveReplication

PAYLOAD = bytes(range(256)) * 40  # ~10 KB of binary


class TestAttachments:
    def test_attach_detach_roundtrip(self, db):
        doc = db.create({"Subject": "with file"})
        attach(doc, "report.pdf", PAYLOAD)
        assert detach(doc, "report.pdf") == PAYLOAD
        assert attachment_names(doc) == ["report.pdf"]

    def test_binary_safety(self, db):
        doc = db.create({"Subject": "x"})
        attach(doc, "null.bin", b"\x00\xff" * 100)
        assert detach(doc, "null.bin") == b"\x00\xff" * 100

    def test_reattach_replaces(self, db):
        doc = db.create({"Subject": "x"})
        attach(doc, "f.txt", b"v1")
        attach(doc, "f.txt", b"v2")
        assert detach(doc, "f.txt") == b"v2"
        assert attachment_names(doc) == ["f.txt"]

    def test_multiple_attachments(self, db):
        doc = db.create({"Subject": "x"})
        attach(doc, "b.txt", b"bee")
        attach(doc, "a.txt", b"ay")
        assert attachment_names(doc) == ["a.txt", "b.txt"]
        assert attachment_bytes(doc) == 5

    def test_remove(self, db):
        doc = db.create({"Subject": "x"})
        attach(doc, "gone.txt", b"x")
        remove_attachment(doc, "gone.txt")
        assert attachment_names(doc) == []
        with pytest.raises(DocumentError):
            detach(doc, "gone.txt")

    def test_missing_detach_rejected(self, db):
        doc = db.create({"Subject": "x"})
        with pytest.raises(DocumentError):
            detach(doc, "nope.txt")

    def test_empty_filename_rejected(self, db):
        doc = db.create({"Subject": "x"})
        with pytest.raises(DocumentError):
            attach(doc, "", b"x")

    def test_malformed_attachment_value_rejected(self):
        from repro.core import Item

        with pytest.raises(ItemError):
            Item("$FILE.x", ItemType.ATTACHMENT, {"name": "x"})  # no data
        with pytest.raises(ItemError):
            Item("$FILE.x", ItemType.ATTACHMENT, {"name": "", "data": ""})

    def test_size_accounts_for_payload(self, db):
        doc = db.create({"Subject": "x"})
        small = doc.size()
        attach(doc, "big.bin", PAYLOAD)
        assert doc.size() > small + len(PAYLOAD)  # base64 expansion included

    def test_serialization_roundtrip(self, db):
        from repro.core import Document

        doc = db.create({"Subject": "x"})
        attach(doc, "f.bin", PAYLOAD)
        clone = Document.from_dict(doc.to_dict())
        assert detach(clone, "f.bin") == PAYLOAD


class TestAttachmentReplication:
    def test_attachments_replicate(self, pair, clock):
        a, b = pair
        doc = a.create({"Subject": "carrier"})
        attach(a.get(doc.unid), "payload.bin", PAYLOAD)
        a._persist_doc(a.get(doc.unid), a.update_seq)
        clock.advance(1)
        Replicator().replicate(a, b)
        assert detach(b.get(doc.unid), "payload.bin") == PAYLOAD

    def test_strip_attachments_option(self, pair, clock):
        a, b = pair
        doc = a.create({"Subject": "carrier", "Body": "text stays"})
        attach(a.get(doc.unid), "heavy.bin", PAYLOAD)
        clock.advance(1)
        selective = SelectiveReplication("SELECT @All", strip_attachments=True)
        stats = Replicator().pull(b, a, selective=selective)
        copy = b.get(doc.unid)
        assert attachment_names(copy) == []
        assert copy.get("$StrippedAttachments") == ["$FILE.heavy.bin"]
        assert copy.get("Body") == "text stays"
        assert stats.bytes_transferred < 2_000
        # source untouched
        assert attachment_names(a.get(doc.unid)) == ["heavy.bin"]

    def test_attach_file_is_a_revision(self, db, clock):
        doc = db.create({"Subject": "x"})
        clock.advance(1)
        db.attach_file(doc.unid, "f.bin", b"payload", author="alice")
        fresh = db.get(doc.unid)
        assert fresh.seq == 2
        assert "$FILE.f.bin" in fresh.item_times
        assert fresh.updated_by[-1] == "alice"

    def test_field_level_ships_attachment_only_when_changed(self, pair, clock):
        a, b = pair
        doc = a.create({"Subject": "x", "Note": "small"})
        clock.advance(1)
        a.attach_file(doc.unid, "big.bin", PAYLOAD)
        clock.advance(1)
        rep = Replicator(field_level=True)
        rep.replicate(a, b)
        assert detach(b.get(doc.unid), "big.bin") == PAYLOAD
        # now edit only a text item: the attachment must not re-ship
        clock.advance(1)
        a.update(doc.unid, {"Note": "edited"})
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.bytes_transferred < 2_000
        assert detach(b.get(doc.unid), "big.bin") == PAYLOAD

    def test_attachment_reship_when_it_changes(self, pair, clock):
        a, b = pair
        doc = a.create({"Subject": "x"})
        clock.advance(1)
        a.attach_file(doc.unid, "f.bin", PAYLOAD)
        clock.advance(1)
        rep = Replicator(field_level=True)
        rep.replicate(a, b)
        clock.advance(1)
        a.attach_file(doc.unid, "f.bin", PAYLOAD * 2)
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.bytes_transferred > len(PAYLOAD)
        assert detach(b.get(doc.unid), "f.bin") == PAYLOAD * 2
