"""Tests for the write-ahead log."""

import pytest

from repro.errors import WalError
from repro.storage import LogRecord, RecordType, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "test.wal"))
    yield log
    log.close()


class TestRecords:
    def test_encode_decode_roundtrip(self):
        record = LogRecord(RecordType.PUT, 7, b"key", b"after")
        assert LogRecord.decode(record.encode()) == record

    def test_control_records_roundtrip(self):
        for rtype in (RecordType.BEGIN, RecordType.COMMIT, RecordType.ABORT):
            record = LogRecord(rtype, 42)
            assert LogRecord.decode(record.encode()) == record

    def test_binary_safe_payloads(self):
        record = LogRecord(RecordType.PUT, 1, bytes(range(256)), b"\xff" * 10)
        assert LogRecord.decode(record.encode()) == record


class TestAppendReplay:
    def test_lsn_is_monotonic(self, wal):
        lsns = [
            wal.append(LogRecord(RecordType.PUT, 1, b"k", b"v"))
            for _ in range(5)
        ]
        assert lsns == sorted(lsns) and len(set(lsns)) == 5

    def test_records_replay_in_order(self, wal):
        originals = [
            LogRecord(RecordType.BEGIN, 1),
            LogRecord(RecordType.PUT, 1, b"a", b"1"),
            LogRecord(RecordType.PUT, 1, b"b", b"2"),
            LogRecord(RecordType.COMMIT, 1),
        ]
        for record in originals:
            wal.append(record)
        wal.flush()
        replayed = [record for _, record in wal.records()]
        assert replayed == originals

    def test_replay_from_lsn(self, wal):
        wal.append(LogRecord(RecordType.BEGIN, 1))
        middle = wal.append(LogRecord(RecordType.PUT, 1, b"k", b"v"))
        wal.append(LogRecord(RecordType.COMMIT, 1))
        wal.flush()
        replayed = list(wal.records(from_lsn=middle))
        assert len(replayed) == 2
        assert replayed[0][1].type == RecordType.PUT

    def test_flush_is_idempotent(self, wal):
        wal.append(LogRecord(RecordType.BEGIN, 1))
        wal.flush()
        flushes = wal.flushes
        wal.flush()
        assert wal.flushes == flushes

    def test_truncate_resets(self, wal):
        wal.append(LogRecord(RecordType.BEGIN, 1))
        wal.flush()
        wal.truncate()
        assert wal.end_lsn == 0
        assert list(wal.records()) == []

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "re.wal")
        log = WriteAheadLog(path)
        log.append(LogRecord(RecordType.PUT, 3, b"x", b"y"))
        log.close()
        reopened = WriteAheadLog(path)
        records = [record for _, record in reopened.records()]
        assert records == [LogRecord(RecordType.PUT, 3, b"x", b"y")]
        reopened.close()


class TestCrashTail:
    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        log = WriteAheadLog(path)
        log.append(LogRecord(RecordType.PUT, 1, b"good", b"1"))
        log.flush()
        log.append(LogRecord(RecordType.PUT, 1, b"half", b"2"))
        log._file.flush()
        log._file.close()
        # chop the last record in half
        with open(path, "r+b") as raw:
            raw.seek(0, 2)
            size = raw.tell()
            raw.truncate(size - 5)
        survivor = WriteAheadLog(path)
        keys = [record.key for _, record in survivor.records()]
        assert keys == [b"good"]
        survivor.close()

    def test_corrupt_tail_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "corrupt.wal")
        log = WriteAheadLog(path)
        log.append(LogRecord(RecordType.PUT, 1, b"good", b"1"))
        last = log.append(LogRecord(RecordType.PUT, 1, b"bad", b"2"))
        log.close()
        with open(path, "r+b") as raw:
            raw.seek(last + 12)
            raw.write(b"\xde\xad")
        survivor = WriteAheadLog(path)
        keys = [record.key for _, record in survivor.records()]
        assert keys == [b"good"]
        survivor.close()

    def test_corruption_before_tail_raises(self, tmp_path):
        path = str(tmp_path / "midcorrupt.wal")
        log = WriteAheadLog(path)
        first = log.append(LogRecord(RecordType.PUT, 1, b"one", b"1"))
        log.append(LogRecord(RecordType.PUT, 1, b"two", b"2"))
        log.close()
        with open(path, "r+b") as raw:
            raw.seek(first + 12)
            raw.write(b"\xde\xad")
        survivor = WriteAheadLog(path)
        with pytest.raises(WalError):
            list(survivor.records())
        survivor.close()

    def test_abandon_discards_unflushed(self, tmp_path):
        path = str(tmp_path / "abandon.wal")
        log = WriteAheadLog(path)
        log.append(LogRecord(RecordType.PUT, 1, b"durable", b"1"))
        log.flush()
        log.append(LogRecord(RecordType.PUT, 1, b"volatile", b"2"))
        log.abandon()
        survivor = WriteAheadLog(path)
        keys = [record.key for _, record in survivor.records()]
        assert keys == [b"durable"]
        survivor.close()
