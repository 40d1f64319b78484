"""Archive parsing, event windows, and the on-disk event store."""

import gzip
import io
import json
import logging
import pickle
import re
import struct
import sys
import tempfile
import time
import zlib
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import AS_OF, DAY, FIXTURE_LINES, frame_sections, make_event, reframed
from oss_health.events import (
    COMMENT_TYPES,
    CONTRIBUTION_TYPES,
    EPOCH_END,
    EPOCH_MIN,
    INT_MAX,
    INT_NULL,
    KINDS,
    TZ_NULL,
    TZ_OFFSET_MAX,
    TZ_OFFSET_MIN,
    ArchiveStreamError,
    EventRecord,
    EventType,
    MalformedLineError,
    ParseStats,
    apply_event_window,
    from_records,
    parse_archive_file,
    parse_archive_stream,
    parse_event_line,
)
from oss_health import cli, events as events_module, store as store_module
from oss_health.store import (
    LEDGER,
    LEDGER_MAGIC,
    MAGIC,
    AppendReceipt,
    CorpusReceipt,
    EventStore,
    StoreError,
    StoreWriteError,
    _month_key,
    archive_digest,
    dedup_key,
)


def _watch_line(created_at: str) -> str:
    """A Watch line whose ``created_at`` is the JSON text ``created_at``."""
    head = '{"type": "WatchEvent", "repo": {"name": "a/b"}, "actor": {"login": "a"}'
    return f'{head}, "created_at": {created_at}}}'


class TestParseEventLine:
    def test_watch_event_field_mapping(self):
        record = parse_event_line(FIXTURE_LINES[0])
        assert record.event_type is EventType.WATCH
        assert record.repo_id == "bitcoin/bitcoin"
        assert record.actor == "alice"

    def test_uninteresting_type_returns_none(self):
        assert parse_event_line(FIXTURE_LINES[10]) is None

    @pytest.mark.parametrize("kind", [["WatchEvent"], {"a": 1}, 7, None])
    def test_type_that_is_not_a_string_returns_none(self, kind):
        line = json.loads(FIXTURE_LINES[0])
        line["type"] = kind
        assert parse_event_line(json.dumps(line)) is None

    def test_event_type_membership_survives_pickle_and_lookup_by_value(self):
        kinds = list(EventType)
        copies = pickle.loads(pickle.dumps(kinds))
        as_set, as_dict = set(kinds), {kind: kind.value for kind in kinds}
        for kind, copy in zip(kinds, copies):
            by_value = EventType(kind.value)
            assert copy is kind and by_value is kind
            assert copy in as_set and by_value in as_set
            assert as_dict[copy] == as_dict[by_value] == kind.value
        assert EventType("Push") in CONTRIBUTION_TYPES and EventType("Watch") not in CONTRIBUTION_TYPES
        assert pickle.loads(pickle.dumps(EventType.ISSUE_COMMENT)) in COMMENT_TYPES

    def test_malformed_json_raises(self):
        with pytest.raises(MalformedLineError):
            parse_event_line(FIXTURE_LINES[11])

    def test_json_array_line_raises(self):
        with pytest.raises(MalformedLineError):
            parse_event_line("[1, 2, 3]")

    def test_push_carries_messages_count_and_author_offset(self):
        record = parse_event_line(FIXTURE_LINES[5])
        assert record.event_type is EventType.PUSH
        assert record.texts == ["fix bitcoin bug", "Bitcoin rocks"]
        assert record.counts == 2
        assert record.tz_offset == 60  # commit author at UTC+01:00

    def test_pull_request_action_and_number(self):
        record = parse_event_line(FIXTURE_LINES[7])
        assert record.action == "opened"
        assert record.number == 7

    def test_pre2015_payload_generation(self):
        line = json.dumps(
            {
                "type": "PushEvent",
                "repository": {"owner": "satoshi", "name": "bitcoin"},
                "actor": "satoshi",
                "created_at": "2011-02-01 08:00:00",
                "payload": {"shas": [["abc", "satoshi@example.com", "genesis block", "Satoshi"]]},
            }
        )
        record = parse_event_line(line)
        assert record.repo_id == "satoshi/bitcoin"
        assert record.actor == "satoshi"
        assert record.texts == ["genesis block"]
        assert record.counts == 1

    def test_boolean_size_is_not_a_commit_count(self):
        line = json.dumps(
            {
                "type": "PushEvent",
                "repo": {"name": "a/b"},
                "actor": {"login": "a"},
                "created_at": "2016-12-01T12:00:00Z",
                "payload": {"size": True},
            }
        )
        counts = parse_event_line(line).counts
        assert counts == 0 and type(counts) is int

    @pytest.mark.parametrize(
        "payload",
        [{"issue": {"number": True}}, {"pull_request": {"number": False}}, {"number": True}],
    )
    def test_boolean_number_is_no_number(self, payload):
        line = json.dumps(
            {
                "type": "IssuesEvent",
                "repo": {"name": "a/b"},
                "actor": {"login": "a"},
                "created_at": "2016-12-01T12:00:00Z",
                "payload": {"action": "opened", **payload},
            }
        )
        assert parse_event_line(line).number is None

    @pytest.mark.parametrize("number", [2**63, -(2**63)])
    @pytest.mark.parametrize("key", ["issue", "pull_request", None])
    def test_number_no_int64_column_holds_is_no_number(self, key, number):
        payload = {"number": number} if key is None else {key: {"number": number}}
        line = json.dumps(
            {
                "type": "IssuesEvent" if key != "pull_request" else "PullRequestEvent",
                "repo": {"name": "a/b"},
                "actor": {"login": "a"},
                "created_at": "2016-12-01T12:00:00Z",
                "payload": {"action": "opened", **payload},
            }
        )
        assert parse_event_line(line).number is None

    def test_size_past_int64_is_absent(self):
        line = json.dumps(
            {
                "type": "PushEvent",
                "repo": {"name": "a/b"},
                "actor": {"login": "a"},
                "created_at": "2016-12-01T12:00:00Z",
                "payload": {"size": 2**64, "commits": [{"message": "m"}, {"message": "n"}]},
            }
        )
        assert parse_event_line(line).counts == 2

    def test_unrecognisable_repository_is_malformed(self):
        with pytest.raises(MalformedLineError):
            parse_event_line(json.dumps({"type": "WatchEvent", "actor": {"login": "a"}}))

    def test_out_of_range_offset_dropped(self):
        line = json.dumps(
            {
                "type": "PushEvent",
                "repo": {"name": "a/b"},
                "actor": {"login": "a"},
                "created_at": "2016-12-01T12:00:00Z",
                "payload": {"commits": [{"message": "m", "author": {"date": "2016-12-01T12:00:00+14:30"}}]},
            }
        )
        assert parse_event_line(line).tz_offset is None

    @pytest.mark.parametrize(
        "created_at",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e300",
            "99999999999999",
            "-62135596801",
            "true",
            '"0001-01-01T00:00:00+01:00"',
            '"9999-12-31T23:00:00-05:00"',
        ],
    )
    def test_timestamp_outside_datetime_range_is_malformed(self, created_at):
        with pytest.raises(MalformedLineError):
            parse_event_line(_watch_line(created_at))

    @pytest.mark.parametrize("created_at", [str(EPOCH_MIN), str(EPOCH_END - 1), "1480550400.5"])
    def test_numeric_timestamp_in_range_kept(self, created_at):
        assert parse_event_line(_watch_line(created_at)).created_at == int(float(created_at))


class TestParseArchiveStream:
    def test_empty_stream(self):
        stats = ParseStats()
        records = list(parse_archive_stream(io.BytesIO(b""), stats, compressed=False))
        assert records == []
        assert asdict(stats) == {
            "lines_in": 0,
            "records_out": 0,
            "type_skipped": 0,
            "malformed_skipped": 0,
        }

    def test_twelve_line_fixture_counts(self, archive_path):
        records, stats = parse_archive_file(archive_path)
        assert len(records) == 10
        assert stats.lines_in == 12
        assert stats.records_out == 10
        assert stats.type_skipped == 1
        assert stats.malformed_skipped == 1

    def test_fixture_type_census(self, archive_path):
        records, _ = parse_archive_file(archive_path)
        census = {}
        for record in records:
            census[record.event_type] = census.get(record.event_type, 0) + 1
        assert census == {
            EventType.WATCH: 3,
            EventType.FORK: 2,
            EventType.PUSH: 2,
            EventType.PULL_REQUEST: 1,
            EventType.ISSUE_COMMENT: 2,
        }

    def test_skip_accounting_identity(self, archive_path):
        _, stats = parse_archive_file(archive_path)
        assert stats.lines_in == stats.records_out + stats.type_skipped + stats.malformed_skipped

    def test_malformed_lines_logged_at_their_byte_offsets(self, caplog):
        lines = [
            FIXTURE_LINES[0].encode() + b"\r\n",
            FIXTURE_LINES[1].encode() + b"\r\n",
            b"{oops\n",
            b"\xff\xfe not json\n",
            b"[1]\n",
        ]
        data = b"".join(lines)
        stats = ParseStats()
        with caplog.at_level(logging.WARNING, logger="oss_health.events"):
            records = list(parse_archive_stream(io.BytesIO(data), stats, compressed=False))
        assert [r.actor for r in records] == ["alice", "bob"]
        assert stats.malformed_skipped == 3
        logged = [int(re.search(r"byte offset (\d+)", r.getMessage())[1]) for r in caplog.records]
        assert logged == [data.index(line) for line in lines[2:]]

    def test_bad_numeric_timestamp_skips_only_its_line(self, tmp_path, caplog):
        good = [_watch_line('"2016-12-01T12:00:00Z"'), _watch_line("1480680000")]
        lines = [good[0], _watch_line("NaN"), _watch_line("1e300"), _watch_line("99999999999999"), good[1]]
        data = "".join(line + "\n" for line in lines).encode()
        stats = ParseStats()
        with caplog.at_level(logging.WARNING, logger="oss_health.events"):
            records = list(parse_archive_stream(io.BytesIO(data), stats, compressed=False))
        assert (stats.records_out, stats.malformed_skipped) == (2, 3)
        logged = [int(re.search(r"byte offset (\d+)", r.getMessage())[1]) for r in caplog.records]
        assert logged == [data.index(line.encode()) for line in lines[1:4]]
        store = EventStore(tmp_path / "store")
        assert store.append(records).count == 2
        assert store.read("a/b") == records

    def test_corrupt_gzip_raises_stream_error(self):
        broken = gzip.compress(b'{"type": "WatchEvent"}\n')[:-8] + b"garbage!"
        with pytest.raises(ArchiveStreamError):
            list(parse_archive_stream(io.BytesIO(broken), compressed=True))


def _reference_parse(data: bytes, compressed: bool):
    """The line-by-line ``GzipFile.readline`` parse, as a comparison: the
    records, the counts, the logged ``(offset, reason)`` pairs and the
    ``(message, offset)`` of a decompression failure, or None."""
    stats, records, logged = ParseStats(), [], []
    reader = gzip.GzipFile(fileobj=io.BytesIO(data)) if compressed else io.BytesIO(data)
    offset = 0
    while True:
        try:
            raw = reader.readline()
        except (OSError, EOFError, zlib.error) as exc:
            return records, stats, logged, (f"decompression failed: {exc}", offset)
        if not raw:
            return records, stats, logged, None
        line_offset = offset
        offset += len(raw)
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        stats.lines_in += 1
        try:
            record = parse_event_line(line)
        except MalformedLineError as exc:
            stats.malformed_skipped += 1
            logged.append((line_offset, str(exc)))
            continue
        if record is None:
            stats.type_skipped += 1
        else:
            stats.records_out += 1
            records.append(record)


#: line bodies: events, blank and Unicode-whitespace lines, invalid UTF-8, a BOM, bad JSON
_LINE = st.one_of(
    st.sampled_from(FIXTURE_LINES).map(str.encode),
    st.sampled_from(["", " ", "\t", "\x1c", "\u2028", "\xa0", " \u2028\x1c\xa0 ", "\x0b\x0c"]).map(str.encode),
    st.sampled_from([b"\xff\xfe not json", b"\xef\xbb\xbf" + FIXTURE_LINES[0].encode(), b"{oops", b"[1]"]),
    st.binary(max_size=12),
)


@st.composite
def _archives(draw):
    """An archive's bytes and whether they are gzip-compressed."""
    lines = [body + draw(st.sampled_from([b"\n", b"\r\n"])) for body in draw(st.lists(_LINE, max_size=30))]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\r\n")  # no final newline
    data = b"".join(lines)
    container = draw(st.sampled_from(["plain", "gzip", "multi_member"]))
    if container == "plain":
        return data, False
    if container == "gzip":
        return gzip.compress(data), True
    cut = draw(st.integers(0, len(data)))
    return gzip.compress(data[:cut]) + gzip.compress(data[cut:]), True


class TestLineReader:
    """``parse_archive_stream``'s buffered line reader against a ``GzipFile.readline`` loop."""

    @staticmethod
    def _parse(archive: bytes, compressed: bool, chunk: int):
        stats, records, logged = ParseStats(), [], []
        handler = logging.Handler()
        handler.emit = lambda record: logged.append(record.args)
        logger = logging.getLogger("oss_health.events")
        logger.addHandler(handler)
        try:
            with mock.patch.object(events_module, "_CHUNK", chunk):
                stream = parse_archive_stream(io.BytesIO(archive), stats, compressed=compressed)
                try:
                    records.extend(stream)
                except ArchiveStreamError as exc:
                    return records, stats, logged, (str(exc), exc.bytes_consumed)
        finally:
            logger.removeHandler(handler)
        return records, stats, logged, None

    @given(_archives(), st.sampled_from([1, 7, 100, 1 << 16]))
    @example((gzip.compress("\x1c\n\u2028 \n\xa0\r\n{oops".encode()), True), 1 << 16)
    def test_same_records_counts_and_offsets(self, archive, chunk):
        data, compressed = archive
        records, stats, logged, failure = self._parse(data, compressed, chunk)
        expected = _reference_parse(data, compressed)
        assert failure is None and expected[3] is None
        assert (records, stats) == expected[:2]
        assert [(offset, str(reason)) for offset, reason in logged] == expected[2]

    @given(_archives(), st.sampled_from([7, 100, 1 << 16]), st.data())
    def test_damaged_stream_fails_as_the_reference_does(self, archive, chunk, data):
        archive, compressed = archive
        assume(compressed)
        damage = data.draw(st.sampled_from(["truncate", "flip"]))
        at = data.draw(st.integers(0, len(archive) - 1))
        if damage == "truncate":
            archive = archive[:at]
        else:
            archive = archive[:at] + bytes([archive[at] ^ data.draw(st.integers(1, 255))]) + archive[at + 1 :]
        records, stats, logged, failure = self._parse(archive, True, chunk)
        expected_records, _, expected_logged, expected_failure = _reference_parse(archive, True)
        assert failure == expected_failure
        # the lines of the chunk being read when it failed are neither parsed nor logged
        logged = [(offset, str(reason)) for offset, reason in logged]
        assert logged == expected_logged[: len(logged)]
        assert records == expected_records[: len(records)]

    def test_error_keeps_the_reference_offset_past_the_first_chunk(self):
        data = "".join(line + "\n" for line in FIXTURE_LINES * 400).encode()
        assert len(data) > 2 * events_module._CHUNK
        truncated = gzip.compress(data)[:-8]
        message = "decompression failed: Compressed file ended before the end-of-stream marker was reached"
        assert self._parse(truncated, True, events_module._CHUNK)[3] == (message, len(data))

    def test_corrupt_deflate_data_is_a_stream_error(self):
        data = b"".join(b'{"type": "WatchEvent", "n": %d}\n' % i for i in range(2000))
        compressed = bytearray(gzip.compress(data))
        compressed[10] = 0xFF  # the first deflate block: final, of the reserved type 3
        failure = self._parse(bytes(compressed), True, 1 << 16)[3]
        assert failure == _reference_parse(bytes(compressed), True)[3]
        assert failure[0].startswith("decompression failed: Error -3 while decompressing data")

    @pytest.mark.parametrize("text", ["\ufeff{}", "{oops", "[1] x", "", "\ufeff", '{"a": 1}}'])
    def test_invalid_json_reason_is_json_loads_reason(self, text):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(MalformedLineError, match=f"^{re.escape(f'invalid JSON: {expected.value}')}$"):
            parse_event_line(text)


class TestApplyEventWindow:
    def test_empty_window(self):
        events = [make_event(created_at=AS_OF)]
        assert apply_event_window(events, AS_OF, AS_OF) == []

    def test_half_open_boundary(self):
        t1, t2, t3 = AS_OF, AS_OF + 10, AS_OF + 20
        events = [make_event(created_at=t) for t in (t1, t2, t3)]
        assert apply_event_window(events, t1, t3) == events[:2]

    def test_event_at_end_excluded(self):
        events = [make_event(created_at=AS_OF)]
        assert apply_event_window(events, AS_OF - 10, AS_OF) == []

    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError):
            apply_event_window([], 10, 5)

    @given(
        times=st.lists(st.integers(min_value=0, max_value=1000), max_size=30),
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=0, max_value=1000),
        c=st.integers(min_value=0, max_value=1000),
    )
    def test_window_composition(self, times, a, b, c):
        a, b, c = sorted((a, b, c))
        events = [make_event(created_at=t) for t in times]
        joined = apply_event_window(events, a, b) + apply_event_window(events, b, c)
        assert sorted(e.created_at for e in joined) == sorted(
            e.created_at for e in apply_event_window(events, a, c)
        )


#: texts built from JSON's awkward characters and separators
_TRICKY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "\U0001F600", ",", "]", '",', '\\",']),
        st.text(max_size=3),
    ),
    max_size=4,
).map("".join)
#: what an ``int | None`` field may hold: None or an int an int64 column holds, its sentinel excluded
_ANY_NUMBER = st.one_of(st.none(), st.integers(INT_NULL + 1, INT_MAX))


def _copy(text):
    """An equal string built at run time: another object, not interned,
    unless CPython caches it (the empty string and single characters)."""
    return "".join(list(text))


#: strings that collide often: a lone surrogate, non-ASCII, an interned string and an equal one built at run time
_POOL_STRINGS = ["", "a", "ab", "\ud800", "\udfff", "é", "\U0001F600", sys.intern("owner/repo"), "".join(["owner", "/repo"])]
#: ints that collide often, at the ends of what a column holds and at marshal's 32-bit boundary
_POOL_INTS = [None, 0, 1, -1, INT_NULL + 1, INT_MAX, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1]
#: each field's values, few so that equal fields are common
_POOL_VALUES = {
    "repo_id": _POOL_STRINGS,
    "event_type": [EventType.PUSH, EventType.ISSUES],
    "actor": _POOL_STRINGS,
    "created_at": [AS_OF - DAY, AS_OF - DAY + 1, EPOCH_MIN, EPOCH_END - 1],
    "tz_offset": [None, TZ_OFFSET_MIN, 0, TZ_OFFSET_MAX],
    "action": [None, *_POOL_STRINGS],
    "texts": [[], [""], ["a"], ["\ud800"], ["a", "ab"], ["ab", "a"], ["owner/repo"]],
    "counts": _POOL_INTS,
    "number": _POOL_INTS,
}
_POOL_RECORD = st.builds(EventRecord, **{name: st.sampled_from(values) for name, values in _POOL_VALUES.items()})


def _identity(record: EventRecord) -> tuple:
    """Every field of a record but ``tz_offset``."""
    return (record.repo_id, record.event_type, record.actor, record.created_at, record.action,
            tuple(record.texts), record.counts, record.number)


def _twin(record: EventRecord, tz_offset) -> EventRecord:
    """An equal record, but for ``tz_offset``, whose strings are other objects."""
    return replace(
        record, repo_id=_copy(record.repo_id), actor=_copy(record.actor), tz_offset=tz_offset,
        action=None if record.action is None else _copy(record.action), texts=list(map(_copy, record.texts)),
    )


class TestDedupKey:
    @given(
        st.lists(_POOL_RECORD, min_size=1, max_size=6),
        st.lists(st.tuples(st.sampled_from(sorted(_POOL_VALUES)), st.integers(0, 99)), max_size=6),
    )
    @example(
        [EventRecord("\ud800", EventType.PUSH, "a", AS_OF, None, None, ["\udfff"], INT_MAX, INT_NULL + 1)],
        [("counts", _POOL_INTS.index(INT_NULL + 1)), ("number", _POOL_INTS.index(INT_MAX)), ("texts", 3)],
    )
    def test_dedup_key_is_every_field_but_tz_offset(self, records, changes):
        """Two records share a key exactly when every field but ``tz_offset``
        is equal, whether the key comes from the record or, in a store of
        another ``EventStore``, from the frames it was written to.  Beside
        the records: their twins, equal but for ``tz_offset`` and held in
        other string objects, and neighbours with one field changed."""
        twins = [_twin(r, None if r.tz_offset else 60) for r in records]
        neighbours = [
            replace(records[i % len(records)], **{name: _POOL_VALUES[name][k % len(_POOL_VALUES[name])]})
            for i, (name, k) in enumerate(changes)
        ]
        every = records + twins + neighbours
        for a in every:
            for b in every:
                assert (dedup_key(a) == dedup_key(b)) == (_identity(a) == _identity(b))
        with tempfile.TemporaryDirectory() as root:
            first = EventStore(root).append(records + neighbours)
            distinct = {_identity(r): r for r in records + neighbours}
            assert (first.count, first.duplicates_skipped) == (len(distinct), len(records + neighbours) - len(distinct))
            again = EventStore(root).append(twins)
            assert (again.count, again.duplicates_skipped) == (0, len(twins))
            stored = [r for repo in EventStore(root).iter_repo_ids() for r in EventStore(root).read(repo)]
            assert sorted(map(dedup_key, stored)) == sorted(map(dedup_key, distinct.values()))


#: a field and a value outside its domain, by test id: each is refused by ``EventRecord``
_OUT_OF_DOMAIN = {
    "bool_created_at": ("created_at", True, TypeError),
    "float_created_at": ("created_at", float(AS_OF), TypeError),
    "created_at_past_year_9999": ("created_at", EPOCH_END, ValueError),
    "bool_counts": ("counts", False, TypeError),
    "float_counts": ("counts", 3.0, TypeError),
    "counts_past_int64": ("counts", 2**63, ValueError),
    "counts_at_the_sentinel": ("counts", INT_NULL, ValueError),
    "number_past_int64": ("number", 2**63, ValueError),
    "number_at_the_sentinel": ("number", INT_NULL, ValueError),
    "bool_tz_offset": ("tz_offset", True, TypeError),
    "float_tz_offset": ("tz_offset", 60.0, TypeError),
    "tz_offset_out_of_range": ("tz_offset", TZ_OFFSET_MAX + 1, ValueError),
    "actor_not_a_string": ("actor", 7, TypeError),
    "actor_none": ("actor", None, TypeError),
    "repo_id_bytes": ("repo_id", b"a/b", TypeError),
    "action_not_a_string": ("action", 1, TypeError),
    "event_type_a_string": ("event_type", "Push", TypeError),
    "texts_a_tuple": ("texts", ("tuple", "of texts"), TypeError),
    "texts_a_string": ("texts", "not a list", TypeError),
    "texts_none": ("texts", None, TypeError),
    "text_not_a_string": ("texts", ["a", 1], TypeError),
    "text_none": ("texts", ["a", None], TypeError),
    "text_a_list": ("texts", [["nested"]], TypeError),
}


@pytest.mark.parametrize("name, value, error", list(_OUT_OF_DOMAIN.values()), ids=list(_OUT_OF_DOMAIN))
def test_record_refuses_a_value_outside_its_domain(name, value, error):
    fields = asdict(make_event(event_type=EventType.PUSH, counts=1, number=1, tz_offset=0, action="a", texts=["t"]))
    EventRecord(**fields)  # the domain's values
    with pytest.raises(error, match=f"^{name} "):
        EventRecord(**{**fields, name: value})


def test_readme_names_the_store_formats():
    """A format bump that leaves the README naming the old magic fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for magic in (MAGIC, LEDGER_MAGIC):
        assert f"`{magic.decode()}`" in readme, magic


class TestEventStore:
    def _events(self, n=10):
        return [
            make_event(actor=f"user{i}", created_at=AS_OF - (n - i) * DAY, event_type=EventType.PUSH)
            for i in range(n)
        ]

    def test_append_empty(self, tmp_path):
        receipt = EventStore(tmp_path / "store").append([])
        assert receipt == AppendReceipt()

    def test_round_trip(self, tmp_path):
        store = EventStore(tmp_path / "store")
        events = self._events()
        store.append(events)
        assert store.read("bitcoin/bitcoin") == events

    def test_round_trip_every_field(self, tmp_path):
        store = EventStore(tmp_path / "store")
        event = EventRecord(
            repo_id="owner/repo",
            event_type=EventType.PULL_REQUEST,
            actor="alice",
            created_at=AS_OF - DAY,
            tz_offset=-300,
            action="opened",
            texts=["title", "body"],
            counts=3,
            number=42,
        )
        store.append([event])
        assert store.read("owner/repo") == [event]

    def test_dedup_skips_repeated_batch(self, tmp_path):
        store = EventStore(tmp_path / "store")
        events = self._events()
        first = store.append(events)
        second = store.append(events)
        assert first.count == 10
        assert second.count == 0
        assert second.duplicates_skipped == 10
        assert store.read("bitcoin/bitcoin") == events

    @staticmethod
    @contextmanager
    def _partition_writes(write=lambda handle, data: handle.write(data)):
        """Route every write to a month file through ``write(handle, data)``;
        yield the ``(path, data)`` of each write call."""
        calls = []

        class Handle:
            def __init__(self, handle):
                self._handle = handle

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                calls.append((self._handle.name, bytes(data)))
                return write(self._handle, data)

        def spied_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return Handle(handle) if str(file).endswith(".events") and "a" in mode else handle

        with mock.patch.object(store_module, "open", spied_open, create=True):
            yield calls

    def test_append_writes_each_partition_once(self, tmp_path):
        store = EventStore(tmp_path / "store")
        december = self._events(6)
        january = [replace(e, created_at=e.created_at + 31 * DAY) for e in december]
        with self._partition_writes() as calls:
            receipt = store.append(december[:4] + january)
        assert (receipt.count, receipt.duplicates_skipped) == (10, 0)
        months = [Path(path).name for path, _ in calls]
        assert months == ["2016-12.events", "2017-01.events"]
        assert calls[0][1].startswith(MAGIC)
        with self._partition_writes() as calls:
            receipt = store.append(december)
        assert (receipt.count, receipt.duplicates_skipped) == (2, 4)
        assert [Path(path).name for path, _ in calls] == ["2016-12.events"]
        assert store.read("bitcoin/bitcoin") == december + january

    @given(st.booleans(), st.integers(1, 6), st.floats(0, 1, exclude_max=True), st.booleans())
    def test_cut_write_leaves_a_torn_tail_the_next_append_cuts(self, existing, k, fraction, fresh):
        events = self._events(6 + k)
        before, batch = (events[:6], events[6:]) if existing else ([], events[6:])
        frame = len(store_module._frame(["bitcoin/bitcoin"], [0, k], batch))
        head = 0 if existing else len(MAGIC)
        cut = int(fraction * (head + frame))

        def cut_off(handle, data):
            """A write that stops after the first ``cut`` bytes and raises, as on a full disk."""
            handle.write(data[:cut])
            handle.flush()
            raise OSError("disk full")

        with tempfile.TemporaryDirectory() as root:
            store = EventStore(root)
            store.append(before)
            path = Path(root) / "months" / "2016-12.events"
            intact = path.stat().st_size if existing else 0
            with self._partition_writes(cut_off), pytest.raises(StoreWriteError) as failure:
                store.append(batch)
            assert failure.value.partial_count == 0  # the one frame is torn
            assert path.stat().st_size == intact + cut
            assert EventStore(root).read("bitcoin/bitcoin") == before  # the torn frame is ignored
            with self._partition_writes() as calls:
                receipt = (EventStore(root) if fresh else store).append(batch)
            assert len(calls) == 1
            assert (receipt.count, receipt.duplicates_skipped) == (k, 0)
            assert path.stat().st_size == (intact or len(MAGIC)) + frame
            assert EventStore(root).read("bitcoin/bitcoin") == before + batch

    def test_partition_layout(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(created_at=AS_OF - DAY), make_event(repo_id="a/b", created_at=AS_OF - DAY)])
        root = tmp_path / "store"
        files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
        assert files == ["months/2016-12.events"]  # one file for both repositories

    def test_iter_repo_ids(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(repo_id="b/b"), make_event(repo_id="a/a")])
        assert list(store.iter_repo_ids()) == ["a/a", "b/b"]

    def test_iter_repo_ids_sorted_by_repository_id(self, tmp_path):
        store = EventStore(tmp_path / "store")
        # ``a/x`` sorts before ``a0/x`` by id, after it as ``a__x`` and ``a0__x``
        repos = ["a/b_c", "a0/x", "a/b", "A/z", "a/x", "a/b-c"]
        store.append([make_event(repo_id=repo) for repo in repos])
        (tmp_path / "store" / "loose__file").write_text("")
        (tmp_path / "store" / "no-separator").mkdir()
        expected = ["A/z", "a/b", "a/b-c", "a/b_c", "a/x", "a0/x"]
        assert list(store.iter_repo_ids()) == expected
        assert list(EventStore(tmp_path / "store").iter_repo_ids()) == expected

    @pytest.mark.parametrize("appends", [1, 2])
    def test_ids_that_shared_a_directory_name_kept_apart(self, tmp_path, appends):
        # both ids were once spelt ``a__b__c``
        ours, theirs = make_event(repo_id="a__b/c"), make_event(repo_id="a/b__c", actor="bob")
        store = EventStore(tmp_path / "store")
        if appends == 1:
            store.append([ours, theirs])
        else:
            store.append([ours])
            store.append([theirs])
        fresh = EventStore(tmp_path / "store")
        assert list(fresh.iter_repo_ids()) == ["a/b__c", "a__b/c"]
        assert fresh.read("a__b/c") == [ours]
        assert fresh.read("a/b__c") == [theirs]

    def test_read_absent_repository_is_empty(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event()])
        assert store.read("nobody/here") == []

    def test_read_ignores_other_entries(self, tmp_path):
        store = EventStore(tmp_path / "store")
        events = self._events(3)
        store.append(events)
        months = tmp_path / "store" / "months"
        (months / "notes.txt").write_text("not a month file")
        (months / "2016-12.events.tmp").write_bytes(b"garbage")
        (months / "scratch").mkdir()
        (tmp_path / "store" / "notes").mkdir()
        assert EventStore(tmp_path / "store").read("bitcoin/bitcoin") == events

    def test_latest_created_at_latest_month_wins(self, tmp_path):
        store = EventStore(tmp_path / "store")
        december = [make_event(repo_id="a/a", created_at=AS_OF - DAY * d) for d in (1, 3)]
        november = [make_event(repo_id="b/b", created_at=AS_OF - DAY * d) for d in (40, 35)]
        store.append(november + december)
        assert store.latest_created_at() == AS_OF - DAY

    def test_latest_created_at_skips_a_month_of_magic_only(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(created_at=AS_OF - 2 * DAY), make_event(repo_id="b/b", created_at=AS_OF - DAY)])
        (tmp_path / "store" / "months" / "2017-02.events").write_bytes(MAGIC)
        assert store.latest_created_at() == AS_OF - DAY

    def test_latest_created_at_of_empty_store_is_none(self, tmp_path):
        store = EventStore(tmp_path / "store")
        assert store.latest_created_at() is None
        path = tmp_path / "store" / "months" / "2017-01.events"
        path.parent.mkdir()
        path.write_bytes(MAGIC)
        assert EventStore(tmp_path / "store").latest_created_at() is None

    def test_latest_created_at_ignores_a_torn_frame(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event()])
        (tmp_path / "store" / "months" / "2017-01.events").write_bytes(MAGIC + b"\x00\x00")
        assert EventStore(tmp_path / "store").latest_created_at() == AS_OF - DAY

    def test_has_history_needs_contribution_events(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(repo_id="idle/repo", event_type=EventType.WATCH)])
        store.append([make_event(repo_id="live/repo", event_type=EventType.PUSH)])
        assert not store.has_history("idle/repo")
        assert store.has_history("live/repo")

    def test_dedup_key_distinguishes_payloads(self):
        a = make_event(texts=["one"])
        b = make_event(texts=["two"])
        assert dedup_key(a) != dedup_key(b)
        assert dedup_key(a) == dedup_key(make_event(texts=["one"]))

    def test_dedup_key_ignores_tz_offset(self):
        assert dedup_key(make_event(tz_offset=60)) == dedup_key(make_event(tz_offset=-300))

    def test_duplicate_within_one_batch_stored_once(self, tmp_path):
        store = EventStore(tmp_path / "store")
        a, b = self._events(2)
        receipt = store.append([a, b, a])
        assert (receipt.count, receipt.duplicates_skipped) == (2, 1)
        assert store.read("bitcoin/bitcoin") == [a, b]

    def test_partition_read_at_most_once_per_store(self, tmp_path, monkeypatch):
        opened = []

        def counted_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            opened.append((str(file).rsplit(".", 1)[1], mode))
            return handle

        def no_decode(path, *args):
            raise AssertionError(f"keying decoded {path}")

        monkeypatch.setattr(store_module, "open", counted_open, raising=False)
        store = EventStore(tmp_path / "store")
        events = self._events()
        with monkeypatch.context() as patched:
            patched.setattr(store_module, "_frame_fields", no_decode)
            receipts = [store.append(events[i : i + 4]) for i in range(0, 10, 2)]
        assert [r.count for r in receipts] == [4, 2, 2, 2, 0]
        assert [r.duplicates_skipped for r in receipts] == [0, 2, 2, 2, 2]
        # the store created this month file, which it then never reads again,
        # and the all-duplicate batch opens nothing
        assert opened == [("events", "ab")] * 4
        opened.clear()
        receipt = EventStore(tmp_path / "store").append(events)
        assert (receipt.count, receipt.duplicates_skipped) == (0, 10)
        # a second store reads the month file's keys once
        assert opened == [("events", "rb")]
        monkeypatch.undo()
        assert store.read("bitcoin/bitcoin") == events

    def test_reader_opens_each_file_once_and_reads_index_and_columns_once(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        events = [replace(e, texts=[e.actor]) for e in self._events()]
        others = [replace(e, repo_id="other/repo", event_type=EventType.ISSUE_COMMENT) for e in events]
        writer = EventStore(root)
        for i in range(0, 10, 2):  # five frames in the month file
            writer.append(events[i : i + 2] + others[i : i + 2])
        opened, read = [], []
        os_open, pread = store_module.os.open, store_module.os.pread
        names = {}

        def counted_open(path, flags, *args):
            fd = os_open(path, flags, *args)
            opened.append(Path(path).name)
            names[fd] = Path(path).name
            return fd

        def counted_pread(fd, length, offset):
            data = pread(fd, length, offset)
            read.append((offset, offset + len(data)))
            return data

        monkeypatch.setattr(store_module.os, "open", counted_open)
        monkeypatch.setattr(store_module.os, "pread", counted_pread)
        store = EventStore(root)
        assert store.read("bitcoin/bitcoin") == events
        assert list(store.iter_repo_ids()) == ["bitcoin/bitcoin", "other/repo"]
        assert store.columns(["other/repo"], AS_OF)["other/repo"].actor.tolist() == [e.actor for e in others]
        assert store.read("other/repo") == others
        assert sorted(store.push_corpus(AS_OF, CorpusReceipt())) == sorted(text for e in events for text in e.texts)
        assert opened == ["2016-12.events"]
        frames = store._month("2016-12").frames
        end = (root / "months" / "2016-12.events").stat().st_size
        # the magic header, then each frame's head, index and columns once; its
        # texts once per ``read``, and its push texts once for the corpus
        expected = [(0, len(MAGIC))]
        for frame, stop in zip(frames, [frame.at for frame in frames[1:]] + [end]):
            offset, length = frame.columns
            expected += [(frame.at, frame.at + 28), (frame.at + 28, offset), (offset, offset + length)]
            expected += [(frame.texts[0], stop)] * 2 + [(frame.texts[0], sum(frame.texts))]
        assert sorted(read) == sorted(expected)

    def test_interrupted_append_leaves_the_month_readable(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        december = [replace(e, texts=[e.actor]) for e in self._events(4)]
        january = [replace(e, created_at=e.created_at + 31 * DAY) for e in december]
        EventStore(root).append(december[:2] + january[:1])
        append_cut = store_module._append_cut

        def interrupted(path, cut, magic, data):
            if path.endswith("2017-01.events"):
                append_cut(path, cut, magic, data[: len(data) // 2])  # a torn frame
                raise OSError("interrupted")
            append_cut(path, cut, magic, data)

        with monkeypatch.context() as patched:
            patched.setattr(store_module, "_append_cut", interrupted)
            with pytest.raises(StoreWriteError, match="2017-01.events failed: interrupted") as failure:
                EventStore(root).append(december + january)
        assert failure.value.partial_count == 2  # december's frame, written whole
        store = EventStore(root)
        assert store.read("bitcoin/bitcoin") == december + january[:1]
        texts = sorted(store.push_corpus(AS_OF + 40 * DAY, CorpusReceipt()))
        assert texts == sorted(e.actor for e in december + january[:1])
        assert store.latest_created_at() == january[0].created_at
        receipt = EventStore(root).append(december + january)
        assert (receipt.count, receipt.duplicates_skipped) == (3, 5)
        assert EventStore(root).read("bitcoin/bitcoin") == december + january

    def test_failed_append_rereads_partition(self, tmp_path, monkeypatch):
        store = EventStore(tmp_path / "store")
        events = self._events(6)
        store.append(events[:3])

        def fail(*args):
            raise OSError("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(store_module, "_frame", fail)
            with pytest.raises(StoreWriteError, match="disk full") as failure:
                store.append(events[3:])
        assert failure.value.partial_count == 0
        # the keys the failed append added are dropped with the rest: read again from disk
        receipt = store.append(events[3:])
        assert (receipt.count, receipt.duplicates_skipped) == (3, 0)
        assert store.read("bitcoin/bitcoin") == events

    #: each corruption of a frame holding one push: its parts replaced, the
    #: reason in the error, and the readers besides ``read`` that fail on it
    _CORRUPT = {
        "invalid_json": (dict(texts=b"[oops"), "JSONDecodeError: ", {"push_corpus"}),
        "trailing_data": (dict(texts=b'["fix"][]'), "JSONDecodeError: Extra data", {"push_corpus"}),
        "missing_field": (dict(names=b"[]"), "ValueError: the names do not match their count", {"columns", "push_corpus"}),
        "unknown_event_type": (dict(kind=9), "ValueError: kind code 9 is out of range", {"columns"}),
        "tz_offset_out_of_range": (dict(tz=-721), "ValueError: tz_offset -721 is out of range", {"columns"}),
        "created_at_past_year_9999": (dict(created_at=EPOCH_END), f"ValueError: created_at {EPOCH_END} outside ", set()),
        "text_not_a_string": (dict(texts=b"[1]"), "TypeError: sequence item 0: expected str", {"push_corpus"}),
        "object_body": (dict(texts=b'{"texts":["fix"]}'), "TypeError: the texts are not a list", {"push_corpus"}),
        "eight_elements": (dict(texts=b"[]"), "ValueError: the texts do not match their count", {"push_corpus"}),
        "ten_elements": (dict(texts=b'["fix","fix"]'), "ValueError: the texts do not match their count", {"push_corpus"}),
        "string_body": (dict(texts=b'"fix"'), "TypeError: the texts are not a list", {"push_corpus"}),
        "number_body": (dict(texts=b"9"), "TypeError: the texts are not a list", {"push_corpus"}),
        # the texts of the records other than pushes, which only ``read`` reads
        "other_texts_invalid_json": (dict(others=b"[oops"), "JSONDecodeError: ", set()),
        "other_text_not_a_string": (dict(others=b'["a",1]'), "TypeError: sequence item 1: expected str", set()),
    }

    @pytest.mark.parametrize("corrupt", list(_CORRUPT))
    def test_corrupt_record_names_partition_and_offset(self, tmp_path, corrupt):
        store = EventStore(tmp_path / "store")
        good, bad = self._events(2)
        bad = replace(bad, texts=["fix"])
        store.append([good])
        path = tmp_path / "store" / "months" / "2016-12.events"
        offset = path.stat().st_size
        frame = store_module._frame(["bitcoin/bitcoin"], [0, 1], [bad])
        changed, reason, failing = self._CORRUPT[corrupt]
        changed = dict(changed)
        columns = bytearray(frame_sections(frame)[1]["columns"])  # one row: each column one value
        for name, at, size, dtype in (("created_at", 0, 8, "<i8"), ("tz", 24, 2, "<i2"), ("kind", 26, 1, "u1")):
            if name in changed:
                columns[at : at + size] = np.array(changed.pop(name), dtype).tobytes()
                changed["columns"] = bytes(columns)
        corrupted = reframed(frame, **changed)
        assert corrupted != frame
        with open(path, "ab") as handle:
            handle.write(corrupted)
        message = f"^{re.escape(str(path))}: frame at byte {offset}: "
        with pytest.raises(StoreError, match=message) as failure:
            EventStore(tmp_path / "store").read("bitcoin/bitcoin")
        assert reason in str(failure.value)
        # the columns and the push texts are read apart: each reader fails on what it reads
        readers = {
            "columns": lambda fresh: fresh.columns(["bitcoin/bitcoin"], AS_OF),
            "push_corpus": lambda fresh: list(fresh.push_corpus(AS_OF, CorpusReceipt())),
        }
        for name, reader in readers.items():
            if name in failing:
                with pytest.raises(StoreError) as other_failure:
                    reader(EventStore(tmp_path / "store"))
                assert str(other_failure.value) == str(failure.value)
            else:
                reader(EventStore(tmp_path / "store"))

    def test_read_checks_each_record_once(self, tmp_path, monkeypatch):
        store = EventStore(tmp_path / "store")
        events = self._events()
        store.append(events)
        calls = []

        def counted(record):
            calls.append(record.actor)
            return check(record)

        check = EventRecord.__post_init__
        monkeypatch.setattr(EventRecord, "__post_init__", counted)
        assert store.read("bitcoin/bitcoin") == events
        assert calls == [event.actor for event in events]

    @staticmethod
    def _corpus(root):
        """The sorted push corpus of the store at ``root``."""
        return sorted(EventStore(root).push_corpus(AS_OF, CorpusReceipt()))

    @pytest.mark.parametrize("change", ["deleted_and_rewritten", "restored_shorter"])
    def test_push_corpus_decodes_a_replaced_partition_whole(self, tmp_path, change):
        events = [replace(e, texts=[e.actor]) for e in self._events(6)]
        root, path = tmp_path / "store", tmp_path / "store" / "months" / "2016-12.events"
        store = EventStore(root)
        store.append(events[:2])
        size = path.stat().st_size
        store.append(events[2:4])
        assert self._corpus(root) == [e.actor for e in events[:4]]
        if change == "deleted_and_rewritten":  # a new file: its frames are read as they stand
            path.unlink()
            EventStore(root).append(events[3:])
            assert self._corpus(root) == [e.actor for e in events[3:]]
        else:  # its first frame alone
            path.write_bytes(path.read_bytes()[:size])
            assert self._corpus(root) == [e.actor for e in events[:2]]
        assert EventStore(root).read("bitcoin/bitcoin") == [e for e in events if e.actor in self._corpus(root)]

    def test_push_corpus_rejects_a_range_off_record_boundaries(self, tmp_path):
        root, events = tmp_path / "store", [replace(e, texts=[e.actor]) for e in self._events(2)]
        path = root / "months" / "2016-12.events"
        frame = store_module._frame(["bitcoin/bitcoin"], [0, 2], events)
        # a push text count that is not the push texts' count
        path.parent.mkdir(parents=True)
        path.write_bytes(MAGIC + reframed(frame, m=1, times=struct.pack(">q", events[0].created_at)))
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: frame at byte 8: .*the texts do not match their count$"):
            self._corpus(root)
        # text counts that split the texts off the records' boundaries: the first record holds both
        columns = bytearray(frame_sections(frame)[1]["columns"])
        columns[35 * 2 : 39 * 2] = struct.pack("<II", 2, 1)
        path.write_bytes(MAGIC + reframed(frame, columns=bytes(columns)))
        assert self._corpus(root) == ["user0", "user1"]  # the corpus reads the push texts alone
        message = f"^{re.escape(str(path))}: frame at byte 8: ValueError: the text counts do not match the texts$"
        with pytest.raises(StoreError, match=message):
            EventStore(root).read("bitcoin/bitcoin")

    def test_unkeyable_record_names_partition(self, tmp_path):
        path = tmp_path / "store" / "months" / "2016-12.events"
        path.parent.mkdir(parents=True)
        path.write_bytes(MAGIC + (5).to_bytes(4, "big") + b"{oops")
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: frame at byte 8: "):
            EventStore(tmp_path / "store").append(self._events(1))

    @pytest.mark.parametrize("cut", ["record_body", "length_prefix", "magic_header", "empty"])
    def test_torn_tail_repaired_by_next_append(self, tmp_path, cut):
        events = self._events(8)
        kept, torn, new = events[:5], events[5], events[6:]
        writer = EventStore(tmp_path / "store")
        writer.append(kept)
        path = tmp_path / "store" / "months" / "2016-12.events"
        intact = path.stat().st_size
        writer.append([torn])
        full = path.read_bytes()
        if cut == "record_body":
            path.write_bytes(full[: intact + 4 + 3])
        elif cut == "length_prefix":
            path.write_bytes(full[: intact + 2])
        else:
            kept = []
            path.write_bytes(MAGIC[:5] if cut == "magic_header" else b"")
        assert EventStore(tmp_path / "store").read("bitcoin/bitcoin") == kept  # reads ignore the torn tail
        store = EventStore(tmp_path / "store")
        receipt = store.append(new)
        assert receipt.count == len(new)
        assert store.read("bitcoin/bitcoin") == kept + new
        assert path.read_bytes().startswith(full[:intact] if kept else MAGIC)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(EventType)),
                st.integers(min_value=0, max_value=2_000_000_000),
                st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=5),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, batch):
        store = EventStore(tmp_path_factory.mktemp("store"))
        events = [
            EventRecord("owner/repo", kind, actor, ts, texts=["msg"], counts=1)
            for kind, ts, actor in batch
        ]
        store.append(events)
        distinct = list({dedup_key(e): e for e in events}.values())
        read_back = store.read("owner/repo")
        assert sorted(read_back, key=dedup_key) == sorted(distinct, key=dedup_key)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(EventType)),
                st.integers(min_value=0, max_value=40),
                _TRICKY_TEXT,
                st.one_of(st.none(), _TRICKY_TEXT),
                st.lists(_TRICKY_TEXT, max_size=3),
                st.one_of(st.none(), st.integers(TZ_OFFSET_MIN, TZ_OFFSET_MAX)),
                _ANY_NUMBER,
                _ANY_NUMBER,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_keys_from_stored_bytes_property(self, tmp_path_factory, batch):
        root = tmp_path_factory.mktemp("store")
        events = [
            EventRecord("owner/repo", kind, actor, AS_OF - day * DAY, tz, action, texts, counts, number)
            for kind, day, actor, action, texts, tz, counts, number in batch
        ]
        first = EventStore(root).append(events)
        identities = {
            (e.event_type, e.actor, e.created_at, e.action, tuple(e.texts), e.counts, e.number)
            for e in events
        }
        assert first.count == len(identities)  # records that differ only in tz_offset are one
        twins = [replace(e, tz_offset=None if e.tz_offset else 60) for e in events]
        again = EventStore(root).append(events + twins)
        assert (again.count, again.duplicates_skipped) == (0, 2 * len(events))
        keys = set().union(*(store_module._month_keys(str(path))[0] for path in root.glob("months/*.events")))
        assert keys == set(map(dedup_key, events))  # the keys read from the frames are the records'

    @given(st.integers(min_value=EPOCH_MIN, max_value=EPOCH_END - 1))
    @example(EPOCH_MIN)
    @example(EPOCH_END - 1)
    @example(-1)
    @example(AS_OF)
    def test_month_key_matches_datetime(self, created_at):
        utc = datetime.fromtimestamp(created_at, timezone.utc)
        assert _month_key(created_at) == f"{utc.year:04d}-{utc.month:02d}"

    @pytest.mark.parametrize(
        "created_at",
        [
            EPOCH_MIN,
            EPOCH_END - 1,
            -1,
            0,
            -DAY,
            -DAY - 1,
            -31 * DAY,  # 1969-12-01T00:00:00Z
            -31 * DAY - 1,
            AS_OF - 1,
            AS_OF,
            1_488_326_399,  # 2017-02-28T23:59:59Z
            1_488_326_400,  # 2017-03-01T00:00:00Z
            951_782_400,  # 2000-02-29T00:00:00Z
            951_868_799,  # 2000-02-29T23:59:59Z
            951_868_800,  # 2000-03-01T00:00:00Z
        ],
    )
    def test_month_key_equals_gmtime_spelling(self, created_at):
        utc = time.gmtime(created_at)
        assert _month_key(created_at) == f"{utc.tm_year:04d}-{utc.tm_mon:02d}"


def test_store_layout_guard(tmp_path):
    """Every stored byte lies in a month file or the ledger, and a month's
    records live in its file alone: deleting it removes them from ``read``
    and ``columns``, and from nothing else.  So a byte count or digest of
    ``months/*.events`` covers every record of the store."""
    archives = tmp_path / "archives"
    archives.mkdir()
    lines = [
        _watch_line(f'"{month}-0{day}T09:00:00Z"').replace('"a/b"', f'"a/{repo}"')
        for month in ("2016-11", "2016-12", "2017-01") for day in (1, 2) for repo in ("b", "c")
    ]
    (archives / "2016-12-01-0.json").write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--archives", str(archives), "--out", str(tmp_path / "out")]) == 0
    root = tmp_path / "out" / "store"
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    assert files == [LEDGER, "months/2016-11.events", "months/2016-12.events", "months/2017-01.events"]
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_dir()) == ["months"]
    before = EventStore(root)
    repos = list(before.iter_repo_ids())
    records = {repo: before.read(repo) for repo in repos}
    (root / "months" / "2016-12.events").unlink()
    after = EventStore(root)
    columns = after.columns(repos, AS_OF + 40 * DAY)
    for repo in repos:
        left = [r for r in records[repo] if _month_key(r.created_at) != "2016-12"]
        assert len(left) == 4 and after.read(repo) == left
        assert columns[repo].created_at.tolist() == [r.created_at for r in left]


#: each column's dtype and null sentinel, in the order of ``Columns``; None for a column with none
_DTYPES = (np.uint8, np.int64, np.int16, np.int64, np.int64, object, object)
_NULLS = (None, INT_NULL, TZ_NULL, INT_NULL, INT_NULL, None, None)


def _rows(columns):
    """Each row of ``columns`` as ``(kind, created_at, tz_offset, counts,
    number, actor, action)``, None for a null."""
    values = [
        column.tolist() if null is None else [None if value == null else value for value in column.tolist()]
        for column, null in zip(columns, _NULLS)
    ]
    return list(zip(map(KINDS.__getitem__, values[0]), *values[1:]))


class TestColumns:
    """The frames' columns, read by ``EventStore.columns``, hold what ``read`` builds."""

    #: records of three repositories over four months, every nullable field sometimes None
    _RECORDS = st.lists(
        st.builds(
            EventRecord,
            repo_id=st.sampled_from(["a/b", "a/c", "x/y"]),
            event_type=st.sampled_from(list(EventType)),
            actor=_TRICKY_TEXT,
            created_at=st.integers(AS_OF - 70 * DAY, AS_OF + 40 * DAY),
            tz_offset=st.one_of(st.none(), st.integers(TZ_OFFSET_MIN, TZ_OFFSET_MAX)),
            action=st.one_of(st.none(), _TRICKY_TEXT),
            texts=st.lists(_TRICKY_TEXT, max_size=2),
            counts=st.one_of(st.none(), st.integers(INT_NULL + 1, -INT_NULL - 1)),
            number=st.one_of(st.none(), st.integers(0, 3)),
        ),
        max_size=8,
    )

    @given(
        appends=st.lists(_RECORDS, min_size=1, max_size=3),
        change=st.sampled_from(["none", "last_append_torn", "month_file_replaced"]),
        before=st.integers(AS_OF - 70 * DAY, AS_OF + 41 * DAY),
    )
    def test_columns_equal_the_records_read(self, tmp_path_factory, appends, change, before):
        root = tmp_path_factory.mktemp("store")
        append_cut = store_module._append_cut

        def torn(path, cut, magic, data):
            append_cut(path, cut, magic, data[: len(data) // 2])
            raise OSError("interrupted")

        for i, batch in enumerate(appends):
            if change == "last_append_torn" and i == len(appends) - 1:
                with mock.patch.object(store_module, "_append_cut", torn):
                    with suppress(StoreWriteError):
                        EventStore(root).append(batch)
            else:
                EventStore(root).append(batch)
        months = sorted((root / "months").glob("*.events"))
        if change == "month_file_replaced" and months:
            months[0].unlink()
            EventStore(root).append(appends[-1] + appends[0])
        store = EventStore(root)
        repos = ["a/b", "a/c", "x/y", "no/such"]
        columns = store.columns(repos, before)
        for repo in repos:
            expected = from_records([record for record in store.read(repo) if record.created_at < before])
            assert _rows(columns[repo]) == _rows(expected), repo
            assert [column.dtype for column in columns[repo]] == list(map(np.dtype, _DTYPES)), repo

    #: a frame's part, by its byte offset in the file from the frame, and what each broken part says
    _BROKEN = {
        "row_bounds": (lambda frame, r: frame.at + 28 + 3, b"\x01", "the row bounds do not increase from 0"),
        "kind": (lambda frame, r: frame.columns[0] + 26 * r, b"\x09", "ValueError: kind code 9 is out of range"),
        "tz_offset": (lambda frame, r: frame.columns[0] + 24 * r, (TZ_OFFSET_MAX + 1).to_bytes(2, "little"),
                      "ValueError: tz_offset 841 is out of range"),
        "actor": (lambda frame, r: frame.columns[0] + 27 * r, (1000).to_bytes(4, "little"),
                  "ValueError: actor index 1000 is out of range"),
        # the table was ``["user1","user2"]``
        "string_table": (lambda frame, r: frame.columns[0] + 39 * r, b"[1234567,", "the string table is not a list of strings"),
    }

    @pytest.mark.parametrize("part", list(_BROKEN))
    @pytest.mark.parametrize("beside", ["columns", "unlogged_records"])
    def test_broken_columns_name_the_log_and_the_frame(self, tmp_path, part, beside):
        root, path = tmp_path / "store", tmp_path / "store" / "months" / "2016-12.events"
        events = [make_event(actor=f"user{i}", created_at=AS_OF - (3 - i) * DAY, event_type=EventType.PUSH) for i in range(3)]
        EventStore(root).append(events[:1])
        EventStore(root).append(events[1:])
        frame = EventStore(root)._month("2016-12").frames[-1]
        if beside == "unlogged_records":  # records no whole frame holds: a torn frame after the broken one
            torn = store_module._frame(["bitcoin/bitcoin"], [0, 1], [make_event(actor="unlogged", created_at=AS_OF - DAY // 2)])
            with open(path, "ab") as handle:
                handle.write(torn[:-1])
        at, broken, reason = self._BROKEN[part]
        offset = at(frame, frame.rows[-1])
        data = bytearray(path.read_bytes())
        data[offset : offset + len(broken)] = broken
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: frame at byte {frame.at}: ") as failure:
            EventStore(root).columns(["bitcoin/bitcoin"], AS_OF)
        assert reason in str(failure.value)
        with pytest.raises(StoreError) as read_failure:  # the records are built from the same columns
            EventStore(root).read("bitcoin/bitcoin")
        assert str(read_failure.value) == str(failure.value)


class TestArchiveLedger:
    """``ingest`` skips an archive the store's ledger says it holds whole."""

    @pytest.fixture
    def archives(self, tmp_path):
        archives = tmp_path / "archives"
        archives.mkdir()
        for hour, lines in (("00", FIXTURE_LINES), ("01", FIXTURE_LINES[:4] + [_watch_line('"2016-12-20T00:00:00Z"')])):
            with gzip.open(archives / f"2016-12-01-{hour}.json.gz", "wt", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        return archives

    @staticmethod
    def _ingest(archives, monkeypatch):
        """(exit code, the archives parsed, the report's file entries) of one ``ingest``."""
        parsed, parse = [], cli.parse_archive_file

        def spied(path, *args):
            parsed.append(path.name)
            return parse(path, *args)

        with monkeypatch.context() as patched:
            patched.setattr(cli, "parse_archive_file", spied)
            code = cli.main(["ingest", "--archives", str(archives), "--out", str(archives.parent / "out")])
        report = json.loads((archives.parent / "out" / "ingest_report.json").read_text())
        return code, parsed, report["files"]

    def test_torn_tail_reparses_the_archive_and_is_repaired(self, archives, monkeypatch):
        code, parsed, fresh = self._ingest(archives, monkeypatch)
        assert (code, parsed) == (0, ["2016-12-01-00.json.gz", "2016-12-01-01.json.gz"])
        ledger = archives.parent / "out" / "store" / LEDGER
        whole = ledger.read_bytes()
        size = store_module._LEDGER_RECORD.size
        assert len(whole) == len(LEDGER_MAGIC) + 2 * size
        again = [{**entry, "stored": 0, "duplicates_skipped": entry["parsed"]} for entry in fresh]
        for cut in range(size):
            ledger.write_bytes(whole[: len(whole) - size + cut])
            assert self._ingest(archives, monkeypatch) == (0, ["2016-12-01-01.json.gz"], again)
            assert ledger.read_bytes() == whole
            assert self._ingest(archives, monkeypatch) == (0, [], again)

    @pytest.mark.parametrize("kept", [0, 3, len(LEDGER_MAGIC) - 1])
    def test_partial_magic_header_reads_as_empty(self, archives, monkeypatch, kept):
        _, _, fresh = self._ingest(archives, monkeypatch)
        ledger = archives.parent / "out" / "store" / LEDGER
        whole = ledger.read_bytes()
        ledger.write_bytes(LEDGER_MAGIC[:kept])
        code, parsed, _ = self._ingest(archives, monkeypatch)
        assert (code, len(parsed)) == (0, 2)
        assert ledger.read_bytes() == whole

    def test_bad_magic_header_names_the_ledger(self, tmp_path):
        ledger = tmp_path / "store" / LEDGER
        ledger.parent.mkdir()
        ledger.write_bytes(b"NOTALEDGER")
        with pytest.raises(StoreError, match=f"^{re.escape(str(ledger))}: bad magic header "):
            EventStore(tmp_path / "store").ingested(archive_digest(b""))

    def test_truncated_archive_gets_no_record_until_fixed(self, archives, monkeypatch):
        broken = archives / "2016-12-01-02.json.gz"
        whole = gzip.compress(("\n".join(FIXTURE_LINES[:3]) + "\n").encode())
        broken.write_bytes(whole[:-8])
        code, parsed, _ = self._ingest(archives, monkeypatch)
        assert (code, parsed[-1]) == (1, broken.name)
        store = archives.parent / "out" / "store"
        assert EventStore(store).ingested(archive_digest(broken.read_bytes())) is None
        broken.write_bytes(whole)
        code, parsed, files = self._ingest(archives, monkeypatch)
        assert (code, parsed) == (0, [broken.name])
        assert files[-1]["parsed"] == 3
        assert EventStore(store).ingested(archive_digest(whole)) == (3, 0, 0)
        assert self._ingest(archives, monkeypatch)[:2] == (0, [])

    def test_ledger_is_no_repository(self, archives, monkeypatch):
        self._ingest(archives, monkeypatch)
        root = archives.parent / "out" / "store"
        assert (root / LEDGER).is_file()
        with_ledger = list(EventStore(root).iter_repo_ids()), EventStore(root).latest_created_at()
        (root / LEDGER).unlink()
        assert with_ledger == (list(EventStore(root).iter_repo_ids()), EventStore(root).latest_created_at())
        assert with_ledger == (["a/b", "bitcoin/bitcoin"], 1_482_192_000)  # 2016-12-20T00:00:00Z
