"""Archive parsing, event windows, and the on-disk event store."""

import gzip
import io
import json
import logging
import re
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, strategies as st

from conftest import AS_OF, DAY, FIXTURE_LINES, make_event
from oss_health.events import (
    EPOCH_END,
    EPOCH_MIN,
    TZ_OFFSET_MAX,
    TZ_OFFSET_MIN,
    ArchiveStreamError,
    EventRecord,
    EventType,
    MalformedLineError,
    ParseStats,
    apply_event_window,
    parse_archive_file,
    parse_archive_stream,
    parse_event_line,
)
from oss_health import store as store_module
from oss_health.store import (
    MAGIC,
    AppendReceipt,
    EventStore,
    StoreError,
    StoreWriteError,
    _frames,
    _key,
    _month_key,
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
        assert stats.as_dict() == {
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


#: texts built from JSON's awkward characters and the literal the dedup key is cut at
_TRICKY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "\U0001F600", ',"tz_offset":', r'\","tz_offset":0}']),
        st.text(max_size=3),
    ),
    max_size=4,
).map("".join)


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

    def test_partition_layout(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(created_at=AS_OF - DAY)])  # 2016-12-31
        assert (tmp_path / "store" / "bitcoin__bitcoin" / "2016-12.events").is_file()

    def test_iter_repo_ids(self, tmp_path):
        store = EventStore(tmp_path / "store")
        store.append([make_event(repo_id="b/b"), make_event(repo_id="a/a")])
        assert list(store.iter_repo_ids()) == ["a/a", "b/b"]

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
            opened.append(mode)
            return handle

        def no_decode(path):
            raise AssertionError(f"keying decoded {path}")

        monkeypatch.setattr(EventStore, "_read_partition", staticmethod(no_decode))
        monkeypatch.setattr(store_module, "open", counted_open, raising=False)
        store = EventStore(tmp_path / "store")
        events = self._events()
        receipts = [store.append(events[i : i + 4]) for i in range(0, 10, 2)]
        assert [r.count for r in receipts] == [4, 2, 2, 2, 0]
        assert [r.duplicates_skipped for r in receipts] == [0, 2, 2, 2, 2]
        # the store created this partition, and the all-duplicate batch opens nothing
        assert opened == ["ab"] * 4
        opened.clear()
        receipt = EventStore(tmp_path / "store").append(events)
        assert (receipt.count, receipt.duplicates_skipped) == (0, 10)
        assert opened == ["r+b"]  # a second store reads the partition's keys once
        monkeypatch.undo()
        assert store.read("bitcoin/bitcoin") == events

    def test_failed_append_rereads_partition(self, tmp_path, monkeypatch):
        store = EventStore(tmp_path / "store")
        events = self._events(6)
        store.append(events[:3])
        encode = store_module._record_to_json
        calls = []

        def fail_second(record):
            calls.append(record)
            if len(calls) == 2:
                raise OSError("disk full")
            return encode(record)

        monkeypatch.setattr(store_module, "_record_to_json", fail_second)
        with pytest.raises(StoreWriteError) as failure:
            store.append(events[3:])
        assert failure.value.partial_count == 1
        monkeypatch.setattr(store_module, "_record_to_json", encode)
        receipt = store.append(events[3:])
        assert (receipt.count, receipt.duplicates_skipped) == (2, 1)
        assert store.read("bitcoin/bitcoin") == events

    @pytest.mark.parametrize(
        "corrupt", ["invalid_json", "trailing_data", "missing_field", "unknown_event_type"]
    )
    def test_corrupt_record_names_partition_and_offset(self, tmp_path, corrupt):
        store = EventStore(tmp_path / "store")
        good, bad = self._events(2)
        store.append([good])
        path = tmp_path / "store" / "bitcoin__bitcoin" / "2016-12.events"
        offset = path.stat().st_size
        blob = store_module._record_to_json(bad)
        doc = json.loads(blob)
        del doc["repo_id"]
        body = {
            "invalid_json": b"{oops",
            "trailing_data": blob + b"{}",
            "missing_field": json.dumps(doc).encode(),
            "unknown_event_type": blob.replace(b'"event_type":"Push"', b'"event_type":"Bogus"'),
        }[corrupt]
        assert body != blob
        with open(path, "ab") as handle:
            handle.write(len(body).to_bytes(4, "big") + body)
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: record at byte {offset}: "):
            store.read("bitcoin/bitcoin")

    def test_unkeyable_record_names_partition(self, tmp_path):
        path = tmp_path / "store" / "bitcoin__bitcoin" / "2016-12.events"
        path.parent.mkdir(parents=True)
        path.write_bytes(MAGIC + (5).to_bytes(4, "big") + b"{oops")
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: "):
            EventStore(tmp_path / "store").append(self._events(1))

    @pytest.mark.parametrize("cut", ["record_body", "length_prefix", "magic_header", "empty"])
    def test_torn_tail_repaired_by_next_append(self, tmp_path, cut):
        events = self._events(8)
        kept, torn, new = events[:5], events[5], events[6:]
        writer = EventStore(tmp_path / "store")
        writer.append(kept)
        path = tmp_path / "store" / "bitcoin__bitcoin" / "2016-12.events"
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
        with pytest.raises(StoreError):
            EventStore(tmp_path / "store").read("bitcoin/bitcoin")
        store = EventStore(tmp_path / "store")
        receipt = store.append(new)
        assert receipt.count == len(new)
        assert store.read("bitcoin/bitcoin") == kept + new

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
                st.one_of(st.none(), st.integers()),
                st.one_of(st.none(), st.integers()),
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
        for path in root.glob("*/*.events"):
            bodies, _ = _frames(path, path.read_bytes())
            records = EventStore._read_partition(path)
            assert [_key(body) for body in bodies] == [dedup_key(r) for r in records]

    @given(st.integers(min_value=EPOCH_MIN, max_value=EPOCH_END - 1))
    @example(EPOCH_MIN)
    @example(EPOCH_END - 1)
    @example(-1)
    @example(AS_OF)
    def test_month_key_matches_datetime(self, created_at):
        utc = datetime.fromtimestamp(created_at, timezone.utc)
        assert _month_key(created_at) == f"{utc.year:04d}-{utc.month:02d}"
