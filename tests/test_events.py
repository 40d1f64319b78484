"""Archive parsing, event windows, and the on-disk event store."""

import gzip
import io
import json
import logging
import re

import pytest
from hypothesis import given, strategies as st

from conftest import AS_OF, DAY, FIXTURE_LINES, make_event
from oss_health.events import (
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
    dedup_key,
)


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
        read_calls = []
        opened_to_read = []
        read_partition = EventStore._read_partition

        def counted_read(path):
            read_calls.append(path)
            return read_partition(path)

        def counted_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if "a" not in mode:
                opened_to_read.append(file)
            return handle

        monkeypatch.setattr(EventStore, "_read_partition", staticmethod(counted_read))
        monkeypatch.setattr(store_module, "open", counted_open, raising=False)
        store = EventStore(tmp_path / "store")
        events = self._events()
        receipts = [store.append(events[i : i + 4]) for i in range(0, 10, 2)]
        assert [r.count for r in receipts] == [4, 2, 2, 2, 0]
        assert [r.duplicates_skipped for r in receipts] == [0, 2, 2, 2, 2]
        assert len(read_calls) <= 1
        assert opened_to_read == []  # the store created this partition
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
