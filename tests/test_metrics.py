"""Indicator metrics: hand-computed oracles and invariants."""

import math
import re
import statistics
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import AS_OF, DAY, make_event
from oss_health.events import COMMENT_TYPES, CONTRIBUTION_TYPES, EventType, apply_event_window, from_records
from oss_health.metrics import (
    DAY_SECONDS,
    DEFAULT_CRITICALITY_CONFIG,
    ExternalInputs,
    MONTH_DAYS,
    MONTH_SECONDS,
    ProjectMetrics,
    _CHUNK_TEXTS,
    TimezoneHistogram,
    build_metrics_row,
    count_forks,
    count_mentions,
    count_stars,
    criticality_score,
    criticality_signals,
    engagement_metrics,
    geo_rmse,
    issue_response_times,
    longevity,
    median_distribution,
    mention_counts,
    months_since_update,
    parse_criticality_config,
    timezone_histogram,
)

WINDOW = (AS_OF - 6 * MONTH_SECONDS, AS_OF)


class PerRecord:
    """The metrics computed record by record, as they were before the
    columnar implementation: the reference it must equal, float for float."""

    @staticmethod
    def timezone_histogram(events, window):
        counts, total = np.zeros(24), 0
        for event in apply_event_window(events, *window):
            if event.tz_offset is not None:
                counts[(int(event.tz_offset / 60) + 12) % 24] += 1  # half-hour offsets round toward zero
                total += 1
        if total > 0:
            counts /= total
        return TimezoneHistogram(bins=counts, total=total)

    @staticmethod
    def criticality_signals(events, as_of):
        year = apply_event_window(events, as_of - 12 * MONTH_SECONDS, as_of)
        commits = sum(e.counts or 0 for e in year if e.event_type is EventType.PUSH)
        recent = sum(
            1 for e in apply_event_window(events, as_of - 90 * DAY_SECONDS, as_of) if e.event_type is EventType.PUSH
        )
        contributors = len({e.actor for e in events if e.event_type in CONTRIBUTION_TYPES})
        comments = sum(1 for e in year if e.event_type in COMMENT_TYPES)
        return {
            "commit_frequency": commits / 12.0,
            "recent_activity": float(recent),
            "contributor_count": float(contributors),
            "comment_frequency": comments / 12.0,
        }

    @staticmethod
    def longevity(events):
        first, last = {}, {}
        for event in events:
            if event.event_type in CONTRIBUTION_TYPES:
                actor, at = event.actor, event.created_at
                if actor not in first:
                    first[actor] = last[actor] = at
                elif at < first[actor]:
                    first[actor] = at
                elif at > last[actor]:
                    last[actor] = at
        if not first:
            return 0.0
        return float(statistics.mean((last[actor] - at) / DAY_SECONDS for actor, at in first.items()))

    @staticmethod
    def months_since_update(events, as_of):
        latest = None
        for event in events:
            if event.event_type in (EventType.PUSH, EventType.PULL_REQUEST):
                if latest is None or event.created_at > latest:
                    latest = event.created_at
        if latest is None:
            return None
        return int((as_of - latest) / DAY_SECONDS // MONTH_DAYS)

    @staticmethod
    def issue_response_times(events):
        opened, deltas, closed = {}, [], set()
        for event in sorted(events, key=lambda e: e.created_at):
            if event.event_type is not EventType.ISSUES or event.number is None:
                continue
            if event.action == "opened":
                opened.setdefault(event.number, event.created_at)
            elif event.action == "closed" and event.number in opened and event.number not in closed:
                deltas.append((event.created_at - opened[event.number]) / DAY_SECONDS)
                closed.add(event.number)  # re-opened issues count the first close only
        if not deltas:
            return 0.0, 0.0
        return float(statistics.median(deltas)), float(statistics.mean(deltas))

    @staticmethod
    def engagement_metrics(events, as_of):
        window = apply_event_window(events, as_of - 3 * MONTH_SECONDS, as_of)
        commits = sum(e.counts or 0 for e in window if e.event_type is EventType.PUSH)
        comments = sum(1 for e in window if e.event_type in COMMENT_TYPES)
        pull_requests = sum(
            1 for e in window if e.event_type is EventType.PULL_REQUEST and e.action == "opened"
        )
        authors = len({e.actor for e in window if e.event_type in CONTRIBUTION_TYPES})
        return commits / 3.0, comments / 3.0, pull_requests / 3.0, authors / 3.0

    @classmethod
    def row(cls, repo_id, events, externals, reference, as_of):
        median_days, average_days = cls.issue_response_times(events)
        commits, comments, pull_requests, authors = cls.engagement_metrics(events, as_of)
        histogram = cls.timezone_histogram(events, (as_of - 6 * MONTH_SECONDS, as_of))
        return ProjectMetrics(
            repo_id=repo_id,
            stars=sum(1 for e in events if e.event_type is EventType.WATCH),
            forks=sum(1 for e in events if e.event_type is EventType.FORK),
            mentions=externals.mentions if externals.mentions is not None else 0,
            criticality=criticality_score(cls.criticality_signals(events, as_of), DEFAULT_CRITICALITY_CONFIG),
            geo_rmse=geo_rmse(histogram, reference),
            longevity_days=cls.longevity(events),
            months_since_update=cls.months_since_update(events, as_of),
            median_response_days=median_days,
            average_response_days=average_days,
            cmc_rank=externals.cmc_rank,
            alexa_rank=externals.alexa_rank,
            commits_3mo=commits,
            comments_3mo=comments,
            pull_requests_3mo=pull_requests,
            authors_3mo=authors,
            as_of=as_of,
        )


class TestCounts:
    def test_empty(self):
        assert count_stars([]) == 0
        assert count_forks([]) == 0

    def test_fixture_mixture(self):
        events = [make_event(event_type=EventType.WATCH) for _ in range(3)] + [
            make_event(event_type=EventType.FORK) for _ in range(2)
        ]
        assert count_stars(events) == 3
        assert count_forks(events) == 2


class TestMentions:
    def test_zero_corpus(self):
        assert count_mentions([], {"bitcoin"}) == 0

    def test_whole_token_matching(self):
        corpus = ["fix bitcoin bug", "Bitcoin rocks", "bitcoind sync"]
        assert count_mentions(corpus, {"bitcoin"}) == 2

    def test_multi_word_alias(self):
        assert count_mentions(["shipping Basic Attention Token v1"], {"basic attention token"}) == 1

    def test_empty_alias_set_rejected(self):
        with pytest.raises(ValueError):
            count_mentions(["text"], set())

    def test_aliases_that_tokenise_alike_count_once(self):
        assert count_mentions(["neo rises"], {"Neo", "NEO"}) == 1

    @staticmethod
    def _reference(corpus, aliases):
        """Sliding-window count per distinct alias token run."""
        runs = {tuple(re.findall(r"[0-9a-z]+", a.lower())) for a in aliases} - {()}
        total = 0
        for text in corpus:
            toks = re.findall(r"[0-9a-z]+", text.lower())
            for run in runs:
                k = len(run)
                total += sum(tuple(toks[i : i + k]) == run for i in range(len(toks) - k + 1))
        return total

    # U+212A lowercases to "k" and U+0130 to "i" plus a combining dot;
    # runs of "0" look like the token that keeps runs inside one text
    _WORDS = [
        "bitcoin", "Bitcoin", "bitcoind", "basic", "attention", "token", "neo", "NEO", "x1",
        "\u212aelvin", "kelvin", "\u0130o", "io", "0", "0" * 12, "caf\u00e9x", "snake_case",
        "tab\tnul\x00", "\ud800surrogate", "\U0001F600emoji",
    ]
    _phrase = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
    _text = st.lists(
        st.sampled_from(_WORDS + ["", " ", "-", "basic attention token", "bitcoin!"]), max_size=12
    ).map(" ".join)

    @given(
        st.lists(_text, max_size=6),
        st.lists(st.lists(_phrase, min_size=1, max_size=3), min_size=1, max_size=4),
        st.sampled_from([1, 2, _CHUNK_TEXTS + 1]),
        st.booleans(),
    )
    @example(["bitcoin", "bitcoin"], [["bitcoin bitcoin"]], 1, False)  # a run across two texts
    @example(["a a a"], [["a a"]], 1, False)  # overlapping runs of one token
    @example(["\u212aelvin \u0130O"], [["kelvin i o"], ["KELVIN", "io"]], 1, False)
    @example(["0 00 " + "0" * 30], [["0"], ["0 0"]], _CHUNK_TEXTS + 1, True)
    def test_many_sets_match_per_alias_reference(self, texts, alias_sets, copies, one_shot):
        corpus = texts * copies  # _CHUNK_TEXTS + 1 copies fill more than one chunk
        expected = [self._reference(corpus, aliases) for aliases in alias_sets]
        given_corpus = (text for text in corpus) if one_shot else corpus
        assert mention_counts(given_corpus, alias_sets) == expected


class TestCriticality:
    def _signals(self, values, weights=None, thresholds=None):
        """(values, config): the two arguments of ``criticality_score``."""
        weights = weights or {n: 1.0 for n in values}
        thresholds = thresholds or {n: 10.0 for n in values}
        return values, {n: (weights[n], thresholds[n]) for n in values}

    def test_zero_signals_score_zero(self):
        assert criticality_score(*self._signals({"a": 0.0, "b": 0.0})) == 0.0

    def test_saturated_signals_score_one(self):
        score = criticality_score(*self._signals({"a": 10.0, "b": 50.0}))
        assert score == pytest.approx(1.0)

    def test_closed_form_half(self):
        signals = self._signals({"a": 9.0}, thresholds={"a": 99.0})
        assert criticality_score(*signals) == pytest.approx(math.log(10) / math.log(100))

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_criticality_config("commit_frequency = -1, 10")

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0, max_value=1e6),
            min_size=1,
        )
    )
    def test_bounds_property(self, values):
        score = criticality_score(*self._signals(values))
        assert 0.0 <= score <= 1.0 + 1e-12

    def test_config_parser(self):
        config = parse_criticality_config("# c\ncommit_frequency = 1, 1000\n")
        assert config == {"commit_frequency": (1.0, 1000.0)}

    @pytest.mark.parametrize("line, reason", [
        ("commit_frequncy = 1, 1000", "'commit_frequncy' is not one of commit_frequency, "),
        ("commit_frequency = nan, 1000", "finite and positive"),
        ("recent_activity = 1, inf", "finite and positive"),
        ("recent_activity = 1, 0", "finite and positive"),
        ("recent_activity = 1 26", "expected name = weight, threshold"),
    ])
    def test_bad_config_line_named(self, line, reason):
        with pytest.raises(ValueError) as excinfo:
            parse_criticality_config(f"# weights\ncontributor_count = 2, 5000\n{line}\n")
        assert str(excinfo.value).startswith(f"criticality config line 3: {line!r}: ")
        assert reason in str(excinfo.value)


    def test_repeated_name_names_both_lines(self):
        with pytest.raises(ValueError) as excinfo:
            parse_criticality_config("recent_activity = 1, 26\ncommit_frequency = 1, 1000\nrecent_activity = 2, 26\n")
        assert str(excinfo.value) == "criticality config lines 1 and 3: 'recent_activity' given twice"


class TestTimezoneHistogram:
    def test_no_events(self):
        hist = timezone_histogram([], WINDOW)
        assert hist.total == 0
        assert not hist.bins.any()

    def test_all_utc(self):
        events = [make_event(event_type=EventType.PUSH, tz_offset=0) for _ in range(4)]
        hist = timezone_histogram(events, WINDOW)
        assert hist.bins[12] == 1.0
        assert hist.bins.sum() == pytest.approx(1.0)

    def test_two_buckets(self):
        events = [make_event(tz_offset=60), make_event(tz_offset=60)] + [
            make_event(tz_offset=-300),
            make_event(tz_offset=-300),
        ]
        hist = timezone_histogram(events, WINDOW)
        assert hist.bins[13] == 0.5  # UTC+1
        assert hist.bins[7] == 0.5  # UTC-5

    def test_offsetless_events_contribute_nothing(self):
        hist = timezone_histogram([make_event(tz_offset=None)], WINDOW)
        assert hist.total == 0


class TestMedianDistribution:
    def _hist(self, bin0):
        bins = np.zeros(24)
        bins[0] = bin0
        bins[1] = 1 - bin0
        return TimezoneHistogram(bins=bins, total=10)

    def test_single_histogram_is_itself(self):
        hist = self._hist(0.25)
        assert np.allclose(median_distribution([hist]).bins, hist.bins)

    def test_odd_count_median(self):
        hists = [self._hist(v) for v in (0.2, 0.4, 0.6)]
        med = median_distribution(hists)
        assert med.bins[0] == pytest.approx(0.4)  # already normalised here

    def test_even_count_is_mean(self):
        med = median_distribution([self._hist(0.2), self._hist(0.4)])
        assert med.bins[0] == pytest.approx(0.3)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            median_distribution([])

    def test_all_empty_is_zero_histogram(self):
        med = median_distribution([TimezoneHistogram(), TimezoneHistogram()])
        assert med.total == 0
        assert not med.bins.any()
        assert geo_rmse(TimezoneHistogram(), med) == 0.0


class TestGeoRmse:
    def test_identical_is_zero(self):
        hist = TimezoneHistogram(bins=np.full(24, 1 / 24), total=24)
        assert geo_rmse(hist, hist) == 0.0

    def test_one_bin_versus_uniform(self):
        point = np.zeros(24)
        point[0] = 1.0
        project = TimezoneHistogram(bins=point, total=5)
        uniform = TimezoneHistogram(bins=np.full(24, 1 / 24), total=24)
        expected = math.sqrt(((23 / 24) ** 2 + 23 * (1 / 24) ** 2) / 24)
        assert geo_rmse(project, uniform) == pytest.approx(expected)
        assert expected == pytest.approx(0.1999, abs=5e-4)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=24, max_size=24))
    def test_symmetry_property(self, raw):
        bins = np.asarray(raw)
        if bins.sum() > 0:
            bins = bins / bins.sum()
        a = TimezoneHistogram(bins=bins, total=1)
        b = TimezoneHistogram(bins=np.full(24, 1 / 24), total=1)
        assert geo_rmse(a, b) == pytest.approx(geo_rmse(b, a))
        assert geo_rmse(a, a) == 0.0


class TestLongevity:
    def test_no_events(self):
        assert longevity([]) == 0.0

    def test_single_actor_span(self):
        events = [
            make_event(event_type=EventType.PUSH, created_at=AS_OF - 10 * DAY),
            make_event(event_type=EventType.PUSH, created_at=AS_OF),
        ]
        assert longevity(events) == pytest.approx(10.0)

    def test_mean_over_actors(self):
        events = [
            make_event(actor="a", event_type=EventType.PUSH, created_at=AS_OF - 30 * DAY),
            make_event(actor="a", event_type=EventType.PUSH, created_at=AS_OF),
            make_event(actor="b", event_type=EventType.PUSH, created_at=AS_OF),
        ]
        assert longevity(events) == pytest.approx(15.0)

    def test_non_contribution_events_ignored(self):
        events = [make_event(event_type=EventType.WATCH, created_at=AS_OF - 50 * DAY)]
        assert longevity(events) == 0.0

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-5 * 10**10, 5 * 10**10), st.integers(0, 15 * 10**10)),
                    min_size=1, max_size=12))
    @example([(0, 0, 1), (1, 0, 0), (2, 0, 15 * 10**10)])
    def test_mean_is_the_exact_mean_rounded_once(self, spans):
        """Each actor's span in days, then their mean as ``statistics.mean``
        gives it: the exact sum over the count, rounded once."""
        events, first = [], {}
        for actor, start, length in spans:
            start = first.setdefault(actor, start)  # one span per actor: from its first event
            events += [make_event(actor=f"a{actor}", event_type=EventType.PUSH, created_at=at)
                       for at in (start, start + length)]
        by_actor = {}
        for event in events:
            low, high = by_actor.get(event.actor, (event.created_at, event.created_at))
            by_actor[event.actor] = min(low, event.created_at), max(high, event.created_at)
        expected = statistics.mean((high - low) / DAY for low, high in by_actor.values())
        assert longevity(events) == expected


class TestMonthsSinceUpdate:
    def test_same_day_is_zero(self):
        events = [make_event(event_type=EventType.PUSH, created_at=AS_OF)]
        assert months_since_update(events, AS_OF) == 0

    def test_65_days_is_two_months(self):
        events = [make_event(event_type=EventType.PUSH, created_at=AS_OF - 65 * DAY)]
        assert months_since_update(events, AS_OF) == 2

    def test_never_updated_is_none(self):
        events = [make_event(event_type=EventType.WATCH)]
        assert months_since_update(events, AS_OF) is None


class TestIssueResponseTimes:
    def _issue(self, number, action, created_at):
        return make_event(
            event_type=EventType.ISSUES, action=action, created_at=created_at, number=number
        )

    def test_no_issues(self):
        assert issue_response_times([]) == (0.0, 0.0)

    def test_hand_median_and_mean(self):
        t0 = AS_OF - 30 * DAY
        events = []
        for number, delta in ((1, 1), (2, 2), (3, 9)):
            events.append(self._issue(number, "opened", t0))
            events.append(self._issue(number, "closed", t0 + delta * DAY))
        assert issue_response_times(events) == (2.0, 4.0)

    def test_reopened_issue_counts_first_close_only(self):
        t0 = AS_OF - 30 * DAY
        events = [
            self._issue(1, "opened", t0),
            self._issue(1, "closed", t0 + DAY),
            self._issue(1, "reopened", t0 + 2 * DAY),
            self._issue(1, "closed", t0 + 9 * DAY),
        ]
        assert issue_response_times(events) == (1.0, 1.0)

    def test_close_without_open_ignored(self):
        assert issue_response_times([self._issue(5, "closed", AS_OF)]) == (0.0, 0.0)


class TestEngagementMetrics:
    def test_empty_window(self):
        assert engagement_metrics([], AS_OF) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_division(self):
        t = AS_OF - 10 * DAY
        events = (
            [
                make_event(actor="a", event_type=EventType.PUSH, created_at=t, counts=5),
                make_event(actor="b", event_type=EventType.PUSH, created_at=t, counts=4),
            ]
            + [
                make_event(actor="a", event_type=EventType.ISSUE_COMMENT, created_at=t)
                for _ in range(6)
            ]
            + [
                make_event(
                    actor="c",
                    event_type=EventType.PULL_REQUEST,
                    action="opened",
                    created_at=t,
                )
                for _ in range(3)
            ]
        )
        assert engagement_metrics(events, AS_OF) == (3.0, 2.0, 1.0, 1.0)

    def test_events_outside_window_excluded(self):
        old = [make_event(event_type=EventType.PUSH, created_at=AS_OF - 4 * MONTH_SECONDS, counts=9)]
        assert engagement_metrics(old, AS_OF) == (0.0, 0.0, 0.0, 0.0)

    def test_closed_pull_requests_not_counted_as_opened(self):
        events = [
            make_event(event_type=EventType.PULL_REQUEST, action="closed", created_at=AS_OF - DAY)
        ]
        assert engagement_metrics(events, AS_OF)[2] == 0.0


class TestBuildMetricsRow:
    def _reference(self):
        return TimezoneHistogram(bins=np.full(24, 1 / 24), total=24)

    def test_all_empty_inputs(self):
        row = build_metrics_row(
            "a/b", [], ExternalInputs(cmc_rank=5), self._reference(), AS_OF
        )
        assert row.stars == 0 and row.forks == 0
        assert row.months_since_update is None
        assert row.criticality == 0.0

    def test_composition_matches_parts(self):
        events = [
            make_event(event_type=EventType.WATCH),
            make_event(event_type=EventType.PUSH, counts=3, tz_offset=0),
        ]
        externals = ExternalInputs(cmc_rank=1, alexa_rank=100, mentions=7)
        row = build_metrics_row("a/b", events, externals, self._reference(), AS_OF)
        assert row.stars == count_stars(events)
        assert row.mentions == 7
        assert row.commits_3mo == engagement_metrics(events, AS_OF)[0]
        assert row.geo_rmse == pytest.approx(
            geo_rmse(timezone_histogram(events, WINDOW), self._reference())
        )

    def test_idempotent(self):
        events = [make_event(event_type=EventType.PUSH, counts=1)]
        externals = ExternalInputs(cmc_rank=1)
        first = build_metrics_row("a/b", events, externals, self._reference(), AS_OF)
        second = build_metrics_row("a/b", events, externals, self._reference(), AS_OF)
        assert first == second

    @staticmethod
    def _row_from_parts(repo_id, events, externals, reference, as_of):
        """The row each operation gives on the whole event list."""
        tz = timezone_histogram(events, (as_of - 6 * MONTH_SECONDS, as_of))
        median_days, average_days = issue_response_times(events)
        commits, comments, pull_requests, authors = engagement_metrics(events, as_of)
        return ProjectMetrics(
            repo_id=repo_id,
            stars=count_stars(events),
            forks=count_forks(events),
            mentions=externals.mentions if externals.mentions is not None else 0,
            criticality=criticality_score(criticality_signals(events, as_of), DEFAULT_CRITICALITY_CONFIG),
            geo_rmse=geo_rmse(tz, reference),
            longevity_days=longevity(events),
            months_since_update=months_since_update(events, as_of),
            median_response_days=median_days,
            average_response_days=average_days,
            cmc_rank=externals.cmc_rank,
            alexa_rank=externals.alexa_rank,
            commits_3mo=commits,
            comments_3mo=comments,
            pull_requests_3mo=pull_requests,
            authors_3mo=authors,
            as_of=as_of,
        )

    # the window edges of every operation, each side, and ties among them
    _TIMES = st.one_of(
        st.sampled_from(
            [
                AS_OF - edge + side
                for edge in (1, 90 * DAY, 3 * MONTH_SECONDS, 6 * MONTH_SECONDS, 12 * MONTH_SECONDS)
                for side in (-1, 0, 1)
            ]
        ),
        st.integers(min_value=AS_OF - 13 * MONTH_SECONDS, max_value=AS_OF),
    )
    _EVENTS = st.lists(
        st.builds(
            make_event,
            event_type=st.sampled_from(list(EventType)),
            actor=st.sampled_from(["alice", "bob", "carol"]),
            created_at=_TIMES,
            tz_offset=st.sampled_from([None, -720, -30, 0, 330, 840]),
            action=st.sampled_from([None, "opened", "closed", "reopened"]),
            counts=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
            number=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        ),
        max_size=40,
    )

    @given(events=_EVENTS, mentions=st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
    @example(  # an issue opened and closed at one time counts 0 days only in stored order
        events=[
            make_event(event_type=EventType.ISSUES, action="opened", number=1, created_at=AS_OF - 3 * DAY),
            make_event(event_type=EventType.ISSUES, action="opened", number=2, created_at=AS_OF - DAY),
            make_event(event_type=EventType.ISSUES, action="closed", number=2, created_at=AS_OF - DAY),
            make_event(event_type=EventType.ISSUES, action="closed", number=1, created_at=AS_OF - DAY),
        ],
        mentions=None,
    )
    def test_split_row_equals_row_from_whole_list(self, events, mentions):
        externals = ExternalInputs(cmc_rank=3, alexa_rank=None, mentions=mentions)
        reference = TimezoneHistogram(bins=np.full(24, 1 / 24), total=24)
        row = build_metrics_row("a/b", events, externals, reference, AS_OF)
        assert row == self._row_from_parts("a/b", events, externals, reference, AS_OF)

    #: ``_EVENTS`` with six actors, then Issues events of three numbers at
    #: two shared times, shuffled together
    _WIDE_EVENTS = st.tuples(
        st.lists(
            st.builds(
                make_event,
                event_type=st.sampled_from(list(EventType)),
                actor=st.sampled_from(["alice", "bob", "carol", "dave", "erin", "frank"]),
                created_at=_TIMES,
                tz_offset=st.sampled_from([None, -720, -690, -30, 0, 30, 330, 345, 840]),
                action=st.sampled_from([None, "opened", "closed", "reopened"]),
                counts=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
                number=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
            ),
            max_size=40,
        ),
        st.lists(
            st.builds(
                make_event,
                event_type=st.just(EventType.ISSUES),
                actor=st.sampled_from(["alice", "bob"]),
                created_at=st.sampled_from([AS_OF - 5 * DAY, AS_OF - DAY]),
                action=st.sampled_from(["opened", "closed", "reopened"]),
                number=st.integers(min_value=1, max_value=3),
            ),
            max_size=12,
        ),
    ).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))

    @given(events=_WIDE_EVENTS, mentions=st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
    @example(
        events=[
            make_event(event_type=EventType.ISSUES, action="closed", number=1, created_at=AS_OF - DAY),
            make_event(event_type=EventType.ISSUES, action="opened", number=1, created_at=AS_OF - DAY),
            make_event(event_type=EventType.ISSUES, action="opened", number=2, created_at=AS_OF - 2 * DAY),
            make_event(event_type=EventType.ISSUES, action="closed", number=2, created_at=AS_OF - DAY),
            make_event(event_type=EventType.ISSUES, action="closed", number=2, created_at=AS_OF - DAY),
        ],
        mentions=None,
    )
    def test_columnar_row_equals_the_per_record_reference(self, events, mentions):
        externals = ExternalInputs(cmc_rank=3, alexa_rank=None, mentions=mentions)
        reference = TimezoneHistogram(bins=np.full(24, 1 / 24), total=24)
        row = build_metrics_row("a/b", from_records(events), externals, reference, AS_OF)
        expected = PerRecord.row("a/b", events, externals, reference, AS_OF)
        for field in fields(ProjectMetrics):
            value, wanted = getattr(row, field.name), getattr(expected, field.name)
            # equal floats of one type, so metrics.csv spells them alike
            assert (value, type(value)) == (wanted, type(wanted)), field.name
