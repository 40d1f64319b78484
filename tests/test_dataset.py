"""Dataset preparation: exclusions, reverse scoring, imputation, split."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oss_health import dataset as dataset_module, inputs
from oss_health.dataset import (
    MetricMatrix,
    apply_exclusions,
    matrix_from_metrics,
    parse_matrix_csv,
    prepare,
    read_matrix_csv,
    reverse_score,
    split,
    write_audit_sidecar,
    REVERSE_SCORED_COLUMNS,
)
from oss_health.metrics import ProjectMetrics
from oss_health.projects import ProjectEntry, RepoResolution, ResolutionStatus


def resolution(status, name="P", rank=1, repo_id=None):
    entry = ProjectEntry(name=name, symbol=name, cmc_rank=rank, website="https://x.example")
    return RepoResolution(entry, status, repo_id=repo_id)


def simple_matrix(values, names=None, labels=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"c{j}" for j in range(values.shape[1])]
    labels = labels or [f"r{i}" for i in range(values.shape[0])]
    return MetricMatrix(labels, names, values)


def audit_lines(tmp_path, matrix):
    """The sidecar's lines after the exclusions line."""
    _, report = apply_exclusions([], {})
    path = tmp_path / "audit.jsonl"
    write_audit_sidecar(path, matrix, report)
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


class TestApplyExclusions:
    def test_paper_scale_accounting(self):
        resolutions = []
        rank = 1

        def add(status, count, with_repo=False):
            nonlocal rank
            for i in range(count):
                repo_id = f"org{rank}/repo" if with_repo else None
                resolutions.append(
                    resolution(status, name=f"P{rank}", rank=rank, repo_id=repo_id)
                )
                rank += 1

        add(ResolutionStatus.MISSING_404, 8)
        add(ResolutionStatus.PRIVATE_LISTED, 78)
        add(ResolutionStatus.NOT_LISTED, 83 + 9)  # 9 extra unlisted-type exclusions
        add(ResolutionStatus.FOREIGN_HOST, 6)
        add(ResolutionStatus.DUPLICATE, 6, with_repo=True)
        add(ResolutionStatus.RESOLVED, 26 + 384, with_repo=True)
        histories = {}
        resolved = [r for r in resolutions if r.status is ResolutionStatus.RESOLVED]
        for i, res in enumerate(resolved):
            histories[res.repo_id] = i >= 26  # first 26 resolved repos are dead
        retained, report = apply_exclusions(resolutions, histories)
        assert len(resolutions) == 600
        assert report.missing_404 == 8
        assert report.private_listed == 78
        assert report.not_listed == 92
        assert report.foreign_host == 6
        assert report.duplicates == 6
        assert report.dead_no_history == 26
        assert report.retained == 384
        assert len(retained) == 384
        assert sum(report.as_dict().values()) == 600

    def test_all_resolved_with_history(self):
        resolutions = [
            resolution(ResolutionStatus.RESOLVED, name=f"P{i}", rank=i, repo_id=f"o/r{i}")
            for i in range(1, 4)
        ]
        retained, report = apply_exclusions(resolutions, {f"o/r{i}": True for i in range(1, 4)})
        assert retained == ["o/r1", "o/r2", "o/r3"]
        assert report.retained == 3 and sum(report.as_dict().values()) == 3


class TestReverseScore:
    def test_symmetric_case(self):
        assert reverse_score(np.array([1.0, 2.0, 3.0])).tolist() == [3.0, 2.0, 1.0]

    def test_two_point_case(self):
        assert reverse_score(np.array([0.0, 10.0])).tolist() == [10.0, 0.0]

    def test_constant_unchanged(self):
        assert reverse_score(np.array([5.0, 5.0])).tolist() == [5.0, 5.0]

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_involution_property(self, raw):
        x = np.asarray(raw)
        assert np.allclose(reverse_score(reverse_score(x)), x, atol=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_correlation_flips_sign(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        # reverse_score leaves a zero-range column unchanged, so its sign cannot flip
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        before = np.corrcoef(x, y)[0, 1]
        if not np.isfinite(before):  # e.g. x = [0, 0, 9.9e-191] underflows to NaN
            return
        after = np.corrcoef(reverse_score(x), y)[0, 1]
        assert after == pytest.approx(-before, abs=1e-9)


class TestImputeMean:
    def test_fills_with_mean_and_records(self, tmp_path):
        matrix = simple_matrix([[1.0], [np.nan], [3.0]])
        out = prepare(matrix)
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert np.isnan(matrix.values[1, 0])  # input untouched
        assert audit_lines(tmp_path, matrix) == [{"kind": "imputed", "column": "c0", "row": "r1"}]

    def test_no_absent_cells_noop(self, tmp_path):
        matrix = simple_matrix([[1.0], [2.0]])
        out = prepare(matrix)
        assert np.array_equal(out.values, matrix.values)
        assert audit_lines(tmp_path, matrix) == []

    def test_all_absent_rejected(self):
        with pytest.raises(ValueError, match="'c1' has no present values"):
            prepare(simple_matrix([[1.0, np.nan], [2.0, np.nan]]))

    def test_mean_preserved(self):
        matrix = simple_matrix([[2.0], [np.nan], [4.0], [np.nan]])
        out = prepare(matrix)
        assert out.values[:, 0].mean() == pytest.approx(3.0)


class TestPrepare:
    def test_impute_then_reverse(self, tmp_path):
        matrix = simple_matrix(
            [[1.0, 1.0], [np.nan, 2.0], [3.0, np.nan]], names=["plain", "cmc_rank"]
        )
        out = prepare(matrix)
        assert not np.isnan(out.values).any()
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        # imputed to the mean 1.5 first, then reverse-scored over [1, 2]
        assert out.values[:, 1].tolist() == [2.0, 1.0, 1.5]
        assert audit_lines(tmp_path, matrix) == [
            {"kind": "imputed", "column": "plain", "row": "r1"},
            {"kind": "imputed", "column": "cmc_rank", "row": "r2"},
        ]

    def test_flags_from_metrics_rows(self):
        row = ProjectMetrics(
            repo_id="a/b",
            stars=1,
            forks=2,
            mentions=3,
            criticality=0.5,
            geo_rmse=0.2,
            longevity_days=10.0,
            months_since_update=1,
            median_response_days=2.0,
            average_response_days=3.0,
            cmc_rank=4,
            alexa_rank=None,
            commits_3mo=1.0,
            comments_3mo=1.0,
            pull_requests_3mo=1.0,
            authors_3mo=1.0,
            as_of=0,
        )
        matrix = matrix_from_metrics([row])
        assert np.isnan(matrix.values[0, matrix.column_index("alexa_rank")])
        # the second row is higher in every column; prepare flips the reverse-scored ones
        names = matrix.column_names
        out = prepare(simple_matrix([[0.0] * len(names), [1.0] * len(names)], names=names))
        flipped = {name for name, (first, second) in zip(names, out.values.T) if first > second}
        assert flipped == REVERSE_SCORED_COLUMNS & set(names)
        assert "alexa_rank" in flipped


class TestSplit:
    def test_sizes_384_051(self):
        matrix = simple_matrix(np.arange(384.0).reshape(384, 1))
        train, test = split(matrix, 0.51, seed=0)
        assert (len(train.row_labels), len(test.row_labels)) == (196, 188)

    def test_same_seed_identical(self):
        matrix = simple_matrix(np.arange(40.0).reshape(20, 2))
        a_train, a_test = split(matrix, 0.51, seed=3)
        b_train, b_test = split(matrix, 0.51, seed=3)
        assert a_train.row_labels == b_train.row_labels
        assert np.array_equal(a_test.values, b_test.values)

    def test_two_rows_half(self):
        train, test = split(simple_matrix([[1.0], [2.0]]), 0.5, seed=0)
        assert len(train.row_labels) == len(test.row_labels) == 1

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            split(simple_matrix([[1.0], [2.0]]), 0.01, seed=0)

    @given(st.integers(min_value=0, max_value=1000))
    def test_partition_property(self, seed):
        matrix = simple_matrix(np.arange(17.0).reshape(17, 1))
        train, test = split(matrix, 0.51, seed=seed)
        assert sorted(train.row_labels + test.row_labels) == sorted(matrix.row_labels)
        assert not set(train.row_labels) & set(test.row_labels)


#: Analysis columns for generated tables; the key and an ignored column join them.
_CSV_ANALYSIS = ["stars", "forks", "mentions", "cmc_rank", "commits_3mo"]
#: Mostly numbers or empty (absent); one cell in twenty is not a number,
#: not finite, or text that needs quoting, with an embedded newline among them.
_NUMBER_CELLS = st.sampled_from(range(20)).flatmap(
    lambda k: st.sampled_from(["x", "inf", "-inf", "nan", "1e308", " 2 ", "a\nb", "c\r\nd", 'say "hi"', "1,5"])
    if k == 0
    else st.just("") if k == 1
    else st.floats(allow_nan=False, allow_infinity=False).map(repr) if k % 2
    else st.integers(-(10**6), 10**6).map(str)
)
_KEY_CELLS = st.sampled_from([f"r{i}" for i in range(30)] + ["r\n30", ""])


@st.composite
def _csv_header(draw):
    """Usually the key, three to five analysis columns, maybe one of them
    named twice and a column the analysis ignores; sometimes without the
    key or with too few analysis columns."""
    columns = draw(st.lists(st.sampled_from(_CSV_ANALYSIS), min_size=2, max_size=5, unique=True))
    if len(columns) == 2 and draw(st.sampled_from([True] * 4 + [False])):
        columns.append(draw(st.sampled_from([c for c in _CSV_ANALYSIS if c not in columns])))
    if draw(st.sampled_from([True] * 9 + [False])):
        columns.append("repo_id")
    if draw(st.booleans()):
        columns.append("notes")
    if draw(st.sampled_from([False] * 4 + [True])):
        columns.append(columns[0])
    return draw(st.permutations(columns))


def _csv_cell(cell):
    return f'"{cell.replace(chr(34), chr(34) * 2)}"' if any(c in cell for c in ',"\r\n') else cell


class TestPersistence:
    def test_csv_round_trip_with_absent_cells(self, tmp_path):
        names = ["geo_rmse", "longevity_days", "months_since_update"]
        matrix = simple_matrix([[1.5, np.nan, 7.0], [2.25, 4.0, 8.0]], names=names)
        path = tmp_path / "m.csv"
        path.write_text(
            "repo_id,geo_rmse,longevity_days,months_since_update\nr0,1.5,,7\nr1,2.25,4.0,8\n",
            encoding="utf-8",
        )
        back = read_matrix_csv(path)
        assert back.row_labels == matrix.row_labels
        assert back.column_names == names
        assert np.isnan(back.values[0, 1])
        assert np.array_equal(back.values[1], matrix.values[1])
        # a known reverse-scored name read back from the file is flipped
        assert prepare(back).values[:, 0].tolist() == [2.25, 1.5]

    @pytest.mark.parametrize("row, column, message", [
        ("r2,1", "forks", "no cell"),
        ("r2,1,x,3", "forks", "'x' is not a finite number"),
        ("r2,1,2,nan", "mentions", "'nan' is not a finite number"),
        ("r2,inf,2,3", "stars", "'inf' is not a finite number"),
    ])
    def test_bad_row_names_file_line_and_column(self, tmp_path, row, column, message):
        path = tmp_path / "m.csv"
        path.write_text(f"repo_id,stars,forks,mentions\nr0,1,2,3\nr1,4,,6\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_matrix_csv(path)
        assert str(excinfo.value) == f"{path}, line 4, column {column!r}: {message}"

    def test_rows_read_as_the_csv_module_splits_them(self, tmp_path):
        # cells whose sum overflows are still finite, a blank line is skipped
        # but counted, and the cells past the header are ignored
        path = tmp_path / "m.csv"
        path.write_text("repo_id,stars,forks,mentions\nr0,1e308,1e308,1\n\nr1,1,2,3,extra\nr1,4,5,6\n")
        with pytest.raises(ValueError) as excinfo:
            read_matrix_csv(path)
        assert str(excinfo.value) == f"{path}, lines 4 and 5: repo_id 'r1' given twice"
        path.write_text("repo_id,stars,forks,mentions\nr0,1e308,1e308,1\n\nr1,1,2,3,extra\n")
        assert read_matrix_csv(path).values.tolist() == [[1e308, 1e308, 1.0], [1.0, 2.0, 3.0]]

    @pytest.mark.parametrize("header, message", [
        ("project,stars,forks,mentions", "no 'repo_id' column"),
        ("repo_id,stars,x,forks", "needs at least 3 analysis columns, found 2"),
    ])
    def test_bad_header_named(self, tmp_path, header, message):
        path = tmp_path / "m.csv"
        path.write_text(f"{header}\nr0,1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_matrix_csv(path)
        assert str(excinfo.value) == f"{path}, line 1: {message}"

    def test_valid_table_is_read_in_one_pass(self, monkeypatch):
        def checked(text, path):
            raise AssertionError("read again row by row")

        monkeypatch.setattr(dataset_module, "_checked_table", checked)
        data = b"repo_id,stars,forks,notes,mentions\r\nr0,1,,\"a\nb\",3\r\n\r\nr1,4,5,,6\r\n"
        matrix = parse_matrix_csv(data, "m.csv")
        assert matrix.row_labels == ["r0", "r1"] and matrix.column_names == ["stars", "forks", "mentions"]
        assert matrix.values.tobytes() == np.array([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_pass_read_equals_the_checked_read(self, data):
        header = data.draw(_csv_header())
        rows = [header]
        for _ in range(data.draw(st.integers(0, 8))):
            if data.draw(st.sampled_from(range(6))) == 0:
                rows.append([])  # a blank line
                continue
            row = [data.draw(_KEY_CELLS if column == "repo_id" else _NUMBER_CELLS) for column in header]
            if data.draw(st.sampled_from(range(10))) == 0:  # a short row, or one with cells past the header
                row = row[: data.draw(st.integers(0, len(row)))] + data.draw(st.lists(_NUMBER_CELLS, max_size=1))
            rows.append(row)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join(",".join(map(_csv_cell, row)) for row in rows) + data.draw(st.sampled_from(["", newline]))

        def read():
            try:
                matrix = parse_matrix_csv(text.encode("utf-8"), "m.csv")
            except ValueError as exc:
                return str(exc)
            return matrix.row_labels, matrix.column_names, matrix.values.shape, matrix.values.tobytes()

        one_pass = read()
        with mock.patch.object(inputs, "number_table", lambda *_: None):  # row by row only
            assert read() == one_pass

    def test_audit_sidecar(self, tmp_path):
        matrix = simple_matrix(
            [
                [1.0, np.nan, np.nan, 4.0],
                [np.nan, 2.0, np.nan, np.nan],
                [3.0, np.nan, np.nan, 5.0],
            ],
            names=["a", "b", "empty", "d"],
        )
        _, report = apply_exclusions([], {})
        path = tmp_path / "audit.jsonl"
        write_audit_sidecar(path, matrix, report)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"kind": "exclusions", **report.as_dict()}
        # column then row order; the all-absent column has nothing to impute from
        assert [(line["column"], line["row"]) for line in lines[1:]] == [
            ("a", "r1"),
            ("b", "r0"),
            ("b", "r2"),
            ("d", "r1"),
        ]
        assert {line["kind"] for line in lines[1:]} == {"imputed"}
