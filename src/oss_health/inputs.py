"""Rules shared by every reader of a user-supplied input file.

In a line file (run config, overrides, criticality config, model) ``#``
starts a comment and blank lines are skipped; the keyed CSV tables
(project list, ranks file, ``metrics.csv``) are read by :func:`csv_table`,
and a table of numbers first by :func:`number_table`.
A key given twice is an error naming both lines, and every error is a
``ValueError`` naming the input and line, and for a CSV cell its column.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO


def _given_once(seen: dict, value: object, line: int, where: str, label: str = "") -> None:
    """Record ``value`` as given on ``line``; ValueError naming both lines if it was given before."""
    if value in seen:
        raise ValueError(f"{where} lines {seen[value]} and {line}: {label}{value!r} given twice")
    seen[value] = line


def content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, raw line, content) of each line of ``text`` that has
    content once its ``#`` comment and surrounding blanks are dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, raw, content


def key_value_lines(text: str, what: str) -> Iterator[tuple[int, str, str, str]]:
    """(line number, raw line, key, value) of each ``key = value`` content
    line; ``what`` names the input in errors."""
    seen: dict[str, int] = {}
    for lineno, raw, content in content_lines(text):
        if "=" not in content:
            raise ValueError(f"{what} line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in content.split("=", 1))
        _given_once(seen, key, lineno, what)
        yield lineno, raw, key, value


class Row(NamedTuple):
    """One CSV row: its cells, and the header's position of each column."""

    cells: list[str]
    index: dict[str, int]


def text_cell(path: str | Path, line: int, row: Row, column: str) -> str:
    """``row[column]`` as it is written; ValueError when the row is too short to have it."""
    position = row.index.get(column, len(row.cells))
    if position >= len(row.cells):
        raise ValueError(f"{path}, line {line}, column {column!r}: no cell")
    return row.cells[position]


def int_cell(path: str | Path, line: int, row: Row, column: str, optional: bool = False) -> int | None:
    """``row[column]`` as an integer, or None for an empty ``optional`` cell."""
    text = text_cell(path, line, row, column)
    if optional and not text:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}, line {line}, column {column!r}: {text!r} is not an integer") from None


def number_cell(path: str | Path, line: int, row: Row, column: str) -> float:
    """``row[column]`` as a finite number, or NaN when empty."""
    text = text_cell(path, line, row, column)
    if text == "":
        return math.nan
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"{path}, line {line}, column {column!r}: {text!r} is not a finite number")


def csv_table(
    handle: TextIO, path: str | Path, columns: Iterable[str], key: str, key_cell: Callable = text_cell
) -> tuple[list[str], Iterator[tuple[int, object, Row]]]:
    """The header and rows of the CSV file ``path``, open as ``handle``.

    A header without one of ``columns`` raises at once.  Rows are read as
    they are iterated, blank lines skipped, as (line number,
    ``key_cell(path, line, row, key)``, :class:`Row`); a key given twice
    raises.  A column named twice in the header is read from its last place.
    """
    reader = csv.reader(handle)
    header = next(reader, [])
    index = {column: position for position, column in enumerate(header)}
    for column in columns:
        if column not in index:
            raise ValueError(f"{path}, line 1: no {column!r} column")

    def rows() -> Iterator[tuple[int, object, Row]]:
        seen: dict[object, int] = {}
        for cells in reader:
            if cells:
                row = Row(cells, index)
                line, value = reader.line_num, key_cell(path, reader.line_num, row, key)
                _given_once(seen, value, line, f"{path},", f"{key} ")
                yield line, value, row

    return header, rows()


def number_table(
    text: str, key: str, columns: Sequence[str]
) -> tuple[list[str], list[str], list[float]] | None:
    """The keys of the CSV table ``text``, those of ``columns`` its header
    names (in ``columns``' order), and their numbers row after row (an
    empty cell is NaN); None when the header has no ``key`` column or a
    row breaks a rule of :func:`csv_table` or :func:`number_cell` (a cell
    missing, a key given twice, a present cell not a finite number).

    One pass, for tables that keep the rules: one sweep of the csv module,
    one ``float`` per cell, and each rule checked over the whole table.  A
    caller that gets None reads the table row by row with
    :func:`csv_table` and :func:`number_cell`, which raise the error of
    the first fault with its line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    index = {column: position for position, column in enumerate(next(reader, []))}
    if key not in index:
        return None
    present = [column for column in columns if column in index]
    positions = [index[column] for column in present]
    rows = [row for row in reader if row]
    try:
        keys = [row[index[key]] for row in rows]
        cells = [row[position] for row in rows for position in positions]
        values = [float(cell or "nan") for cell in cells]
    except (IndexError, ValueError):  # a short row, or a cell that is not a number
        return None
    # a sum is finite when every term is; else each non-finite value must be an empty cell's NaN
    finite = math.isfinite(sum(values)) or sum(map(math.isfinite, values)) + cells.count("") == len(values)
    return (keys, present, values) if finite and len(set(keys)) == len(keys) else None
