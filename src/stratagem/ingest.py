"""Parsing and normalization of tabular entity-metric data and timeseries data.

Input is UTF-8 delimited text with a header row. Missing, unparseable or
non-finite (``1e999``) table cells become absent values (``None``), never
zeros; in a timeseries they raise ``BadCell``. A table is held once, as a
``Dataset`` of one column per metric: ``parse_table`` keeps a metric-rows
grid as it reads it and transposes an entity-rows grid.

``parse_table`` names a ragged row only when one count of the row lengths
fails, fills each grid row with one ``itemgetter``, and splits each metric
label's ``!lower``/``!higher`` annotation once, for both the label check
and ``_descriptor``, which ``infer_metric_semantics`` also calls.

``_parse_number`` is the one definition of a number cell.
``_number_column`` parses many cells in one bulk pass: one regex marks the
cells that are not plain decimals, ``float`` reads the rest, and every
marked cell goes through ``_parse_number``, the fallback and the oracle
the tests compare the bulk pass against. ``parse_table`` hands it a
list of the distinct cell strings of a table, each once, and keys their
values by cell, so repeated cells share one value; ``parse_timeseries``
hands it its close and volume columns.

A timeseries is two columns, ``dates`` and ``closes``, re-sorted ascending
by date so downstream rules see one canonical order. ``parse_timeseries``
parses each of the date, close and volume columns whole; volume is
validated but not stored. A bad row still raises its typed error with its
file line: any failed check hands the rows to a row-by-row parse.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
import re
from itertools import chain, compress, starmap

from .record import Record, setfield


class IngestError(Exception):
    pass


class EmptyInput(IngestError):
    pass


class RaggedRows(IngestError):
    """Data row ``row_index`` (1-based, blank rows and the header not
    counted) on file line ``line`` has the wrong number of cells."""

    def __init__(self, line: int, row_index: int, expected: int, got: int):
        self.line = line
        self.row_index = row_index
        super().__init__(
            f"line {line}: row {row_index} has {got} cells, expected {expected}"
        )


class NoNumericData(IngestError):
    pass


class BadCell(IngestError):
    def __init__(self, line: int, column: str, text: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: cannot parse {column} {text!r}")


class BadLabel(IngestError):
    """An entity or metric label that is empty, that repeats an earlier one
    once its ``!lower``/``!higher`` annotation is stripped, or whose name
    has more words than its kind's limit."""

    def __init__(self, line: int, label: str, problem: str):
        self.line = line
        self.label = label
        super().__init__(f"line {line}: {problem} {label!r}")


class UnparseableDate(IngestError):
    def __init__(self, line: int, text: str):
        self.line = line
        super().__init__(f"line {line}: cannot parse date {text!r}")


class NonPositivePrice(IngestError):
    def __init__(self, line: int, value: float):
        self.line = line
        super().__init__(f"line {line}: non-positive price {value}")


class DuplicateDate(IngestError):
    """File line ``line`` repeats the date of an earlier row."""

    def __init__(self, line: int, date: dt.date):
        self.line = line
        self.date = date
        super().__init__(f"line {line}: duplicate date {date.isoformat()}")


POLARITIES = ("higher-is-better", "lower-is-better", "neutral")

# Word limits of the names a table may give, which keep every rule
# statement within the 40 words an insight may hold. Each statement holds
# the subject's name; the peer rule's adds one metric name and 12 words of
# its own (17 + 11 + 12), and the sentiment contrast adds the channels of
# two sentiment metrics, each no longer than its metric's name, and 15
# words (17 + 4 + 4 + 15). A metric whose name holds "sentiment" is held to
# the sentiment limit; 17 words hold a long company's full legal name.
MAX_ENTITY_WORDS = 17
MAX_METRIC_WORDS = 11
MAX_SENTIMENT_WORDS = 4

# Keyword tables for metric-polarity inference, matched on lowercased
# substrings.
_LOWER_KEYWORDS = ("delay", "negative", "cost", "churn", "complaint", "defect")
_HIGHER_KEYWORDS = (
    "revenue",
    "positive",
    "awareness",
    "spend",
    "margin",
    "profit",
    "income",
    "growth",
    "stores",
    "countries",
    "categories",
)


# Each table as one alternation, searched once per name.
_LOWER_PATTERN = re.compile("|".join(map(re.escape, _LOWER_KEYWORDS)))
_HIGHER_PATTERN = re.compile("|".join(map(re.escape, _HIGHER_KEYWORDS)))


class MetricDescriptor(Record):
    __slots__ = ("name", "polarity")

    def __init__(self, name: str, polarity: str = "neutral"):
        if not name:
            raise ValueError("metric name must be non-empty")
        if polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {polarity!r}")
        setfield(self, "name", name)
        setfield(self, "polarity", polarity)


def _split_annotation(label: str) -> tuple[str, str | None]:
    """The stored metric name and the polarity forced by a trailing
    ``!lower``/``!higher`` annotation, if any."""
    name = label.strip()
    if "!" not in name:  # the common case, without a regex search
        return name, None
    m = re.search(r"\s*!(lower|higher)\s*$", name)
    if not m:
        return name, None
    forced = "lower-is-better" if m.group(1) == "lower" else "higher-is-better"
    return name[: m.start()].strip(), forced


def _descriptor(name: str, forced: str | None) -> MetricDescriptor:
    """The descriptor of a stored name: the ``forced`` polarity if any,
    else the first keyword table that matches, else neutral."""
    polarity = forced
    if polarity is None:
        low = name.lower()
        if _LOWER_PATTERN.search(low):
            polarity = "lower-is-better"
        elif _HIGHER_PATTERN.search(low):
            polarity = "higher-is-better"
        else:
            polarity = "neutral"
    return MetricDescriptor(name=name, polarity=polarity)


def infer_metric_semantics(name: str) -> MetricDescriptor:
    """Build a MetricDescriptor from a metric name.

    Honors sidecar annotations ``!lower`` / ``!higher`` appended to the
    name (they are stripped from the stored name). Falls back to neutral
    when no keyword matches.
    """
    return _descriptor(*_split_annotation(name))


class Dataset(Record):
    """Entity-by-metric values held as one column per metric, each in
    entity order; entities[0] is the analysis subject.

    ``value(entity, metric)`` and ``column(name)`` are O(1): each instance
    builds its entity-to-row and metric-to-column maps once, when it checks
    that the names are unique. The maps are not fields, so equality, hash
    and repr see only the three fields; a descriptor is read from
    ``metrics``. Unknown names raise ``KeyError``.
    """

    __slots__ = ("entities", "metrics", "columns", "_row_index", "_column_index")
    _fields = ("entities", "metrics", "columns")

    def __init__(
        self,
        entities: tuple[str, ...],
        metrics: tuple[MetricDescriptor, ...],
        columns: tuple[tuple[float | None, ...], ...],  # columns[metric][entity]
    ):
        if not entities:
            raise ValueError("dataset needs at least one entity")
        if any(not e for e in entities):
            raise ValueError("entity names must be non-empty")
        row_index = {e: i for i, e in enumerate(entities)}
        if len(row_index) != len(entities):
            raise ValueError("entity names must be unique")
        column_index = {m.name: j for j, m in enumerate(metrics)}
        if len(column_index) != len(metrics):
            raise ValueError("metric names must be unique")
        if len(columns) != len(metrics):
            raise ValueError("value matrix column count != metric count")
        for column in columns:
            if len(column) != len(entities):
                raise ValueError("value matrix row count != entity count")
        setfield(self, "entities", entities)
        setfield(self, "metrics", metrics)
        setfield(self, "columns", columns)
        setfield(self, "_row_index", row_index)
        setfield(self, "_column_index", column_index)

    @property
    def subject(self) -> str:
        return self.entities[0]

    def value(self, entity: str, metric_name: str) -> float | None:
        return self.columns[self._column_index[metric_name]][self._row_index[entity]]

    def column(self, name: str) -> tuple[float | None, ...]:
        return self.columns[self._column_index[name]]


class TimeSeries(Record):
    """Closing prices as two columns of one length: ``dates`` strictly
    ascending, so no date repeats, and every close positive."""

    __slots__ = ("dates", "closes")

    def __init__(self, dates: tuple[dt.date, ...], closes: tuple[float, ...]):
        if len(dates) != len(closes):
            raise ValueError("dates and closes differ in length")
        if not all(map(operator.lt, dates, dates[1:])):
            raise ValueError("dates must be strictly ascending")
        if not all(c > 0 for c in closes):
            raise ValueError("prices must be strictly positive")
        setfield(self, "dates", dates)
        setfield(self, "closes", closes)

    @property
    def observations(self) -> tuple[tuple[dt.date, float], ...]:
        """``(date, close)`` per row, read only by the benchmark tracer's
        cell count (``bench/tracing.py``). It goes when that hook reads
        ``dates`` instead; nothing in the package reads it."""
        return tuple(zip(self.dates, self.closes))


_NUM_RE = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")


def _parse_number(cell: str) -> float | None:
    s = cell.strip().replace(",", "").lstrip("$").rstrip("%").strip()
    if not s:
        return None
    if _NUM_RE.match(s):
        value = float(s)
        return value if math.isfinite(value) else None  # "1e999" overflows
    return None


# A line break and the line after it, unless that line is a plain cell: an
# optional ``$``, an optional ``-``, ASCII digits with commas, an optional
# fraction and an optional ``%``, which ``_parse_number`` reads as ``float``
# does once ``$``, ``,`` and ``%`` are dropped. Starting at a line break
# lets the engine skip from line to line, and no two adjacent quantifiers
# take the same character, so each line is matched in linear time.
_OTHER_LINE = re.compile(r"\n(?!\$?-?[0-9][0-9,]*(?:\.[0-9]+)?%?$)[^\n]*", re.M)


def _read_rows(text: str, dialect: str) -> list[tuple[int, list[str]]]:
    """The non-blank rows, each with its line number in ``text`` (blank
    lines counted; the last line of a row whose quoted cell spans lines).
    One leading byte order mark, U+FEFF, is not part of the first cell."""
    delim = {"tab": "\t", "comma": ","}.get(dialect)
    if delim is None:
        raise ValueError(f"unknown dialect {dialect!r}")
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")), delimiter=delim)
    try:
        return [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise IngestError(f"line {reader.line_num}: {exc}") from None


def parse_table(text: str, dialect: str = "tab") -> Dataset:
    """Parse a delimited entity-metric table into a Dataset.

    The first row is a header. Label orientation (metrics as rows vs
    entities as rows) is auto-detected: a header keyword wins, otherwise
    the longer axis is taken as the metric axis.
    """
    rows = _read_rows(text, dialect)
    if not rows:
        raise EmptyInput("no rows in input")
    header_line, header = rows[0][0], [c.strip() for c in rows[0][1]]
    width = len(header)
    body = [row for _, row in rows[1:]]
    if list(map(len, body)).count(width) != len(body):
        for i, (line, row) in enumerate(rows[1:], start=1):
            if len(row) != width:
                raise RaggedRows(line, i, width, len(row))
    if not body or width < 2:
        raise NoNumericData("table has no data cells")
    labels = [row[0].strip() for row in body]
    # Cells repeat (``NA``, ``12.5%``, small integers), so each distinct
    # string is parsed once and its repeats share one value.
    cells = list(set(chain.from_iterable(row[1:] for row in body)))
    number = dict(zip(cells, _number_column(cells)))
    if width == 2:  # itemgetter of one key gives the value, not a 1-tuple
        grid = [(number[row[1]],) for row in body]
    else:
        grid = [operator.itemgetter(*row[1:])(number) for row in body]

    corner = header[0].lower()
    if "metric" in corner:
        metrics_as_rows = True
    elif "entity" in corner or "company" in corner:
        metrics_as_rows = False
    else:
        metrics_as_rows = len(body) >= width - 1

    header_lines, body_lines = [header_line] * (width - 1), [line for line, _ in rows[1:]]
    if metrics_as_rows:
        entity_names, entity_lines = header[1:], header_lines
        metric_labels, metric_lines = labels, body_lines
        columns = tuple(grid)
    else:
        entity_names, entity_lines = labels, body_lines
        metric_labels, metric_lines = header[1:], header_lines
        columns = tuple(zip(*grid))  # grid[entity][metric] -> one tuple per metric
    _check_labels(entity_names, entity_names, entity_lines, "entity")
    # each label's annotation is split once, for the check and the descriptor
    split = list(map(_split_annotation, metric_labels))
    _check_labels(metric_labels, [name for name, _ in split], metric_lines, "metric")

    if not any(v is not None for v in number.values()):
        raise NoNumericData("no numeric cells in table body")
    metrics = tuple(starmap(_descriptor, split))
    return Dataset(entities=tuple(entity_names), metrics=metrics, columns=columns)


def _check_labels(labels, names, lines, kind: str) -> None:
    """Raise ``BadLabel`` for the first label whose stored name is empty,
    repeats an earlier one or has more words than its kind's limit."""
    seen: set[str] = set()
    for label, name, line in zip(labels, names, lines):
        if not name:
            raise BadLabel(line, label, f"empty {kind} name")
        if name in seen:
            raise BadLabel(line, label, f"repeated {kind} name")
        seen.add(name)
        if kind == "entity":
            noun, limit = kind, MAX_ENTITY_WORDS
        elif "sentiment" in name.lower():
            noun, limit = "sentiment metric", MAX_SENTIMENT_WORDS
        else:
            noun, limit = kind, MAX_METRIC_WORDS
        if len(name.split()) > limit:
            raise BadLabel(line, label, f"{noun} name over {limit} words")


# strptime's own patterns for %Y, %m and %d, in "%Y-%m-%d" and "%m/%d/%Y"
# order, so a cell parses exactly when strptime accepts one of the formats.
_Y, _M, _D = r"(\d\d\d\d)", r"(1[0-2]|0[1-9]|[1-9])", r"(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
_DATE = re.compile(f"{_Y}-{_M}-{_D}|{_M}/{_D}/{_Y}")


def _date(cell: str) -> dt.date | None:
    match = _DATE.fullmatch(cell.strip())
    if match:
        y, m, d = match.group(1, 2, 3) if match.group(1) else match.group(6, 4, 5)
        try:
            return dt.date(int(y), int(m), int(d))
        except ValueError:
            pass
    return None


def _parse_date(cell: str, line: int) -> dt.date:
    date = _date(cell)
    if date is None:
        raise UnparseableDate(line, cell)
    return date


# Whole-column date shapes, ASCII digits only (``\d`` also takes other
# scripts' digits): zero-padded ``YYYY-MM-DD`` or ``MM/DD/YYYY``, one per line.
_ISO_DATES = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:\n[0-9]{4}-[0-9]{2}-[0-9]{2})*")
_US_DATES = re.compile(r"[0-9]{2}/[0-9]{2}/[0-9]{4}(?:\n[0-9]{2}/[0-9]{2}/[0-9]{4})*")


def _date_column(cells: list[str]) -> list[dt.date] | None:
    """``_parse_date`` of every cell, or None if any cell is no date. A
    column of one whole-column shape is read by ``date.fromisoformat``,
    which takes exactly the dates ``_parse_date`` does in that shape;
    anything else is parsed cell by cell. A quoted cell can hold a line
    break, so the line count must be the cell count."""
    joined, iso = "\n".join(cells), None
    if joined.count("\n") + 1 == len(cells):
        if _ISO_DATES.fullmatch(joined):
            iso = cells
        elif _US_DATES.fullmatch(joined):
            iso = [f"{c[6:]}-{c[:2]}-{c[3:5]}" for c in cells]
    if iso is not None:
        try:
            return list(map(dt.date.fromisoformat, iso))
        except ValueError:  # a month or day out of range
            pass
    dates = list(map(_date, cells))
    return None if None in dates else dates


def _number_column(cells: list[str]) -> list[float | None]:
    """``_parse_number`` of every cell, in one bulk pass. One ``sub`` over
    the cells, each after a line break, turns every line that is not a
    plain cell into ``inf``; with ``$``, ``,`` and ``%`` dropped, ``float``
    reads every line. An infinite value, from such a line or from a plain
    cell past the float range, is replaced by ``_parse_number`` of its
    cell. A quoted cell can hold a line break, so unless the line count is
    the cell count every cell goes through ``_parse_number``."""
    text = _OTHER_LINE.sub("\ninf", "\n" + "\n".join(cells))
    if text.count("\n") != len(cells):
        return list(map(_parse_number, cells))
    text = text[1:].replace(",", "").replace("$", "").replace("%", "")
    values = list(map(float, text.split("\n")))
    if not math.isfinite(sum(values)):  # an inf in values, or a sum past the range
        for i in compress(range(len(values)), map(math.isinf, values)):
            values[i] = _parse_number(cells[i])
    return values


def parse_timeseries(text: str, dialect: str = "tab") -> TimeSeries:
    """Parse date/close/volume rows; output is always date-ascending.

    The first three cells of the rows are read as three columns, each
    parsed whole, and every property is checked once; volume is checked
    but not kept. If any check fails, ``_parse_rows`` parses the rows one
    by one and raises the first bad row's typed error, naming its line.
    """
    rows = _read_rows(text, dialect)
    if not rows:
        raise EmptyInput("no rows in input")
    body = rows[0 if _date(rows[0][1][0]) is not None else 1:]
    return _parse_columns([row for _, row in body]) or _parse_rows(body)


def _parse_columns(rows: list[list[str]]) -> TimeSeries | None:
    """The series ``_parse_rows`` returns, or None where it would raise;
    ``TimeSeries`` rejects a repeated date and a price not above 0."""
    if not rows or min(map(len, rows)) < 3:
        return None
    dates = _date_column([row[0] for row in rows])
    closes = _number_column([row[1] for row in rows])
    if dates is None or None in closes or None in _number_column([row[2] for row in rows]):
        return None
    order = sorted(range(len(dates)), key=dates.__getitem__)
    try:
        return TimeSeries(dates=tuple(map(dates.__getitem__, order)),
                          closes=tuple(map(closes.__getitem__, order)))
    except ValueError:
        return None


def _parse_rows(rows: list[tuple[int, list[str]]]) -> TimeSeries:
    """Parse row by row; the first bad row raises, its checks in the order
    ragged, date, duplicate, close, volume, non-positive."""
    by_date: dict[dt.date, float] = {}
    for i, (line, row) in enumerate(rows, start=1):
        cells = [c.strip() for c in row]
        if len(cells) < 3:
            raise RaggedRows(line, i, 3, len(cells))
        date = _parse_date(cells[0], line)
        if date in by_date:
            raise DuplicateDate(line, date)
        close = _parse_cell(cells[1], line, "close")
        _parse_cell(cells[2], line, "volume")
        if close <= 0:
            raise NonPositivePrice(line, close)
        by_date[date] = close
    if not by_date:
        raise NoNumericData("no observations in input")
    dates = sorted(by_date)
    return TimeSeries(dates=tuple(dates), closes=tuple(map(by_date.__getitem__, dates)))


def _parse_cell(cell: str, line: int, column: str) -> float:
    value = _parse_number(cell)
    if value is None:
        raise BadCell(line, column, cell)
    return value


def _format_value(v: float | None) -> str:
    if v is None:
        return "NA"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical on-disk form: tab-delimited, metrics as rows, NA for absent.

    A metric label carries a ``!lower``/``!higher`` sidecar annotation
    when name inference would not give back its descriptor: when the
    polarity differs, or when the name itself ends in an annotation, which
    inference would strip. So parse(serialize(d)) == d, except for a
    neutral metric whose name ends in an annotation: only a hand-built
    descriptor has one, and no label expresses it.
    """
    lines = ["Metric\t" + "\t".join(dataset.entities)]
    for m, column in zip(dataset.metrics, dataset.columns):
        label = m.name
        # infer_metric_semantics(m.name) != m, without its error for a name
        # that is all annotation ("!lower", from "!lower !lower")
        name = _split_annotation(m.name)[0]
        if name != m.name or infer_metric_semantics(name).polarity != m.polarity:
            if m.polarity == "lower-is-better":
                label += " !lower"
            elif m.polarity == "higher-is-better":
                label += " !higher"
        cells = [_format_value(v) for v in column]
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
