"""Parsing and normalization of tabular entity-metric data and timeseries data.

Input is UTF-8 delimited text with a header row. Missing, unparseable or
non-finite (``1e999``) table cells become absent values (``None``), never
zeros; in a timeseries they raise ``BadCell``. Timeseries are always
re-sorted ascending by date so downstream rules see one canonical order.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property


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
    """An entity or metric label that is empty, or that repeats an earlier
    one once its ``!lower``/``!higher`` annotation is stripped."""

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
    def __init__(self, date: dt.date):
        self.date = date
        super().__init__(f"duplicate date {date.isoformat()}")


POLARITIES = ("higher-is-better", "lower-is-better", "neutral")

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


@dataclass(frozen=True)
class MetricDescriptor:
    name: str
    polarity: str = "neutral"

    def __post_init__(self):
        if not self.name:
            raise ValueError("metric name must be non-empty")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")


def _split_annotation(label: str) -> tuple[str, str | None]:
    """The stored metric name and the polarity forced by a trailing
    ``!lower``/``!higher`` annotation, if any."""
    name = label.strip()
    m = re.search(r"\s*!(lower|higher)\s*$", name)
    if not m:
        return name, None
    forced = "lower-is-better" if m.group(1) == "lower" else "higher-is-better"
    return name[: m.start()].strip(), forced


def infer_metric_semantics(name: str) -> MetricDescriptor:
    """Build a MetricDescriptor from a metric name.

    Honors sidecar annotations ``!lower`` / ``!higher`` appended to the
    name (they are stripped from the stored name). Falls back to neutral
    when no keyword matches.
    """
    name, forced = _split_annotation(name)
    if not name:
        raise ValueError("metric name must be non-empty")
    low = name.lower()
    polarity = "neutral"
    if any(kw in low for kw in _LOWER_KEYWORDS):
        polarity = "lower-is-better"
    elif any(kw in low for kw in _HIGHER_KEYWORDS):
        polarity = "higher-is-better"
    if forced:
        polarity = forced
    return MetricDescriptor(name=name, polarity=polarity)


@dataclass(frozen=True)
class Dataset:
    """Entity-by-metric value matrix; entities[0] is the analysis subject.

    ``value(entity, metric)`` and ``metric(name)`` are O(1): each instance
    builds its entity-to-row and metric-to-column maps once, when it checks
    that the names are unique. The maps are not fields, so equality, hash
    and repr see only the three fields. ``column(name)`` returns one
    metric's values in entity order. Unknown names raise ``KeyError``.
    """

    entities: tuple[str, ...]
    metrics: tuple[MetricDescriptor, ...]
    values: tuple[tuple[float | None, ...], ...]  # entity-major

    def __post_init__(self):
        if not self.entities:
            raise ValueError("dataset needs at least one entity")
        if any(not e for e in self.entities):
            raise ValueError("entity names must be non-empty")
        if len(self._row_index) != len(self.entities):
            raise ValueError("entity names must be unique")
        if len(self._column_index) != len(self.metrics):
            raise ValueError("metric names must be unique")
        if len(self.values) != len(self.entities):
            raise ValueError("value matrix row count != entity count")
        for row in self.values:
            if len(row) != len(self.metrics):
                raise ValueError("value matrix column count != metric count")

    @property
    def subject(self) -> str:
        return self.entities[0]

    @cached_property
    def _row_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.entities)}

    @cached_property
    def _column_index(self) -> dict[str, int]:
        return {m.name: j for j, m in enumerate(self.metrics)}

    def metric(self, name: str) -> MetricDescriptor:
        return self.metrics[self._column_index[name]]

    def value(self, entity: str, metric_name: str) -> float | None:
        return self.values[self._row_index[entity]][self._column_index[metric_name]]

    def column(self, name: str) -> tuple[float | None, ...]:
        j = self._column_index[name]
        return tuple(row[j] for row in self.values)


@dataclass(frozen=True)
class Observation:
    date: dt.date
    close: float
    volume: float


@dataclass(frozen=True)
class TimeSeries:
    observations: tuple[Observation, ...]

    def __post_init__(self):
        dates = [o.date for o in self.observations]
        if dates != sorted(dates):
            raise ValueError("observations must be date-ascending")
        if len(set(dates)) != len(dates):
            raise ValueError("duplicate observation dates")
        if any(o.close <= 0 for o in self.observations):
            raise ValueError("prices must be strictly positive")

    @property
    def closes(self) -> tuple[float, ...]:
        return tuple(o.close for o in self.observations)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(o.date for o in self.observations)


_NUM_RE = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")


def _parse_number(cell: str) -> float | None:
    s = cell.strip().replace(",", "").lstrip("$").rstrip("%").strip()
    if not s:
        return None
    if _NUM_RE.match(s):
        value = float(s)
        return value if math.isfinite(value) else None  # "1e999" overflows
    return None


def _read_rows(text: str, dialect: str) -> list[tuple[int, list[str]]]:
    """The non-blank rows, each with its line number in ``text`` (blank
    lines counted; the last line of a row whose quoted cell spans lines)."""
    delim = {"tab": "\t", "comma": ","}.get(dialect)
    if delim is None:
        raise ValueError(f"unknown dialect {dialect!r}")
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    return [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]


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
    for i, (line, row) in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise RaggedRows(line, i, width, len(row))
    body = [[c.strip() for c in row] for _, row in rows[1:]]
    if not body or width < 2:
        raise NoNumericData("table has no data cells")

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
        metric_labels, metric_lines = [row[0] for row in body], body_lines
        # cells[metric][entity] -> transpose to entity-major
        grid = [[_parse_number(c) for c in row[1:]] for row in body]
        values = tuple(zip(*grid))
    else:
        entity_names, entity_lines = [row[0] for row in body], body_lines
        metric_labels, metric_lines = header[1:], header_lines
        values = tuple(tuple(_parse_number(c) for c in row[1:]) for row in body)
    _check_labels(entity_names, entity_names, entity_lines, "entity")
    _check_labels(metric_labels, [_split_annotation(n)[0] for n in metric_labels],
                  metric_lines, "metric")

    if not any(v is not None for row in values for v in row):
        raise NoNumericData("no numeric cells in table body")
    metrics = tuple(infer_metric_semantics(n) for n in metric_labels)
    return Dataset(entities=tuple(entity_names), metrics=metrics, values=values)


def _check_labels(labels, names, lines, kind: str) -> None:
    """Raise ``BadLabel`` for the first label whose stored name is empty or
    repeats an earlier one."""
    seen: set[str] = set()
    for label, name, line in zip(labels, names, lines):
        if not name:
            raise BadLabel(line, label, f"empty {kind} name")
        if name in seen:
            raise BadLabel(line, label, f"repeated {kind} name")
        seen.add(name)


_DATE_FORMATS = ("%Y-%m-%d", "%m/%d/%Y")


def _parse_date(cell: str, line: int) -> dt.date:
    s = cell.strip()
    for fmt in _DATE_FORMATS:
        try:
            return dt.datetime.strptime(s, fmt).date()
        except ValueError:
            continue
    raise UnparseableDate(line, cell)


def parse_timeseries(text: str, dialect: str = "tab") -> TimeSeries:
    """Parse date/close/volume rows; output is always date-ascending."""
    rows = _read_rows(text, dialect)
    if not rows:
        raise EmptyInput("no rows in input")
    start = 0 if _looks_like_data_row(rows[0][1]) else 1
    obs = []
    for i, (line, row) in enumerate(rows[start:], start=1):
        cells = [c.strip() for c in row]
        if len(cells) < 3:
            raise RaggedRows(line, i, 3, len(cells))
        date = _parse_date(cells[0], line)
        close = _parse_cell(cells[1], line, "close")
        volume = _parse_cell(cells[2], line, "volume")
        if close <= 0:
            raise NonPositivePrice(line, close)
        obs.append(Observation(date=date, close=close, volume=volume))
    if not obs:
        raise NoNumericData("no observations in input")
    seen: set[dt.date] = set()
    for o in obs:
        if o.date in seen:
            raise DuplicateDate(o.date)
        seen.add(o.date)
    return TimeSeries(observations=tuple(sorted(obs, key=lambda o: o.date)))


def _parse_cell(cell: str, line: int, column: str) -> float:
    value = _parse_number(cell)
    if value is None:
        raise BadCell(line, column, cell)
    return value


def _looks_like_data_row(row: list[str]) -> bool:
    try:
        _parse_date(row[0], 0)
        return True
    except UnparseableDate:
        return False


def _format_value(v: float | None) -> str:
    if v is None:
        return "NA"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical on-disk form: tab-delimited, metrics as rows, NA for absent.

    Metric labels carry a ``!lower``/``!higher`` sidecar annotation when
    the stored polarity differs from what name inference would produce,
    so parse(serialize(d)) == d.
    """
    lines = ["Metric\t" + "\t".join(dataset.entities)]
    for m in dataset.metrics:
        label = m.name
        if infer_metric_semantics(m.name).polarity != m.polarity:
            if m.polarity == "lower-is-better":
                label += " !lower"
            elif m.polarity == "higher-is-better":
                label += " !higher"
        cells = [_format_value(v) for v in dataset.column(m.name)]
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
