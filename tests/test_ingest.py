"""Parsing, normalization, and serialization round-trips."""

from __future__ import annotations

import csv
import datetime as dt
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from stratagem import ingest
from stratagem.ingest import (
    MAX_ENTITY_WORDS,
    MAX_METRIC_WORDS,
    MAX_SENTIMENT_WORDS,
    BadCell,
    BadLabel,
    Dataset,
    DuplicateDate,
    EmptyInput,
    MetricDescriptor,
    NoNumericData,
    NonPositivePrice,
    RaggedRows,
    TimeSeries,
    UnparseableDate,
    infer_metric_semantics,
    parse_table,
    parse_timeseries,
    serialize_dataset,
)
from stratagem.insights import run_all_rules


# ---------------------------------------------------------------------------
# parse_table

class TestParseTable:
    def test_foobar_fixture_values(self, foobar_dataset):
        d = foobar_dataset
        assert d.subject == "Foobar Corp"
        assert d.entities == ("Foobar Corp", "Acme LLP", "Roy G Biv")
        assert len(d.metrics) == 14
        assert d.value("Foobar Corp", "Number of countries doing business") == 13
        assert d.value("Foobar Corp", "Number of stores") == 1300
        assert d.value("Roy G Biv", "Online revenue ($m)") == 220
        assert d.value("Foobar Corp", "In-bound shipment delays") == 2.1

    def test_entities_as_rows_orientation(self):
        text = (
            "Company\tRevenue ($m)\tNet margin (%)\n"
            "Foobar Corp\t1000\t12.5\n"
            "Acme LLP\t920\t11.0\n"
        )
        d = parse_table(text)
        assert d.entities == ("Foobar Corp", "Acme LLP")
        assert [m.name for m in d.metrics] == ["Revenue ($m)", "Net margin (%)"]
        assert d.value("Acme LLP", "Revenue ($m)") == 920

    def test_orientation_falls_back_to_longer_axis(self):
        # no keyword in the corner; 3 body rows vs 2 value columns -> rows
        # are the longer axis, so rows are metrics
        text = "X\tA\tB\nm1\t1\t2\nm2\t3\t4\nm3\t5\t6\n"
        d = parse_table(text)
        assert d.entities == ("A", "B")
        assert [m.name for m in d.metrics] == ["m1", "m2", "m3"]

    def test_comma_dialect(self):
        d = parse_table("Metric,A,B\nRevenue ($m),10,20\n", dialect="comma")
        assert d.value("B", "Revenue ($m)") == 20

    def test_missing_cells_are_absent_not_zero(self):
        d = parse_table("Metric\tA\tB\nRevenue ($m)\t10\t\nStores\tn/a\t5\n")
        assert d.value("B", "Revenue ($m)") is None
        assert d.value("A", "Stores") is None
        assert d.value("B", "Stores") == 5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_table("")
        with pytest.raises(EmptyInput):
            parse_table("\n\n")

    def test_ragged_rows_reports_row_index(self):
        with pytest.raises(RaggedRows) as exc:
            parse_table("Metric\tA\tB\nRevenue\t1\t2\nStores\t3\n")
        assert exc.value.row_index == 2

    @given(
        width=st.integers(2, 5),
        dialect=st.sampled_from(["tab", "comma"]),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_ragged_rows_name_the_first_bad_row(self, width, dialect, data):
        """Blank lines before any row, and several rows too short or too
        long: ``RaggedRows`` names the first bad row's file line and its
        1-based index among the non-blank data rows."""
        delim = "\t" if dialect == "tab" else ","
        blank = st.lists(st.sampled_from(["", "  ", delim * 2, f" {delim} "]), max_size=2)
        lengths = data.draw(st.lists(st.one_of(
            st.just(width), st.integers(1, width - 1), st.integers(width + 1, width + 3),
        ), min_size=1, max_size=8))
        lines = [*data.draw(blank), delim.join(["Metric"] + [f"C{j}" for j in range(width - 1)])]
        bad = None
        for i, n in enumerate(lengths, start=1):
            lines += data.draw(blank)
            lines.append(delim.join([f"R{i}"] + ["1"] * (n - 1)))
            if n != width and bad is None:
                bad = (len(lines), i, n)
        text = "\n".join(lines) + "\n"
        if bad is None:
            assert len(parse_table(text, dialect).columns) == len(lengths)
            return
        line, row_index, got = bad
        with pytest.raises(RaggedRows) as exc:
            parse_table(text, dialect)
        assert (exc.value.line, exc.value.row_index) == (line, row_index)
        assert str(exc.value) == f"line {line}: row {row_index} has {got} cells, expected {width}"

    def test_no_numeric_data(self):
        with pytest.raises(NoNumericData):
            parse_table("Metric\tA\nRevenue\tabc\n")
        with pytest.raises(NoNumericData):
            parse_table("Metric\tA\n")

    @pytest.mark.parametrize("other,values", [("5", (None, 5.0)), ("NA", None)],
                             ids=["plain", "absent"])
    def test_line_break_in_a_cell(self, other, values):
        """The halves of a quoted "1\\n2" are no cells of the table: it is
        absent, and a table with no other number has no numeric data."""
        text = f'Metric\tA\tB\nRevenue\t"1\n2"\t{other}\n'
        if values is None:
            with pytest.raises(NoNumericData):
                parse_table(text)
        else:
            assert parse_table(text).column("Revenue") == values

    def test_long_comma_run_is_parsed_in_linear_time(self):
        # a plain-cell pattern with two adjacent quantifiers over commas
        # backtracks quadratically here: minutes, where this takes milliseconds
        commas = "," * 130_000
        d = parse_table(f"Metric\tA\tB\tC\nRevenue\t5{commas}x\t{commas}5\t5{commas}\n")
        assert d.column("Revenue") == (None, 5.0, 5.0)

    def test_currency_and_percent_glyphs(self):
        d = parse_table("Metric\tA\nRevenue ($m)\t$1,234\nMargin (%)\t12.5%\n")
        assert d.value("A", "Revenue ($m)") == 1234
        assert d.value("A", "Margin (%)") == 12.5

    @given(
        pool=st.lists(
            st.one_of(
                st.sampled_from(["$$1", "1,2,3", "-$5", " 12 % ", "1e999", "NA", "",
                                 "$1,234", "12.5%", "\u0661\u0662", "\u00a07\u3000"]),
                st.text(alphabet="0123456789.,-+eE$% \t\"\u0663\u00a0\u2003NAx", max_size=8),
            ),
            min_size=1, max_size=6,
        ),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        metrics_as_rows=st.booleans(),
        dialect=st.sampled_from(["tab", "comma"]),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_cells_parse_as_one_by_one(self, pool, shape, metrics_as_rows, dialect, data):
        """Parsing each distinct cell once gives the grid, and the columns,
        that parsing every cell gives, in both orientations and both
        dialects."""
        rows, cols = shape
        cells = [[data.draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="\t" if dialect == "tab" else ",")
        writer.writerow(["Metric" if metrics_as_rows else "Company"]
                        + [f"C{j}" for j in range(cols)])
        writer.writerows([f"R{i}"] + row for i, row in enumerate(cells))
        grid = [tuple(ingest._parse_number(c) for c in row) for row in cells]
        expected = tuple(grid) if metrics_as_rows else tuple(zip(*grid))
        if all(v is None for row in grid for v in row):
            with pytest.raises(NoNumericData):
                parse_table(buf.getvalue(), dialect)
        else:
            d = parse_table(buf.getvalue(), dialect)
            assert d.columns == expected
            assert tuple(d.column(m.name) for m in d.metrics) == expected

    @pytest.mark.parametrize("dialect", ["tab", "comma"])
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, foobar_text, dialect):
        """A table that starts with U+FEFF parses equal to the same table
        without it, its corner keyword still read."""
        text = foobar_text if dialect == "tab" else foobar_text.replace("\t", ",")
        assert parse_table("\ufeff" + text, dialect) == parse_table(text, dialect)

    @pytest.mark.parametrize("row,label,message", [
        (0, " ".join(["Foobar"] * (MAX_ENTITY_WORDS + 1)),
         f"entity name over {MAX_ENTITY_WORDS} words"),
        (1, " ".join(["Store"] * MAX_METRIC_WORDS + ["count"]),
         f"metric name over {MAX_METRIC_WORDS} words"),
        (1, " ".join(["Positive"] + ["web"] * (MAX_SENTIMENT_WORDS - 2) + ["sentiment", "x"]),
         f"sentiment metric name over {MAX_SENTIMENT_WORDS} words"),
    ], ids=["entity", "metric", "sentiment-metric"])
    @pytest.mark.parametrize("metrics_as_rows", [True, False])
    def test_label_past_its_word_limit_is_refused(self, row, label, message, metrics_as_rows):
        """A name one word past its limit is a ``BadLabel`` naming its line;
        at the limit, and with an annotation past it, it parses."""
        def table(name):
            names = ["Acme", "Beta"] if row else [name, "Beta"]
            metrics = ["Revenue", name] if row else ["Revenue", "Stores"]
            if metrics_as_rows:
                rows = [["Metric", *names]] + [[m, "1", "2"] for m in metrics]
            else:
                rows = [["Company", *metrics]] + [[e, "1", "2"] for e in names]
            return "".join("\t".join(r) + "\n" for r in rows)

        with pytest.raises(BadLabel) as exc:
            parse_table(table(label))
        line = 3 if row and metrics_as_rows else 2 if not row and not metrics_as_rows else 1
        assert str(exc.value) == f"line {line}: {message} {label!r}"
        assert (exc.value.line, exc.value.label) == (line, label)
        shorter = label.split(" ", 1)[1]
        assert parse_table(table(shorter))
        if row:
            assert parse_table(table(shorter + " !lower"))


class TestDatasetLookups:
    def test_maps_leave_equality_hash_and_repr_alone(self, foobar_text, prices_series):
        """The table is held once: after every rule has read it, the two
        name maps are the only attributes besides the three fields."""
        built, fresh = parse_table(foobar_text), parse_table(foobar_text)
        assert built.value("Acme LLP", "Number of stores") == 450
        assert built.column("Number of stores")[1] == 450
        assert list(Dataset._fields) == ["entities", "metrics", "columns"]
        run_all_rules(fresh, prices_series)
        assert not hasattr(fresh, "__dict__")
        maps = {name for name in Dataset.__slots__ if hasattr(fresh, name)} - set(fresh._fields)
        assert maps == {"_row_index", "_column_index"}
        for name in maps:  # drop one side's maps: they must not be compared
            object.__delattr__(fresh, name)
        assert built == fresh
        assert hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
        assert len({built, fresh}) == 1

    def test_column_is_in_entity_order(self, foobar_dataset):
        d = foobar_dataset
        for m in d.metrics:
            assert d.column(m.name) == tuple(d.value(e, m.name) for e in d.entities)

    @given(
        rows=st.integers(1, 6).flatmap(lambda m: st.lists(
            st.lists(st.one_of(st.none(), st.floats(allow_nan=False)), min_size=m, max_size=m),
            min_size=1, max_size=6,
        )),
    )
    @settings(max_examples=100)
    def test_column_matches_row_scan(self, rows):
        """Built from the transpose of entity rows, each column and each
        value reads back that entity row's cell."""
        d = Dataset(
            entities=tuple(f"E{i}" for i in range(len(rows))),
            metrics=tuple(MetricDescriptor(f"M{j}") for j in range(len(rows[0]))),
            columns=tuple(zip(*rows)),
        )
        for j, m in enumerate(d.metrics):
            assert d.column(m.name) == tuple(row[j] for row in rows)
            for e, row in zip(d.entities, rows):
                assert d.value(e, m.name) is row[j]

    @pytest.mark.parametrize("entities,metrics,columns,message", [
        ((), ("M",), ((),), "dataset needs at least one entity"),
        (("A", ""), ("M",), ((1.0, 2.0),), "entity names must be non-empty"),
        (("A", "A"), ("M",), ((1.0, 2.0),), "entity names must be unique"),
        (("A",), ("M", "M"), ((1.0,), (2.0,)), "metric names must be unique"),
        (("A", "B"), ("M",), ((1.0,),), "value matrix row count != entity count"),
        (("A", "B"), ("M",), ((1.0, 2.0), (3.0, 4.0)),
         "value matrix column count != metric count"),
    ], ids=["no-entity", "empty-entity", "repeated-entity", "repeated-metric",
            "row-count", "column-count"])
    def test_bad_construction_is_rejected(self, entities, metrics, columns, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(entities, tuple(map(MetricDescriptor, metrics)), columns)

    def test_unknown_names_raise_key_error(self, foobar_dataset):
        for lookup in (
            lambda: foobar_dataset.value("Nobody Inc", "Number of stores"),
            lambda: foobar_dataset.value("Acme LLP", "No such metric"),
            lambda: foobar_dataset.column("No such metric"),
        ):
            with pytest.raises(KeyError):
                lookup()


# ---------------------------------------------------------------------------
# metric semantics

class TestInferMetricSemantics:
    # Explicit ids keep the test names of earlier reports (name-unit-polarity).
    @pytest.mark.parametrize(
        "name,polarity",
        [
            ("In-bound shipment delays", "lower-is-better"),
            ("Media spend ($m)", "higher-is-better"),
            ("Net margin (%)", "higher-is-better"),
            ("Number of stores", "higher-is-better"),
            ("Brand awareness survey", "higher-is-better"),
            ("Negative social media sentiment", "lower-is-better"),
            ("xyzzy", "neutral"),
        ],
        ids=[
            "In-bound shipment delays-days-lower-is-better",
            "Media spend ($m)-currency-millions-higher-is-better",
            "Net margin (%)-percent-higher-is-better",
            "Number of stores-count-higher-is-better",
            "Brand awareness survey-percent-higher-is-better",
            "Negative social media sentiment-count-lower-is-better",
            "xyzzy-raw-neutral",
        ],
    )
    def test_keyword_inference(self, name, polarity):
        assert infer_metric_semantics(name).polarity == polarity

    def test_sidecar_annotation_overrides(self):
        m = infer_metric_semantics("Revenue ($m) !lower")
        assert m.name == "Revenue ($m)"
        assert m.polarity == "lower-is-better"
        m = infer_metric_semantics("Defect rate !higher")
        assert m.polarity == "higher-is-better"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            infer_metric_semantics("   ")

    @given(
        words=st.lists(
            st.sampled_from(["Shipment delays", "Net margin", "COST per unit", "Brand awareness",
                             "customer CHURN", "Online Revenue", "xyzzy", "Stores opened"]),
            min_size=1, max_size=6),
        metrics_as_rows=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_table_descriptors_are_inferred_from_labels(self, words, metrics_as_rows, data):
        """Each parsed descriptor is ``infer_metric_semantics`` of its
        label, in either orientation: keyword names in mixed case, with an
        annotation or none, and spaces around the annotation."""
        labels = []
        for i, word in enumerate(words):
            name = "".join(c.upper() if data.draw(st.booleans()) else c.lower()
                           for c in f"{word} {i}")
            note = data.draw(st.sampled_from(["", "!lower", "!higher"]))
            if note:
                name += " " * data.draw(st.integers(0, 2)) + note
            labels.append(" " * data.draw(st.integers(0, 2)) + name
                          + " " * data.draw(st.integers(0, 2)))
        entities = ["Foobar Corp", "Acme LLP"]
        if metrics_as_rows:
            rows = [["Metric", *entities]] + [[label, "1", "2"] for label in labels]
        else:
            rows = [["Company", *labels]] + [[e] + ["1"] * len(labels) for e in entities]
        text = "".join("\t".join(row) + "\n" for row in rows)
        assert parse_table(text).metrics == tuple(map(infer_metric_semantics, labels))


# ---------------------------------------------------------------------------
# timeseries

class TestParseTimeseries:
    def test_newest_first_is_normalized(self, prices_series):
        dates = prices_series.dates
        assert list(dates) == sorted(dates)
        assert len(dates) == len(prices_series.closes) == 30
        assert dates[0] == dt.date(2024, 4, 1)
        assert dates[-1] == dt.date(2024, 5, 10)

    def test_us_date_format(self):
        s = parse_timeseries(
            "date\tclose\tvolume\n4/2/2024\t101\t10\n4/1/2024\t100\t10\n"
        )
        assert s.dates == (dt.date(2024, 4, 1), dt.date(2024, 4, 2))

    def test_headerless_input(self):
        s = parse_timeseries("2024-04-01\t100\t10\n2024-04-02\t101\t10\n")
        assert s.closes == (100.0, 101.0)

    def test_headerless_input_after_a_byte_order_mark_keeps_every_row(self):
        s = parse_timeseries("\ufeff2024-01-01\t100\t10\n2024-01-02\t101\t10\n"
                             "2024-01-03\t102\t10\n")
        assert s.dates == (dt.date(2024, 1, 1), dt.date(2024, 1, 2), dt.date(2024, 1, 3))
        assert s.closes == (100.0, 101.0, 102.0)

    @staticmethod
    def _strptime_date(cell: str) -> dt.date | None:
        for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
            try:
                return dt.datetime.strptime(cell.strip(), fmt).date()
            except ValueError:
                pass
        return None

    @given(cell=st.one_of(
        st.text(alphabet="0123456789-/ \u0661", max_size=12),
        st.builds(
            str.format,
            st.sampled_from(["{0:04d}-{1:02d}-{2:02d}", "{0}-{1}-{2}", "{1}/{2}/{0}",
                             "{1:02d}/{2:02d}/{0:04d}", "{0:04d}-{1}-{2:2d}", " {1}/{2}/{0} ",
                             "\u0661{0:03d}-{1}-{2}", "{1}/{2}/\u0661{0:03d}",
                             "{0:04d}-{1}-1\u0661", "\u0661{1}/{2}/{0:04d}"]),
            st.sampled_from([0, 1, 99, 2000, 2023, 2024, 9999, 10000]),
            st.integers(0, 13),
            st.integers(0, 32),
        ),
    ))
    @settings(max_examples=400)
    def test_date_parse_matches_strptime(self, cell):
        """One regex accepts exactly the cells that strptime accepts in
        either format, with the same date."""
        try:
            parsed = ingest._parse_date(cell, 1)
        except UnparseableDate:
            parsed = None
        assert parsed == self._strptime_date(cell)

    @pytest.mark.parametrize("cell,date", [
        ("2023-01- 5", dt.date(2023, 1, 5)),
        ("2023-01-1\u0661", dt.date(2023, 1, 11)),
        ("1/5/2023", dt.date(2023, 1, 5)),
        ("\u0661/5/2023", None),
        ("2023-02-30", None),
    ])
    def test_date_edge_cases(self, cell, date):
        assert self._strptime_date(cell) == date
        if date is None:
            with pytest.raises(UnparseableDate):
                ingest._parse_date(cell, 1)
        else:
            assert ingest._parse_date(cell, 1) == date

    def test_unparseable_date_reports_line(self):
        with pytest.raises(UnparseableDate) as exc:
            parse_timeseries("date\tclose\tvolume\n2024-04-01\t100\t10\nnope\t101\t10\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("row,column,text", [
        ("2024-04-02\tn/a\t10", "close", "n/a"),
        ("2024-04-02\t101\t12x", "volume", "12x"),
        ("2024-04-02\t1e999\t10", "close", "1e999"),
    ])
    def test_bad_number_names_line_column_and_cell(self, row, column, text):
        with pytest.raises(BadCell) as exc:
            parse_timeseries(f"date\tclose\tvolume\n2024-04-01\t100\t10\n{row}\n")
        assert (exc.value.line, exc.value.column) == (3, column)
        assert str(exc.value) == f"line 3: cannot parse {column} {text!r}"

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            parse_timeseries("date\tclose\tvolume\n2024-04-01\t0\t10\n")
        with pytest.raises(NonPositivePrice):
            parse_timeseries("date\tclose\tvolume\n2024-04-01\t-5\t10\n")

    def test_duplicate_date(self):
        with pytest.raises(DuplicateDate) as exc:
            parse_timeseries(
                "date\tclose\tvolume\n2024-04-01\t100\t10\n2024-04-01\t101\t10\n"
            )
        assert (exc.value.line, exc.value.date) == (3, dt.date(2024, 4, 1))

    @pytest.mark.parametrize("days,closes,message", [
        ((2, 1), (100.0, 101.0), "dates must be strictly ascending"),
        ((1, 1), (100.0, 101.0), "dates must be strictly ascending"),
        ((1, 2), (100.0, 0.0), "prices must be strictly positive"),
        ((1, 2), (100.0,), "dates and closes differ in length"),
    ], ids=["descending", "duplicate", "non-positive", "unequal-lengths"])
    def test_bad_construction_is_rejected(self, days, closes, message):
        dates = tuple(dt.date(2024, 4, day) for day in days)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TimeSeries(dates, closes)

    def test_row_order_invariance(self, prices_text):
        baseline = parse_timeseries(prices_text)
        lines = prices_text.strip().splitlines()
        header, body = lines[0], lines[1:]
        rng = random.Random(7)
        for _ in range(20):
            rng.shuffle(body)
            assert parse_timeseries("\n".join([header] + body) + "\n") == baseline


# ---------------------------------------------------------------------------
# column parsing against the cell-by-cell and row-by-row parses

_VALID_DATE = st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))
_ISO_CELL = _VALID_DATE.map(lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:02d}")
_US_CELL = _VALID_DATE.map(lambda d: f"{d.month:02d}/{d.day:02d}/{d.year:04d}")
_INTS = (st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32))
_ODD_DATE = st.one_of(
    st.builds("{:04d}-{:02d}-{:02d}".format, *_INTS),  # in shape, maybe out of range
    st.builds("{1:02d}/{2:02d}/{0:04d}".format, *_INTS),
    st.sampled_from(["2024-4-1", " 2024-04-01", "2024-04-01 ", "4/1/2024", "2024-04-0\u0661",
                     "\u0660\u0664/01/2024", "", "20240401", "2024-W14-1",
                     "2024-04-01T00:00", "nope", "2024-02-30", "02/30/2024"]),
    st.text(alphabet="0123456789-/ \n\u0661", max_size=11),
)
_PLAIN_NUMBER = st.one_of(
    st.builds("{}{}{}{}".format, st.sampled_from(["", "$"]), st.integers(0, 10**6),
              st.text(alphabet="0123456789,", max_size=6),
              st.sampled_from(["", ".5", ".25", ".0", ".000"])),
    st.just("9" * 400),  # plain, but past the float range
)
_ODD_NUMBER = st.one_of(
    st.sampled_from(["$", "%", ",", " ", "-", "1e5", "1E-3", "-2.5", "12%", " 7 ", "$$5",
                     "\u0661\u0662", "\u0661.5", "1\n2", "1e999", "", "5.", ".5",
                     "1,2.3,4", "-0", "$-5", "0", "-$5", ",$,$5", "-,5", "5.,5", "5.,",
                     "5,.5", "5%,%", "5%5", "$5%$", "-" + "9" * 400, "5\r"]),
    st.text(alphabet="0123456789$%,. -eE+\u0661\n", max_size=8),
)


def _columns(usual, odd):
    """Lists of ``usual`` cells, and such lists with one ``odd`` cell, or
    two usual cells joined by a line break (a quoted cell can hold one),
    inserted: columns the whole-column shape almost fits."""
    cells = st.lists(usual, max_size=20)
    odd = st.one_of(odd, st.builds("{}\n{}".format, usual, usual))
    return st.one_of(cells, st.builds(lambda c, cell, at: c[:at] + [cell] + c[at:],
                                      cells, odd, st.integers(0, 20)))


def _dates_cell_by_cell(cells):
    try:
        return [ingest._parse_date(c, 1) for c in cells]
    except UnparseableDate:
        return None


def _row_by_row(text: str):
    """What the row-by-row parse of a file with a header returns or raises."""
    try:
        s = ingest._parse_rows(ingest._read_rows(text, "tab")[1:])
    except ingest.IngestError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.dates, s.closes


def _parsed(text: str):
    try:
        s = parse_timeseries(text)
    except ingest.IngestError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.dates, s.closes


# A mutation replaces cell 0, 1 or 2 of a data row with a drawn text, or
# with the date of another row (a repeat), or cuts the row short.
_MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), st.just(0), st.one_of(_ODD_DATE, _ISO_CELL, _US_CELL)),
    st.tuples(st.just("cell"), st.sampled_from([1, 2]), st.one_of(_ODD_NUMBER, _PLAIN_NUMBER)),
    st.tuples(st.just("cell"), st.just(1), st.sampled_from(["0", "0.00", "$0", "-0", "-3"])),
    st.tuples(st.just("repeat-date"), st.just(0), st.just("")),
    st.tuples(st.just("short"), st.integers(0, 2), st.just("")),
)


class TestColumnParse:
    @given(cells=st.one_of(_columns(_ISO_CELL, _ODD_DATE), _columns(_US_CELL, _ODD_DATE),
                           _columns(_ISO_CELL, _US_CELL)))
    @settings(max_examples=400)
    def test_date_column_matches_cell_by_cell(self, cells):
        assert ingest._date_column(cells) == _dates_cell_by_cell(cells)

    @given(cells=_columns(_PLAIN_NUMBER, _ODD_NUMBER))
    @settings(max_examples=400)
    def test_number_column_matches_cell_by_cell(self, cells):
        # repr tells -0.0 from 0.0
        assert list(map(repr, ingest._number_column(cells))) == [
            repr(ingest._parse_number(c)) for c in cells]

    @given(cells=st.one_of(_columns(_PLAIN_NUMBER, _ODD_NUMBER),
                           st.lists(st.one_of(_PLAIN_NUMBER, _ODD_NUMBER), max_size=20)))
    @settings(max_examples=400)
    def test_bulk_numbers_match_cell_by_cell(self, cells):
        """``parse_table`` parses each distinct cell once, in one bulk pass,
        and each repeat of a cell shares its value."""
        expected = [repr(ingest._parse_number(c)) for c in cells]
        out = io.StringIO()
        csv.writer(out, delimiter="\t", quoting=csv.QUOTE_ALL).writerows(
            [["Metric", *(f"E{i}" for i in range(len(cells)))], ["x", *cells]])
        if expected.count("None") == len(expected):
            with pytest.raises(NoNumericData):
                parse_table(out.getvalue())
        else:
            assert list(map(repr, parse_table(out.getvalue()).columns[0])) == expected

    @given(us_dates=st.booleans(), data=st.data(),
           mutations=st.lists(st.tuples(st.integers(0, 29), _MUTATIONS), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_parses_as_row_by_row(self, prices_text, us_dates, data, mutations):
        """A bad cell anywhere gives the same typed error, message and line
        as the row-by-row parse; a good file gives the same columns."""
        header, *rows = list(csv.reader(io.StringIO(prices_text), delimiter="\t"))
        if us_dates:
            rows = [[f"{r[0][5:7]}/{r[0][8:]}/{r[0][:4]}", f"${float(r[1]):,.2f}",
                     f"{int(r[2]):,}"] for r in rows]
        for index, (kind, column, text) in mutations:
            row = rows[index]
            if kind == "short":
                del row[column:]
            elif kind == "cell" and column < len(row):  # a row cut short has fewer
                row[column] = text
            elif kind == "repeat-date" and row:
                row[0] = (rows[data.draw(st.integers(0, 29))][:1] or [""])[0]
        out = io.StringIO()
        csv.writer(out, delimiter="\t", lineterminator="\n").writerows([header] + rows)
        assert _parsed(out.getvalue()) == _row_by_row(out.getvalue())

    def test_a_valid_file_never_parses_row_by_row(self, prices_text, monkeypatch):
        """The column parse takes every valid file, so the slower row-by-row
        parse runs only to name a bad row: here the newest-first fixture,
        and its rows with US dates and quoted ``$`` and thousands cells,
        comma-separated."""
        expected = parse_timeseries(prices_text)
        header, *rows = list(csv.reader(io.StringIO(prices_text), delimiter="\t"))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + [
            [f"{r[0][5:7]}/{r[0][8:]}/{r[0][:4]}", f"${float(r[1]):,.2f}", f"{int(r[2]):,}"]
            for r in rows])

        def row_by_row(rows):
            raise AssertionError("a valid file was parsed row by row")

        monkeypatch.setattr(ingest, "_parse_rows", row_by_row)
        assert parse_timeseries(prices_text) == expected
        assert parse_timeseries(out.getvalue(), dialect="comma") == expected


# ---------------------------------------------------------------------------
# serialization round-trips

def serialize_timeseries(series: TimeSeries, volumes=None) -> str:
    """A date/close/volume file that ``parse_timeseries`` reads back to
    ``series``: ``repr`` keeps every float exact. A series keeps no
    volume, so each row gets ``volumes[i]``, or 0."""
    lines = ["date\tclose\tvolume"]
    volumes = volumes or [0.0] * len(series.dates)
    for date, close, volume in zip(series.dates, series.closes, volumes):
        lines.append(f"{date.isoformat()}\t{close!r}\t{volume!r}")
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_dataset_round_trip(self, foobar_dataset):
        text = serialize_dataset(foobar_dataset)
        assert parse_table(text) == foobar_dataset

    def test_annotation_survives_round_trip(self):
        metrics = (
            MetricDescriptor("Revenue ($m)", "lower-is-better"),
            MetricDescriptor("xyzzy", "neutral"),
        )
        d = Dataset(entities=("A", "B"), metrics=metrics, columns=((1.0, 2.0), (None, 3.5)))
        text = serialize_dataset(d)
        assert "!lower" in text
        assert "NA" in text
        again = parse_table(text)
        assert again.metrics[0] == MetricDescriptor("Revenue ($m)", "lower-is-better")
        assert again.value("A", "xyzzy") is None
        assert again.columns == d.columns

    @given(labels=st.lists(
        st.tuples(st.sampled_from(["Revenue ($m)", "Delay days", "xyzzy", "Growth (%)"]),
                  st.lists(st.sampled_from(["!lower", "!higher"]), max_size=2),
                  st.sampled_from(["", " "])),
        min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_parsed_table_survives_round_trip(self, labels):
        """A label with two annotations keeps the first in its name, so
        that name ends in one; it is written back with an annotation."""
        text = "Metric\tA\tB\n" + "".join(
            f"{name} {i}{''.join(pad + ' ' + note for note in notes)}\t1\t2\n"
            for i, (name, notes, pad) in enumerate(labels))
        d = parse_table(text)
        assert parse_table(serialize_dataset(d)) == d

    def test_name_of_one_annotation_survives_round_trip(self):
        d = parse_table("Metric\tA\tB\n!lower !higher\t1\t2\n")
        assert d.metrics == (MetricDescriptor("!lower", "higher-is-better"),)
        assert parse_table(serialize_dataset(d)) == d

    def test_timeseries_round_trip(self, prices_series):
        assert parse_timeseries(serialize_timeseries(prices_series)) == prices_series

    @given(
        entities=st.lists(
            st.text(alphabet="abcdefgh XYZ", min_size=1, max_size=8).filter(str.strip),
            min_size=1, max_size=4, unique=True,
        ),
        metric_names=st.lists(
            st.sampled_from(
                ["Revenue ($m)", "Stores", "Delay days", "xyzzy", "Growth (%)", "Qz"]
            ),
            min_size=1, max_size=6, unique=True,
        ),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, entities, metric_names, data):
        entities = tuple(e.strip() for e in entities)
        if len(set(entities)) != len(entities):
            return
        metrics = tuple(infer_metric_semantics(n) for n in metric_names)
        cell = st.one_of(
            st.none(), st.integers(-10**6, 10**6).map(float),
            st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: round(v, 4)),
        )
        columns = tuple(
            tuple(data.draw(cell) for _ in entities) for _ in metrics
        )
        if not any(v is not None for column in columns for v in column):
            return
        d = Dataset(entities=entities, metrics=metrics, columns=columns)
        assert parse_table(serialize_dataset(d)) == d

    @given(
        st.lists(
            st.tuples(
                st.dates(dt.date(2020, 1, 1), dt.date(2025, 12, 31)),
                st.floats(0.01, 1e5, allow_nan=False).map(lambda v: round(v, 4)),
                st.integers(0, 10**7).map(float),
            ),
            min_size=1, max_size=40,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=60)
    def test_timeseries_round_trip_property(self, rows):
        rows.sort(key=lambda t: t[0])
        dates, closes, volumes = zip(*rows)
        s = TimeSeries(dates, closes)
        assert parse_timeseries(serialize_timeseries(s, volumes)) == s
