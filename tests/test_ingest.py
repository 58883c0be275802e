"""Parsing, normalization, and serialization round-trips."""

from __future__ import annotations

import dataclasses
import datetime as dt
import random

import pytest
from hypothesis import given, settings, strategies as st

from stratagem import ingest
from stratagem.ingest import (
    BadCell,
    Dataset,
    DuplicateDate,
    EmptyInput,
    MetricDescriptor,
    NoNumericData,
    NonPositivePrice,
    Observation,
    RaggedRows,
    TimeSeries,
    UnparseableDate,
    infer_metric_semantics,
    parse_table,
    parse_timeseries,
    serialize_dataset,
)


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

    def test_no_numeric_data(self):
        with pytest.raises(NoNumericData):
            parse_table("Metric\tA\nRevenue\tabc\n")
        with pytest.raises(NoNumericData):
            parse_table("Metric\tA\n")

    def test_currency_and_percent_glyphs(self):
        d = parse_table("Metric\tA\nRevenue ($m)\t$1,234\nMargin (%)\t12.5%\n")
        assert d.value("A", "Revenue ($m)") == 1234
        assert d.value("A", "Margin (%)") == 12.5


class TestDatasetLookups:
    def test_maps_leave_equality_hash_and_repr_alone(self, foobar_text):
        built, fresh = parse_table(foobar_text), parse_table(foobar_text)
        assert built.value("Acme LLP", "Number of stores") == 450
        maps = set(vars(fresh)) - {f.name for f in dataclasses.fields(fresh)}
        assert maps
        for name in maps:  # drop one side's maps: they must not be compared
            del vars(fresh)[name]
        assert built == fresh
        assert hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
        assert len({built, fresh}) == 1

    def test_column_is_in_entity_order(self, foobar_dataset):
        d = foobar_dataset
        for m in d.metrics:
            assert d.column(m.name) == tuple(d.value(e, m.name) for e in d.entities)

    def test_unknown_names_raise_key_error(self, foobar_dataset):
        for lookup in (
            lambda: foobar_dataset.value("Nobody Inc", "Number of stores"),
            lambda: foobar_dataset.value("Acme LLP", "No such metric"),
            lambda: foobar_dataset.metric("No such metric"),
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


# ---------------------------------------------------------------------------
# timeseries

class TestParseTimeseries:
    def test_newest_first_is_normalized(self, prices_series):
        dates = prices_series.dates
        assert list(dates) == sorted(dates)
        assert len(prices_series.observations) == 30
        assert prices_series.observations[0].date == dt.date(2024, 4, 1)
        assert prices_series.observations[-1].date == dt.date(2024, 5, 10)

    def test_us_date_format(self):
        s = parse_timeseries(
            "date\tclose\tvolume\n4/2/2024\t101\t10\n4/1/2024\t100\t10\n"
        )
        assert s.dates == (dt.date(2024, 4, 1), dt.date(2024, 4, 2))

    def test_headerless_input(self):
        s = parse_timeseries("2024-04-01\t100\t10\n2024-04-02\t101\t10\n")
        assert len(s.observations) == 2

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
        with pytest.raises(DuplicateDate):
            parse_timeseries(
                "date\tclose\tvolume\n2024-04-01\t100\t10\n2024-04-01\t101\t10\n"
            )

    def test_row_order_invariance(self, prices_text):
        baseline = parse_timeseries(prices_text)
        lines = prices_text.strip().splitlines()
        header, body = lines[0], lines[1:]
        rng = random.Random(7)
        for _ in range(20):
            rng.shuffle(body)
            assert parse_timeseries("\n".join([header] + body) + "\n") == baseline


# ---------------------------------------------------------------------------
# serialization round-trips

def serialize_timeseries(series: TimeSeries) -> str:
    """A date/close/volume file that ``parse_timeseries`` reads back to
    ``series``: ``repr`` keeps every float exact."""
    lines = ["date\tclose\tvolume"]
    for o in series.observations:
        lines.append(f"{o.date.isoformat()}\t{o.close!r}\t{o.volume!r}")
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
        d = Dataset(entities=("A", "B"), metrics=metrics, values=((1.0, None), (2.0, 3.5)))
        text = serialize_dataset(d)
        assert "!lower" in text
        assert "NA" in text
        again = parse_table(text)
        assert again.metric("Revenue ($m)").polarity == "lower-is-better"
        assert again.value("A", "xyzzy") is None
        assert again.values == d.values

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
        values = tuple(
            tuple(data.draw(cell) for _ in metrics) for _ in entities
        )
        if not any(v is not None for row in values for v in row):
            return
        d = Dataset(entities=entities, metrics=metrics, values=values)
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
        s = TimeSeries(tuple(Observation(*r) for r in rows))
        assert parse_timeseries(serialize_timeseries(s)) == s
