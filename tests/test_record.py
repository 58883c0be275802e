"""The value-record contract that every record of the package keeps:
same-type equality, a field-tuple hash, the ``Name(field=value, ...)``
repr, immutability, and a ``_replace`` that checks like the constructor."""

from __future__ import annotations

import copy
import datetime as dt
import importlib
import pickle
import pkgutil

import pytest

import stratagem
from stratagem.diagram import (
    ArrowEdge, BoxNode, DiagramSpec, RadarAxis, RadarShape, Style,
)
from stratagem.frameworks import (
    AxisScore, Framework, Grid, OrganizedAnalysis, SlotDescriptor, Violation, schema_for,
    score_axis,
)
from stratagem.ingest import Dataset, MetricDescriptor, TimeSeries
from stratagem.insights import Evidence, Insight
from stratagem.llm import ParseDiagnostic, ProviderConfig
from stratagem.record import Record
from stratagem.textfit import TextBlock

_BLOCK = TextBlock(("Strengths",), 18.0, (10.0, 20.0))
_SCHEMA = schema_for("swot")

# Each record class, a builder of one instance (a new one on every call),
# and a field change that the constructor rejects (None where it checks
# nothing).
RECORDS = {
    Style: (lambda: Style(canvas_w=800.0, gap=12.0), None),
    BoxNode: (lambda: BoxNode("strengths", 1.0, 2.0, 300.0, 200.0, _BLOCK, (_BLOCK,), "#EDF2F8"),
              None),
    ArrowEdge: (lambda: ArrowEdge("a", "b", ((0.0, 0.0), (5.0, 5.0))), None),
    RadarAxis: (lambda: RadarAxis("invest", 90.0, 7.5, _BLOCK), None),
    RadarShape: (lambda: RadarShape((100.0, 100.0), 50.0,
                                    (RadarAxis("invest", 90.0, 7.5, _BLOCK),)), None),
    DiagramSpec: (lambda: DiagramSpec(900.0, 640.0, (), (), None, _BLOCK, "Lato", "#FFFFFF"),
                  None),
    AxisScore: (lambda: AxisScore(6.5, 2), {"value": 10.5}),
    SlotDescriptor: (lambda: SlotDescriptor("threats", "Threats", {("cost", "*"): 0.5}),
                     {"affinity": {("cost", "*"): 0.0}}),
    Grid: (lambda: Grid(1, 2, True, ((0, 0), (0, 1)), ("#DEEBD8", "#F4CFCC"), False), None),
    Framework: (lambda: Framework("pulse", "pulse", "Pulse", (SlotDescriptor(
        "tempo", "Tempo", {("growth", "*"): 1.0}, ("pace",)),), "radar", score_axis),
                {"shape": "pie"}),
    Violation: (lambda: Violation("BadFit", "threats", "fit 2 outside [0, 1]"), None),
    OrganizedAnalysis: (lambda: OrganizedAnalysis(_SCHEMA, "Foobar", {"threats": []},
                                                  max_per_slot=3), {"max_per_slot": 0}),
    MetricDescriptor: (lambda: MetricDescriptor("Revenue", "higher-is-better"),
                       {"polarity": "bogus"}),
    Dataset: (lambda: Dataset(("Foobar", "Acme"), (MetricDescriptor("Revenue"),), ((1.0, None),)),
              {"entities": ("Foobar", "Foobar")}),
    TimeSeries: (lambda: TimeSeries((dt.date(2024, 1, 1), dt.date(2024, 1, 2)), (3.0, 4.0)),
                 {"closes": (3.0, -4.0)}),
    Evidence: (lambda: Evidence("metric-value", ("Revenue", "Foobar"), 12.5), {"kind": "bogus"}),
    Insight: (lambda: Insight("trend:revenue", "Revenue rose by ten percent this year",
                              "positive", 0.4, frozenset(["growth"]),
                              (Evidence("trend-slope", ("Revenue",), 0.1),), "rule:trend"),
              {"magnitude": 1.5}),
    ProviderConfig: (lambda: ProviderConfig("m", mode="replay", transcript_path="t.jsonl"),
                     {"mode": "bogus"}),
    ParseDiagnostic: (lambda: ParseDiagnostic("overflow", "slot threats: 2 items dropped"), None),
    TextBlock: (lambda: TextBlock(("a", "b"), 12.0), None),
}


def test_every_record_class_is_covered():
    for info in pkgutil.iter_modules(stratagem.__path__):
        importlib.import_module(f"stratagem.{info.name}")
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 20


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record_class(request):
    return request.param


def test_equality_is_by_fields_within_one_type(record_class):
    make, _ = RECORDS[record_class]
    record = make()
    assert record == make() and not record != make()
    assert (record == record._values()) is False
    other = next(cls for cls in RECORDS if cls is not record_class)
    assert (record == RECORDS[other][0]()) is False


def test_equal_records_hash_alike(record_class):
    make, _ = RECORDS[record_class]
    if record_class in (SlotDescriptor, Framework, OrganizedAnalysis):  # a field holds a dict
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make()) == hash(make()._values())


def test_repr_names_each_field(record_class):
    record = RECORDS[record_class][0]()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{record_class.__name__}({fields})"


def test_fields_cannot_be_set_or_deleted(record_class):
    record = RECORDS[record_class][0]()
    with pytest.raises(AttributeError):
        record.undeclared = 1
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_replace_goes_through_the_constructor(record_class):
    make, bad = RECORDS[record_class]
    record = make()
    assert record._replace() == record
    with pytest.raises(TypeError):
        record._replace(undeclared=1)
    if bad is not None:
        with pytest.raises(ValueError):
            record._replace(**bad)


def test_an_unchecked_record_takes_each_field_once():
    """A record without its own ``__init__`` stores its fields by position
    or by name, and takes neither a missing, an unknown nor a repeated one."""
    edge = ArrowEdge("a", "b", ((0.0, 0.0), (5.0, 5.0)))
    assert ArrowEdge(to_id="b", points=((0.0, 0.0), (5.0, 5.0)), from_id="a") == edge
    assert ArrowEdge("a", "b", points=((0.0, 0.0), (5.0, 5.0))) == edge
    for args, kwargs in (((), {}), (("a", "b"), {}), (("a", "b", (), ()), {}),
                         (("a", "b", ()), {"to_id": "c"}), (("a", "b", ()), {"via": "c"})):
        with pytest.raises(TypeError, match="ArrowEdge takes the fields from_id, to_id, points"):
            ArrowEdge(*args, **kwargs)


def test_copy_and_pickle_rebuild_an_equal_record(record_class):
    record = RECORDS[record_class][0]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is record_class and clone == record


def test_derived_slots_are_built_and_ignored():
    shape = RECORDS[RadarShape][0]()
    assert shape._fields == ("center", "radius", "axes")
    assert shape.vertices[0] == pytest.approx((100.0, 137.5))
    assert shape._replace(radius=100.0).vertices[0] == pytest.approx((100.0, 175.0))
    slot = RECORDS[SlotDescriptor][0]()._replace(id="new_entrants", synonyms=("entry",))
    assert slot.headings == ("threats", "new entrants", "entry")
    assert "headings" not in repr(slot)
    dataset = RECORDS[Dataset][0]()
    assert dataset.value("Acme", "Revenue") is None
    assert "_row_index" not in repr(dataset)
