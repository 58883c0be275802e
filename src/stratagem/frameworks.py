"""Framework kinds, insight assignment, and slot attributes.

``FRAMEWORKS`` holds one ``Framework`` record per kind, keyed by its
``kind``, the only place a kind is declared: its CLI name, diagram title,
slots with their reply headings, slot attribute and diagram shape; the CLI,
the reply parser and the diagram read it. ``schema_for`` is the checked
lookup, and an ``OrganizedAnalysis`` holds the record as its ``schema``
beside its own ``max_per_slot`` cap. Assignment is deterministic: each slot
carries an affinity table over (theme, direction) pairs, an insight goes to
its argmax-fit slot when the fit clears the floor, and per-slot ranking is
fit x magnitude. A slot's ordinal risk level (``assign_risk``) or logistic
axis score in [0, 10) (``score_axis``) is derived from its displayed
factors, never stored.
"""

from __future__ import annotations

import json
import math

from .insights import (
    DIRECTIONS,
    Insight,
    THEME_TAGS,
    insight_from_dict,
    insight_to_dict,
    objects,
    typed,
)
from .record import Record, setfield

FIT_FLOOR = 0.3
DEFAULT_MAX_PER_SLOT = 4

RISK_LEVELS = ("low", "moderate", "high", "intense")
# Weighted-mean risk score bands, closed on the left.
_RISK_BANDS = (0.25, 0.5, 0.75)


class UnknownKind(ValueError):
    pass


class AxisScore(Record):
    __slots__ = ("value", "contributing")

    def __init__(self, value: float, contributing: int):
        if not 0.0 <= value <= 10.0:
            raise ValueError(f"axis score {value} outside [0, 10]")
        setfield(self, "value", value)
        setfield(self, "contributing", contributing)


def assign_risk(assignments: list[tuple[Insight, float]]) -> str:
    """Fit-weighted mean magnitude of negative insights, banded into levels."""
    negs = [(ins, fit) for ins, fit in assignments if ins.direction == "negative"]
    total_fit = math.fsum(fit for _, fit in negs)
    if total_fit == 0:
        s = 0.0
    else:
        s = math.fsum(ins.magnitude * fit for ins, fit in negs) / total_fit
    for level, bound in zip(RISK_LEVELS, _RISK_BANDS):
        if s < bound:
            return level
    return RISK_LEVELS[-1]


_DIR_SIGN = {"positive": 1.0, "negative": -1.0, "neutral": 0.0}


def score_axis(assignments: list[tuple[Insight, float]]) -> AxisScore:
    """Logistic map of summed signed fit x magnitude onto [0, 10); empty -> 5.0."""
    raw = math.fsum(
        ins.magnitude * fit * _DIR_SIGN[ins.direction] for ins, fit in assignments
    )
    # exp(-raw) overflows below raw = -709.78; from -700 down, 1 + exp(raw)
    # is 1 in floating point, so the logistic is 10 * exp(raw).
    value = 10.0 / (1.0 + math.exp(-raw)) if raw >= -700 else 10.0 * math.exp(raw)
    return AxisScore(value=value, contributing=len(assignments))


class SlotDescriptor(Record):
    """A slot; affinity key: (theme, direction), direction "*" matches any.
    ``headings`` name the slot in a model's reply: the title, the id with
    spaces and the ``synonyms``, in lower case."""

    __slots__ = ("id", "title", "affinity", "synonyms", "headings")
    _fields = ("id", "title", "affinity", "synonyms")

    def __init__(self, id: str, title: str, affinity: dict[tuple[str, str], float],
                 synonyms: tuple[str, ...] = ()):
        if not any(w > 0 for w in affinity.values()):
            raise ValueError(f"slot {id} has no nonzero affinity")
        for (theme, direction), w in affinity.items():
            if theme not in THEME_TAGS:
                raise ValueError(f"unknown theme {theme!r} in slot {id}")
            if direction not in DIRECTIONS + ("*",):
                raise ValueError(f"unknown direction {direction!r} in slot {id}")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"affinity weight {w} outside [0, 1]")
        setfield(self, "id", id)
        setfield(self, "title", title)
        setfield(self, "affinity", affinity)
        setfield(self, "synonyms", synonyms)
        setfield(self, "headings", (title.lower(), id.replace("_", " "), *map(str.lower, synonyms)))

    def fit(self, insight: Insight) -> float:
        table = self.affinity
        best = 0.0
        for theme in insight.themes:
            w = table.get((theme, insight.direction), table.get((theme, "*"), 0.0))
            best = max(best, w)
        return best


class Grid(Record):
    """A grid of ``rows`` x ``cols`` boxes: whether they keep the style's
    gap, each slot's (row, column) cell, the fixed fills (a slot with a risk
    level shows it in its title and fill instead), and whether the other
    boxes point arrows at the first (the hub)."""

    __slots__ = ("rows", "cols", "gapped", "cells", "fills", "hub")


class Framework(Record):
    """Everything a framework kind is: its key in ``FRAMEWORKS``, its
    ``--framework`` name, diagram title and slots, the attribute derived for
    each slot from its displayed factors (``assign_risk``, ``score_axis`` or
    None), and the diagram's shape: a ``Grid``, "ring" (one box per slot on
    a circle) or "radar" (one spoke per slot). A ring has four slots, the
    count whose boxes ``diagram`` keeps apart."""

    __slots__ = ("kind", "cli_name", "title", "slots", "shape", "attribute")

    def __init__(self, kind: str, cli_name: str, title: str,
                 slots: tuple[SlotDescriptor, ...], shape: Grid | str, attribute=None):
        if not (isinstance(shape, Grid) or shape in ("ring", "radar")):
            raise ValueError(f"shape {shape!r} is not a Grid, 'ring' or 'radar'")
        if shape == "ring" and len(slots) != 4:
            raise ValueError(f"a ring has 4 slots, not {len(slots)}")
        setfield(self, "kind", kind)
        setfield(self, "cli_name", cli_name)
        setfield(self, "title", title)
        setfield(self, "slots", slots)
        setfield(self, "shape", shape)
        setfield(self, "attribute", attribute)


# Every framework kind, built and checked once; the one place a kind is named.
FRAMEWORKS: dict[str, Framework] = {f.kind: f for f in (
    Framework("swot", "swot", "SWOT Analysis", (
        SlotDescriptor("strengths", "Strengths", {
            ("market-presence", "positive"): 1.0,
            ("brand-marketing", "positive"): 1.0,
            ("supply-chain", "positive"): 0.9,
            ("product-diversity", "positive"): 0.9,
            ("profitability", "positive"): 0.9,
            ("online-channel", "positive"): 0.9,
            ("public-sentiment", "positive"): 0.8,
            ("cost", "positive"): 0.8,
            ("growth", "positive"): 0.7,
        }, ("strength",)),
        SlotDescriptor("weaknesses", "Weaknesses", {
            ("online-channel", "negative"): 1.0,
            ("supply-chain", "negative"): 0.9,
            ("profitability", "negative"): 0.9,
            ("brand-marketing", "negative"): 0.9,
            ("market-presence", "negative"): 0.8,
            ("product-diversity", "negative"): 0.8,
            ("cost", "negative"): 0.8,
            ("public-sentiment", "negative"): 0.6,
            ("growth", "negative"): 0.6,
        }, ("weakness",)),
        SlotDescriptor("opportunities", "Opportunities", {
            ("growth", "positive"): 0.9,
            ("growth", "neutral"): 0.4,
            ("online-channel", "negative"): 0.5,
            ("market-presence", "positive"): 0.6,
            ("product-diversity", "positive"): 0.5,
        }, ("opportunity",)),
        SlotDescriptor("threats", "Threats", {
            ("competition", "negative"): 1.0,
            ("competition", "*"): 0.8,
            ("public-sentiment", "negative"): 0.8,
            ("cost", "negative"): 0.5,
            ("growth", "negative"): 0.7,
        }, ("threat",)),
    ), Grid(rows=2, cols=2, gapped=False,
            cells=((0, 0), (0, 1), (1, 0), (1, 1)),  # S W / O T
            fills=("#DEEBD8", "#F4CFCC", "#D7E3F1", "#F6E3B8"), hub=False)),
    Framework("porter5", "porter5", "Porter's Five Forces", (
        SlotDescriptor("rivalry", "Competitive Rivalry", {
            ("competition", "*"): 1.0,
            ("market-presence", "*"): 0.6,
            ("brand-marketing", "*"): 0.5,
        }, ("industry rivalry",)),
        SlotDescriptor("supplier_power", "Supplier Power",
                       {("supply-chain", "*"): 1.0, ("cost", "*"): 0.7},
                       ("bargaining power of suppliers",)),
        SlotDescriptor("buyer_power", "Buyer Power",
                       {("public-sentiment", "*"): 0.9, ("online-channel", "*"): 0.6},
                       ("bargaining power of buyers",)),
        SlotDescriptor("new_entrants", "Threat of New Entrants",
                       {("growth", "*"): 0.8, ("online-channel", "*"): 0.5}),
        SlotDescriptor("substitutes", "Threat of Substitutes",
                       {("product-diversity", "*"): 0.9, ("profitability", "*"): 0.4}),
    ), Grid(rows=3, cols=3, gapped=True,
            cells=((1, 1), (0, 1), (1, 2), (2, 1), (1, 0)),  # C N E S W
            fills=(), hub=True), assign_risk),
    Framework("virtuous_cycle", "cycle", "Virtuous Circle", (
        SlotDescriptor("invest", "Invest",
                       {("brand-marketing", "*"): 0.9, ("cost", "*"): 0.7}),
        SlotDescriptor("improve_offering", "Improve Offering", {
            ("product-diversity", "*"): 0.9,
            ("supply-chain", "*"): 0.8,
            ("online-channel", "*"): 0.7,
        }),
        SlotDescriptor("attract_customers", "Attract Customers",
                       {("public-sentiment", "*"): 0.9, ("market-presence", "*"): 0.8}),
        SlotDescriptor("grow_revenue", "Grow Revenue",
                       {("growth", "*"): 1.0, ("profitability", "*"): 0.95}),
    ), "ring"),
    Framework("value_discipline", "value-discipline", "Value Discipline", (
        SlotDescriptor("operational_excellence", "Operational Excellence", {
            ("supply-chain", "*"): 1.0,
            ("cost", "*"): 0.9,
            ("profitability", "*"): 0.8,
        }, ("operational efficiency",)),
        SlotDescriptor("product_leadership", "Product Leadership", {
            ("product-diversity", "*"): 1.0,
            ("brand-marketing", "*"): 0.8,
            ("growth", "*"): 0.7,
        }, ("product innovation",)),
        SlotDescriptor("customer_intimacy", "Customer Intimacy", {
            ("public-sentiment", "*"): 1.0,
            ("online-channel", "*"): 0.7,
            ("market-presence", "*"): 0.6,
        }, ("customer relationships",)),
    ), "radar", score_axis),
)}

FRAMEWORK_KINDS = tuple(FRAMEWORKS)


def schema_for(kind: str) -> Framework:
    """The ``Framework`` record of ``kind``, a key of ``FRAMEWORKS``."""
    try:
        return FRAMEWORKS[kind]
    except KeyError:
        raise UnknownKind(f"unknown framework kind {kind!r}: "
                          f"must be one of {', '.join(FRAMEWORKS)}") from None


class Violation(Record):
    __slots__ = ("code", "slot_id", "message")


class OrganizedAnalysis(Record):
    """Insights organized into the slots of ``schema``, a kind's
    ``Framework`` record, showing at most ``max_per_slot`` factors per slot.
    ``overflow`` and ``unplaced`` default to a new empty dict and list.
    Its fields are set once; ``finalize`` then changes only the contents of
    the ``assignments`` and ``overflow`` dicts. A dict field makes ``hash``
    raise ``TypeError``."""

    __slots__ = ("schema", "subject", "assignments", "overflow", "unplaced", "max_per_slot")

    def __init__(
        self,
        schema: Framework,
        subject: str,
        assignments: dict[str, list[tuple[Insight, float]]],
        overflow: dict[str, list[tuple[Insight, float]]] | None = None,
        unplaced: list[Insight] | None = None,
        max_per_slot: int = DEFAULT_MAX_PER_SLOT,
    ):
        if max_per_slot < 1:
            raise ValueError("max_per_slot must be positive")
        setfield(self, "schema", schema)
        setfield(self, "subject", subject)
        setfield(self, "assignments", assignments)
        setfield(self, "overflow", {} if overflow is None else overflow)
        setfield(self, "unplaced", [] if unplaced is None else unplaced)
        setfield(self, "max_per_slot", max_per_slot)

    @property
    def slot_attributes(self) -> dict[str, str | AxisScore | None]:
        """Each schema slot's risk level, axis score or None, derived from
        its displayed factors on every read."""
        derive = self.schema.attribute
        return {
            slot.id: derive(self.assignments.get(slot.id, [])) if derive else None
            for slot in self.schema.slots
        }


def organize(
    insights: list[Insight],
    schema: Framework,
    subject: str = "",
    max_per_slot: int = DEFAULT_MAX_PER_SLOT,
) -> OrganizedAnalysis:
    """Argmax-assign each insight to a slot, then ``finalize``.

    Every input insight ends up displayed, in overflow, or unplaced.
    """
    assignments: dict[str, list[tuple[Insight, float]]] = {
        s.id: [] for s in schema.slots
    }
    unplaced: list[Insight] = []
    for ins in insights:
        fits = [slot.fit(ins) for slot in schema.slots]
        best_fit = max(fits)
        if best_fit >= FIT_FLOOR:
            best_slot = schema.slots[fits.index(best_fit)]  # earliest on ties
            assignments[best_slot.id].append((ins, best_fit))
        else:
            unplaced.append(ins)
    return finalize(assignments, schema, subject, unplaced, max_per_slot=max_per_slot)


def finalize(
    assignments: dict[str, list[tuple[Insight, float]]],
    schema: Framework,
    subject: str = "",
    unplaced: list[Insight] | None = None,
    max_per_slot: int = DEFAULT_MAX_PER_SLOT,
) -> OrganizedAnalysis:
    """Rank each slot by fit x magnitude and truncate to ``max_per_slot``
    into overflow. ``assignments`` holds a list for every schema slot and
    is sorted and truncated in place, after the cap is checked."""
    analysis = OrganizedAnalysis(schema=schema, subject=subject, assignments=assignments,
                                 unplaced=unplaced, max_per_slot=max_per_slot)
    for slot_id, items in assignments.items():
        items.sort(key=lambda p: (-(p[1] * p[0].magnitude), p[0].id))
        if len(items) > max_per_slot:
            analysis.overflow[slot_id] = items[max_per_slot:]
            assignments[slot_id] = items[:max_per_slot]
    return analysis


def _fit_problem(fit: float) -> str | None:
    """Why ``fit`` is no fit, or None: a fit lies in [0, 1], so NaN and the
    infinities are outside too."""
    return None if 0.0 <= fit <= 1.0 else f"fit {fit} outside [0, 1]"


def _copy_problem(*copies) -> str | None:
    """The message for the first of ``copies``, each ``(name, found, expected,
    source)``, whose ``found`` value is not the ``expected`` one, else None;
    a boolean never equals a number, as in ``typed``."""
    for name, found, expected, source in copies:
        values = found.values() if isinstance(found, dict) else (found,)
        if found != expected or bool in map(type, values):
            return (f"{name} {json.dumps(found)} is not {json.dumps(expected)}, "
                    f"the one {source}")
    return None


def validate_analysis(analysis: OrganizedAnalysis) -> list[Violation]:
    """Check every OrganizedAnalysis invariant; empty list means valid."""
    out: list[Violation] = []
    schema = analysis.schema
    slot_ids = {s.id for s in schema.slots}
    seen_ids: dict[str, str] = {}
    for slot_id, items in analysis.assignments.items():
        if slot_id not in slot_ids:
            out.append(Violation("UnknownSlot", slot_id, f"slot {slot_id} not in schema"))
            continue
        if len(items) > analysis.max_per_slot:
            out.append(
                Violation(
                    "SlotOverflow",
                    slot_id,
                    f"{len(items)} factors in {slot_id}, max {analysis.max_per_slot}",
                )
            )
        for ins, fit in items:
            problem = _fit_problem(fit)
            if problem:
                out.append(Violation("BadFit", slot_id, problem))
            if ins.id in seen_ids:
                out.append(
                    Violation(
                        "DuplicateAssignment",
                        slot_id,
                        f"insight {ins.id!r} also in {seen_ids[ins.id]}",
                    )
                )
            seen_ids[ins.id] = slot_id
        ranks = [fit * ins.magnitude for ins, fit in items]
        if any(a < b - 1e-12 for a, b in zip(ranks, ranks[1:])):
            out.append(
                Violation("BadOrdering", slot_id, "factors not sorted by fit x magnitude")
            )
    for slot in schema.slots:
        if slot.id not in analysis.assignments:
            out.append(Violation("MissingSlot", slot.id, f"no assignment list for {slot.id}"))
    return out


def analysis_to_dict(analysis: OrganizedAnalysis) -> dict:
    """Documented interchange shape consumed by the diagram stage."""
    schema = analysis.schema
    attributes = analysis.slot_attributes
    slots = []
    for slot in schema.slots:
        slots.append(
            {
                "id": slot.id,
                "title": slot.title,
                "attribute": _attribute_json(attributes[slot.id]),
                "factors": [
                    {
                        "statement": ins.statement,
                        "fit": fit,
                        "magnitude": ins.magnitude,
                        "insight": insight_to_dict(ins),
                    }
                    for ins, fit in analysis.assignments.get(slot.id, [])
                ],
            }
        )
    return {
        "schema_kind": schema.kind,
        "subject": analysis.subject,
        "max_per_slot": analysis.max_per_slot,
        "slots": slots,
        "unplaced": [ins.statement for ins in analysis.unplaced],
        "overflow": {
            slot_id: [ins.statement for ins, _ in items]
            for slot_id, items in sorted(analysis.overflow.items())
        },
    }


def _attribute_json(attr: str | AxisScore | None) -> dict | None:
    """A slot attribute's interchange form: null, ``{"risk": level}`` or
    ``{"axis_score": number, "contributing": integer}``."""
    if isinstance(attr, AxisScore):
        return {"axis_score": attr.value, "contributing": attr.contributing}
    return None if attr is None else {"risk": attr}


def analysis_from_dict(d: dict) -> OrganizedAnalysis:
    """Rebuild a valid analysis from its interchange JSON; a wrongly typed
    field is a ``TypeError``, an out-of-range one (a fit included), a
    repeated or a missing slot, a ``validate_analysis`` violation, or a
    copy (a factor's ``statement`` and ``magnitude``, a slot's ``title``
    and ``attribute``) other than the one it derives from a ``ValueError``."""
    if not isinstance(d, dict):
        raise TypeError(f"top level must be an object, not {type(d).__name__}")
    max_per_slot = typed(d, "max_per_slot", int) if "max_per_slot" in d else DEFAULT_MAX_PER_SLOT
    schema = schema_for(typed(d, "schema_kind", str))
    assignments: dict[str, list[tuple[Insight, float]]] = {s.id: [] for s in schema.slots}
    given: dict[str, dict] = {}
    for slot_json in objects(d, "slots"):
        slot_id = typed(slot_json, "id", str)
        if slot_id in given:
            raise ValueError(f"slot {slot_id!r} is listed twice")
        factors = objects(slot_json, "factors")
        assignments[slot_id] = [
            (insight_from_dict(typed(f, "insight", dict)), typed(f, "fit", (int, float)))
            for f in factors
        ]
        # attributes are derived from the fits, so a bad fit is named first
        for f, (ins, fit) in zip(factors, assignments[slot_id]):
            problem = _fit_problem(fit) or _copy_problem(
                ("factor statement", f.get("statement"), ins.statement, "its insight gives"),
                ("factor magnitude", f.get("magnitude"), ins.magnitude, "its insight gives"))
            if problem:
                raise ValueError(f"slot {slot_id!r}: {problem}")
        given[slot_id] = slot_json
    for slot in schema.slots:
        if slot.id not in given:
            raise ValueError(f"slot {slot.id!r} is missing")
    analysis = OrganizedAnalysis(
        schema=schema,
        subject=typed(d, "subject", str),
        assignments=assignments,
        max_per_slot=max_per_slot,
    )
    violations = validate_analysis(analysis)
    if violations:
        raise ValueError("\n".join(
            f"violation [{v.code}] {v.slot_id}: {v.message}" for v in violations))
    for slot, attr in zip(schema.slots, analysis.slot_attributes.values()):
        problem = _copy_problem(
            ("title", given[slot.id].get("title"), slot.title, "its schema gives"),
            ("attribute", given[slot.id].get("attribute"), _attribute_json(attr),
             "its factors give"))
        if problem:
            raise ValueError(f"slot {slot.id!r}: {problem}")
    return analysis
