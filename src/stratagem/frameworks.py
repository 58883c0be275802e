"""Strategy-framework schemas, insight assignment, and slot attributes.

Assignment is deterministic: each slot carries an affinity table over
(theme, direction) pairs, an insight goes to its argmax-fit slot when the
fit clears the floor, and per-slot ranking is fit x magnitude. A Porter
slot's ordinal risk level and a Value Discipline slot's logistic axis
score in [0, 10) are derived from its displayed factors, never stored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .insights import (
    DIRECTIONS,
    Insight,
    THEME_TAGS,
    insight_from_dict,
    insight_to_dict,
    objects,
    typed,
)

FIT_FLOOR = 0.3
DEFAULT_MAX_PER_SLOT = 4

RISK_LEVELS = ("low", "moderate", "high", "intense")
# Weighted-mean risk score bands, closed on the left.
_RISK_BANDS = (0.25, 0.5, 0.75)


class UnknownKind(Exception):
    pass


@dataclass(frozen=True)
class AxisScore:
    value: float
    contributing: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 10.0:
            raise ValueError(f"axis score {self.value} outside [0, 10]")


def assign_risk(assignments: list[tuple[Insight, float]]) -> str:
    """Fit-weighted mean magnitude of negative insights, banded into levels."""
    negs = [(ins, fit) for ins, fit in assignments if ins.direction == "negative"]
    total_fit = sum(fit for _, fit in negs)
    if total_fit == 0:
        s = 0.0
    else:
        s = sum(ins.magnitude * fit for ins, fit in negs) / total_fit
    for level, bound in zip(RISK_LEVELS, _RISK_BANDS):
        if s < bound:
            return level
    return RISK_LEVELS[-1]


_DIR_SIGN = {"positive": 1.0, "negative": -1.0, "neutral": 0.0}


def score_axis(assignments: list[tuple[Insight, float]]) -> AxisScore:
    """Logistic map of summed signed fit x magnitude onto [0, 10); empty -> 5.0."""
    raw = sum(
        ins.magnitude * fit * _DIR_SIGN[ins.direction] for ins, fit in assignments
    )
    # exp(-raw) overflows below raw = -709.78; from -700 down, 1 + exp(raw)
    # is 1 in floating point, so the logistic is 10 * exp(raw).
    value = 10.0 / (1.0 + math.exp(-raw)) if raw >= -700 else 10.0 * math.exp(raw)
    return AxisScore(value=value, contributing=len(assignments))


@dataclass(frozen=True)
class SlotDescriptor:
    id: str
    title: str
    # Affinity key: (theme, direction); direction "*" matches any.
    affinity: tuple[tuple[tuple[str, str], float], ...]

    def __post_init__(self):
        if not any(w > 0 for _, w in self.affinity):
            raise ValueError(f"slot {self.id} has no nonzero affinity")
        for (theme, direction), w in self.affinity:
            if theme not in THEME_TAGS:
                raise ValueError(f"unknown theme {theme!r} in slot {self.id}")
            if direction not in DIRECTIONS + ("*",):
                raise ValueError(f"unknown direction {direction!r} in slot {self.id}")
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"affinity weight {w} outside [0, 1]")

    def fit(self, insight: Insight) -> float:
        table = dict(self.affinity)
        best = 0.0
        for theme in insight.themes:
            w = table.get((theme, insight.direction), table.get((theme, "*"), 0.0))
            best = max(best, w)
        return best


def _slot(id: str, title: str, affinity: dict[tuple[str, str], float]) -> SlotDescriptor:
    return SlotDescriptor(id, title, tuple(sorted(affinity.items())))


# The slots of each framework kind, built and checked once. The first
# porter5 slot is the diagram's hub.
_SLOTS: dict[str, tuple[SlotDescriptor, ...]] = {
    "swot": (
        _slot("strengths", "Strengths", {
            ("market-presence", "positive"): 1.0,
            ("brand-marketing", "positive"): 1.0,
            ("supply-chain", "positive"): 0.9,
            ("product-diversity", "positive"): 0.9,
            ("profitability", "positive"): 0.9,
            ("online-channel", "positive"): 0.9,
            ("public-sentiment", "positive"): 0.8,
            ("cost", "positive"): 0.8,
            ("growth", "positive"): 0.7,
        }),
        _slot("weaknesses", "Weaknesses", {
            ("online-channel", "negative"): 1.0,
            ("supply-chain", "negative"): 0.9,
            ("profitability", "negative"): 0.9,
            ("brand-marketing", "negative"): 0.9,
            ("market-presence", "negative"): 0.8,
            ("product-diversity", "negative"): 0.8,
            ("cost", "negative"): 0.8,
            ("public-sentiment", "negative"): 0.6,
            ("growth", "negative"): 0.6,
        }),
        _slot("opportunities", "Opportunities", {
            ("growth", "positive"): 0.9,
            ("growth", "neutral"): 0.4,
            ("online-channel", "negative"): 0.5,
            ("market-presence", "positive"): 0.6,
            ("product-diversity", "positive"): 0.5,
        }),
        _slot("threats", "Threats", {
            ("competition", "negative"): 1.0,
            ("competition", "*"): 0.8,
            ("public-sentiment", "negative"): 0.8,
            ("cost", "negative"): 0.5,
            ("growth", "negative"): 0.7,
        }),
    ),
    "porter5": (
        _slot("rivalry", "Competitive Rivalry", {
            ("competition", "*"): 1.0,
            ("market-presence", "*"): 0.6,
            ("brand-marketing", "*"): 0.5,
        }),
        _slot("supplier_power", "Supplier Power",
              {("supply-chain", "*"): 1.0, ("cost", "*"): 0.7}),
        _slot("buyer_power", "Buyer Power",
              {("public-sentiment", "*"): 0.9, ("online-channel", "*"): 0.6}),
        _slot("new_entrants", "Threat of New Entrants",
              {("growth", "*"): 0.8, ("online-channel", "*"): 0.5}),
        _slot("substitutes", "Threat of Substitutes",
              {("product-diversity", "*"): 0.9, ("profitability", "*"): 0.4}),
    ),
    "virtuous_cycle": (
        _slot("invest", "Invest",
              {("brand-marketing", "*"): 0.9, ("cost", "*"): 0.7}),
        _slot("improve_offering", "Improve Offering", {
            ("product-diversity", "*"): 0.9,
            ("supply-chain", "*"): 0.8,
            ("online-channel", "*"): 0.7,
        }),
        _slot("attract_customers", "Attract Customers",
              {("public-sentiment", "*"): 0.9, ("market-presence", "*"): 0.8}),
        _slot("grow_revenue", "Grow Revenue",
              {("growth", "*"): 1.0, ("profitability", "*"): 0.95}),
    ),
    "value_discipline": (
        _slot("operational_excellence", "Operational Excellence", {
            ("supply-chain", "*"): 1.0,
            ("cost", "*"): 0.9,
            ("profitability", "*"): 0.8,
        }),
        _slot("product_leadership", "Product Leadership", {
            ("product-diversity", "*"): 1.0,
            ("brand-marketing", "*"): 0.8,
            ("growth", "*"): 0.7,
        }),
        _slot("customer_intimacy", "Customer Intimacy", {
            ("public-sentiment", "*"): 1.0,
            ("online-channel", "*"): 0.7,
            ("market-presence", "*"): 0.6,
        }),
    ),
}

# The attribute each kind derives for a slot from its displayed factors;
# the other kinds' slots carry none.
_SLOT_ATTRIBUTE = {"porter5": assign_risk, "value_discipline": score_axis}

FRAMEWORK_KINDS = tuple(_SLOTS)


@dataclass(frozen=True)
class FrameworkSchema:
    """One of the four framework kinds, showing at most ``max_per_slot``
    factors per slot."""

    kind: str
    max_per_slot: int = DEFAULT_MAX_PER_SLOT

    def __post_init__(self):
        if self.kind not in _SLOTS:
            raise UnknownKind(f"unknown framework kind {self.kind!r}")
        if self.max_per_slot < 1:
            raise ValueError("max_per_slot must be positive")

    @property
    def slots(self) -> tuple[SlotDescriptor, ...]:
        return _SLOTS[self.kind]


def schema_for(kind: str, max_per_slot: int = DEFAULT_MAX_PER_SLOT) -> FrameworkSchema:
    return FrameworkSchema(kind, max_per_slot)


@dataclass(frozen=True)
class Violation:
    code: str
    slot_id: str | None
    message: str


@dataclass
class OrganizedAnalysis:
    schema: FrameworkSchema
    subject: str
    assignments: dict[str, list[tuple[Insight, float]]]
    overflow: dict[str, list[tuple[Insight, float]]] = field(default_factory=dict)
    unplaced: list[Insight] = field(default_factory=list)

    @property
    def slot_attributes(self) -> dict[str, str | AxisScore | None]:
        """Each schema slot's risk level, axis score or None, derived from
        its displayed factors on every read."""
        derive = _SLOT_ATTRIBUTE.get(self.schema.kind)
        return {
            slot.id: derive(self.assignments.get(slot.id, [])) if derive else None
            for slot in self.schema.slots
        }


def classify_insight(insight: Insight, schema: FrameworkSchema) -> dict[str, float]:
    """Fit score per slot: max affinity over the insight's themes."""
    return {slot.id: slot.fit(insight) for slot in schema.slots}


def organize(
    insights: list[Insight],
    schema: FrameworkSchema,
    subject: str = "",
) -> OrganizedAnalysis:
    """Argmax-assign each insight to a slot, then ``finalize``.

    Every input insight ends up displayed, in overflow, or unplaced.
    """
    assignments: dict[str, list[tuple[Insight, float]]] = {
        s.id: [] for s in schema.slots
    }
    unplaced: list[Insight] = []
    for ins in insights:
        fits = classify_insight(ins, schema)
        best_slot = max(schema.slots, key=lambda s: fits[s.id])  # earliest on ties
        best_fit = fits[best_slot.id]
        if best_fit >= FIT_FLOOR:
            assignments[best_slot.id].append((ins, best_fit))
        else:
            unplaced.append(ins)
    return finalize(assignments, schema, subject, unplaced)


def finalize(
    assignments: dict[str, list[tuple[Insight, float]]],
    schema: FrameworkSchema,
    subject: str = "",
    unplaced: list[Insight] | None = None,
) -> OrganizedAnalysis:
    """Rank each slot by fit x magnitude and truncate to ``max_per_slot``
    into overflow. ``assignments`` holds a list for every schema slot and
    is sorted and truncated in place."""
    overflow: dict[str, list[tuple[Insight, float]]] = {}
    for slot_id, items in assignments.items():
        items.sort(key=lambda p: (-(p[1] * p[0].magnitude), p[0].id))
        if len(items) > schema.max_per_slot:
            overflow[slot_id] = items[schema.max_per_slot:]
            assignments[slot_id] = items[: schema.max_per_slot]
    return OrganizedAnalysis(
        schema=schema,
        subject=subject,
        assignments=assignments,
        overflow=overflow,
        unplaced=unplaced or [],
    )


def _fit_problem(fit: float) -> str | None:
    """Why ``fit`` is no fit, or None: a fit lies in [0, 1], so NaN and the
    infinities are outside too."""
    return None if 0.0 <= fit <= 1.0 else f"fit {fit} outside [0, 1]"


def _copy_problem(factor: dict, ins: Insight) -> str | None:
    """Why ``factor``'s copy of its insight's statement or magnitude is not
    the insight's, or None; a boolean is no magnitude."""
    for key, expected in (("statement", ins.statement), ("magnitude", ins.magnitude)):
        found = factor.get(key)
        if found != expected or isinstance(found, bool):
            return (f"factor {key} {json.dumps(found)} is not {json.dumps(expected)}, "
                    "the one its insight gives")
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
        if len(items) > schema.max_per_slot:
            out.append(
                Violation(
                    "SlotOverflow",
                    slot_id,
                    f"{len(items)} factors in {slot_id}, max {schema.max_per_slot}",
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
        "max_per_slot": schema.max_per_slot,
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
    """Rebuild an analysis from its interchange JSON; a wrongly typed field
    is a ``TypeError``, an out-of-range one (a fit included), a repeated or
    a missing slot, a slot ``attribute`` other than the one its factors
    give, or a factor ``statement`` or ``magnitude`` other than its
    insight's a ``ValueError``."""
    if not isinstance(d, dict):
        raise TypeError(f"top level must be an object, not {type(d).__name__}")
    max_per_slot = typed(d, "max_per_slot", int) if "max_per_slot" in d else DEFAULT_MAX_PER_SLOT
    schema = schema_for(typed(d, "schema_kind", str), max_per_slot)
    assignments: dict[str, list[tuple[Insight, float]]] = {s.id: [] for s in schema.slots}
    given: dict[str, object] = {}
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
            problem = _fit_problem(fit) or _copy_problem(f, ins)
            if problem:
                raise ValueError(f"slot {slot_id!r}: {problem}")
        given[slot_id] = slot_json.get("attribute")
    for slot in schema.slots:
        if slot.id not in given:
            raise ValueError(f"slot {slot.id!r} is missing")
    analysis = OrganizedAnalysis(
        schema=schema,
        subject=typed(d, "subject", str),
        assignments=assignments,
    )
    for slot_id, attr in analysis.slot_attributes.items():
        expected, found = _attribute_json(attr), given[slot_id]
        # a boolean never equals a number, as in ``typed``
        if found != expected or isinstance(found, dict) and bool in map(type, found.values()):
            raise ValueError(f"slot {slot_id!r}: attribute {json.dumps(found)} is not "
                             f"{json.dumps(expected)}, the one its factors give")
    return analysis
