"""Entity-attribute linking via a mixture of two probability signals.

Each attribute is linked on its own, once, by :func:`link_attribute`.  It
receives the entities competing for the attribute, in mention order, and
one syntactic distance per entity (the pipeline decides who competes and
measures the distances).  Knowledge-base compatibility gives ``p_sup``,
the softmin of the distances gives ``p_dep``, and each entity scores the
convex mixture ``theta * p_sup + (1 - theta) * p_dep``.  The best entity
wins; ties break by smaller distance, then nearer character offset, then
leftmost position.  The winner becomes a :class:`Relation` only at or
above ``min_score``.  An entity may win several attributes, an attribute
links to at most one entity.

Every setting (``theta``, ``min_score``, the compatibility ``weights`` and
the softmin temperature ``tau``) comes from the one
:class:`~critex.pipeline.PipelineConfig`, which validates them when it is
created.

The routine works on plain lists with one float per competing entity and
builds no object per entity-attribute pair, so a long record's linking
stays a few list passes per attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .attributes import AttributeKind, AttributeMention, attribute_shape
from .entities import EntityMention
from .errors import UnknownConcept
from .kb import CompatibilityWeights, DEFAULT_WEIGHTS, KnowledgeBase, compatibility_terms
from .syntax import p_dep

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig


@dataclass(frozen=True)
class Relation:
    """A directed link from an entity to its attribute."""

    entity: EntityMention
    attribute: AttributeMention
    label: str
    score: float


def relation_label(attribute: AttributeMention) -> str:
    if attribute.kind in (AttributeKind.TEMPORAL, AttributeKind.FREQUENCY):
        return "has_temporal"
    if attribute.kind is AttributeKind.QUALIFIER:
        return "has_qualifier"
    return "has_value"


def _p_sup(
    attribute: AttributeMention,
    concepts: Sequence[str],
    kb: KnowledgeBase,
    weights: CompatibilityWeights = DEFAULT_WEIGHTS,
) -> list[float]:
    """Normalized compatibility over the entities competing for one attribute.

    ``concepts`` holds each competitor's concept id.  The attribute is
    shared, so compatibility depends on the concept alone and each distinct
    concept is scored once, in order of first appearance.  Raw
    compatibilities are normalized to a distribution; when every raw score
    is zero the distribution falls back to uniform.
    """

    shape = attribute_shape(attribute)
    value: dict[str, float] = {}
    for concept_id in dict.fromkeys(concepts):
        entry = kb.entry(concept_id)
        if entry is None:
            raise UnknownConcept(f"concept {concept_id} not in knowledge base")
        value[concept_id] = compatibility_terms(entry, attribute, shape, weights)[0]
    raw = [value[c] for c in concepts]
    total = sum(raw)
    if total > 0:
        return [r / total for r in raw]
    return [1.0 / len(raw)] * len(raw)


def _mix(sup: Sequence[float], dep: Sequence[float], theta: float) -> list[float]:
    """Convex mixture ``theta * p_sup + (1 - theta) * p_dep``, entity by entity."""

    rest = 1.0 - theta
    return [theta * s + rest * d for s, d in zip(sup, dep)]


def _char_gap(e: EntityMention, a: AttributeMention) -> float:
    if e.sentence_index != a.sentence_index:
        return math.inf
    if e.end <= a.start:
        return a.start - e.end
    if a.end <= e.start:
        return e.start - a.end
    return 0.0


def _pick(
    attribute: AttributeMention,
    entities: Sequence[EntityMention],
    distances: Sequence[float],
    scores: list[float],
    min_score: float,
) -> Relation | None:
    """The highest-scoring entity's relation, or None below ``min_score``.

    Ties on the score break by smaller distance, then smaller character
    gap (infinite across sentences), then ``(sentence_index, start)``.
    """

    top = max(scores)
    if top < min_score:
        return None
    best = scores.index(top)
    if scores.count(top) > 1:
        best = min(
            (i for i, s in enumerate(scores) if s == top),
            key=lambda i: (
                distances[i],
                _char_gap(entities[i], attribute),
                entities[i].sentence_index,
                entities[i].start,
            ),
        )
    return Relation(
        entity=entities[best],
        attribute=attribute,
        label=relation_label(attribute),
        score=top,
    )


def link_attribute(
    attribute: AttributeMention,
    entities: Sequence[EntityMention],
    distances: Sequence[float],
    kb: KnowledgeBase,
    config: PipelineConfig,
) -> Relation | None:
    """Link one attribute to the best of the entities competing for it.

    ``entities`` are the competitors in mention order and ``distances``
    their syntactic distances to the attribute.  Returns None when no
    entity competes or the best score is below ``config.min_score``.
    Raises :class:`UnknownConcept` for the first competitor whose concept
    is not in ``kb``.
    """

    if not entities:
        return None
    dep = p_dep(distances, tau=config.tau)
    sup = _p_sup(attribute, [e.concept_id for e in entities], kb, config.weights)
    return _pick(attribute, entities, distances, _mix(sup, dep, config.theta), config.min_score)
