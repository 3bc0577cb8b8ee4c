"""Entity-attribute linking via a mixture of two probability signals.

For each attribute, the entities of the sentence compete: knowledge-base
compatibility gives ``p_sup``, syntactic proximity gives ``p_dep``, and the
final score is the convex mixture ``theta * p_sup + (1 - theta) * p_dep``.
Each attribute is assigned to its highest-scoring entity independently; an
entity may win several attributes, an attribute links to at most one entity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .attributes import AttributeKind, AttributeMention
from .entities import EntityMention
from .errors import UnknownConcept
from .kb import CompatibilityWeights, DEFAULT_WEIGHTS, KnowledgeBase, score_compatibility

DEFAULT_THETA = 0.5
DEFAULT_MIN_SCORE = 0.2


@dataclass(frozen=True)
class LinkerConfig:
    theta: float = DEFAULT_THETA
    min_score: float = DEFAULT_MIN_SCORE
    same_sentence_only: bool = True

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")


@dataclass
class RelationCandidate:
    """One (entity, attribute) pair with its two signals and mixed score."""

    entity: EntityMention
    attribute: AttributeMention
    p_dep: float = 0.0
    p_sup: float = 0.0
    score: float = 0.0
    distance: float = math.inf  # syntactic distance backing p_dep


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


def _attribute_key(a: AttributeMention) -> tuple[int, int, int]:
    return (a.sentence_index, a.start, a.end)


def generate_candidates(
    entities: Sequence[EntityMention],
    attributes: Sequence[AttributeMention],
    config: LinkerConfig,
) -> list[RelationCandidate]:
    """Cross product of entities and attributes, attribute-major order.

    With ``same_sentence_only`` only pairs sharing a sentence are kept.
    Pairs whose attribute span lies inside the entity span are excluded.
    """

    out = []
    for a in attributes:
        for e in entities:
            if config.same_sentence_only and e.sentence_index != a.sentence_index:
                continue
            if (
                e.sentence_index == a.sentence_index
                and a.start >= e.start
                and a.end <= e.end
            ):
                continue
            out.append(RelationCandidate(entity=e, attribute=a))
    return out


def group_by_attribute(
    candidates: Sequence[RelationCandidate],
) -> list[list[RelationCandidate]]:
    groups: dict[tuple[int, int, int], list[RelationCandidate]] = {}
    for c in candidates:
        groups.setdefault(_attribute_key(c.attribute), []).append(c)
    return [groups[k] for k in sorted(groups)]


def p_sup(
    candidates: Sequence[RelationCandidate],
    kb: KnowledgeBase,
    weights: CompatibilityWeights = DEFAULT_WEIGHTS,
) -> list[float]:
    """Normalized compatibility over the entities competing for one attribute.

    Raw compatibilities are normalized to a distribution; when every raw
    score is zero the distribution falls back to uniform.
    """

    if not candidates:
        return []
    keys = {_attribute_key(c.attribute) for c in candidates}
    if len(keys) > 1:
        raise ValueError("p_sup expects candidates of a single attribute")
    # The attribute is shared, so compatibility depends on the concept alone.
    by_concept: dict[str, float] = {}
    raw = []
    for c in candidates:
        concept_id = c.entity.concept_id
        value = by_concept.get(concept_id)
        if value is None:
            entry = kb.entry(concept_id)
            if entry is None:
                raise UnknownConcept(f"concept {concept_id} not in knowledge base")
            value = score_compatibility(entry, c.attribute, weights).value
            by_concept[concept_id] = value
        raw.append(value)
    total = sum(raw)
    if total > 0:
        return [r / total for r in raw]
    return [1.0 / len(raw)] * len(raw)


def mix(candidate: RelationCandidate, config: LinkerConfig) -> float:
    """Convex mixture of the two signals under the configured theta."""

    return config.theta * candidate.p_sup + (1.0 - config.theta) * candidate.p_dep


def _char_gap(e: EntityMention, a: AttributeMention) -> float:
    if e.sentence_index != a.sentence_index:
        return math.inf
    if e.end <= a.start:
        return a.start - e.end
    if a.end <= e.start:
        return e.start - a.end
    return 0.0


def _beats(challenger: RelationCandidate, incumbent: RelationCandidate) -> bool:
    if challenger.score != incumbent.score:
        return challenger.score > incumbent.score
    if challenger.distance != incumbent.distance:
        return challenger.distance < incumbent.distance
    c_gap = _char_gap(challenger.entity, challenger.attribute)
    i_gap = _char_gap(incumbent.entity, incumbent.attribute)
    if c_gap != i_gap:
        return c_gap < i_gap
    c_pos = (challenger.entity.sentence_index, challenger.entity.start)
    i_pos = (incumbent.entity.sentence_index, incumbent.entity.start)
    return c_pos < i_pos


def assign(
    candidates: Sequence[RelationCandidate], config: LinkerConfig
) -> list[Relation]:
    """Pick the best-scoring entity per attribute, thresholded by min_score.

    Ties break by smaller syntactic distance, then nearer character offset,
    then leftmost entity.  Output is ordered by attribute position.
    """

    best: dict[tuple[int, int, int], RelationCandidate] = {}
    for c in candidates:
        key = _attribute_key(c.attribute)
        incumbent = best.get(key)
        if incumbent is None or _beats(c, incumbent):
            best[key] = c
    relations = [
        Relation(
            entity=c.entity,
            attribute=c.attribute,
            label=relation_label(c.attribute),
            score=c.score,
        )
        for c in best.values()
        if c.score >= config.min_score
    ]
    relations.sort(key=lambda r: _attribute_key(r.attribute))
    return relations
