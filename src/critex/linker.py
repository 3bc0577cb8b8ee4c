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

Under cross-sentence linking most entities of a long record lie so far
from an attribute that their softmin weight ``exp(-(d - d_min) / tau)`` is
exactly 0.0.  The pipeline passes those by concept id alone, in
:class:`ConceptColumns`, and the result stays bit for bit the one of
scoring every entity:

- a weight of 0.0 leaves the ``p_dep`` total unchanged (also under the
  compensated ``sum()`` of CPython 3.12), so the near entities keep their
  ``p_dep`` and a far entity's is exactly 0.0;
- a far entity thus scores ``theta * p_sup + (1 - theta) * 0.0``, which its
  concept alone decides; the best far score is that of the far concept
  with the largest compatibility, found without a per-entity loop;
- the ``p_sup`` total still sums every competitor, near and far, in
  mention order;
- far entities get a distance only when their score reaches the best near
  score, and then enter the same tie-break.

Every setting (``theta``, ``min_score``, the compatibility ``weights`` and
the softmin temperature ``tau``) comes from the one
:class:`~critex.pipeline.PipelineConfig`, which validates them when it is
created.

The routine works on plain lists with one float per near competitor and
builds no object per entity-attribute pair, so a long record's linking
stays a few list passes per attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Container, Iterable, NamedTuple, Sequence

from .attributes import AttributeKind, AttributeMention, attribute_shape
from .entities import EntityMention
from .errors import UnknownConcept
from .kb import CompatibilityWeights, DEFAULT_WEIGHTS, KnowledgeBase, compatibility_terms
from .syntax import softmin_weights

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


class ConceptColumns(NamedTuple):
    """The concept ids of one attribute's competitors, as the pipeline keeps them.

    ``near`` runs parallel to the entities given to :func:`link_attribute`.
    ``before`` and ``after`` belong to the far competitors, those whose
    ``p_dep`` weight is exactly 0.0, ahead of and behind the near ones, in
    mention order.  ``scored`` lists every concept id a competitor may
    carry, each once; it may list more.  ``tied(concept_ids)`` returns
    ``(entity, distance)`` for each far competitor whose concept is in
    ``concept_ids``, in mention order.
    """

    near: Sequence[str]
    before: Sequence[str]
    after: Sequence[str]
    scored: Iterable[str]
    tied: Callable[[Container[str]], list[tuple[EntityMention, float]]]


def _p_sup(
    attribute: AttributeMention,
    concepts: Sequence[str],
    kb: KnowledgeBase,
    weights: CompatibilityWeights = DEFAULT_WEIGHTS,
    columns: ConceptColumns | None = None,
) -> dict[str, float]:
    """Normalized compatibility of each competing concept with one attribute.

    ``concepts`` holds the competitors' concept ids in mention order;
    ``columns`` adds the far competitors before and after them.  The
    attribute is shared, so compatibility depends on the concept alone:
    each concept is scored once, and the result maps a concept id to the
    ``p_sup`` of every competitor that carries it.  Raw compatibilities are
    normalized by their total over all competitors, summed in mention
    order; when that total is zero the distribution falls back to uniform.
    Raises :class:`UnknownConcept` for the first competitor whose concept
    is not in ``kb``.
    """

    shape = attribute_shape(attribute)
    raw: dict[str, float] = {}
    for concept_id in columns.scored if columns else dict.fromkeys(concepts):
        entry = kb.entry(concept_id)
        if entry is not None:
            raw[concept_id] = compatibility_terms(entry, attribute, shape, weights)[0]
    competitors = chain(columns.before, concepts, columns.after) if columns else concepts
    try:
        total = sum(map(raw.__getitem__, competitors))
    except KeyError as exc:  # the first competitor whose concept is unknown
        raise UnknownConcept(f"concept {exc.args[0]} not in knowledge base") from None
    if total > 0:
        return {c: r / total for c, r in raw.items()}
    n = len(concepts) + (len(columns.before) + len(columns.after) if columns else 0)
    return dict.fromkeys(raw, 1.0 / n)


def _mix(
    sup: Iterable[float], dep: Iterable[float], theta: float, total: float = 1.0
) -> list[float]:
    """Convex mixture ``theta * p_sup + (1 - theta) * p_dep``, entity by entity.

    ``p_dep`` is ``dep`` divided by ``total``, so softmin weights can be
    mixed as they are normalized; dividing by 1.0 is exact.
    """

    rest = 1.0 - theta
    return [theta * s + rest * (d / total) for s, d in zip(sup, dep)]


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
    columns: ConceptColumns | None = None,
) -> Relation | None:
    """Link one attribute to the best of the entities competing for it.

    ``entities`` are the competitors in mention order and ``distances``
    their syntactic distances to the attribute.  ``columns`` adds the far
    competitors, whose ``p_dep`` weight is exactly 0.0 (see the module
    docstring); the entity at the smallest distance must be among
    ``entities``.  Returns None when no entity competes or the best score
    is below ``config.min_score``.  Raises :class:`UnknownConcept` for the
    first competitor whose concept is not in ``kb``.
    """

    if not entities:
        return None
    concepts = columns.near if columns else [e.concept_id for e in entities]
    weights = softmin_weights(distances, tau=config.tau)
    sup = _p_sup(attribute, concepts, kb, config.weights, columns)
    scores = _mix(map(sup.__getitem__, concepts), weights, config.theta, sum(weights))
    if columns and (columns.before or columns.after):
        # a far entity's p_dep is 0.0, so its score follows from its concept,
        # and the mixture grows with p_sup
        far_sup = max(map(sup.__getitem__, chain(columns.before, columns.after)))
        best = _mix([far_sup], [0.0], config.theta)[0]
        if best >= max(scores):
            far_score = dict(zip(sup, _mix(sup.values(), repeat(0.0), config.theta)))
            tied = columns.tied({c for c, score in far_score.items() if score == best})
            entities = [*entities, *(e for e, _ in tied)]
            distances = [*distances, *(d for _, d in tied)]
            scores += [best] * len(tied)
    return _pick(attribute, entities, distances, scores, config.min_score)
