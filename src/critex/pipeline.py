"""End-to-end annotation: text in, structured record out.

The stages run in a fixed order: sentence/token segmentation, dictionary
entity recognition plus abbreviation expansion, attribute parsing, then
linking, one attribute at a time.  For each attribute, :class:`_Competitors`
lists the entities that compete for it with their syntactic distances, read
off columns built once per record (external parses when supplied, otherwise
the clause-proximity heuristic; global token positions across sentences),
and :func:`~critex.linker.link_attribute` scores them and keeps the best.
Everything is deterministic: the same record, knowledge base and config
always give the same output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .attributes import AttributeMention, extract_attributes
from .entities import EntityMention, link_abbreviations, recognize_entities
from .kb import CompatibilityWeights, KnowledgeBase
from .io_eval import RelationPair, StructuredRecord
from .linker import Relation, link_attribute
from .segmentation import SentenceRecord, SplitMode, split_records
from .syntax import (
    DEFAULT_BOUNDARY_PENALTY,
    DEFAULT_TAU,
    ClauseIndex,
    DependencyParse,
    heuristic_distance,
    path_distance,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the pipeline, linker included; checked when created."""

    mode: SplitMode = SplitMode.LINES
    theta: float = 0.5
    min_score: float = 0.2
    cross_sentence: bool = False
    tau: float = DEFAULT_TAU
    boundary_penalty: float = DEFAULT_BOUNDARY_PENALTY
    weights: CompatibilityWeights = field(default_factory=CompatibilityWeights)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.boundary_penalty) and self.boundary_penalty >= 0):
            raise ValueError(
                f"boundary_penalty must be finite and >= 0, got {self.boundary_penalty}"
            )
        for name in ("theta", "min_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
                raise ValueError(f"{name} must be in [0, 1], got {value}")


DEFAULT_CONFIG = PipelineConfig()


class _Competitors:
    """The entities competing for each attribute of one record.

    Built once per record over the mentions, which come ordered by
    ``(sentence_index, start)``: their sentence indexes and, with
    cross-sentence linking, their global token positions.  :meth:`of` lists
    an attribute's competitors in mention order with their distances.
    """

    def __init__(
        self,
        sentences: Sequence[SentenceRecord],
        mentions: Sequence[EntityMention],
        config: PipelineConfig,
        parses: Sequence[DependencyParse | None] | None,
    ):
        self._sentences = sentences
        self._clause_indexes: list[ClauseIndex | None] = [None] * len(sentences)
        self._before = list(accumulate((len(s.tokens) for s in sentences), initial=0))
        self._mentions = list(mentions)
        self._sentence_of = [m.sentence_index for m in mentions]
        self._parses = parses or ()
        self._penalty = config.boundary_penalty
        self._cross = config.cross_sentence
        if self._cross:
            spans = [self._position(m) for m in mentions]
            self._lefts = [left for left, _ in spans]
            self._rights = [right for _, right in spans]

    def _clauses(self, sentence_index: int) -> ClauseIndex:
        """The sentence's :class:`ClauseIndex`, built on first use."""

        index = self._clause_indexes[sentence_index]
        if index is None:
            index = self._clause_indexes[sentence_index] = ClauseIndex(
                self._sentences[sentence_index]
            )
        return index

    def _position(self, m: EntityMention | AttributeMention) -> tuple[int, int]:
        """Global token positions ``(left, right)`` of a mention's span.

        ``left`` counts the record's tokens that end at or before the span
        starts, ``right`` those that start before it ends.  The tokens
        strictly between an earlier span and a later one are then ``left``
        of the later minus ``right`` of the earlier.
        """

        base = self._before[m.sentence_index]
        index = self._clauses(m.sentence_index)
        return (
            base + bisect_right(index.ends, m.start),
            base + bisect_left(index.starts, m.end),
        )

    def of(self, a: AttributeMention) -> tuple[list[EntityMention], list[float]]:
        """``a``'s competitors and their distances to it.

        Entities of ``a``'s sentence compete unless ``a`` lies inside their
        span; with cross-sentence linking every other entity competes too.
        Within the sentence the distance comes from the sentence's parse
        when one is supplied and no other sentence competes, otherwise from
        :func:`heuristic_distance`.  Across sentences it is the number of
        tokens strictly between the two spans plus ``boundary_penalty`` per
        sentence boundary crossed.
        """

        s_a, mentions, penalty = a.sentence_index, self._mentions, self._penalty
        lo = bisect_left(self._sentence_of, s_a)
        hi = bisect_right(self._sentence_of, s_a, lo)
        local = [e for e in mentions[lo:hi] if not (e.start <= a.start and a.end <= e.end)]
        others = self._cross and (lo > 0 or hi < len(mentions))
        parse = self._parses[s_a] if s_a < len(self._parses) else None
        if parse is not None and not others:
            distances = [path_distance(parse, e, a) for e in local]
        else:
            clauses = self._clauses(s_a)
            distances = [
                heuristic_distance(clauses, e, a, boundary_penalty=penalty) for e in local
            ]
        if not others:
            return local, distances
        left, right = self._position(a)
        sentence_of = self._sentence_of
        before = [
            float(left - r) + penalty * (s_a - s)
            for r, s in zip(self._rights[:lo], sentence_of[:lo])
        ]
        after = [
            float(l - right) + penalty * (s - s_a)
            for l, s in zip(self._lefts[hi:], sentence_of[hi:])
        ]
        return mentions[:lo] + local + mentions[hi:], before + distances + after


def _abs_span(sentences, sentence_index: int, start: int, end: int) -> tuple[int, int]:
    offset = sentences[sentence_index].char_offset
    return offset + start, offset + end


def _entity_payload(sentences, m: EntityMention) -> dict:
    start, end = _abs_span(sentences, m.sentence_index, m.start, m.end)
    return {
        "surface": m.surface,
        "start": start,
        "end": end,
        "concept_id": m.concept_id,
        "matched_term": m.matched_term,
        "sentence_index": m.sentence_index,
    }


def _num(x: float) -> float | int:
    return int(x) if float(x).is_integer() else x


def _attribute_payload(sentences, a: AttributeMention) -> dict:
    start, end = _abs_span(sentences, a.sentence_index, a.start, a.end)
    return {
        "surface": a.surface,
        "start": start,
        "end": end,
        "kind": a.kind.value,
        "comparator": a.comparator.name if a.comparator else None,
        "values": [_num(v) for v in a.values],
        "unit": a.unit,
        "time_unit": a.time_unit.name if a.time_unit else None,
        "anchor": a.anchor,
        "sentence_index": a.sentence_index,
    }


def annotate_record(
    record_id: str,
    text: str,
    kb: KnowledgeBase,
    config: PipelineConfig = DEFAULT_CONFIG,
    parses: Sequence[DependencyParse | None] | None = None,
) -> StructuredRecord:
    """Run the full pipeline on one record.

    ``parses`` optionally supplies one external dependency parse per
    sentence (None entries fall back to the heuristic).  The compact
    relations echo surfaces verbatim; the extended payload carries
    record-level offsets, payloads, scores and unlinked attributes.
    """

    sentences = split_records(text, config.mode, record_id=record_id)
    return _annotate_sentences(record_id, text, sentences, kb, config, parses)


def _annotate_sentences(
    record_id: str,
    text: str,
    sentences: Sequence[SentenceRecord],
    kb: KnowledgeBase,
    config: PipelineConfig,
    parses: Sequence[DependencyParse | None] | None,
) -> StructuredRecord:
    """:func:`annotate_record` after the split.

    ``sentences`` must be ``split_records(text, config.mode,
    record_id=record_id)``; a caller that has split the record already, to
    align parses to it, passes them here instead of splitting it again.
    """

    mentions: list[EntityMention] = []
    for sentence in sentences:
        mentions.extend(recognize_entities(sentence, kb))
    mentions = link_abbreviations(sentences, mentions)
    mentions_by_sentence: dict[int, list[EntityMention]] = {}
    for m in mentions:
        mentions_by_sentence.setdefault(m.sentence_index, []).append(m)

    attributes: list[AttributeMention] = []
    for sentence in sentences:
        spans = [
            (m.start, m.end)
            for m in mentions_by_sentence.get(sentence.sentence_index, ())
        ]
        attributes.extend(extract_attributes(sentence, kb, entity_spans=spans))

    competitors = _Competitors(sentences, mentions, config, parses)
    relations = []
    for a in attributes:
        entities, distances = competitors.of(a)
        relation = link_attribute(a, entities, distances, kb, config)
        if relation is not None:
            relations.append(relation)
    return _build_record(record_id, text, sentences, mentions, attributes, relations)


def _build_record(
    record_id: str,
    text: str,
    sentences: Sequence[SentenceRecord],
    mentions: Sequence[EntityMention],
    attributes: Sequence[AttributeMention],
    relations: Sequence[Relation],
) -> StructuredRecord:
    entity_payloads = [_entity_payload(sentences, m) for m in mentions]
    attribute_payloads = [_attribute_payload(sentences, a) for a in attributes]
    entity_index = {
        (m.sentence_index, m.start, m.end): i for i, m in enumerate(mentions)
    }
    attribute_index = {
        (a.sentence_index, a.start, a.end): i for i, a in enumerate(attributes)
    }

    pairs = []
    relation_payloads = []
    linked_attrs = set()
    for r in relations:
        pairs.append(RelationPair(entity=r.entity.surface, attribute=r.attribute.surface))
        a_key = (r.attribute.sentence_index, r.attribute.start, r.attribute.end)
        e_key = (r.entity.sentence_index, r.entity.start, r.entity.end)
        linked_attrs.add(a_key)
        relation_payloads.append(
            {
                "entity": entity_index[e_key],
                "attribute": attribute_index[a_key],
                "label": r.label,
                "score": r.score,
            }
        )
    unlinked = [
        attribute_payloads[i]
        for i, a in enumerate(attributes)
        if (a.sentence_index, a.start, a.end) not in linked_attrs
    ]
    extended = {
        "entities": entity_payloads,
        "attributes": attribute_payloads,
        "relations": relation_payloads,
        "scores": [r.score for r in relations],
        "unlinked_attributes": unlinked,
    }
    return StructuredRecord(
        id=record_id, text=text, relations=pairs, extended=extended
    )
