"""End-to-end annotation: text in, structured record out.

The stages run in a fixed order: sentence/token segmentation, dictionary
entity recognition plus abbreviation expansion, attribute parsing, then
linking, one attribute at a time.  The linker's ``_Competitors``, built
once per record over its sentences, mentions and optional external
parses, lists the entities that compete for each attribute with their
syntactic distances, scores them and keeps the best (see
:mod:`critex.linker`).
Everything is deterministic: the same record, knowledge base and config
always give the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .attributes import AttributeMention, extract_attributes
from .entities import EntityMention, link_abbreviations, recognize_entities
from .kb import CompatibilityWeights, KnowledgeBase
from .io_eval import RelationPair, StructuredRecord
from .linker import Relation, _Competitors
from .segmentation import SentenceRecord, SplitMode, split_records
from .syntax import DEFAULT_BOUNDARY_PENALTY, DEFAULT_TAU, DependencyParse


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
        relation = competitors.link(a, kb)
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
