"""End-to-end annotation: text in, structured record out.

The stages run in a fixed order: sentence/token segmentation, dictionary
entity recognition plus abbreviation expansion, attribute parsing, syntactic
distances (external parses when supplied, otherwise the clause-proximity
heuristic), compatibility scoring, mixture, and per-attribute assignment.
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
from .kb import CompatibilityWeights, DEFAULT_WEIGHTS, KnowledgeBase
from .io_eval import RelationPair, StructuredRecord
from .linker import (
    DEFAULT_MIN_SCORE,
    DEFAULT_THETA,
    LinkerConfig,
    Relation,
    RelationCandidate,
    assign,
    generate_candidates,
    group_by_attribute,
    mix,
    p_sup,
)
from .segmentation import SentenceRecord, SplitMode, split_records
from .syntax import (
    DEFAULT_BOUNDARY_PENALTY,
    DEFAULT_TAU,
    ClauseIndex,
    DependencyParse,
    SignalSource,
    SyntacticSignal,
    heuristic_distance,
    p_dep,
    path_distance,
)


@dataclass(frozen=True)
class PipelineConfig:
    mode: SplitMode = SplitMode.LINES
    theta: float = DEFAULT_THETA
    min_score: float = DEFAULT_MIN_SCORE
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
        self.linker_config()  # validates theta and min_score

    def linker_config(self) -> LinkerConfig:
        return LinkerConfig(
            theta=self.theta,
            min_score=self.min_score,
            same_sentence_only=not self.cross_sentence,
        )


DEFAULT_CONFIG = PipelineConfig()


class _TokenPositions:
    """Token indexes of one record's sentences, each built on first use.

    :meth:`clauses` gives a sentence's :class:`ClauseIndex`.  :meth:`of`
    maps a mention span to global token positions ``(left, right)``:
    ``left`` counts the record's tokens that end at or before the span
    starts, ``right`` those that start before it ends.  Each span is
    resolved once by bisection and then cached, so looking up a mention
    that competes in many candidate pairs is O(1).
    """

    def __init__(self, sentences: Sequence[SentenceRecord]):
        self._sentences = sentences
        self._clauses: list[ClauseIndex | None] = [None] * len(sentences)
        self._before = list(accumulate((len(s.tokens) for s in sentences), initial=0))
        self._cache: dict[tuple[int, int, int], tuple[int, int]] = {}

    def clauses(self, sentence_index: int) -> ClauseIndex:
        index = self._clauses[sentence_index]
        if index is None:
            index = self._clauses[sentence_index] = ClauseIndex(
                self._sentences[sentence_index]
            )
        return index

    def of(self, m: EntityMention | AttributeMention) -> tuple[int, int]:
        key = (m.sentence_index, m.start, m.end)
        pos = self._cache.get(key)
        if pos is None:
            base = self._before[m.sentence_index]
            index = self.clauses(m.sentence_index)
            pos = self._cache[key] = (
                base + bisect_right(index.ends, m.start),
                base + bisect_left(index.starts, m.end),
            )
        return pos


def _cross_sentence_distance(
    positions: _TokenPositions,
    e: EntityMention,
    a: AttributeMention,
    boundary_penalty: float,
) -> SyntacticSignal:
    """Token gap across sentences, with each sentence boundary penalized.

    ``e`` and ``a`` lie in different sentences.  The gap is a difference of
    global token positions: the tokens before the later mention minus the
    tokens up to the end of the earlier one, i.e. every token strictly
    between the two spans.
    """

    first, last = (e, a) if e.sentence_index < a.sentence_index else (a, e)
    gap = positions.of(last)[0] - positions.of(first)[1]
    crossed = last.sentence_index - first.sentence_index
    return SyntacticSignal(
        float(gap) + boundary_penalty * crossed, SignalSource.HEURISTIC
    )


def _group_signals(
    group: Sequence[RelationCandidate],
    parses: Sequence[DependencyParse | None] | None,
    config: PipelineConfig,
    positions: _TokenPositions,
) -> list[SyntacticSignal]:
    attr = group[0].attribute
    same_sentence = all(c.entity.sentence_index == attr.sentence_index for c in group)
    parse = None
    if parses is not None and attr.sentence_index < len(parses):
        parse = parses[attr.sentence_index]
    if same_sentence and parse is not None:
        return [path_distance(parse, c.entity, c.attribute) for c in group]
    signals = []
    for c in group:
        if c.entity.sentence_index == attr.sentence_index:
            signals.append(
                heuristic_distance(
                    positions.clauses(attr.sentence_index),
                    c.entity,
                    c.attribute,
                    boundary_penalty=config.boundary_penalty,
                )
            )
        else:
            signals.append(
                _cross_sentence_distance(
                    positions, c.entity, c.attribute, config.boundary_penalty
                )
            )
    return signals


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

    linker_config = config.linker_config()
    candidates = generate_candidates(mentions, attributes, linker_config)
    positions = _TokenPositions(sentences)
    for group in group_by_attribute(candidates):
        signals = _group_signals(group, parses, config, positions)
        dep_probs = p_dep(signals, tau=config.tau)
        sup_probs = p_sup(group, kb, weights=config.weights)
        for c, signal, dep_p, sup_p in zip(group, signals, dep_probs, sup_probs):
            c.distance = signal.distance
            c.p_dep = dep_p
            c.p_sup = sup_p
            c.score = mix(c, linker_config)

    relations = assign(candidates, linker_config)
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
