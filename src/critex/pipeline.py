"""End-to-end annotation: text in, structured record out.

The stages run in a fixed order: sentence/token segmentation, dictionary
entity recognition plus abbreviation expansion, attribute parsing, then
linking, one attribute at a time.  For each attribute, :class:`_Competitors`
lists the entities that compete for it with their syntactic distances, read
off columns built once per record (external parses when supplied, otherwise
the clause-proximity heuristic; global token positions across sentences),
and :func:`~critex.linker.link_attribute` scores them and keeps the best.
Under cross-sentence linking only the entities within the attribute's
softmin window get a distance: the others have a ``p_dep`` weight of
exactly 0.0 and are settled from their concept ids alone, with the same
output bit for bit (see :class:`_Competitors`).
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
from .linker import ConceptColumns, Relation, link_attribute
from .segmentation import SentenceRecord, SplitMode, split_records
from .syntax import (
    DEFAULT_BOUNDARY_PENALTY,
    DEFAULT_TAU,
    ClauseIndex,
    DependencyParse,
    heuristic_distance,
    path_distances,
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
    ``(sentence_index, start)`` and do not overlap: their sentence indexes
    and, with cross-sentence linking, their concept ids and global token
    positions.  :meth:`of` lists an attribute's competitors in mention
    order with their distances; :meth:`link` links the attribute and gives
    a distance only to the competitors inside its softmin window.

    The window is exact.  Mentions are ordered and disjoint, so the
    cross-sentence distance never increases as a mention gets closer to the
    attribute's sentence, from either side (float rounding keeps the
    order).  The smallest distance is therefore among the attribute's own
    sentence and the two nearest mentions outside it, and the mentions
    whose weight ``exp(-(d - d_min) / tau)`` is exactly 0.0 form a prefix
    and a suffix of the mention list.  Two bisections find their ends, each
    evaluating that very expression; the mentions past them are passed to
    the linker by concept id alone, in :class:`~critex.linker.ConceptColumns`.
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
        self._config = config
        self._penalty = config.boundary_penalty
        self._cross = config.cross_sentence
        if self._cross:
            spans = [self._position(m) for m in mentions]
            self._lefts = [left for left, _ in spans]
            self._rights = [right for _, right in spans]
            self._concepts = [m.concept_id for m in mentions]
            self._distinct = tuple(dict.fromkeys(self._concepts))

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

    def _local(
        self, a: AttributeMention
    ) -> tuple[int, int, bool, list[EntityMention], list[float]]:
        """``lo, hi, others, local, distances`` for ``a``.

        ``lo:hi`` are the mentions of ``a``'s sentence; ``others`` tells
        whether the mentions of other sentences compete too.  ``local``
        lists the entities of ``a``'s sentence that compete, all but those
        whose span holds ``a``, and ``distances`` their distances: from the
        sentence's parse when one is supplied and no other sentence
        competes, otherwise from :func:`heuristic_distance`.
        """

        s_a, mentions = a.sentence_index, self._mentions
        lo = bisect_left(self._sentence_of, s_a)
        hi = bisect_right(self._sentence_of, s_a, lo)
        others = self._cross and (lo > 0 or hi < len(mentions))
        local = [e for e in mentions[lo:hi] if not (e.start <= a.start and a.end <= e.end)]
        parse = self._parses[s_a] if s_a < len(self._parses) else None
        if not local:
            distances = []
        elif parse is not None and not others:
            distances = path_distances(parse, a, local)
        else:
            clauses, penalty = self._clauses(s_a), self._penalty
            distances = [
                heuristic_distance(clauses, e, a, boundary_penalty=penalty) for e in local
            ]
        return lo, hi, others, local, distances

    def _ahead(self, left: int, s_a: int, start: int, stop: int) -> list[float]:
        """Distances of the mentions ``start:stop``, of sentences before
        ``s_a``, to a span of sentence ``s_a`` at global token ``left``.

        The tokens strictly between the spans plus ``boundary_penalty``
        per sentence boundary crossed.
        """

        penalty = self._penalty
        return [
            float(left - r) + penalty * (s_a - s)
            for r, s in zip(self._rights[start:stop], self._sentence_of[start:stop])
        ]

    def _behind(self, right: int, s_a: int, start: int, stop: int) -> list[float]:
        """Distances of the mentions ``start:stop``, of sentences after
        ``s_a``, to a span of sentence ``s_a`` ending at global token
        ``right``; counted as in :meth:`_ahead`.
        """

        penalty = self._penalty
        return [
            float(l - right) + penalty * (s - s_a)
            for l, s in zip(self._lefts[start:stop], self._sentence_of[start:stop])
        ]

    def of(self, a: AttributeMention) -> tuple[list[EntityMention], list[float]]:
        """``a``'s competitors and their distances to it, all of them.

        Entities of ``a``'s sentence compete as :meth:`_local` says; with
        cross-sentence linking every other entity competes too, at the
        distance of :meth:`_ahead` or :meth:`_behind`.
        """

        lo, hi, others, local, distances = self._local(a)
        if not others:
            return local, distances
        mentions, s_a = self._mentions, a.sentence_index
        left, right = self._position(a)
        return (
            mentions[:lo] + local + mentions[hi:],
            self._ahead(left, s_a, 0, lo)
            + distances
            + self._behind(right, s_a, hi, len(mentions)),
        )

    def link(self, a: AttributeMention, kb: KnowledgeBase) -> Relation | None:
        """Link ``a`` to the best of its competitors, or None.

        The same relation as :func:`link_attribute` over :meth:`of`, bit
        for bit; only the competitors inside the softmin window (see the
        class docstring) are listed with distances.
        """

        lo, hi, others, local, distances = self._local(a)
        if not others:
            return link_attribute(a, local, distances, kb, self._config)
        mentions, n, s_a = self._mentions, len(self._mentions), a.sentence_index
        left, right = self._position(a)
        rights, lefts, sentence_of = self._rights, self._lefts, self._sentence_of
        penalty, tau = self._penalty, self._config.tau

        # one mention's distance, the expressions of _ahead and _behind
        def ahead(i: int) -> float:
            return float(left - rights[i]) + penalty * (s_a - sentence_of[i])

        def behind(j: int) -> float:
            return float(lefts[j] - right) + penalty * (sentence_of[j] - s_a)

        d_min = min(distances) if distances else math.inf
        if lo and ahead(lo - 1) < d_min:
            d_min = ahead(lo - 1)
        if hi < n and behind(hi) < d_min:
            d_min = behind(hi)
        # mentions first:lo ahead and hi:last behind have a non-zero weight
        first = _first_weighted(ahead, lo, d_min, tau)
        last = n - _first_weighted(lambda k: behind(n - 1 - k), n - hi, d_min, tau)
        concepts = self._concepts

        def tied(concept_ids) -> list[tuple[EntityMention, float]]:
            return [
                (mentions[i], ahead(i)) for i in range(first) if concepts[i] in concept_ids
            ] + [
                (mentions[j], behind(j)) for j in range(last, n) if concepts[j] in concept_ids
            ]

        return link_attribute(
            a,
            mentions[first:lo] + local + mentions[hi:last],
            self._ahead(left, s_a, first, lo) + distances + self._behind(right, s_a, hi, last),
            kb,
            self._config,
            ConceptColumns(
                concepts[first:lo] + [e.concept_id for e in local] + concepts[hi:last],
                concepts[:first],
                concepts[last:],
                self._distinct,
                tied,
            ),
        )


def _first_weighted(distance, stop: int, d_min: float, tau: float) -> int:
    """The first ``i`` in ``range(stop)`` whose softmin weight is not 0.0.

    ``distance(i)`` must not increase with ``i``, so the weight
    ``exp(-(distance(i) - d_min) / tau)`` (the expression of
    :func:`~critex.syntax.softmin_weights`) is 0.0 on a prefix of the range.
    Returns ``stop`` when every weight is 0.0.
    """

    exp = math.exp

    def weighted(i: int) -> bool:
        return exp(-(distance(i) - d_min) / tau) != 0.0

    if stop == 0 or weighted(0):
        return 0
    return bisect_left(range(stop), True, 1, key=weighted)


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
