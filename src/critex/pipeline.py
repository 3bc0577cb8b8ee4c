"""End-to-end annotation: text in, structured record out.

Each record takes one forward pass through the stages, in a fixed order:
sentence/token segmentation, dictionary entity recognition, abbreviation
expansion in sentence order, attribute parsing around each sentence's
entity spans, then one link per attribute.  One routine,
``_annotate_split``, sets that order after the split, for one record
(:func:`annotate_record`) or a chunk of them (the CLI): the entity scan,
abbreviation expansion and attribute parsing each run over every record
of the chunk before the next starts, then each record is linked and
built.  That is faster than one record at a time, and a record's output
does not depend on the chunk it is in.  The linker's ``_Competitors``,
built once per record over its sentences, mentions and optional external
parses, lists the entities that compete for each attribute with their
syntactic distances, scores them and keeps the best (see
:mod:`critex.linker`).  The record is built from those links: attribute
``i`` is payload ``i``, unlinked when its link is None.
Sentences, mentions, relations and output pairs are ``typing.NamedTuple``s
(``AttributeMention`` checks its payload in ``__new__``).  The record build
makes only the relation pairs and keeps the pipeline's tuples in the
record: ``io_eval.to_json`` writes the payload from them, and the
``extended`` dicts are built only when a caller reads them.
Everything is deterministic: the same record, knowledge base and config
always give the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

from .attributes import AttributeMention, extract_attributes
from .entities import EntityMention, link_abbreviations, recognize_entities
from .kb import CompatibilityWeights, KnowledgeBase
from .io_eval import RelationPair, StructuredRecord, _Payload
from .linker import Relation, _Competitors
from .segmentation import SentenceRecord, SplitMode, split_records
from .syntax import DependencyParse


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the pipeline, linker included; checked when created."""

    mode: SplitMode = SplitMode.LINES
    theta: float = 0.5
    min_score: float = 0.2
    cross_sentence: bool = False
    tau: float = 2.0
    boundary_penalty: float = 5.0
    weights: CompatibilityWeights = field(default_factory=CompatibilityWeights)

    def __post_init__(self):
        if not isinstance(self.mode, SplitMode):
            raise TypeError(f"mode must be a SplitMode, got {self.mode!r}")
        if not isinstance(self.cross_sentence, bool):
            raise TypeError(f"cross_sentence must be a bool, got {self.cross_sentence!r}")
        if not isinstance(self.weights, CompatibilityWeights):
            raise TypeError(f"weights must be CompatibilityWeights, got {self.weights!r}")
        for name in ("theta", "min_score", "tau", "boundary_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
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


def annotate_record(
    record_id: str,
    text: str,
    kb: KnowledgeBase,
    config: PipelineConfig = DEFAULT_CONFIG,
    parses: Sequence[DependencyParse | None] | None = None,
) -> StructuredRecord:
    """Run the full pipeline on one record.

    ``parses`` optionally supplies one external dependency parse per
    sentence (None entries fall back to the heuristic), each built on the
    sentence at its index (:func:`~critex.syntax.align_block`), or
    :class:`~critex.errors.ParseMismatch` names the index.  The compact
    relations echo surfaces verbatim; the extended payload carries
    record-level offsets, payloads, scores and unlinked attributes.
    ``record_id`` must be a ``str``, else ``TypeError``.
    """

    if not isinstance(record_id, str):
        raise TypeError(f"record_id must be a str, got {record_id!r}")
    sentences = split_records(text, config.mode, record_id=record_id)
    return _annotate_split([(record_id, text, sentences, parses)], kb, config)[0]


def _annotate_split(
    records: Sequence[
        tuple[str, str, Sequence[SentenceRecord], Sequence[DependencyParse | None] | None]
    ],
    kb: KnowledgeBase,
    config: PipelineConfig,
) -> list[StructuredRecord]:
    """:func:`annotate_record` after the split, over many records at once.

    Each of ``records`` is ``(record_id, text, sentences, parses)``, with
    ``sentences`` equal to ``split_records(text, config.mode,
    record_id=record_id)``.  Each stage runs over every record before the
    next one starts: the entity scan over every sentence, abbreviation
    linking per record, the attribute grammar over every sentence, then
    per record its links and its build.  A record's output is what it
    would be alone.
    """

    # plain loops: one record, as annotate_record passes, then costs little
    # more than the stages called one after another.  A record is built
    # right after its links: a loop of its own for the light build cost the
    # one-record call more than it saved a chunk
    found = []
    for _, _, sentences, _ in records:
        found.append([m for s in sentences for m in recognize_entities(s, kb)])
    mentions = []
    for (_, _, sentences, _), record_found in zip(records, found):
        mentions.append(link_abbreviations(sentences, record_found))
    attributes = []
    for (_, _, sentences, _), record_mentions in zip(records, mentions):
        spans: list[list[tuple[int, int]]] = [[] for _ in sentences]
        for m in record_mentions:
            spans[m.sentence_index].append((m.start, m.end))
        attributes.append([
            a
            for s, entity_spans in zip(sentences, spans)
            for a in extract_attributes(s, kb, entity_spans=entity_spans)
        ])
    built = []
    for (record_id, text, sentences, parses), record_mentions, record_attributes in zip(
        records, mentions, attributes
    ):
        competitors = _Competitors(sentences, record_mentions, kb, config, parses)
        links = [competitors.link(a) for a in record_attributes]
        built.append(_build_record(
            record_id, text, sentences, record_mentions, record_attributes, links
        ))
    return built


def _build_record(
    record_id: str,
    text: str,
    sentences: Sequence[SentenceRecord],
    mentions: Sequence[EntityMention],
    attributes: Sequence[AttributeMention],
    links: Sequence[Relation | None],
) -> StructuredRecord:
    """The record of attribute ``i`` linked by ``links[i]`` (None: unlinked).

    Only the relation pairs and the entity index are built here.  The
    record keeps the sentence offsets, mentions, attributes, links and
    entity index as they are, and ``to_json`` writes its payload from them;
    its ``extended`` dict is built from them when first read.
    """

    # mentions are disjoint, so a sentence and a start name one
    entity_index = {(m.sentence_index, m.start): i for i, m in enumerate(mentions)}
    pairs = [
        RelationPair(r.entity.surface, r.attribute.surface) for r in links if r is not None
    ]
    payload = _Payload(
        [s.char_offset for s in sentences], mentions, attributes, links, entity_index
    )
    return StructuredRecord(id=record_id, text=text, relations=pairs, extended=payload)
