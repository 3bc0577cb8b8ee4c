"""Straightforward versions of optimized paths, kept as test oracles.

Each function is the earlier, loop-based implementation of a path that the
package now computes faster.  The tests check that the two agree exactly.
"""

from __future__ import annotations

import re

from critex.errors import UnknownConcept
from critex.kb import DEFAULT_WEIGHTS, score_compatibility
from critex.linker import Relation, _attribute_key, _beats, group_by_attribute, relation_label
from critex.segmentation import (
    _ABBREVIATIONS,
    _NEXT_SENTENCE_RE,
    _SINGLE_INITIAL_RE,
    _TOKEN_SEPARATORS,
)
from critex.syntax import SignalSource, SyntacticSignal


def cross_sentence_distance(sentences, e, a, boundary_penalty):
    """Token gap across sentences, counted token by token."""

    first, last = sorted(
        ((e.sentence_index, e.start, e.end), (a.sentence_index, a.start, a.end))
    )
    gap = sum(1 for t in sentences[first[0]].tokens if t.start >= first[2])
    gap += sum(1 for t in sentences[last[0]].tokens if t.end <= last[1])
    for idx in range(first[0] + 1, last[0]):
        gap += len(sentences[idx].tokens)
    crossed = last[0] - first[0]
    return SyntacticSignal(
        float(gap) + boundary_penalty * crossed, SignalSource.HEURISTIC
    )


def p_sup(candidates, kb, weights=DEFAULT_WEIGHTS):
    """Normalized compatibility, scoring the KB entry of every candidate."""

    if not candidates:
        return []
    keys = {_attribute_key(c.attribute) for c in candidates}
    if len(keys) > 1:
        raise ValueError("p_sup expects candidates of a single attribute")
    raw = []
    for c in candidates:
        entry = kb.entry(c.entity.concept_id)
        if entry is None:
            raise UnknownConcept(f"concept {c.entity.concept_id} not in knowledge base")
        raw.append(score_compatibility(entry, c.attribute, weights).value)
    total = sum(raw)
    if total > 0:
        return [r / total for r in raw]
    return [1.0 / len(raw)] * len(raw)


def assign(candidates, config):
    """Group candidates by attribute, then pick the best of each group."""

    relations = []
    for group in group_by_attribute(candidates):
        best = group[0]
        for c in group[1:]:
            if _beats(c, best):
                best = c
        if best.score >= config.min_score:
            relations.append(
                Relation(
                    entity=best.entity,
                    attribute=best.attribute,
                    label=relation_label(best.attribute),
                    score=best.score,
                )
            )
    relations.sort(key=lambda r: _attribute_key(r.attribute))
    return relations


def _preceding_token(text, end):
    start = max(text.rfind(c, 0, end) for c in (" ", "\n", "\t", "\r")) + 1
    return text[start:end]


def paragraph_spans(text):
    """Sentence spans, searching back to offset 0 for each token start."""

    spans = []
    start = 0
    for m in re.finditer(r"[.?!]", text):
        end = m.end()
        nxt = _NEXT_SENTENCE_RE.match(text, end)
        if not nxt:
            continue
        token = _preceding_token(text, end)
        lowered = token.lower()
        if lowered in _ABBREVIATIONS or lowered.strip("()") in _ABBREVIATIONS:
            continue
        if _SINGLE_INITIAL_RE.fullmatch(token.strip("()")):
            continue
        if text.count("(", start, end) > text.count(")", start, end):
            continue
        spans.append((start, end))
        start = nxt.start(1)
    if text[start:].strip():
        spans.append((start, len(text)))
    return spans


def paragraph_spans_recounting_parens(text):
    """Sentence spans, recounting parentheses from the sentence start.

    Separators are carried forward as in the package; only the parenthesis
    guard rescans ``text[start:end]`` for each candidate sentence end.
    """

    spans = []
    start = 0
    separator = -1
    scanned = 0
    for m in re.finditer(r"[.?!]", text):
        end = m.end()
        nxt = _NEXT_SENTENCE_RE.match(text, end)
        if not nxt:
            continue
        separator = max(
            separator, *(text.rfind(c, scanned, end) for c in _TOKEN_SEPARATORS)
        )
        scanned = end
        token = text[separator + 1 : end]
        lowered = token.lower()
        if lowered in _ABBREVIATIONS or lowered.strip("()") in _ABBREVIATIONS:
            continue
        if _SINGLE_INITIAL_RE.fullmatch(token.strip("()")):
            continue
        if text.count("(", start, end) > text.count(")", start, end):
            continue
        spans.append((start, end))
        start = nxt.start(1)
    if text[start:].strip():
        spans.append((start, len(text)))
    return spans
