"""Dictionary-based recognition of medical entity mentions.

Mentions are found by walking the knowledge base's term trie from a token,
one casefolded token per step.  A walk starts only at a token whose
casefolded surface is in the KB's ``first_words`` (each word that opens a
term, and that word plus "s"); the filter runs in C over the whole sentence
(``map`` and ``compress``), and no other token can open a term, so it
drops no mention.  With a dense KB, whose terms open with most words of the
text, nearly every token passes and the scan costs what a walk from every
token costs, plus one set test per token.  A walk stops at a token that is
not a word, at a missing trie child, or after six tokens; every depth that
ends a term is a candidate, and the longest candidates win.  When the full
last token ends no term, its trailing plural "s" is folded so
"antidepressants" hits "antidepressant".
Parenthesized abbreviation definitions ("electrocardiograph (ECG)") create
record-local synonyms: later occurrences of the short form become mentions
of the long form's concept.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Sequence

from .kb import Category, KbEntry, KnowledgeBase, term_key
from .segmentation import SentenceRecord, TokenShape, token_columns, tokenize

MAX_NGRAM = 6

_WORD = TokenShape.WORD  # the walk tests a token's shape by identity
_END = attrgetter("end")  # bisection key over a sentence's tokens
_NUMERIC = (TokenShape.NUMBER, TokenShape.RATIO, TokenShape.RANGE)


@dataclass(frozen=True)
class EntityMention:
    """A recognized concept span, with sentence-local character offsets."""

    sentence_index: int
    start: int
    end: int
    surface: str
    concept_id: str
    matched_term: str


def _choose_entry(
    hits: Sequence[tuple[KbEntry, str]], numeric_sentence: bool
) -> tuple[KbEntry, str]:
    """Pick one of several entries for an ambiguous surface.

    Prefer a MEASUREMENT entry when the sentence talks numbers, otherwise
    fall back to the smallest concept id.
    """

    if numeric_sentence:
        measurements = [h for h in hits if h[0].category is Category.MEASUREMENT]
        if measurements:
            return min(measurements, key=lambda h: h[0].concept_id)
    return min(hits, key=lambda h: h[0].concept_id)


def recognize_entities(
    sentence: SentenceRecord, kb: KnowledgeBase
) -> list[EntityMention]:
    """Greedy longest-match dictionary scan over the KB's term trie.

    On overlap the longer match wins; equal lengths resolve leftmost.
    Output is sorted by span start and pairwise non-overlapping.
    """

    surfaces, starts, ends, shapes = token_columns(sentence.tokens)
    n = len(surfaces)
    keys = list(map(str.casefold, surfaces))
    root = kb.term_trie
    candidates = []  # (ntokens, first_token, last_token, hits)
    for i in compress(range(n), map(kb.first_words.__contains__, keys)):
        node = root
        for j in range(i, min(i + MAX_NGRAM, n)):
            if shapes[j] is not _WORD:
                break
            child = node.children.get(keys[j])
            hits = child.hits if child is not None else ()
            if not hits:
                # fold a plural "s", not "ss", off a surface of four or more characters
                surface = surfaces[j]
                if len(surface) > 3 and surface[-1] == "s" and surface[-2] != "s":
                    folded_node = node.children.get(surface[:-1].casefold())
                    if folded_node is not None:
                        hits = folded_node.hits
            if hits:
                candidates.append((j - i + 1, i, j, hits))
            if child is None:
                break
            node = child
    candidates.sort(key=lambda c: (-c[0], c[1]))
    taken: set[int] = set()
    numeric_sentence = None  # computed on the first ambiguous surface
    mentions = []
    for n, first, last, hits in candidates:
        span_tokens = range(first, last + 1)
        if any(t in taken for t in span_tokens):
            continue
        taken.update(span_tokens)
        if len(hits) == 1:
            entry, term = hits[0]
        else:
            if numeric_sentence is None:
                numeric_sentence = any(shape in _NUMERIC for shape in shapes)
            entry, term = _choose_entry(hits, numeric_sentence)
        start, end = starts[first], ends[last]
        mentions.append(
            EntityMention(
                sentence_index=sentence.sentence_index,
                start=start,
                end=end,
                surface=sentence.text[start:end],
                concept_id=entry.concept_id,
                matched_term=term,
            )
        )
    mentions.sort(key=lambda m: m.start)
    return mentions


def can_match(term: str) -> bool:
    """True when :func:`recognize_entities` can match ``term``.

    The walk steps one token per trie word, so the term's tokens must be
    exactly its words (their casefolded surfaces the words of its
    :func:`~critex.kb.term_key`), each a WORD, and at most ``MAX_NGRAM`` of
    them.  A term that fails can never be matched: "type 2 diabetes" holds
    the NUMBER "2", "blood pressure (BP)" tokenizes "(BP)" as three tokens,
    and "Sjögren" is the three WORD tokens "Sj", "ö" and "gren" for one
    word of the term.
    """

    tokens = tokenize(term)
    return (
        len(tokens) <= MAX_NGRAM
        and all(t.shape is _WORD for t in tokens)
        and [t.surface.casefold() for t in tokens] == term_key(term).split(" ")
    )


def _initials_match(abbr: str, long_form: str) -> bool:
    """True when the abbreviation's letters trace through the long form.

    The first letter must open the long form; the rest may come from word
    initials or word-interior letters, which also lets lowercase function
    words be skipped.  A trailing plural "s" on the abbreviation is ignored.
    """

    letters = abbr.lower()
    if len(letters) > 1 and letters.endswith("s"):
        letters = letters[:-1]
    if not (2 <= len(letters) <= 10):
        return False
    target = long_form.lower()
    if not target or letters[0] != target[0]:
        return False
    pos = 0
    for ch in letters:
        found = target.find(ch, pos)
        if found == -1:
            return False
        pos = found + 1
    return True


def link_abbreviations(
    sentences: Sequence[SentenceRecord],
    mentions: Sequence[EntityMention],
) -> list[EntityMention]:
    """Expand "<LongForm> (<ABBR>)" definitions across one record.

    ``sentences`` are the record's sentences in order and ``mentions`` the
    recognized mentions of all of them.  One pass walks the sentences in
    order.  A sentence's mentions add the definitions they open, the first
    definition of a short form winning; once any definition exists, every
    token of the sentence that is a defined short form, comes after its
    definition and lies inside no mention becomes a new mention carrying
    the long form's concept id.  A definition never expands a token before
    it, so the pass sees at each token what the whole record defines
    there.  Everything else passes through unchanged; the result is
    ordered by ``(sentence_index, start)``.
    """

    by_sentence: dict[int, list[EntityMention]] = {}
    for m in mentions:
        by_sentence.setdefault(m.sentence_index, []).append(m)
    # short form -> (concept id, long form, (sentence_index, token_index))
    definitions: dict[str, tuple[str, str, tuple[int, int]]] = {}
    out = list(mentions)
    for sentence in sentences:
        index, toks = sentence.sentence_index, sentence.tokens
        group = by_sentence.get(index, ())
        for m in group:
            # the token ending where the mention ends, found by bisection
            # over the tokens themselves, so no column of ends is built
            k = bisect_left(toks, m.end, key=_END)
            if k + 3 >= len(toks) or toks[k].end != m.end:
                continue
            if toks[k + 1].surface != "(" or toks[k + 3].surface != ")":
                continue
            abbr = toks[k + 2]
            if abbr.shape is _WORD and _initials_match(abbr.surface, m.surface):
                definitions.setdefault(abbr.surface, (m.concept_id, m.surface, (index, k + 2)))
        if not definitions:
            continue
        surfaces, starts, ends, _ = token_columns(toks)
        # tokens inside a mention: those starting at or after its start and
        # ending at or before its end, a contiguous index range
        occupied = {
            i
            for m in group
            for i in range(bisect_left(starts, m.start), bisect_right(ends, m.end))
        }
        for i, hit in enumerate(map(definitions.get, surfaces)):
            if hit is None or (index, i) <= hit[2] or i in occupied:
                continue
            concept_id, long_surface, _ = hit
            out.append(
                EntityMention(
                    sentence_index=index,
                    start=starts[i],
                    end=ends[i],
                    surface=surfaces[i],
                    concept_id=concept_id,
                    matched_term=long_surface,
                )
            )
    out.sort(key=lambda m: (m.sentence_index, m.start))
    return out
