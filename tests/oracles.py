"""Straightforward versions of optimized paths, kept as test oracles.

Each function is the earlier, loop-based implementation of a path that the
package now computes faster.  The tests check that the two agree exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from critex.attributes import (
    _FREQUENCY_WORDS,
    _GLYPH_COMPARATORS,
    _NUMBER_WORDS,
    _WORD_COMPARATORS,
    QUALIFIER_LEXICON,
    AttributeMention,
    _comparison,
    _frequency,
    _qualifier,
    _range,
    _ratio,
    _temporal,
    attribute_shape,
)
from critex.entities import _NUMERIC, EntityMention, _initials_match
from critex.errors import CycleDetected, ParseMismatch, UnknownConcept
from critex.floats import left_sum
from critex.kb import DEFAULT_WEIGHTS, Category, compatibility_terms
from critex.linker import Relation, relation_label
from critex.segmentation import (
    _ABBREVIATIONS,
    _NEXT_SENTENCE_RE,
    _PUNCT_CHARS,
    _SINGLE_INITIAL_RE,
    _TOKEN_SEPARATORS,
    Token,
    TokenShape,
)


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
    return float(gap) + boundary_penalty * crossed


def competitors_of(competitors, a):
    """``a``'s competitors and their distances to it, all of them.

    ``competitors`` is a ``critex.linker._Competitors``.  This is the
    assembly of ``_Competitors.link`` without its softmin window: the
    entities of ``a``'s sentence as ``_local`` lists them and, with
    cross-sentence linking, every other entity of the record, in mention
    order, at the distance of ``_ahead`` or ``_behind``.
    """

    lo, hi, others = competitors._span(a)
    local, distances = competitors._local(a, lo, hi, others)
    if not others:
        return local, distances
    mentions, s_a = competitors._mentions, a.sentence_index
    left, right = competitors._position(a)
    return (
        mentions[:lo] + local + mentions[hi:],
        [competitors._ahead(left, s_a, i) for i in range(lo)]
        + distances
        + [competitors._behind(right, s_a, j) for j in range(hi, len(mentions))],
    )


class Signal(NamedTuple):
    """A distance and its source: "parse", "heuristic" or "cross" (sentence gap)."""

    distance: float
    source: str


@dataclass
class RelationCandidate:
    """One (entity, attribute) pair with its two signals and mixed score."""

    entity: EntityMention
    attribute: AttributeMention
    p_dep: float = 0.0
    p_sup: float = 0.0
    score: float = 0.0
    distance: float = math.inf  # syntactic distance backing p_dep


def _attribute_key(a):
    return (a.sentence_index, a.start, a.end)


def generate_candidates(entities, attributes, same_sentence_only=True):
    """Cross product of entities and attributes, attribute-major order.

    With ``same_sentence_only`` only pairs sharing a sentence are kept.
    Pairs whose attribute span lies inside the entity span are excluded.
    """

    out = []
    for a in attributes:
        for e in entities:
            if same_sentence_only and e.sentence_index != a.sentence_index:
                continue
            if (
                e.sentence_index == a.sentence_index
                and a.start >= e.start
                and a.end <= e.end
            ):
                continue
            out.append(RelationCandidate(entity=e, attribute=a))
    return out


def group_by_attribute(candidates):
    groups = {}
    for c in candidates:
        groups.setdefault(_attribute_key(c.attribute), []).append(c)
    return [groups[k] for k in sorted(groups)]


def head_token_index(sentence, start, end):
    """Index of the span's head token, scanning every token of the sentence."""

    head = None
    for i, t in enumerate(sentence.tokens):
        if t.start < end and t.end > start:
            head = i
    if head is None:
        raise ValueError(f"span [{start}, {end}) covers no token")
    return head


def _depth_chain(heads, node):
    chain = [node]
    while node != 0:
        node = heads[node - 1]
        chain.append(node)
    return chain


def path_distance(parse, e, a):
    """Tree path between the span head tokens: token scans, then walks to the root."""

    u = head_token_index(parse.sentence, e.start, e.end) + 1
    v = head_token_index(parse.sentence, a.start, a.end) + 1
    if u == v:
        return 0.0
    pos_u = {node: depth for depth, node in enumerate(_depth_chain(parse.heads, u))}
    depth_v = 0
    node = v
    while node not in pos_u:
        node = parse.heads[node - 1]
        depth_v += 1
    return float(pos_u[node] + depth_v)


def group_signals(group, parses, config, sentences):
    """One signal per candidate of one attribute's group.

    The parse backs the distances only when the whole group lies in the
    attribute's sentence and that sentence has a parse.
    """

    attr = group[0].attribute
    same_sentence = all(c.entity.sentence_index == attr.sentence_index for c in group)
    parse = None
    if parses is not None and attr.sentence_index < len(parses):
        parse = parses[attr.sentence_index]
    if same_sentence and parse is not None:
        return [Signal(path_distance(parse, c.entity, c.attribute), "parse") for c in group]
    sentence, penalty = sentences[attr.sentence_index], config.boundary_penalty
    return [
        Signal(heuristic_distance(sentence, c.entity, c.attribute, penalty), "heuristic")
        if c.entity.sentence_index == attr.sentence_index
        else Signal(cross_sentence_distance(sentences, c.entity, c.attribute, penalty), "cross")
        for c in group
    ]


def p_dep(signals, tau):
    """Softmin over the distances of one group's signals.

    Parse paths may not share a group with other distances; heuristic and
    cross-sentence distances may.
    """

    if not signals:
        raise ValueError("p_dep needs at least one signal")
    sources = {s.source for s in signals}
    if "parse" in sources and len(sources) > 1:
        raise ValueError("signals mix parse-based and heuristic distances")
    if tau <= 0:
        raise ValueError("tau must be positive")
    d_min = min(s.distance for s in signals)
    weights = [math.exp(-(s.distance - d_min) / tau) for s in signals]
    total = left_sum(weights)
    return [w / total for w in weights]


def p_sup(candidates, kb, weights=DEFAULT_WEIGHTS):
    """Normalized compatibility, scoring the KB entry of every candidate."""

    if not candidates:
        return []
    keys = {_attribute_key(c.attribute) for c in candidates}
    if len(keys) > 1:
        raise ValueError("p_sup expects candidates of a single attribute")
    raw = []
    for c in candidates:
        entry = kb.by_id.get(c.entity.concept_id)
        if entry is None:
            raise UnknownConcept(f"concept {c.entity.concept_id} not in knowledge base")
        shape = attribute_shape(c.attribute)
        raw.append(compatibility_terms(entry, c.attribute, shape, weights)[0])
    total = left_sum(raw)
    if total > 0:
        return [r / total for r in raw]
    return [1.0 / len(raw)] * len(raw)


def mix(candidate, config):
    """Convex mixture of the two signals under the configured theta."""

    return config.theta * candidate.p_sup + (1.0 - config.theta) * candidate.p_dep


def _char_gap(e, a):
    if e.sentence_index != a.sentence_index:
        return math.inf
    if e.end <= a.start:
        return a.start - e.end
    if a.end <= e.start:
        return e.start - a.end
    return 0.0


def _beats(challenger, incumbent):
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


def link(sentences, mentions, attributes, kb, config, parses=None):
    """The relations of one record through the candidate-object chain.

    ``config`` is a :class:`~critex.pipeline.PipelineConfig`.
    """

    candidates = generate_candidates(mentions, attributes, not config.cross_sentence)
    for group in group_by_attribute(candidates):
        signals = group_signals(group, parses, config, sentences)
        dep_probs = p_dep(signals, config.tau)
        sup_probs = p_sup(group, kb, config.weights)
        for c, signal, dep_p, sup_p in zip(group, signals, dep_probs, sup_probs):
            c.distance = signal.distance
            c.p_dep = dep_p
            c.p_sup = sup_p
            c.score = mix(c, config)
    return assign(candidates, config)


def parse_blocks(text):
    """Split a token-per-line file into per-sentence blocks, one line at a
    time: the reader of ID FORM HEAD DEPREL files before it read blocks by
    columns."""

    blocks: list[list[tuple[int, str, int, str]]] = []
    current: list[tuple[int, str, int, str]] = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        cols = line.split("\t")
        if len(cols) < 4:
            raise ParseMismatch(lineno, f"line {lineno}: expected 4 tab-separated columns")
        id_s, head_s = cols[0], cols[2]
        if not (id_s.isdigit() and head_s.isdigit() and id_s.isascii() and head_s.isascii()):
            raise ParseMismatch(
                lineno,
                f"line {lineno}: ID and HEAD must be ASCII decimal integers,"
                f" got {id_s!r} and {head_s!r}",
            )
        idx, head = int(id_s), int(head_s)
        if idx != len(current) + 1:
            raise ParseMismatch(
                lineno, f"line {lineno}: ID {idx} out of order, expected {len(current) + 1}"
            )
        current.append((idx, cols[1], head, cols[3]))
    if current:
        blocks.append(current)
    return blocks


def validate_heads(heads, labels, sentence):
    """The count, type and head-graph checks of DependencyParse, token by
    token, walking each token to the root: one head per token of
    ``sentence``, then one label per head.
    """

    n, tokens, k = len(heads), len(sentence.tokens), len(labels)
    if n != tokens:
        raise ParseMismatch(min(n, tokens), f"parse has {n} tokens, sentence has {tokens}")
    if k != n:
        raise ParseMismatch(min(n, k), f"parse has {n} heads and {k} labels")
    for i, (head, label) in enumerate(zip(heads, labels), start=1):
        if isinstance(head, bool) or not isinstance(head, int):
            raise TypeError(f"token {i} head must be an int, got {head!r}")
        if not isinstance(label, str):
            raise TypeError(f"token {i} label must be a str, got {label!r}")
    if n == 0:
        return
    roots = sum(1 for h in heads if h == 0)
    if roots != 1:
        raise CycleDetected(f"head graph must have exactly one root, found {roots}")
    for i, head in enumerate(heads):
        if not (0 <= head <= n):
            raise CycleDetected(f"token {i + 1} heads out of range: {head}")
        if head == i + 1:
            raise CycleDetected(f"token {i + 1} heads to itself")
    for i in range(n):
        seen = set()
        node = i + 1
        while node != 0:
            if node in seen:
                raise CycleDetected(f"cycle through token {node}")
            seen.add(node)
            node = heads[node - 1]


_GLYPHS = frozenset({"<=", ">=", "≤", "≥", "≦", "≧", "<", ">", "="})
_RATIO_RE = re.compile(r"\d+(?:\.\d+)?/\d+(?:\.\d+)?")
_RANGE_RE = re.compile(r"\d+(?:\.\d+)?[-–]\d+(?:\.\d+)?")
# digits, optionally grouped by thousands, an optional fraction and an
# optional exponent: "40", "1,000", "2.5", "1e5", "2.5E-3"
_NUMBER_RE = re.compile(r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?")


def shape_of(surface):
    """A token's shape, re-derived from its surface alone."""

    if _RATIO_RE.fullmatch(surface):
        return TokenShape.RATIO
    if _RANGE_RE.fullmatch(surface):
        return TokenShape.RANGE
    if _NUMBER_RE.fullmatch(surface):
        return TokenShape.NUMBER
    if surface in _GLYPHS:
        return TokenShape.SYMBOL
    if surface == "%" or any(c.isalpha() for c in surface):
        return TokenShape.WORD
    if len(surface) == 1 and surface in _PUNCT_CHARS:
        return TokenShape.PUNCT
    return TokenShape.SYMBOL


# The token scan with its branches in their first order, digit-led branches
# before WORD; the package tries WORD first.
_SCAN_IN_FIRST_ORDER_RE = re.compile(
    r"""
      (?P<RATIO>\d+(?:\.\d+)?/\d+(?:\.\d+)?)
    | (?P<RANGE>\d+(?:\.\d+)?[-–]\d+(?:\.\d+)?(?![A-Za-z]))
    | (?P<QUALIFIER>\d+(?:\.\d+)?[-–][A-Za-z][A-Za-z0-9-]*)
    | (?P<NUMBER>(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<WORD>[A-Za-z][A-Za-z0-9'’]*(?:[-/^][A-Za-z0-9^]+)*)
    | (?P<SYMBOL><=|>=|≤|≥|≦|≧|[<>=])
    | (?P<OTHER>\S)
    """,
    re.VERBOSE,
)


def scan_branches(sentence_text):
    """``(span, branch name)`` of each match of the scan in its first order."""

    return [(m.span(), m.lastgroup) for m in _SCAN_IN_FIRST_ORDER_RE.finditer(sentence_text)]


def tokenize(sentence_text):
    """Tokens of the scan in its first branch order, each shape re-derived
    by :func:`shape_of`."""

    return [
        Token(m.group(0), m.start(), m.end(), shape_of(m.group(0)))
        for m in _SCAN_IN_FIRST_ORDER_RE.finditer(sentence_text)
    ]


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


def term_key(term):
    """A term's key: the casefolded surfaces of its tokens, from the scan in
    its first order (:func:`tokenize`)."""

    return tuple(t.surface.casefold() for t in tokenize(term))


def term_index(kb):
    """The flat term-key -> (entry, term) hits table, built from the entries."""

    index = {}
    for entry in kb.entries:
        for term in entry.terms:
            index.setdefault(term_key(term), []).append((entry, term))
    return {k: tuple(v) for k, v in index.items()}


_PLURAL_RE = re.compile(r"(.{2,}[^s])s", re.S)


def fold_plural(word):
    """``word`` less its plural "s", or None.

    A plural is four or more characters that end in one "s": "drugs" folds
    to "drug", while "glass", "has" and "drugS" do not fold.
    """

    m = _PLURAL_RE.fullmatch(word)
    return m.group(1) if m else None


def is_word(tok):
    """A WORD token: the one shape of every letter run, numeric qualifier
    ("12-lead") and "%", unit or not."""

    return tok.shape is TokenShape.WORD


def _lookup_window(window, index):
    key = tuple(t.surface.casefold() for t in window)
    hits = index.get(key, ())
    if hits:
        return hits
    folded = fold_plural(window[-1].surface)
    if folded is not None:
        return index.get(key[:-1] + (folded.casefold(),), ())
    return ()


def _choose_entry(hits, sentence):
    if len(hits) == 1:
        return hits[0]
    if any(t.shape in _NUMERIC for t in sentence.tokens):
        measurements = [h for h in hits if h[0].category is Category.MEASUREMENT]
        if measurements:
            return min(measurements, key=lambda h: h[0].concept_id)
    return min(hits, key=lambda h: h[0].concept_id)


def recognize_entities(sentence, kb):
    """Longest-match scan that looks up every token n-gram, of any token
    shapes, up to the token count of the KB's longest term."""

    index = term_index(kb)
    longest = max(map(len, index), default=0)
    toks = sentence.tokens
    candidates = []
    for i in range(len(toks)):
        for n in range(min(longest, len(toks) - i), 0, -1):
            hits = _lookup_window(toks[i : i + n], index)
            if hits:
                candidates.append((n, i, i + n - 1, hits))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    taken = set()
    mentions = []
    for n, first, last, hits in candidates:
        span_tokens = range(first, last + 1)
        if any(t in taken for t in span_tokens):
            continue
        taken.update(span_tokens)
        entry, term = _choose_entry(hits, sentence)
        start, end = toks[first].start, toks[last].end
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


def comparator_at(toks, i):
    """(comparator, tokens consumed, is_symbolic) or None, trying every
    word comparator in table order."""

    if i < len(toks) and toks[i].surface in _GLYPH_COMPARATORS:
        return _GLYPH_COMPARATORS[toks[i].surface], 1, True
    for words, comp in _WORD_COMPARATORS:
        n = len(words)
        if i + n <= len(toks) and all(
            toks[i + k].surface.lower() == words[k] for k in range(n)
        ):
            return comp, n, False
    return None


def is_numeric_qualifier(tok):
    """A word like "12-lead": digits up to its first hyphen or en dash, and a letter."""

    head = ""
    for ch in tok.surface:
        if ch in "-–":
            break
        head += ch
    return (
        tok.shape is TokenShape.WORD
        and head.isdigit()
        and any(ch.isalpha() for ch in tok.surface)
    )


def may_start(tok):
    """Whether a production or qualifier can start at ``tok``, term by term.

    Values (numbers, ratios, ranges), comparison glyphs, the first word of
    a word comparator, number and frequency words, qualifier words,
    "within", "between" and numeric qualifiers open a parse; nothing else
    does.
    """

    word = tok.surface.lower()
    return (
        tok.shape in (TokenShape.NUMBER, TokenShape.RATIO, TokenShape.RANGE)
        or tok.surface in _GLYPHS
        or any(word == words[0] for words, _ in _WORD_COMPARATORS)
        or word in _NUMBER_WORDS
        or word in _FREQUENCY_WORDS
        or word in QUALIFIER_LEXICON
        or word in ("within", "between")
        or is_numeric_qualifier(tok)
    )


def unit_at(toks, i, normalize):
    """Longest unit at token i: every window of 3, 2, then 1 tokens that
    holds no punctuation or symbol token, joined and looked up."""

    for n in (3, 2, 1):
        if i + n > len(toks):
            continue
        if any(t.shape in (TokenShape.PUNCT, TokenShape.SYMBOL) for t in toks[i : i + n]):
            continue
        canonical = normalize(" ".join(t.surface for t in toks[i : i + n]))
        if canonical is not None:
            return canonical, n
    return None


def extract_attributes(sentence, kb, entity_spans=None):
    """The grammar's scan, trying every production at every position."""

    normalize = kb.normalize_unit
    toks = sentence.tokens
    out = []
    i = 0
    while i < len(toks):
        best = None
        hit = comparator_at(toks, i)
        for prod in (_frequency, _temporal, _ratio, _range, _comparison):
            parse = prod(sentence, i, hit, normalize)
            if parse and (best is None or parse.next_i > best.next_i):
                best = parse
        if best is None:
            best = _qualifier(sentence, i, entity_spans)
        if best is None:
            i += 1
            continue
        start = toks[best.span_start].start
        end = toks[best.span_end].end
        anchor = None
        if best.anchor is not None:
            a_start, a_end = best.anchor
            anchor = sentence.text[a_start:a_end]
        out.append(
            AttributeMention(
                sentence_index=sentence.sentence_index,
                start=start,
                end=end,
                surface=sentence.text[start:end],
                kind=best.kind,
                comparator=best.comparator,
                values=best.values,
                unit=best.unit,
                time_unit=best.time_unit,
                anchor=anchor,
            )
        )
        i = best.next_i
    return out


_BOUNDARY_PUNCTUATION = (",", ";")
_BOUNDARY_WORDS = ("and", "or", "but", "who", "whom", "which", "that", "whose")


def is_boundary(surface):
    """A clause boundary: a comma or semicolon, or a conjunction or relative
    pronoun in any case ("AND", "Which")."""

    return surface in _BOUNDARY_PUNCTUATION or surface.lower() in _BOUNDARY_WORDS


def heuristic_distance(sentence, e, a, boundary_penalty):
    """Token gap plus boundary penalty, rescanning the sentence's tokens."""

    left_end = min(e.end, a.end)
    right_start = max(e.start, a.start)
    if left_end > right_start:
        return 0.0
    gap = 0
    boundaries = 0
    for t in sentence.tokens:
        if t.start >= left_end and t.end <= right_start:
            if is_boundary(t.surface):
                boundaries += 1
            else:
                gap += 1
    return float(gap) + boundary_penalty * boundaries


def _token_index_at_end(toks, end):
    for i, t in enumerate(toks):
        if t.end == end:
            return i
    return None


def link_abbreviations(sentences, mentions):
    """Abbreviation expansion, scanning a sentence's tokens per mention."""

    by_sentence = {}
    for m in mentions:
        by_sentence.setdefault(m.sentence_index, []).append(m)
    definitions = {}
    for sentence in sentences:
        toks = sentence.tokens
        for m in by_sentence.get(sentence.sentence_index, ()):
            k = _token_index_at_end(toks, m.end)
            if k is None or k + 3 >= len(toks):
                continue
            if toks[k + 1].surface != "(" or toks[k + 3].surface != ")":
                continue
            abbr = toks[k + 2]
            if not is_word(abbr):
                continue
            if _initials_match(abbr.surface, m.surface):
                definitions.setdefault(
                    abbr.surface,
                    (m.concept_id, m.surface, (sentence.sentence_index, k + 2)),
                )
    if not definitions:
        return sorted(mentions, key=lambda m: (m.sentence_index, m.start))
    out = list(mentions)
    occupied = {
        (m.sentence_index, i)
        for sentence in sentences
        for m in by_sentence.get(sentence.sentence_index, ())
        for i, t in enumerate(sentence.tokens)
        if t.start >= m.start and t.end <= m.end
    }
    for sentence in sentences:
        for i, tok in enumerate(sentence.tokens):
            hit = definitions.get(tok.surface)
            if hit is None:
                continue
            concept_id, long_surface, defined_at = hit
            if (sentence.sentence_index, i) <= defined_at:
                continue
            if (sentence.sentence_index, i) in occupied:
                continue
            occupied.add((sentence.sentence_index, i))
            out.append(
                EntityMention(
                    sentence_index=sentence.sentence_index,
                    start=tok.start,
                    end=tok.end,
                    surface=tok.surface,
                    concept_id=concept_id,
                    matched_term=long_surface,
                )
            )
    out.sort(key=lambda m: (m.sentence_index, m.start))
    return out


def _abs_span(sentences, sentence_index, start, end):
    offset = sentences[sentence_index].char_offset
    return offset + start, offset + end


def _entity_payload(sentences, m):
    start, end = _abs_span(sentences, m.sentence_index, m.start, m.end)
    return {
        "surface": m.surface,
        "start": start,
        "end": end,
        "concept_id": m.concept_id,
        "matched_term": m.matched_term,
        "sentence_index": m.sentence_index,
    }


def _num(x):
    return int(x) if float(x).is_integer() else x


def _attribute_payload(sentences, a):
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


def extended_payload(sentences, mentions, attributes, links):
    """The ``extended`` dict of a record, one payload helper per mention."""

    entity_payloads = [_entity_payload(sentences, m) for m in mentions]
    attribute_payloads = [_attribute_payload(sentences, a) for a in attributes]
    entity_index = {(m.sentence_index, m.start): i for i, m in enumerate(mentions)}
    relation_payloads = []
    unlinked = []
    for i, r in enumerate(links):
        if r is None:
            unlinked.append(attribute_payloads[i])
            continue
        relation_payloads.append(
            {
                "entity": entity_index[r.entity.sentence_index, r.entity.start],
                "attribute": i,
                "label": r.label,
                "score": r.score,
            }
        )
    return {
        "entities": entity_payloads,
        "attributes": attribute_payloads,
        "relations": relation_payloads,
        "scores": [p["score"] for p in relation_payloads],
        "unlinked_attributes": unlinked,
    }


def record_json(record_id, text, sentences, mentions, attributes, links, extended):
    """The output line of a record, with :func:`extended_payload` and a
    fresh ``json.dumps`` per record."""

    relation = [
        {"entity": r.entity.surface, "attribute": r.attribute.surface}
        for r in links
        if r is not None
    ]
    result = {"id": record_id, "text": text, "relation": relation}
    if extended:
        result["extended"] = extended_payload(sentences, mentions, attributes, links)
    return json.dumps({"result": result}, ensure_ascii=False)
