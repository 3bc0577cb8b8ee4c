"""Sentence and token segmentation for clinical-trial record text.

Eligibility criteria usually arrive one criterion per line, while result
summaries and conclusions are prose paragraphs, so :func:`split_records`
supports both layouts.  The tokenizer keeps clinically meaningful units
atomic: ratios ("140/90"), numeric ranges ("21-45"), hyphenated numeric
qualifiers ("12-lead") and compound units ("kg/m^2") each come out as a
single token.  One regex pass finds the tokens, and the branch that matched
a token gives its shape; only words, numeric qualifiers and single
characters consult the built-in unit table, once per distinct surface.

The scan tries WORD, the most frequent branch, first.  That changes no
token because the branches' openers are disjoint: WORD opens with an ASCII
letter, the four number branches with a digit, SYMBOL with a comparison
glyph, so at any position the same branch wins in either order.  A branch
added later must keep its opener disjoint from those before it, or the
order decides and this one changes tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .units import normalize_unit


class SplitMode(Enum):
    LINES = "lines"
    PARAGRAPHS = "paragraphs"


class TokenShape(Enum):
    WORD = "WORD"
    NUMBER = "NUMBER"
    RATIO = "RATIO"
    RANGE = "RANGE"
    UNIT_LIKE = "UNIT_LIKE"
    PUNCT = "PUNCT"
    SYMBOL = "SYMBOL"


class Token(NamedTuple):
    """One token with half-open character offsets into its sentence.

    A named tuple: cheap to build (the tokenizer makes one per token), and
    immutable, so assigning a field raises ``AttributeError``.
    """

    surface: str
    start: int
    end: int
    shape: TokenShape


@dataclass(frozen=True)
class SentenceRecord:
    """A sentence-scoped unit of one record.

    ``char_offset`` locates the sentence inside the original record text, so
    ``record_text[char_offset : char_offset + len(text)] == text``.
    """

    record_id: str
    sentence_index: int
    text: str
    char_offset: int
    tokens: tuple[Token, ...]


_PUNCT_CHARS = frozenset("()[]{},;:.!?\"'`/\\-–—&")

# One branch per token kind, tried in order; the name of the branch that
# matched is the token's shape, except that QUALIFIER, WORD and OTHER tokens
# are looked up by :func:`_looked_up_shape`.  Comparison glyphs come out as
# SYMBOL tokens; "≦"/"≧" are treated as aliases of "≤"/"≥" downstream, and
# the surface is preserved here.  Only the digit-led branches share an
# opener, so only their order matters (see the module docstring).
_SCAN_RE = re.compile(
    r"""
      (?P<WORD>[A-Za-z][A-Za-z0-9'’]*(?:[-/^][A-Za-z0-9^]+)*)  # word, kg/m^2
    | (?P<RATIO>\d+(?:\.\d+)?/\d+(?:\.\d+)?)                   # 140/90
    | (?P<RANGE>\d+(?:\.\d+)?[-–]\d+(?:\.\d+)?(?![A-Za-z]))    # 21-45
    | (?P<QUALIFIER>\d+(?:\.\d+)?[-–][A-Za-z][A-Za-z0-9-]*)    # 12-lead
    | (?P<NUMBER>(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?)         # 40, 1,000, 2.5
    | (?P<SYMBOL><=|>=|≤|≥|≦|≧|[<>=])
    | (?P<OTHER>\S)
    """,
    re.VERBOSE,
)

# Shapes fixed by the branch alone; the other branches look the surface up.
_BRANCH_SHAPES = {
    "RATIO": TokenShape.RATIO,
    "RANGE": TokenShape.RANGE,
    "NUMBER": TokenShape.NUMBER,
    "SYMBOL": TokenShape.SYMBOL,
}


@lru_cache(maxsize=4096)
def _looked_up_shape(surface: str) -> TokenShape:
    """Shape of a word, numeric qualifier or single-character token.

    Surfaces with a letter, and "%", are UNIT_LIKE when the built-in unit
    table knows them and WORD otherwise; other characters are PUNCT or
    SYMBOL.  The result depends on the surface alone, so it is cached.
    """

    if surface == "%" or any(c.isalpha() for c in surface):
        return TokenShape.UNIT_LIKE if normalize_unit(surface) is not None else TokenShape.WORD
    if surface in _PUNCT_CHARS:
        return TokenShape.PUNCT
    return TokenShape.SYMBOL


_new_tuple = tuple.__new__


def tokenize(sentence_text: str) -> list[Token]:
    """Tokenize one sentence, preserving character offsets."""

    tokens = []
    for m in _SCAN_RE.finditer(sentence_text):
        surface = m.group()
        start, end = m.span()
        shape = _BRANCH_SHAPES.get(m.lastgroup) or _looked_up_shape(surface)
        # the tuple constructor itself, without Token.__new__'s Python frame
        tokens.append(_new_tuple(Token, (surface, start, end, shape)))
    return tokens


def token_columns(
    tokens: Sequence[Token],
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...], tuple[TokenShape, ...]]:
    """``(surfaces, starts, ends, shapes)`` of ``tokens``, one tuple per field.

    The fields are read in C, which costs less than reading them token by
    token in a Python loop.
    """

    return tuple(zip(*tokens)) or ((), (), (), ())


# Terminal periods after these tokens never end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "vs.", "etc.", "ca.", "approx.", "resp.",
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
        "fig.", "figs.", "no.", "nos.", "vol.", "al.",
    }
)

_NEXT_SENTENCE_RE = re.compile(r"\s+([A-Z0-9])")
_SINGLE_INITIAL_RE = re.compile(r"[A-Z]\.")


# Characters that end the token before a terminal period.
_TOKEN_SEPARATORS = (" ", "\n", "\t", "\r")


def _paragraph_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    start = 0
    # Last separator before ``scanned``, and how many more "(" than ")"
    # lie between ``start`` and ``scanned``; each stretch of text is
    # searched once, so the whole loop stays linear.
    separator = -1
    scanned = 0
    depth = 0
    for m in re.finditer(r"[.?!]", text):
        end = m.end()
        nxt = _NEXT_SENTENCE_RE.match(text, end)
        if not nxt:
            continue
        separator = max(
            separator, *(text.rfind(c, scanned, end) for c in _TOKEN_SEPARATORS)
        )
        depth += text.count("(", scanned, end) - text.count(")", scanned, end)
        scanned = end
        token = text[separator + 1 : end]
        lowered = token.lower()
        if lowered in _ABBREVIATIONS or lowered.strip("()") in _ABBREVIATIONS:
            continue
        if _SINGLE_INITIAL_RE.fullmatch(token.strip("()")):
            continue
        # A period inside an unclosed parenthesis stays within the sentence.
        if depth > 0:
            continue
        spans.append((start, end))
        start = nxt.start(1)
        depth = 0
    if text[start:].strip():
        spans.append((start, len(text)))
    return spans


def _line_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    for line in text.split("\n"):
        if line.strip():
            spans.append((pos, pos + len(line)))
        pos += len(line) + 1
    return spans


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def split_records(raw: str, mode: SplitMode, record_id: str = "") -> list[SentenceRecord]:
    """Split raw record text into tokenized sentence units.

    ``LINES`` emits one unit per non-empty line; ``PARAGRAPHS`` splits at
    terminal punctuation followed by whitespace and a capital letter or
    digit, guarded by an abbreviation stop list.  ``mode`` must be a
    :class:`SplitMode`; its value string is not accepted.
    """

    if not isinstance(mode, SplitMode):
        raise TypeError(f"mode must be a SplitMode, got {mode!r}")
    if not raw:
        return []
    spans = _line_spans(raw) if mode is SplitMode.LINES else _paragraph_spans(raw)
    sentences = []
    for start, end in spans:
        start, end = _trim(raw, start, end)
        if start >= end:
            continue
        text = raw[start:end]
        sentences.append(
            SentenceRecord(
                record_id=record_id,
                sentence_index=len(sentences),
                text=text,
                char_offset=start,
                tokens=tuple(tokenize(text)),
            )
        )
    return sentences
