"""Sentence and token segmentation for clinical-trial record text.

Eligibility criteria usually arrive one criterion per line, while result
summaries and conclusions are prose paragraphs, so :func:`split_records`
supports both layouts.  The tokenizer keeps clinically meaningful units
atomic: ratios ("140/90"), numeric ranges ("21-45"), hyphenated numeric
qualifiers ("12-lead") and compound units ("kg/m^2") each come out as a
single token, and so does a number in scientific notation ("1e5",
"2.5E-3").  One regex pass finds the tokens, and the branch that matched
a token gives its shape: words and numeric qualifiers are WORD, and only a
single character outside every other branch is looked at again ("%" and
letters are WORD, punctuation PUNCT, anything else SYMBOL).  Whether a word
is a unit is the knowledge base's question (``KnowledgeBase.normalize_unit``),
never the tokenizer's.

The scan tries WORD, the most frequent branch, first.  That changes no
token because the branches' openers are disjoint: WORD opens with an ASCII
letter, the four number branches with a digit, SYMBOL with a comparison
glyph, so at any position the same branch wins in either order.  A branch
added later must keep its opener disjoint from those before it, or the
order decides and this one changes tokens.  Every branch opens on a
character that is not whitespace (OTHER is any such character), so the
scan is gated by ``(?=\\S)``: at a whitespace position it fails at once
instead of trying each of the seven branches, and no token changes.  A
branch added later must open on a non-space character too, or the gate
hides it.

A sentence stores its tokens as columns, one tuple per field
(``SentenceRecord.surfaces``, ``starts``, ``ends`` and ``shapes``), built
in that one scan; every later stage indexes the columns.  A :class:`Token`
is a view of one position of them: :func:`tokenize` and
``SentenceRecord.tokens`` build ``Token``s from the same columns.

The per-record value types, ``Token`` and ``SentenceRecord`` here and the
mention, relation and output-pair types downstream, are
``typing.NamedTuple``s: immutable, cheap to build, and equal (and hashed
alike) field by field.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple


class SplitMode(Enum):
    LINES = "lines"
    PARAGRAPHS = "paragraphs"


class TokenShape(Enum):
    WORD = "WORD"
    NUMBER = "NUMBER"
    RATIO = "RATIO"
    RANGE = "RANGE"
    PUNCT = "PUNCT"
    SYMBOL = "SYMBOL"


class Token(NamedTuple):
    """One token with half-open character offsets into its sentence.

    A named tuple, immutable, so assigning a field raises ``AttributeError``.
    """

    surface: str
    start: int
    end: int
    shape: TokenShape


class SentenceRecord(NamedTuple):
    """A sentence-scoped unit of one record, as a named tuple.

    ``char_offset`` locates the sentence inside the original record text, so
    ``record_text[char_offset : char_offset + len(text)] == text``.  The
    tokens are four columns of equal length: token ``i`` is
    ``surfaces[i] == text[starts[i]:ends[i]]``, of shape ``shapes[i]``.
    """

    record_id: str
    sentence_index: int
    text: str
    char_offset: int
    surfaces: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    shapes: tuple[TokenShape, ...]

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens as :class:`Token`s, built from the columns on each read."""

        return tuple(map(Token, self.surfaces, self.starts, self.ends, self.shapes))


_PUNCT_CHARS = frozenset("()[]{},;:.!?\"'`/\\-–—&")

# One branch per token kind, tried in order; the name of the branch that
# matched gives the token's shape (see ``_BRANCH_SHAPES``), except for OTHER,
# whose single character :func:`_other_shape` classifies.  Comparison glyphs
# come out as SYMBOL tokens; "≦"/"≧" are treated as aliases of "≤"/"≥"
# downstream, and the surface is preserved here.  Only the digit-led branches
# share an opener, so only their order matters, and the ``(?=\S)`` gate
# fails at whitespace before any branch is tried (see the module docstring).
_SCAN_RE = re.compile(
    r"""
    (?=\S)
    (?:
      (?P<WORD>[A-Za-z][A-Za-z0-9'’]*(?:[-/^][A-Za-z0-9^]+)*)  # word, kg/m^2
    | (?P<RATIO>\d+(?:\.\d+)?/\d+(?:\.\d+)?)                   # 140/90
    | (?P<RANGE>\d+(?:\.\d+)?[-–]\d+(?:\.\d+)?(?![A-Za-z]))    # 21-45
    | (?P<QUALIFIER>\d+(?:\.\d+)?[-–][A-Za-z][A-Za-z0-9-]*)    # 12-lead
    | (?P<NUMBER>(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?)  # 40, 1,000, 2.5, 1e5
    | (?P<SYMBOL><=|>=|≤|≥|≦|≧|[<>=])
    | (?P<OTHER>\S)
    )
    """,
    re.VERBOSE,
)

_BRANCH_SHAPES = {
    "WORD": TokenShape.WORD,
    "QUALIFIER": TokenShape.WORD,
    "RATIO": TokenShape.RATIO,
    "RANGE": TokenShape.RANGE,
    "NUMBER": TokenShape.NUMBER,
    "SYMBOL": TokenShape.SYMBOL,
}


def _other_shape(char: str) -> TokenShape:
    """Shape of a single character that no other branch matched."""

    if char == "%" or char.isalpha():
        return TokenShape.WORD
    return TokenShape.PUNCT if char in _PUNCT_CHARS else TokenShape.SYMBOL


def scan_tokens(
    sentence_text: str,
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...], tuple[TokenShape, ...]]:
    """The token columns ``(surfaces, starts, ends, shapes)`` of one
    sentence, one tuple per field, built in one scan."""

    surfaces, starts, ends, shapes = [], [], [], []
    for m in _SCAN_RE.finditer(sentence_text):
        surface = m.group()
        surfaces.append(surface)
        starts.append(m.start())
        ends.append(m.end())
        shapes.append(_BRANCH_SHAPES.get(m.lastgroup) or _other_shape(surface))
    return tuple(surfaces), tuple(starts), tuple(ends), tuple(shapes)


def tokenize(sentence_text: str) -> list[Token]:
    """Tokenize one sentence, preserving character offsets."""

    return list(map(Token, *scan_tokens(sentence_text)))


# Terminal periods after these tokens never end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "vs.", "etc.", "ca.", "approx.", "resp.",
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
        "fig.", "figs.", "no.", "nos.", "vol.", "al.",
    }
)

_TERMINAL_RE = re.compile(r"[.?!]")
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
    for m in _TERMINAL_RE.finditer(text):
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
        # the tuple constructor itself, without SentenceRecord.__new__'s Python frame
        fields = (record_id, len(sentences), text, start, *scan_tokens(text))
        sentences.append(tuple.__new__(SentenceRecord, fields))
    return sentences
