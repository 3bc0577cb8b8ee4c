"""Attribute expression parsing.

Attributes are the value side of a clinical statement: numeric comparisons
("≤ 40 kg/m^2"), ranges ("21-45"), ratios ("140/90 mmHg"), temporal
expressions ("within three days"), frequencies ("at least twice a week"),
and qualifiers ("12-lead", "concomitant").  A deterministic longest-match
grammar over tokens produces at most one parse per span.

Span convention: comparison glyphs (≤, >=) are part of the attribute
surface, while comparator words ("less than", "at least") are recorded in
the ``comparator`` field but excluded from the surface of value expressions;
temporal and frequency expressions keep their comparator words, and trailing
anchors ("prior to screening", "for the past six months") are absorbed into
the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .segmentation import SentenceRecord, Token, TokenShape

if TYPE_CHECKING:  # pragma: no cover
    from .kb import KnowledgeBase


class AttributeKind(Enum):
    COMPARISON = "COMPARISON"
    RANGE = "RANGE"
    RATIO = "RATIO"
    TEMPORAL = "TEMPORAL"
    FREQUENCY = "FREQUENCY"
    QUALIFIER = "QUALIFIER"


class Comparator(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="


class TimeUnit(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"
    HOUR = "hour"


class AttributeShape(Enum):
    """Numeric shape of an attribute, for value-pattern compatibility."""

    SCALAR = "SCALAR"
    RATIO = "RATIO"
    RANGE = "RANGE"
    NONNUMERIC = "NONNUMERIC"


@dataclass(frozen=True)
class AttributeMention:
    """A parsed attribute span with its typed payload."""

    sentence_index: int
    start: int
    end: int
    surface: str
    kind: AttributeKind
    comparator: Comparator | None = None
    values: tuple[float, ...] = ()
    unit: str | None = None
    time_unit: TimeUnit | None = None
    anchor: str | None = None

    def __post_init__(self):
        if self.kind is AttributeKind.RANGE:
            lo, hi = self.values
            if lo > hi:
                raise ValueError("range values must be ordered")
        elif self.kind is AttributeKind.RATIO:
            num, den = self.values
            if num <= 0 or den <= 0:
                raise ValueError("ratio parts must be positive")
        elif self.kind is AttributeKind.COMPARISON:
            if self.comparator is None or len(self.values) != 1:
                raise ValueError("comparison needs a comparator and one value")
        elif self.kind is AttributeKind.QUALIFIER:
            if self.values or self.unit is not None:
                raise ValueError("qualifiers carry no values or unit")


def attribute_shape(attr: AttributeMention) -> AttributeShape:
    if attr.kind is AttributeKind.COMPARISON:
        return AttributeShape.SCALAR
    if attr.kind is AttributeKind.RATIO:
        return AttributeShape.RATIO
    if attr.kind is AttributeKind.RANGE:
        return AttributeShape.RANGE
    return AttributeShape.NONNUMERIC


_NUMBER_WORDS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
    "nineteen": 19, "twenty": 20,
}

_FREQUENCY_WORDS = {"once": 1.0, "twice": 2.0}

_TIME_UNITS = {
    "day": TimeUnit.DAY, "days": TimeUnit.DAY,
    "week": TimeUnit.WEEK, "weeks": TimeUnit.WEEK,
    "month": TimeUnit.MONTH, "months": TimeUnit.MONTH,
    "year": TimeUnit.YEAR, "years": TimeUnit.YEAR,
    "hour": TimeUnit.HOUR, "hours": TimeUnit.HOUR,
}

# word comparators, longest sequence first
_WORD_COMPARATORS: tuple[tuple[tuple[str, ...], Comparator], ...] = (
    (("no", "more", "than"), Comparator.LE),
    (("less", "than"), Comparator.LT),
    (("greater", "than"), Comparator.GT),
    (("more", "than"), Comparator.GT),
    (("at", "least"), Comparator.GE),
    (("at", "most"), Comparator.LE),
    (("under",), Comparator.LT),
    (("over",), Comparator.GT),
)

# the word comparators by first word, in table order
_WORD_COMPARATORS_BY_FIRST: dict[str, tuple[tuple[tuple[str, ...], Comparator], ...]] = {
    first: tuple(row for row in _WORD_COMPARATORS if row[0][0] == first)
    for first in dict.fromkeys(words[0] for words, _ in _WORD_COMPARATORS)
}

_GLYPH_COMPARATORS = {
    "≤": Comparator.LE, "<=": Comparator.LE, "≦": Comparator.LE,
    "≥": Comparator.GE, ">=": Comparator.GE, "≧": Comparator.GE,
    "<": Comparator.LT, ">": Comparator.GT, "=": Comparator.EQ,
}

QUALIFIER_LEXICON = frozenset({"concomitant", "stable", "normal", "resting"})

_WITHIN = "within"  # opens "within <number> <time unit>"
_BETWEEN = "between"  # opens "between <number> and <number>"

_ANCHOR_HEADS = ("prior", "before", "after")
_ANCHOR_STOP = frozenset({"and", "or", "but", "if"})


@dataclass
class _Parse:
    kind: AttributeKind
    span_start: int  # token index where the surface starts
    span_end: int  # last token index of the surface (inclusive)
    next_i: int  # scan position after all consumed tokens
    comparator: Comparator | None = None
    values: tuple[float, ...] = ()
    unit: str | None = None
    time_unit: TimeUnit | None = None
    anchor: tuple[int, int] | None = None  # char offsets of the anchor phrase


def _comparator_at(toks: Sequence[Token], i: int) -> tuple[Comparator, int, bool] | None:
    """Return (comparator, tokens consumed, is_symbolic) or None."""

    if i >= len(toks):
        return None
    surface = toks[i].surface
    if surface in _GLYPH_COMPARATORS:
        return _GLYPH_COMPARATORS[surface], 1, True
    for words, comp in _WORD_COMPARATORS_BY_FIRST.get(surface.lower(), ()):
        n = len(words)
        if i + n <= len(toks) and all(
            toks[i + k].surface.lower() == words[k] for k in range(1, n)
        ):
            return comp, n, False
    return None


def _number_at(toks: Sequence[Token], i: int) -> float | None:
    if i >= len(toks):
        return None
    tok = toks[i]
    if tok.shape is TokenShape.NUMBER:
        value = float(tok.surface.replace(",", ""))
        return value if math.isfinite(value) else None  # too long for a float
    word = tok.surface.lower()
    if word in _NUMBER_WORDS:
        return float(_NUMBER_WORDS[word])
    return None


def _time_unit_at(toks: Sequence[Token], i: int) -> TimeUnit | None:
    if i >= len(toks):
        return None
    return _TIME_UNITS.get(toks[i].surface.lower())


def _unit_at(toks: Sequence[Token], i: int, normalize) -> tuple[str, int] | None:
    """Longest unit match starting at token i, up to three tokens wide."""

    # a unit spans no punctuation or symbol token
    surfaces = []
    for tok in toks[i : i + 3]:
        if tok.shape is TokenShape.PUNCT or tok.shape is TokenShape.SYMBOL:
            break
        surfaces.append(tok.surface)
    for n in range(len(surfaces), 0, -1):
        canonical = normalize(" ".join(surfaces[:n]))
        if canonical is not None:
            return canonical, n
    return None


def _anchor_at(toks: Sequence[Token], i: int) -> int:
    """Number of tokens absorbed by a trailing anchor phrase (0 if none)."""

    def words_after(j: int, limit: int) -> int:
        n = 0
        while (
            j + n < len(toks)
            and n < limit
            and toks[j + n].shape is TokenShape.WORD
            and toks[j + n].surface.lower() not in _ANCHOR_STOP
        ):
            n += 1
        return n

    if i >= len(toks):
        return 0
    head = toks[i].surface.lower()
    if head == "prior" and i + 1 < len(toks) and toks[i + 1].surface.lower() == "to":
        n = words_after(i + 2, 3)
        return 2 + n if n else 0
    if head in ("before", "after"):
        n = words_after(i + 1, 3)
        return 1 + n if n else 0
    if (
        head == "for"
        and i + 1 < len(toks)
        and toks[i + 1].surface.lower() == "the"
        and i + 2 < len(toks)
        and toks[i + 2].surface.lower() in ("past", "last")
        and _number_at(toks, i + 3) is not None
        and _time_unit_at(toks, i + 4) is not None
    ):
        return 5
    if head == "of" and i + 1 < len(toks) and toks[i + 1].surface.lower() == "their":
        n = words_after(i + 2, 4)
        return 2 + n if n else 0
    return 0


def _unit_suffix(toks, last: int, normalize) -> tuple[str | None, int, int]:
    """Optional unit after token ``last``: (unit, span_end, next_i)."""

    u = _unit_at(toks, last + 1, normalize)
    if u is None:
        return None, last, last + 1
    unit, n = u
    return unit, last + n, last + 1 + n


def _anchor_suffix(toks, j: int, span_end: int) -> tuple[tuple[int, int] | None, int, int]:
    """Optional trailing anchor at token ``j``: (anchor, span_end, next_i)."""

    n = _anchor_at(toks, j)
    if not n:
        return None, span_end, j
    return (toks[j].start, toks[j + n - 1].end), j + n - 1, j + n


# what a production sees when no comparator starts the position
_NO_COMPARATOR = (None, 0, False)


def _ratio(toks, i, hit, normalize) -> _Parse | None:
    comp, n, symbolic = hit or _NO_COMPARATOR
    j = i + n
    if j >= len(toks) or toks[j].shape is not TokenShape.RATIO:
        return None
    num_s, den_s = toks[j].surface.split("/")
    num, den = float(num_s), float(den_s)
    if not (0 < num < math.inf and 0 < den < math.inf):
        return None
    unit, span_end, next_i = _unit_suffix(toks, j, normalize)
    return _Parse(AttributeKind.RATIO, i if symbolic else j, span_end, next_i,
                  comparator=comp, values=(num, den), unit=unit)


def _range(toks, i, hit, normalize) -> _Parse | None:
    if toks[i].shape is TokenShape.RANGE:
        lo_s, hi_s = toks[i].surface.replace("–", "-").split("-")
        values, last = (float(lo_s), float(hi_s)), i
        if not all(map(math.isfinite, values)):
            return None
    elif (  # "between X and Y [unit]"
        toks[i].surface.lower() == _BETWEEN
        and _number_at(toks, i + 1) is not None
        and i + 2 < len(toks)
        and toks[i + 2].surface.lower() == "and"
        and _number_at(toks, i + 3) is not None
    ):
        values, last = (_number_at(toks, i + 1), _number_at(toks, i + 3)), i + 3
    else:
        return None
    unit, span_end, next_i = _unit_suffix(toks, last, normalize)
    return _Parse(AttributeKind.RANGE, i, span_end, next_i,
                  values=tuple(sorted(values)), unit=unit)


def _comparison(toks, i, hit, normalize) -> _Parse | None:
    comp, n, symbolic = hit or _NO_COMPARATOR
    j = i + n
    value = _number_at(toks, j)
    if value is None:
        return None
    unit, span_end, next_i = _unit_suffix(toks, j, normalize)
    # A bare number is not an attribute: we need a comparator or a unit.
    if comp is None:
        if unit is None:
            return None
        comp = Comparator.EQ
    return _Parse(AttributeKind.COMPARISON, i if symbolic else j, span_end, next_i,
                  comparator=comp, values=(value,), unit=unit)


def _temporal(toks, i, hit, normalize) -> _Parse | None:
    if toks[i].surface.lower() == _WITHIN:
        comp, j = Comparator.LE, i + 1
    elif hit:
        comp, n, _ = hit
        j = i + n
    else:
        return None
    value = _number_at(toks, j)
    if value is None:
        return None
    unit = _time_unit_at(toks, j + 1)
    if unit is None:
        return None
    anchor, span_end, next_i = _anchor_suffix(toks, j + 2, j + 1)
    return _Parse(AttributeKind.TEMPORAL, i, span_end, next_i,
                  comparator=comp, values=(value,), time_unit=unit,
                  anchor=anchor)


def _frequency(toks, i, hit, normalize) -> _Parse | None:
    comp, n, _ = hit or _NO_COMPARATOR
    j = i + n
    if j >= len(toks):
        return None
    value = _FREQUENCY_WORDS.get(toks[j].surface.lower())
    times_form = False
    if value is None:
        value = _number_at(toks, j)
        if value is None:
            return None
        times_form = j + 1 < len(toks) and toks[j + 1].surface.lower() == "times"
    j += 2 if times_form else 1
    time_unit = None
    span_end = j - 1
    if j < len(toks) and toks[j].surface.lower() in ("a", "an", "per"):
        time_unit = _time_unit_at(toks, j + 1)
        if time_unit is None:
            return None
        span_end = j + 1
        j += 2
    elif not times_form:
        # "once"/"twice"/bare numbers need the per-unit part
        return None
    anchor, span_end, next_i = _anchor_suffix(toks, j, span_end)
    return _Parse(AttributeKind.FREQUENCY, i, span_end, next_i,
                  comparator=comp, values=(value,), time_unit=time_unit,
                  anchor=anchor)


# The shapes the start gate tests, bound to module names: the gate runs on
# nearly every token, and an identity test against a module global costs
# less than hashing the Enum into a set or looking the member up on its
# class.
_NUMBER, _RATIO, _RANGE, _WORD = (
    TokenShape.NUMBER, TokenShape.RATIO, TokenShape.RANGE, TokenShape.WORD
)


def _is_numeric_qualifier(tok: Token) -> bool:
    # the digit head is a prefix of the surface, so a surface that does not
    # open with a digit has none
    if tok.shape is not _WORD or not tok.surface[:1].isdigit():
        return False
    head = tok.surface.split("-")[0].split("–")[0]
    return head.isdigit() and any(c.isalpha() for c in tok.surface)


def _qualifier(toks, i, entity_spans) -> _Parse | None:
    tok = toks[i]
    if _is_numeric_qualifier(tok):
        return _Parse(AttributeKind.QUALIFIER, i, i, i + 1)
    if tok.surface.lower() in QUALIFIER_LEXICON and entity_spans:
        for k in (i - 1, i + 1):
            if 0 <= k < len(toks) and _inside_any(toks[k], entity_spans):
                return _Parse(AttributeKind.QUALIFIER, i, i, i + 1)
    return None


def _inside_any(tok: Token, spans: Sequence[tuple[int, int]]) -> bool:
    return any(s <= tok.start and tok.end <= e for s, e in spans)


# Lowercased words that can open a production or a qualifier.
_START_WORDS = frozenset(
    _WORD_COMPARATORS_BY_FIRST.keys()
    | _NUMBER_WORDS.keys()
    | _FREQUENCY_WORDS.keys()
    | QUALIFIER_LEXICON
    | {_WITHIN, _BETWEEN}
)


def _may_start(tok: Token) -> bool:
    """False where no production or qualifier can start, tested in O(1).

    A parse starts with a value-shaped token, a comparator glyph, a start
    word or a numeric qualifier; every other position is skipped unparsed.
    """

    shape = tok.shape
    return (
        shape is _NUMBER
        or shape is _RATIO
        or shape is _RANGE
        or tok.surface in _GLYPH_COMPARATORS
        or tok.surface.lower() in _START_WORDS
        or _is_numeric_qualifier(tok)
    )


def extract_attributes(
    sentence: SentenceRecord,
    kb: "KnowledgeBase",
    entity_spans: Sequence[tuple[int, int]] | None = None,
) -> list[AttributeMention]:
    """Parse all attribute expressions in a tokenized sentence.

    ``kb`` supplies unit normalization.
    ``entity_spans`` (character spans of recognized entities) gates the
    closed-lexicon qualifiers, which must sit next to an entity; numeric
    compounds like "12-lead" do not need it.  Spans never overlap, and
    unparseable numeric fragments, numbers too long for a finite float
    among them, are skipped rather than partially emitted.
    """

    normalize = kb.normalize_unit
    toks = sentence.tokens
    out: list[AttributeMention] = []
    i = 0
    while i < len(toks):
        if not _may_start(toks[i]):
            i += 1
            continue
        best: _Parse | None = None
        hit = _comparator_at(toks, i)
        for prod in (_frequency, _temporal, _ratio, _range, _comparison):
            parse = prod(toks, i, hit, normalize)
            if parse and (best is None or parse.next_i > best.next_i):
                best = parse
        if best is None:
            best = _qualifier(toks, i, entity_spans)
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
