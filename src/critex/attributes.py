"""Attribute expression parsing.

Attributes are the value side of a clinical statement: numeric comparisons
("≤ 40 kg/m^2"), ranges ("21-45"), ratios ("140/90 mmHg"), temporal
expressions ("within three days"), frequencies ("at least twice a week"),
and qualifiers ("12-lead", "concomitant").  A deterministic longest-match
grammar over tokens produces at most one parse per span.

Starts are found by one static dispatch table, built at import from the
grammar's own vocabulary.  A value token (NUMBER, RATIO, RANGE) is looked
up by its shape, any other token by its lowercased surface, and the entry
lists the productions that token can open.  At a comparator opener (a
glyph, or the first word of a word comparator) the comparator is probed,
and the token after it decides; a token with no entry opens nothing
unless it is a numeric qualifier.  Only the listed productions are tried,
because every other one would fail at that start.

Span convention: comparison glyphs (≤, >=) are part of the attribute
surface, while comparator words ("less than", "at least") are recorded in
the ``comparator`` field but excluded from the surface of value expressions;
temporal and frequency expressions keep their comparator words, and trailing
anchors ("prior to screening", "for the past six months") are absorbed into
the surface.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .segmentation import SentenceRecord, TokenShape

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


class _AttributeFields(NamedTuple):
    """The fields of an ``AttributeMention``, in order, with their defaults."""

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


class AttributeMention(_AttributeFields):
    """A parsed attribute span with its typed payload, as a named tuple.

    The payload is checked against its kind however the mention is built:
    by the constructor, by ``_make`` or by ``_replace``.
    """

    __slots__ = ()

    # the fields and defaults of _AttributeFields, spelled out: a call with
    # them costs half of one through the tuple's own generated __new__
    def __new__(
        cls,
        sentence_index: int,
        start: int,
        end: int,
        surface: str,
        kind: AttributeKind,
        comparator: Comparator | None = None,
        values: tuple[float, ...] = (),
        unit: str | None = None,
        time_unit: TimeUnit | None = None,
        anchor: str | None = None,
    ):
        if kind is AttributeKind.RANGE:
            lo, hi = values
            if lo > hi:
                raise ValueError("range values must be ordered")
        elif kind is AttributeKind.RATIO:
            num, den = values
            if num <= 0 or den <= 0:
                raise ValueError("ratio parts must be positive")
        elif kind is AttributeKind.COMPARISON:
            if comparator is None or len(values) != 1:
                raise ValueError("comparison needs a comparator and one value")
        elif kind is AttributeKind.QUALIFIER:
            if values or unit is not None:
                raise ValueError("qualifiers carry no values or unit")
        return tuple.__new__(
            cls,
            (sentence_index, start, end, surface, kind, comparator, values, unit, time_unit, anchor),
        )

    @classmethod
    def _make(cls, iterable) -> "AttributeMention":
        # ``_replace`` builds through ``_make``, so it is checked too
        return cls(*iterable)


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

_ANCHOR_STOP = frozenset({"and", "or", "but", "if"})


class _Parse(NamedTuple):
    kind: AttributeKind
    span_start: int  # token index where the surface starts
    span_end: int  # last token index of the surface (inclusive)
    next_i: int  # scan position after all consumed tokens
    comparator: Comparator | None = None
    values: tuple[float, ...] = ()
    unit: str | None = None
    time_unit: TimeUnit | None = None
    anchor: tuple[int, int] | None = None  # char offsets of the anchor phrase


def _comparator_at(s: SentenceRecord, i: int) -> tuple[Comparator, int, bool] | None:
    """Return (comparator, tokens consumed, is_symbolic) or None."""

    surfaces = s.surfaces
    if i >= len(surfaces):
        return None
    surface = surfaces[i]
    if surface in _GLYPH_COMPARATORS:
        return _GLYPH_COMPARATORS[surface], 1, True
    for words, comp in _WORD_COMPARATORS_BY_FIRST.get(surface.lower(), ()):
        n = len(words)
        if i + n <= len(surfaces) and all(
            surfaces[i + k].lower() == words[k] for k in range(1, n)
        ):
            return comp, n, False
    return None


def _number_at(s: SentenceRecord, i: int) -> float | None:
    if i >= len(s.surfaces):
        return None
    surface = s.surfaces[i]
    if s.shapes[i] is TokenShape.NUMBER:
        value = float(surface.replace(",", ""))
        return value if math.isfinite(value) else None  # too long for a float
    word = surface.lower()
    if word in _NUMBER_WORDS:
        return float(_NUMBER_WORDS[word])
    return None


def _time_unit_at(s: SentenceRecord, i: int) -> TimeUnit | None:
    if i >= len(s.surfaces):
        return None
    return _TIME_UNITS.get(s.surfaces[i].lower())


def _unit_at(s: SentenceRecord, i: int, normalize) -> tuple[str, int] | None:
    """Longest unit match starting at token i, up to three tokens wide."""

    # a unit spans no punctuation or symbol token
    surfaces = []
    for surface, shape in zip(s.surfaces[i : i + 3], s.shapes[i : i + 3]):
        if shape is TokenShape.PUNCT or shape is TokenShape.SYMBOL:
            break
        surfaces.append(surface)
    for n in range(len(surfaces), 0, -1):
        canonical = normalize(" ".join(surfaces[:n]))
        if canonical is not None:
            return canonical, n
    return None


def _anchor_at(s: SentenceRecord, i: int) -> int:
    """Number of tokens absorbed by a trailing anchor phrase (0 if none)."""

    surfaces, shapes = s.surfaces, s.shapes

    def words_after(j: int, limit: int) -> int:
        n = 0
        while (
            j + n < len(surfaces)
            and n < limit
            and shapes[j + n] is TokenShape.WORD
            and surfaces[j + n].lower() not in _ANCHOR_STOP
        ):
            n += 1
        return n

    if i >= len(surfaces):
        return 0
    head = surfaces[i].lower()
    if head == "prior" and i + 1 < len(surfaces) and surfaces[i + 1].lower() == "to":
        n = words_after(i + 2, 3)
        return 2 + n if n else 0
    if head in ("before", "after"):
        n = words_after(i + 1, 3)
        return 1 + n if n else 0
    if (
        head == "for"
        and i + 1 < len(surfaces)
        and surfaces[i + 1].lower() == "the"
        and i + 2 < len(surfaces)
        and surfaces[i + 2].lower() in ("past", "last")
        and _number_at(s, i + 3) is not None
        and _time_unit_at(s, i + 4) is not None
    ):
        return 5
    if head == "of" and i + 1 < len(surfaces) and surfaces[i + 1].lower() == "their":
        n = words_after(i + 2, 4)
        return 2 + n if n else 0
    return 0


def _unit_suffix(s, last: int, normalize) -> tuple[str | None, int, int]:
    """Optional unit after token ``last``: (unit, span_end, next_i)."""

    u = _unit_at(s, last + 1, normalize)
    if u is None:
        return None, last, last + 1
    unit, n = u
    return unit, last + n, last + 1 + n


def _anchor_suffix(s, j: int, span_end: int) -> tuple[tuple[int, int] | None, int, int]:
    """Optional trailing anchor at token ``j``: (anchor, span_end, next_i)."""

    n = _anchor_at(s, j)
    if not n:
        return None, span_end, j
    return (s.starts[j], s.ends[j + n - 1]), j + n - 1, j + n


# what a production sees when no comparator starts the position
_NO_COMPARATOR = (None, 0, False)


def _ratio(s, i, hit, normalize) -> _Parse | None:
    comp, n, symbolic = hit or _NO_COMPARATOR
    j = i + n
    if j >= len(s.shapes) or s.shapes[j] is not TokenShape.RATIO:
        return None
    num_s, den_s = s.surfaces[j].split("/")
    num, den = float(num_s), float(den_s)
    if not (0 < num < math.inf and 0 < den < math.inf):
        return None
    unit, span_end, next_i = _unit_suffix(s, j, normalize)
    return _Parse(AttributeKind.RATIO, i if symbolic else j, span_end, next_i,
                  comparator=comp, values=(num, den), unit=unit)


def _range(s, i, hit, normalize) -> _Parse | None:
    surfaces = s.surfaces
    if s.shapes[i] is TokenShape.RANGE:
        lo_s, hi_s = surfaces[i].replace("–", "-").split("-")
        values, last = (float(lo_s), float(hi_s)), i
        if not all(map(math.isfinite, values)):
            return None
    elif (  # "between X and Y [unit]"
        surfaces[i].lower() == _BETWEEN
        and _number_at(s, i + 1) is not None
        and i + 2 < len(surfaces)
        and surfaces[i + 2].lower() == "and"
        and _number_at(s, i + 3) is not None
    ):
        values, last = (_number_at(s, i + 1), _number_at(s, i + 3)), i + 3
    else:
        return None
    unit, span_end, next_i = _unit_suffix(s, last, normalize)
    return _Parse(AttributeKind.RANGE, i, span_end, next_i,
                  values=tuple(sorted(values)), unit=unit)


def _comparison(s, i, hit, normalize) -> _Parse | None:
    comp, n, symbolic = hit or _NO_COMPARATOR
    j = i + n
    value = _number_at(s, j)
    if value is None:
        return None
    unit, span_end, next_i = _unit_suffix(s, j, normalize)
    # A bare number is not an attribute: we need a comparator or a unit.
    if comp is None:
        if unit is None:
            return None
        comp = Comparator.EQ
    return _Parse(AttributeKind.COMPARISON, i if symbolic else j, span_end, next_i,
                  comparator=comp, values=(value,), unit=unit)


def _temporal(s, i, hit, normalize) -> _Parse | None:
    if s.surfaces[i].lower() == _WITHIN:
        comp, j = Comparator.LE, i + 1
    elif hit:
        comp, n, _ = hit
        j = i + n
    else:
        return None
    value = _number_at(s, j)
    if value is None:
        return None
    unit = _time_unit_at(s, j + 1)
    if unit is None:
        return None
    anchor, span_end, next_i = _anchor_suffix(s, j + 2, j + 1)
    return _Parse(AttributeKind.TEMPORAL, i, span_end, next_i,
                  comparator=comp, values=(value,), time_unit=unit,
                  anchor=anchor)


def _frequency(s, i, hit, normalize) -> _Parse | None:
    comp, n, _ = hit or _NO_COMPARATOR
    j = i + n
    surfaces = s.surfaces
    if j >= len(surfaces):
        return None
    value = _FREQUENCY_WORDS.get(surfaces[j].lower())
    times_form = False
    if value is None:
        value = _number_at(s, j)
        if value is None:
            return None
        times_form = j + 1 < len(surfaces) and surfaces[j + 1].lower() == "times"
    j += 2 if times_form else 1
    time_unit = None
    span_end = j - 1
    if j < len(surfaces) and surfaces[j].lower() in ("a", "an", "per"):
        time_unit = _time_unit_at(s, j + 1)
        if time_unit is None:
            return None
        span_end = j + 1
        j += 2
    elif not times_form:
        # "once"/"twice"/bare numbers need the per-unit part
        return None
    anchor, span_end, next_i = _anchor_suffix(s, j, span_end)
    return _Parse(AttributeKind.FREQUENCY, i, span_end, next_i,
                  comparator=comp, values=(value,), time_unit=time_unit,
                  anchor=anchor)


# The value shapes, bound to module names: the scan tests the shape of
# every token, and identity tests against module globals cost less than
# hashing the Enum, whose ``__hash__`` runs in Python, so only value tokens
# are looked up by their shape.
_NUMBER, _RATIO, _RANGE, _WORD = (
    TokenShape.NUMBER, TokenShape.RATIO, TokenShape.RANGE, TokenShape.WORD
)


def _is_numeric_qualifier(surface: str, shape: TokenShape) -> bool:
    # the digit head is a prefix of the surface, so a surface that does not
    # open with a digit has none
    if shape is not _WORD or not surface[:1].isdigit():
        return False
    head = surface.split("-")[0].split("–")[0]
    return head.isdigit() and any(c.isalpha() for c in surface)


def _qualifier(s, i, entity_spans) -> _Parse | None:
    surface = s.surfaces[i]
    if _is_numeric_qualifier(surface, s.shapes[i]):
        return _Parse(AttributeKind.QUALIFIER, i, i, i + 1)
    if surface.lower() in QUALIFIER_LEXICON and entity_spans:
        for k in (i - 1, i + 1):
            # the neighbour lies inside an entity span
            if 0 <= k < len(s.surfaces) and any(
                lo <= s.starts[k] and s.ends[k] <= hi for lo, hi in entity_spans
            ):
                return _Parse(AttributeKind.QUALIFIER, i, i, i + 1)
    return None


def _key(surface: str, shape: TokenShape) -> TokenShape | str:
    """A token's dispatch key: a value token's shape, else its lowercased surface."""

    if shape is _NUMBER or shape is _RATIO or shape is _RANGE:
        return shape
    return surface.lower()


# The productions a comparator opens, by the key of the token after it.
_AFTER_COMPARATOR: dict[TokenShape | str, tuple] = {
    _NUMBER: (_frequency, _temporal, _comparison),
    **dict.fromkeys(_NUMBER_WORDS, (_frequency, _temporal, _comparison)),
    **dict.fromkeys(_FREQUENCY_WORDS, (_frequency,)),
    _RATIO: (_ratio,),
}

# The productions each start token can open, by its key, each tuple in the
# order (_frequency, _temporal, _ratio, _range, _comparison) in which ties
# of length go to the earlier one.  Qualifier words open no production, only
# a qualifier.  A comparator opener maps to ``_AFTER_COMPARATOR``; one that
# starts no comparator ("at screening") opens nothing.  The keys are the
# grammar's closed vocabulary, so a word seen for the first time costs one
# failed lookup and adds no key.
_DISPATCH: dict[TokenShape | str, tuple | dict] = {
    _NUMBER: (_frequency, _comparison),
    **dict.fromkeys(_NUMBER_WORDS, (_frequency, _comparison)),
    **dict.fromkeys(_FREQUENCY_WORDS, (_frequency,)),
    _WITHIN: (_temporal,),
    _RATIO: (_ratio,),
    _RANGE: (_range,),
    _BETWEEN: (_range,),
    **dict.fromkeys(QUALIFIER_LEXICON, ()),
    **dict.fromkeys(
        _GLYPH_COMPARATORS.keys() | _WORD_COMPARATORS_BY_FIRST.keys(), _AFTER_COMPARATOR
    ),
}


def extract_attributes(
    sentence: SentenceRecord,
    kb: "KnowledgeBase",
    entity_spans: Sequence[tuple[int, int]] | None = None,
) -> list[AttributeMention]:
    """Parse all attribute expressions in a tokenized sentence.

    Each token is looked up in ``_DISPATCH`` (a value token by its shape,
    any other by its lowercased surface), and only the productions its
    entry names are tried there; the longest parse wins, and of equal
    lengths the earlier production.  A comparator opener probes for its
    comparator, and the token after the comparator picks the productions
    from ``_AFTER_COMPARATOR``.  A token without an entry is skipped unless
    it is a WORD opening with a digit, which may be a numeric qualifier;
    where no production parses, a qualifier is tried.

    ``kb`` supplies unit normalization.
    ``entity_spans`` (character spans of recognized entities) gates the
    closed-lexicon qualifiers, which must sit next to an entity; numeric
    compounds like "12-lead" do not need it.  Spans never overlap, and
    unparseable numeric fragments, numbers too long for a finite float
    among them, are skipped rather than partially emitted.
    """

    normalize = kb.normalize_unit
    dispatch = _DISPATCH
    surfaces, shapes = sentence.surfaces, sentence.shapes
    n = len(surfaces)
    out: list[AttributeMention] = []
    i = 0
    while i < n:
        # the start's dispatch key, as _key computes it
        shape = shapes[i]
        if shape is _NUMBER or shape is _RATIO or shape is _RANGE:
            prods = dispatch[shape]
        else:
            surface = surfaces[i]
            prods = dispatch.get(surface.lower())
            if prods is None:
                # only a numeric qualifier ("12-lead") starts here
                if shape is not _WORD or not surface[:1].isdigit():
                    i += 1
                    continue
                prods = ()
        hit = None
        if prods is _AFTER_COMPARATOR:
            hit = _comparator_at(sentence, i)
            j = i + hit[1] if hit else n  # no comparator: nothing to look up
            prods = _AFTER_COMPARATOR.get(_key(surfaces[j], shapes[j]), ()) if j < n else ()
        best: _Parse | None = None
        for prod in prods:
            parse = prod(sentence, i, hit, normalize)
            if parse and (best is None or parse.next_i > best.next_i):
                best = parse
        if best is None:
            best = _qualifier(sentence, i, entity_spans)
        if best is None:
            i += 1
            continue
        start = sentence.starts[best.span_start]
        end = sentence.ends[best.span_end]
        anchor = None
        if best.anchor is not None:
            a_start, a_end = best.anchor
            anchor = sentence.text[a_start:a_end]
        out.append(
            AttributeMention(
                sentence.sentence_index, start, end, sentence.text[start:end],
                best.kind, best.comparator, best.values, best.unit, best.time_unit, anchor,
            )
        )
        i = best.next_i
    return out
