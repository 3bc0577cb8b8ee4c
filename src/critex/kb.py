"""Knowledge base of clinical concepts with unit, pattern and range constraints.

Each entry pairs a concept (UMLS-CUI-style id plus terms) with what its
values normally look like: expected units, a numeric shape (scalar, ratio,
range), and a plausibility range.  Those constraints drive compatibility
scoring between an entry and a parsed attribute, the evidence the linker
mixes with syntactic proximity.  Units matter more than values here: trial
values are routinely outside normal ranges, but a value written with the
concept's unit is strong evidence.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .attributes import AttributeMention, AttributeShape
from .errors import DuplicateConceptId, MalformedKb
from .io_eval import read_text
from .segmentation import SentenceRecord, TokenShape, scan_tokens
from .units import DEFAULT_UNIT_TABLE, normalize_unit, unit_key

KB_SCHEMA_VERSION = 1


class ValuePattern(Enum):
    SCALAR = "SCALAR"
    RATIO = "RATIO"
    RANGE = "RANGE"
    ANY = "ANY"


class Category(Enum):
    MEASUREMENT = "MEASUREMENT"
    DRUG = "DRUG"
    CONDITION = "CONDITION"
    PROCEDURE = "PROCEDURE"
    DEMOGRAPHIC = "DEMOGRAPHIC"
    OTHER = "OTHER"


def term_key(term: str) -> tuple[str, ...]:
    """The key of a concept term: the casefolded surfaces of its tokens.

    The trie, :meth:`KnowledgeBase.lookup_terms` and the duplicate checks
    key a term by the tokens the entity scan steps over, so every term the
    KB accepts can be matched; a term with no tokens is blank.
    """

    return tuple(map(str.casefold, scan_tokens(term)[0]))


@dataclass(frozen=True)
class KbEntry:
    """One concept row: terms plus unit/pattern/range constraints.

    Checked when built, whichever way: ``concept_id`` and
    ``preferred_term`` are ``str``, ``synonyms`` and ``expected_units``
    tuples of ``str``, each bound None or a finite real number that is not
    a ``bool``, ``value_pattern`` a :class:`ValuePattern` or None, and
    ``category`` a :class:`Category`; anything else is a
    :class:`MalformedKb` naming the field.
    """

    concept_id: str
    preferred_term: str
    synonyms: tuple[str, ...] = ()
    expected_units: tuple[str, ...] = ()
    value_min: float | None = None
    value_max: float | None = None
    value_pattern: ValuePattern | None = None
    category: Category = Category.OTHER

    def __post_init__(self):
        for name in ("concept_id", "preferred_term"):
            if not isinstance(getattr(self, name), str):
                raise MalformedKb(f"{name} must be a str, got {getattr(self, name)!r}")
        for name in ("synonyms", "expected_units"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(isinstance(v, str) for v in value)):
                raise MalformedKb(
                    f"{self.concept_id}: {name} must be a tuple of str, got {value!r}"
                )
        for name in ("value_min", "value_max"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, Real)):
                raise MalformedKb(
                    f"{self.concept_id}: {name} must be a real number, got {value!r}"
                )
        if not (self.value_pattern is None or isinstance(self.value_pattern, ValuePattern)):
            raise MalformedKb(
                f"{self.concept_id}: value_pattern must be a ValuePattern or None,"
                f" got {self.value_pattern!r}"
            )
        if not isinstance(self.category, Category):
            raise MalformedKb(
                f"{self.concept_id}: category must be a Category, got {self.category!r}"
            )
        preferred = term_key(self.preferred_term)
        if not preferred:
            raise MalformedKb(f"{self.concept_id}: blank preferred_term")
        seen = set()
        for syn in self.synonyms:
            key = term_key(syn)
            if not key:
                raise MalformedKb(f"{self.concept_id}: blank synonym: {syn!r}")
            if key == preferred:
                raise MalformedKb(
                    f"{self.concept_id}: synonym duplicates preferred_term: {syn!r}"
                )
            if key in seen:
                raise MalformedKb(f"{self.concept_id}: duplicate synonym: {syn!r}")
            seen.add(key)
        for unit in self.expected_units:
            if not unit_key(unit):
                raise MalformedKb(f"{self.concept_id}: blank expected unit: {unit!r}")
        for name in ("value_min", "value_max"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise MalformedKb(f"{self.concept_id}: {name} must be finite, got {value}")
        if (
            self.value_min is not None
            and self.value_max is not None
            and self.value_min > self.value_max
        ):
            raise MalformedKb(
                f"{self.concept_id}: value_min {self.value_min} > value_max {self.value_max}"
            )

    @property
    def terms(self) -> tuple[str, ...]:
        return (self.preferred_term, *self.synonyms)


def _canonicalize_entry_units(entry: KbEntry, unit_table: dict[str, str]) -> KbEntry:
    """``entry`` with each expected unit spelled canonically, each once, in
    the order of first appearance."""

    canonical = tuple(
        dict.fromkeys(unit_table.get(unit_key(u), u) for u in entry.expected_units)
    )
    if canonical == entry.expected_units:
        return entry
    return replace(entry, expected_units=canonical)


@dataclass(slots=True)
class TermNode:
    """One node of the term trie: a path of term tokens from the root.

    ``children`` maps the next casefolded token surface (a :func:`term_key`
    component) to its node; ``hits`` holds the (entry, term) pairs of the
    terms that end here.
    """

    children: dict[str, "TermNode"] = field(default_factory=dict)
    hits: tuple[tuple[KbEntry, str], ...] = ()


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable bundle of entries plus the term trie and the unit table.

    The trie is keyed by :func:`term_key`, so its depth is the token count
    of the longest term.  ``first_words`` is derived from the trie when the
    KB is created, by any constructor: each casefolded token that opens a
    term, and that token plus "s", so the entity scan starts a walk only at
    a casefolded token in it (a walk's first step may fold a plural "s").
    """

    entries: tuple[KbEntry, ...]
    term_trie: TermNode
    unit_table: dict[str, str]
    by_id: dict[str, KbEntry]
    first_words: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = self.term_trie.children
        object.__setattr__(
            self, "first_words", frozenset(words).union(w + "s" for w in words)
        )

    @classmethod
    def build(
        cls,
        entries: Iterable[KbEntry],
        extra_units: dict[str, str] | None = None,
    ) -> "KnowledgeBase":
        """Index entries; their expected units are canonicalized and
        deduplicated here, whichever constructor made the entries.

        Raises :class:`MalformedKb` for a blank unit variant or canonical form.
        """

        unit_table = dict(DEFAULT_UNIT_TABLE)
        for variant, canonical in (extra_units or {}).items():
            if not unit_key(variant) or not unit_key(canonical):
                raise MalformedKb(
                    f"blank unit variant or canonical form: {variant!r} -> {canonical!r}"
                )
            unit_table[unit_key(variant)] = canonical
        entries = tuple(_canonicalize_entry_units(e, unit_table) for e in entries)
        by_id: dict[str, KbEntry] = {}
        for entry in entries:
            if entry.concept_id in by_id:
                raise DuplicateConceptId(f"duplicate concept_id: {entry.concept_id}")
            by_id[entry.concept_id] = entry
        root = TermNode()
        for entry in entries:
            for term in entry.terms:
                node = root
                for word in term_key(term):
                    node = node.children.setdefault(word, TermNode())
                node.hits += ((entry, term),)
        return cls(
            entries=entries,
            term_trie=root,
            unit_table=unit_table,
            by_id=by_id,
        )

    def normalize_unit(self, surface: str) -> str | None:
        """Canonical unit for a surface form in this KB's table, or None."""

        return self.unit_table.get(unit_key(surface))

    def lookup_terms(self, phrase: str) -> tuple[tuple[KbEntry, str], ...]:
        """Matching (entry, fired term) pairs for a surface phrase, whose
        tokens must be exactly a term's tokens, in any case."""

        node = self.term_trie
        for word in term_key(phrase):
            node = node.children.get(word)
            if node is None:
                return ()
        return node.hits


# ---------------------------------------------------------------------------
# Compatibility scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityWeights:
    """Weights of the unit, pattern and range terms (unit dominates)."""

    unit: float = 0.6
    pattern: float = 0.25
    range: float = 0.15

    def __post_init__(self):
        if not (self.unit > self.pattern > self.range > 0):
            raise ValueError("weights must satisfy unit > pattern > range > 0")
        if abs(self.unit + self.pattern + self.range - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


DEFAULT_WEIGHTS = CompatibilityWeights()

_NEUTRAL = 0.5  # share contributed by a constraint the entry does not declare


def _pattern_term(entry: KbEntry, shape: AttributeShape) -> float:
    if entry.value_pattern is None:
        return _NEUTRAL
    if shape is AttributeShape.NONNUMERIC:
        # a declared value pattern (even ANY) describes numeric payloads;
        # non-numeric attributes cannot confirm it
        return 0.0
    if entry.value_pattern is ValuePattern.ANY:
        return 1.0
    return 1.0 if entry.value_pattern.value == shape.value else 0.0


def compatibility_terms(
    entry: KbEntry,
    attribute: AttributeMention,
    shape: AttributeShape,
    weights: CompatibilityWeights = DEFAULT_WEIGHTS,
) -> tuple[float, float, float, float]:
    """How well an attribute fits an entry's constraints, with its terms.

    Returns ``(value, unit_term, pattern_term, range_term)``.  Each term is
    1.0 when it matches, 0.0 when it conflicts, and a neutral 0.5 when the
    entry does not constrain it, so ``value`` is ``w_u * unit_term +
    w_p * pattern_term + w_r * range_term``, clamped to ``[0, 1]``.

    ``shape`` is ``attribute_shape(attribute)``; a caller scoring one
    attribute against many entries derives it once.  Of the attribute, only
    ``shape``, ``unit`` and ``values`` are read, so attributes that agree on
    those score alike (the linker shares their ``p_sup``).  Non-numeric
    attributes (temporal, frequency, qualifier) are judged by the pattern
    term only; their unit and range terms are vacuous and score the neutral
    share.
    """

    numeric = shape is not AttributeShape.NONNUMERIC

    if not numeric or not entry.expected_units:
        unit_term = _NEUTRAL
    elif attribute.unit is not None and attribute.unit in entry.expected_units:
        unit_term = 1.0
    else:
        unit_term = 0.0

    pattern_term = _pattern_term(entry, shape)

    if not numeric or (entry.value_min is None and entry.value_max is None):
        range_term = _NEUTRAL
    else:
        lo = entry.value_min if entry.value_min is not None else float("-inf")
        hi = entry.value_max if entry.value_max is not None else float("inf")
        in_range = all(lo <= v <= hi for v in attribute.values)
        range_term = 1.0 if in_range else 0.0

    value = (
        weights.unit * unit_term
        + weights.pattern * pattern_term
        + weights.range * range_term
    )
    return min(1.0, max(0.0, value)), unit_term, pattern_term, range_term


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _entry_from_dict(raw: dict, where: str) -> KbEntry:
    if not isinstance(raw, dict):
        raise MalformedKb(f"{where}: entry must be an object")
    required = ("concept_id", "preferred_term")
    for key in required:
        if not isinstance(raw.get(key), str) or not raw.get(key):
            raise MalformedKb(f"{where}: missing or invalid field {key!r}")
    for key in ("synonyms", "expected_units"):
        if key in raw and not (
            isinstance(raw[key], list) and all(isinstance(item, str) for item in raw[key])
        ):
            raise MalformedKb(f"{where}: field {key!r} must be a list of strings")
    for key in ("value_min", "value_max"):
        value = raw.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise MalformedKb(f"{where}: field {key!r} must be a number")
    pattern = raw.get("value_pattern")
    if pattern is not None:
        try:
            pattern = ValuePattern(pattern)
        except ValueError:
            raise MalformedKb(f"{where}: unknown value_pattern {pattern!r}") from None
    try:
        category = Category(raw.get("category", "OTHER"))
    except ValueError:
        raise MalformedKb(f"{where}: unknown category {raw.get('category')!r}") from None
    try:
        return KbEntry(
            concept_id=raw["concept_id"],
            preferred_term=raw["preferred_term"],
            synonyms=tuple(raw.get("synonyms", ())),
            expected_units=tuple(raw.get("expected_units", ())),
            value_min=raw.get("value_min"),
            value_max=raw.get("value_max"),
            value_pattern=pattern,
            category=category,
        )
    except MalformedKb as exc:
        raise MalformedKb(f"{where}: {exc}") from None


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load and validate a knowledge-base JSON document.

    Every :class:`MalformedKb` names the file, and ``entries[i]`` when one
    entry is at fault.
    """

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedKb(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedKb(f"{path}: top level must be an object")
    if doc.get("version") != KB_SCHEMA_VERSION:
        raise MalformedKb(f"{path}: unsupported version {doc.get('version')!r}")
    units = doc.get("units", {})
    if not isinstance(units, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in units.items()
    ):
        raise MalformedKb(f"{path}: 'units' must map variants to canonical strings")
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        raise MalformedKb(f"{path}: 'entries' must be a list")
    entries = [
        _entry_from_dict(raw, f"{path}: entries[{i}]")
        for i, raw in enumerate(raw_entries)
    ]
    try:
        return KnowledgeBase.build(entries, extra_units=units)
    except MalformedKb as exc:  # a DuplicateConceptId stays one
        raise type(exc)(f"{path}: {exc}") from None


def kb_to_dict(kb: KnowledgeBase) -> dict:
    extra = {k: v for k, v in kb.unit_table.items() if DEFAULT_UNIT_TABLE.get(k) != v}
    return {
        "version": KB_SCHEMA_VERSION,
        "units": extra,
        "entries": [
            {
                "concept_id": e.concept_id,
                "preferred_term": e.preferred_term,
                "synonyms": list(e.synonyms),
                "expected_units": list(e.expected_units),
                "value_min": e.value_min,
                "value_max": e.value_max,
                "value_pattern": e.value_pattern.value if e.value_pattern else None,
                "category": e.category.value,
            }
            for e in kb.entries
        ],
    }


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(kb_to_dict(kb), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


_RANGE_SPEC_RE = re.compile(r"\s*(-?\d+(?:\.\d+)?)\s*\.\.\s*(-?\d+(?:\.\d+)?)\s*")


def import_tsv(path: str | Path) -> KnowledgeBase:
    """Import a three-column table: term, value_range ("90..250"), units.

    Rows become curated entries with ``LOCAL:`` concept ids; units are
    comma-separated, and :meth:`KnowledgeBase.build` canonicalizes them
    against the built-in table.  A file
    that is not valid UTF-8 raises :class:`MalformedText`, naming it.
    """

    path = Path(path)
    text = read_text(path)
    if not text:
        return KnowledgeBase.build(())
    lines = text.split("\n")  # a term may hold U+2028, at which splitlines breaks
    header = [c.strip().lower() for c in lines[0].split("\t")]
    try:
        term_col = header.index("term")
        range_col = header.index("value_range")
        units_col = header.index("units")
    except ValueError:
        raise MalformedKb(f"{path}: header must name term, value_range, units") from None
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) <= max(term_col, range_col, units_col):
            raise MalformedKb(f"{path}:{lineno}: expected 3 columns")
        term = cols[term_col].strip()
        if not term:
            raise MalformedKb(f"{path}:{lineno}: empty term")
        value_min = value_max = None
        range_spec = cols[range_col].strip()
        if range_spec:
            m = _RANGE_SPEC_RE.fullmatch(range_spec)
            if not m:
                raise MalformedKb(f"{path}:{lineno}: bad value_range {range_spec!r}")
            value_min, value_max = float(m.group(1)), float(m.group(2))
        units = tuple(u.strip() for u in cols[units_col].split(",") if u.strip())
        try:
            entries.append(
                KbEntry(
                    concept_id=f"LOCAL:{_slug(term)}",
                    preferred_term=term,
                    expected_units=units,
                    value_min=value_min,
                    value_max=value_max,
                    category=Category.MEASUREMENT if units else Category.OTHER,
                )
            )
        except MalformedKb as exc:  # e.g. a bound too long for a finite float
            raise MalformedKb(f"{path}:{lineno}: {exc}") from None
    return KnowledgeBase.build(entries)


# ---------------------------------------------------------------------------
# Candidate mining
# ---------------------------------------------------------------------------

_MINING_STOPWORDS = frozenset(
    """a an the of with and or to in for on at by any all their who whom which
    that is are was were has have been be such as not no from this these
    those it its than least most more less under over within between
    taking taken use used must""".split()
)

_CONNECTORS = frozenset({"of", "is", "was", "are", "were"})
_COMPARATOR_WORDS = frozenset(
    {"less", "greater", "more", "than", "at", "least", "most", "no", "under", "over"}
)

_SHAPE_TO_PATTERN = {
    TokenShape.NUMBER: ValuePattern.SCALAR,
    TokenShape.RATIO: ValuePattern.RATIO,
    TokenShape.RANGE: ValuePattern.RANGE,
}


def _slug(term: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z]+", "-", term.strip().lower()).strip("-")
    return cleaned or "term"


def mine_kb_candidates(
    corpus: Sequence[SentenceRecord],
    normalize_unit: Callable[[str], str | None] = normalize_unit,
) -> list[KbEntry]:
    """Mine candidate entries from "<noun phrase> <connector> <number> [unit]".

    Noun phrases are runs of words that are neither units nor stop words,
    not part-of-speech tags; the output is meant for human curation and is
    never loaded automatically.  ``normalize_unit`` decides what a unit is
    and spells it: the built-in table by default, or a knowledge base's
    ``KnowledgeBase.normalize_unit``, which also knows its own spellings.
    Duplicate terms merge their units; pattern conflicts widen to ANY.
    """

    found: dict[str, KbEntry] = {}
    for sentence in corpus:
        surfaces, shapes = sentence.surfaces, sentence.shapes
        for i, shape in enumerate(shapes):
            pattern = _SHAPE_TO_PATTERN.get(shape)
            if pattern is None:
                continue
            # walk left over connector/comparator tokens
            j = i - 1
            connectors = 0
            while j >= 0:
                word = surfaces[j].lower()
                if word in _CONNECTORS or word in _COMPARATOR_WORDS:
                    connectors += 1
                    j -= 1
                elif shapes[j] is TokenShape.SYMBOL:
                    connectors += 1
                    j -= 1
                else:
                    break
            if connectors == 0:
                continue
            # noun phrase: run of words that are no unit, newest first, capped at 4
            np_end = j
            while (
                j >= 0
                and np_end - j < 4
                and shapes[j] is TokenShape.WORD
                and normalize_unit(surfaces[j]) is None
                and surfaces[j].lower() not in _MINING_STOPWORDS
            ):
                j -= 1
            if j == np_end:
                continue
            term = sentence.text[sentence.starts[j + 1] : sentence.ends[np_end]]
            unit = None
            if i + 1 < len(surfaces):
                unit = normalize_unit(surfaces[i + 1])
            key = _slug(term)
            units = (unit,) if unit else ()
            prior = found.get(key)
            if prior is None:
                found[key] = KbEntry(
                    concept_id=f"LOCAL:{key}",
                    preferred_term=term,
                    expected_units=units,
                    value_pattern=pattern,
                    category=Category.MEASUREMENT if unit else Category.OTHER,
                )
            else:
                merged_units = tuple(dict.fromkeys(prior.expected_units + units))
                merged_pattern = (
                    prior.value_pattern
                    if prior.value_pattern == pattern
                    else ValuePattern.ANY
                )
                found[key] = replace(
                    prior,
                    expected_units=merged_units,
                    value_pattern=merged_pattern,
                )
    return [found[k] for k in sorted(found)]
