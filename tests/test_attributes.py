"""Attribute grammar: comparisons, ranges, ratios, temporals, frequencies."""

import hashlib
import itertools
import json
import random

import pytest

import oracles
from critex import (
    PipelineConfig,
    annotate_record,
    attributes,
    bundled_kb_path,
    load_kb,
    mini_corpus_dir,
    read_corpus,
    to_json,
)
from critex.attributes import (
    AttributeKind,
    AttributeMention,
    AttributeShape,
    Comparator,
    TimeUnit,
    attribute_shape,
    extract_attributes,
)
from critex.entities import recognize_entities
from critex.kb import KnowledgeBase
from critex.segmentation import SplitMode, split_records

BUNDLED_KB = load_kb(bundled_kb_path())


def parse(text, kb=BUNDLED_KB, entity_spans=None):
    sentences = split_records(text, SplitMode.LINES)
    assert len(sentences) == 1
    return extract_attributes(sentences[0], kb, entity_spans=entity_spans)


def single(text, **kwargs):
    attrs = parse(text, **kwargs)
    assert len(attrs) == 1, [a.surface for a in attrs]
    return attrs[0]


class TestGrammar:
    def test_glyph_comparison_with_unit(self):
        a = single("≤ 40 kg/m^2")
        assert a.kind is AttributeKind.COMPARISON
        assert a.comparator is Comparator.LE
        assert a.values == (40,)
        assert a.unit == "kg/m^2"
        assert a.surface == "≤ 40 kg/m^2"

    def test_plain_range(self):
        a = single("ages 21-45")
        assert a.kind is AttributeKind.RANGE
        assert a.values == (21, 45)
        assert a.unit is None
        assert a.surface == "21-45"

    def test_ratio_with_word_comparator(self):
        a = single("less than 140/90 mmHg")
        assert a.kind is AttributeKind.RATIO
        assert a.comparator is Comparator.LT
        assert a.values == (140, 90)
        assert a.unit == "mmHg"
        # word comparators stay out of the value expression surface
        assert a.surface == "140/90 mmHg"

    def test_temporal_within(self):
        a = single("within three days")
        assert a.kind is AttributeKind.TEMPORAL
        assert a.comparator is Comparator.LE
        assert a.values == (3,)
        assert a.time_unit is TimeUnit.DAY
        assert a.surface == "within three days"

    def test_temporal_with_anchor(self):
        a = single("at least 30 days prior to screening")
        assert a.kind is AttributeKind.TEMPORAL
        assert a.comparator is Comparator.GE
        assert a.values == (30,)
        assert a.time_unit is TimeUnit.DAY
        assert a.anchor == "prior to screening"
        assert a.surface == "at least 30 days prior to screening"

    def test_frequency_with_anchor(self):
        a = single("at least twice a week for the past six months")
        assert a.kind is AttributeKind.FREQUENCY
        assert a.comparator is Comparator.GE
        assert a.values == (2,)
        assert a.time_unit is TimeUnit.WEEK
        assert a.anchor == "for the past six months"
        assert a.surface == "at least twice a week for the past six months"

    def test_numeric_qualifier(self):
        a = single("12-lead")
        assert a.kind is AttributeKind.QUALIFIER
        assert a.surface == "12-lead"
        assert a.values == ()
        assert a.unit is None

    def test_times_frequency_without_time_unit(self):
        a = single("five times of their elimination half-lives")
        assert a.kind is AttributeKind.FREQUENCY
        assert a.values == (5,)
        assert a.time_unit is None
        assert a.anchor == "of their elimination half-lives"

    def test_between_range_with_unit(self):
        a = single("between 18.5 and 30 kg/m^2")
        assert a.kind is AttributeKind.RANGE
        assert a.values == (18.5, 30)
        assert a.unit == "kg/m^2"
        assert a.surface == "between 18.5 and 30 kg/m^2"

    def test_unit_only_comparison_gets_eq(self):
        a = single("dose of 20 mg")
        assert a.kind is AttributeKind.COMPARISON
        assert a.comparator is Comparator.EQ
        assert a.values == (20,)
        assert a.unit == "mg"

    def test_bare_number_is_not_an_attribute(self):
        assert parse("grade 3 toxicity") == []

    def test_leading_minus_is_ignored(self):
        # negative values are not parsed; the sign is punctuation
        a = single("-5 kg")
        assert a.values == (5,)

    def test_thousands_separator_value(self):
        a = single("over 1,000 mg")
        assert a.values == (1000,)
        assert a.comparator is Comparator.GT

    def test_multi_word_unit(self):
        a = single("no more than 30 kg per m2")
        assert a.comparator is Comparator.LE
        assert a.unit == "kg/m^2"

    def test_once_per_day(self):
        a = single("once a day")
        assert a.kind is AttributeKind.FREQUENCY
        assert a.values == (1,)
        assert a.time_unit is TimeUnit.DAY


class TestQualifierLexicon:
    def test_adjacent_to_entity(self):
        text = "concomitant medications are excluded"
        spans = [(len("concomitant "), len("concomitant medications"))]
        a = single(text, entity_spans=spans)
        assert a.kind is AttributeKind.QUALIFIER
        assert a.surface == "concomitant"

    def test_not_adjacent_without_entity(self):
        assert parse("concomitant medications are excluded") == []

    def test_lexicon_word_far_from_entity_not_emitted(self):
        text = "stable for now, medications later"
        spans = [(text.index("medications"), text.index("medications") + len("medications"))]
        assert parse(text, entity_spans=spans) == []


class TestSpansAndDeterminism:
    def test_spans_do_not_overlap(self, paragraph_one, paragraph_two, mini_kb):
        for text in (paragraph_one, paragraph_two):
            for sentence in split_records(text, SplitMode.PARAGRAPHS):
                attrs = extract_attributes(sentence, mini_kb)
                for prev, nxt in zip(attrs, attrs[1:]):
                    assert prev.end <= nxt.start

    def test_values_appear_inside_span(self, paragraph_one, paragraph_two, mini_kb):
        for text in (paragraph_one, paragraph_two):
            for sentence in split_records(text, SplitMode.PARAGRAPHS):
                for a in extract_attributes(sentence, mini_kb):
                    for v in a.values:
                        digits = str(int(v)) if v == int(v) else str(v)
                        has_digit = digits in a.surface
                        has_word = any(
                            w in a.surface.lower()
                            for w in ("once", "twice", "three", "five", "six")
                        )
                        assert has_digit or has_word, (a.surface, v)

    def test_deterministic(self, paragraph_two, mini_kb):
        sentence = split_records(paragraph_two, SplitMode.PARAGRAPHS)[0]
        assert extract_attributes(sentence, mini_kb) == extract_attributes(sentence, mini_kb)

    def test_surface_matches_offsets(self, paragraph_two, mini_kb):
        for sentence in split_records(paragraph_two, SplitMode.PARAGRAPHS):
            for a in extract_attributes(sentence, mini_kb):
                assert sentence.text[a.start : a.end] == a.surface


class TestNonFiniteNumbers:
    """A number too long for a float makes no attribute, so the extended
    output never holds ``Infinity``, which is not JSON."""

    NINES = "9" * 400

    @pytest.mark.parametrize("template", [
        "blood pressure less than {} mmHg",
        "1-{}",
        "blood pressure {}/90 mmHg",
        "blood pressure 140/{} mmHg",
        "heart rate between 1 and {} bpm",
        "within {} days",
        "{} times a day",
    ])
    def test_overflowing_value_is_skipped(self, mini_kb, template):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = template.format(self.NINES)
        record = annotate_record("r", text, mini_kb)
        payload = json.loads(to_json(record, extended=True), parse_constant=reject)
        assert payload["result"]["extended"]["attributes"] == []
        assert parse(text) == []

    def test_long_finite_value_is_kept(self):
        assert single(f"less than {'9' * 300} mmHg").values == (float("9" * 300),)


class TestScientificNotation:
    """A number in scientific notation is one value."""

    def test_comparison_reads_the_exponent(self):
        a = single("Platelets greater than 1e5")
        assert (a.surface, a.kind, a.comparator, a.values) == (
            "1e5", AttributeKind.COMPARISON, Comparator.GT, (100000.0,)
        )

    def test_negative_exponent_with_unit(self):
        a = single("Dose 2.5E-3 mg")
        assert (a.surface, a.values, a.unit) == ("2.5E-3 mg", (0.0025,), "mg")

    def test_extended_output_prints_an_integral_value_as_an_int(self, mini_kb):
        record = annotate_record("r", "Platelets greater than 1e5", mini_kb)
        (payload,) = json.loads(to_json(record, extended=True))["result"]["extended"]["attributes"]
        assert (payload["surface"], payload["values"]) == ("1e5", [100000])
        assert '"values": [100000]' in to_json(record, extended=True)

    def test_exponent_beyond_a_float_is_skipped(self):
        assert parse("Platelets greater than 1e400") == []
        assert parse("Dose 1e400 mg") == []

    def test_letter_without_exponent_digits_reads_as_before(self):
        assert parse("Stage 3e disease") == []
        assert [(a.surface, a.values, a.unit) for a in parse("dose of 5mg daily")] == [
            ("5mg", (5.0,), "mg")
        ]
        assert [(a.surface, a.kind) for a in parse("a 12-lead ECG")] == [
            ("12-lead", AttributeKind.QUALIFIER)
        ]


class TestAttributeShape:
    def test_mapping(self):
        comparison = AttributeMention(
            0, 0, 1, "x", AttributeKind.COMPARISON,
            comparator=Comparator.LE, values=(40,), unit="kg/m^2",
        )
        ratio = AttributeMention(
            0, 0, 1, "x", AttributeKind.RATIO, values=(140, 90),
        )
        qualifier = AttributeMention(0, 0, 1, "x", AttributeKind.QUALIFIER)
        assert attribute_shape(comparison) is AttributeShape.SCALAR
        assert attribute_shape(ratio) is AttributeShape.RATIO
        assert attribute_shape(qualifier) is AttributeShape.NONNUMERIC

    def test_range_and_temporal(self):
        rng = AttributeMention(0, 0, 1, "x", AttributeKind.RANGE, values=(1, 2))
        temporal = AttributeMention(
            0, 0, 1, "x", AttributeKind.TEMPORAL,
            comparator=Comparator.LE, values=(3,), time_unit=TimeUnit.DAY,
        )
        assert attribute_shape(rng) is AttributeShape.RANGE
        assert attribute_shape(temporal) is AttributeShape.NONNUMERIC


class TestInvariantValidation:
    def test_range_order_enforced(self):
        with pytest.raises(ValueError):
            AttributeMention(0, 0, 1, "x", AttributeKind.RANGE, values=(5, 1))

    def test_ratio_positive_enforced(self):
        with pytest.raises(ValueError):
            AttributeMention(0, 0, 1, "x", AttributeKind.RATIO, values=(0, 5))

    def test_comparison_needs_comparator(self):
        with pytest.raises(ValueError):
            AttributeMention(0, 0, 1, "x", AttributeKind.COMPARISON, values=(5,))


# Vocabulary of the grammar, one pool per role; a phrase strings optional
# parts of one production together, or is a single word from any pool.
_COMPARATORS = (
    "less than", "greater than", "more than", "no more than", "at least",
    "at most", "under", "over", "within", "≤", "<=", "≦", "≥", ">=", "≧", "<",
    ">", "=",
)
_NUMBERS = ("18", "1,000", "2.5", "0", "three", "six", "twelve", "twenty")
_VALUES = _NUMBERS + (
    "140/90", "0/5", "21-45", "45-21", "3–7", "between 5 and 2",
    "between 18.5 and 30", "between two and",
)
_UNITS = (
    "mmHg", "mm Hg", "millimeters of mercury", "kg/m^2", "kg per m2", "mg/dL",
    "mg per dl", "%", "percent", "beats per minute", "kg", "bpm", "cc", "mg",
)
_TIME_UNITS = (
    "day", "days", "week", "weeks", "month", "months", "year", "years", "hour",
    "hours",
)
_FREQUENCY_HEADS = ("once", "twice", "2 times", "five times", "times")
_PER = ("a", "an", "per")
_ANCHORS = (
    "prior to screening visit", "prior to", "before randomization",
    "after the first dose", "for the past six months", "for the last 3 weeks",
    "for the past weeks", "of their elimination half-lives", "of their", "and",
)
_OTHER = (
    "12-lead", "3-day", "concomitant", "stable", "normal", "resting",
    "blood pressure", "heart rate", "BMI", "age", "patients", "HbA1c",
    "medications", "dose", ",", ".", ";", "(", ")",
)
_POOLS = (
    _COMPARATORS, _VALUES, _UNITS, _TIME_UNITS, _FREQUENCY_HEADS, _PER,
    _ANCHORS, _OTHER,
)
_PRODUCTIONS = (
    (_COMPARATORS, _VALUES, _UNITS),
    (_COMPARATORS, _NUMBERS, _TIME_UNITS, _ANCHORS),
    (_COMPARATORS, _FREQUENCY_HEADS, _PER, _TIME_UNITS, _ANCHORS),
)


def _grammar_lines(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        phrases = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                phrases.append(rng.choice(rng.choice(_POOLS)))
                continue
            pools = rng.choice(_PRODUCTIONS)
            phrases.extend(rng.choice(p) for p in pools if rng.random() < 0.75)
        yield " ".join(phrases)


class TestGrammarRegression:
    """The grammar's output is pinned on generated lines of its vocabulary."""

    # sha256 of every AttributeMention field over 3,000 generated lines,
    # with the bundled KB and with an empty KB (the built-in unit table).
    DIGEST = "2f62f5c5ffd653322e5d34d2fcfb836008daeae6c434c0ff42e94d0829b7a9ef"

    def test_pinned_digest(self, mini_kb):
        builtin_only = KnowledgeBase(())
        digest = hashlib.sha256()
        for line in _grammar_lines(20191, 3000):
            for sentence in split_records(line, SplitMode.LINES):
                spans = [(e.start, e.end) for e in recognize_entities(sentence, mini_kb)]
                for kb in (mini_kb, builtin_only):
                    for a in extract_attributes(sentence, kb, entity_spans=spans):
                        digest.update(repr((
                            a.sentence_index, a.start, a.end, a.surface,
                            a.kind.value, a.comparator and a.comparator.value,
                            a.values, a.unit, a.time_unit and a.time_unit.value,
                            a.anchor,
                        )).encode())
                    digest.update(b"|")
        assert digest.hexdigest() == self.DIGEST

    def test_comparator_parsed_once_per_position(self, monkeypatch, mini_kb):
        positions = []
        original = attributes._comparator_at

        def counting(toks, i):
            positions.append(i)
            return original(toks, i)

        monkeypatch.setattr(attributes, "_comparator_at", counting)
        calls = 0
        for line in _grammar_lines(7, 200):
            for sentence in split_records(line, SplitMode.LINES):
                positions.clear()
                extract_attributes(sentence, mini_kb)
                assert len(positions) == len(set(positions)), sentence.text
                assert len(positions) <= len(sentence.tokens)
                calls += len(positions)
        assert calls


# The productions in the order in which ties of length go to the earlier one.
PRODUCTIONS = (
    attributes._frequency, attributes._temporal, attributes._ratio, attributes._range,
    attributes._comparison,
)


def record_tries(monkeypatch, tried):
    """Swap the dispatch tables for copies whose productions append
    ``(i, production)`` to ``tried`` before they run."""

    def recording(prod):
        def tries(toks, i, hit, normalize):
            tried.append((i, prod))
            return prod(toks, i, hit, normalize)

        return tries

    wrapped = {prod: recording(prod) for prod in PRODUCTIONS}
    after = {
        key: tuple(map(wrapped.get, prods))
        for key, prods in attributes._AFTER_COMPARATOR.items()
    }
    dispatch = {
        key: after if prods is attributes._AFTER_COMPARATOR else tuple(map(wrapped.get, prods))
        for key, prods in attributes._DISPATCH.items()
    }
    monkeypatch.setattr(attributes, "_AFTER_COMPARATOR", after)
    monkeypatch.setattr(attributes, "_DISPATCH", dispatch)


def _casings(word):
    return dict.fromkeys((word, word.upper(), word.capitalize()))


class TestDispatchTable:
    """At each start the scan tries only the productions the dispatch table
    names, and each production it leaves out would have returned None."""

    # Every key in three casings (value shapes by their surfaces), every
    # word comparator whole, then each class of token after the start, then
    # tails that complete each production.
    STARTS = (
        *(v for k in attributes._DISPATCH if isinstance(k, str) for v in _casings(k)),
        *(v for words, _ in attributes._WORD_COMPARATORS for v in _casings(" ".join(words))),
        "18", "1,000", "2.5", "140/90", "0/5", "21-45", "3–7",
    )
    FOLLOWERS = {
        "RATIO": ("140/90", "0/5"),
        "NUMBER": ("18", "1,000", "2.5"),
        "number word": ("three", "Twenty", "ZERO"),
        "frequency word": ("once", "TWICE"),
        "other word": (
            "patients", "times", "days", "and", "within", "between", "21-45", "12-lead",
            "mmHg", ",", "<",
        ),
        "end of sentence": ("",),
    }
    TAILS = (
        "", " days", " times", " times a week", " a day", " per week prior to screening",
        " and 5", " and five mmHg", " mmHg", " days before dosing",
    )

    def test_comparator_openers_open_nothing_else(self):
        openers = attributes._GLYPH_COMPARATORS.keys() | attributes._WORD_COMPARATORS_BY_FIRST.keys()
        others = (
            attributes._NUMBER_WORDS.keys() | attributes._FREQUENCY_WORDS.keys()
            | attributes.QUALIFIER_LEXICON | {attributes._WITHIN, attributes._BETWEEN}
        )
        assert not openers & others
        for key, prods in attributes._DISPATCH.items():
            assert (prods is attributes._AFTER_COMPARATOR) == (key in openers), key
        for prods in (*attributes._DISPATCH.values(), *attributes._AFTER_COMPARATOR.values()):
            if prods is not attributes._AFTER_COMPARATOR:
                assert list(prods) == sorted(prods, key=PRODUCTIONS.index)

    def test_left_out_productions_parse_nothing(self, monkeypatch):
        tried = []
        record_tries(monkeypatch, tried)
        normalize = BUNDLED_KB.normalize_unit
        followers = [f for group in self.FOLLOWERS.values() for f in group]
        cases = 0
        for start, follower in itertools.product(self.STARTS, followers):
            for tail in self.TAILS if follower else ("",):
                text = " ".join(filter(None, (start, follower))) + tail
                (sentence,) = split_records(text, SplitMode.LINES)
                tried.clear()
                extract_attributes(sentence, BUNDLED_KB)
                at_start = [prod for i, prod in tried if i == 0]
                assert at_start == sorted(set(at_start), key=PRODUCTIONS.index), text
                # the oracle's comparator, not the scan's, so a probe the
                # scan skips shows here
                hit = oracles.comparator_at(sentence.tokens, 0)
                for prod in PRODUCTIONS:
                    if prod not in at_start:
                        assert prod(sentence, 0, hit, normalize) is None, (text, prod)
                cases += 1
        assert cases > 30_000

    @pytest.mark.parametrize("mode", [SplitMode.LINES, SplitMode.PARAGRAPHS])
    def test_work_counts_on_the_bundled_corpus(self, monkeypatch, mode):
        # Trying all five productions at each of the 43 starts that could
        # open a parse, each after a comparator probe, made 215 production
        # calls.  The unit table is read as often either way: a production
        # the table leaves out fails before it reads a unit.  (On the
        # benchmark's batch workload, seed 1: 42,530 -> 9,691 production
        # calls, 8,506 -> 3,759 probes, 8,890 unit lookups.)
        tried, probed, units = [], [], []
        record_tries(monkeypatch, tried)
        comparator_at = attributes._comparator_at
        normalize_unit = KnowledgeBase.normalize_unit

        def probing(toks, i):
            probed.append(i)
            return comparator_at(toks, i)

        def looking_up(kb, surface):
            units.append(surface)
            return normalize_unit(kb, surface)

        monkeypatch.setattr(attributes, "_comparator_at", probing)
        monkeypatch.setattr(KnowledgeBase, "normalize_unit", looking_up)
        config = PipelineConfig(mode=mode)
        for record_id, text in read_corpus(mini_corpus_dir()):
            annotate_record(record_id, text, BUNDLED_KB, config)
        assert (len(tried), len(probed), len(units)) == (49, 19, 44)
