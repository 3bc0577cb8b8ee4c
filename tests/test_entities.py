"""Dictionary entity recognition and abbreviation linking."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from critex.entities import link_abbreviations, recognize_entities
from critex.errors import MalformedKb
from critex.kb import Category, KbEntry, KnowledgeBase, term_key
from critex.segmentation import SentenceRecord, SplitMode, scan_tokens, split_records


def kb_of(*entries):
    return KnowledgeBase(entries)


def sentence_of(text, index=0):
    sentences = split_records(text, SplitMode.LINES)
    assert len(sentences) == 1
    if index:
        raise AssertionError("helper builds single sentences only")
    return sentences[0]


class TestRecognizeEntities:
    def test_paragraph_one_entity_inventory(self, mini_kb, paragraph_one):
        sentences = split_records(paragraph_one, SplitMode.PARAGRAPHS)
        surfaces = []
        for sentence in sentences:
            surfaces += [m.surface for m in recognize_entities(sentence, mini_kb)]
        assert surfaces == [
            "medications",
            "pain",
            "psychotropic drugs",
            "antidepressants",
            "sedative hypnotics",
            "analgesics",
            "elimination half-lives",
            "Selective serotonin reuptake inhibitors",
            "SSRIs",
            "selective noradrenaline reuptake inhibitors",
            "SNRIs",
            "screening",
        ]

    def test_no_kb_terms(self, mini_kb):
        sentence = sentence_of("Nothing of interest happens here")
        assert recognize_entities(sentence, mini_kb) == []

    def test_longest_match_wins(self):
        # Both segmentations are possible by hand: "Mass Index" (2 tokens,
        # offset 5) and "Body Mass Index" (3 tokens, offset 0). The
        # longest-match rule must pick the 3-gram only.
        kb = kb_of(
            KbEntry(concept_id="LOCAL:mass-index", preferred_term="Mass Index"),
            KbEntry(concept_id="LOCAL:bmi", preferred_term="Body Mass Index"),
        )
        sentence = sentence_of("Body Mass Index ≤ 40 kg/m^2")
        mentions = recognize_entities(sentence, kb)
        assert [m.surface for m in mentions] == ["Body Mass Index"]
        assert mentions[0].concept_id == "LOCAL:bmi"

    def test_terms_span_any_number_of_tokens(self):
        kb = kb_of(
            KbEntry(concept_id="C6", preferred_term="a b c d e f"),
            KbEntry(concept_id="C7", preferred_term="a b c d e f g"),
            KbEntry(concept_id="C2", preferred_term="x y"),
        )
        mentions = recognize_entities(sentence_of("a b c d e f g"), kb)
        assert [m.concept_id for m in mentions] == ["C7"]
        for text in ("x, y", "x (y", "x 5 y", "x - y"):
            assert recognize_entities(sentence_of(text), kb) == [], text

    def test_plural_folding(self):
        kb = kb_of(KbEntry(concept_id="LOCAL:ad", preferred_term="antidepressant"))
        sentence = sentence_of("taking antidepressants daily")
        mentions = recognize_entities(sentence, kb)
        assert [m.surface for m in mentions] == ["antidepressants"]
        assert mentions[0].matched_term == "antidepressant"

    def test_mentions_sorted_and_non_overlapping(self, mini_kb, paragraph_two):
        for sentence in split_records(paragraph_two, SplitMode.PARAGRAPHS):
            mentions = recognize_entities(sentence, mini_kb)
            for prev, nxt in zip(mentions, mentions[1:]):
                assert prev.start <= nxt.start
                assert prev.end <= nxt.start
            for m in mentions:
                assert sentence.text[m.start : m.end] == m.surface

    def test_deterministic(self, mini_kb, paragraph_two):
        sentence = split_records(paragraph_two, SplitMode.PARAGRAPHS)[1]
        first = recognize_entities(sentence, mini_kb)
        second = recognize_entities(sentence, mini_kb)
        assert first == second

    def test_ambiguity_prefers_measurement_in_numeric_sentence(self):
        kb = kb_of(
            KbEntry(concept_id="C2", preferred_term="temperature",
                    category=Category.CONDITION),
            KbEntry(concept_id="C9", preferred_term="temperature",
                    synonyms=("temp",), category=Category.MEASUREMENT),
        )
        numeric = sentence_of("temperature of 38 C")
        assert recognize_entities(numeric, kb)[0].concept_id == "C9"
        plain = sentence_of("temperature was recorded")
        assert recognize_entities(plain, kb)[0].concept_id == "C2"


class TestLinkAbbreviations:
    LONG_KB = KnowledgeBase([
        KbEntry(concept_id="C0013798", preferred_term="electrocardiograph"),
        KbEntry(
            concept_id="C0360105",
            preferred_term="selective serotonin reuptake inhibitor",
        ),
    ])

    def test_later_occurrence_linked(self):
        text = "An electrocardiograph (ECG) was recorded.\nThe ECG was normal."
        sentences = split_records(text, SplitMode.LINES)
        mentions = []
        for s in sentences:
            mentions += recognize_entities(s, self.LONG_KB)
        linked = link_abbreviations(sentences, mentions)
        new = [m for m in linked if m not in mentions]
        assert len(new) == 1
        assert new[0].surface == "ECG"
        assert new[0].sentence_index == 1
        assert new[0].concept_id == "C0013798"

    def test_ssris_definition_matches_initials(self):
        text = (
            "Selective serotonin reuptake inhibitors (SSRIs) are permitted.\n"
            "SSRIs must be stable."
        )
        sentences = split_records(text, SplitMode.LINES)
        mentions = []
        for s in sentences:
            mentions += recognize_entities(s, self.LONG_KB)
        linked = link_abbreviations(sentences, mentions)
        added = [m for m in linked if m.surface == "SSRIs"]
        assert len(added) == 1
        assert added[0].concept_id == "C0360105"

    def test_no_parentheses_is_noop(self, mini_kb):
        sentences = split_records("blood pressure was measured", SplitMode.LINES)
        mentions = recognize_entities(sentences[0], mini_kb)
        assert link_abbreviations(sentences, mentions) == mentions

    def test_mismatched_initials_not_linked(self):
        text = "An electrocardiograph (XYZ) was recorded.\nXYZ again."
        sentences = split_records(text, SplitMode.LINES)
        mentions = []
        for s in sentences:
            mentions += recognize_entities(s, self.LONG_KB)
        linked = link_abbreviations(sentences, mentions)
        assert [m.surface for m in linked] == ["electrocardiograph"]


class TestAbbreviationOrder:
    """Which definition, if any, expands each occurrence of a short form."""

    KB = KnowledgeBase([
        KbEntry(concept_id="C1", preferred_term="electrocardiograph"),
        KbEntry(concept_id="C2", preferred_term="electrocardiogram"),
        KbEntry(concept_id="C3", preferred_term="ECG monitor"),
    ])

    def expand(self, text):
        """(sentence_index, start, concept_id) of each added mention."""

        sentences = split_records(text, SplitMode.LINES)
        mentions = [m for s in sentences for m in recognize_entities(s, self.KB)]
        linked = link_abbreviations(sentences, mentions)
        return [(m.sentence_index, m.start, m.concept_id) for m in linked if m not in mentions]

    def test_first_of_two_definitions_wins(self):
        text = (
            "An electrocardiograph (ECG) was recorded.\n"
            "The ECG was normal.\n"
            "An electrocardiogram (ECG) was repeated.\n"
            "The ECG was filed."
        )
        # the second definition's own short form takes the first one too
        assert self.expand(text) == [(1, 4, "C1"), (2, 22, "C1"), (3, 4, "C1")]

    def test_occurrences_before_the_definition_stay_plain(self):
        text = (
            "The ECG came first.\n"
            "ECG before an electrocardiograph (ECG) here.\n"
            "Then ECG."
        )
        assert self.expand(text) == [(2, 5, "C1")]

    def test_occurrence_inside_a_longer_mention_stays_plain(self):
        text = "An electrocardiograph (ECG) was recorded.\nThe ECG monitor beeped."
        assert self.expand(text) == []

    def test_later_occurrence_in_the_defining_sentence_expands(self):
        text = "An electrocardiograph (ECG) showed the ECG rhythm."
        assert self.expand(text) == [(0, text.rindex("ECG"), "C1")]


# Term words of every token shape, up to eight of them, glued by spaces,
# tabs and punctuation.
TERM_WORDS = ("blood", "pressures", "mg", "%", "2", "(BP)", "Sjögren", "kg/m^2", "it's",
              "x-ray", "HbA1c", "µg", "Straße", "stress", "s", "a.b", "12-lead", ">=")
TERMS = st.one_of(
    st.lists(st.sampled_from(TERM_WORDS), min_size=1, max_size=8).map(" ".join),
    st.text(alphabet="abcsAS 09-/^'().,%\töµßﬁİ", min_size=1, max_size=16),
)


class TestCanMatch:
    """Every term the KB accepts can match: the trie is keyed by the tokens
    the scan steps over, of any shape and any number."""

    CONCEPTS = {
        "type 2 diabetes": "C1",
        "blood pressure (BP)": "C2",
        "Sjögren syndrome": "C3",
        "a b c d e f g": "C7",
    }
    KB = kb_of(*(KbEntry(c, term) for term, c in CONCEPTS.items()))

    @pytest.mark.parametrize("term", list(CONCEPTS))
    def test_terms_of_any_token_shape_match(self, term):
        text = f"History of {term.upper()}, treated"
        mentions = recognize_entities(sentence_of(text), self.KB)
        start = text.index(term.upper())
        assert [(m.start, m.end, m.concept_id, m.matched_term) for m in mentions] == [
            (start, start + len(term), self.CONCEPTS[term], term)
        ]

    def test_every_bundled_term_can_match(self, mini_kb):
        for entry in mini_kb.entries:
            for term in entry.terms:
                # word tokens only, so the key is the term's whitespace split
                assert term_key(term) == tuple(term.casefold().split()), term
                (sentence,) = split_records(term, SplitMode.LINES)
                found = recognize_entities(sentence, mini_kb)
                assert [(m.start, m.end) for m in found] == [(0, len(term))], term

    @given(term=TERMS)
    @settings(max_examples=400, deadline=None)
    def test_every_accepted_term_is_found_in_itself(self, term):
        try:
            kb = kb_of(KbEntry("C1", term))
        except MalformedKb:
            assume(False)
        surfaces, starts, ends, shapes = scan_tokens(term)
        sentence = SentenceRecord("r", 0, term, 0, surfaces, starts, ends, shapes)
        found = [(m.start, m.end) for m in recognize_entities(sentence, kb)]
        assert found == [(starts[0], ends[-1])]
