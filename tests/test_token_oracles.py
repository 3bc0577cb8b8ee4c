"""The token layer's fast scans agree exactly with their loop oracles.

The entity scan walks the KB's term trie and the attribute grammar skips
positions that no production can start; ``oracles`` keeps the scans that
try every n-gram and every position.  Lines are drawn from KB-term and
grammar vocabulary with case noise, plural endings, punctuation, numbers
and comparison glyphs, and are scanned with the bundled KB and with KBs
drawn from the same vocabulary (multi-word synonyms, shared prefixes,
terms longer than the n-gram cap, ambiguous terms).  The start gate and
the unit window are checked against the gate written out term by term and
the 3-2-1 window loop.  The entity scan is also run with a dense KB, whose
terms are every word of the line, and with KBs whose terms open only with
words the line spells with a plural "s", so every walk starts through the
fold.  The clause index is checked on drawn token surfaces in any case, and
the tokenizer against the scan with its branches in their first order.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

import oracles
from critex import attributes
from critex.attributes import AttributeKind, AttributeMention, extract_attributes
from critex.entities import (
    MAX_NGRAM,
    EntityMention,
    link_abbreviations,
    recognize_entities,
)
from critex.kb import Category, KbEntry, KnowledgeBase, load_kb, term_key
from critex.resources import bundled_kb_path
from critex.segmentation import (
    _SCAN_RE,
    SentenceRecord,
    SplitMode,
    Token,
    TokenShape,
    split_records,
    tokenize,
)
from critex.syntax import ClauseIndex, heuristic_distance

BUNDLED_KB = load_kb(bundled_kb_path())
BUILTIN_UNITS_KB = KnowledgeBase.build(())  # no entries, the built-in unit table

KB_WORDS = sorted({w for e in BUNDLED_KB.entries for t in e.terms for w in t.split()})
GRAMMAR_WORDS = sorted(
    {w for words, _ in attributes._WORD_COMPARATORS for w in words}
    | attributes._START_WORDS
    | attributes._TIME_UNITS.keys()
    | set(attributes._ANCHOR_HEADS)
    | {"to", "the", "past", "last", "for", "of", "their", "a", "an", "per", "times", "and"}
)
OTHER_TOKENS = (
    "18", "1,000", "2.5", "0", "140/90", "0/5", "21-45", "45-21", "3–7",
    "12-lead", "3-day", "mmHg", "mm", "Hg", "kg/m^2", "mg/dL", "%", "bpm",
    "glass", "pass", "drugs", ",", ".", ";", "(", ")", "-", "/",
    *attributes._GLYPH_COMPARATORS,
)
PHRASES = (
    "between 5 and 30", "between two and", "within three days", "at least twice a week",
    "less than 140/90 mmHg", "no more than 2 times", "prior to screening visit",
    "for the past six months", "of their elimination half-lives", "once per day",
)
ABBREVIATED = (
    "electrocardiograph (ECG)", "blood pressure (BP)", "body weight (BW)",
    "selective serotonin reuptake inhibitors (SSRIs)", "ECG", "BP", "BW", "SSRIs",
)


def _noisy(word):
    return st.sampled_from(
        (word, word.upper(), word.lower(), word.capitalize(), word + "s",
         word + "ss", word + "S", word + ",")
    )


WORD = st.sampled_from(KB_WORDS + GRAMMAR_WORDS + list(OTHER_TOKENS + PHRASES)).flatmap(_noisy)
SEPARATOR = st.sampled_from((" ", " ", " ", "  ", "", "\t"))
LINE = st.lists(st.tuples(WORD, SEPARATOR), min_size=1, max_size=16).map(
    lambda pairs: "".join(w + sep for w, sep in pairs)
)
PARAGRAPH = st.lists(
    st.one_of(LINE, st.sampled_from(ABBREVIATED)), min_size=1, max_size=8
).map(". ".join)

TERM = st.lists(st.sampled_from(KB_WORDS + GRAMMAR_WORDS), min_size=1, max_size=MAX_NGRAM + 1).flatmap(
    lambda words: st.tuples(*(_noisy(w) for w in words)).map(" ".join)
)


@st.composite
def drawn_kb(draw, terms=TERM):
    """A KB whose terms come from the same vocabulary as the lines."""

    entries = []
    for k, group in enumerate(draw(st.lists(st.lists(terms, min_size=1, max_size=4), max_size=8))):
        keys = {term_key(group[0])}
        synonyms = []
        for term in group[1:]:
            if term_key(term) not in keys:
                keys.add(term_key(term))
                synonyms.append(term)
        entries.append(
            KbEntry(
                concept_id=f"C{k}",
                preferred_term=group[0],
                synonyms=tuple(synonyms),
                category=draw(st.sampled_from((Category.MEASUREMENT, Category.OTHER))),
            )
        )
    return KnowledgeBase.build(entries)


def kb_for(text):
    """The bundled KB, or a drawn KB whose terms include runs of ``text``'s words.

    A run skips the tokens in between that are not words, so some terms
    straddle punctuation in the text and must not match there.
    """

    words = [t.surface for t in tokenize(text) if oracles.is_word(t)]
    runs = st.tuples(
        st.integers(0, max(0, len(words) - 1)), st.integers(1, MAX_NGRAM + 1)
    ).map(lambda p: " ".join(words[p[0] : p[0] + p[1]]) or "x")
    variants = runs.flatmap(
        lambda t: st.sampled_from((t, t.upper(), t[:-1] if t[-1] in "sS" else t))
    ).filter(str.strip)
    return st.one_of(st.just(BUNDLED_KB), drawn_kb(st.one_of(TERM, variants)))


def _words_of(text):
    return [t.surface for t in tokenize(text) if oracles.is_word(t)]


def dense_kb(text):
    """A KB whose terms are every word of ``text`` and every run of two or
    three of its words, so that every word is a first word."""

    words = _words_of(text)
    runs = [" ".join(words[i : i + n]) for n in (1, 2, 3) for i in range(len(words) - n + 1)]
    return KnowledgeBase.build(KbEntry(f"D{k}", run) for k, run in enumerate(runs))


def fold_only_kb(text):
    """KBs whose terms open only with a word of ``text`` less its plural "s".

    A word the text also spells without the "s" is left out, so a walk
    can start at these words only by folding; terms of two or three words
    must then not match, as a fold ends the walk.
    """

    words = _words_of(text)
    keys = {term_key(w) for w in words}
    folded = [f for f in map(oracles.fold_plural, words) if f and term_key(f) not in keys]
    if not folded:
        return st.just(BUILTIN_UNITS_KB)
    terms = st.tuples(
        st.sampled_from(folded), st.lists(st.sampled_from(words), max_size=2)
    ).map(lambda p: " ".join((p[0], *p[1])))
    return drawn_kb(terms)


class TestEntityScan:
    @given(text=LINE, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_trie_walk_matches_ngram_scan(self, text, data):
        kb = data.draw(kb_for(text))
        for sentence in split_records(text, SplitMode.LINES):
            assert recognize_entities(sentence, kb) == oracles.recognize_entities(sentence, kb)

    @given(text=LINE, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dense_and_fold_only_kbs_match_ngram_scan(self, text, data):
        kb = data.draw(st.one_of(st.just(text).map(dense_kb), fold_only_kb(text)))
        for sentence in split_records(text, SplitMode.LINES):
            assert recognize_entities(sentence, kb) == oracles.recognize_entities(sentence, kb)

    def test_first_words_hold_each_opening_word_and_its_plural(self):
        kb = KnowledgeBase.build(
            [KbEntry("C1", "Blood pressure"), KbEntry("C2", "drug", synonyms=("drug abuse",))]
        )
        assert kb.first_words == {"blood", "bloods", "drug", "drugs"}
        # derived by any constructor, not only build
        same = KnowledgeBase(kb.entries, kb.term_trie, kb.unit_table, kb.by_id)
        assert same.first_words == kb.first_words
        assert BUILTIN_UNITS_KB.first_words == frozenset()

    def test_plural_fold_matches_oracle_rule(self):
        # every word of two to five letters over "a", "s", "S", alone and as
        # the last of two words, against a KB that holds it less its last
        # letter, so a fold taken or not taken shows
        letters = ("a", "s", "S")
        words = ["".join(p) for n in range(2, 6) for p in itertools.product(letters, repeat=n)]
        for word in words:
            kb = KnowledgeBase.build(
                [KbEntry("C1", word[:-1]), KbEntry("C2", "b " + word[:-1])]
            )
            for text in (word, "b " + word):
                (sentence,) = split_records(text, SplitMode.LINES)
                assert recognize_entities(sentence, kb) == oracles.recognize_entities(
                    sentence, kb
                ), text

    def test_oracle_fold_rule(self):
        for word, folded in (
            ("drugs", "drug"), ("Drugs", "Drug"), ("SSRIs", "SSRI"), ("asss", None),
            ("glass", None), ("has", None), ("BPs", None), ("drugS", None), ("s", None),
        ):
            assert oracles.fold_plural(word) == folded, word

    @given(phrase=st.one_of(TERM, LINE), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lookup_terms_matches_flat_index(self, phrase, data):
        kb = data.draw(kb_for(phrase))
        index = oracles.term_index(kb)
        assert kb.lookup_terms(phrase) == index.get(term_key(phrase), ())
        for key, hits in index.items():
            assert kb.lookup_terms(key.upper()) == hits

    @given(text=PARAGRAPH, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_abbreviations_match_token_scan(self, text, data):
        kb = data.draw(kb_for(text))
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        mentions = [m for s in sentences for m in recognize_entities(s, kb)]
        # a mention from a token start to a point inside a later token,
        # preferably one that a parenthesized abbreviation follows
        s = data.draw(st.sampled_from(sentences))
        before_paren = [k for k, t in enumerate(s.tokens[1:]) if t.surface == "("]
        last = data.draw(st.sampled_from(before_paren or range(len(s.tokens))))
        start = s.tokens[data.draw(st.integers(0, last))].start
        end = data.draw(st.integers(s.tokens[last].start + 1, s.tokens[last].end))
        mentions.append(EntityMention(s.sentence_index, start, end, s.text[start:end], "X", "x"))
        assert link_abbreviations(sentences, mentions) == oracles.link_abbreviations(
            sentences, mentions
        )


class TestGrammarGate:
    @given(text=LINE, with_kb=st.booleans(), with_spans=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_gated_scan_matches_ungated(self, text, with_kb, with_spans):
        kb = BUNDLED_KB if with_kb else BUILTIN_UNITS_KB
        for sentence in split_records(text, SplitMode.LINES):
            spans = None
            if with_spans:
                spans = [(m.start, m.end) for m in recognize_entities(sentence, BUNDLED_KB)]
            assert extract_attributes(sentence, kb, spans) == oracles.extract_attributes(
                sentence, kb, spans
            )

    def test_every_start_word_passes_the_gate(self):
        words = (
            [words[0] for words, _ in attributes._WORD_COMPARATORS]
            + list(attributes._NUMBER_WORDS)
            + list(attributes._FREQUENCY_WORDS)
            + list(attributes.QUALIFIER_LEXICON)
            + [attributes._WITHIN, attributes._BETWEEN]
            + list(attributes._GLYPH_COMPARATORS)
            + ["18", "1,000", "140/90", "21-45", "3–7", "12-lead"]
        )
        for word in words:
            for variant in (word, word.upper(), word.capitalize()):
                (tok,) = tokenize(variant)
                assert attributes._may_start(tok), variant

    def test_comparator_index_holds_every_table_entry_in_order(self):
        index = attributes._WORD_COMPARATORS_BY_FIRST
        rows = [row for first in index for row in index[first]]
        assert sorted(rows, key=attributes._WORD_COMPARATORS.index) == list(
            attributes._WORD_COMPARATORS
        )
        for first, group in index.items():
            assert all(words[0] == first for words, _ in group)
            assert list(group) == sorted(group, key=attributes._WORD_COMPARATORS.index)

    def test_gate_skips_plain_words(self):
        for word in ("patients", "dose", "pressure", "the", "a", "(", "mmHg"):
            (tok,) = tokenize(word)
            assert not attributes._may_start(tok), word


# Surfaces for the start gate: grammar and KB words with case noise, glyphs,
# values, digit-led words with a hyphen or en dash (a decimal head makes
# them no qualifier) and arbitrary short strings.
GATE_SURFACE = st.one_of(
    WORD,
    st.from_regex(r"\A\d{1,3}(\.\d)?[-–][A-Za-z0-9][A-Za-z0-9-]{0,4}\Z"),
    st.text(max_size=6),
)


class TestStartGate:
    """``_may_start`` answers as the gate written out term by term."""

    @given(surface=GATE_SURFACE)
    @settings(max_examples=500, deadline=None)
    def test_gate_matches_spelled_out_gate_for_every_shape(self, surface):
        # every shape for one surface, not only the shape the tokenizer gives it
        for shape in TokenShape:
            tok = Token(surface, 0, len(surface), shape)
            assert attributes._may_start(tok) == oracles.may_start(tok), tok

    @given(text=LINE)
    @settings(max_examples=300, deadline=None)
    def test_gate_matches_spelled_out_gate_on_tokens(self, text):
        for tok in tokenize(text):
            assert attributes._may_start(tok) == oracles.may_start(tok), tok

    def test_digit_led_words(self):
        cases = {
            "12-lead": True, "3–day": True, "1-2-step": True, "2.5-fold": False,
            "12-": False, "-12a": False, "12a": False,
        }
        for surface, expected in cases.items():
            # only a WORD is a numeric qualifier; value shapes pass whatever the surface
            for shape in (TokenShape.WORD, TokenShape.SYMBOL):
                tok = Token(surface, 0, len(surface), shape)
                assert attributes._may_start(tok) is (expected and shape is TokenShape.WORD)
                assert oracles.may_start(tok) is attributes._may_start(tok)


# Unit pieces, so windows of one to three tokens spell units, split by
# punctuation and symbol tokens ("kg/m" "²" is a SYMBOL after a word).
UNIT_PIECE = st.sampled_from(
    ("mm", "Hg", "MM", "hg", "beats", "per", "minute", "kg", "KG", "m2", "m^2", "kg/m",
     "kg/m2", "²", "mg", "dl", "dL", "%", "percent", "cent", "square", "meter",
     "millimeters", "of", "mercury", "mcg", "ml", "/", ",", "(", ")", "-", "≤", "=",
     "18", "140/90", "21-45", "12-lead", "x")
)
UNIT_TEXT = st.lists(UNIT_PIECE, min_size=1, max_size=10).map(" ".join)


class TestUnitWindow:
    """``_unit_at`` asks for the same windows in the same order as the 3-2-1 loop."""

    @given(text=UNIT_TEXT, data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_unit_at_matches_window_loop(self, text, data):
        toks = tokenize(text)
        # a position anywhere, up to and past the sentence end
        i = data.draw(st.integers(0, len(toks) + 1))
        windows = [
            " ".join(t.surface for t in toks[j : j + n])
            for j in range(len(toks))
            for n in (1, 2, 3)
        ]
        accepted = data.draw(st.sets(st.sampled_from(windows))) if windows else set()
        lookups = (
            BUNDLED_KB.normalize_unit,
            BUILTIN_UNITS_KB.normalize_unit,
            lambda s: s.upper() if s in accepted else None,  # windows spanning punctuation too
        )

        def recording(lookup, asked):
            return lambda s: asked.append(s) or lookup(s)

        for lookup in lookups:
            asked, asked_oracle = [], []
            got = attributes._unit_at(toks, i, recording(lookup, asked))
            assert got == oracles.unit_at(toks, i, recording(lookup, asked_oracle))
            assert asked == asked_oracle

    def test_punctuation_and_symbols_cut_the_window(self):
        def anything(s):
            return s

        for text, i, expected in (
            ("mm Hg x", 0, ("mm Hg x", 3)),
            ("mm , Hg", 0, ("mm", 1)),
            ("kg/m²", 0, ("kg/m", 1)),
            ("mm ≤ Hg", 0, ("mm", 1)),
            ("beats per", 0, ("beats per", 2)),
            ("( mm", 0, None),
            ("mm", 1, None),
        ):
            toks = tokenize(text)
            assert attributes._unit_at(toks, i, anything) == expected, text
            assert oracles.unit_at(toks, i, anything) == expected, text


# Token surfaces for the clause index: the boundary words in several cases,
# near misses, and letters whose lower case is longer ("İ" lowers to "i"
# plus a combining dot) or differs from their case fold ("ß", "ſ").
CLAUSE_SURFACE = st.one_of(
    st.sampled_from(
        (",", ";", ".", "(", "and", "AND", "And", "aNd", "or", "OR", "but", "BUT",
         "who", "WHO", "whom", "Whom", "which", "Which", "WHICH", "that", "THAT",
         "That", "whose", "WHOSE", "andy", "nor", "İ", "WHİCH", "THİS", "İAND",
         "ß", "ſ", "K", "12", "≤", "bp")
    ),
    st.text(min_size=1, max_size=3),
)


class TestHeuristicDistance:
    @given(
        surfaces=st.lists(CLAUSE_SURFACE, min_size=1, max_size=12),
        penalty=st.sampled_from((0.0, 1.5, 5.0)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_counts_match_token_scan_on_drawn_surfaces(self, surfaces, penalty, data):
        tokens, pos = [], 0
        for surface in surfaces:
            tokens.append(Token(surface, pos, pos + len(surface), TokenShape.WORD))
            pos += len(surface) + 1
        sentence = SentenceRecord("r", 0, " ".join(surfaces), 0, tuple(tokens))
        index = ClauseIndex(sentence)
        assert index.boundaries == list(
            itertools.accumulate(map(oracles.is_boundary, surfaces), initial=0)
        )
        offsets = sorted({t.start for t in tokens} | {t.end for t in tokens})
        for _ in range(2):
            e_start, e_end, a_start, a_end = (data.draw(st.sampled_from(offsets)) for _ in range(4))
            e = EntityMention(0, min(e_start, e_end), max(e_start, e_end), "e", "C", "e")
            a = AttributeMention(
                0, min(a_start, a_end), max(a_start, a_end), "a", AttributeKind.QUALIFIER
            )
            assert heuristic_distance(index, e, a, penalty) == (
                oracles.heuristic_distance(sentence, e, a, penalty)
            )

    def test_boundary_words_count_in_any_case(self):
        surfaces = ("x", "AND", "Which", "THAT", ",", "İ", "y")
        tokens = tuple(Token(s, 2 * k, 2 * k + 1, TokenShape.WORD) for k, s in enumerate(surfaces))
        index = ClauseIndex(SentenceRecord("r", 0, "", 0, tokens))
        assert index.boundaries == [0, 0, 1, 2, 3, 4, 4, 4]

    @given(text=LINE, penalty=st.sampled_from((0.0, 1.5, 5.0)), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_prefix_counts_match_token_scan(self, text, penalty, data):
        for sentence in split_records(text, SplitMode.LINES):
            n = len(sentence.text)
            start = data.draw(st.integers(0, n))
            drawn_e = EntityMention(0, start, data.draw(st.integers(start, n)), "e", "C", "e")
            start = data.draw(st.integers(0, n))
            drawn_a = AttributeMention(
                0, start, data.draw(st.integers(start, n)), "a", AttributeKind.QUALIFIER
            )
            pairs = [(drawn_e, drawn_a)] + [
                (e, a)
                for e in recognize_entities(sentence, BUNDLED_KB)
                for a in extract_attributes(sentence, BUNDLED_KB)
            ]
            index = ClauseIndex(sentence)
            for e, a in pairs:
                assert heuristic_distance(index, e, a, penalty) == (
                    oracles.heuristic_distance(sentence, e, a, penalty)
                )


# Text from the characters the scan's branch openers turn on: letters
# (ASCII and not), digits (ASCII and not), the comparison glyphs and the
# joiners "-", "–", "/", "^", ".", ",", "'", "’".
SCAN_TEXT = st.text(
    alphabet=st.sampled_from(
        list("aAzZkgmL") + ["é", "µ"] + list("0179") + ["٣"]
        + ["<", ">", "=", "≤", "≥", "≦", "≧"] + list("-–/^.,'’") + [" ", " "]
    ),
    max_size=40,
)


class TestScanOrder:
    """Trying WORD first gives the tokens of the scan's first branch order."""

    @given(text=SCAN_TEXT)
    @example(text="12-lead a1-2 kg/m^2 140/90 21-45a 1,000.5 x≤5 a'b’c")
    @settings(max_examples=500, deadline=None)
    def test_tokens_and_branches_match_first_order(self, text):
        assert tokenize(text) == oracles.tokenize(text)
        assert [(m.span(), m.lastgroup) for m in _SCAN_RE.finditer(text)] == (
            oracles.scan_branches(text)
        )
