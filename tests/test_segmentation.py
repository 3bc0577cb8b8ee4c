"""Sentence splitting and tokenization."""

import ast
import hashlib
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from critex import segmentation
from critex.resources import mini_corpus_dir
from critex.segmentation import (
    SentenceRecord,
    SplitMode,
    Token,
    TokenShape,
    _paragraph_spans,
    split_records,
    tokenize,
)
from test_attributes import _grammar_lines


class TestSplitRecords:
    def test_paragraph_split_two_sentences(self, paragraph_two):
        sentences = split_records(paragraph_two, SplitMode.PARAGRAPHS)
        assert len(sentences) == 2
        assert sentences[0].text.startswith("M/F ages 21-45")
        assert sentences[1].text.startswith("A normal")
        assert sentences[1].char_offset == paragraph_two.index("A normal")

    def test_empty_input(self):
        assert split_records("", SplitMode.PARAGRAPHS) == []
        assert split_records("", SplitMode.LINES) == []

    # "lines" was split as paragraphs, since the mode is tested by identity
    @pytest.mark.parametrize("mode", ["lines", "paragraphs", None])
    @pytest.mark.parametrize("text", ["BMI <= 40. Age >= 18\nECG", ""])
    def test_mode_must_be_a_split_mode(self, mode, text):
        with pytest.raises(TypeError, match=f"^mode must be a SplitMode, got {mode!r}$"):
            split_records(text, mode)

    def test_lines_mode(self):
        sentences = split_records("BMI <= 40 kg/m2\nAge >= 18", SplitMode.LINES)
        assert len(sentences) == 2
        assert [s.sentence_index for s in sentences] == [0, 1]
        assert sentences[0].text == "BMI <= 40 kg/m2"
        assert sentences[1].text == "Age >= 18"

    def test_lines_mode_skips_blank_lines(self):
        sentences = split_records("first\n\n  \nsecond\n", SplitMode.LINES)
        assert [s.text for s in sentences] == ["first", "second"]
        assert [s.sentence_index for s in sentences] == [0, 1]

    def test_abbreviation_does_not_split(self):
        text = "Stable dose (e.g. 20 mg) is required. Next sentence here."
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        assert len(sentences) == 2
        assert sentences[1].text == "Next sentence here."

    def test_single_initial_does_not_split(self):
        text = "Reviewed by J. Smith before enrollment. Patients signed consent."
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        assert len(sentences) == 2
        assert sentences[0].text.endswith("enrollment.")

    def test_period_inside_parentheses_does_not_split(self):
        text = "Weight limit (approx. 50 kg) applies. Second part."
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        assert len(sentences) == 2

    def test_round_trip_offsets(self, paragraph_one, paragraph_two):
        for raw in (paragraph_one, paragraph_two):
            for mode in SplitMode:
                for s in split_records(raw, mode):
                    assert raw[s.char_offset : s.char_offset + len(s.text)] == s.text

    def test_record_id_carried(self):
        sentences = split_records("one line", SplitMode.LINES, record_id="NCT123")
        assert sentences[0].record_id == "NCT123"


class TestTokenContract:
    """``Token`` is a named tuple of (surface, start, end, shape)."""

    def test_fields_by_name_and_position(self):
        tok = Token("mmHg", 4, 8, TokenShape.WORD)
        assert (tok.surface, tok.start, tok.end, tok.shape) == ("mmHg", 4, 8, TokenShape.WORD)
        assert Token._fields == ("surface", "start", "end", "shape")
        surface, start, end, shape = tok
        assert (surface, start, end, shape) == tuple(tok) == (tok[0], tok[1], tok[2], tok[3])

    def test_repr(self):
        assert repr(Token("≤", 0, 1, TokenShape.SYMBOL)) == (
            "Token(surface='≤', start=0, end=1, shape=<TokenShape.SYMBOL: 'SYMBOL'>)"
        )

    def test_fields_cannot_be_assigned(self):
        tok = Token("age", 0, 3, TokenShape.WORD)
        for field, value in (("surface", "x"), ("start", 1), ("end", 9), ("shape", TokenShape.PUNCT)):
            with pytest.raises(AttributeError):
                setattr(tok, field, value)
        with pytest.raises(AttributeError):
            tok.extra = 1
        assert tok == Token("age", 0, 3, TokenShape.WORD)

    def test_equal_tokens_are_equal_and_hash_alike(self):
        first, second = tokenize("Age >= 18 years"), tokenize("Age >= 18 years")
        assert first == second and first[0] is not second[0]
        assert [hash(t) for t in first] == [hash(t) for t in second]
        assert len(set(first) | set(second)) == len(first)
        assert Token("age", 0, 3, TokenShape.WORD) != Token("age", 0, 3, TokenShape.SYMBOL)
        assert Token("age", 0, 3, TokenShape.WORD) != Token("age", 1, 4, TokenShape.WORD)


class TestTokenize:
    def test_criterion_tokens_and_shapes(self, criterion_line):
        tokens = tokenize(criterion_line)
        assert [t.surface for t in tokens] == ["Body", "Mass", "Index", "≤", "40", "kg/m^2"]
        assert [t.shape for t in tokens] == [
            TokenShape.WORD,
            TokenShape.WORD,
            TokenShape.WORD,
            TokenShape.SYMBOL,
            TokenShape.NUMBER,
            TokenShape.WORD,
        ]

    def test_ratio_is_single_token(self):
        tokens = tokenize("blood pressure of less than 140/90 mmHg")
        ratio = [t for t in tokens if t.surface == "140/90"]
        assert len(ratio) == 1
        assert ratio[0].shape is TokenShape.RATIO

    def test_range_is_single_token(self):
        tokens = tokenize("ages 21-45")
        assert [t.surface for t in tokens] == ["ages", "21-45"]
        assert tokens[1].shape is TokenShape.RANGE

    def test_numeric_qualifier_is_single_word_token(self):
        tokens = tokenize("a 12-lead ECG")
        lead = [t for t in tokens if t.surface == "12-lead"]
        assert len(lead) == 1
        assert lead[0].shape is TokenShape.WORD

    def test_parentheses_are_punct(self):
        tokens = tokenize("electrocardiograph (ECG)")
        shapes = {t.surface: t.shape for t in tokens}
        assert shapes["("] is TokenShape.PUNCT
        assert shapes[")"] is TokenShape.PUNCT
        assert shapes["ECG"] is TokenShape.WORD

    def test_comparison_glyphs_are_symbols(self):
        for glyph in ("≤", "≥", "<", ">", "=", "<=", ">="):
            tokens = tokenize(f"value {glyph} 5")
            assert any(
                t.surface == glyph and t.shape is TokenShape.SYMBOL for t in tokens
            )

    def test_compound_units_stay_single(self):
        for surface in ("kg/m^2", "kg/m2", "mmHg", "mg/dL", "mmol/L"):
            tokens = tokenize(f"40 {surface}")
            assert tokens[1].surface == surface
            assert tokens[1].shape is TokenShape.WORD

    def test_hyphenated_word_stays_single(self):
        tokens = tokenize("elimination half-lives")
        assert [t.surface for t in tokens] == ["elimination", "half-lives"]

    def test_thousands_separator(self):
        tokens = tokenize("dose of 1,000 mg")
        assert any(
            t.surface == "1,000" and t.shape is TokenShape.NUMBER for t in tokens
        )

    def test_offsets_reconstruct_text(self, paragraph_one):
        tokens = tokenize(paragraph_one)
        for t in tokens:
            assert paragraph_one[t.start : t.end] == t.surface
        for prev, nxt in zip(tokens, tokens[1:]):
            assert prev.end <= nxt.start

    def test_idempotent_on_token_surfaces(self, paragraph_two):
        for token in tokenize(paragraph_two):
            again = tokenize(token.surface)
            assert len(again) == 1
            assert again[0].surface == token.surface
            assert again[0].shape is token.shape

    def test_numeric_shapes_contain_no_letters(self, paragraph_one, paragraph_two):
        numeric = (TokenShape.NUMBER, TokenShape.RATIO, TokenShape.RANGE)
        for text in (paragraph_one, paragraph_two):
            for t in tokenize(text):
                if t.shape in numeric:
                    assert not any(c.isalpha() for c in t.surface)


class TestScientificNotation:
    """A number takes an optional exponent right after its digits."""

    @pytest.mark.parametrize("surface", ["1e5", "2.5E-3", "1E+4", "1,000e-2", "1e400"])
    def test_exponent_is_part_of_the_number(self, surface):
        assert tokenize(f"of {surface} mg") == [
            Token("of", 0, 2, TokenShape.WORD),
            Token(surface, 3, 3 + len(surface), TokenShape.NUMBER),
            Token("mg", 4 + len(surface), 6 + len(surface), TokenShape.WORD),
        ]

    @pytest.mark.parametrize("text, tokens", [
        ("5mg", [("5", TokenShape.NUMBER), ("mg", TokenShape.WORD)]),
        ("Stage 3e disease", [
            ("Stage", TokenShape.WORD), ("3", TokenShape.NUMBER), ("e", TokenShape.WORD),
            ("disease", TokenShape.WORD),
        ]),
        ("3e-lead", [("3", TokenShape.NUMBER), ("e-lead", TokenShape.WORD)]),
        ("12-lead", [("12-lead", TokenShape.WORD)]),
        ("21-45", [("21-45", TokenShape.RANGE)]),
        ("140/90", [("140/90", TokenShape.RATIO)]),
    ])
    def test_an_e_without_exponent_digits_keeps_its_tokens(self, text, tokens):
        assert [(t.surface, t.shape) for t in tokenize(text)] == tokens


@given(st.text(alphabet=string.printable + "≤≥–", max_size=200))
def test_tokenize_spans_are_valid_on_arbitrary_text(text):
    tokens = tokenize(text)
    last_end = 0
    for t in tokens:
        assert 0 <= t.start < t.end <= len(text)
        assert text[t.start : t.end] == t.surface
        assert t.start >= last_end
        last_end = t.end


# Clinical vocabulary with the characters the shape rules turn on: Unicode
# digits and letters, "%", en dash, the comparison glyphs, exponents and
# glued forms.
_CLINICAL_PIECES = st.sampled_from([
    "٣", "٣٤", "µ", "µg", "²", "m²", "kg/m²", "%", "–", "3–7", "≦", "≧", "≤", "<=", "=",
    "21-45a", "21-45", "12-lead", "3-day", "kg/m^2", "kg/m2", "1,000.5", "1,00", "140/90",
    "2.5", "18", "mmHg", "mm", "Hg", "bpm", "percent", "d", "h", "age", "años", "é", "x",
    "1e5", "2.5E-3", "e", "E+", "e-", "3e", "1e400",
    "(", ")", ",", ".", "-", "/", "'", "’", "^", "&", "_",
])
_TOKENIZER_TEXT = st.lists(
    st.tuples(
        st.one_of(_CLINICAL_PIECES, st.text(max_size=4)),
        st.sampled_from(["", "", " ", "\t", "\xa0"]),
    ),
    max_size=24,
).map(lambda parts: "".join(piece + gap for piece, gap in parts))


@given(_TOKENIZER_TEXT)
@settings(max_examples=300)
def test_tokenize_matches_shape_rederiving_oracle(text):
    assert tokenize(text) == oracles.tokenize(text)


@given(_TOKENIZER_TEXT, st.sampled_from(SplitMode))
@settings(max_examples=300)
def test_sentence_columns_are_the_fields_of_the_oracle_tokens(text, mode):
    for s in split_records(text, mode):
        expected = oracles.tokenize(s.text)
        assert s.surfaces == tuple(t.surface for t in expected)
        assert s.starts == tuple(t.start for t in expected)
        assert s.ends == tuple(t.end for t in expected)
        assert s.shapes == tuple(t.shape for t in expected)
        assert s.tokens == tuple(tokenize(s.text))


def test_only_segmentation_reads_or_builds_token_tuples():
    """Every stage after segmentation indexes a sentence's token columns:
    no other module reads ``.tokens`` or names ``Token`` or
    ``token_columns`` (the package ``__init__`` only re-exports ``Token``)."""

    found = []
    for path in sorted(Path(segmentation.__file__).parent.glob("*.py")):
        if path.name == "segmentation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                hit = node.attr in ("tokens", "token_columns")
                name = node.attr
            elif isinstance(node, ast.Name):
                hit = node.id in ("Token", "token_columns")
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
                hit = name == "token_columns" or (name == "Token" and path.name != "__init__.py")
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
    assert not hasattr(segmentation, "token_columns")


class TestTokenRegression:
    """The tokens are pinned on the bundled corpus and generated lines."""

    # sha256 of (surface, start, end, shape) of every token of the bundled
    # corpus's records and 3,000 generated grammar lines, split both ways.
    DIGEST = "439fd98720e0f5eec5839696df81631545a8ade648ec5b2e657f9ada1dc5b54c"

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        texts = [p.read_text(encoding="utf-8") for p in sorted(mini_corpus_dir().glob("*.txt"))]
        for text in texts + list(_grammar_lines(2019, 3000)):
            for mode in SplitMode:
                for sentence in split_records(text, mode):
                    for t in sentence.tokens:
                        digest.update(repr((t.surface, t.start, t.end, t.shape.value)).encode())
                    digest.update(b"|")
        assert digest.hexdigest() == self.DIGEST


@given(st.text(alphabet=string.printable, max_size=200))
def test_split_records_offsets_on_arbitrary_text(text):
    for mode in SplitMode:
        for s in split_records(text, mode):
            assert isinstance(s, SentenceRecord)
            assert text[s.char_offset : s.char_offset + len(s.text)] == s.text
            assert s.text.strip() == s.text


# Words that end sentences or only look like they do (abbreviations,
# initials, parentheses), joined by separators and by whitespace that is not
# a separator (\x0b, NBSP).
_SPLITTER_WORDS = st.sampled_from(
    ["Word", "word.", "1.", "(a.", "b.)", "e.g.", "Dr.", "(vs.)", "X.", "Q?", "ok!", "."]
)
_SPLITTER_GAPS = st.sampled_from([" ", "\n", "\t", "\r", "\x0b", "\xa0", " \x0b", "", "  "])
_SPLITTER_TEXT = st.lists(st.tuples(_SPLITTER_WORDS, _SPLITTER_GAPS), max_size=30).map(
    lambda parts: "".join(w + g for w, g in parts)
)


@given(_SPLITTER_TEXT)
@settings(max_examples=500)
def test_paragraph_spans_match_full_backward_search(text):
    assert _paragraph_spans(text) == oracles.paragraph_spans(text)


@given(st.text(max_size=200))
def test_paragraph_spans_match_full_backward_search_on_arbitrary_text(text):
    assert _paragraph_spans(text) == oracles.paragraph_spans(text)


# Parentheses, sentence ends and sentence starts, with whitespace that is and
# is not a token separator.
_PAREN_TEXT = st.text(alphabet="().?XQ17 \x0b\xa0", max_size=80)


@given(_PAREN_TEXT)
@settings(max_examples=1000)
def test_paragraph_spans_match_recounted_paren_guard(text):
    assert _paragraph_spans(text) == oracles.paragraph_spans_recounting_parens(text)
