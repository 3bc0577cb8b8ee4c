"""Whole-pipeline behavior on record text."""

import hashlib
import importlib
import json
import math
import random
import re
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import critex
import oracles
from critex import linker, pipeline
from critex.attributes import (
    AttributeKind,
    AttributeMention,
    attribute_shape,
    extract_attributes,
)
from critex.cli import main
from critex.entities import EntityMention, link_abbreviations, recognize_entities
from critex.errors import CritexError, ParseMismatch, UnknownConcept
from critex.floats import left_sum
from critex.io_eval import to_json
from critex.kb import KbEntry, KnowledgeBase, compatibility_terms
from critex.linker import _Competitors
from critex.pipeline import PipelineConfig, annotate_record
from critex.resources import bundled_kb_path, mini_corpus_dir
from critex.segmentation import SplitMode
from critex.syntax import DependencyParse, align_block, parse_blocks, softmin_weights
from critex.segmentation import split_records


ROOT = Path(__file__).resolve().parents[1]
PARAGRAPH_CONFIG = PipelineConfig(mode=SplitMode.PARAGRAPHS)


class TestParagraphTwo:
    def test_four_relations(self, mini_kb, paragraph_two):
        record = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        pairs = [(p.entity, p.attribute) for p in record.relations]
        assert pairs == [
            ("ages", "21-45"),
            ("cocaine", "at least twice a week for the past six months"),
            ("ECG", "12-lead"),
            ("blood pressure", "140/90 mmHg"),
        ]

    def test_extended_offsets_slice_record_text(self, mini_kb, paragraph_two):
        record = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        ext = record.extended
        for item in ext["entities"] + ext["attributes"]:
            assert record.text[item["start"] : item["end"]] == item["surface"]

    def test_scores_align_with_relations(self, mini_kb, paragraph_two):
        record = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        ext = record.extended
        assert len(ext["scores"]) == len(record.relations) == len(ext["relations"])
        for rel, score in zip(ext["relations"], ext["scores"]):
            assert rel["score"] == score
            assert 0.0 <= score <= 1.0

    def test_relation_indices_resolve(self, mini_kb, paragraph_two):
        record = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        ext = record.extended
        for rel, pair in zip(ext["relations"], record.relations):
            assert ext["entities"][rel["entity"]]["surface"] == pair.entity
            assert ext["attributes"][rel["attribute"]]["surface"] == pair.attribute

    def test_deterministic(self, mini_kb, paragraph_two):
        first = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        second = annotate_record("1", paragraph_two, mini_kb, PARAGRAPH_CONFIG)
        assert to_json(first, extended=True) == to_json(second, extended=True)


class TestUnlinked:
    def test_attribute_without_entities_is_unlinked(self, mini_kb):
        record = annotate_record(
            "r", "Participants must weigh over 50 kg.", mini_kb
        )
        assert record.relations == []
        unlinked = record.extended["unlinked_attributes"]
        assert [a["surface"] for a in unlinked] == ["50 kg"]

    def test_below_threshold_attribute_is_unlinked(self, mini_kb, paragraph_two):
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, min_score=0.99)
        record = annotate_record("1", paragraph_two, mini_kb, config)
        kept = {p.attribute for p in record.relations}
        unlinked = {a["surface"] for a in record.extended["unlinked_attributes"]}
        assert kept.isdisjoint(unlinked)
        assert len(kept) + len(unlinked) == 4


class TestCandidateCount:
    def test_real_paragraph_yields_eight_candidates(self, mini_kb, paragraph_two):
        # hand count: sentence 0 pairs {ages, cocaine} x {21-45, frequency},
        # sentence 1 pairs {ECG, blood pressure} x {12-lead, ratio} -> 4 + 4
        sentences, mentions, attributes = _front_end(paragraph_two, mini_kb)
        assert len(mentions) == 4 and len(attributes) == 4

        def count(config):
            competitors = _Competitors(sentences, mentions, mini_kb, config, None)
            return sum(
                len(oracles.competitors_of(competitors, a)[0]) for a in attributes
            )

        assert count(PARAGRAPH_CONFIG) == 8
        cross = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True)
        assert count(cross) == 16


class TestCrossSentence:
    KB = KnowledgeBase.build(
        [KbEntry(concept_id="LOCAL:hr", preferred_term="heart rate")]
    )
    TEXT = "heart rate was recorded\nwithin three days"

    def test_disabled_by_default(self):
        record = annotate_record("r", self.TEXT, self.KB)
        assert record.relations == []

    def test_enabled_links_across_sentences(self):
        config = PipelineConfig(cross_sentence=True)
        record = annotate_record("r", self.TEXT, self.KB, config)
        assert [(p.entity, p.attribute) for p in record.relations] == [
            ("heart rate", "within three days")
        ]


class TestExternalParses:
    def test_parse_backed_distances(self, mini_kb, criterion_line):
        rows = parse_blocks(
            "1\tBody\t3\tcompound\n"
            "2\tMass\t3\tcompound\n"
            "3\tIndex\t5\tnsubj\n"
            "4\t≤\t5\tcase\n"
            "5\t40\t0\troot\n"
            "6\tkg/m^2\t5\tnmod\n"
        )[0]
        sentence = split_records(criterion_line, SplitMode.LINES)[0]
        parse = align_block(rows, sentence)
        record = annotate_record(
            "r", criterion_line, mini_kb, parses=[parse]
        )
        assert [(p.entity, p.attribute) for p in record.relations] == [
            ("Body Mass Index", "≤ 40 kg/m^2")
        ]

    def test_parse_without_a_sentence_is_a_mismatch(self, mini_kb, criterion_line):
        n = len(split_records(criterion_line, SplitMode.LINES)[0].tokens)
        parse = DependencyParse((0,) + tuple(range(1, n)), ("dep",) * n)
        with pytest.raises(ParseMismatch, match="^sentence 0: parse is not aligned") as info:
            annotate_record("r", criterion_line, mini_kb, parses=[parse])
        assert info.value.index == 0

    def test_parse_of_another_sentence_is_a_mismatch(self, mini_kb, criterion_line):
        text = f"Age 18-65 years\n{criterion_line}"
        parses = [
            DependencyParse((0,) + tuple(range(1, len(s.tokens))), ("dep",) * len(s.tokens), s)
            for s in split_records(text, SplitMode.LINES)
        ]
        for index, given in ((0, parses[::-1]), (1, [None, parses[0]])):
            with pytest.raises(ParseMismatch, match=f"^sentence {index}: parse is aligned to"):
                annotate_record("r", text, mini_kb, parses=given)
        annotate_record("r", text, mini_kb, parses=parses)

    def test_parse_past_the_last_sentence_is_a_mismatch(self, mini_kb, criterion_line):
        (sentence,) = split_records(criterion_line, SplitMode.LINES)
        n = len(sentence.tokens)
        parse = DependencyParse((0,) + tuple(range(1, n)), ("dep",) * n, sentence)
        for parses in ([parse, None], [None, None, parse]):
            with pytest.raises(ParseMismatch, match="^sentence 1: parse past the") as info:
                annotate_record("r", criterion_line, mini_kb, parses=parses)
            assert info.value.index == 1

    def test_parse_of_another_type_is_a_mismatch(self, mini_kb, criterion_line):
        text = f"Age 18-65 years\n{criterion_line}"
        for index, parses in ((0, ["junk"]), (1, [None, ("heads", "labels")])):
            with pytest.raises(ParseMismatch, match=f"^sentence {index}: parse is a .*, not"):
                annotate_record("r", text, mini_kb, parses=parses)


class TestThetaFlag:
    def test_theta_changes_winner_when_signals_disagree(self, mini_kb):
        # compatibility favors blood pressure (mmHg); proximity favors the
        # entity sitting right next to the value
        text = "ECG and more tokens before blood pressure then ECG reading of 140/90 mmHg"
        kb = mini_kb
        sup_config = PipelineConfig(theta=1.0)
        dep_config = PipelineConfig(theta=0.0)
        sup_record = annotate_record("r", text, kb, sup_config)
        dep_record = annotate_record("r", text, kb, dep_config)
        sup_winner = [p.entity for p in sup_record.relations
                      if p.attribute == "140/90 mmHg"]
        dep_winner = [p.entity for p in dep_record.relations
                      if p.attribute == "140/90 mmHg"]
        assert sup_winner == ["blood pressure"]
        assert dep_winner == ["ECG"]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": -1.0},
            {"tau": math.nan},
            {"tau": math.inf},
            {"boundary_penalty": -0.5},
            {"boundary_penalty": math.nan},
            {"boundary_penalty": math.inf},
            {"tau": -1.0, "boundary_penalty": math.nan},
            {"theta": 1.5},
            {"min_score": math.nan},
        ],
    )
    def test_invalid_values_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("name", ["theta", "min_score"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_unit_interval_message(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {value}$"):
            PipelineConfig(**{name: value})

    def test_edge_values_accepted(self):
        config = PipelineConfig(tau=1e-9, boundary_penalty=0.0, theta=0.0, min_score=1.0)
        assert config.boundary_penalty == 0.0

    # one field each; every value was accepted before, and the first three
    # ran paragraph splitting, cross-sentence linking and an AttributeError
    # in the linker
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("mode", "lines", "mode must be a SplitMode, got 'lines'"),
            ("cross_sentence", "no", "cross_sentence must be a bool, got 'no'"),
            ("weights", None, "weights must be CompatibilityWeights, got None"),
            ("theta", True, "theta must be a real number, got True"),
            ("min_score", "0.2", "min_score must be a real number, got '0.2'"),
            ("tau", True, "tau must be a real number, got True"),
            ("boundary_penalty", None, "boundary_penalty must be a real number, got None"),
        ],
    )
    def test_wrong_types_rejected_at_construction(self, name, value, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**{name: value})
        with pytest.raises(TypeError):
            replace(PipelineConfig(), **{name: value})

    def test_whole_numbers_link_as_their_floats(self, mini_kb):
        whole = PipelineConfig(theta=1, min_score=0, tau=2, boundary_penalty=0)
        floats = PipelineConfig(theta=1.0, min_score=0.0, tau=2.0, boundary_penalty=0.0)
        rows = _relation_rows(JOINED_CORPUS, mini_kb, floats)
        assert rows and _relation_rows(JOINED_CORPUS, mini_kb, whole) == rows


class TestPublicSurface:
    EXPORTED = [
        "AttributeKind", "AttributeMention", "AttributeShape", "Category",
        "Comparator", "CompatibilityWeights", "CritexError", "CycleDetected",
        "DanglingRef", "DependencyParse", "DuplicateConceptId", "ElementType",
        "EntityMention", "EvalReport", "GoldAnnotation", "KbEntry",
        "KnowledgeBase", "MalformedAnn", "MalformedJsonl", "MalformedKb",
        "MalformedPrediction", "MalformedText", "MatchMode", "ParseMismatch",
        "PipelineConfig", "RecordMismatch", "Relation", "RelationPair",
        "SentenceRecord", "SpanMismatch", "SplitMode", "StructuredRecord",
        "TimeUnit", "Token", "TokenShape", "UnknownConcept", "ValuePattern",
        "annotate_record", "attribute_shape", "bundled_kb_path",
        "compatibility_terms", "evaluate", "extract_attributes", "from_json",
        "import_tsv", "link_abbreviations", "load_kb", "mine_kb_candidates",
        "mini_corpus_dir", "read_brat", "read_brat_dir",
        "read_corpus", "recognize_entities", "save_kb", "split_records",
        "to_json", "tokenize",
    ]

    def test_every_exported_name_resolves_once(self):
        assert len(critex.__all__) == len(set(critex.__all__))
        for name in critex.__all__:
            assert getattr(critex, name) is not None, name

    def test_exported_names_are_pinned(self):
        assert len(self.EXPORTED) == 57
        assert sorted(critex.__all__) == self.EXPORTED

    @pytest.mark.parametrize("module, name", [
        ("linker", "LinkerConfig"),
        ("syntax", "SyntacticSignal"),
        ("syntax", "SignalSource"),
        ("io_eval", "CorpusFormat"),
        ("linker", "ConceptColumns"),
        ("linker", "link_attribute"),
        ("syntax", "path_distance"),
        ("kb", "score_compatibility"),
        ("kb", "CompatibilityScore"),
        ("syntax", "p_dep"),
    ])
    def test_removed_names_are_gone(self, module, name):
        assert name not in critex.__all__
        assert not hasattr(critex, name)
        assert not hasattr(importlib.import_module(f"critex.{module}"), name)

    def test_removed_public_unit_names_are_gone(self):
        # the KB's method is the one public unit normalizer; the built-in
        # table's function stays internal to KB construction and mining
        assert "normalize_unit" not in critex.__all__
        assert not hasattr(critex, "normalize_unit")
        assert critex.KnowledgeBase.build(()).normalize_unit("mm Hg") == "mmHg"
        assert not hasattr(critex.TokenShape, "UNIT_LIKE")
        assert len(critex.TokenShape) == 6

    @pytest.mark.parametrize("method", ["lookup", "entry"])
    def test_removed_kb_methods_are_gone(self, method):
        assert not hasattr(KnowledgeBase, method)

    @pytest.mark.parametrize("name", ["ClauseIndex", "heuristic_distance", "path_distances"])
    def test_linker_internals_leave_the_top_level(self, name):
        assert name not in critex.__all__
        assert not hasattr(critex, name)
        assert hasattr(importlib.import_module("critex.syntax"), name)

    def test_config_stays_importable_where_the_cli_reads_it(self):
        assert critex.PipelineConfig is pipeline.PipelineConfig
        assert pipeline.DEFAULT_CONFIG == PipelineConfig()


GOLD_SENTENCES = tuple(
    s.text
    for path in sorted(mini_corpus_dir().glob("*.txt"))
    for s in split_records(path.read_text(encoding="utf-8"), SplitMode.PARAGRAPHS)
)

# Multi-sentence paragraph records: gold sentences mixed with random filler
# that can itself contain sentence breaks, numbers and clause boundaries.
FILLER = st.text(alphabet="abxyz ABC 0123456789 .,;()<>=-/%\n\t", max_size=30)
MULTI_SENTENCE = st.lists(
    st.one_of(st.sampled_from(GOLD_SENTENCES), FILLER), min_size=2, max_size=8
).map(" ".join)


def _front_end(text, kb, mode=SplitMode.PARAGRAPHS):
    sentences = split_records(text, mode)
    mentions = [m for s in sentences for m in recognize_entities(s, kb)]
    mentions = link_abbreviations(sentences, mentions)
    attributes = []
    for s in sentences:
        spans = [(m.start, m.end) for m in mentions if m.sentence_index == s.sentence_index]
        attributes.extend(extract_attributes(s, kb, entity_spans=spans))
    return sentences, mentions, attributes


CROSS_CONFIG = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True)


class TestCrossSentenceOracles:
    @given(text=MULTI_SENTENCE, penalty=st.sampled_from((0.0, 1.5, 5.0)))
    @settings(max_examples=100, deadline=None)
    def test_distance_matches_token_loop(self, mini_kb, text, penalty):
        sentences, mentions, attributes = _front_end(text, mini_kb)
        config = PipelineConfig(
            mode=SplitMode.PARAGRAPHS, cross_sentence=True, boundary_penalty=penalty
        )
        competitors = _Competitors(sentences, mentions, mini_kb, config, None)
        for a in attributes:
            entities, distances = oracles.competitors_of(competitors, a)
            for e, distance in zip(entities, distances):
                if e.sentence_index != a.sentence_index:
                    expected = oracles.cross_sentence_distance(sentences, e, a, penalty)
                else:
                    expected = oracles.heuristic_distance(
                        sentences[a.sentence_index], e, a, penalty
                    )
                assert distance == expected

    @given(text=MULTI_SENTENCE, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_distance_matches_token_loop_on_arbitrary_spans(self, text, data):
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        assume(len(sentences) >= 2)
        i, j = data.draw(
            st.lists(
                st.integers(0, len(sentences) - 1), min_size=2, max_size=2, unique=True
            )
        )

        def span(index):
            n = len(sentences[index].text)
            start = data.draw(st.integers(0, n))
            return start, data.draw(st.integers(start, n))

        e = EntityMention(i, *span(i), "e", "LOCAL:e", "e")
        a = AttributeMention(j, *span(j), "a", AttributeKind.QUALIFIER)
        competitors = _Competitors(sentences, [e], KnowledgeBase.build(()), CROSS_CONFIG, None)
        expected = oracles.cross_sentence_distance(sentences, e, a, 5.0)
        assert oracles.competitors_of(competitors, a) == ([e], [expected])

    @given(
        text=MULTI_SENTENCE,
        theta=st.sampled_from((0.0, 0.5, 1.0)),
        min_score=st.sampled_from((0.0, 0.2, 0.6)),
    )
    @settings(max_examples=100, deadline=None)
    def test_p_sup_and_assign_match_oracles(self, mini_kb, text, theta, min_score):
        config = PipelineConfig(
            mode=SplitMode.PARAGRAPHS,
            cross_sentence=True,
            theta=theta,
            min_score=min_score,
        )
        assert _relation_rows(text, mini_kb, config) == _oracle_rows(text, mini_kb, config)


def _relation_rows(text, kb, config, parses=None):
    """(entity index, attribute index, label, score bits) of each relation."""

    record = annotate_record("r", text, kb, config, parses=parses)
    return [
        (r["entity"], r["attribute"], r["label"], float.hex(r["score"]))
        for r in record.extended["relations"]
    ]


def _oracle_rows(text, kb, config, parses=None):
    """The same rows from the candidate-object chain of ``oracles.link``."""

    sentences, mentions, attributes = _front_end(text, kb, config.mode)
    relations = oracles.link(sentences, mentions, attributes, kb, config, parses)

    def key(m):
        return (m.sentence_index, m.start, m.end)

    entity_index = {key(m): i for i, m in enumerate(mentions)}
    attribute_index = {key(a): i for i, a in enumerate(attributes)}
    return [
        (entity_index[key(r.entity)], attribute_index[key(r.attribute)], r.label,
         float.hex(r.score))
        for r in relations
    ]


# Tie-heavy records: few concepts, each repeated, and attributes flanked by
# the same words on both sides, so that scores, distances and character gaps
# tie and every rule of the tie-break decides some attributes.
# "12-lead ECG" and "resting heart rate" hold an attribute under the
# ``held_kb`` fixture.
TIE_ENTITIES = ("blood pressure", "BP", "ECG", "heart rate", "glucose", "pain", "BMI",
                "12-lead ECG", "resting heart rate")
TIE_ATTRIBUTES = (
    "140/90 mmHg", "21-45", "less than 5 kg", "60-100 bpm", "within three days",
    "12-lead", "≤ 40 kg/m^2", "at least twice a week",
)
TIE_FILLER = ("and", ",", ";", "was", "x", ".", "\n")
TIE_PIECES = st.lists(
    st.sampled_from(TIE_ENTITIES + TIE_ATTRIBUTES + TIE_FILLER), min_size=1, max_size=8
)
# a capital or a digit after " .\n" starts a sentence in both split modes
SENTENCE_OPENERS = ("ECG", "BP", "BMI", "21-45", "140/90 mmHg")


@st.composite
def tie_heavy_texts(draw):
    sentences = []
    for k in range(draw(st.integers(1, 3))):
        pieces = draw(TIE_PIECES)
        if draw(st.booleans()):  # mirror the pieces around one attribute
            pieces = pieces + [draw(st.sampled_from(TIE_ATTRIBUTES))] + pieces[::-1]
        if k:
            pieces.insert(0, draw(st.sampled_from(SENTENCE_OPENERS)))
        sentences.append(" ".join(pieces))
    return " .\n".join(sentences)


def _random_parses(sentences, rng):
    """Random trees for the sentences, some None, the list perhaps cut short."""

    parses = []
    for sentence in sentences:
        n = len(sentence.tokens)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        heads = [0] * n
        for k in range(1, n):
            heads[order[k] - 1] = order[rng.randrange(k)]
        parse = DependencyParse(tuple(heads), ("dep",) * n, sentence)
        parses.append(None if rng.random() < 0.3 else parse)
    return parses[: rng.randint(0, len(parses))] if rng.random() < 0.3 else parses


def _without(kb, concepts):
    """``kb`` whose linker no longer knows ``concepts``; the scan still finds them."""

    return replace(kb, by_id={k: v for k, v in kb.by_id.items() if k not in concepts})


def _outcome(run, text, kb, config, parses=None):
    try:
        return run(text, kb, config, parses)
    except UnknownConcept as exc:
        return str(exc)


class TestLinkerChainOracle:
    """The per-attribute linker equals the candidate-object chain it replaced."""

    @given(
        text=tie_heavy_texts(),
        mode=st.sampled_from(tuple(SplitMode)),
        cross_sentence=st.booleans(),
        theta=st.sampled_from((0.0, 0.5, 1.0)),
        with_parses=st.booleans(),
        held=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_relations_and_scores_bit_for_bit(
        self, mini_kb, held_kb, text, mode, cross_sentence, theta, with_parses, held, seed,
        data,
    ):
        kb = held_kb if held else mini_kb
        parses = None
        if with_parses:
            parses = _random_parses(split_records(text, mode), random.Random(seed))
        config = PipelineConfig(mode=mode, cross_sentence=cross_sentence, theta=theta,
                                min_score=0.0)
        rows = _oracle_rows(text, kb, config, parses)
        assert _relation_rows(text, kb, config, parses) == rows
        if rows:
            # a threshold exactly at a winner's score keeps that winner
            score = float.fromhex(data.draw(st.sampled_from([r[3] for r in rows])))
            config = replace(config, min_score=score)
            kept = _oracle_rows(text, kb, config, parses)
            assert any(r[3] == float.hex(score) for r in kept)
            assert _relation_rows(text, kb, config, parses) == kept

    @given(
        text=tie_heavy_texts(),
        cross_sentence=st.booleans(),
        dropped=st.sets(st.sampled_from(("C0005823", "C0013798", "C0018810", "C0005802")),
                        min_size=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_unknown_concept_raised_alike(self, mini_kb, text, cross_sentence, dropped):
        kb = _without(mini_kb, dropped)
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=cross_sentence)
        expected = _outcome(_oracle_rows, text, kb, config)
        assert _outcome(_relation_rows, text, kb, config) == expected


# Records whose sentences hold 0, 1 or 2 entity mentions.  Under
# ``held_kb``, "12-lead ECG" and "resting heart rate" are lone mentions that
# hold their sentence's qualifier.
LONE_ENTITIES = ("blood pressure", "ECG", "heart rate", "glucose", "12-lead ECG",
                 "resting heart rate")
LONE_CONCEPTS = ("C0005823", "C0013798", "C0018810", "C0005802", "LOCAL:ecg12", "LOCAL:rhr")
LONE_FILLER = ("was", "x", "and", ",")


@st.composite
def few_mention_texts(draw):
    sentences = []
    for k in range(draw(st.integers(1, 3))):
        pieces = (
            draw(st.lists(st.sampled_from(LONE_ENTITIES), max_size=2))
            + draw(st.lists(st.sampled_from(TIE_ATTRIBUTES), min_size=1, max_size=2))
            + draw(st.lists(st.sampled_from(LONE_FILLER), max_size=3))
        )
        pieces = draw(st.permutations(pieces))
        if k:  # a capital after " .\n" starts a sentence in both split modes
            pieces = ["Also", *pieces]
        sentences.append(" ".join(pieces))
    return " .\n".join(sentences)


class TestLoneCompetitor:
    """An attribute whose sentence holds at most one mention, with no other
    sentence competing, is decided without distances, clause indexes or
    compatibility, and links as scoring its one competitor would link it."""

    # every sentence holds at most one mention: blood pressure links its
    # value, "within three days" has no competitor, ECG links "21-45"
    TEXT = "Blood pressure of less than 140/90 mmHg. Also within three days. ECG 21-45."

    @given(
        text=few_mention_texts(),
        mode=st.sampled_from(tuple(SplitMode)),
        cross_sentence=st.booleans(),
        theta=st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
        min_score=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
        with_parses=st.booleans(),
        held=st.booleans(),
        dropped=st.one_of(
            st.just(frozenset()), st.frozensets(st.sampled_from(LONE_CONCEPTS), min_size=1,
                                                max_size=2)
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_chain_bit_for_bit(
        self, mini_kb, held_kb, text, mode, cross_sentence, theta, min_score, with_parses,
        held, dropped, seed,
    ):
        kb = _without(held_kb if held else mini_kb, dropped)
        parses = None
        if with_parses:
            parses = _random_parses(split_records(text, mode), random.Random(seed))
        config = PipelineConfig(mode=mode, cross_sentence=cross_sentence, theta=theta,
                                min_score=min_score)
        expected = _outcome(_oracle_rows, text, kb, config, parses)
        assert _outcome(_relation_rows, text, kb, config, parses) == expected

    @given(theta=st.floats(0.0, 1.0))
    def test_lone_score_is_one_for_every_theta(self, theta):
        assert linker._mix((1.0,), (1.0,), theta, 1.0) == [1.0]

    @pytest.mark.parametrize("cross_sentence", [False, True])
    def test_lone_mention_holding_the_attribute_leaves_it_unlinked(
        self, held_kb, cross_sentence
    ):
        config = replace(PARAGRAPH_CONFIG, cross_sentence=cross_sentence, min_score=0.0)
        record = annotate_record("r", "12-lead ECG", held_kb, config)
        assert [m["surface"] for m in record.extended["entities"]] == ["12-lead ECG"]
        assert [a["surface"] for a in record.extended["unlinked_attributes"]] == ["12-lead"]
        assert _relation_rows("12-lead ECG", held_kb, config) == []
        assert _oracle_rows("12-lead ECG", held_kb, config) == []

    def test_unknown_lone_concept_raises_the_p_sup_message(self, mini_kb):
        kb = _without(mini_kb, {"C0013798"})
        with pytest.raises(UnknownConcept, match=r"^concept C0013798 not in knowledge base$"):
            annotate_record("r", self.TEXT, kb, PARAGRAPH_CONFIG)
        assert _outcome(_oracle_rows, self.TEXT, kb, PARAGRAPH_CONFIG) == (
            "concept C0013798 not in knowledge base"
        )

    @pytest.mark.parametrize(
        "text, cross_sentence, with_parses",
        [
            (TEXT, False, False),
            (TEXT, False, True),
            # the record's one mention, in the attributes' sentence: no
            # other sentence competes
            ("Blood pressure of less than 140/90 mmHg, 21-45.", True, False),
            ("Blood pressure of less than 140/90 mmHg, 21-45.", True, True),
        ],
    )
    def test_runs_no_distance_clause_index_or_compatibility(
        self, mini_kb, monkeypatch, text, cross_sentence, with_parses
    ):
        config = replace(PARAGRAPH_CONFIG, cross_sentence=cross_sentence, min_score=1.0)
        parses = None
        if with_parses:
            parses = [
                DependencyParse(tuple(range(len(s.tokens))), ("dep",) * len(s.tokens), s)
                for s in split_records(text, config.mode)
            ]
        expected = _oracle_rows(text, mini_kb, config, parses)
        assert expected and all(float.fromhex(row[3]) == 1.0 for row in expected)

        def unreachable(*args):
            raise AssertionError("a lone competitor needs no distance or compatibility")

        names = ["heuristic_distance", "path_distances", "compatibility_terms"]
        if not cross_sentence:  # cross-sentence linking indexes every mention once
            names.append("ClauseIndex")
        for name in names:
            monkeypatch.setattr(linker, name, unreachable)
        assert _relation_rows(text, mini_kb, config, parses) == expected

    def test_work_counts_on_the_batch_workload(self, mini_kb, monkeypatch):
        # 2,000 short records of the benchmark's batch workload, seed 1; an
        # attribute that takes the exit builds no clause index, measures no
        # distance and scores no compatibility (3,869, 13,367 and 12,951
        # without the exit)
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        inputs = importlib.import_module("inputs")
        counts = dict.fromkeys(("ClauseIndex", "heuristic_distance", "compatibility_terms"), 0)
        for name in counts:
            def counting(*args, _name=name, _f=getattr(linker, name)):
                counts[_name] += 1
                return _f(*args)

            monkeypatch.setattr(linker, name, counting)
        for r in inputs.batch_records(inputs.read_gold_corpus(mini_corpus_dir()), 1):
            annotate_record(r.id, r.text, mini_kb, PARAGRAPH_CONFIG)
        assert counts == {
            "ClauseIndex": 2027, "heuristic_distance": 11139, "compatibility_terms": 10723,
        }


class TestSoftminWindow:
    """Cross-sentence linking scores only the competitors whose p_dep weight
    can be non-zero; the far ones are settled from their concepts alone."""

    # "Blood pressure" heads sentence 0; the attribute sits in sentence 1
    # next to ECG (distance 0), and blood pressure again follows it
    # behind five boundary tokens (distance 25).  Under tau 0.005 both
    # blood pressure mentions weigh exactly 0.0.
    TEXT = "Blood pressure was taken. ECG 140/90 mmHg, and, or, blood pressure"

    @staticmethod
    def _weights(text, kb, config):
        """(surface, sentence) -> softmin weight of each competitor of the one attribute."""

        sentences, mentions, attributes = _front_end(text, kb)
        (a,) = attributes
        competitors = _Competitors(sentences, mentions, kb, config, None)
        entities, distances = oracles.competitors_of(competitors, a)
        d_min = min(distances)
        return {
            (e.surface, e.sentence_index): math.exp(-(d - d_min) / config.tau)
            for e, d in zip(entities, distances)
        }

    def _linked(self, text, kb, config):
        record = annotate_record("r", text, kb, config)
        assert _relation_rows(text, kb, config) == _oracle_rows(text, kb, config)
        return [(e["surface"], e["sentence_index"]) for e in (
            record.extended["entities"][r["entity"]] for r in record.extended["relations"]
        )]

    def test_far_entity_wins_outright(self, mini_kb):
        text = "Blood pressure was taken. ECG 140/90 mmHg"
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                tau=0.005, theta=0.9, min_score=0.0)
        assert self._weights(text, mini_kb, config) == {
            ("Blood pressure", 0): 0.0, ("ECG", 1): 1.0,
        }
        assert self._linked(text, mini_kb, config) == [("Blood pressure", 0)]

    def test_far_entity_wins_a_tie_with_a_zero_weight_near_one(self, mini_kb):
        # theta 1.0: both blood pressure mentions score their p_sup alone;
        # the far one (distance 8) beats the local one (distance 25)
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                tau=0.005, theta=1.0, min_score=0.0)
        assert self._weights(self.TEXT, mini_kb, config) == {
            ("Blood pressure", 0): 0.0, ("ECG", 1): 1.0, ("blood pressure", 1): 0.0,
        }
        assert self._linked(self.TEXT, mini_kb, config) == [("Blood pressure", 0)]

    def test_far_tie_at_one_distance_goes_to_the_leftmost_mention(self, mini_kb):
        # under a penalty of 1e17 both blood pressure mentions of sentence 0
        # lie at distance 1e17 from the attribute; theta 1.0 ties them
        text = "Blood pressure, then blood pressure again. ECG 140/90 mmHg"
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                boundary_penalty=1e17, theta=1.0, min_score=0.0)
        sentences, mentions, (a,) = _front_end(text, mini_kb)
        _, distances = oracles.competitors_of(
            _Competitors(sentences, mentions, mini_kb, config, None), a
        )
        assert distances == [1e17, 1e17, 0.0]
        assert self._linked(text, mini_kb, config) == [("Blood pressure", 0)]

    def test_near_entity_wins_a_tie_with_a_far_one(self, mini_kb):
        text = "Blood pressure was taken. ECG, blood pressure 140/90 mmHg"
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                tau=0.005, theta=1.0, min_score=0.0)
        weights = self._weights(text, mini_kb, config)
        assert weights[("Blood pressure", 0)] == 0.0
        assert weights[("blood pressure", 1)] == 1.0
        assert self._linked(text, mini_kb, config) == [("blood pressure", 1)]

    @given(
        text=st.one_of(MULTI_SENTENCE, tie_heavy_texts()),
        tau=st.sampled_from((0.01, 0.03, 0.1, 0.3)),
        theta=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
        min_score=st.sampled_from((0.0, 0.2)),
        penalty=st.sampled_from((0.0, 1e17)),
        held=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_chain_when_most_entities_are_far(
        self, mini_kb, held_kb, text, tau, theta, min_score, penalty, held
    ):
        # a penalty of 1e17 rounds the distances of one sentence's mentions
        # to one float, so far mentions of one concept tie on distance too
        kb = held_kb if held else mini_kb
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True, tau=tau,
                                theta=theta, boundary_penalty=penalty, min_score=min_score)
        assert _relation_rows(text, kb, config) == _oracle_rows(text, kb, config)


class TestCandidates:
    """Cross-sentence linking scores the local competitors and, for each
    concept, the nearer of its nearest mentions ahead and behind (the one
    ahead at equal distances, and of those ahead at its distance the
    leftmost); the window serves the ``p_dep`` total alone."""

    CONCEPTS = ("C0005823", "C0013798", "C0005802")  # blood pressure, ECG, glucose

    @staticmethod
    @st.composite
    def records(draw):
        """Sentences and entity mentions at arbitrary spans inside a few of
        their tokens, often several inside one: mentions of one concept then
        lie at one distance, ahead and behind.  Half the sentences have no
        mention, so that the runs of other sentences win."""

        sentences = split_records(draw(MULTI_SENTENCE), SplitMode.PARAGRAPHS)
        mentions = []
        for s in sentences:
            if not (s.tokens and draw(st.booleans())):
                continue
            picked = draw(st.lists(st.integers(0, len(s.tokens) - 1), max_size=4))
            for token in (s.tokens[i] for i in sorted(set(picked))):
                cuts = draw(st.lists(st.integers(token.start, token.end), min_size=2,
                                     max_size=6))
                cuts = sorted(set(cuts))
                for start, end in zip(cuts[::2], cuts[1::2]):
                    concept = draw(st.sampled_from(TestCandidates.CONCEPTS))
                    mentions.append(EntityMention(
                        s.sentence_index, start, end, s.text[start:end], concept, "e"
                    ))
        return sentences, mentions

    @pytest.mark.parametrize("text, linked", [
        # ahead: two mentions inside "Pressure", at one distance
        ("Pressure was taken. 140/90 mmHg", (0, 1, 3)),
        # behind: two mentions inside "Pressure"; the nearest is the leftmost
        ("140/90 mmHg. Pressure was taken.", (1, 1, 3)),
    ])
    @pytest.mark.parametrize("theta", (0.0, 1.0))
    def test_equal_distance_run_goes_to_its_leftmost_mention(self, mini_kb, text, linked,
                                                             theta):
        sentences = split_records(text, SplitMode.PARAGRAPHS)
        mentions = [
            EntityMention(linked[0], start, start + 2, "xx", "C0005823", "e")
            for start in (1, 4)
        ]
        (a,) = [a for s in sentences for a in extract_attributes(s, mini_kb)]
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                theta=theta, boundary_penalty=1.0)
        competitors = _Competitors(sentences, mentions, mini_kb, config, None)
        _, distances = oracles.competitors_of(competitors, a)
        assert distances[0] == distances[1]
        r = competitors.link(a)
        assert (r.entity.sentence_index, r.entity.start, r.entity.end) == linked
        assert [r] == oracles.link(sentences, mentions, [a], mini_kb, config)

    @given(
        record=records(),
        tau=st.one_of(st.sampled_from((0.01, 1e3)), st.floats(0.01, 1e3)),
        theta=st.sampled_from((0.0, 0.5, 1.0)),
        penalty=st.sampled_from((1.0, 2.0, 0.3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_chain_on_equal_distance_runs(
        self, mini_kb, record, tau, theta, penalty
    ):
        sentences, mentions = record
        attributes = [a for s in sentences for a in extract_attributes(s, mini_kb)]
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True, tau=tau,
                                theta=theta, boundary_penalty=penalty, min_score=0.0)
        competitors = _Competitors(sentences, mentions, mini_kb, config, None)
        expected = {
            r.attribute: (r.entity, float.hex(r.score))
            for r in oracles.link(sentences, mentions, attributes, mini_kb, config)
        }
        for a in attributes:
            r = competitors.link(a)
            assert (r and (r.entity, float.hex(r.score))) == expected.get(a)
            self._assert_window_weights(competitors, a, tau)

    @given(
        record=records(),
        tau=st.floats(0.01, 1e3),
        penalty=st.sampled_from((0.0, 0.3, 5.0, 1e18)),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_total_is_the_total_over_every_competitor(
        self, mini_kb, record, tau, penalty
    ):
        sentences, mentions = record
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True, tau=tau,
                                boundary_penalty=penalty)
        competitors = _Competitors(sentences, mentions, mini_kb, config, None)
        for a in (a for s in sentences for a in extract_attributes(s, mini_kb)):
            self._assert_window_weights(competitors, a, tau)

    def test_window_leaves_out_a_weight_behind_that_rounds_away(self, mini_kb):
        # ECG holds the attribute (distance 0); blood pressure lies ahead at
        # distance 9 and behind at 6.  Under tau 0.1 the window keeps
        # exp(-90) ahead, added before the 1.0, and leaves out exp(-60)
        # behind, not 0.0 but below 2**-53
        text = "Blood pressure was taken. ECG 140/90 mmHg. Blood pressure again."
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True, tau=0.1)
        sentences, mentions, (a,) = _front_end(text, mini_kb)
        competitors = _Competitors(sentences, mentions, mini_kb, config, None)
        assert oracles.competitors_of(competitors, a)[1] == [9.0, 0.0, 6.0]
        left, right = competitors._position(a)
        lo, hi, others = competitors._span(a)
        _, distances = competitors._local(a, lo, hi, others)
        assert competitors._window(1.0, left, right, lo, hi, distances) == ([math.exp(-90)], [])
        self._assert_window_weights(competitors, a, 0.1)
        assert _relation_rows(text, mini_kb, config) == _oracle_rows(text, mini_kb, config)

    @staticmethod
    def _assert_window_weights(competitors, a, tau):
        # the window's inline distances weigh every mention as _ahead and
        # _behind do; the mentions left out weigh 0.0 ahead and less than
        # 2**-53 behind, so the window's total is every competitor's
        lo, hi, others = competitors._span(a)
        local, distances = competitors._local(a, lo, hi, others)
        if not others:
            return
        left, right = competitors._position(a)
        ahead, behind = competitors._window(a.sentence_index, left, right, lo, hi, distances)
        _, every = oracles.competitors_of(competitors, a)
        weights = softmin_weights(every, tau)
        first, mid, last = lo - len(ahead), lo + len(local), lo + len(local) + len(behind)
        assert weights[:first] == [0.0] * first
        assert weights[first:lo] == ahead
        assert weights[mid:last] == behind
        assert all(w < 2.0**-53 for w in weights[last:])
        window = chain(ahead, weights[lo:mid], behind)
        assert float.hex(left_sum(window)) == float.hex(left_sum(weights))


class TestSharedPSup:
    """Under cross-sentence linking, attributes of one signature share one
    ``p_sup``; an attribute inside an entity span computes its own."""

    # "Resting" lies inside "Resting heart rate"; "12-lead" is a qualifier
    # of the same signature outside any entity
    TEXT = "Resting heart rate 60-100 bpm. ECG 12-lead, blood pressure 140/90 mmHg."

    def test_held_attribute_neither_reads_nor_writes_the_shared_p_sup(self, held_kb):
        sentences, mentions, attributes = _front_end(self.TEXT, held_kb)
        held, free = (a for a in attributes if a.kind is AttributeKind.QUALIFIER)
        assert (held.surface, free.surface) == ("Resting", "12-lead")
        expected = {
            r.attribute: (r.entity, float.hex(r.score))
            for r in oracles.link(sentences, mentions, attributes, held_kb, CROSS_CONFIG)
        }
        competitors = _Competitors(sentences, mentions, held_kb, CROSS_CONFIG, None)

        def link(a):
            r = competitors.link(a)
            return r.entity, float.hex(r.score)

        assert link(held) == expected[held]
        assert competitors._sup_by_signature == {}
        assert link(free) == expected[free]
        assert len(competitors._sup_by_signature) == 1
        assert link(held) == expected[held]

    def test_compatibility_scored_once_per_signature_and_concept(
        self, held_kb, monkeypatch
    ):
        scored = []

        def counting(entry, attribute, *rest):
            scored.append(attribute)
            return compatibility_terms(entry, attribute, *rest)

        monkeypatch.setattr(linker, "compatibility_terms", counting)
        record = annotate_record("r", JOINED_CORPUS, held_kb, CROSS_CONFIG)
        assert record.relations
        sentences, mentions, attributes = _front_end(JOINED_CORPUS, held_kb)
        held = [
            a for a in attributes
            if any(e.sentence_index == a.sentence_index and e.start <= a.start
                   and a.end <= e.end for e in mentions)
        ]
        signatures = {
            (attribute_shape(a), a.unit, a.values) for a in attributes if a not in held
        }
        concepts = {m.concept_id for m in mentions}
        assert held
        assert len(scored) <= (len(signatures) + len(held)) * len(concepts)


# Arbitrary Unicode mixed with the clinical vocabulary the pipeline reacts to.
FUZZ_TEXT = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(TIE_ENTITIES + TIE_ATTRIBUTES + TIE_FILLER + (
            "(", ")", "BP (blood pressure)", "e.g.", "Dr.", "1,000 mg", "3x", "-5",
        )),
    ),
    max_size=16,
).map(" ".join)


def _assert_disjoint(items):
    spans = sorted((item["start"], item["end"]) for item in items)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start


class TestFuzz:
    @given(text=FUZZ_TEXT, mode=st.sampled_from(tuple(SplitMode)), cross_sentence=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_annotate_record_invariants(self, mini_kb, text, mode, cross_sentence):
        config = PipelineConfig(mode=mode, cross_sentence=cross_sentence)
        try:
            record = annotate_record("r", text, mini_kb, config)
        except CritexError:
            return
        ext = record.extended
        for item in ext["entities"] + ext["attributes"]:
            assert text[item["start"] : item["end"]] == item["surface"]
        _assert_disjoint(ext["entities"])
        _assert_disjoint(ext["attributes"])
        assert all(0.0 <= score <= 1.0 for score in ext["scores"])
        # each attribute is linked once, in attribute order, or unlinked
        linked = [r["attribute"] for r in ext["relations"]]
        assert linked == sorted(set(linked))
        unlinked = [i for i, a in enumerate(ext["attributes"]) if a in ext["unlinked_attributes"]]
        assert ext["unlinked_attributes"] == [ext["attributes"][i] for i in unlinked]
        assert sorted(linked + unlinked) == list(range(len(ext["attributes"])))
        for pair, r in zip(record.relations, ext["relations"], strict=True):
            assert pair.entity == ext["entities"][r["entity"]]["surface"]
            assert pair.attribute == ext["attributes"][r["attribute"]]["surface"]
        assert ext["scores"] == [r["score"] for r in ext["relations"]]
        again = annotate_record("r", text, mini_kb, config)
        assert to_json(again, extended=True) == to_json(record, extended=True)


JOINED_CORPUS = " ".join(
    p.read_text(encoding="utf-8").strip() for p in sorted(mini_corpus_dir().glob("*.txt"))
)


class TestPinnedOutput:
    """Pinned sha256 of ``annotate --mode paragraphs --cross-sentence
    --extended`` stdout: the cross-sentence fast paths must reproduce the
    loop-based output byte for byte.
    """

    ARGS = ("annotate", "--kb", str(bundled_kb_path()), "--mode", "paragraphs",
            "--cross-sentence", "--extended")

    def _digest(self, capsys, path):
        assert main([*self.ARGS, str(path)]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    def test_bundled_corpus(self, capsys):
        assert self._digest(capsys, mini_corpus_dir()) == (
            "79eacb9554c945c589c750418668f8a101322061ab3899c2cfe7c29d4bbf8fec"
        )

    def test_corpus_joined_into_one_record(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(JOINED_CORPUS, encoding="utf-8")
        assert self._digest(capsys, path) == (
            "f475cb4b379a63ef30f04b75bea17ec07047dae9ea6dc6d0d7c4adb94536d531"
        )

    def test_relation_rows_over_a_config_grid(self, mini_kb):
        # the linker's settings on the joined corpus: a tau that zeroes
        # most far weights, the default and one that zeroes none, both
        # mixture endpoints and the middle, with and without a penalty
        digest = hashlib.sha256()
        for mode in SplitMode:
            for tau in (0.01, 2.0, 50.0):
                for theta in (0.0, 0.5, 1.0):
                    for penalty in (0.0, 5.0):
                        config = PipelineConfig(mode=mode, cross_sentence=True, tau=tau,
                                                theta=theta, boundary_penalty=penalty)
                        rows = _relation_rows(JOINED_CORPUS, mini_kb, config)
                        digest.update(repr(rows).encode("utf-8"))
        assert digest.hexdigest() == (
            "d4c60801201d8bee0a9b46a0433f3eea111214555523c5c5bc881f43fd378777"
        )

    def test_long_record_over_a_config_grid(self, mini_kb):
        # the joined corpus ten times over (16,729 chars), where few
        # competitors are local: 77-83% of the pairs weigh exactly 0.0 under
        # tau 0.5, 27-41% under the default 2.0 and none under 50
        text = " ".join([JOINED_CORPUS] * 10)
        digest = hashlib.sha256()
        for tau in (0.5, 2.0, 50.0):
            for penalty in (0.0, 0.3, 5.0):
                for theta in (0.0, 0.5):
                    config = PipelineConfig(mode=SplitMode.PARAGRAPHS, cross_sentence=True,
                                            tau=tau, theta=theta, boundary_penalty=penalty)
                    record = annotate_record("r", text, mini_kb, config)
                    digest.update(to_json(record, extended=True).encode("utf-8"))
        assert digest.hexdigest() == (
            "0bbf4efeae8b413dd632ca237cefd7b6d9329c8ed1057156a46b626aadb74bc8"
        )
