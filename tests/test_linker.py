"""Competitor selection, the theta mixture, and per-attribute assignment.

One routine links an attribute, ``_Competitors.link``; the tests here
drive its steps one at a time: ``oracles.competitors_of`` (which entities
compete for an attribute, at what distance), ``_p_sup``, ``_mix`` and
``_pick``, and check ``link`` against them.  The property tests of the mixture and
the tie-break draw random scores and distances for each attribute's
competitors and hand them to ``_mix`` and ``_pick`` attribute by attribute;
they hold them in the ``RelationCandidate`` objects of the test oracles.
End-to-end equivalence with the oracle chain is in ``test_pipeline.py``.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from critex.attributes import AttributeKind, AttributeMention, Comparator
from critex.entities import EntityMention
from critex.kb import Category, CompatibilityWeights, KbEntry, KnowledgeBase, ValuePattern
from critex import linker
from critex.linker import _Competitors, _first_weighted, _mix, _p_sup, _pick, relation_label
from critex.pipeline import PipelineConfig
from critex.segmentation import SplitMode, split_records
from conftest import softmin_p_dep
from oracles import RelationCandidate, generate_candidates

# Two sentences of plain tokens; the mentions below only need sentence
# indexes that exist, their offsets need not match these tokens.
SENTENCES = split_records(" ".join(["w"] * 40) + "\n" + " ".join(["w"] * 40), SplitMode.LINES)


def make_entity(i, sentence=0, start=None):
    start = 10 * i if start is None else start
    return EntityMention(
        sentence_index=sentence,
        start=start,
        end=start + 4,
        surface=f"e{i}",
        concept_id=f"LOCAL:e{i}",
        matched_term=f"e{i}",
    )


def make_attr(j, sentence=0, start=None, kind=AttributeKind.RANGE):
    start = 100 + 10 * j if start is None else start
    values = {"RANGE": (1, 2), "RATIO": (1, 2), "QUALIFIER": ()}.get(kind.name, (1,))
    comparator = Comparator.LE if kind is AttributeKind.COMPARISON else None
    return AttributeMention(
        sentence_index=sentence,
        start=start,
        end=start + 5,
        surface=f"a{j}",
        kind=kind,
        comparator=comparator,
        values=values,
    )


def sup_list(attribute, concepts, kb, weights=CompatibilityWeights()):
    """``_p_sup`` of each competitor, in order."""

    sup = _p_sup(attribute, concepts, kb, weights)
    return [sup[c] for c in concepts]


def competing_pairs(entities, attributes, cross_sentence=False):
    """(entity, attribute) pairs that compete, attribute-major, as the pipeline selects them."""

    config = PipelineConfig(cross_sentence=cross_sentence)
    competitors = _Competitors(SENTENCES, entities, KnowledgeBase(()), config, None)
    return [(e, a) for a in attributes
            for e in oracles.competitors_of(competitors, a)[0]]


class TestGenerateCandidates:
    def test_cross_product_size(self):
        entities = [make_entity(i) for i in range(4)]
        attributes = [make_attr(j) for j in range(4)]
        assert len(competing_pairs(entities, attributes, cross_sentence=True)) == 16

    def test_empty_attributes(self):
        entities = [make_entity(0)]
        assert competing_pairs(entities, []) == []

    def test_same_sentence_only_splits_pairs(self):
        # hand count: 2 entities and 2 attributes per sentence -> 4 + 4,
        # not 16
        entities = [make_entity(0, 0), make_entity(1, 0),
                    make_entity(2, 1), make_entity(3, 1)]
        attributes = [make_attr(0, 0), make_attr(1, 0),
                      make_attr(2, 1), make_attr(3, 1)]
        restricted = competing_pairs(entities, attributes)
        assert len(restricted) == 8
        assert all(e.sentence_index == a.sentence_index for e, a in restricted)
        unrestricted = competing_pairs(entities, attributes, cross_sentence=True)
        assert len(unrestricted) == 16

    def test_attribute_inside_entity_excluded(self):
        e = EntityMention(0, 0, 30, "long entity", "LOCAL:e", "long entity")
        inside = make_attr(0, start=5)
        outside = make_attr(1, start=40)
        for cross_sentence in (False, True):
            pairs = competing_pairs([e], [inside, outside], cross_sentence)
            assert len(pairs) == 1
            assert pairs[0][1] is outside


class TestPSup:
    KB = KnowledgeBase([
        KbEntry(concept_id="LOCAL:e0", preferred_term="blood pressure",
                expected_units=("mmHg",), value_min=40, value_max=300,
                value_pattern=ValuePattern.RATIO, category=Category.MEASUREMENT),
        KbEntry(concept_id="LOCAL:e1", preferred_term="ECG",
                category=Category.PROCEDURE),
    ])

    PAIR = ["LOCAL:e0", "LOCAL:e1"]

    def test_matching_unit_dominates(self):
        ratio = AttributeMention(
            0, 100, 111, "140/90 mmHg", AttributeKind.RATIO,
            values=(140, 90), unit="mmHg",
        )
        probs = sup_list(ratio, self.PAIR, self.KB)
        assert probs[0] > 0.5 > probs[1]
        assert sum(probs) == pytest.approx(1.0)

    def test_single_entity_gets_one(self):
        probs = sup_list(make_attr(0), ["LOCAL:e0"], self.KB)
        assert probs == [1.0]

    def test_neutral_equal_compatibilities_split_evenly(self):
        kb = KnowledgeBase([
            KbEntry(concept_id="LOCAL:e0", preferred_term="a"),
            KbEntry(concept_id="LOCAL:e1", preferred_term="b"),
        ])
        qualifier = make_attr(0, kind=AttributeKind.QUALIFIER)
        assert sup_list(qualifier, self.PAIR, kb) == pytest.approx([0.5, 0.5])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_candidate_oracle(self, seed):
        # concepts repeat across candidates, as when many mentions of one
        # concept compete for an attribute
        rng = random.Random(seed)
        kb = KnowledgeBase([
            KbEntry(concept_id="LOCAL:e0", preferred_term="a",
                    expected_units=("mmHg",), value_min=40, value_max=300,
                    value_pattern=ValuePattern.RATIO),
            KbEntry(concept_id="LOCAL:e1", preferred_term="b"),
            KbEntry(concept_id="LOCAL:e2", preferred_term="c",
                    expected_units=("kg",), value_min=0, value_max=1,
                    value_pattern=ValuePattern.SCALAR),
            KbEntry(concept_id="LOCAL:e3", preferred_term="d",
                    value_pattern=ValuePattern.ANY),
        ])
        attribute = rng.choice([
            AttributeMention(0, 100, 111, "140/90 mmHg", AttributeKind.RATIO,
                             values=(140, 90), unit="mmHg"),
            AttributeMention(0, 100, 105, "5 kg", AttributeKind.COMPARISON,
                             comparator=Comparator.LE, values=(5,), unit="kg"),
            make_attr(0, kind=AttributeKind.QUALIFIER),
            make_attr(0),
        ])
        group = [
            RelationCandidate(
                entity=make_entity(rng.randrange(4), start=10 * n), attribute=attribute
            )
            for n in range(rng.randint(1, 8))
        ]
        concepts = [c.entity.concept_id for c in group]
        assert sup_list(attribute, concepts, kb) == oracles.p_sup(group, kb)


class TestLinkAttribute:
    RATIO = AttributeMention(
        0, 100, 111, "140/90 mmHg", AttributeKind.RATIO, values=(140, 90), unit="mmHg"
    )

    def test_reads_every_setting_from_the_pipeline_config(self):
        # the sentence's last four tokens lie between e0 and the attribute,
        # none between e1 and the attribute
        entities = [make_entity(0, start=68), make_entity(1, start=80)]
        distances = [4.0, 0.0]
        for theta, tau, weights in (
            (0.0, 0.5, CompatibilityWeights()),
            (0.3, 2.0, CompatibilityWeights(0.5, 0.3, 0.2)),
            (1.0, 8.0, CompatibilityWeights(0.4, 0.35, 0.25)),
        ):
            config = PipelineConfig(theta=theta, tau=tau, weights=weights, min_score=0.0)
            competitors = _Competitors(SENTENCES, entities, TestPSup.KB, config, None)
            assert oracles.competitors_of(competitors, self.RATIO) == (
                entities, distances
            )
            relation = competitors.link(self.RATIO)
            sup = sup_list(self.RATIO, TestPSup.PAIR, TestPSup.KB, weights)
            scores = _mix(sup, softmin_p_dep(distances, tau), theta, 1.0)
            assert relation.score == max(scores)
            assert relation.entity is entities[scores.index(max(scores))]


class TestMix:
    def test_theta_zero_is_pure_syntax(self):
        assert _mix([0.9], [0.3], 0.0, 1.0) == [0.3]

    def test_theta_one_is_pure_compatibility(self):
        assert _mix([0.9], [0.3], 1.0, 1.0) == [0.9]

    def test_halfway(self):
        assert _mix([0.9], [0.3], 0.5, 1.0) == pytest.approx([0.6])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(theta=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(min_score=-0.1)


def build_candidates(rng, n_entities, n_attributes):
    """Random same-sentence candidate set with normalized per-attribute signals."""

    entities = [make_entity(i) for i in range(n_entities)]
    attributes = [make_attr(j) for j in range(n_attributes)]
    candidates = generate_candidates(entities, attributes)
    by_attr = {}
    for c in candidates:
        by_attr.setdefault(id(c.attribute), []).append(c)
    for group in by_attr.values():
        sups = [rng.random() for _ in group]
        deps = [rng.random() for _ in group]
        distances = [rng.uniform(0, 12) for _ in group]
        sup_total, dep_total = sum(sups), sum(deps)
        for c, s, d, dist in zip(group, sups, deps, distances):
            c.p_sup = s / sup_total
            c.p_dep = d / dep_total
            c.distance = dist
    return candidates


def _groups(candidates):
    groups = {}
    for c in candidates:
        key = (c.attribute.sentence_index, c.attribute.start, c.attribute.end)
        groups.setdefault(key, []).append(c)
    return [groups[k] for k in sorted(groups)]


def score_all(candidates, config):
    """Mix each attribute's signals with the linker's ``_mix``."""

    for group in _groups(candidates):
        scores = _mix(
            [c.p_sup for c in group], [c.p_dep for c in group], config.theta, 1.0
        )
        for c, score in zip(group, scores):
            c.score = score
    return candidates


def assign(candidates, config):
    """Pick each attribute's winner with the linker's ``_pick``."""

    relations = []
    for group in _groups(candidates):
        relation = _pick(
            group[0].attribute,
            [c.entity for c in group],
            [c.distance for c in group],
            [c.score for c in group],
            config.min_score,
        )
        if relation is not None:
            relations.append(relation)
    return relations


def oracle_assign(candidates, config):
    """Independent per-attribute enumeration of the maximal-score choice."""

    by_attr = {}
    for c in candidates:
        key = (c.attribute.sentence_index, c.attribute.start, c.attribute.end)
        by_attr.setdefault(key, []).append(c)
    chosen = set()
    for key in sorted(by_attr):
        group = by_attr[key]
        best = None
        for c in group:
            if best is None:
                best = c
                continue
            if c.score > best.score:
                best = c
            elif c.score == best.score:
                if c.distance < best.distance:
                    best = c
                elif c.distance == best.distance:
                    gap_c = abs(c.entity.start - c.attribute.start)
                    gap_b = abs(best.entity.start - best.attribute.start)
                    if gap_c < gap_b or (gap_c == gap_b and c.entity.start < best.entity.start):
                        best = c
        if best.score >= config.min_score:
            chosen.add((best.entity.concept_id, key))
    return chosen


def relation_set(relations):
    return {
        (r.entity.concept_id,
         (r.attribute.sentence_index, r.attribute.start, r.attribute.end))
        for r in relations
    }


class TestAssign:
    def test_all_below_threshold(self):
        # two competing entities make every normalized signal, and hence
        # every mixed score, strictly smaller than 1.0
        candidates = build_candidates(random.Random(0), 2, 2)
        config = PipelineConfig(min_score=1.0)
        score_all(candidates, config)
        assert assign(candidates, config) == []

    def test_every_attribute_at_most_once(self):
        rng = random.Random(1)
        config = PipelineConfig()
        candidates = score_all(build_candidates(rng, 3, 3), config)
        relations = assign(candidates, config)
        attrs = [(r.attribute.start, r.attribute.end) for r in relations]
        assert len(attrs) == len(set(attrs))

    def test_entity_may_win_multiple_attributes(self):
        entities = [make_entity(0)]
        attributes = [make_attr(0), make_attr(1)]
        config = PipelineConfig()
        candidates = generate_candidates(entities, attributes)
        for c in candidates:
            c.p_sup = c.p_dep = 1.0
            c.distance = 1.0
        score_all(candidates, config)
        relations = assign(candidates, config)
        assert len(relations) == 2
        assert all(r.entity.concept_id == "LOCAL:e0" for r in relations)

    def test_tie_breaks_by_distance_then_offset(self):
        config = PipelineConfig()
        attribute = make_attr(0)
        near = make_entity(0, start=90)
        far = make_entity(1, start=0)
        candidates = generate_candidates([far, near], [attribute])
        for c in candidates:
            c.p_sup = c.p_dep = 0.5
            c.score = 0.5
        candidates[0].distance = 3.0  # far
        candidates[1].distance = 1.0  # near
        relations = assign(candidates, config)
        assert relations[0].entity is near

    def test_labels_follow_attribute_kind(self):
        assert relation_label(make_attr(0, kind=AttributeKind.RANGE)) == "has_value"
        assert relation_label(make_attr(0, kind=AttributeKind.QUALIFIER)) == "has_qualifier"
        temporal = AttributeMention(
            0, 0, 5, "a", AttributeKind.TEMPORAL,
            comparator=Comparator.LE, values=(3,),
        )
        assert relation_label(temporal) == "has_temporal"

    def test_scores_within_bounds(self):
        rng = random.Random(2)
        config = PipelineConfig()
        for _ in range(50):
            candidates = score_all(build_candidates(rng, 3, 3), config)
            for r in assign(candidates, config):
                assert config.min_score <= r.score <= 1.0


class TestAssignOracle:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_group_then_pick(self, seed):
        # few distinct scores, distances and offsets, so every tie-break
        # rule of _beats decides some groups
        rng = random.Random(seed)
        entities = [
            make_entity(i, sentence=rng.randrange(3), start=rng.choice((0, 10, 90, 120)))
            for i in range(rng.randint(1, 5))
        ]
        attributes = [make_attr(j, sentence=rng.randrange(3)) for j in range(rng.randint(1, 4))]
        candidates = generate_candidates(entities, attributes, same_sentence_only=False)
        rng.shuffle(candidates)
        for c in candidates:
            c.score = rng.choice((0.1, 0.3, 0.5))
            c.distance = rng.choice((1.0, 2.0))
        config = PipelineConfig(min_score=rng.choice((0.0, 0.2, 0.4)))
        relations = assign(candidates, config)
        expected = oracles.assign(candidates, config)
        assert relations == expected
        for r, o in zip(relations, expected):
            assert r.entity is o.entity and r.attribute is o.attribute


class TestMixtureProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_endpoint_equivalence(self, seed):
        rng = random.Random(seed)
        candidates = build_candidates(rng, rng.randint(1, 4), rng.randint(1, 4))
        pure_dep = PipelineConfig(theta=0.0, min_score=0.0)
        pure_sup = PipelineConfig(theta=1.0, min_score=0.0)
        dep_rel = relation_set(assign(score_all(candidates, pure_dep), pure_dep))
        by_dep = {}
        for c in candidates:
            key = (c.attribute.sentence_index, c.attribute.start, c.attribute.end)
            cur = by_dep.get(key)
            if cur is None or c.p_dep > cur.p_dep:
                by_dep[key] = c
        expected = {(c.entity.concept_id, k) for k, c in by_dep.items()}
        # ties on p_dep are broken by distance in assign; random floats make
        # exact ties vanishingly rare, so the argmax sets must agree
        assert dep_rel == expected

        sup_rel = relation_set(assign(score_all(candidates, pure_sup), pure_sup))
        by_sup = {}
        for c in candidates:
            key = (c.attribute.sentence_index, c.attribute.start, c.attribute.end)
            cur = by_sup.get(key)
            if cur is None or c.p_sup > cur.p_sup:
                by_sup[key] = c
        assert sup_rel == {(c.entity.concept_id, k) for k, c in by_sup.items()}

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_agreement_theta_invariance(self, seed):
        rng = random.Random(seed)
        candidates = build_candidates(rng, rng.randint(2, 4), rng.randint(1, 3))
        # force agreement: make p_sup order equal p_dep order per attribute
        by_attr = {}
        for c in candidates:
            by_attr.setdefault((c.attribute.start, c.attribute.end), []).append(c)
        for group in by_attr.values():
            group.sort(key=lambda c: c.p_dep)
            sups = sorted(c.p_sup for c in group)
            for c, s in zip(group, sups):
                c.p_sup = s
        reference = None
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            config = PipelineConfig(theta=theta, min_score=0.0)
            result = relation_set(assign(score_all(candidates, config), config))
            if reference is None:
                reference = result
            assert result == reference

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence_small_sentences(self, seed):
        rng = random.Random(seed)
        candidates = build_candidates(rng, rng.randint(1, 3), rng.randint(1, 3))
        config = PipelineConfig(theta=rng.random(), min_score=rng.uniform(0, 0.6))
        score_all(candidates, config)
        assert relation_set(assign(candidates, config)) == oracle_assign(
            candidates, config
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_generator_signals_are_normalized(self, seed):
        # sanity of the property-test generator itself: the other tests in
        # this class assume per-attribute distributions
        rng = random.Random(seed)
        candidates = build_candidates(rng, rng.randint(1, 5), rng.randint(1, 4))
        by_attr = {}
        for c in candidates:
            by_attr.setdefault((c.attribute.start, c.attribute.end), []).append(c)
        for group in by_attr.values():
            assert sum(c.p_dep for c in group) == pytest.approx(1.0, abs=1e-9)
            assert sum(c.p_sup for c in group) == pytest.approx(1.0, abs=1e-9)


class TestFirstWeighted:
    """The window's bisection finds the first weight a linear scan finds:
    ahead the first that is not 0.0, behind the first of at least 2**-53."""

    HALF_ULP = 2.0**-53

    CUTS = (
        (linker._NONZERO, lambda w: w != 0.0),
        (linker._NOT_ABSORBED, lambda w: w >= 2.0**-53),
    )

    @staticmethod
    def _scan(weights, kept):
        return next((i for i, w in enumerate(weights) if kept(w)), len(weights))

    @given(
        gaps=st.lists(st.floats(0.0, 2e3), max_size=30),
        tau=st.floats(0.01, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_a_linear_scan(self, gaps, tau):
        # distances that do not increase, d_min the last; weights as _window
        # computes them
        distances = sorted(gaps, reverse=True)
        d_min = min(distances, default=0.0)
        weight = lambda i: math.exp(-(distances[i] - d_min) / tau)
        weights = [weight(i) for i in range(len(distances))]
        for floor, kept in self.CUTS:
            assert _first_weighted(weight, len(weights), floor) == self._scan(weights, kept)

    @pytest.mark.parametrize("weights, ahead, behind", [
        ([], 0, 0),
        ([0.0, 0.0], 2, 2),
        ([0.0, 1e-300, HALF_ULP, 1.0], 1, 2),
        ([0.0, math.ulp(0.0), math.nextafter(HALF_ULP, 0.0), HALF_ULP], 1, 3),
        ([0.0, 1e-20, 1e-17], 1, 3),
        ([HALF_ULP, 1.0], 0, 0),
    ])
    def test_a_weight_of_exactly_half_an_ulp_of_one_is_kept(self, weights, ahead, behind):
        # a distance whose weight is exactly 2**-53 need not exist (glibc's
        # exp() returns it for no float near 53 ln 2), so the weights are
        # given as they are
        for (floor, kept), expected in zip(self.CUTS, (ahead, behind)):
            assert self._scan(weights, kept) == expected
            assert _first_weighted(weights.__getitem__, len(weights), floor) == expected
