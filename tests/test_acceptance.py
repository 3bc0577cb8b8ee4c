"""Acceptance suite.

One test per criterion, each printing a PASS line once its assertions and
runtime budget hold.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import json
import random
import time

import pytest

from critex.attributes import AttributeKind, AttributeMention, Comparator, attribute_shape
from critex.cli import main
from critex.io_eval import ElementType, MatchMode, evaluate, read_brat_dir, read_corpus
from critex.kb import DEFAULT_WEIGHTS, compatibility_terms, load_kb
from critex.pipeline import PipelineConfig, annotate_record
from critex.resources import bundled_kb_path, mini_corpus_dir
from critex.segmentation import SplitMode

from conftest import PARAGRAPH_TWO, softmin_p_dep
from test_linker import assign, build_candidates, oracle_assign, relation_set, score_all


def _report(number, name, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def kb():
    return load_kb(bundled_kb_path())


def test_criterion_1_fig2_paragraph_reproduction(kb, capsys, tmp_path):
    """The cocaine/ECG reference paragraph yields exactly the four target relations."""

    started = time.perf_counter()
    record_file = tmp_path / "1.txt"
    record_file.write_text(PARAGRAPH_TWO, encoding="utf-8")
    code = main([
        "annotate", "--kb", str(bundled_kb_path()), "--mode", "paragraphs",
        str(record_file),
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)

    # structure, key for key
    assert list(doc.keys()) == ["result"]
    assert list(doc["result"].keys()) == ["id", "text", "relation"]
    for relation in doc["result"]["relation"]:
        assert list(relation.keys()) == ["entity", "attribute"]
    assert doc["result"]["text"] == PARAGRAPH_TWO

    assert doc["result"]["relation"] == [
        {"entity": "ages", "attribute": "21-45"},
        {"entity": "cocaine",
         "attribute": "at least twice a week for the past six months"},
        {"entity": "ECG", "attribute": "12-lead"},
        {"entity": "blood pressure", "attribute": "140/90 mmHg"},
    ]
    assert time.perf_counter() - started < 1.0
    _report(1, "paragraph reproduction", started)


def test_criterion_2_single_criterion_reproduction(kb):
    """The BMI criterion yields the expected entity, payload and label."""

    started = time.perf_counter()
    record = annotate_record("bmi", "Body Mass Index ≤ 40 kg/m^2", kb)
    assert [(p.entity, p.attribute) for p in record.relations] == [
        ("Body Mass Index", "≤ 40 kg/m^2")
    ]
    ext = record.extended
    assert ext["entities"][0]["surface"] == "Body Mass Index"
    attribute = ext["attributes"][0]
    assert attribute["comparator"] == "LE"
    assert attribute["values"] == [40]
    assert attribute["unit"] == "kg/m^2"
    assert ext["relations"][0]["label"] == "has_value"
    assert time.perf_counter() - started < 1.0
    _report(2, "single criterion reproduction", started)


def test_criterion_3_unit_dominance(kb):
    """mmHg evidence must dominate for blood pressure."""

    started = time.perf_counter()
    bp = [e for e, _ in kb.lookup_terms("blood pressure")][0]

    def ratio(values, unit):
        return AttributeMention(
            0, 0, 10, "x", AttributeKind.RATIO, values=values, unit=unit,
        )

    def compatibility(attribute):
        return compatibility_terms(bp, attribute, attribute_shape(attribute))[0]

    mmhg = compatibility(ratio((115, 75), "mmHg"))
    bare_range = compatibility(
        AttributeMention(0, 0, 5, "11-25", AttributeKind.RANGE, values=(11, 25)),
    )
    assert mmhg > bare_range

    # with both entity kinds present, p_sup must favor blood pressure for
    # the mmHg ratio over the co-occurring non-mmHg entity
    from critex.entities import recognize_entities
    from critex.linker import _p_sup
    from critex.segmentation import split_records

    sentence = split_records(PARAGRAPH_TWO, SplitMode.PARAGRAPHS)[1]
    competing = {m.concept_id for m in recognize_entities(sentence, kb)}
    order = sorted(competing)  # C0005823 (blood pressure) before C0013798 (ECG)
    sup = _p_sup(ratio((140, 90), "mmHg"), order, kb, DEFAULT_WEIGHTS)  # per concept
    probs = [sup[c] for c in order]
    assert order == ["C0005823", "C0013798"]
    assert probs[0] > 0.5 > probs[1]

    record = annotate_record("1", PARAGRAPH_TWO, kb,
                             PipelineConfig(mode=SplitMode.PARAGRAPHS))
    winner = [p.entity for p in record.relations if p.attribute == "140/90 mmHg"]
    assert winner == ["blood pressure"]
    rel = [
        r for r in record.extended["relations"]
        if record.extended["attributes"][r["attribute"]]["surface"] == "140/90 mmHg"
    ][0]
    assert record.extended["entities"][rel["entity"]]["concept_id"] == "C0005823"
    assert time.perf_counter() - started < 1.0
    _report(3, "unit dominance ordering", started)


def test_criterion_4_mixture_endpoints_and_invariance():
    """Endpoints reproduce the pure argmaxes; agreement is theta-invariant."""

    started = time.perf_counter()
    rng = random.Random(20260810)
    cases = 0
    while cases < 1000:
        candidates = build_candidates(rng, rng.randint(1, 4), rng.randint(1, 4))
        cases += 1

        for theta, signal in ((0.0, "p_dep"), (1.0, "p_sup")):
            config = PipelineConfig(theta=theta, min_score=0.0)
            got = relation_set(assign(score_all(candidates, config), config))
            by_attr = {}
            for c in candidates:
                key = (c.attribute.sentence_index, c.attribute.start, c.attribute.end)
                cur = by_attr.get(key)
                if cur is None or getattr(c, signal) > getattr(cur, signal):
                    by_attr[key] = c
            expected = {(c.entity.concept_id, k) for k, c in by_attr.items()}
            assert got == expected, f"theta={theta} diverged from pure argmax"

        # agreement case: align the p_sup ranking with the p_dep ranking
        by_attr = {}
        for c in candidates:
            by_attr.setdefault((c.attribute.start, c.attribute.end), []).append(c)
        for group in by_attr.values():
            group.sort(key=lambda c: c.p_dep)
            for c, s in zip(group, sorted(c.p_sup for c in group)):
                c.p_sup = s
        reference = None
        for theta in (0.0, 0.3, 0.5, 0.7, 1.0):
            config = PipelineConfig(theta=theta, min_score=0.0)
            result = relation_set(assign(score_all(candidates, config), config))
            reference = result if reference is None else reference
            assert result == reference, "agreement case changed with theta"
    assert time.perf_counter() - started < 10.0
    _report(4, f"mixture endpoints over {cases} candidate sets", started)


def test_criterion_5_oracle_equivalence():
    """assign equals brute-force per-attribute enumeration for M,N <= 3."""

    started = time.perf_counter()
    rng = random.Random(42)
    cases = 0
    while cases < 500:
        candidates = build_candidates(rng, rng.randint(1, 3), rng.randint(1, 3))
        config = PipelineConfig(theta=rng.random(), min_score=rng.uniform(0.0, 0.6))
        score_all(candidates, config)
        assert relation_set(assign(candidates, config)) == oracle_assign(
            candidates, config
        )
        cases += 1
    assert time.perf_counter() - started < 30.0
    _report(5, f"oracle equivalence over {cases} cases", started)


def test_criterion_6_probability_normalization(kb):
    """p_dep and p_sup each sum to 1 within 1e-9 per attribute."""

    started = time.perf_counter()
    from critex.linker import _p_sup

    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 6)
        distances = [rng.uniform(0.0, 30.0) for _ in range(n)]
        probs = softmin_p_dep(distances, tau=rng.uniform(0.5, 5.0))
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(p >= 0 for p in probs)

    concepts = [e.concept_id for e in kb.entries]
    attribute_pool = [
        AttributeMention(0, 50, 61, "140/90 mmHg", AttributeKind.RATIO,
                         values=(140, 90), unit="mmHg"),
        AttributeMention(0, 50, 55, "21-45", AttributeKind.RANGE, values=(21, 45)),
        AttributeMention(0, 50, 57, "≤ 40 kg/m^2", AttributeKind.COMPARISON,
                         comparator=Comparator.LE, values=(40,), unit="kg/m^2"),
        AttributeMention(0, 50, 57, "12-lead", AttributeKind.QUALIFIER),
        AttributeMention(0, 50, 67, "within three days", AttributeKind.TEMPORAL,
                         comparator=Comparator.LE, values=(3,)),
    ]
    for _ in range(500):
        attribute = rng.choice(attribute_pool)
        chosen = rng.sample(concepts, rng.randint(1, 5))
        sup = _p_sup(attribute, chosen, kb, DEFAULT_WEIGHTS)  # p_sup per concept
        probs = [sup[c] for c in chosen]
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(p >= 0 for p in probs)
    _report(6, "probability normalization", started)


def test_criterion_7_evaluation_self_consistency(kb):
    """evaluate(x, x) is perfect; count identities and mode monotonicity hold."""

    started = time.perf_counter()
    config = PipelineConfig(mode=SplitMode.PARAGRAPHS)
    records = sorted(read_corpus(mini_corpus_dir()), key=lambda r: r[0])
    predictions = [annotate_record(rid, text, kb, config) for rid, text in records]
    gold = read_brat_dir(mini_corpus_dir())

    # reflexivity: compare the gold annotations against themselves by
    # converting them into prediction-shaped records
    from critex.io_eval import StructuredRecord

    def as_prediction(g):
        entities = [
            {"surface": s.surface, "start": s.start, "end": s.end,
             "concept_id": "GOLD", "matched_term": s.surface, "sentence_index": 0}
            for s in g.entities
        ]
        attributes = [
            {"surface": s.surface, "start": s.start, "end": s.end,
             "kind": "COMPARISON", "comparator": None, "values": [],
             "unit": None, "time_unit": None, "anchor": None, "sentence_index": 0}
            for s in g.attributes
        ]
        entity_pos = {s.ref: i for i, s in enumerate(g.entities)}
        attr_pos = {s.ref: i for i, s in enumerate(g.attributes)}
        relations = [
            {"entity": entity_pos[r.entity.ref], "attribute": attr_pos[r.attribute.ref],
             "label": r.label, "score": 1.0}
            for r in g.relations
        ]
        return StructuredRecord(
            id=g.record_id, text=g.text, relations=[],
            extended={"entities": entities, "attributes": attributes,
                      "relations": relations, "scores": [1.0] * len(relations),
                      "unlinked_attributes": []},
        )

    reflexive = evaluate([as_prediction(g) for g in gold], gold)
    for etype in ElementType:
        for mode in MatchMode:
            assert reflexive.counts(etype, mode).f1 == 1.0

    report = evaluate(predictions, gold)
    n_gold = {
        ElementType.ENTITY: sum(len(g.entities) for g in gold),
        ElementType.ATTRIBUTE: sum(len(g.attributes) for g in gold),
        ElementType.RELATION: sum(len(g.relations) for g in gold),
    }
    n_pred = {
        ElementType.ENTITY: sum(len(p.extended["entities"]) for p in predictions),
        ElementType.ATTRIBUTE: sum(len(p.extended["attributes"]) for p in predictions),
        ElementType.RELATION: sum(len(p.extended["relations"]) for p in predictions),
    }
    for etype in ElementType:
        exact = report.counts(etype, MatchMode.EXACT)
        overlap = report.counts(etype, MatchMode.OVERLAP)
        for c in (exact, overlap):
            assert c.tp + c.fp == n_pred[etype]
            assert c.tp + c.fn == n_gold[etype]
        assert exact.tp <= overlap.tp
    _report(7, "evaluation self-consistency", started)


def test_criterion_8_mini_corpus_relation_f1(kb):
    """Relation F1 on the bundled gold corpus reaches 0.80 in OVERLAP mode."""

    started = time.perf_counter()
    config = PipelineConfig(mode=SplitMode.PARAGRAPHS)
    records = sorted(read_corpus(mini_corpus_dir()), key=lambda r: r[0])
    assert len(records) == 20
    predictions = [annotate_record(rid, text, kb, config) for rid, text in records]
    gold = read_brat_dir(mini_corpus_dir())
    report = evaluate(predictions, gold, mode=MatchMode.OVERLAP)
    counts = report.counts(ElementType.RELATION, MatchMode.OVERLAP)
    # fixture metrics fixed during corpus authoring: tp=27, fp=3, fn=2
    assert (counts.tp, counts.fp, counts.fn) == (27, 3, 2)
    assert counts.f1 >= 0.80
    assert time.perf_counter() - started < 5.0
    _report(8, f"mini-corpus relation F1 {counts.f1:.3f}", started)


def test_criterion_9_determinism(capsys):
    """Repeated runs over the corpus are byte-identical, with any --jobs."""

    started = time.perf_counter()
    argv = [
        "annotate", "--mode", "paragraphs", "--format", "jsonl", "--extended",
        str(mini_corpus_dir()),
    ]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert main(list(argv) + ["--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert first.encode() == second.encode()
    assert first.encode() == parallel.encode()
    _report(9, "byte-identical determinism", started)
