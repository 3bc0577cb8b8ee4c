"""Output serialization, Brat gold parsing, and the evaluation metrics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from critex import io_eval
from critex.errors import (
    DanglingRef,
    MalformedAnn,
    MalformedJsonl,
    MalformedPrediction,
    RecordMismatch,
    SpanMismatch,
)
from critex.io_eval import (
    ElementType,
    GoldAnnotation,
    GoldRelation,
    GoldSpan,
    MatchMode,
    RelationPair,
    StructuredRecord,
    evaluate,
    extended_problem,
    from_json,
    read_brat,
    read_corpus,
    to_json,
)

FIG_TEXT = "Body Mass Index ≤ 40 kg/m^2"


def extended_record(record_id, text, entities, attributes, relations):
    """Build a prediction record; spans are record-level offsets."""

    return StructuredRecord(
        id=record_id,
        text=text,
        relations=[
            RelationPair(
                entity=entities[e][0],
                attribute=attributes[a][0],
            )
            for e, a, _ in relations
        ],
        extended={
            "entities": [
                {"surface": s, "start": b, "end": e, "concept_id": "LOCAL:x",
                 "matched_term": s, "sentence_index": 0}
                for s, b, e in entities
            ],
            "attributes": [
                {"surface": s, "start": b, "end": e, "kind": "COMPARISON",
                 "comparator": "LE", "values": [1], "unit": None,
                 "time_unit": None, "anchor": None, "sentence_index": 0}
                for s, b, e in attributes
            ],
            "relations": [
                {"entity": e, "attribute": a, "label": label, "score": 1.0}
                for e, a, label in relations
            ],
            "scores": [1.0 for _ in relations],
            "unlinked_attributes": [],
        },
    )


def gold_of(record_id, text, entities, attributes, relations):
    entity_spans = [
        GoldSpan(f"T{i + 1}", "Entity", b, e, s) for i, (s, b, e) in enumerate(entities)
    ]
    offset = len(entities)
    attr_spans = [
        GoldSpan(f"T{offset + j + 1}", "Value", b, e, s)
        for j, (s, b, e) in enumerate(attributes)
    ]
    rels = [
        GoldRelation(f"R{k + 1}", label, entity_spans[e], attr_spans[a])
        for k, (e, a, label) in enumerate(relations)
    ]
    return GoldAnnotation(
        record_id=record_id, text=text,
        entities=entity_spans, attributes=attr_spans, relations=rels,
    )


class TestToJson:
    def test_compact_shape_and_key_order(self):
        record = StructuredRecord(
            id="1", text="t",
            relations=[RelationPair(entity="ages", attribute="21-45")],
        )
        text = to_json(record)
        assert text == (
            '{"result": {"id": "1", "text": "t", '
            '"relation": [{"entity": "ages", "attribute": "21-45"}]}}'
        )

    def test_zero_relations(self):
        record = StructuredRecord(id="x", text="nothing here")
        doc = json.loads(to_json(record))
        assert doc["result"]["relation"] == []
        assert list(doc["result"].keys()) == ["id", "text", "relation"]

    def test_extended_key_comes_after_relation(self):
        record = StructuredRecord(id="x", text="t")
        doc = json.loads(to_json(record, extended=True))
        assert list(doc["result"].keys()) == ["id", "text", "relation", "extended"]

    def test_round_trip(self):
        record = extended_record(
            "r", FIG_TEXT,
            entities=[("Body Mass Index", 0, 15)],
            attributes=[("≤ 40 kg/m^2", 16, 27)],
            relations=[(0, 0, "has_value")],
        )
        again = from_json(to_json(record, extended=True))
        assert again == record

    def test_unicode_preserved(self):
        record = StructuredRecord(
            id="1", text=FIG_TEXT,
            relations=[RelationPair(entity="Body Mass Index", attribute="≤ 40 kg/m^2")],
        )
        assert "≤ 40 kg/m^2" in to_json(record)


class TestReadBrat:
    def _fig_ann(self):
        # offsets computed from the string itself, before fixing the test:
        # entity covers [0, 15), the attribute the remainder after the space
        start = FIG_TEXT.index("≤")
        end = len(FIG_TEXT)
        return (
            f"T1\tEntity 0 15\tBody Mass Index\n"
            f"T2\tValue {start} {end}\t{FIG_TEXT[start:end]}\n"
            f"R1\thas_value Arg1:T1 Arg2:T2\n"
        )

    def test_single_pair(self):
        gold = read_brat(FIG_TEXT, self._fig_ann(), record_id="fig")
        assert len(gold.entities) == 1
        assert len(gold.attributes) == 1
        assert len(gold.relations) == 1
        assert gold.relations[0].entity.surface == "Body Mass Index"
        assert gold.relations[0].attribute.surface == "≤ 40 kg/m^2"

    def test_empty_ann(self):
        gold = read_brat(FIG_TEXT, "")
        assert gold.entities == [] and gold.attributes == [] and gold.relations == []

    def test_span_mismatch(self):
        ann = "T1\tEntity 0 15\tWrong Surface!!\n"
        with pytest.raises(SpanMismatch):
            read_brat(FIG_TEXT, ann)

    @pytest.mark.parametrize(
        "start, end",
        [(5, 3), (4, 4), (len(FIG_TEXT) + 1, len(FIG_TEXT) + 3)],
        ids=["start-after-end", "empty", "past-the-text"],
    )
    def test_impossible_span(self, start, end):
        # each slices to "" and so would match the empty surface
        ann = f"T1\tEntity 0 15\tBody Mass Index\nT2\tValue {start} {end}\t\n"
        with pytest.raises(SpanMismatch, match="T2") as info:
            read_brat(FIG_TEXT, ann)
        assert info.value.ref == "T2"

    def test_dangling_relation(self):
        ann = "T1\tEntity 0 15\tBody Mass Index\nR1\thas_value Arg1:T1 Arg2:T9\n"
        with pytest.raises(DanglingRef):
            read_brat(FIG_TEXT, ann)

    def test_unknown_label(self):
        ann = "T1\tWidget 0 15\tBody Mass Index\n"
        with pytest.raises(MalformedAnn):
            read_brat(FIG_TEXT, ann)

    def test_reversed_relation_arguments_are_normalized(self):
        ann = self._fig_ann().replace(
            "Arg1:T1 Arg2:T2", "Arg1:T2 Arg2:T1"
        )
        gold = read_brat(FIG_TEXT, ann)
        assert gold.relations[0].entity.label == "Entity"

    def test_comment_lines_ignored(self):
        ann = "#1\tAnnotatorNotes T1\tchecked\n" + self._fig_ann()
        gold = read_brat(FIG_TEXT, ann)
        assert len(gold.entities) == 1

    def test_surface_may_hold_a_line_separator(self):
        # lines end at "\n" alone: str.splitlines would also break at U+2028
        gold = read_brat("Age\u2028over 18 years", "T3\tEntity 0 8\tAge\u2028over\n")
        assert [s.surface for s in gold.entities] == ["Age\u2028over"]

    def test_crlf_lines_read(self):
        gold = read_brat(FIG_TEXT, self._fig_ann().replace("\n", "\r\n"), record_id="fig")
        assert gold == read_brat(FIG_TEXT, self._fig_ann(), record_id="fig")


class TestEvaluate:
    def _fixture(self):
        text = "weight over 50 kg and BMI 30"
        entities = [("weight", 0, 6), ("BMI", 22, 25)]
        attributes = [("50 kg", 12, 17), ("30", 26, 28)]
        relations = [(0, 0, "has_value"), (1, 1, "has_value")]
        pred = extended_record("r1", text, entities, attributes, relations)
        gold = gold_of("r1", text, entities, attributes, relations)
        return pred, gold

    def test_self_comparison_is_perfect(self):
        pred, gold = self._fixture()
        report = evaluate([pred], [gold])
        for etype in ElementType:
            for mode in MatchMode:
                c = report.counts(etype, mode)
                assert c.precision == 1.0
                assert c.recall == 1.0
                assert c.f1 == 1.0

    def test_zero_predictions_zero_scores(self):
        _, gold = self._fixture()
        empty = extended_record("r1", gold.text, [], [], [])
        report = evaluate([empty], [gold])
        c = report.counts(ElementType.RELATION, MatchMode.EXACT)
        assert c.precision == 0.0
        assert c.recall == 0.0

    def test_one_correct_one_spurious(self):
        # gold has 2 relations; prediction keeps the first and replaces the
        # second with a wrong pairing -> tp=1, fp=1, fn=1, P=R=F1=0.5
        text = "weight over 50 kg and BMI 30"
        entities = [("weight", 0, 6), ("BMI", 22, 25)]
        attributes = [("50 kg", 12, 17), ("30", 26, 28)]
        pred = extended_record(
            "r1", text, entities, attributes,
            relations=[(0, 0, "has_value"), (0, 1, "has_value")],
        )
        gold = gold_of(
            "r1", text, entities, attributes,
            relations=[(0, 0, "has_value"), (1, 1, "has_value")],
        )
        report = evaluate([pred], [gold])
        c = report.counts(ElementType.RELATION, MatchMode.EXACT)
        assert (c.tp, c.fp, c.fn) == (1, 1, 1)
        assert c.precision == 0.5
        assert c.recall == 0.5
        assert c.f1 == 0.5

    def test_metric_identities(self):
        pred, gold = self._fixture()
        spurious = extended_record(
            "r2", "nothing", [("nothing", 0, 7)], [], [],
        )
        gold2 = gold_of("r2", "nothing", [], [], [])
        report = evaluate([pred, spurious], [gold, gold2])
        for etype in ElementType:
            c = report.counts(etype, MatchMode.EXACT)
            n_pred = {"ENTITY": 3, "ATTRIBUTE": 2, "RELATION": 2}[etype.value]
            n_gold = {"ENTITY": 2, "ATTRIBUTE": 2, "RELATION": 2}[etype.value]
            assert c.tp + c.fp == n_pred
            assert c.tp + c.fn == n_gold

    def test_overlap_counts_at_least_exact(self):
        text = "systolic blood pressure 120/80"
        pred = extended_record(
            "r1", text,
            entities=[("blood pressure", 9, 23)],
            attributes=[("120/80", 24, 30)],
            relations=[(0, 0, "has_value")],
        )
        gold = gold_of(
            "r1", text,
            entities=[("systolic blood pressure", 0, 23)],
            attributes=[("120/80", 24, 30)],
            relations=[(0, 0, "has_value")],
        )
        report = evaluate([pred], [gold])
        for etype in ElementType:
            exact = report.counts(etype, MatchMode.EXACT).tp
            overlap = report.counts(etype, MatchMode.OVERLAP).tp
            assert exact <= overlap
        assert report.counts(ElementType.RELATION, MatchMode.EXACT).tp == 0
        assert report.counts(ElementType.RELATION, MatchMode.OVERLAP).tp == 1

    def test_label_matching_flag(self):
        pred, gold = self._fixture()
        relabeled = gold_of(
            "r1", gold.text,
            [("weight", 0, 6), ("BMI", 22, 25)],
            [("50 kg", 12, 17), ("30", 26, 28)],
            [(0, 0, "has_temporal"), (1, 1, "has_temporal")],
        )
        loose = evaluate([pred], [relabeled])
        strict = evaluate([pred], [relabeled], match_labels=True)
        assert loose.counts(ElementType.RELATION, MatchMode.EXACT).tp == 2
        assert strict.counts(ElementType.RELATION, MatchMode.EXACT).tp == 0

    def test_record_mismatch(self):
        pred, gold = self._fixture()
        other = gold_of("zzz", gold.text, [], [], [])
        with pytest.raises(RecordMismatch):
            evaluate([pred], [other])

    def test_duplicate_prediction_id(self):
        pred, gold = self._fixture()
        with pytest.raises(RecordMismatch, match="duplicate"):
            evaluate([pred, pred], [gold])

    @pytest.mark.parametrize("record_id", [5, ["a"]], ids=["int", "list"])
    def test_non_string_prediction_id(self, record_id):
        pred, gold = self._fixture()
        pred.id = record_id
        with pytest.raises(MalformedPrediction, match="'id' must be a string"):
            evaluate([pred], [gold])

    def test_prediction_without_extended_payload(self):
        pred, gold = self._fixture()
        bare = StructuredRecord(id=pred.id, text=pred.text, relations=pred.relations)
        with pytest.raises(MalformedPrediction, match="record r1: no 'extended' payload"):
            evaluate([bare], [gold])

    def test_relation_index_out_of_range(self):
        pred, gold = self._fixture()
        pred.extended["relations"][1]["attribute"] = 2
        with pytest.raises(MalformedPrediction, match="record r1: relation attribute index 2"):
            evaluate([pred], [gold])

    def test_macro_present_in_dict(self):
        pred, gold = self._fixture()
        doc = evaluate([pred], [gold]).to_dict()
        assert doc["micro"]["RELATION"]["EXACT"]["f1"] == 1.0
        assert doc["macro"]["RELATION"]["EXACT"]["f1"] == 1.0


class TestExtendedProblem:
    def test_well_formed_payload_passes(self):
        pred, _ = TestEvaluate()._fixture()
        assert extended_problem(pred.extended) is None

    @pytest.mark.parametrize("edit", [
        lambda ext: ext.pop("attributes"),
        lambda ext: ext.update(relations={}),
        lambda ext: ext["entities"].append("weight"),
        lambda ext: ext["entities"][0].pop("start"),
        lambda ext: ext["attributes"][1].update(end="28"),
        lambda ext: ext["relations"][0].pop("label"),
        lambda ext: ext["relations"][1].update(entity=2),
        lambda ext: ext["relations"][1].update(attribute=-1),
        lambda ext: ext["relations"][0].pop("attribute"),
    ])
    def test_each_defect_is_named(self, edit):
        pred, _ = TestEvaluate()._fixture()
        edit(pred.extended)
        assert extended_problem(pred.extended)

    def test_missing_or_non_object_payload(self):
        assert "annotate --extended" in extended_problem(None)
        assert extended_problem([]) is not None

    def test_a_bool_is_no_offset_or_index(self):
        # JSON's true and false are Python bools, which are ints
        for key in ("entities", "attributes"):
            for field in ("start", "end"):
                item = {"start": 0, "end": 3, field: True}
                ext = {"entities": [], "attributes": [], "relations": [], key: [item]}
                assert extended_problem(ext) == f"{key!r} items need integer 'start' and 'end'"
        span = {"start": 0, "end": 3}
        for key, pool in (("entity", "entities"), ("attribute", "attributes")):
            relation = {"entity": 0, "attribute": 0, "label": "has_value", key: False}
            ext = {"entities": [span], "attributes": [span], "relations": [relation]}
            assert extended_problem(ext) == f"relation {key} index False is not in {pool!r}"


class TestReadCorpus:
    def test_txt_dir(self, tmp_path):
        (tmp_path / "NCT01640873.txt").write_text("record body", encoding="utf-8")
        records = read_corpus(tmp_path)
        assert records == [("NCT01640873", "record body")]

    def test_empty_dir(self, tmp_path):
        assert read_corpus(tmp_path) == []

    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "one"}\n{"id": "b", "text": "two"}\n')
        assert read_corpus(path) == [("a", "one"), ("b", "two")]

    def test_jsonl_missing_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(MalformedJsonl):
            read_corpus(path)

    def test_jsonl_bad_json(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(MalformedJsonl) as info:
            read_corpus(path)
        assert info.value.line == 1

    def test_single_file(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("single record")
        assert read_corpus(path) == [("one", "single record")]

    def test_jsonl_repeated_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "text": "one"}\n{"id": "b", "text": "two"}\n'
            '{"id": "a", "text": "three"}\n'
        )
        with pytest.raises(MalformedJsonl) as info:
            read_corpus(path)
        assert info.value.line == 3
        assert str(info.value).startswith(f"{path}: line 3: ")
        assert "line 3" in str(info.value) and "line 1" in str(info.value)
        assert "'a'" in str(info.value)


def _brute_force_matching(edges, n_gold):
    """Largest matching, trying every gold choice (or none) per prediction."""

    def best(i, used):
        if i == len(edges):
            return 0
        options = [best(i + 1, used)]
        options += [1 + best(i + 1, used | {j}) for j in edges[i] if j not in used]
        return max(options)

    return best(0, frozenset())


SPAN = st.tuples(st.integers(0, 12), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1]))


def _items(n_spans, labels):
    """Lists of ``(spans, label)`` evaluation items with ``n_spans`` spans each."""

    return st.lists(
        st.tuples(st.tuples(*[SPAN] * n_spans), st.sampled_from(labels)), max_size=6
    )


# (predictions, gold) of one element type: entities and attributes have one
# span and no label, relations an entity and an attribute span and a label
ITEM_PAIRS = st.one_of(
    st.tuples(_items(1, (None,)), _items(1, (None,))),
    st.tuples(_items(2, ("has_value", "has_temporal")), _items(2, ("has_value", "has_temporal"))),
)


class TestOptimalMatching:
    def test_greedy_undercount_is_fixed(self):
        # [0,10) could take [1,3) first and leave [1,2) without a partner;
        # the optimum pairs [0,10)-[8,9) and [1,2)-[1,3)
        pred = [(((0, 10),), None), (((1, 2),), None)]
        gold = [(((1, 3),), None), (((8, 9),), None)]
        edges = io_eval._edges(pred, gold, match_labels=False)
        assert io_eval._max_matching(edges[MatchMode.OVERLAP], len(gold)) == 2
        assert io_eval._max_matching(edges[MatchMode.EXACT], len(gold)) == 0

    @given(items=ITEM_PAIRS, match_labels=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, items, match_labels):
        pred, gold = items

        def exact(p, g):
            return (not match_labels or p[1] == g[1]) and p[0] == g[0]

        def overlap(p, g):
            every_span = all(a[0] < b[1] and b[0] < a[1] for a, b in zip(p[0], g[0]))
            return (not match_labels or p[1] == g[1]) and (p[0] == g[0] or every_span)

        edges = io_eval._edges(pred, gold, match_labels)
        tp = {}
        for mode, test in ((MatchMode.EXACT, exact), (MatchMode.OVERLAP, overlap)):
            assert edges[mode] == [[j for j, g in enumerate(gold) if test(p, g)] for p in pred]
            tp[mode] = io_eval._max_matching(edges[mode], len(gold))
            assert tp[mode] == _brute_force_matching(edges[mode], len(gold))
        for same, near in zip(edges[MatchMode.EXACT], edges[MatchMode.OVERLAP]):
            assert set(same) <= set(near)
        assert tp[MatchMode.EXACT] <= tp[MatchMode.OVERLAP]
