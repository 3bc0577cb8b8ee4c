"""The per-record value types and the record build and serialize path.

``EntityMention``, ``AttributeMention``, ``Relation``, ``RelationPair`` and
``SentenceRecord`` are named tuples, as ``Token`` is: fields read by name
and by position, none can be assigned, and equal values compare equal and
hash alike.  ``AttributeMention`` checks its payload however it is built.
The record build and ``to_json`` are checked byte for byte against the
payload helpers and the per-record ``json.dumps`` kept in ``oracles``, both
as written from the pipeline's tuples and after ``extended`` is read.
The other value types are named tuples, or ``__slots__`` classes on
``critex.slotted``: immutable ones that check their fields on every
path and mutable ones whose containers are their own.
"""

import copy
import gc
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from critex.attributes import AttributeKind, AttributeMention, Comparator, TimeUnit
from critex.entities import EntityMention
from critex import io_eval, pipeline
from critex.io_eval import (
    Counts,
    EvalReport,
    GoldAnnotation,
    GoldRelation,
    GoldSpan,
    RelationPair,
    StructuredRecord,
    from_json,
    to_json,
)
from critex.kb import CompatibilityWeights, KbEntry, KnowledgeBase, TermNode
from critex.linker import Relation
from critex.pipeline import PipelineConfig, _build_record
from critex.segmentation import SentenceRecord, SplitMode, TokenShape

from conftest import PARAGRAPH_TWO

ENTITY = EntityMention(1, 4, 18, "blood pressure", "C0005823", "blood pressure")
ATTRIBUTE = AttributeMention(
    1, 19, 28, "≤ 40 mmHg", AttributeKind.COMPARISON, Comparator.LE, (40.0,), "mmHg"
)


def _values():
    """One value of each type."""

    return {
        EntityMention: ENTITY,
        AttributeMention: ATTRIBUTE,
        Relation: Relation(ENTITY, ATTRIBUTE, "has_value", 0.75),
        RelationPair: RelationPair("blood pressure", "≤ 40 mmHg"),
        SentenceRecord: SentenceRecord(
            "r1", 1, "BP ≤ 40", 12,
            ("BP", "≤"), (0, 3), (2, 4), (TokenShape.WORD, TokenShape.SYMBOL),
        ),
    }


FIELDS = {
    EntityMention: ("sentence_index", "start", "end", "surface", "concept_id", "matched_term"),
    AttributeMention: (
        "sentence_index", "start", "end", "surface", "kind", "comparator", "values",
        "unit", "time_unit", "anchor",
    ),
    Relation: ("entity", "attribute", "label", "score"),
    RelationPair: ("entity", "attribute"),
    SentenceRecord: (
        "record_id", "sentence_index", "text", "char_offset", "surfaces", "starts", "ends", "shapes",
    ),
}
TYPES = sorted(FIELDS, key=lambda t: t.__name__)


@pytest.mark.parametrize("cls", TYPES, ids=lambda t: t.__name__)
class TestValueTypeContract:
    def test_fields_by_name_and_position(self, cls):
        value = _values()[cls]
        assert cls._fields == FIELDS[cls]
        by_name = tuple(getattr(value, name) for name in cls._fields)
        assert by_name == tuple(value) == tuple(value[i] for i in range(len(cls._fields)))
        assert cls(**dict(zip(cls._fields, by_name))) == value

    def test_fields_cannot_be_assigned(self, cls):
        value = _values()[cls]
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == _values()[cls]

    def test_equal_values_are_equal_and_hash_alike(self, cls):
        value = _values()[cls]
        other = pickle.loads(pickle.dumps(value))  # rebuilt through the constructor
        assert other == value and other is not value
        assert hash(other) == hash(value)
        assert len({value, other}) == 1
        assert value._replace(**{cls._fields[0]: "other"}) != value


def test_attribute_constructor_spells_the_fields_and_defaults():
    parameters = list(inspect.signature(AttributeMention).parameters.values())
    assert tuple(p.name for p in parameters) == AttributeMention._fields
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == AttributeMention._field_defaults


# (kind, payload fields, message) of an invalid attribute payload
INVALID = {
    "unordered range": (AttributeKind.RANGE, {"values": (5.0, 1.0)}, "range values must be ordered"),
    "non-positive ratio": (AttributeKind.RATIO, {"values": (0.0, 5.0)}, "ratio parts must be positive"),
    "comparison without comparator": (
        AttributeKind.COMPARISON, {"values": (5.0,)}, "comparison needs a comparator and one value",
    ),
    "qualifier with values": (
        AttributeKind.QUALIFIER, {"values": (1.0,)}, "qualifiers carry no values or unit",
    ),
}
VALID = {
    AttributeKind.RANGE: {"values": (1.0, 5.0)},
    AttributeKind.RATIO: {"values": (140.0, 90.0)},
    AttributeKind.COMPARISON: {"comparator": Comparator.GT, "values": (5.0,)},
    AttributeKind.QUALIFIER: {},
}


@pytest.mark.parametrize("case", sorted(INVALID))
class TestAttributePayloadChecks:
    """An invalid payload raises the same ``ValueError`` on every path."""

    def _fields(self, case):
        kind, payload, message = INVALID[case]
        fields = dict(zip(AttributeMention._fields, (0, 0, 1, "x", kind)))
        return {**fields, **AttributeMention._field_defaults, **payload}, message

    def test_constructor(self, case):
        fields, message = self._fields(case)
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttributeMention(**fields)

    def test_make(self, case):
        fields, message = self._fields(case)
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttributeMention._make(fields[name] for name in AttributeMention._fields)

    def test_replace(self, case):
        fields, message = self._fields(case)
        valid = AttributeMention(0, 0, 1, "x", fields["kind"], **VALID[fields["kind"]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            valid._replace(comparator=fields["comparator"], values=fields["values"])


# Text with the characters JSON escapes or keeps: quotes, backslashes,
# control characters and non-ASCII letters and symbols.
TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\\x00\x07\n\t\x1f\x7f\x85é≤☃\u2028😀')
    ),
    max_size=8,
)
VALUE = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, 0.0, 1e16, float(2**53 + 1), 2.5, 140.0, 1e-7, -3.0)),
    st.integers(-(2**60), 2**60).map(float),
)
OFFSET = st.integers(0, 10_000)
OPTIONAL_TEXT = st.one_of(st.none(), TEXT)


@st.composite
def attribute_mentions(draw, n_sentences):
    kind = draw(st.sampled_from(AttributeKind))
    comparator = draw(st.one_of(st.none(), st.sampled_from(Comparator)))
    unit = draw(OPTIONAL_TEXT)
    if kind is AttributeKind.RANGE:
        values = tuple(sorted(draw(st.tuples(VALUE, VALUE))))
    elif kind is AttributeKind.RATIO:
        values = draw(st.tuples(VALUE, VALUE).map(lambda v: tuple(abs(x) or 1.0 for x in v)))
    elif kind is AttributeKind.COMPARISON:
        comparator = draw(st.sampled_from(Comparator))
        values = (draw(VALUE),)
    elif kind is AttributeKind.QUALIFIER:
        values, unit = (), None
    else:
        values = tuple(draw(st.lists(VALUE, max_size=2)))
    return AttributeMention(
        draw(st.integers(0, n_sentences - 1)), draw(OFFSET), draw(OFFSET), draw(TEXT),
        kind, comparator, values, unit,
        draw(st.one_of(st.none(), st.sampled_from(TimeUnit))), draw(OPTIONAL_TEXT),
    )


@st.composite
def record_parts(draw):
    """``(record_id, text, sentences, mentions, attributes, links)``."""

    n = draw(st.integers(1, 4))
    sentences = [
        SentenceRecord("r", i, draw(TEXT), offset, (), (), (), ())
        for i, offset in enumerate(sorted(draw(st.lists(OFFSET, min_size=n, max_size=n))))
    ]
    mentions = draw(st.lists(
        st.builds(EntityMention, st.integers(0, n - 1), OFFSET, OFFSET, TEXT, TEXT, TEXT),
        max_size=5,
    ))
    attributes = draw(st.lists(attribute_mentions(n), max_size=6))
    links = []
    for a in attributes:
        if mentions and draw(st.booleans()):
            entity = draw(st.sampled_from(mentions))
            links.append(Relation(entity, a, draw(TEXT), draw(st.floats())))
        else:
            links.append(None)  # unlinked
    return draw(TEXT), draw(TEXT), sentences, mentions, attributes, links


@given(record_parts())
@settings(max_examples=300)
def test_record_build_and_serialize_match_the_payload_oracle(parts):
    record = _build_record(*parts)
    expected = [oracles.record_json(*parts, extended) for extended in (False, True)]
    # written from the pipeline's tuples, then from the dict built on first read
    assert [to_json(record, extended=e) for e in (False, True)] == expected
    record.extended
    assert [to_json(record, extended=e) for e in (False, True)] == expected
    indented = json.dumps(json.loads(expected[1]), ensure_ascii=False, indent=2)
    assert to_json(record, extended=True, indent=2) == indented


def test_non_finite_scores_and_values_are_spelled_as_the_encoder_spells_them():
    sentences = [SentenceRecord("r", 0, "x", 0, (), (), (), ())]
    values = (float("inf"), float("nan"), float("-inf"))
    attributes = [
        AttributeMention(0, 0, 1, "x", AttributeKind.TEMPORAL, values=values),
        AttributeMention(0, 0, 1, "y", AttributeKind.COMPARISON, Comparator.GT, (float("nan"),)),
    ]
    links = [
        Relation(ENTITY._replace(sentence_index=0), a, "has_value", score)
        for a, score in zip(attributes, (float("nan"), float("-inf")))
    ]
    parts = ("r", "x", sentences, [ENTITY._replace(sentence_index=0)], attributes, links)
    record = _build_record(*parts)
    expected = oracles.record_json(*parts, True)
    assert '"values": [Infinity, NaN, -Infinity]' in expected
    assert '"scores": [NaN, -Infinity]' in expected
    assert to_json(record, extended=True) == expected
    record.extended
    assert to_json(record, extended=True) == expected


PIPELINE_TEXT = PARAGRAPH_TWO + " Participants must weigh over 50 kg."


@pytest.fixture()
def annotated(mini_kb, monkeypatch):
    """``annotate(record_id)``: a pipeline record of ``PIPELINE_TEXT`` and
    the parts ``_build_record`` made it from."""

    made = []

    def build(*parts):
        made.append(parts)
        return _build_record(*parts)

    monkeypatch.setattr(pipeline, "_build_record", build)

    def annotate(record_id="r1"):
        config = PipelineConfig(mode=SplitMode.PARAGRAPHS)
        return pipeline.annotate_record(record_id, PIPELINE_TEXT, mini_kb, config), made[-1]

    return annotate


def eager(record, parts):
    """``record`` as it was built with its ``extended`` dict up front."""

    extended = oracles.extended_payload(*parts[2:])
    return StructuredRecord(record.id, record.text, list(record.relations), extended)


class TestPipelineRecord:
    """A pipeline record builds ``extended`` on first read, and is the same
    record as one built with the dict up front."""

    def test_compact_output_builds_no_dict(self, annotated, monkeypatch):
        def no_dict(*parts):
            raise AssertionError("extended dict built")

        monkeypatch.setattr(io_eval, "_extended_dict", no_dict)
        record, parts = annotated()
        for extended in (False, True):
            assert to_json(record, extended=extended) == oracles.record_json(*parts, extended)
        with pytest.raises(AssertionError, match="extended dict built"):
            record.extended

    def test_extended_is_built_once(self, annotated):
        record, parts = annotated()
        assert record.extended is record.extended
        assert record.extended == oracles.extended_payload(*parts[2:])
        assert record.extended["unlinked_attributes"] and record.extended["relations"]

    def test_an_edit_to_extended_is_written(self, annotated):
        record, parts = annotated()
        record.extended["entities"][0]["surface"] = "edited"
        record.extended["scores"].append(0.5)
        doc = json.loads(to_json(record, extended=True))
        assert doc["result"]["extended"]["entities"][0]["surface"] == "edited"
        assert doc["result"]["extended"]["scores"][-1] == 0.5

    @pytest.mark.parametrize(
        "value,written",
        [({"entities": []}, {"entities": []}), (None, oracles.extended_payload([], [], [], []))],
    )
    def test_an_assigned_extended_is_written(self, annotated, value, written):
        record, _ = annotated()
        record.extended = value
        assert record.extended == value
        assert json.loads(to_json(record, extended=True))["result"]["extended"] == written

    def test_equality_and_repr_match_a_record_built_with_the_dict(self, annotated):
        record, parts = annotated()
        assert repr(record) == repr(eager(record, parts))
        record, parts = annotated()
        assert record == eager(record, parts)
        record, parts = annotated()
        assert eager(record, parts) == record
        other, _ = annotated("r2")
        assert record != other

    def test_copy_and_pickle(self, annotated):
        record, parts = annotated()
        again = copy.copy(record)
        assert again == eager(record, parts) == record
        again.id = "r2"
        assert again != record and record.id == "r1"
        with pytest.raises(AttributeError):
            record.other = 1  # a __slots__ class holds its fields only
        record, parts = annotated()
        again = pickle.loads(pickle.dumps(record))
        assert to_json(again, extended=True) == oracles.record_json(*parts, True)
        assert again == eager(record, parts) == record

    def test_json_round_trip(self, annotated):
        record, _ = annotated()
        assert from_json(to_json(record, extended=True)) == record

    @pytest.mark.parametrize("extended", [False, True])
    def test_indented_output_is_unchanged(self, annotated, extended):
        record, parts = annotated()
        document = json.loads(oracles.record_json(*parts, extended))
        expected = json.dumps(document, ensure_ascii=False, indent=2)
        assert to_json(record, extended=extended, indent=2) == expected
        record, _ = annotated()
        record.extended
        assert to_json(record, extended=extended, indent=2) == expected

    def test_an_id_that_is_not_a_string_is_rejected(self, annotated):
        for record_id in (7, None, b"r1"):
            with pytest.raises(TypeError, match=f"^record_id must be a str, got {record_id!r}$"):
                annotated(record_id)


def test_cyclic_extended_payload_raises_recursion_error():
    extended = {"entities": []}
    extended["entities"].append(extended)
    record = StructuredRecord(id="r", text="t", extended=extended)
    for indent in (None, 2):
        with pytest.raises(RecursionError):
            to_json(record, extended=True, indent=indent)


@pytest.mark.parametrize("indent", [0, 2, 4, "\t"])
def test_indented_output_is_json_dumps_and_leaves_no_cycle(indent):
    extended = {
        "entities": [{"surface": "é\u2028\"", "start": 0}], "attributes": [],
        "scores": [0.5, -0.0, float("nan"), float("inf"), 1e16, 40],
        "flags": [True, False, None], "empty": {}, "nested": [[], [{}]],
        3: "an int key", None: "a None key", "tuple": (1, "x"),
    }
    record = StructuredRecord("r", "t\x00", [RelationPair("a", "b")], extended)
    document = {"result": {
        "id": "r", "text": "t\x00", "relation": [{"entity": "a", "attribute": "b"}],
        "extended": extended,
    }}
    expected = json.dumps(document, ensure_ascii=False, indent=indent)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert to_json(record, extended=True, indent=indent) == expected
        assert gc.collect() == 0  # where json.dumps itself leaves a cycle
    finally:
        if enabled:
            gc.enable()


# The value types that are not per-record tuples: immutable ones with slots
# (read per competitor, or holding derived state), mutable ones with slots,
# and the rest, named tuples.
SLOTTED_KB = KnowledgeBase([KbEntry("LOCAL:bp", "blood pressure", ("BP",), ("mmHg",))])
FROZEN = {
    KbEntry: KbEntry("LOCAL:bp", "blood pressure", ("BP",), ("mmHg",), 60, 250),
    CompatibilityWeights: CompatibilityWeights(0.5, 0.3, 0.2),
    PipelineConfig: PipelineConfig(SplitMode.PARAGRAPHS, theta=0.25),
    KnowledgeBase: SLOTTED_KB,
}


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda t: t.__name__)
class TestFrozenSlottedContract:
    def test_fields_cannot_be_assigned_or_added(self, cls):
        value = FROZEN[cls]
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")

    def test_asdict_replace_make_and_pickle_rebuild_an_equal_value(self, cls):
        value = FROZEN[cls]
        fields = value._asdict()
        assert tuple(fields) == cls._fields
        assert cls(**fields) == cls._make(fields.values()) == value._replace() == value
        assert value._replace() is not value
        assert pickle.loads(pickle.dumps(value)) == copy.copy(value) == value
        assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
        with pytest.raises(ValueError, match=r"^Got unexpected field names: \['extra'\]$"):
            value._replace(extra=1)

    def test_equal_to_its_own_class_only(self, cls):
        value = FROZEN[cls]
        assert value != tuple(value._asdict().values())
        assert (value == tuple(value._asdict().values())) is False
        if cls is not KnowledgeBase:  # its tables are dicts
            assert hash(value._replace()) == hash(value)


def test_kb_first_words_are_derived_by_every_constructor():
    kb = SLOTTED_KB
    assert kb.first_words == {"blood", "bloods", "bp", "bps"}
    other = (KbEntry("LOCAL:hr", "heart rate"),)
    for built in (kb._replace(entries=other), KnowledgeBase._make((other, {}))):
        assert built.first_words == {"heart", "hearts"}
    assert pickle.loads(pickle.dumps(kb)).first_words == kb.first_words
    assert "first_words" not in kb._asdict()


def test_mutable_values_get_containers_of_their_own():
    a, b = GoldAnnotation("r", "t"), GoldAnnotation("r", "t")
    for name in ("entities", "attributes", "relations"):
        assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)
    assert StructuredRecord("r", "t").relations is not StructuredRecord("r", "t").relations
    assert TermNode().children == {} and TermNode().children is not TermNode().children
    a.entities.append(GoldSpan("T1", "Entity", 0, 1, "t"))
    assert a != b and b == GoldAnnotation("r", "t")
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_gold_and_evaluation_values_are_named_tuples():
    span = GoldSpan("T1", "Entity", 0, 3, "age")
    values = (
        span, GoldRelation("R1", "has_value", span, span), Counts(1, 2, 3),
        EvalReport({}, {}, 0),
    )
    for value in values:
        assert value == tuple(value) and value._replace() == value
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
    assert Counts(1, 2, 3) + Counts(1, 0, 0) == Counts(2, 2, 3)
