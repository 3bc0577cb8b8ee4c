"""Knowledge-base loading, unit normalization, lookup, scoring and mining."""

import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from critex.attributes import (
    AttributeKind,
    AttributeMention,
    Comparator,
    attribute_shape,
    extract_attributes,
)
from critex.entities import recognize_entities
from critex.errors import CritexError, DuplicateConceptId, MalformedKb, MalformedText
from critex.kb import (
    Category,
    CompatibilityWeights,
    KbEntry,
    KnowledgeBase,
    ValuePattern,
    compatibility_terms,
    import_tsv,
    kb_to_dict,
    load_kb,
    mine_kb_candidates,
    _slug,
    save_kb,
    term_key,
)
from critex.resources import bundled_kb_path
from critex.segmentation import SplitMode, split_records
from critex.units import DEFAULT_UNIT_TABLE, normalize_unit, unit_key

from conftest import MALFORMED_KBS, malformed_kb_file, malformed_kb_where


def attr(kind, values=(), unit=None, comparator=None):
    surface = "x"
    return AttributeMention(
        sentence_index=0, start=0, end=1, surface=surface, kind=kind,
        comparator=comparator, values=tuple(values), unit=unit,
    )


def entries_of(kb, phrase):
    """The entries of the terms that ``phrase`` fires."""

    return [entry for entry, _ in kb.lookup_terms(phrase)]


def terms(entry, attribute):
    """``(value, unit_term, pattern_term, range_term)`` under default weights."""

    return compatibility_terms(entry, attribute, attribute_shape(attribute))


RATIO_MMHG = attr(AttributeKind.RATIO, (140, 90), "mmHg")
RATIO_115_75 = attr(AttributeKind.RATIO, (115, 75), "mmHg")
RANGE_11_25 = attr(AttributeKind.RANGE, (11, 25))
QUALIFIER = attr(AttributeKind.QUALIFIER)

BLOOD_PRESSURE = KbEntry(
    concept_id="C0005823", preferred_term="blood pressure",
    expected_units=("mmHg",), value_min=40, value_max=300,
    value_pattern=ValuePattern.RATIO, category=Category.MEASUREMENT,
)
BODY_WEIGHT = KbEntry(
    concept_id="C0005910", preferred_term="body weight",
    expected_units=("kg",), value_min=20, value_max=300,
    value_pattern=ValuePattern.SCALAR, category=Category.MEASUREMENT,
)


class TestLoadKb:
    def test_bundled_lookup_is_case_insensitive(self, mini_kb):
        hits = mini_kb.lookup_terms("Blood Pressure")
        assert len(hits) == 1
        entry, term = hits[0]
        assert entry.concept_id == "C0005823"
        assert term == "blood pressure"

    def test_empty_kb(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text('{"version": 1, "units": {}, "entries": []}')
        kb = load_kb(path)
        assert len(kb.entries) == 0
        assert kb.lookup_terms("anything") == ()

    def test_inverted_range_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {},
            "entries": [{
                "concept_id": "LOCAL:x", "preferred_term": "x",
                "value_min": 10, "value_max": 5,
            }],
        }))
        with pytest.raises(MalformedKb):
            load_kb(path)

    def test_duplicate_concept_id_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        entry = {"concept_id": "LOCAL:x", "preferred_term": "x"}
        path.write_text(json.dumps({
            "version": 1, "units": {}, "entries": [entry, dict(entry)],
        }))
        with pytest.raises(DuplicateConceptId) as info:
            load_kb(path)
        assert str(info.value) == (
            f"{path}: entries[1]: duplicate concept_id: LOCAL:x (also entries[0])"
        )
        assert (info.value.first, info.value.second) == (0, 1)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(MalformedKb):
            load_kb(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_KBS))
    def test_malformed_terms_and_units_rejected(self, tmp_path, case):
        path, message = malformed_kb_file(tmp_path, case)
        with pytest.raises(MalformedKb, match=message) as info:
            load_kb(path)
        assert type(info.value) is MalformedKb
        assert str(info.value).startswith(malformed_kb_where(path, case))

    def test_entry_errors_name_the_index_of_the_entry(self, tmp_path):
        path = tmp_path / "kb.json"
        entries = [{"concept_id": f"LOCAL:{i}", "preferred_term": f"t{i}"} for i in range(3)]
        entries[2]["synonyms"] = [" "]
        path.write_text(json.dumps({"version": 1, "entries": entries}))
        with pytest.raises(MalformedKb) as info:
            load_kb(path)
        assert str(info.value) == f"{path}: entries[2]: LOCAL:2: blank synonym: ' '"

    @pytest.mark.parametrize("fields", [
        {"preferred_term": " "},
        {"synonyms": ("",)},
        {"expected_units": (" ",)},
    ])
    def test_blank_entry_fields_rejected_by_the_constructor(self, fields):
        with pytest.raises(MalformedKb, match="blank"):
            KbEntry(**{"concept_id": "LOCAL:x", "preferred_term": "x", **fields})

    @pytest.mark.parametrize("units", [{" ": "mmHg"}, {"": "mmHg"}, {"torr": " "}])
    def test_blank_units_rejected_by_build(self, units):
        with pytest.raises(MalformedKb, match="blank unit"):
            KnowledgeBase((), units)

    @pytest.mark.parametrize("bounds", [
        {"value_min": math.nan}, {"value_max": math.inf}, {"value_min": -math.inf},
    ])
    def test_non_finite_bounds_rejected_by_the_constructor(self, bounds):
        with pytest.raises(MalformedKb, match="must be finite"):
            KbEntry(concept_id="LOCAL:x", preferred_term="x", **bounds)

    @pytest.mark.parametrize("field,value,message", [
        # each of these was accepted and broke later: annotate_record raised
        # AttributeError or TypeError, or a string was read letter by letter
        ("value_pattern", "SCALAR", "value_pattern must be a ValuePattern or None, got 'SCALAR'"),
        ("value_min", "5", "value_min must be a real number, got '5'"),
        ("value_max", True, "value_max must be a real number, got True"),
        ("synonyms", "BP", "synonyms must be a tuple of str, got 'BP'"),
        ("synonyms", ["BP"], "synonyms must be a tuple of str, got ['BP']"),
        ("synonyms", ("BP", 7), "synonyms must be a tuple of str, got ('BP', 7)"),
        ("expected_units", "mmHg", "expected_units must be a tuple of str, got 'mmHg'"),
        ("category", "MEASUREMENT", "category must be a Category, got 'MEASUREMENT'"),
    ])
    def test_field_types_rejected_by_the_constructor(self, field, value, message):
        with pytest.raises(MalformedKb) as info:
            KbEntry(**{"concept_id": "LOCAL:bp", "preferred_term": "blood pressure", field: value})
        assert str(info.value) == f"LOCAL:bp: {message}"
        # _replace and _make build through the constructor
        valid = KbEntry("LOCAL:bp", "blood pressure")
        with pytest.raises(MalformedKb, match=f"^LOCAL:bp: {re.escape(message)}$"):
            valid._replace(**{field: value})
        with pytest.raises(MalformedKb, match=f"^LOCAL:bp: {re.escape(message)}$"):
            KbEntry._make((valid._asdict() | {field: value}).values())

    @pytest.mark.parametrize("field", ["concept_id", "preferred_term"])
    def test_id_and_preferred_term_that_are_not_str_rejected_by_the_constructor(self, field):
        with pytest.raises(MalformedKb, match=f"^{field} must be a str, got 7$"):
            KbEntry(**{"concept_id": "LOCAL:x", "preferred_term": "x", field: 7})

    def test_int_bounds_and_enum_fields_accepted_by_the_constructor(self):
        entry = KbEntry(
            "LOCAL:bp", "blood pressure", expected_units=("mmHg",), value_min=60, value_max=250,
            value_pattern=ValuePattern.SCALAR, category=Category.MEASUREMENT,
        )
        kb = KnowledgeBase([entry])
        sentence = split_records("blood pressure 140 mmHg", SplitMode.LINES)[0]
        (attribute,) = extract_attributes(sentence, kb)
        assert compatibility_terms(entry, attribute, attribute_shape(attribute))[1:] == (1.0,) * 3

    def test_synonym_duplicating_preferred_term_rejected(self):
        with pytest.raises(MalformedKb):
            KbEntry(concept_id="LOCAL:x", preferred_term="x", synonyms=("X",))

    def test_save_load_round_trip(self, mini_kb, tmp_path):
        path = tmp_path / "kb.json"
        save_kb(mini_kb, path)
        again = load_kb(path)
        assert again == mini_kb

    def test_expected_units_canonicalized_on_load(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {},
            "entries": [{
                "concept_id": "LOCAL:bmi", "preferred_term": "BMI",
                "expected_units": ["kg/m2"],
            }],
        }))
        kb = load_kb(path)
        assert kb.entries[0].expected_units == ("kg/m^2",)

    def test_expected_units_canonicalized_on_build(self):
        kb = KnowledgeBase(
            [KbEntry("C1", "pressure", expected_units=("torr",))],
            units={"torr": "mmHg"},
        )
        entry = kb.by_id.get("C1")
        assert entry.expected_units == ("mmHg",)
        assert kb.entries == (entry,)
        assert entries_of(kb, "pressure") == [entry]
        sentence = split_records("pressure < 30 torr", SplitMode.LINES)[0]
        (attribute,) = extract_attributes(sentence, kb)
        assert attribute.unit == "mmHg"
        assert terms(entry, attribute)[1] == 1.0  # unit term matches

    def test_expected_units_deduplicated_on_build_and_load(self, tmp_path):
        # spellings of one unit collapse to the first, in the order they appear
        units = ("kg", "kilograms", "KG", "mmHg", "mm hg", "furlong", "furlong")
        kb = KnowledgeBase([KbEntry("C1", "body weight", expected_units=units)])
        assert kb.by_id["C1"].expected_units == ("kg", "mmHg", "furlong")
        path = tmp_path / "kb.json"
        save_kb(KnowledgeBase(()), path)
        doc = json.loads(path.read_text())
        doc["entries"] = [{"concept_id": "C1", "preferred_term": "weight", "expected_units": units}]
        path.write_text(json.dumps(doc))
        assert load_kb(path).by_id["C1"].expected_units == ("kg", "mmHg", "furlong")


class TestConstructor:
    def test_the_fields_are_the_arguments(self):
        assert KnowledgeBase._fields == ("entries", "units")
        assert not hasattr(KnowledgeBase, "build")

    def test_replace_entries_rebuilds_every_table(self, mini_kb):
        entry = KbEntry("X:1", "body weight", expected_units=("kilograms",))
        kb = mini_kb._replace(entries=(entry,))
        (canonical,) = kb.entries
        assert canonical.expected_units == ("kg",)
        assert kb.by_id == {"X:1": canonical}
        assert kb.lookup_terms("body weight") == ((canonical, "body weight"),)
        assert kb.lookup_terms("blood pressure") == ()
        assert kb.first_words == {"body", "bodys"}

    def test_units_holds_what_differs_from_the_built_in_table(self):
        kb = KnowledgeBase((), {" Per  Cent ": "%", "TORR": "mmHg", "Cm H2O": "cmH2O"})
        assert kb.units == {"torr": "mmHg", "cm h2o": "cmH2O"}
        assert kb == KnowledgeBase((), {"torr": "mmHg", "cm h2o": "cmH2O", "mm hg": "mmHg"})
        assert kb != KnowledgeBase((), {"torr": "mmHg"})
        assert kb_to_dict(kb)["units"] == kb.units

    def test_a_new_canonical_form_normalizes_to_itself(self):
        kb = KnowledgeBase([KbEntry("C1", "pressure", expected_units=("cm h2o",))],
                           {"cm h2o": "cmH2O"})
        assert kb.normalize_unit("CMH2O") == kb.normalize_unit("cm  H2O") == "cmH2O"
        assert kb.entries[0].expected_units == ("cmH2O",)
        assert kb.units == {"cm h2o": "cmH2O"}

    def test_canonical_form_that_normalizes_to_another_rejected(self):
        # "40 kilograms" would read kg, and "40 kg" would read KG
        with pytest.raises(MalformedKb) as info:
            KnowledgeBase((), {"kg": "KG"})
        assert str(info.value) == (
            "unit 'kilogram' -> 'kg', but 'kg' -> 'KG': a canonical form must normalize"
            " to itself"
        )
        with pytest.raises(MalformedKb, match="^unit 'pascal' -> 'PA', but 'PA' -> 'Pa'"):
            KnowledgeBase((), {"torr": "Pa", "pascal": "PA"})
        # every spelling of kg moved to KG: each canonical form is its own
        moved = KnowledgeBase((), dict.fromkeys(("kg", "kilogram", "kilograms", "kgs"), "KG"))
        assert moved.normalize_unit("kg") == moved.normalize_unit("kilograms") == "KG"

    @pytest.mark.parametrize("units", [{1: "kg"}, {"kg": None}, ["kg"], "kg"])
    def test_units_that_are_not_a_dict_of_str_rejected(self, units):
        with pytest.raises(MalformedKb, match="^'units' must map variants to canonical strings$"):
            KnowledgeBase((), units)

    def test_entry_that_is_not_a_kb_entry_rejected(self):
        with pytest.raises(MalformedKb, match=r"^entries\[1\] must be a KbEntry, got 'x'$"):
            KnowledgeBase([KbEntry("C1", "x"), "x"])

    def test_duplicate_concept_id_names_both_entries(self):
        entries = [KbEntry("C1", "a"), KbEntry("C2", "b"), KbEntry("C1", "c")]
        with pytest.raises(DuplicateConceptId) as info:
            KnowledgeBase(entries)
        assert str(info.value) == "entries[2]: duplicate concept_id: C1 (also entries[0])"
        assert (info.value.first, info.value.second) == (0, 2)

    def test_empty_concept_id_rejected_by_the_entry(self):
        with pytest.raises(MalformedKb, match="^empty concept_id$"):
            KbEntry("", "x")


# Every way to make a KB must give one whose derived tables agree with its
# entries: the constructor, _make, _replace of either field, unpickling,
# load_kb, import_tsv, and mined candidates.
BUNDLED_KB = load_kb(bundled_kb_path())
PATH_TERMS = (
    "blood pressure", "BP", "heart rate", "Heart-Rate", "body weight", "type 2 diabetes",
    "ECG", "glucose", "drug", "drug abuse",
)
PATH_UNITS = (
    "kg", "kilograms", "KG", " mm Hg", "mmHg", "torr", "TORR", "cm h2o", "cmH2O",
    "furlong", "%", "per cent",
)
PATH_UNIT_TABLES = (
    {}, {"torr": "mmHg"}, {"TORR ": "mmHg", "cm  H2O": "cmH2O"},
    {"kg": "kg", "per cent": "%"}, {"furlong": "fur"},
)


@st.composite
def path_entries(draw):
    entries = []
    for i, preferred in enumerate(draw(st.lists(st.sampled_from(PATH_TERMS), max_size=5))):
        synonyms = draw(st.lists(st.sampled_from(PATH_TERMS), max_size=2, unique_by=term_key))
        entries.append(KbEntry(
            f"C{i}", preferred,
            synonyms=tuple(t for t in synonyms if term_key(t) != term_key(preferred)),
            expected_units=tuple(draw(st.lists(st.sampled_from(PATH_UNITS), max_size=4))),
        ))
    return entries


def _entry_doc(entry):
    return {"concept_id": entry.concept_id, "preferred_term": entry.preferred_term,
            "synonyms": list(entry.synonyms), "expected_units": list(entry.expected_units)}


def _via_load_kb(entries, units, tmp):
    path = tmp / "kb.json"
    path.write_text(json.dumps(
        {"version": 1, "units": units, "entries": [_entry_doc(e) for e in entries]}
    ))
    return load_kb(path)


def _via_import_tsv(entries, units, tmp):
    # one row per concept id, as the slug of the term names it
    rows = {_slug(e.preferred_term): e for e in entries}
    path = tmp / "kb.tsv"
    path.write_text("term\tvalue_range\tunits\n" + "".join(
        f"{e.preferred_term}\t\t{','.join(e.expected_units)}\n" for e in rows.values()
    ))
    return import_tsv(path)


def _via_mining(entries, units, tmp):
    text = ". ".join(f"{e.preferred_term} of 5 {' '.join(e.expected_units[:1])}" for e in entries)
    sentences = split_records(text, SplitMode.PARAGRAPHS)
    return KnowledgeBase(mine_kb_candidates(sentences, KnowledgeBase((), units).normalize_unit),
                         units)


CONSTRUCTION_PATHS = {
    "constructor": lambda entries, units, tmp: KnowledgeBase(entries, units),
    "_make": lambda entries, units, tmp: KnowledgeBase._make((entries, units)),
    "_replace entries": lambda entries, units, tmp: BUNDLED_KB._replace(entries=entries),
    "_replace units": lambda entries, units, tmp: KnowledgeBase(entries)._replace(units=units),
    "pickle": lambda entries, units, tmp: pickle.loads(pickle.dumps(KnowledgeBase(entries, units))),
    "load_kb": _via_load_kb,
    "import_tsv": _via_import_tsv,
    "mined candidates": _via_mining,
}


def assert_consistent(kb):
    """The derived tables of ``kb`` agree with its fields."""

    assert [e.concept_id for e in kb.entries] == list(kb.by_id)
    assert all(kb.by_id[e.concept_id] is e for e in kb.entries)
    hits, stack = [], [kb.term_trie]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        for entry, term in node.hits:
            assert kb.by_id[entry.concept_id] is entry
            hits.append((entry.concept_id, term))
            assert (entry, term) in kb.lookup_terms(term)
    assert sorted(hits) == sorted((e.concept_id, t) for e in kb.entries for t in e.terms)
    for entry in kb.entries:
        assert len(set(entry.expected_units)) == len(entry.expected_units)
        assert all(kb.normalize_unit(u) in (u, None) for u in entry.expected_units)
    assert all(kb.normalize_unit(c) == c for c in kb.unit_table.values())
    assert kb.units.items() <= kb.unit_table.items()
    words = kb.term_trie.children
    assert kb.first_words == set(words) | {w + "s" for w in words}
    assert KnowledgeBase(kb.entries, kb.units) == kb


class TestEveryConstructionPath:
    @pytest.mark.parametrize("path", list(CONSTRUCTION_PATHS))
    @given(entries=path_entries(), units=st.sampled_from(PATH_UNIT_TABLES))
    @settings(max_examples=25, deadline=None)
    def test_kb_is_consistent(self, path, entries, units):
        with tempfile.TemporaryDirectory() as tmp:
            kb = CONSTRUCTION_PATHS[path](entries, units, Path(tmp))
        assert_consistent(kb)
        if path in ("constructor", "_make", "_replace units", "pickle", "load_kb"):
            assert kb == KnowledgeBase(entries, units)


class TestNormalizeUnit:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("kg/m2", "kg/m^2"),
            ("kg/m^2", "kg/m^2"),
            ("kg per m2", "kg/m^2"),
            ("mmHg", "mmHg"),
            ("mm Hg", "mmHg"),
            ("banana", None),
            ("days", "day"),
            ("%", "%"),
        ],
    )
    def test_examples(self, surface, expected):
        assert normalize_unit(surface) == expected

    def test_kb_file_can_extend_unit_table(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {"torr": "mmHg"}, "entries": [],
        }))
        kb = load_kb(path)
        assert kb.normalize_unit("Torr") == "mmHg"

    def test_whitespace_and_case_in_kb_unit_keys(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {"Torr  ": "mmHg", " Cm  H2O": "cmH2O"},
            "entries": [],
        }))
        kb = load_kb(path)
        assert kb.normalize_unit("Torr") == "mmHg"
        assert kb.normalize_unit(" TORR ") == "mmHg"
        assert kb.normalize_unit("cm h2o") == "cmH2O"
        assert kb.normalize_unit("cm\th2o") == "cmH2O"
        assert kb.normalize_unit(" ") is None

    def test_whitespace_expected_unit_matches(self):
        kb = KnowledgeBase(
            [KbEntry("C1", "pressure", expected_units=(" mm Hg",))]
        )
        entry = kb.by_id.get("C1")
        assert kb.normalize_unit(" mm Hg") == "mmHg"
        assert entry.expected_units == ("mmHg",)
        sentence = split_records("pressure < 30 mm  Hg", SplitMode.LINES)[0]
        (attribute,) = extract_attributes(sentence, kb)
        assert attribute.unit == "mmHg"
        assert terms(entry, attribute)[1] == 1.0  # unit term matches

    def test_every_table_key_is_its_own_unit_key(self):
        kb = KnowledgeBase((), units={" Per  Cent ": "%", "TORR": "mmHg"})
        assert DEFAULT_UNIT_TABLE.items() <= kb.unit_table.items()
        assert all(unit_key(k) == k for k in kb.unit_table)

    def test_bundled_kb_serializes_to_its_own_file(self):
        path = bundled_kb_path()
        assert kb_to_dict(load_kb(path)) == json.loads(path.read_text(encoding="utf-8"))

    def test_extra_units_survive_round_trip(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {"torr": "mmHg"}, "entries": [],
        }))
        kb = load_kb(path)
        out = tmp_path / "copy.json"
        save_kb(kb, out)
        assert load_kb(out) == kb


class TestLookup:
    def test_synonym_abbreviation(self, mini_kb):
        hits = mini_kb.lookup_terms("SSRIs")
        assert len(hits) == 1
        entry, term = hits[0]
        assert entry.preferred_term == "selective serotonin reuptake inhibitor"
        assert term == "SSRIs"

    def test_ecg_lowercase(self, mini_kb):
        hits = mini_kb.lookup_terms("ecg")
        assert len(hits) == 1
        entry, term = hits[0]
        assert entry.concept_id == "C0013798"
        assert term == "ECG"

    def test_unknown_term(self, mini_kb):
        assert mini_kb.lookup_terms("xyzzy") == ()

    def test_terms_with_irregular_whitespace_match(self):
        kb = KnowledgeBase([KbEntry("C1", "blood  pressure", synonyms=("BP ",))])
        for phrase in ("blood pressure", "blood  pressure", " Blood\tPressure", "BP"):
            assert [e.concept_id for e in entries_of(kb, phrase)] == ["C1"], phrase
        sentence = split_records(
            "blood  pressure < 140/90 mmHg, BP high", SplitMode.LINES
        )[0]
        mentions = recognize_entities(sentence, kb)
        assert [(m.surface, m.concept_id) for m in mentions] == [
            ("blood  pressure", "C1"), ("BP", "C1"),
        ]

    def test_synonym_duplicates_use_the_term_key(self):
        with pytest.raises(MalformedKb):
            KbEntry("C1", "heart rate", synonyms=("Heart  Rate",))
        with pytest.raises(MalformedKb):
            KbEntry("C1", "heart rate", synonyms=("HR", " hr"))
        # the key is the tokens, so spacing between tokens does not count
        with pytest.raises(MalformedKb, match="duplicate synonym: 'BP\\(x\\)'"):
            KbEntry("C1", "blood pressure", synonyms=("BP (x)", "BP(x)"))
        with pytest.raises(MalformedKb, match="blank synonym"):
            KbEntry("C1", "blood pressure", synonyms=(" \t",))

    def test_term_key_is_the_casefolded_tokens(self):
        assert term_key(" Blood\tPressure (BP)") == ("blood", "pressure", "(", "bp", ")")
        assert term_key("type 2 diabetes") == ("type", "2", "diabetes")
        assert term_key("Sjögren") == ("sj", "ö", "gren")
        assert term_key("  ") == ()

    def test_terms_of_any_token_shape_look_up(self):
        kb = KnowledgeBase([KbEntry("C1", "type 2 diabetes", synonyms=("BP (x)",))])
        for phrase in ("TYPE 2  diabetes", "bp(X)", " BP ( x ) "):
            assert [e.concept_id for e in entries_of(kb, phrase)] == ["C1"], phrase
        assert kb.lookup_terms("type 2") == ()

    def test_case_insensitivity_property(self, mini_kb):
        for entry in mini_kb.entries:
            for term in entry.terms:
                assert mini_kb.lookup_terms(term.upper()) == mini_kb.lookup_terms(term)


class TestScoreCompatibility:
    def test_full_match_scores_one(self):
        value, *matched = terms(BLOOD_PRESSURE, RATIO_MMHG)
        assert matched == [1.0, 1.0, 1.0]
        assert value == pytest.approx(1.0)

    def test_unitless_range_scores_below_matching_ratio(self):
        high = terms(BLOOD_PRESSURE, RATIO_115_75)[0]
        low = terms(BLOOD_PRESSURE, RANGE_11_25)[0]
        assert low < high

    def test_wrong_unit_entry_scores_below_right_unit_entry(self):
        # Hand enumeration of the weight formula:
        #   blood pressure: unit 1*0.6 + pattern 1*0.25 + range 1*0.15 = 1.0
        #   body weight:    unit 0*0.6 + pattern 0*0.25 + range 1*0.15 = 0.15
        bp_value = terms(BLOOD_PRESSURE, RATIO_MMHG)[0]
        bw_value, bw_unit, _, _ = terms(BODY_WEIGHT, RATIO_MMHG)
        assert bw_unit != 1.0
        assert bw_value == pytest.approx(0.15)
        assert bp_value == pytest.approx(1.0)
        assert bw_value < bp_value

    def test_missing_entry_constraint_scores_neutral_share(self):
        entry = KbEntry(
            concept_id="LOCAL:bp", preferred_term="blood pressure",
            expected_units=("mmHg",), value_pattern=ValuePattern.RATIO,
        )
        value, _, _, range_term = terms(entry, RATIO_MMHG)
        assert range_term == 0.5
        assert value == pytest.approx(0.6 + 0.25 + 0.5 * 0.15)

    def test_nonnumeric_attribute_uses_pattern_term_only(self):
        value, unit_term, pattern_term, range_term = terms(BLOOD_PRESSURE, QUALIFIER)
        assert unit_term == 0.5
        assert range_term == 0.5
        assert pattern_term == 0.0
        assert value == pytest.approx(0.5 * 0.6 + 0.5 * 0.15)

    def test_value_recomputable_from_terms(self):
        w = CompatibilityWeights()
        for entry in (BLOOD_PRESSURE, BODY_WEIGHT):
            for attribute in (RATIO_MMHG, RANGE_11_25, QUALIFIER):
                value, unit_term, pattern_term, range_term = terms(entry, attribute)
                expected = (
                    w.unit * unit_term
                    + w.pattern * pattern_term
                    + w.range * range_term
                )
                assert value == pytest.approx(expected)

    def test_monotone_in_matched_terms(self):
        # adding a matching unit to an otherwise identical attribute never
        # lowers the score
        without_unit = attr(AttributeKind.RATIO, (140, 90))
        with_unit = RATIO_MMHG
        assert terms(BLOOD_PRESSURE, with_unit)[0] >= terms(BLOOD_PRESSURE, without_unit)[0]

    def test_default_weights_ordering(self):
        w = CompatibilityWeights()
        assert w.unit > w.pattern > w.range
        assert w.unit + w.pattern + w.range == pytest.approx(1.0)

    def test_bad_weights_rejected(self):
        cases = [
            ({"unit": 0.2, "pattern": 0.5, "range": 0.3}, "weights must satisfy unit > pattern > range > 0"),
            ({"unit": 0.6, "pattern": 0.3, "range": 0.2}, "weights must sum to 1"),
        ]
        for fields, message in cases:
            # on every path: the constructor, _replace and _make
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CompatibilityWeights(**fields)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CompatibilityWeights()._replace(**fields)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CompatibilityWeights._make(fields.values())


class TestImportTsv:
    def test_three_column_table(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text(
            "term\tvalue_range\tunits\n"
            "blood pressure\t90..250\tmmHg\n"
            "body weight\t\tkg, kilograms, KG\n"
        )
        kb = import_tsv(path)
        assert len(kb.entries) == 2
        bp = entries_of(kb, "blood pressure")[0]
        assert bp.value_min == 90 and bp.value_max == 250
        assert bp.expected_units == ("mmHg",)
        assert bp.concept_id.startswith("LOCAL:")
        bw = entries_of(kb, "body weight")[0]
        assert bw.expected_units == ("kg",)

    def test_term_may_hold_a_line_separator(self, tmp_path):
        # rows end at "\n" alone: str.splitlines would also break at U+2028
        path = tmp_path / "kb.tsv"
        path.write_text("term\tvalue_range\tunits\nbody\u2028weight\t\tkg\n", encoding="utf-8")
        (entry,) = import_tsv(path).entries
        assert entry.preferred_term == "body\u2028weight"

    def test_empty_file_is_an_empty_kb(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("")
        assert import_tsv(path).entries == ()

    def test_bad_range_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("term\tvalue_range\tunits\nheight\t10-20\tcm\n")
        with pytest.raises(MalformedKb):
            import_tsv(path)

    def test_bound_too_long_for_a_float_names_the_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text(f"term\tvalue_range\tunits\nheight\t1..{'9' * 400}\tcm\n")
        with pytest.raises(MalformedKb, match="value_max must be finite") as info:
            import_tsv(path)
        assert str(info.value).startswith(f"{path}:2: LOCAL:")


    def test_duplicate_concept_id_names_both_lines(self, tmp_path):
        # both terms slug to the id LOCAL:blood-pressure
        path = tmp_path / "kb.tsv"
        path.write_text(
            "term\tvalue_range\tunits\nblood pressure\t\tmmHg\n\nBlood-Pressure\t\t\n"
        )
        with pytest.raises(DuplicateConceptId) as info:
            import_tsv(path)
        assert str(info.value) == (
            f"{path}:4: duplicate concept_id: LOCAL:blood-pressure (also line 2)"
        )

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_bytes(b"term\tvalue_range\tunits\nheight\xff\t\tcm\n")
        with pytest.raises(MalformedText) as info:
            import_tsv(path)
        assert isinstance(info.value, CritexError)
        assert str(info.value).startswith(f"{path}: not valid UTF-8")


class TestMining:
    def _sentences(self, text, mode=SplitMode.PARAGRAPHS):
        return split_records(text, mode)

    def test_blood_pressure_candidate(self, paragraph_two):
        candidates = mine_kb_candidates(self._sentences(paragraph_two))
        by_term = {c.preferred_term: c for c in candidates}
        assert "blood pressure" in by_term
        bp = by_term["blood pressure"]
        assert bp.expected_units == ("mmHg",)
        assert bp.value_pattern is ValuePattern.RATIO
        assert bp.concept_id == "LOCAL:blood-pressure"

    def test_no_numbers_no_candidates(self):
        sentences = self._sentences("Patients with a history of depression.")
        assert mine_kb_candidates(sentences) == []

    def test_bmi_candidate(self, criterion_line):
        candidates = mine_kb_candidates(self._sentences(criterion_line))
        by_term = {c.preferred_term: c for c in candidates}
        assert "Body Mass Index" in by_term
        bmi = by_term["Body Mass Index"]
        assert bmi.expected_units == ("kg/m^2",)
        assert bmi.value_pattern is ValuePattern.SCALAR

    def test_duplicates_merge_units_and_widen_pattern(self):
        text = "Glucose of 100 mg/dL. Glucose of 5-8 mmol/L."
        candidates = mine_kb_candidates(self._sentences(text))
        glucose = [c for c in candidates if c.preferred_term == "Glucose"]
        assert len(glucose) == 1
        assert set(glucose[0].expected_units) == {"mg/dL", "mmol/L"}
        assert glucose[0].value_pattern is ValuePattern.ANY

    def test_unit_word_is_not_a_noun(self):
        # "mmHg" is a word to the tokenizer; mining asks the unit table itself
        sentences = self._sentences("Systolic mmHg of 140", SplitMode.LINES)
        assert mine_kb_candidates(sentences) == []

    def test_unit_word_ends_the_noun_phrase(self):
        sentences = self._sentences("Weight kg change of 5", SplitMode.LINES)
        assert [c.concept_id for c in mine_kb_candidates(sentences)] == ["LOCAL:change"]

    def test_kb_unit_spelling_is_mined_as_the_unit(self):
        kb = KnowledgeBase((), units={"torr": "mmHg"})
        sentences = self._sentences("Pressure of 140 Torr", SplitMode.LINES)
        (builtin,) = mine_kb_candidates(sentences)
        assert (builtin.concept_id, builtin.expected_units) == ("LOCAL:pressure", ())
        (mined,) = mine_kb_candidates(sentences, kb.normalize_unit)
        assert (mined.concept_id, mined.expected_units, mined.category) == (
            "LOCAL:pressure", ("mmHg",), Category.MEASUREMENT
        )

    def test_kb_unit_spelling_ends_the_noun_phrase(self):
        kb = KnowledgeBase((), units={"torr": "mmHg"})
        sentences = self._sentences("Pressure Torr of 140", SplitMode.LINES)
        assert [c.concept_id for c in mine_kb_candidates(sentences)] == ["LOCAL:pressure-torr"]
        assert mine_kb_candidates(sentences, kb.normalize_unit) == []

    def test_candidates_load_as_knowledge_base(self, paragraph_two):
        candidates = mine_kb_candidates(self._sentences(paragraph_two))
        kb = KnowledgeBase(candidates)
        assert kb_to_dict(kb)["version"] == 1
