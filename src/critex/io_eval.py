"""Structured output, gold-annotation reading, and span-level evaluation.

The compact output document has a fixed shape::

    {"result": {"id": ..., "text": ..., "relation": [
        {"entity": ..., "attribute": ...}, ...]}}

with key order id, text, relation, and entity before attribute inside each
relation object.  Surfaces are verbatim substrings of the record text; the
optional "extended" payload adds mention offsets, parsed attribute payloads,
per-relation scores and unlinked attributes, and is what the evaluator
consumes.  Gold annotations come from Brat standoff (.txt/.ann) files.

A record has two serialize paths to the same bytes.  A pipeline record
holds the pipeline's tuples (a ``_Payload``) until its ``extended`` is read
or assigned, and ``to_json`` writes its compact form straight from them,
one ``%`` template per payload; the first read of ``extended`` builds the
dicts from the same tuples.  Every other record, and every indented form,
goes through ``json``'s encoder.
"""

from __future__ import annotations

import errno
import json
import os
import re
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    DanglingRef,
    MalformedAnn,
    MalformedJsonl,
    MalformedPrediction,
    MalformedText,
    RecordMismatch,
    SpanMismatch,
)
from .floats import left_sum
from .slotted import Slotted

ENTITY_LABELS = frozenset({"Entity"})
ATTRIBUTE_LABELS = frozenset({"Attribute", "Value", "Temporal", "Qualifier"})


class RelationPair(NamedTuple):
    entity: str
    attribute: str


class _Payload(NamedTuple):
    """A pipeline record's tuples, from which its ``extended`` dict is built.

    ``offsets[i]`` is sentence ``i``'s character offset in the record;
    ``links[i]`` is attribute ``i``'s relation, or None when unlinked; and
    ``entity_index`` maps a mention's ``(sentence_index, start)`` to its
    index in ``mentions``.
    """

    offsets: list[int]
    mentions: Sequence
    attributes: Sequence
    links: Sequence
    entity_index: dict[tuple[int, int], int]


class StructuredRecord(Slotted):
    """Per-record output: id, text, and the linked relation surfaces.

    ``extended`` is a property over the private ``_extended`` slot.  The
    pipeline passes a :class:`_Payload` there, and the first read of
    ``extended`` replaces it with the dict :func:`_extended_dict` builds;
    until then :func:`to_json` writes the record straight from the tuples.
    Assigning ``extended`` stores the value as given.  A record without
    ``relations`` gets a list of its own.
    """

    __slots__ = ("id", "text", "relations", "_extended")
    _fields = ("id", "text", "relations", "extended")

    def __init__(
        self,
        id: str,
        text: str,
        relations: list[RelationPair] | None = None,
        extended: dict | None = None,
    ):
        self.id = id
        self.text = text
        self.relations = [] if relations is None else relations
        self._extended = extended

    @property
    def extended(self) -> dict | None:
        value = self._extended
        if type(value) is _Payload:
            value = self._extended = _extended_dict(*value)
        return value

    @extended.setter
    def extended(self, value: dict | None) -> None:
        self._extended = value


_EMPTY_EXTENDED = {
    "entities": [],
    "attributes": [],
    "relations": [],
    "scores": [],
    "unlinked_attributes": [],
}


def _extended_dict(offsets, mentions, attributes, links, entity_index) -> dict:
    """The ``extended`` payload of a pipeline record.

    Payload offsets are record-level: a mention's sentence offset plus its
    own.  Enum fields are read as ``_value_`` and ``_name_``, plain
    attributes, where the ``value`` and ``name`` properties run Python code
    on every read.
    """

    entity_payloads = [
        {
            "surface": surface,
            "start": offsets[index] + start,
            "end": offsets[index] + end,
            "concept_id": concept_id,
            "matched_term": matched_term,
            "sentence_index": index,
        }
        for index, start, end, surface, concept_id, matched_term in mentions
    ]
    attribute_payloads = [
        {
            "surface": surface,
            "start": offsets[index] + start,
            "end": offsets[index] + end,
            "kind": kind._value_,
            "comparator": comparator._name_ if comparator is not None else None,
            # an integral value prints as an int ("40", not "40.0")
            "values": [int(v) if float(v).is_integer() else v for v in values],
            "unit": unit,
            "time_unit": time_unit._name_ if time_unit is not None else None,
            "anchor": anchor,
            "sentence_index": index,
        }
        for (
            index, start, end, surface, kind, comparator, values, unit, time_unit, anchor
        ) in attributes
    ]
    relation_payloads = []
    unlinked = []
    for i, r in enumerate(links):
        if r is None:
            unlinked.append(attribute_payloads[i])
            continue
        entity, _, label, score = r
        relation_payloads.append(
            {
                "entity": entity_index[entity.sentence_index, entity.start],
                "attribute": i,
                "label": label,
                "score": score,
            }
        )
    return {
        "entities": entity_payloads,
        "attributes": attribute_payloads,
        "relations": relation_payloads,
        "scores": [p["score"] for p in relation_payloads],
        "unlinked_attributes": unlinked,
    }


# One encoder for every compact document.  ``json.dumps(...,
# ensure_ascii=False)`` would build an encoder per call, and the
# circular-reference check walks every container; a record's payload is a
# tree built by the pipeline, so there is no cycle to find.
_COMPACT = json.JSONEncoder(ensure_ascii=False, check_circular=False)

# The compact encoder's own string writer under ``ensure_ascii=False``, and
# its spelling of the floats that ``float.__repr__`` writes as "nan", "inf"
# and "-inf".
_string = json.encoder.encode_basestring
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# The encoding function of an indented document, one per indent.
# ``json.dumps(..., indent=...)`` builds its functions on every call, from
# ``json.encoder._make_iterencode``, and they refer to each other: one
# reference cycle per document, which ``critex annotate``, run with the
# cyclic collector off, would keep until it ends.  These are built once by
# the same (private) factory, with ``json.dumps``'s separators for an
# indent, ``ensure_ascii=False`` and, as for the compact form, no circular
# check; the indent is spelled as a string, which every version takes.
_INDENTED: dict[int | str, Callable] = {}


def _indented_json(document: dict, indent: int | str) -> str:
    encode = _INDENTED.get(indent)
    if encode is None:
        spaces = indent if isinstance(indent, str) else " " * indent
        encode = _INDENTED[indent] = json.encoder._make_iterencode(
            None, _COMPACT.default, _string, spaces, _float, ": ", ",", False, False, False
        )
    return "".join(encode(document, 0))


def _payload_json(payload: _Payload) -> str:
    """The ``"extended"`` object of a pipeline record, as the compact
    encoder writes :func:`_extended_dict`'s dict.

    Offsets and indexes are ints, which ``%s`` writes as ``int.__repr__``
    does.
    """

    offsets, mentions, attributes, links, entity_index = payload
    entities = ", ".join([
        '{"surface": %s, "start": %s, "end": %s, "concept_id": %s,'
        ' "matched_term": %s, "sentence_index": %s}'
        % (
            _string(surface), offsets[index] + start, offsets[index] + end,
            _string(concept_id), _string(matched_term), index,
        )
        for index, start, end, surface, concept_id, matched_term in mentions
    ])
    attribute_texts = [
        '{"surface": %s, "start": %s, "end": %s, "kind": %s, "comparator": %s,'
        ' "values": [%s], "unit": %s, "time_unit": %s, "anchor": %s, "sentence_index": %s}'
        % (
            _string(surface), offsets[index] + start, offsets[index] + end,
            _string(kind._value_),
            "null" if comparator is None else _string(comparator._name_),
            # an integral value prints as an int ("40", not "40.0")
            ", ".join([str(int(v)) if float(v).is_integer() else _float(v) for v in values]),
            "null" if unit is None else _string(unit),
            "null" if time_unit is None else _string(time_unit._name_),
            "null" if anchor is None else _string(anchor),
            index,
        )
        for (
            index, start, end, surface, kind, comparator, values, unit, time_unit, anchor
        ) in attributes
    ]
    relations = []
    scores = []
    unlinked = []
    for i, r in enumerate(links):
        if r is None:
            unlinked.append(attribute_texts[i])
            continue
        entity, _, label, score = r
        score = _float(score)
        scores.append(score)
        relations.append(
            '{"entity": %s, "attribute": %s, "label": %s, "score": %s}'
            % (entity_index[entity.sentence_index, entity.start], i, _string(label), score)
        )
    return (
        '{"entities": [%s], "attributes": [%s], "relations": [%s], "scores": [%s],'
        ' "unlinked_attributes": [%s]}'
        % (
            entities, ", ".join(attribute_texts), ", ".join(relations), ", ".join(scores),
            ", ".join(unlinked),
        )
    )


def _record_json(record: StructuredRecord, payload: _Payload | None) -> str:
    """The compact document of a pipeline record, with ``payload`` as its
    ``"extended"`` object unless None."""

    relation = ", ".join([
        '{"entity": %s, "attribute": %s}' % (_string(p.entity), _string(p.attribute))
        for p in record.relations
    ])
    if payload is None:
        return '{"result": {"id": %s, "text": %s, "relation": [%s]}}' % (
            _string(record.id), _string(record.text), relation,
        )
    return '{"result": {"id": %s, "text": %s, "relation": [%s], "extended": %s}}' % (
        _string(record.id), _string(record.text), relation, _payload_json(payload),
    )


def to_json(record: StructuredRecord, extended: bool = False, indent: int | None = None) -> str:
    """Serialize a record; key order is fixed for byte-stable output.

    There are two paths to the same bytes.  The compact form
    (``indent=None``) of a pipeline record whose ``extended`` has not been
    read or assigned is written straight from its tuples: one ``%``
    template per payload, with the encoder's own string writer and its
    spelling of floats (:func:`_record_json`).  Every other record, and
    every ``indent`` form, goes through ``json``'s encoder.

    No form checks for circular references: a hand-built ``extended``
    that contains itself raises ``RecursionError``.  No form makes a
    reference cycle either (see :func:`_indented_json`).
    """

    payload = record._extended
    if indent is None and type(payload) is _Payload:
        return _record_json(record, payload if extended else None)
    result = {
        "id": record.id,
        "text": record.text,
        "relation": [
            {"entity": p.entity, "attribute": p.attribute} for p in record.relations
        ],
    }
    if extended:
        result["extended"] = record.extended if record.extended is not None else dict(_EMPTY_EXTENDED)
    if indent is None:
        return _COMPACT.encode({"result": result})
    return _indented_json({"result": result}, indent)


def from_json(text: str) -> StructuredRecord:
    return _from_result(json.loads(text)["result"])


def _from_result(result: dict) -> StructuredRecord:
    return StructuredRecord(
        id=result["id"],
        text=result["text"],
        relations=[
            RelationPair(entity=r["entity"], attribute=r["attribute"])
            for r in result.get("relation", [])
        ],
        extended=result.get("extended"),
    )


# ---------------------------------------------------------------------------
# Brat standoff gold annotations
# ---------------------------------------------------------------------------

class GoldSpan(NamedTuple):
    ref: str
    label: str
    start: int
    end: int
    surface: str


class GoldRelation(NamedTuple):
    ref: str
    label: str
    entity: GoldSpan
    attribute: GoldSpan


class GoldAnnotation(Slotted):
    """One record's gold spans and relations, which :func:`read_brat`
    appends to; each list omitted is a list of its own."""

    __slots__ = _fields = ("record_id", "text", "entities", "attributes", "relations")

    def __init__(
        self,
        record_id: str,
        text: str,
        entities: list[GoldSpan] | None = None,
        attributes: list[GoldSpan] | None = None,
        relations: list[GoldRelation] | None = None,
    ):
        self.record_id = record_id
        self.text = text
        self.entities = [] if entities is None else entities
        self.attributes = [] if attributes is None else attributes
        self.relations = [] if relations is None else relations


_T_LINE_RE = re.compile(r"(T\d+)\t(\S+) (\d+) (\d+)\t(.*)")
_R_LINE_RE = re.compile(r"(R\d+)\t(\S+) Arg1:(T\d+) Arg2:(T\d+)\s*")


def read_brat(txt: str, ann: str, record_id: str = "") -> GoldAnnotation:
    """Parse Brat standoff annotations against their source text.

    Span lines ("T1\\tEntity 0 15\\tsurface") must slice the text exactly;
    relation lines ("R1\\thas_value Arg1:T1 Arg2:T2") must reference declared
    spans, one entity and one attribute.  Lines end at "\\n" (or "\\r\\n")
    alone, so a surface may hold U+2028 and the other characters at which
    ``str.splitlines`` also breaks.
    """

    gold = GoldAnnotation(record_id=record_id, text=txt)
    spans: dict[str, GoldSpan] = {}
    pending_relations: list[tuple[str, str, str, str]] = []
    for lineno, line in enumerate(ann.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip() or line[0] in "#AEN":
            continue  # notes and attribute/event lines are not used here
        if line.startswith("T"):
            m = _T_LINE_RE.fullmatch(line)
            if not m:
                raise MalformedAnn(f"line {lineno}: cannot parse span line: {line!r}")
            ref, label, start, end, surface = (
                m.group(1), m.group(2), int(m.group(3)), int(m.group(4)), m.group(5),
            )
            if start >= end or end > len(txt):
                raise SpanMismatch(
                    ref,
                    f"{ref}: span [{start}, {end}) is empty or ends past the text"
                    f" of {len(txt)} characters",
                )
            if txt[start:end] != surface:
                raise SpanMismatch(
                    ref,
                    f"{ref}: surface {surface!r} != text[{start}:{end}] {txt[start:end]!r}",
                )
            span = GoldSpan(ref, label, start, end, surface)
            if label in ENTITY_LABELS:
                gold.entities.append(span)
            elif label in ATTRIBUTE_LABELS:
                gold.attributes.append(span)
            else:
                raise MalformedAnn(f"line {lineno}: unknown span label {label!r}")
            spans[ref] = span
        elif line.startswith("R"):
            m = _R_LINE_RE.fullmatch(line)
            if not m:
                raise MalformedAnn(f"line {lineno}: cannot parse relation line: {line!r}")
            pending_relations.append((m.group(1), m.group(2), m.group(3), m.group(4)))
        else:
            raise MalformedAnn(f"line {lineno}: unknown line type: {line!r}")

    entity_refs = {s.ref for s in gold.entities}
    attribute_refs = {s.ref for s in gold.attributes}
    for ref, label, arg1, arg2 in pending_relations:
        for arg in (arg1, arg2):
            if arg not in spans:
                raise DanglingRef(ref, f"{ref}: argument {arg} is not declared")
        if arg1 in entity_refs and arg2 in attribute_refs:
            entity, attribute = spans[arg1], spans[arg2]
        elif arg2 in entity_refs and arg1 in attribute_refs:
            entity, attribute = spans[arg2], spans[arg1]
        else:
            raise DanglingRef(
                ref, f"{ref}: arguments must pair one entity with one attribute"
            )
        gold.relations.append(GoldRelation(ref, label, entity, attribute))
    return gold


def read_text(path: Path) -> str:
    """A file's UTF-8 text; undecodable bytes raise :class:`MalformedText`."""

    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedText(f"{path}: not valid UTF-8: {exc}") from None


def read_brat_dir(path: str | Path) -> list[GoldAnnotation]:
    """Read all .txt/.ann sibling pairs in a directory, sorted by id.

    A ``.txt`` without its ``.ann`` has no annotations.  A missing path or
    one that is not a directory raises the matching :class:`OSError`, and an
    ``.ann`` without its ``.txt`` raises :class:`MalformedAnn`.
    """

    path = Path(path)
    if not path.is_dir():
        code = errno.ENOTDIR if path.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(path))
    for ann_path in sorted(path.glob("*.ann")):
        if not ann_path.with_suffix(".txt").exists():
            raise MalformedAnn(f"{ann_path}: no {ann_path.stem}.txt beside it")
    out = []
    for txt_path in sorted(path.glob("*.txt")):
        ann_path = txt_path.with_suffix(".ann")
        ann_text = read_text(ann_path) if ann_path.exists() else ""
        out.append(read_brat(read_text(txt_path), ann_text, record_id=txt_path.stem))
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class ElementType(Enum):
    ENTITY = "ENTITY"
    ATTRIBUTE = "ATTRIBUTE"
    RELATION = "RELATION"


class MatchMode(Enum):
    EXACT = "EXACT"
    OVERLAP = "OVERLAP"


class Counts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


class EvalReport(NamedTuple):
    """Micro counts and macro averages per element type and match mode."""

    micro: dict[tuple[ElementType, MatchMode], Counts]
    macro: dict[tuple[ElementType, MatchMode], tuple[float, float, float]]
    n_records: int

    def counts(self, etype: ElementType, mode: MatchMode) -> Counts:
        return self.micro[(etype, mode)]

    def to_dict(self) -> dict:
        out: dict = {"records": self.n_records, "micro": {}, "macro": {}}
        for etype, mode in sorted(self.micro, key=lambda k: (k[0].value, k[1].value)):
            c = self.micro[etype, mode]
            p, r, f1 = self.macro[etype, mode]
            out["micro"].setdefault(etype.value, {})[mode.value] = {
                "precision": c.precision, "recall": c.recall, "f1": c.f1,
                "tp": c.tp, "fp": c.fp, "fn": c.fn,
            }
            out["macro"].setdefault(etype.value, {})[mode.value] = {
                "precision": p, "recall": r, "f1": f1,
            }
        return out


# what evaluation matches: an item's spans (one, or a relation's entity and
# attribute) and its label (None but for relations)
_Item = tuple[tuple[tuple[int, int], ...], str | None]


def _spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _max_matching(edges: Sequence[Sequence[int]], n_gold: int) -> int:
    """Size of a maximum matching of predictions to gold items.

    ``edges[i]`` lists the gold items prediction ``i`` may match.  Each
    prediction in turn looks for an augmenting path (Kuhn's algorithm),
    searched breadth-first so that no recursion limit applies.
    """

    owner = [-1] * n_gold  # the prediction matched to each gold item
    mate = [-1] * len(edges)  # the gold item matched to each prediction
    size = 0
    for root in range(len(edges)):
        reached_from: dict[int, int] = {}  # gold item -> prediction
        frontier = [root]
        free = -1
        while frontier and free < 0:
            following = []
            for i in frontier:
                for j in edges[i]:
                    if j in reached_from:
                        continue
                    reached_from[j] = i
                    if owner[j] < 0:
                        free = j
                        break
                    following.append(owner[j])
                if free >= 0:
                    break
            frontier = following
        if free < 0:
            continue
        j = free
        while j >= 0:  # flip the path's edges back to the root
            i = reached_from[j]
            previous = mate[i]
            mate[i], owner[j] = j, i
            j = previous
        size += 1
    return size


def _edges(
    pred: Sequence[_Item], gold: Sequence[_Item], match_labels: bool
) -> dict[MatchMode, list[list[int]]]:
    """Each match mode's edges: the gold items each prediction may match.

    Items are ``(spans, label)``.  EXACT matches equal spans; OVERLAP
    matches equal spans or spans that overlap one by one, a superset, so
    EXACT tp <= OVERLAP tp.  Labels must be equal only under
    ``match_labels``.  Each pair is compared once for both modes.
    """

    exact, overlap = [], []
    for spans, label in pred:
        same, near = [], []
        for j, (gold_spans, gold_label) in enumerate(gold):
            if match_labels and label != gold_label:
                continue
            if spans == gold_spans:
                same.append(j)
                near.append(j)
            elif all(map(_spans_overlap, spans, gold_spans)):
                near.append(j)
        exact.append(same)
        overlap.append(near)
    return {MatchMode.EXACT: exact, MatchMode.OVERLAP: overlap}


def _items(entities, attributes, relations) -> dict[ElementType, list[_Item]]:
    """Each element type's items from entity and attribute spans and
    ``(entity span, attribute span, label)`` relations.
    """

    return {
        ElementType.ENTITY: [((span,), None) for span in entities],
        ElementType.ATTRIBUTE: [((span,), None) for span in attributes],
        ElementType.RELATION: [((e, a), label) for e, a, label in relations],
    }


def extended_problem(ext) -> str | None:
    """Why an ``extended`` payload cannot be evaluated, or None if it can.

    Offsets and relation indexes must be ``int``s: JSON's ``true`` and
    ``false``, which Python reads as ``bool``s, are neither.
    """

    if ext is None:
        return "no 'extended' payload (use annotate --extended)"
    if not isinstance(ext, dict):
        return "'extended' must be an object"
    for key in ("entities", "attributes", "relations"):
        if not isinstance(ext.get(key), list) or not all(isinstance(x, dict) for x in ext[key]):
            return f"'extended' needs a list of objects {key!r}"
    for key in ("entities", "attributes"):
        if not all(type(m.get("start")) is int and type(m.get("end")) is int for m in ext[key]):
            return f"{key!r} items need integer 'start' and 'end'"
    for r in ext["relations"]:
        if "label" not in r:
            return "relations need a 'label'"
        for key, pool in (("entity", "entities"), ("attribute", "attributes")):
            index = r.get(key)
            if type(index) is not int or not 0 <= index < len(ext[pool]):
                return f"relation {key} index {index!r} is not in {pool!r}"
    return None


def _prediction_items(ext: dict) -> dict[ElementType, list[_Item]]:
    entities = [(e["start"], e["end"]) for e in ext["entities"]]
    attributes = [(a["start"], a["end"]) for a in ext["attributes"]]
    relations = [
        (entities[r["entity"]], attributes[r["attribute"]], r["label"])
        for r in ext["relations"]
    ]
    return _items(entities, attributes, relations)


def _gold_items(gold: GoldAnnotation) -> dict[ElementType, list[_Item]]:
    return _items(
        [(s.start, s.end) for s in gold.entities],
        [(s.start, s.end) for s in gold.attributes],
        [
            ((r.entity.start, r.entity.end), (r.attribute.start, r.attribute.end), r.label)
            for r in gold.relations
        ],
    )


def evaluate(
    predictions: Sequence[StructuredRecord],
    gold: Sequence[GoldAnnotation],
    mode: MatchMode | None = None,
    match_labels: bool = False,
) -> EvalReport:
    """Span-level precision/recall/F1, aligned by record id.

    Every prediction needs a string id and an extended payload that
    :func:`extended_problem` accepts, or :class:`MalformedPrediction`
    names the first record without them.  Prediction ids must be unique and
    equal the gold ids, or :class:`RecordMismatch` is raised.
    ``mode=None`` evaluates both EXACT and OVERLAP.  Each gold item
    matches at most one prediction, and the true positives are a maximum
    matching over :func:`_edges`: a greedy pass can let one prediction
    take the only gold item another could match.  Micro metrics pool
    counts over records; macro metrics average per-record scores.
    """

    for record in predictions:
        if isinstance(record.id, str):
            problem = extended_problem(record.extended)
        else:
            problem = "'id' must be a string"
        if problem:
            raise MalformedPrediction(f"record {record.id}: {problem}")
    pred_by_id = {r.id: r for r in predictions}
    if len(pred_by_id) != len(predictions):
        repeated = sorted(k for k, n in Counter(r.id for r in predictions).items() if n > 1)
        raise RecordMismatch(f"duplicate prediction ids: {repeated}")
    gold_by_id = {g.record_id: g for g in gold}
    if set(pred_by_id) != set(gold_by_id):
        missing = set(gold_by_id) ^ set(pred_by_id)
        raise RecordMismatch(f"prediction/gold ids differ: {sorted(missing)}")
    modes = [mode] if mode is not None else [MatchMode.EXACT, MatchMode.OVERLAP]

    per_record: dict[tuple[ElementType, MatchMode], list[Counts]] = {}
    for record_id in sorted(pred_by_id):
        pred_items = _prediction_items(pred_by_id[record_id].extended)
        gold_items = _gold_items(gold_by_id[record_id])
        for etype in ElementType:
            p, g = pred_items[etype], gold_items[etype]
            edges = _edges(p, g, match_labels)
            for m in modes:
                tp = _max_matching(edges[m], len(g))
                c = Counts(tp=tp, fp=len(p) - tp, fn=len(g) - tp)
                per_record.setdefault((etype, m), []).append(c)

    micro, macro = {}, {}
    for key, counts_list in per_record.items():
        n = len(counts_list)
        micro[key] = sum(counts_list, Counts())
        macro[key] = (
            left_sum(c.precision for c in counts_list) / n,
            left_sum(c.recall for c in counts_list) / n,
            left_sum(c.f1 for c in counts_list) / n,
        )
    return EvalReport(micro=micro, macro=macro, n_records=len(pred_by_id))


# ---------------------------------------------------------------------------
# Corpus reading
# ---------------------------------------------------------------------------

def read_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Read records as (id, text) pairs.

    A directory is one ``*.txt`` file per record (id = filename stem); a
    JSONL file carries one ``{"id", "text"}`` object per line (see
    :func:`_jsonl_records`).  A plain text file is treated as a single
    record.
    """

    path = Path(path)
    if path.is_dir():
        return [(p.stem, read_text(p)) for p in sorted(path.glob("*.txt"))]
    if path.suffix != ".jsonl":
        return [(path.stem, read_text(path))]
    return [(doc["id"], doc["text"]) for _, _, doc in _jsonl_records(path)]


def read_predictions(path: str | Path) -> list[StructuredRecord]:
    """Read ``annotate --extended --format jsonl`` output, one record per line.

    Each line's ``result`` is read as :func:`read_corpus` reads a JSONL
    record, and needs an extended payload that :func:`extended_problem`
    accepts.
    """

    records = []
    for lineno, where, result in _jsonl_records(Path(path), "result"):
        problem = extended_problem(result.get("extended"))
        if problem:
            raise MalformedJsonl(lineno, f"{where}: {problem}")
        try:
            records.append(_from_result(result))
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedJsonl(lineno, f"{where}: not an annotate record: {exc!r}") from None
    return records


def _jsonl_records(path: Path, key: str | None = None) -> Iterator[tuple[int, str, dict]]:
    """``(lineno, where, record)`` for each non-blank line of a JSONL file.

    Lines end at "\\n" alone, JSONL's line break (:func:`read_text` has
    turned "\\r\\n" into it): ``to_json`` writes U+2028, and the other
    characters at which ``str.splitlines`` also breaks, raw inside a string.

    ``record`` is the line's object, or its ``key`` member when ``key`` is
    given; it needs ``id`` and ``text``, both strings, and an id may occur
    on one line only.  ``where`` is ``"PATH: line N"``, which starts every
    :class:`MalformedJsonl` message.
    """

    first_line: dict[str, int] = {}  # record id -> line it first appeared on
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedJsonl(lineno, f"{where}: invalid JSON: {exc}") from None
        if key is not None and isinstance(record, dict):
            record = record.get(key)
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise MalformedJsonl(lineno, f"{where}: {key or 'object'} needs 'id' and 'text'")
        for name in ("id", "text"):
            if not isinstance(record[name], str):
                raise MalformedJsonl(lineno, f"{where}: {name!r} must be a string")
        seen = first_line.setdefault(record["id"], lineno)
        if seen != lineno:
            raise MalformedJsonl(
                lineno, f"{where}: duplicate record id {record['id']!r} (also on line {seen})"
            )
        yield lineno, where, record
