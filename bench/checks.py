"""Output checks and the benchmark's own relation matcher.

A record's output fails when it is not valid JSON, names another record,
changes the text, or carries an entity or attribute whose offsets do not
slice the record text to its surface.  Relation F1 is exact: a predicted
(entity span, attribute span) pair is a true positive when the carried gold
has the same pair, each gold pair matching at most one prediction.
"""

from __future__ import annotations

import json
from collections import Counter

Span = tuple[int, int]
Pair = tuple[Span, Span]


class OutputError(ValueError):
    """An output that fails a check."""


def check_output(line: str, record_id: str, text: str) -> list[Pair]:
    """Validate one extended JSON output; return its relation span pairs."""

    try:
        result = json.loads(line)["result"]
        ext = result["extended"]
        entities, attributes = ext["entities"], ext["attributes"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise OutputError(f"{record_id}: not an extended output document: {exc}") from None
    if result["id"] != record_id or result["text"] != text:
        raise OutputError(f"{record_id}: output names record {result['id']!r} or alters its text")
    for mention in (*entities, *attributes):
        start, end = mention["start"], mention["end"]
        if not (0 <= start < end <= len(text)) or text[start:end] != mention["surface"]:
            raise OutputError(
                f"{record_id}: span [{start}, {end}) does not slice to {mention['surface']!r}"
            )
    if len(ext["relations"]) != len(result["relation"]):
        raise OutputError(f"{record_id}: compact and extended relation counts differ")
    pairs = []
    for compact, rel in zip(result["relation"], ext["relations"]):
        e, a = entities[rel["entity"]], attributes[rel["attribute"]]
        if (compact["entity"], compact["attribute"]) != (e["surface"], a["surface"]):
            raise OutputError(f"{record_id}: compact relation disagrees with extended payload")
        pairs.append(((e["start"], e["end"]), (a["start"], a["end"])))
    return pairs


def match_relations(pred: list[Pair], gold: list[Pair]) -> tuple[int, int, int]:
    """Exact one-to-one matching: (tp, fp, fn)."""

    tp = sum((Counter(pred) & Counter(gold)).values())
    return tp, len(pred) - tp, len(gold) - tp


def f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
