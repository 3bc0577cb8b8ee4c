"""Seeded inputs for the three benchmark workloads.

Every generated record is a concatenation of records from the bundled Brat
gold corpus.  The gold spans and relations of each part are carried into the
generated record with shifted offsets, so every workload has a reference
answer that does not come from the code under test.  The same seed always
gives the same inputs; the program under test only ever sees the generated
text (and, for ``cli-deps``, the generated JSONL and parse files).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# The seed used when none is given, and the one kept back: tune and develop
# on DEFAULT_SEED, and confirm a later performance claim on HELDOUT_SEED.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

BATCH_RECORDS = 2000
BATCH_PARTS = (1, 3)
LONG_RUNGS = (2000, 4000, 8000, 16000)
CLI_RECORDS = 600
CLI_PARTS = (2, 5)

_ENTITY_LABELS = frozenset({"Entity"})
_ATTRIBUTE_LABELS = frozenset({"Attribute", "Value", "Temporal", "Qualifier"})
_DEPRELS = ("nsubj", "obj", "amod", "nmod", "advmod", "case", "punct", "dep")

_T_LINE = re.compile(r"(T\d+)\t(\S+) (\d+) (\d+)\t(.*)")
_R_LINE = re.compile(r"(R\d+)\t(\S+) Arg1:(T\d+) Arg2:(T\d+)\s*")

Span = tuple[int, int]


@dataclass(frozen=True)
class GoldRecord:
    """A record text with its gold spans and (entity, attribute) relations."""

    id: str
    text: str
    spans: tuple[tuple[int, int, str], ...]  # (start, end, surface)
    relations: tuple[tuple[Span, Span], ...]


def read_gold_corpus(corpus_dir: Path) -> list[GoldRecord]:
    """Read ``*.txt``/``*.ann`` pairs with the benchmark's own Brat reader."""

    out = []
    for txt_path in sorted(corpus_dir.glob("*.txt")):
        text = txt_path.read_text(encoding="utf-8")
        ann_path = txt_path.with_suffix(".ann")
        ann = ann_path.read_text(encoding="utf-8") if ann_path.exists() else ""
        spans: dict[str, tuple[str, int, int, str]] = {}
        pairs = []
        for line in ann.splitlines():
            if m := _T_LINE.fullmatch(line):
                spans[m[1]] = (m[2], int(m[3]), int(m[4]), m[5])
            elif m := _R_LINE.fullmatch(line):
                pairs.append((m[3], m[4]))
        relations = []
        for a, b in pairs:
            if spans[a][0] in _ATTRIBUTE_LABELS and spans[b][0] in _ENTITY_LABELS:
                a, b = b, a
            relations.append(((spans[a][1], spans[a][2]), (spans[b][1], spans[b][2])))
        record = GoldRecord(
            id=txt_path.stem,
            text=text,
            spans=tuple((s, e, surface) for _, s, e, surface in spans.values()),
            relations=tuple(relations),
        )
        check_gold(record)
        out.append(record)
    if not out:
        raise ValueError(f"no gold records under {corpus_dir}")
    return out


def check_gold(record: GoldRecord) -> None:
    """Every gold span must slice the record text to its surface."""

    for start, end, surface in record.spans:
        if record.text[start:end] != surface:
            raise ValueError(
                f"{record.id}: gold span [{start}, {end}) is "
                f"{record.text[start:end]!r}, expected {surface!r}"
            )


def compose(record_id: str, parts: list[GoldRecord], sep: str) -> GoldRecord:
    """Join gold records with ``sep``, shifting their gold offsets."""

    spans, relations, chunks = [], [], []
    offset = 0
    for part in parts:
        if chunks:
            chunks.append(sep)
            offset += len(sep)
        chunks.append(part.text)
        spans.extend((s + offset, e + offset, surface) for s, e, surface in part.spans)
        relations.extend(
            ((es + offset, ee + offset), (as_ + offset, ae + offset))
            for (es, ee), (as_, ae) in part.relations
        )
        offset += len(part.text)
    record = GoldRecord(record_id, "".join(chunks), tuple(spans), tuple(relations))
    check_gold(record)
    return record


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"critex-bench/{workload}/{seed}")


def _deck(gold: list[GoldRecord], rng: random.Random):
    """Gold records in an endless run of seeded shuffles of the corpus.

    Drawing parts from whole shuffles keeps every workload's mix of gold
    records close to the corpus mix, so run time and F1 depend on the sizes
    asked for, not on which records the seed happens to pick.
    """

    while True:
        order = list(gold)
        rng.shuffle(order)
        yield from order


def _draw(gold, workload, seed, n, parts, sep, prefix) -> list[GoldRecord]:
    rng = _rng(workload, seed)
    deck = _deck(gold, rng)
    return [
        compose(f"{prefix}{i:05d}", [next(deck) for _ in range(rng.randint(*parts))], sep)
        for i in range(n)
    ]


def batch_records(gold: list[GoldRecord], seed: int, n: int = BATCH_RECORDS) -> list[GoldRecord]:
    """Short records: 1-3 gold records joined by a space."""

    return _draw(gold, "batch", seed, n, BATCH_PARTS, " ", "b")


def cli_records(gold: list[GoldRecord], seed: int, n: int = CLI_RECORDS) -> list[GoldRecord]:
    """Line-organized records: 2-5 gold records joined by a newline."""

    return _draw(gold, "cli-deps", seed, n, CLI_PARTS, "\n", "c")


def long_records(gold: list[GoldRecord], seed: int, rungs=LONG_RUNGS) -> list[GoldRecord]:
    """A length ladder: gold records joined by a space up to each rung's size."""

    deck = _deck(gold, _rng("long-cross", seed))
    out = []
    for target in rungs:
        parts: list[GoldRecord] = []
        size = -1
        while size < target:
            parts.append(next(deck))
            size += len(parts[-1].text) + 1
        out.append(compose(f"L{target:06d}", parts, " "))
    return out


def random_tree(n: int, rng: random.Random) -> list[int]:
    """Heads (0 = root, else 1-based) of a seeded random tree."""

    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    for k in range(1, n):
        heads[order[k] - 1] = order[rng.randrange(k)]
    return heads


def check_tree(heads: list[int]) -> None:
    """One root, heads in range, and every token reaches the root."""

    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        raise ValueError(f"tree needs exactly one root: {heads}")
    for i in range(1, n + 1):
        seen = set()
        node = i
        while node != 0:
            if node in seen or not 0 <= heads[node - 1] <= n:
                raise ValueError(f"cycle or bad head through token {node}: {heads}")
            seen.add(node)
            node = heads[node - 1]


def dependency_trees(
    surfaces: list[list[list[str]]], seed: int
) -> list[list[list[tuple[str, int, str]]]]:
    """A random valid tree per sentence: ``[record][sentence][token]`` rows.

    ``surfaces[record][sentence]`` are the token surfaces of each sentence as
    the program tokenizes it in lines mode, which a parse file must match.
    Rows are (FORM, HEAD, DEPREL).
    """

    rng = _rng("cli-deps/trees", seed)
    out = []
    for sentences in surfaces:
        rows = []
        for forms in sentences:
            heads = random_tree(len(forms), rng)
            check_tree(heads)
            rows.append(
                [
                    (form, head, "root" if head == 0 else rng.choice(_DEPRELS))
                    for form, head in zip(forms, heads)
                ]
            )
        out.append(rows)
    return out


def write_jsonl(records: list[GoldRecord], path: Path) -> None:
    lines = [json.dumps({"id": r.id, "text": r.text}, ensure_ascii=False) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_parses(trees: list[list[list[tuple[str, int, str]]]], path: Path) -> None:
    """ID FORM HEAD DEPREL lines, a blank line after every sentence."""

    lines = []
    for sentences in trees:
        for rows in sentences:
            lines.extend(f"{i}\t{form}\t{head}\t{rel}" for i, (form, head, rel) in enumerate(rows, 1))
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
