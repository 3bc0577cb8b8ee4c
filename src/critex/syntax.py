"""Syntactic proximity between an entity and an attribute.

A distance is a plain non-negative float.  Three sources produce one: an
ingested external dependency parse, aligned to its sentence when it is
built (:class:`DependencyParse`; shortest undirected tree path between the
span head tokens, :func:`path_distances`, one search per attribute), a
built-in clause-proximity heuristic within a sentence (token gap plus a
penalty per crossed clause boundary, :func:`heuristic_distance`), and,
under cross-sentence linking, the token gap between sentences plus a
penalty per sentence boundary (measured by the linker's ``_Competitors``,
which also picks the source of each attribute's distances).  A softmin
turns the distances of the entities competing for one attribute into
weights, which the linker divides by their total to get ``p_dep``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import eq
from typing import Sequence

from .attributes import AttributeMention
from .entities import EntityMention
from .errors import CycleDetected, ParseMismatch
from .segmentation import SentenceRecord

# Boundary tokens, tested in lower case: "," and ";" lower to themselves,
# and no other surface lowers to either.
_BOUNDARY = frozenset(
    {",", ";", "and", "or", "but", "who", "whom", "which", "that", "whose"}
)

# token states while a parse's head graph is checked
_UNSEEN, _ON_PATH, _REACHES_ROOT = 0, 1, 2
# the column types DependencyParse accepts without a closer look
_INT, _STR = frozenset({int}), frozenset({str})
# the IDs and HEADs parse_blocks reads by columns, with their values: the
# numbers of a block of up to 512 tokens, spelled as str(int) spells them
_NUMBERS = {str(i): i for i in range(513)}
_ID_COLUMN = list(_NUMBERS)[1:]


@dataclass(frozen=True)
class DependencyParse:
    """One head (0 = root, else 1-based index) and label per token of
    ``sentence``, to which the parse is aligned when it is built.

    ``sentence`` must be a :class:`SentenceRecord` (else ``TypeError``)
    with one token per head, and there must be one label per head (else
    :class:`ParseMismatch`).  A head must be an ``int`` and not a ``bool``,
    and a label a ``str``; anything else is a ``TypeError`` naming the
    token (counted from 1).  The heads must form a tree.
    """

    heads: tuple[int, ...]
    labels: tuple[str, ...]
    sentence: SentenceRecord

    def __post_init__(self):
        if not isinstance(self.sentence, SentenceRecord):
            raise TypeError(f"sentence must be a SentenceRecord, got {self.sentence!r}")
        heads, labels = self.heads, self.labels
        n, m, k = len(heads), len(self.sentence.surfaces), len(labels)
        if n != m:
            raise ParseMismatch(min(n, m), f"parse has {n} tokens, sentence has {m}")
        if k != n:
            raise ParseMismatch(min(n, k), f"parse has {n} heads and {k} labels")
        # checked by columns; a loop over the tokens only names the first fault
        if not (set(map(type, heads)) <= _INT and set(map(type, labels)) <= _STR):
            for i, (head, label) in enumerate(zip(heads, labels), start=1):
                if isinstance(head, bool) or not isinstance(head, int):
                    raise TypeError(f"token {i} head must be an int, got {head!r}")
                if not isinstance(label, str):
                    raise TypeError(f"token {i} label must be a str, got {label!r}")
        if n == 0:
            return
        roots = heads.count(0)
        if roots != 1:
            raise CycleDetected(f"head graph must have exactly one root, found {roots}")
        if min(heads) < 0 or max(heads) > n or any(map(eq, heads, range(1, n + 1))):
            for i, head in enumerate(heads):
                if not (0 <= head <= n):
                    raise CycleDetected(f"token {i + 1} heads out of range: {head}")
                if head == i + 1:
                    raise CycleDetected(f"token {i + 1} heads to itself")
        # every token must reach the root: walk up from each unfinished
        # token, marking the path; a walk that meets its own path has found
        # a cycle, one that meets a finished token or the root finishes its
        # path (three-colour marking, each token walked once)
        state = [_UNSEEN] * (n + 1)
        for i in range(1, n + 1):
            if state[i]:  # reaches the root: a walk from an earlier token passed it
                continue
            path = []
            node = i
            while node != 0 and state[node] == _UNSEEN:
                state[node] = _ON_PATH
                path.append(node)
                node = heads[node - 1]
            if node != 0 and state[node] == _ON_PATH:
                raise CycleDetected(f"cycle through token {node}")
            for node in path:
                state[node] = _REACHES_ROOT


def parse_blocks(text: str) -> list[list[tuple[int, str, int, str]]]:
    """Split a token-per-line file into per-sentence blocks.

    Each line carries tab-separated ID, FORM, HEAD, DEPREL columns; blank
    lines separate sentences, and the IDs of a block run 1, 2, ... in order.
    ID and HEAD are ASCII decimal digits only: "1_0", "+2", " 3" or "٣",
    which ``int()`` would read, are a ``ParseMismatch`` naming the line.
    Lines end at "\\n" (or "\\r\\n") alone, as in :func:`~critex.io_eval.read_brat`,
    so a FORM or DEPREL may hold U+0085, U+2028 and the other characters at
    which ``str.splitlines`` also breaks; a lone "\\r" ends no line.

    A block is read by columns, from one split of its text: its lines must
    have one column count, its IDs must be "1", "2", ... and its HEADs
    "0" to "512" as ``str(int)`` writes them.  A file with any other
    block (a faulty one, or one of more than 512 tokens) is read line by
    line (:func:`_parse_lines`), which names the first faulty line.
    """

    blocks = []
    # blocks end at an empty line; a line that is only other whitespace
    # fails the column checks, so that file is read line by line
    for block in text.replace("\r\n", "\n").split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        rows = _block_rows(block)
        if rows is None:
            return _parse_lines(text)
        blocks.append(rows)
    return blocks


def _block_rows(block: str) -> list[tuple[int, str, int, str]] | None:
    """The rows of one block of non-empty lines, or None when a line is
    blank, its columns differ in count from the others' or number fewer
    than four, an ID is not the next in "1", "2", ... "512", or a HEAD is
    not a key of ``_NUMBERS``."""

    n = block.count("\n") + 1
    # each line ends in a column of its own, "\n"; with c columns per line
    # the line ends fall every c + 1 columns
    columns = block.replace("\n", "\t\n\t").split("\t")
    width, rest = divmod(len(columns) + 1, n)
    if rest or width < 5 or columns[width - 1 :: width].count("\n") != n - 1:
        return None
    if columns[0::width] != _ID_COLUMN[:n]:
        return None
    try:
        heads = list(map(_NUMBERS.__getitem__, columns[2::width]))
    except KeyError:
        return None
    return list(zip(range(1, n + 1), columns[1::width], heads, columns[3::width]))


def _parse_lines(text: str) -> list[list[tuple[int, str, int, str]]]:
    """:func:`parse_blocks` one line at a time, raising at the first bad line."""

    blocks: list[list[tuple[int, str, int, str]]] = []
    current: list[tuple[int, str, int, str]] = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        cols = line.split("\t")
        if len(cols) < 4:
            raise ParseMismatch(lineno, f"line {lineno}: expected 4 tab-separated columns")
        id_s, head_s = cols[0], cols[2]
        if not (id_s.isdigit() and head_s.isdigit() and id_s.isascii() and head_s.isascii()):
            raise ParseMismatch(
                lineno,
                f"line {lineno}: ID and HEAD must be ASCII decimal integers,"
                f" got {id_s!r} and {head_s!r}",
            )
        idx, head = int(id_s), int(head_s)
        if idx != len(current) + 1:
            raise ParseMismatch(
                lineno, f"line {lineno}: ID {idx} out of order, expected {len(current) + 1}"
            )
        current.append((idx, cols[1], head, cols[3]))
    if current:
        blocks.append(current)
    return blocks


def align_block(
    rows: Sequence[tuple[int, str, int, str]], sentence: SentenceRecord
) -> DependencyParse:
    """Align one parse block from :func:`parse_blocks` to a tokenized sentence.

    FORM must equal the token surface at every position the block and the
    sentence share; :class:`DependencyParse` then checks the token count
    and that the head graph is a tree.  The FORM column is compared with
    the surfaces in one tuple comparison; only a block that differs is
    walked to name its first differing token.
    """

    _, forms, heads, labels = zip(*rows) if rows else ((), (), (), ())
    surfaces = sentence.surfaces
    if forms[: len(surfaces)] != surfaces[: len(forms)]:
        for i, (form, surface) in enumerate(zip(forms, surfaces)):
            if form != surface:
                raise ParseMismatch(i, f"token {i}: parse FORM {form!r} != surface {surface!r}")
    return DependencyParse(heads, labels, sentence)


def _head_token_index(sentence: SentenceRecord, start: int, end: int) -> int:
    """Index of the span's head token: the last token overlapping the span.

    Tokens are ordered and disjoint, so the last one starting before the
    span ends is the only candidate: it overlaps the span when it also ends
    after the span starts.
    """

    head = bisect_left(sentence.starts, end) - 1
    if head < 0 or sentence.ends[head] <= start:
        raise ValueError(f"span [{start}, {end}) covers no token")
    return head


def path_distances(
    parse: DependencyParse, a: AttributeMention, entities: Sequence[EntityMention]
) -> list[float]:
    """Shortest undirected tree path from ``a``'s head token to each entity's.

    One search per attribute: the attribute's head token and its ancestors
    get their path lengths first; each entity's head token then climbs
    until it meets a token whose length is known, and every token it
    passed gets its length on the way back.  A token is measured at most
    once, so an attribute costs O(tokens) whatever the depth of the tree.
    """

    sentence, heads = parse.sentence, parse.heads
    node = _head_token_index(sentence, a.start, a.end) + 1
    hops: dict[int, int] = {}  # token -> path length to a's head token
    length = 0
    while node:
        hops[node] = length
        node = heads[node - 1]
        length += 1
    distances = []
    for e in entities:
        node = _head_token_index(sentence, e.start, e.end) + 1
        path = []
        while node not in hops:
            path.append(node)
            node = heads[node - 1]
        length = hops[node]
        for node in reversed(path):
            length += 1
            hops[node] = length
        distances.append(float(length))
    return distances


class ClauseIndex:
    """Token offsets and boundary-token prefix counts of one sentence.

    Built once per sentence, it lets :func:`heuristic_distance` count the
    tokens between two spans by bisection instead of a scan.  ``starts``
    and ``ends`` are the sentence's own offset columns, not copies;
    ``boundaries[k]`` counts the boundary tokens among the first ``k``,
    built from the surface column in C (``map``, ``accumulate``), with no
    Python-level loop over the tokens.
    """

    def __init__(self, sentence: SentenceRecord):
        self.starts, self.ends = sentence.starts, sentence.ends
        self.boundaries = list(
            accumulate(map(_BOUNDARY.__contains__, map(str.lower, sentence.surfaces)), initial=0)
        )


def heuristic_distance(
    clauses: ClauseIndex,
    e: EntityMention,
    a: AttributeMention,
    boundary_penalty: float,
) -> float:
    """Clause-proximity fallback: token gap plus a per-boundary penalty.

    ``clauses`` indexes the sentence both spans lie in.  Boundary tokens
    (commas, semicolons, coordinating conjunctions, relative pronouns)
    between the spans are charged ``boundary_penalty`` each; the remaining
    in-between tokens count 1 each.  Overlapping spans score 0.
    """

    left_end = min(e.end, a.end)
    right_start = max(e.start, a.start)
    if left_end > right_start:  # overlapping spans
        return 0.0
    # in between: tokens starting at or after left_end and ending at or
    # before right_start; token offsets increase, so they form one range
    lo = bisect_left(clauses.starts, left_end)
    hi = max(lo, bisect_right(clauses.ends, right_start))
    boundaries = clauses.boundaries[hi] - clauses.boundaries[lo]
    gap = hi - lo - boundaries
    return float(gap) + boundary_penalty * boundaries


def softmin_weights(distances: Sequence[float], tau: float) -> list[float]:
    """The softmin's unnormalized weights ``exp(-(d - d_min) / tau)``.

    Shifting by the smallest distance keeps the numbers stable (softmin is
    invariant to uniform shifts); the nearest entity weighs exactly 1.0,
    and a weight underflows to exactly 0.0 once ``(d - d_min) / tau``
    exceeds about 745.  ``p_dep`` is each weight over their total, added
    left to right (:func:`~critex.floats.left_sum`).
    """

    if not distances:
        raise ValueError("softmin needs at least one distance")
    if tau <= 0:
        raise ValueError("tau must be positive")
    d_min = min(distances)
    exp = math.exp
    return [exp(-(d - d_min) / tau) for d in distances]

