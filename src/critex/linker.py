"""Entity-attribute linking via a mixture of two probability signals.

Each attribute is linked on its own, once, by :meth:`_Competitors.link`.
It lists the entities competing for the attribute, in mention order, with
one syntactic distance per entity; knowledge-base compatibility gives
``p_sup``, the softmin of the distances gives ``p_dep``, and each entity
scores the convex mixture ``theta * p_sup + (1 - theta) * p_dep``.  The
best entity wins; ties break by smaller distance, then nearer character
offset, then leftmost position.  The winner becomes a :class:`Relation`
only at or above ``min_score``.  An entity may win several attributes, an
attribute links to at most one entity.

Eligibility criteria often pair one entity with one attribute.  An attribute
with at most one competitor is decided without scoring: when no other
sentence competes and its sentence holds at most one mention, it has no
competitor (no mention, or the mention's span holds it) or exactly one.  A
lone competitor's ``p_sup`` is its compatibility over itself, ``r / r``, or
the uniform ``1 / 1`` when ``r`` is 0, and its ``p_dep`` is its softmin
weight ``exp(0) = 1.0`` over itself; both are exactly 1.0, whatever ``r``
and the distance.  So it scores ``theta + (1 - theta)``, which rounds to
exactly 1.0 for every ``theta`` in ``[0, 1]``, and its distance, clause
index and compatibility are never computed.  The relation is the one of
scoring it, bit for bit.

Under cross-sentence linking every entity of the record competes, but only
a few can win, and only those are scored; the relation stays bit for bit
the one of scoring every entity:

- ``p_dep`` divides each softmin weight ``exp(-(d - d_min) / tau)`` by the
  total over all competitors, added left to right
  (:func:`~critex.floats.left_sum`, the same on every Python): the mentions
  ahead of the attribute's sentence, its own sentence's, then those behind.
  Most entities of a long record lie so far from an attribute that adding
  their weight leaves the total unchanged, so the total needs only the
  softmin window.  Ahead, that is the mentions whose weight is not 0.0.
  Behind, the nearest competitor's weight of exactly 1.0 is in the total
  before any weight below ``2**-53``, half a unit in the last place of
  1.0, is added, so such a weight rounds away; the window keeps the
  mentions behind that weigh at least ``2**-53``;
- the mixed score grows with ``p_sup``, the same for every mention of one
  concept, and with the weight, which does not grow as a mention gets
  farther from the attribute's sentence on either side.  Among one
  concept's mentions outside that sentence, the nearest thus scores
  highest and wins the tie-break, which prefers the smaller distance and
  then the earlier sentence; a cross-sentence character gap is infinite,
  so of the mentions ahead at that distance the leftmost wins.  The
  candidates scored are the attribute's own-sentence competitors and, for
  each concept, the nearer of its nearest mentions ahead and behind, the
  one ahead at equal distances: at most one mention per concept, whatever
  the record's length;
- the ``p_sup`` total still sums every competitor in mention order;
  attributes whose competitors are every mention of the record share that
  ``p_sup`` when they share the shape, unit and values that compatibility
  reads.

Every setting (``theta``, ``min_score``, the compatibility ``weights``, the
softmin temperature ``tau`` and the ``boundary_penalty`` of distances)
comes from the one :class:`~critex.pipeline.PipelineConfig`, which
validates them when it is created.

The routine works on plain lists built once per record and builds no
object per entity-attribute pair, so a long record's linking costs each
attribute one weight per mention of its window plus one candidate per
distinct concept.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .attributes import AttributeKind, AttributeMention, attribute_shape
from .entities import EntityMention
from .errors import ParseMismatch
from .floats import left_sum
from .kb import CompatibilityWeights, KnowledgeBase, compatibility_terms
from .segmentation import SentenceRecord
from .syntax import (
    ClauseIndex,
    DependencyParse,
    heuristic_distance,
    path_distances,
    softmin_weights,
)

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig


class Relation(NamedTuple):
    """A directed link from an entity to its attribute."""

    entity: EntityMention
    attribute: AttributeMention
    label: str
    score: float


def relation_label(attribute: AttributeMention) -> str:
    if attribute.kind in (AttributeKind.TEMPORAL, AttributeKind.FREQUENCY):
        return "has_temporal"
    if attribute.kind is AttributeKind.QUALIFIER:
        return "has_qualifier"
    return "has_value"


def _p_sup(
    attribute: AttributeMention,
    competitors: Sequence[str],
    kb: KnowledgeBase,
    weights: CompatibilityWeights,
) -> dict[str, float]:
    """Normalized compatibility of each competing concept with one attribute.

    ``competitors`` holds the competitors' concept ids in mention order.
    The attribute is shared, so compatibility depends on the concept alone:
    each distinct concept is scored once, and the result maps a concept id
    to the ``p_sup`` of every competitor that carries it.  Raw
    compatibilities are normalized by their total over all competitors,
    summed in mention order; when that total is zero the distribution falls
    back to uniform.  Every competitor is a mention that ``kb``'s term
    trie found, so its concept is in ``kb.by_id``.
    """

    shape = attribute_shape(attribute)
    by_id = kb.by_id
    raw = {
        concept_id: compatibility_terms(by_id[concept_id], attribute, shape, weights)[0]
        for concept_id in dict.fromkeys(competitors)
    }
    total = left_sum(map(raw.__getitem__, competitors))
    if total > 0:
        return {c: r / total for c, r in raw.items()}
    return dict.fromkeys(raw, 1.0 / len(competitors))


def _holds(e: EntityMention, a: AttributeMention) -> bool:
    """True when ``e``'s span holds ``a``'s; such an entity does not compete."""

    return e.start <= a.start and a.end <= e.end


def _mix(
    sup: Iterable[float], dep: Iterable[float], theta: float, total: float
) -> list[float]:
    """Convex mixture ``theta * p_sup + (1 - theta) * p_dep``, entity by entity.

    ``p_dep`` is ``dep`` divided by ``total``, so softmin weights can be
    mixed as they are normalized.
    """

    rest = 1.0 - theta
    return [theta * s + rest * (d / total) for s, d in zip(sup, dep)]


def _char_gap(e: EntityMention, a: AttributeMention) -> float:
    if e.sentence_index != a.sentence_index:
        return math.inf
    if e.end <= a.start:
        return a.start - e.end
    if a.end <= e.start:
        return e.start - a.end
    return 0.0


def _pick(
    attribute: AttributeMention,
    entities: Sequence[EntityMention],
    distances: Sequence[float],
    scores: list[float],
    min_score: float,
) -> Relation | None:
    """The highest-scoring entity's relation, or None below ``min_score``.

    Ties on the score break by smaller distance, then smaller character
    gap (infinite across sentences), then ``(sentence_index, start)``.
    """

    top = max(scores)
    if top < min_score:
        return None
    best = scores.index(top)
    if scores.count(top) > 1:
        best = min(
            (i for i, s in enumerate(scores) if s == top),
            key=lambda i: (
                distances[i],
                _char_gap(entities[i], attribute),
                entities[i].sentence_index,
                entities[i].start,
            ),
        )
    return Relation(
        entity=entities[best],
        attribute=attribute,
        label=relation_label(attribute),
        score=top,
    )


class _Competitors:
    """The entities competing for each attribute of one record.

    Built once per record over the mentions, which come ordered by
    ``(sentence_index, start)`` and do not overlap: their sentence indexes
    and, with cross-sentence linking, their concept ids, global token
    positions and each concept's mention indexes.  :meth:`link` links an
    attribute by scoring only the candidates of the module docstring.
    First, an attribute with at most one competitor in a sentence that no
    other sentence competes with is decided without distances, clause
    indexes or compatibility, as the module docstring tells; the same
    nesting rule (:func:`_holds`) drops a mention whose span holds the
    attribute there and in :meth:`_local`.

    The softmin window is used for the ``p_dep`` total alone.  Mentions are
    ordered and disjoint, so the cross-sentence distance never increases as
    a mention gets closer to the attribute's sentence, from either side
    (float rounding keeps the order).  The smallest distance is therefore
    among the attribute's own sentence and the two nearest mentions
    outside it, and the mentions left out of the window (ahead, weight
    exactly 0.0; behind, weight below ``2**-53``) form a prefix and a
    suffix of the mention list.  Two bisections find their ends, each
    evaluating the weight expression ``exp(-(d - d_min) / tau)``, and one
    comprehension per side weighs the mentions between, straight from the
    position lists (:meth:`_window`).

    Per attribute, the rest costs O(distinct concepts), not O(mentions):

    - ``p_sup`` once per signature.  When no entity span holds the
      attribute, every mention of the record competes, in mention order,
      and compatibility reads only the attribute's ``(attribute_shape,
      unit, values)``; attributes with the same signature share one
      ``p_sup``, computed on first use.  An attribute inside an entity span
      has one competitor fewer and computes its own.
    - One candidate per concept.  A bisection of the concept's mention
      indexes finds its nearest mention on each side, and the one at the
      smaller distance is kept, the one ahead at equal distances.  Ahead, a
      walk back over its mentions at the same distance finds the leftmost.
      Each candidate is weighed from its own distance, as scoring every
      competitor would weigh it.

    A :class:`DependencyParse` is aligned to its sentence when it is built,
    so the parse checks left here are the record's: at most one parse per
    sentence, each None or a ``DependencyParse`` with the text of the
    sentence at its index, or :class:`ParseMismatch` names that index.
    """

    def __init__(
        self,
        sentences: Sequence[SentenceRecord],
        mentions: Sequence[EntityMention],
        kb: KnowledgeBase,
        config: PipelineConfig,
        parses: Sequence[DependencyParse | None] | None,
    ):
        parses = parses or ()
        if len(parses) > len(sentences):
            n = len(sentences)
            raise ParseMismatch(
                n, f"sentence {n}: parse past the record's last sentence"
                f" ({len(parses)} parses, {n} sentences)"
            )
        for i, (sentence, parse) in enumerate(zip(sentences, parses)):
            if parse is None:
                continue
            if not isinstance(parse, DependencyParse):
                raise ParseMismatch(
                    i, f"sentence {i}: parse is a {type(parse).__name__}, not a DependencyParse"
                )
            if parse.sentence.text != sentence.text:
                raise ParseMismatch(i, f"sentence {i}: parse is aligned to another sentence")
        self._sentences = sentences
        self._clause_indexes: list[ClauseIndex | None] = [None] * len(sentences)
        self._mentions = list(mentions)
        self._sentence_of = [m.sentence_index for m in mentions]
        self._parses = parses
        self._kb = kb
        self._config = config
        self._penalty = config.boundary_penalty
        self._cross = config.cross_sentence
        # a lone competitor's score, whatever its compatibility and distance
        # (module docstring): _mix of p_sup = p_dep = 1.0, which multiplies
        # and divides by 1.0 only, so this sum is its result bit for bit
        self._lone_scores = [config.theta + (1.0 - config.theta)]
        if self._cross:
            # tokens before each sentence, read only by _position
            self._before = list(accumulate((len(s.surfaces) for s in sentences), initial=0))
            spans = [self._position(m) for m in mentions]
            self._lefts = [left for left, _ in spans]
            self._rights = [right for _, right in spans]
            self._sentence_f = [float(s) for s in self._sentence_of]  # see _position
            self._concepts = [m.concept_id for m in mentions]
            self._occurrences: dict[str, list[int]] = {}
            for i, concept_id in enumerate(self._concepts):
                self._occurrences.setdefault(concept_id, []).append(i)
            self._sup_by_signature: dict[tuple, dict[str, float]] = {}

    def _position(self, m: EntityMention | AttributeMention) -> tuple[float, float]:
        """Global token positions ``(left, right)`` of a mention's span.

        ``left`` counts the record's tokens that end at or before the span
        starts, ``right`` those that start before it ends.  The tokens
        strictly between an earlier span and a later one are then ``left``
        of the later minus ``right`` of the earlier.  Like the sentence
        indexes under cross-sentence linking, the counts are kept as floats,
        so that distances are computed in float arithmetic alone; whole
        numbers below 2**53 subtract exactly.
        """

        base = self._before[m.sentence_index]
        sentence = self._sentences[m.sentence_index]
        return (
            float(base + bisect_right(sentence.ends, m.start)),
            float(base + bisect_left(sentence.starts, m.end)),
        )

    def _span(self, a: AttributeMention) -> tuple[int, int, bool]:
        """``lo, hi, others`` for ``a``.

        ``lo:hi`` are the mentions of ``a``'s sentence; ``others`` tells
        whether the mentions of other sentences compete too.
        """

        sentence_of = self._sentence_of
        lo = bisect_left(sentence_of, a.sentence_index)
        hi = bisect_right(sentence_of, a.sentence_index, lo)
        return lo, hi, self._cross and (lo > 0 or hi < len(sentence_of))

    def _local(
        self, a: AttributeMention, lo: int, hi: int, others: bool
    ) -> tuple[list[EntityMention], list[float]]:
        """``local, distances`` for ``a`` and its :meth:`_span` ``lo, hi, others``.

        ``local`` lists the entities of ``a``'s sentence that compete, all
        but those whose span holds ``a``, and ``distances`` their
        distances: from the sentence's parse when one is supplied and no
        other sentence competes, otherwise from :func:`heuristic_distance`.
        """

        s_a = a.sentence_index
        local = [e for e in self._mentions[lo:hi] if not _holds(e, a)]
        parse = self._parses[s_a] if s_a < len(self._parses) else None
        if not local:
            distances = []
        elif parse is not None and not others:
            distances = path_distances(parse, a, local)
        else:
            clauses = self._clause_indexes[s_a]  # built on first use
            if clauses is None:
                clauses = self._clause_indexes[s_a] = ClauseIndex(self._sentences[s_a])
            penalty = self._penalty
            distances = [heuristic_distance(clauses, e, a, penalty) for e in local]
        return local, distances

    def _ahead(self, left: float, s_a: float, i: int) -> float:
        """Distance of mention ``i``, of a sentence before ``s_a``, to a
        span of sentence ``s_a`` at global token ``left``.

        The tokens strictly between the spans plus ``boundary_penalty`` per
        sentence boundary crossed.
        """

        return left - self._rights[i] + self._penalty * (s_a - self._sentence_f[i])

    def _behind(self, right: float, s_a: float, j: int) -> float:
        """Distance of mention ``j``, of a sentence after ``s_a``, to a span
        of sentence ``s_a`` ending at global token ``right``; counted as in
        :meth:`_ahead`.
        """

        return self._lefts[j] - right + self._penalty * (self._sentence_f[j] - s_a)

    def _window(
        self, s_a: float, left: float, right: float, lo: int, hi: int,
        distances: Sequence[float],
    ) -> tuple[list[float], list[float]]:
        """The softmin weights of the window's mentions ahead and behind.

        For a span of sentence ``s_a`` at global tokens ``left:right``,
        whose sentence holds mentions ``lo:hi`` and whose local competitors
        lie at ``distances``: the weights ``exp(-(d - d_min) / tau)``,
        ``d_min`` the smallest distance of every competitor, of mentions
        ``first:lo`` ahead, those that are not 0.0, and ``hi:last`` behind,
        those of at least ``2**-53`` (the module docstring tells why the
        others leave the total unchanged).  Computed straight from the
        position lists, with the distance expression of :meth:`_ahead` and
        :meth:`_behind`.
        """

        n, tau = len(self._mentions), self._config.tau
        ahead, behind = self._ahead, self._behind
        d_min = min(distances, default=math.inf)
        if lo:
            d_min = min(d_min, ahead(left, s_a, lo - 1))
        if hi < n:
            d_min = min(d_min, behind(right, s_a, hi))
        exp, penalty, sentence_of = math.exp, self._penalty, self._sentence_f
        first = _first_weighted(
            lambda i: exp(-(ahead(left, s_a, i) - d_min) / tau), lo, _NONZERO
        )
        last = n - _first_weighted(
            lambda k: exp(-(behind(right, s_a, n - 1 - k) - d_min) / tau), n - hi, _NOT_ABSORBED
        )
        return (
            [
                exp(-(left - r + penalty * (s_a - s) - d_min) / tau)
                for r, s in zip(self._rights[first:lo], sentence_of[first:lo])
            ],
            [
                exp(-(l - right + penalty * (s - s_a) - d_min) / tau)
                for l, s in zip(self._lefts[hi:last], sentence_of[hi:last])
            ],
        )

    def link(self, a: AttributeMention) -> Relation | None:
        """Link ``a`` to the best of its competitors, or None.

        The relation of scoring every competitor, bit for bit: the entities
        of ``a``'s sentence but those whose span holds ``a`` and, with
        cross-sentence linking, every other entity of the record, at the
        distance of :meth:`_ahead` or :meth:`_behind`.  A lone competitor
        gets its exact score, 1.0, without being scored; otherwise only the
        candidates of the class docstring are scored.  Returns None when no
        entity competes or the best score is below ``min_score``.
        """

        lo, hi, others = self._span(a)
        mentions, config = self._mentions, self._config
        if not others and hi - lo <= 1:  # at most one competitor
            if lo == hi or _holds(mentions[lo], a):
                return None
            # one entity wins no tie-break, so its distance is never read
            return _pick(a, mentions[lo:hi], (), self._lone_scores, config.min_score)
        entities, distances = self._local(a, lo, hi, others)
        if not (entities or others):
            return None
        kb = self._kb
        ids = [e.concept_id for e in entities]
        local = len(ids)
        if not others:
            sup = _p_sup(a, ids, kb, config.weights)
        else:
            concepts = self._concepts
            if local < hi - lo:  # an entity span holds a
                sup = _p_sup(a, concepts[:lo] + ids + concepts[hi:], kb, config.weights)
            else:
                signature = (attribute_shape(a), a.unit, a.values)
                sup = self._sup_by_signature.get(signature)
                if sup is None:
                    sup = self._sup_by_signature[signature] = _p_sup(
                        a, concepts, kb, config.weights
                    )
            s_a, (left, right) = float(a.sentence_index), self._position(a)
            ahead_w, behind_w = self._window(s_a, left, right, lo, hi, distances)
            ahead, behind = self._ahead, self._behind
            picks = []
            for occurrences in self._occurrences.values():
                # the last mention ahead and the first behind are the nearest
                k = bisect_left(occurrences, lo)
                j = bisect_left(occurrences, hi, k)
                d_behind = behind(right, s_a, occurrences[j]) if j < len(occurrences) else math.inf
                if k:
                    d = ahead(left, s_a, occurrences[k - 1])
                    if d <= d_behind:  # ahead wins a tie; walk back over equals
                        while k > 1 and ahead(left, s_a, occurrences[k - 2]) == d:
                            k -= 1
                        picks.append(occurrences[k - 1])
                        distances.append(d)
                        continue
                if j < len(occurrences):
                    picks.append(occurrences[j])
                    distances.append(d_behind)
            entities += map(mentions.__getitem__, picks)
            ids += map(concepts.__getitem__, picks)
        # the nearer of each concept's nearest mentions, or one at its
        # distance, is a candidate, so the smallest candidate distance is the
        # window's d_min
        weights = softmin_weights(distances, config.tau)
        total = left_sum(chain(ahead_w, weights[:local], behind_w) if others else weights)
        scores = _mix(map(sup.__getitem__, ids), weights, config.theta, total)
        return _pick(a, entities, distances, scores, config.min_score)


# A softmin weight is not 0.0 when it is at least the smallest positive float.
_NONZERO = math.ulp(0.0)
# Half a unit in the last place of 1.0: a smaller weight added to a total of
# at least 1.0 leaves it unchanged under round-to-nearest.  A weight of
# exactly 2**-53 is a tie, which round-half-to-even can round up.
_NOT_ABSORBED = 2.0**-53


def _first_weighted(weight, stop: int, floor: float) -> int:
    """The first ``i`` in ``range(stop)`` whose ``weight(i)`` is ``>= floor``.

    ``weight(i)`` must not decrease with ``i``, as a softmin weight
    ``exp(-(d - d_min) / tau)`` (the expression of
    :func:`~critex.syntax.softmin_weights`) does when ``d`` does not
    increase, so it is below ``floor`` on a prefix of the range.  Returns
    ``stop`` when every weight is below ``floor``.
    """

    if stop == 0 or weight(0) >= floor:
        return 0
    return bisect_left(range(stop), floor, 1, key=weight)
