"""Dependency-parse ingestion, distances, and the softmin distribution."""

import math
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from critex.attributes import AttributeKind, AttributeMention, Comparator
from critex.entities import EntityMention
from critex.errors import CycleDetected, ParseMismatch
from critex.floats import left_sum
from critex.pipeline import PipelineConfig
from critex.segmentation import SplitMode, split_records
from critex.syntax import (
    ClauseIndex,
    DependencyParse,
    _head_token_index,
    align_block,
    heuristic_distance,
    parse_blocks,
    path_distances,
)

from conftest import softmin_p_dep


def sentence_of(text):
    return split_records(text, SplitMode.LINES)[0]


def entity(sentence, surface):
    start = sentence.text.index(surface)
    return EntityMention(
        sentence_index=sentence.sentence_index,
        start=start,
        end=start + len(surface),
        surface=surface,
        concept_id="LOCAL:x",
        matched_term=surface,
    )


def attribute(sentence, surface, kind=AttributeKind.RANGE, values=(1, 2)):
    start = sentence.text.index(surface)
    comparator = Comparator.LE if kind is AttributeKind.COMPARISON else None
    return AttributeMention(
        sentence_index=sentence.sentence_index,
        start=start,
        end=start + len(surface),
        surface=surface,
        kind=kind,
        comparator=comparator,
        values=tuple(values),
    )


# Hand-built tree for "Body Mass Index ≤ 40 kg/m^2": the value 40 is the
# root, "Index" is its subject with two compounds, the glyph and the unit
# attach to the value.
BMI_PARSE_TEXT = (
    "1\tBody\t3\tcompound\n"
    "2\tMass\t3\tcompound\n"
    "3\tIndex\t5\tnsubj\n"
    "4\t≤\t5\tcase\n"
    "5\t40\t0\troot\n"
    "6\tkg/m^2\t5\tnmod\n"
)


def parse_of(text, sentence, block=0):
    return align_block(parse_blocks(text)[block], sentence)


class TestIngestParse:
    def test_six_token_file(self, criterion_line):
        parse = parse_of(BMI_PARSE_TEXT, sentence_of(criterion_line))
        assert len(parse.heads) == 6
        assert parse.heads == (3, 3, 5, 5, 0, 5)
        assert parse.labels[4] == "root"

    def test_self_loop_rejected(self, criterion_line):
        bad = BMI_PARSE_TEXT.replace("3\tIndex\t5\tnsubj", "3\tIndex\t3\tnsubj")
        with pytest.raises(CycleDetected):
            parse_of(bad, sentence_of(criterion_line))

    def test_two_roots_rejected(self, criterion_line):
        bad = BMI_PARSE_TEXT.replace("3\tIndex\t5\tnsubj", "3\tIndex\t0\tnsubj")
        with pytest.raises(CycleDetected):
            parse_of(bad, sentence_of(criterion_line))

    def test_form_mismatch_reports_index(self, criterion_line):
        bad = BMI_PARSE_TEXT.replace("2\tMass\t3\tcompound", "2\tMASS\t3\tcompound")
        with pytest.raises(ParseMismatch) as info:
            parse_of(bad, sentence_of(criterion_line))
        assert info.value.index == 1

    @pytest.mark.parametrize(
        "ids,line", [((7, 9, 3, 4), 3), ((1, 3, 2, 4), 4), ((1, 2, 2, 3), 5), ((0, 1, 2, 3), 3)]
    )
    def test_ids_must_run_from_one_in_order(self, ids, line):
        rows = "".join(f"{i}\tw\t0\tdep\n" for i in ids)
        with pytest.raises(ParseMismatch, match=f"^line {line}: ID ") as info:
            parse_blocks("1\tfirst\t0\troot\n\n" + rows)
        assert info.value.index == line

    @pytest.mark.parametrize("value", ["1_0", "+2", " 3", "3 ", "٣", "²", "-1", "1.0", ""])
    @pytest.mark.parametrize("column", [0, 2])
    def test_ids_and_heads_are_ascii_digits_only(self, column, value):
        cols = ["2", "w", "1", "dep"]
        cols[column] = value
        with pytest.raises(ParseMismatch, match="^line 2: ID and HEAD must be ASCII decimal") as info:
            parse_blocks("1\tfirst\t0\troot\n" + "\t".join(cols) + "\n")
        assert info.value.index == 2

    def test_multi_digit_ids_and_heads_are_read(self):
        rows = "".join(f"{i}\tw\t{1 if i > 1 else 0}\tdep\n" for i in range(1, 13))
        (block,) = parse_blocks(rows)
        assert [(idx, head) for idx, _, head, _ in block][-3:] == [(10, 1), (11, 1), (12, 1)]

    def test_u0085_in_a_column_ends_no_line(self):
        # str.splitlines would break after "root", making an empty line
        # (a new block) and the second row line 3
        (block,) = parse_blocks("1\tA\t0\troot\u0085\n2\tB\t1\tdep\n")
        assert block == [(1, "A", 0, "root\u0085"), (2, "B", 1, "dep")]

    def test_u2028_in_a_deprel_ends_no_line(self):
        # str.splitlines would cut "d\u2028x" into two lines of too few columns
        (block,) = parse_blocks("1\tA\t0\troot\n2\tB\t1\td\u2028x\n")
        assert block[1] == (2, "B", 1, "d\u2028x")

    def test_lines_end_at_crlf_and_lf_only(self):
        crlf = "1\tA\t0\troot\r\n2\tB\t1\tdep\r\n\r\n1\tC\t0\troot\r\n"
        assert parse_blocks(crlf) == parse_blocks(crlf.replace("\r\n", "\n"))
        # a lone "\r" is part of the column
        (block,) = parse_blocks("1\tA\t0\troot\r2\tB\t1\tdep\n")
        assert block == [(1, "A", 0, "root\r2")]

    def test_a_line_number_counts_lines_ended_at_newline_only(self):
        with pytest.raises(ParseMismatch, match="^line 2: ID 3 out of order, expected 2$"):
            parse_blocks("1\tA\t0\troot\u0085\n3\tB\t1\tdep\n")

    @pytest.mark.parametrize(
        "heads,labels,message",
        [
            ((0, 1.5), ("a", "b"), "token 2 head must be an int, got 1.5"),
            ((0, "1"), ("a", "b"), "token 2 head must be an int, got '1'"),
            ((0, True), ("a", "b"), "token 2 head must be an int, got True"),
            ((0.0, 1), ("a", "b"), "token 1 head must be an int, got 0.0"),
            ((0, 1), ("a", 2), "token 2 label must be a str, got 2"),
            ((0, 1), (None, "b"), "token 1 label must be a str, got None"),
        ],
    )
    def test_heads_are_ints_and_labels_strs(self, heads, labels, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            DependencyParse(heads, labels, sentence_of("w0 w1"))

    def test_sentence_is_required(self):
        # so annotate_record never sees a parse without a sentence
        with pytest.raises(TypeError):
            DependencyParse((0,), ("root",))

    @pytest.mark.parametrize("sentence", [None, "w0", ("r", 0, "w0", 0, ())])
    def test_sentence_must_be_a_sentence_record(self, sentence):
        # a plain tuple with a SentenceRecord's fields is not one
        with pytest.raises(TypeError, match="^sentence must be a SentenceRecord, got "):
            DependencyParse((0,), ("root",), sentence)

    @pytest.mark.parametrize("n", [3, 14])
    def test_head_count_other_than_the_sentences_is_a_mismatch(self, n):
        # an IndexError in the linker (3 heads) or accepted (14) when the
        # count was checked by align_block alone
        sentence = sentence_of("Body Mass Index ≤ 40 kg/m^2 and blood pressure 140/90 mmHg")
        assert len(sentence.tokens) == 11
        with pytest.raises(ParseMismatch, match=f"^parse has {n} tokens, sentence has 11$") as info:
            DependencyParse((0,) + tuple(range(1, n)), ("dep",) * n, sentence)
        assert info.value.index == min(n, 11)

    def test_label_count_other_than_the_head_count_is_a_mismatch(self):
        with pytest.raises(ParseMismatch, match="^parse has 2 heads and 1 labels$") as info:
            DependencyParse((0, 1), ("a",), sentence_of("w0 w1"))
        assert info.value.index == 1

    def test_empty_file_empty_sentence(self):
        from critex.segmentation import SentenceRecord

        assert parse_blocks("") == []
        sentence = SentenceRecord("r", 0, "", 0, (), (), (), ())
        parse = align_block([], sentence)
        assert parse.heads == ()

    def test_count_mismatch(self, criterion_line):
        with pytest.raises(ParseMismatch):
            parse_of("1\tBody\t0\troot\n", sentence_of(criterion_line))

    def test_block_selection_in_multi_sentence_file(self):
        text = (
            "1\tpain\t0\troot\n"
            "\n"
            "1\tscreening\t0\troot\n"
        )
        parse = parse_of(text, sentence_of("screening"), block=1)
        assert parse.labels == ("root",)
        assert parse.sentence.tokens[0].surface == "screening"


class TestPathDistance:
    def test_directly_connected_spans(self, criterion_line):
        sentence = sentence_of(criterion_line)
        parse = parse_of(BMI_PARSE_TEXT, sentence)
        e = entity(sentence, "Body Mass Index")  # head token: Index (3)
        a = attribute(
            sentence, "≤ 40 kg/m^2", AttributeKind.COMPARISON, values=(40,)
        )
        # span head of the attribute is its last token kg/m^2 (6);
        # hand-counted path: kg/m^2 -> 40 -> Index = 2 edges
        distance = path_distances(parse, a, [e])[0]
        assert type(distance) is float
        assert distance == 2

    def test_same_head_token_distance_zero(self):
        sentence = sentence_of("pain")
        parse = parse_of("1\tpain\t0\troot\n", sentence)
        e = entity(sentence, "pain")
        a = attribute(sentence, "pain", AttributeKind.QUALIFIER, values=())
        assert path_distances(parse, a, [e])[0] == 0

    def test_pressure_closer_than_ecg_in_tree(self):
        # Hand-drawn tree for the ECG / blood-pressure sentence; path
        # lengths counted by hand: pressure->140/90 = 2 edges, ECG->140/90 = 4.
        text = "A normal resting 12-lead electrocardiograph (ECG) and blood pressure of less than 140/90 mmHg."
        rows = [
            (1, "A", 5, "det"),
            (2, "normal", 5, "amod"),
            (3, "resting", 5, "amod"),
            (4, "12-lead", 5, "compound"),
            (5, "electrocardiograph", 0, "root"),
            (6, "(", 7, "punct"),
            (7, "ECG", 5, "appos"),
            (8, ")", 7, "punct"),
            (9, "and", 11, "cc"),
            (10, "blood", 11, "compound"),
            (11, "pressure", 5, "conj"),
            (12, "of", 15, "case"),
            (13, "less", 15, "advmod"),
            (14, "than", 13, "fixed"),
            (15, "140/90", 11, "nmod"),
            (16, "mmHg", 15, "nmod"),
            (17, ".", 5, "punct"),
        ]
        sentence = sentence_of(text)
        parse = parse_of("".join(f"{i}\t{f}\t{h}\t{d}\n" for i, f, h, d in rows), sentence)
        a = attribute(sentence, "140/90 mmHg", AttributeKind.RATIO, values=(140, 90))
        d_pressure, d_ecg = path_distances(
            parse, a, [entity(sentence, "blood pressure"), entity(sentence, "ECG")]
        )
        assert d_pressure == 2
        assert d_ecg == 4
        assert d_pressure < d_ecg

    def test_symmetry(self, criterion_line):
        sentence = sentence_of(criterion_line)
        parse = parse_of(BMI_PARSE_TEXT, sentence)
        e = entity(sentence, "Body Mass Index")
        a = attribute(sentence, "≤ 40 kg/m^2", AttributeKind.COMPARISON, values=(40,))
        forward = path_distances(parse, a, [e])[0]
        # swap the span roles: distance is over tree nodes, so it must match
        e_as_attr = attribute(sentence, "Body Mass Index", AttributeKind.QUALIFIER, values=())
        a_as_entity = entity(sentence, "≤ 40 kg/m^2")
        assert path_distances(parse, e_as_attr, [a_as_entity])[0] == forward


PENALTY = PipelineConfig().boundary_penalty


class TestHeuristicDistance:
    def test_adjacent_is_zero(self):
        sentence = sentence_of("ages 21-45")
        e = entity(sentence, "ages")
        a = attribute(sentence, "21-45")
        distance = heuristic_distance(ClauseIndex(sentence), e, a, PENALTY)
        assert type(distance) is float
        assert distance == 0

    def test_nearer_entity_gets_smaller_distance(self, paragraph_two):
        sentence = split_records(paragraph_two, SplitMode.PARAGRAPHS)[0]
        a = attribute(sentence, "21-45")
        index = ClauseIndex(sentence)
        d_ages = heuristic_distance(index, entity(sentence, "ages"), a, PENALTY)
        d_cocaine = heuristic_distance(index, entity(sentence, "cocaine"), a, PENALTY)
        assert d_ages < d_cocaine

    def test_boundary_arithmetic(self):
        # four plain tokens (is, low, so, glucose) plus one comma between
        # the spans, B=5 -> 4 + 5 = 9
        sentence = sentence_of("weight is low , so glucose 5-8")
        e = entity(sentence, "weight")
        a = attribute(sentence, "5-8", values=(5, 8))
        assert heuristic_distance(ClauseIndex(sentence), e, a, PENALTY) == 9

    def test_overlapping_spans_zero(self):
        sentence = sentence_of("five times of their elimination half-lives")
        e = entity(sentence, "elimination half-lives")
        a = attribute(
            sentence,
            "five times of their elimination half-lives",
            AttributeKind.FREQUENCY,
            values=(5,),
        )
        assert heuristic_distance(ClauseIndex(sentence), e, a, PENALTY) == 0


class TestPDep:
    """The softmin of the linker: ``softmin_weights`` over their total."""

    def test_single_candidate(self):
        assert softmin_p_dep([3.0]) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^softmin needs at least one distance$"):
            softmin_p_dep([])

    def test_equal_distances_split_evenly(self):
        assert softmin_p_dep([2.0, 2.0]) == pytest.approx([0.5, 0.5])

    def test_softmin_values(self):
        # independent evaluation of the formula for distances [0, 4], tau=2:
        # p0 = 1 / (1 + e^-2), p1 = e^-2 / (1 + e^-2)
        z = 1.0 + math.exp(-2.0)
        probs = softmin_p_dep([0.0, 4.0], tau=2.0)
        assert probs == pytest.approx([1.0 / z, math.exp(-2.0) / z], abs=1e-12)
        assert probs == pytest.approx([0.881, 0.119], abs=5e-4)

    def test_mixed_sources_rejected(self):
        # the softmin takes bare distances; the pipeline never puts parse
        # paths in one list with other distances.  The signal-based softmin
        # of the oracle chain still refuses such a group, and accepts
        # heuristic and cross-sentence distances together.
        for other in ("heuristic", "cross"):
            signals = [oracles.Signal(1.0, other), oracles.Signal(2.0, "parse")]
            with pytest.raises(ValueError):
                oracles.p_dep(signals, 2.0)
        mixed = [oracles.Signal(1.0, "heuristic"), oracles.Signal(2.0, "cross")]
        assert oracles.p_dep(mixed, 2.0) == softmin_p_dep([1.0, 2.0], 2.0)

    @given(
        st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_distribution_properties(self, distances, tau):
        probs = softmin_p_dep(distances, tau=tau)
        assert all(p >= 0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        signals = [oracles.Signal(d, "heuristic") for d in distances]
        assert probs == oracles.p_dep(signals, tau)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=6),
        st.floats(min_value=0.5, max_value=50),
    )
    def test_shift_invariance(self, distances, shift):
        shifted = [d + shift for d in distances]
        assert softmin_p_dep(distances) == pytest.approx(softmin_p_dep(shifted), abs=1e-9)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6, unique=True))
    def test_strictly_order_reversing(self, distances):
        probs = softmin_p_dep([float(d) for d in distances])
        order_by_distance = sorted(range(len(distances)), key=lambda i: distances[i])
        order_by_prob = sorted(range(len(probs)), key=lambda i: -probs[i])
        assert order_by_distance == order_by_prob


class TestLeftSum:
    """Float sums add left to right, uncompensated, on every Python.

    From CPython 3.12 the built-in ``sum()`` compensates; the scores, and
    the pinned digests of ``test_pipeline.py``, would change with it.
    """

    def test_the_rule(self):
        # compensated addition gives 1.0
        assert left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_softmin_total(self):
        # exp(-37) is below half an ulp of 1.0, so 1.0 plus two of them, one
        # at a time, stays 1.0; compensated, the total is the next float up
        assert softmin_p_dep([0.0, 37.0, 37.0], tau=1.0)[0] == 1.0


def _outcome(fn, *args):
    """A call's result, or its exception's type and message."""

    try:
        return fn(*args)
    except ParseMismatch as exc:
        return type(exc), str(exc), exc.index
    except (CycleDetected, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def trees(draw, max_size=12):
    """Heads of random trees, chains and stars, rooted at any token."""

    n = draw(st.integers(1, max_size))
    shape = draw(st.sampled_from(("tree", "chain", "star")))
    if shape == "chain":
        heads = [0] + list(range(1, n))
    elif shape == "star":
        heads = [0] + [1] * (n - 1)
    else:
        order = draw(st.permutations(range(1, n + 1)))
        heads = [0] * n
        for k in range(1, n):
            heads[order[k] - 1] = order[draw(st.integers(0, k - 1))]
    root = draw(st.integers(1, n))  # relabel so the root sits anywhere
    relabel = {1: root, root: 1}
    heads = [relabel.get(h, h) for h in heads]
    heads[0], heads[root - 1] = heads[root - 1], heads[0]
    return heads


@st.composite
def head_graphs(draw):
    """Heads of trees, chains and stars, some broken in one of the usual
    ways or holding a bool or a float."""

    heads = draw(trees())
    n = len(heads)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        heads[i] = draw(st.sampled_from((
            0,                          # a second root
            i + 1,                      # a self-loop
            n + 1, -1,                  # out of range
            draw(st.integers(1, n)),    # any token: often a cycle
            True, False, float(heads[i]),  # not an int, though equal to one
        )))
    return heads


# a column's characters: U+0085, U+2028 and a lone "\r" end no line
_COLUMN = st.text(alphabet="ab \u0085\u2028\r", min_size=1, max_size=3)
# lines that are blank, though not all empty
_BLANK_LINES = ("", " ", "\t", "\t\t\t", "\u2028", "\u0085 ", "\r")
# IDs and HEADs that int() reads but the file format does not, or that are
# accepted and read differently from their digits ("01")
_ODD_NUMBERS = ("01", "007", "٣", "²", "+1", " 1", "1_0", "1.0", "-1", "")


@st.composite
def parse_files(draw):
    """ID FORM HEAD DEPREL files: blocks of valid rows with one column
    count each, some lines then broken or blank."""

    lines = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 5))
        width = draw(st.sampled_from((4, 4, 5, 10)))
        for i in range(1, n + 1):
            lines.append("\t".join(
                [str(i), draw(_COLUMN), str(draw(st.integers(0, n)))]
                + [draw(_COLUMN) for _ in range(width - 3)]
            ))
        # mostly one empty line between blocks
        lines += draw(st.sampled_from(([""], [""], [""], [], ["", ""], *map(list, _BLANK_LINES))))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if lines else 0):
        k = draw(st.integers(0, len(lines) - 1))
        cols = lines[k].split("\t")
        change = draw(st.sampled_from(("id", "head", "columns", "blank")))
        if change == "blank":
            lines.insert(k, draw(st.sampled_from(_BLANK_LINES)))
        elif change == "columns":
            width = draw(st.sampled_from((1, 2, 3, 5, 6)))
            lines[k] = "\t".join((cols + ["x"] * width)[:width])
        elif len(cols) > 2:
            cols[0 if change == "id" else 2] = draw(st.sampled_from(_ODD_NUMBERS))
            lines[k] = "\t".join(cols)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline, newline * 2)))


class TestParseBlocksOracle:
    @given(text=parse_files())
    @example(text="1\ta\t0\tb\n\t\t\t\n1\ta\t0\tb\n")  # a tab-only line ends a block
    @example(text="1\ta\t0\tb\t\n2\ta\t1\tb\n")  # five columns, then four
    @example(text="01\ta\t0\tb")  # read as ID 1
    @example(text="1\ta\t0\n2\tb\t1\n")  # three columns on every line
    # three columns, then seven: the second line's third and fifth columns
    # sit where a two-line block of six columns keeps its ID and HEAD
    @example(text="1\ta\t0\nx\tx\t2\tb\t1\tc\ty")
    @settings(max_examples=250, deadline=None)
    def test_same_blocks_or_error_as_line_by_line(self, text):
        assert _outcome(parse_blocks, text) == _outcome(oracles.parse_blocks, text)

    @pytest.mark.parametrize("n", [512, 513, 600])
    def test_blocks_of_more_tokens_than_the_stored_id_column(self, n):
        good = "".join(f"{i}\tw\t{i - 1}\tdep\n" for i in range(1, n + 1))
        bad = good.replace(f"\n{n}\t", f"\n{n + 1}\t")  # the last ID skips one
        assert parse_blocks(good) == oracles.parse_blocks(good)
        assert len(parse_blocks(good)[0]) == n
        assert _outcome(parse_blocks, bad) == _outcome(oracles.parse_blocks, bad)
        assert _outcome(parse_blocks, bad)[0] is ParseMismatch


class TestParseValidationOracle:
    @given(heads=head_graphs(), short_labels=st.booleans(), extra_tokens=st.integers(-2, 2))
    @example(heads=[2, 3, 2, 0], short_labels=False, extra_tokens=0)  # token 1 leads into the cycle 2-3
    @example(heads=[0, 2, 2], short_labels=False, extra_tokens=0)  # a self-head, else a tree
    @example(heads=[0, 1, 4], short_labels=False, extra_tokens=0)  # a head past the last token
    @example(heads=[0, 1, -1], short_labels=False, extra_tokens=0)  # a negative head
    @example(heads=[0, True, 1], short_labels=False, extra_tokens=0)  # a bool that equals 1
    @example(heads=[0, 1, 2.0], short_labels=False, extra_tokens=0)  # a float that equals 2
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_message_as_walk_to_root(self, heads, short_labels, extra_tokens):
        # the sentence has len(heads) + extra_tokens tokens, at least one
        labels = ("dep",) * (len(heads) - short_labels)
        sentence = sentence_of(" ".join(f"w{i}" for i in range(max(1, len(heads) + extra_tokens))))
        got = _outcome(lambda: DependencyParse(tuple(heads), labels, sentence) and None)
        assert got == _outcome(oracles.validate_heads, heads, labels, sentence)

    def test_long_chain_is_linear(self):
        # each token walked once: a 20,000-token chain takes milliseconds
        # (walking every token to the root took ~2 s at 8,000 tokens)
        n = 20_000
        sentence = sentence_of(" ".join(f"w{i}" for i in range(n)))
        started = time.perf_counter()
        DependencyParse((0,) + tuple(range(1, n)), ("dep",) * n, sentence)
        assert time.perf_counter() - started < 1.0


class TestPathDistanceOracle:
    @given(heads=trees(max_size=30), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_search_matches_walks_to_the_root(self, heads, data):
        n = len(heads)
        sentence = sentence_of(" ".join(f"w{i}" for i in range(n)))
        parse = DependencyParse(tuple(heads), ("dep",) * n, sentence)
        tokens = sentence.tokens

        def span():
            first = data.draw(st.integers(0, n - 1))
            last = data.draw(st.integers(first, n - 1))
            return tokens[first].start, tokens[last].end

        a = AttributeMention(0, *span(), "a", AttributeKind.QUALIFIER)
        entities = [
            EntityMention(0, *span(), "e", "LOCAL:e", "e")
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        expected = [oracles.path_distance(parse, e, a) for e in entities]
        assert path_distances(parse, a, entities) == expected
        assert [path_distances(parse, a, [e])[0] for e in entities] == expected

    def test_deep_chain_costs_one_search_per_attribute(self):
        # 2,000 entities on a 20,000-token chain, the attribute at its root:
        # walking to the root for every pair takes seconds, one search
        # measures each token once
        n = 20_000
        sentence = sentence_of(" ".join(["w"] * n))
        parse = DependencyParse((0,) + tuple(range(1, n)), ("dep",) * n, sentence)
        tokens = sentence.tokens
        entities = [
            EntityMention(0, t.start, t.end, "w", "LOCAL:w", "w") for t in tokens[::-10]
        ]
        a = AttributeMention(0, tokens[0].start, tokens[0].end, "w", AttributeKind.QUALIFIER)
        started = time.perf_counter()
        distances = path_distances(parse, a, entities)
        assert time.perf_counter() - started < 1.0
        assert distances[:2] == [n - 1.0, n - 11.0]


class TestHeadTokenOracle:
    @given(
        text=st.text(alphabet="ab1 ,.-/()≤%\t", max_size=30),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bisection_matches_token_scan(self, text, data):
        sentence = split_records("x" + text, SplitMode.LINES)[0]
        n = len(sentence.text)
        start = data.draw(st.integers(0, n))
        end = data.draw(st.integers(start, n))
        got = _outcome(_head_token_index, sentence, start, end)
        assert got == _outcome(oracles.head_token_index, sentence, start, end)
