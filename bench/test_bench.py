"""Tests of the benchmark's own code: generator, checks, matcher, tracer."""

import random
import sys
import types

import pytest

import checks
import inputs
import tracer
from critex import (
    ElementType,
    MatchMode,
    PipelineConfig,
    SplitMode,
    annotate_record,
    bundled_kb_path,
    evaluate,
    load_kb,
    mini_corpus_dir,
    read_brat_dir,
    to_json,
)


@pytest.fixture(scope="module")
def gold():
    return inputs.read_gold_corpus(mini_corpus_dir())


def _surfaces(records):
    return [[r.text.split()] for r in records]


@pytest.mark.parametrize("make", [inputs.batch_records, inputs.long_records, inputs.cli_records])
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(gold, make):
    first, again, other = make(gold, 1), make(gold, 1), make(gold, 2)
    assert first == again
    assert first != other
    for record in first:
        inputs.check_gold(record)
    trees = inputs.dependency_trees(_surfaces(first), 1)
    assert trees == inputs.dependency_trees(_surfaces(first), 1)
    assert trees != inputs.dependency_trees(_surfaces(first), 2)


def test_compose_shifts_gold_spans_and_relations(gold):
    a, b = gold[0], gold[1]
    joined = inputs.compose("x", [a, b], "\n")
    shift = len(a.text) + 1
    assert joined.text == a.text + "\n" + b.text
    assert joined.relations[len(a.relations)] == tuple(
        (s + shift, e + shift) for s, e in b.relations[0]
    )
    broken = inputs.GoldRecord("y", joined.text, ((0, 3, "nope"),), ())
    with pytest.raises(ValueError):
        inputs.check_gold(broken)


def test_long_records_reach_each_rung(gold):
    for target, record in zip(inputs.LONG_RUNGS, inputs.long_records(gold, 3)):
        assert target <= len(record.text) < target + max(len(g.text) for g in gold) + 1


def test_random_trees_are_valid_and_bad_trees_are_rejected():
    rng = random.Random(0)
    for n in range(1, 40):
        inputs.check_tree(inputs.random_tree(n, rng))
    for bad in ([0, 0], [2, 1], [0, 3, 2], [0, 5]):
        with pytest.raises(ValueError):
            inputs.check_tree(bad)


def test_written_parses_are_read_back_by_the_program(gold, tmp_path):
    from critex import split_records
    from critex.syntax import align_block, parse_blocks

    records = inputs.cli_records(gold, 1, n=5)
    sentences = [split_records(r.text, SplitMode.LINES) for r in records]
    surfaces = [[[t.surface for t in s.tokens] for s in sents] for sents in sentences]
    path = tmp_path / "parses.conll"
    inputs.write_parses(inputs.dependency_trees(surfaces, 1), path)
    blocks = parse_blocks(path.read_text(encoding="utf-8"))
    flat = [s for sents in sentences for s in sents]
    assert len(blocks) == len(flat)
    for block, sentence in zip(blocks, flat):
        align_block(block, sentence)


def test_relation_matcher_agrees_with_program_evaluation_on_gold(gold):
    kb = load_kb(bundled_kb_path())
    config = PipelineConfig(mode=SplitMode.PARAGRAPHS)
    predictions = [annotate_record(g.id, g.text, kb, config) for g in gold]
    tp = fp = fn = 0
    for g, record in zip(gold, predictions):
        pairs = checks.check_output(to_json(record, extended=True), g.id, g.text)
        counts = checks.match_relations(pairs, list(g.relations))
        tp, fp, fn = tp + counts[0], fp + counts[1], fn + counts[2]
    report = evaluate(predictions, read_brat_dir(mini_corpus_dir()), mode=MatchMode.EXACT)
    expected = report.counts(ElementType.RELATION, MatchMode.EXACT)
    assert (tp, fp, fn) == (expected.tp, expected.fp, expected.fn) == (26, 4, 3)
    assert checks.f1(tp, fp, fn) == pytest.approx(expected.f1, abs=1e-12)
    assert round(checks.f1(tp, fp, fn), 3) == 0.881


def test_check_output_rejects_offsets_that_do_not_slice_the_text(gold):
    kb = load_kb(bundled_kb_path())
    record = annotate_record(gold[1].id, gold[1].text, kb, PipelineConfig(mode=SplitMode.PARAGRAPHS))
    line = to_json(record, extended=True)
    checks.check_output(line, gold[1].id, gold[1].text)
    with pytest.raises(checks.OutputError):
        checks.check_output(line, gold[1].id, "x" + gold[1].text)
    with pytest.raises(checks.OutputError):
        checks.check_output("{not json", gold[1].id, gold[1].text)


def _span(id, start, end, parent=None, leaf_s=0.0, name="n"):
    return tracer.Span(id, name, start, end, parent, "r", leaf_s)


def test_self_time_subtracts_child_coverage_and_leaf_time():
    spans = [
        _span(1, 0.0, 10.0, leaf_s=0.5),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2: [1, 5) is covered once
        _span(4, 6.0, 7.0, parent=1),
        _span(5, 3.0, 4.0, parent=3),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 10.0 - 5.0 - 0.5, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0})


def test_layer_totals_add_spans_and_aggregated_leaves():
    spans = [_span(1, 0.0, 4.0, leaf_s=1.0, name="a"), _span(2, 1.0, 2.0, parent=1, name="b")]
    leaf = {("r", "k"): [3, 1.0, 2], ("s", "k"): [1, 0.5, 0]}
    totals = tracer.layer_totals(spans, leaf)
    assert totals["a"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert totals["k"] == {"calls": 4, "total_s": 1.5, "self_s": 1.5, "hits": 2}


def test_tracer_wraps_restores_and_reports_absent_targets(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.outer = lambda record_id, items: [fake.probe(i) for i in items]
    fake.probe = lambda i: i % 2
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    original_outer, original_probe = fake.outer, fake.probe
    monkeypatch.setattr(tracer, "_RECORD_ARG", frozenset({"layer.outer"}))

    t = tracer.Tracer()
    t.install(
        span_targets=[("fake_layer", "outer", "layer.outer"), ("fake_layer", "gone", "layer.gone")],
        leaf_targets=[("fake_layer", "probe", "layer.probe")],
    )
    assert fake.outer("rec-1", [1, 2, 3]) == [1, 0, 1]
    t.restore()

    assert (fake.outer, fake.probe) == (original_outer, original_probe)
    assert t.absent == ["fake_layer.gone"]
    (span,) = t.spans
    assert (span.name, span.record, span.parent) == ("layer.outer", "rec-1", None)
    calls, seconds, hits = t.leaf_table()[("rec-1", "layer.probe")]
    assert (calls, hits) == (3, 2)
    assert span.leaf_s == pytest.approx(seconds)
