"""Command-line behavior: subcommands, exit codes, determinism."""

import errno
import gc
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from critex import cli, pipeline
from critex.cli import main
from critex.io_eval import read_corpus, to_json
from critex.kb import load_kb
from critex.resources import bundled_kb_path, mini_corpus_dir
from critex.segmentation import SplitMode, split_records
from critex.syntax import align_block, parse_blocks

from conftest import MALFORMED_KBS, PARAGRAPH_TWO, malformed_kb_file, malformed_kb_where


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "1.txt"
    path.write_text(PARAGRAPH_TWO, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnnotate:
    def test_fig2_paragraph_output(self, capsys, fig2_file):
        code, out, err = run(
            capsys, "annotate", "--kb", bundled_kb_path(),
            "--mode", "paragraphs", fig2_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc["result"].keys()) == ["id", "text", "relation"]
        assert doc["result"]["relation"] == [
            {"entity": "ages", "attribute": "21-45"},
            {"entity": "cocaine",
             "attribute": "at least twice a week for the past six months"},
            {"entity": "ECG", "attribute": "12-lead"},
            {"entity": "blood pressure", "attribute": "140/90 mmHg"},
        ]

    def test_empty_input_dir(self, capsys, tmp_path):
        code, out, err = run(capsys, "annotate", tmp_path)
        assert code == 0
        assert out == ""

    def test_each_chunk_is_written_before_the_next_is_annotated(self, monkeypatch, tmp_path):
        # one record more than a chunk holds: the last record is a chunk of its own
        corpus = tmp_path / "records.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"r{i:03d}", "text": "heart rate 60-100"}) + "\n"
            for i in reversed(range(cli._CHUNK + 1))
        ))
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        annotate_split = pipeline._annotate_split
        calls = []

        def recording(records, *args):
            calls.append(([r[0] for r in records], stdout.getvalue()))
            return annotate_split(records, *args)

        monkeypatch.setattr(pipeline, "_annotate_split", recording)
        assert main(["annotate", "--format", "jsonl", str(corpus)]) == 0
        lines = stdout.getvalue().splitlines(keepends=True)
        ids = [f"r{i:03d}" for i in range(cli._CHUNK + 1)]
        assert [json.loads(line)["result"]["id"] for line in lines] == ids
        assert calls == [(ids[:-1], ""), (ids[-1:], "".join(lines[:-1]))]

    def test_bad_theta_is_usage_error(self, capsys, fig2_file):
        with pytest.raises(SystemExit) as info:
            main(["annotate", "--theta", "1.5", str(fig2_file)])
        assert info.value.code == 64

    @pytest.mark.parametrize(
        "flag,value",
        [("--theta", "nan"), ("--theta", "-0.1"), ("--min-score", "nan"), ("--jobs", "0")],
    )
    def test_config_values_rejected_before_annotating(self, capsys, fig2_file, flag, value):
        # PipelineConfig also rejects these; the flag parser reports them
        # first, as usage errors
        with pytest.raises(SystemExit) as info:
            main(["annotate", flag, value, str(fig2_file)])
        assert info.value.code == 64
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, fig2_file):
        with pytest.raises(SystemExit) as info:
            main(["annotate", "--frobnicate", str(fig2_file)])
        assert info.value.code == 64

    def test_missing_kb_file_is_data_error(self, capsys, fig2_file):
        code, out, err = run(
            capsys, "annotate", "--kb", "/nonexistent/kb.json", fig2_file
        )
        assert code == 2

    def test_jsonl_format_one_line_per_record(self, capsys, tmp_path):
        (tmp_path / "a.txt").write_text("Age at least 18 years.")
        (tmp_path / "b.txt").write_text("Body weight greater than 50 kg.")
        code, out, err = run(
            capsys, "annotate", "--format", "jsonl", "--mode", "paragraphs", tmp_path
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        ids = [json.loads(line)["result"]["id"] for line in lines]
        assert ids == ["a", "b"]

    def test_deterministic_and_jobs_invariant(self, capsys, tmp_path):
        corpus = mini_corpus_dir()
        base_args = (
            "annotate", "--mode", "paragraphs", "--format", "jsonl",
            "--extended", corpus,
        )
        _, first, _ = run(capsys, *base_args)
        _, second, _ = run(capsys, *base_args)
        _, parallel, _ = run(capsys, *base_args, "--jobs", "4")
        assert first == second
        assert first == parallel

    def test_env_var_kb_fallback(self, capsys, fig2_file, monkeypatch, tmp_path):
        bad_kb = tmp_path / "kb.json"
        bad_kb.write_text('{"version": 1, "units": {}, "entries": []}')
        monkeypatch.setenv("CRITEX_KB", str(bad_kb))
        code, out, err = run(capsys, "annotate", "--mode", "paragraphs", fig2_file)
        assert code == 0
        assert json.loads(out)["result"]["relation"] == []

    def test_deps_flag_uses_external_parses(self, capsys, tmp_path):
        record = tmp_path / "bmi.txt"
        record.write_text("Body Mass Index ≤ 40 kg/m^2")
        deps = tmp_path / "deps.tsv"
        deps.write_text(
            "1\tBody\t3\tcompound\n"
            "2\tMass\t3\tcompound\n"
            "3\tIndex\t5\tnsubj\n"
            "4\t≤\t5\tcase\n"
            "5\t40\t0\troot\n"
            "6\tkg/m^2\t5\tnmod\n"
        )
        code, out, err = run(capsys, "annotate", "--deps", deps, record)
        assert code == 0
        assert json.loads(out)["result"]["relation"] == [
            {"entity": "Body Mass Index", "attribute": "≤ 40 kg/m^2"}
        ]

    def test_deps_mismatch_is_data_error(self, capsys, tmp_path):
        record = tmp_path / "bmi.txt"
        record.write_text("Body Mass Index ≤ 40 kg/m^2")
        deps = tmp_path / "deps.tsv"
        deps.write_text("1\tWrong\t0\troot\n")
        code, out, err = run(capsys, "annotate", "--deps", deps, record)
        assert code == 2


DEPS_RECORDS = {
    "a": "Age at least 18 years\nBody weight greater than 50 kg, heart rate 60-100",
    "b": "heart rate under 100 bpm",
    "c": "\nblood pressure less than 140/90 mmHg\n\nBMI <= 40 kg/m^2 and age > 21\nnone",
}


def _deps_rows(surfaces):
    """ID FORM HEAD DEPREL rows of a tree: the last token heads all others."""

    n = len(surfaces)
    return [f"{i}\t{form}\t{0 if i == n else n}\tdep" for i, form in enumerate(surfaces, 1)]


@pytest.fixture()
def deps_corpus(tmp_path):
    """A JSONL corpus, and a parse file with one tree per sentence of it."""

    corpus = tmp_path / "records.jsonl"
    corpus.write_text(
        "".join(json.dumps({"id": k, "text": v}) + "\n" for k, v in DEPS_RECORDS.items())
    )
    blocks = [
        _deps_rows([t.surface for t in s.tokens])
        for record_id in sorted(DEPS_RECORDS)
        for s in split_records(DEPS_RECORDS[record_id], SplitMode.LINES)
    ]
    deps = tmp_path / "deps.tsv"
    deps.write_text("".join("\n".join(rows) + "\n\n" for rows in blocks))
    return corpus, deps, blocks


class TestDeps:
    def test_each_record_is_split_once(self, capsys, monkeypatch, deps_corpus):
        corpus, deps, _ = deps_corpus
        splits = Counter()

        def counting(text, mode, record_id=""):
            splits[record_id] += 1
            return split_records(text, mode, record_id=record_id)

        monkeypatch.setattr(cli, "split_records", counting)
        monkeypatch.setattr(pipeline, "split_records", counting)
        code, out, err = run(capsys, "annotate", "--deps", deps, corpus)
        assert code == 0, err
        assert splits == dict.fromkeys(DEPS_RECORDS, 1)

    @pytest.mark.parametrize("cross", [False, True])
    def test_bytes_equal_in_process_run(self, capsys, deps_corpus, cross):
        corpus, deps, _ = deps_corpus
        flags = ["--cross-sentence"] if cross else []
        code, out, err = run(
            capsys, "annotate", "--deps", deps, "--extended", "--format", "jsonl", *flags, corpus
        )
        assert code == 0, err
        kb = load_kb(bundled_kb_path())
        config = pipeline.PipelineConfig(cross_sentence=cross)
        blocks = iter(parse_blocks(deps.read_text()))
        lines = []
        for record_id, text in sorted(DEPS_RECORDS.items()):
            parses = [align_block(next(blocks), s) for s in split_records(text, SplitMode.LINES)]
            record = pipeline.annotate_record(record_id, text, kb, config, parses=parses)
            lines.append(to_json(record, extended=True) + "\n")
        assert out == "".join(lines)

    def test_ids_out_of_order_name_the_line(self, capsys, deps_corpus):
        corpus, deps, blocks = deps_corpus
        rows = blocks[0][:4]
        ids = ("7", "9", "3", "4")
        bad = [i + row[row.index("\t"):] for i, row in zip(ids, rows)] + blocks[0][4:]
        deps.write_text(deps.read_text().replace("\n".join(blocks[0]), "\n".join(bad), 1))
        code, out, err = run(capsys, "annotate", "--deps", deps, corpus)
        assert code == 2
        assert out == ""
        assert err == f"critex: error: {deps}: line 1: ID 7 out of order, expected 1\n"

    @pytest.mark.parametrize(
        "column,value", [(0, "1_0"), (2, "1_0"), (2, "+5"), (2, " 5"), (0, "٣"), (2, "5.0")]
    )
    def test_id_or_head_that_is_not_ascii_digits_names_the_line(
        self, capsys, deps_corpus, column, value
    ):
        corpus, deps, blocks = deps_corpus
        # block 3 is record b's only sentence, from file line 18
        cols = blocks[2][0].split("\t")
        cols[column] = value
        bad = ["\t".join(cols), *blocks[2][1:]]
        deps.write_text(deps.read_text().replace("\n".join(blocks[2]), "\n".join(bad), 1))
        code, out, err = run(capsys, "annotate", "--deps", deps, corpus)
        assert code == 2
        assert out == ""
        got_id, got_head = (value, "5") if column == 0 else ("1", value)
        assert err == (
            f"critex: error: {deps}: line 18: ID and HEAD must be ASCII decimal integers,"
            f" got {got_id!r} and {got_head!r}\n"
        )

    @pytest.mark.parametrize(
        "row,message",
        [
            ("2\tratE\t5\tdep", "token 1: parse FORM 'ratE' != surface 'rate'"),
            ("2\trate\t0\tdep", "head graph must have exactly one root, found 2"),
        ],
    )
    def test_alignment_errors_name_block_record_and_sentence(
        self, capsys, deps_corpus, row, message
    ):
        corpus, deps, blocks = deps_corpus
        # block 3 is record b's only sentence: "heart rate under 100 bpm"
        assert blocks[2][1] == "2\trate\t5\tdep"
        bad = [blocks[2][0], row, *blocks[2][2:]]
        deps.write_text(deps.read_text().replace("\n".join(blocks[2]), "\n".join(bad), 1))
        code, out, err = run(capsys, "annotate", "--deps", deps, corpus)
        assert code == 2
        assert out == ""
        assert err == f"critex: error: {deps}: block 3 (record b, sentence 0): {message}\n"


def _chunk_corpus():
    """131 records cut from the bundled gold records, in id order; record
    40's text is blank, so it yields no sentence."""

    texts = [text for _, text in sorted(read_corpus(mini_corpus_dir()))]
    records = [(f"r{i:03d}", texts[i % len(texts)]) for i in range(131)]
    records[40] = (records[40][0], " \n\n ")
    return records


CHUNK_CORPUS = _chunk_corpus()


@pytest.fixture(scope="module")
def chunk_expected():
    """Per (deps, cross): each record's lines in both formats, from
    annotate_record and to_json, and its parse blocks."""

    kb = load_kb(bundled_kb_path())
    expected = {}
    for deps in (False, True):
        for cross in (False, True):
            config = pipeline.PipelineConfig(cross_sentence=cross)
            rows = []
            for record_id, text in CHUNK_CORPUS:
                sentences = split_records(text, SplitMode.LINES, record_id=record_id)
                blocks = [_deps_rows(s.surfaces) for s in sentences]
                parses = None
                if deps:
                    parses = [
                        align_block(parse_blocks("\n".join(b))[0], s)
                        for b, s in zip(blocks, sentences)
                    ]
                record = pipeline.annotate_record(record_id, text, kb, config, parses=parses)
                lines = {
                    "json": to_json(record, indent=2) + "\n",
                    "jsonl": to_json(record, extended=True) + "\n",
                }
                rows.append((lines, blocks))
            expected[deps, cross] = rows
    return expected


class TestChunks:
    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("deps", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 131])
    def test_bytes_equal_annotate_record_at_chunk_edges(
        self, capsys, tmp_path, chunk_expected, n, deps, cross, fmt
    ):
        assert cli._CHUNK == 64
        rows = chunk_expected[deps, cross][:n]
        corpus = tmp_path / "records.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": k, "text": v}) + "\n" for k, v in CHUNK_CORPUS[:n]
        ))
        flags = ["--format", fmt] + (["--extended"] if fmt == "jsonl" else [])
        if cross:
            flags.append("--cross-sentence")
        if deps:
            parse_file = tmp_path / "deps.tsv"
            parse_file.write_text(
                "".join("\n".join(b) + "\n\n" for _, blocks in rows for b in blocks)
            )
            flags += ["--deps", parse_file]
        code, out, err = run(capsys, "annotate", *flags, corpus)
        assert code == 0, err
        assert out == "".join(lines[fmt] for lines, _ in rows)


@pytest.fixture()
def collector_off():
    """The cyclic collector off, after one collection; restored after the test."""

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _gold_parses(text, mode, record_id):
    """One tree per sentence of ``text``, aligned to it (see ``_deps_rows``)."""

    return [
        align_block(parse_blocks("\n".join(_deps_rows(s.surfaces)))[0], s)
        for s in split_records(text, mode, record_id=record_id)
    ]


class TestCollector:
    """``annotate`` makes no reference cycles, so it runs with the cyclic
    collector off and leaves it as it found it."""

    @pytest.mark.parametrize("deps", [False, True])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("mode", list(SplitMode), ids=lambda m: m.value)
    def test_annotating_the_gold_corpus_makes_no_cycle(self, collector_off, mode, cross, deps):
        kb = load_kb(bundled_kb_path())
        config = pipeline.PipelineConfig(mode=mode, cross_sentence=cross)
        records = []
        for record_id, text in sorted(read_corpus(mini_corpus_dir())):
            parses = _gold_parses(text, mode, record_id) if deps else None
            record = pipeline.annotate_record(record_id, text, kb, config, parses=parses)
            lines = [to_json(record), to_json(record, extended=True, indent=2)]
            assert record.extended is not None  # builds the dicts
            lines.append(to_json(record, extended=True))
            records.append((record, lines))
        records.clear()  # a cycle among them would now be garbage
        assert gc.collect() == 0

    @pytest.mark.parametrize("fmt, deps", [("json", False), ("jsonl", True)])
    def test_a_run_leaves_as_much_garbage_for_1_record_as_for_600(
        self, capsys, tmp_path, collector_off, fmt, deps
    ):
        # what a run leaves is the argument parser's, whatever the corpus
        texts = [text for _, text in sorted(read_corpus(mini_corpus_dir()))]
        left = []
        for n in (1, 600):
            records = [(f"r{i:03d}", texts[i % len(texts)]) for i in range(n)]
            corpus = tmp_path / f"records-{n}.jsonl"
            corpus.write_text("".join(json.dumps({"id": k, "text": v}) + "\n" for k, v in records))
            flags = ["--extended", "--format", fmt]
            if deps:
                parse_file = tmp_path / f"deps-{n}.tsv"
                parse_file.write_text("".join(
                    "\n".join(_deps_rows(s.surfaces)) + "\n\n"
                    for record_id, text in records
                    for s in split_records(text, SplitMode.LINES, record_id=record_id)
                ))
                flags += ["--deps", parse_file]
            gc.collect()
            code, out, err = run(capsys, "annotate", *flags, corpus)
            left.append(gc.collect())
            assert code == 0, err
            assert out.count('"result": {') == n
        assert left[0] == left[1]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("deps", [None, "missing.tsv"])
    def test_off_for_the_command_and_restored_after_it(
        self, capsys, monkeypatch, fig2_file, tmp_path, enabled, deps
    ):
        seen = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_kb", recording(cli.load_kb))
        monkeypatch.setattr(cli, "read_corpus", recording(cli.read_corpus))
        monkeypatch.setattr(pipeline, "_annotate_split", recording(pipeline._annotate_split))
        flags = [] if deps is None else ["--deps", tmp_path / deps]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, out, err = run(capsys, "annotate", *flags, fig2_file)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        if deps is None:
            assert code == 0, err
            assert seen == [("load_kb", False), ("read_corpus", False), ("_annotate_split", False)]
        else:  # a missing parse file is a data error, raised while the collector is off
            assert code == 2 and "missing.tsv" in err
            assert seen == [("load_kb", False), ("read_corpus", False)]


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # -S: no site hooks, so only what critex imports is loaded
    env = dict(os.environ)
    src = Path(cli.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys, critex.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestEvaluateCommand:
    def _predict(self, capsys, tmp_path):
        pred = tmp_path / "pred.jsonl"
        code, out, err = run(
            capsys, "annotate", "--mode", "paragraphs", "--format", "jsonl",
            "--extended", "--out", pred, mini_corpus_dir(),
        )
        assert code == 0
        return pred

    def test_table_output(self, capsys, tmp_path):
        pred = self._predict(capsys, tmp_path)
        code, out, err = run(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert code == 0
        assert "RELATION" in out
        assert "OVERLAP" in out

    def test_json_output_has_macro(self, capsys, tmp_path):
        pred = self._predict(capsys, tmp_path)
        code, out, err = run(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert "micro" in doc and "macro" in doc
        assert doc["records"] == 20

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_gold_that_is_not_a_directory_is_named(self, capsys, tmp_path, kind):
        pred = self._predict(capsys, tmp_path)
        gold = tmp_path / "gold"
        if kind == "file":
            gold.write_text("")
        code, out, err = run(capsys, "evaluate", "--gold", gold, "--pred", pred)
        assert code == 2
        assert out == ""
        errno_ = errno.ENOENT if kind == "missing" else errno.ENOTDIR
        assert err == f"critex: error: [Errno {errno_}] {os.strerror(errno_)}: '{gold}'\n"

    def test_ann_without_its_txt_is_data_error(self, capsys, tmp_path):
        pred = self._predict(capsys, tmp_path)
        gold = tmp_path / "gold"
        shutil.copytree(mini_corpus_dir(), gold)
        (gold / "rec03.txt").unlink()
        code, out, err = run(capsys, "evaluate", "--gold", gold, "--pred", pred)
        assert code == 2
        assert out == ""
        assert err == f"critex: error: {gold / 'rec03.ann'}: no rec03.txt beside it\n"

    def test_round_trip_of_a_text_with_a_line_separator(self, capsys, tmp_path):
        # annotate writes U+2028 raw inside a JSON string; evaluate reads
        # lines that end at "\n" alone, so the record stays one line
        text = "Age\u2028over 18 years"
        corpus = tmp_path / "records.jsonl"
        corpus.write_text(json.dumps({"id": "a", "text": text}) + "\n", encoding="utf-8")
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "a.txt").write_text(text, encoding="utf-8")
        (gold / "a.ann").write_text(
            "T1\tEntity 0 3\tAge\nT2\tTemporal 4 17\tover 18 years\n"
            "R1\thas_temporal Arg1:T1 Arg2:T2\n",
            encoding="utf-8",
        )
        pred = tmp_path / "pred.jsonl"
        code, out, err = run(
            capsys, "annotate", "--format", "jsonl", "--extended", "--out", pred, corpus
        )
        assert code == 0
        assert "\u2028" in pred.read_text(encoding="utf-8")
        code, out, err = run(
            capsys, "evaluate", "--gold", gold, "--pred", pred, "--format", "json"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["records"] == 1
        assert doc["micro"]["RELATION"]["EXACT"]["f1"] == 1.0
        assert doc["micro"]["ENTITY"]["EXACT"]["f1"] == 1.0

    def test_mismatched_ids_exit_2(self, capsys, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            '{"result": {"id": "zzz", "text": "t", "relation": [], '
            '"extended": {"entities": [], "attributes": [], "relations": [], '
            '"scores": [], "unlinked_attributes": []}}}\n'
        )
        code, out, err = run(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert code == 2


class TestMalformedInput:
    """Malformed files are data errors (exit 2) with a message, not tracebacks."""

    def assert_data_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("critex: error:")
        assert "Traceback" not in err
        return err

    def test_null_text_in_jsonl(self, capsys, tmp_path):
        corpus = tmp_path / "records.jsonl"
        corpus.write_text('{"id": "a", "text": "pain"}\n{"id": "b", "text": null}\n')
        err = self.assert_data_error(capsys, "annotate", corpus)
        assert "line 2" in err

    @pytest.mark.parametrize("record_id", [None, 7, ["a"]], ids=["null", "int", "list"])
    def test_non_string_id_in_jsonl(self, capsys, tmp_path, record_id):
        corpus = tmp_path / "records.jsonl"
        corpus.write_text(
            json.dumps({"id": record_id, "text": "Age at least 18 years"}) + "\n"
        )
        err = self.assert_data_error(capsys, "annotate", corpus)
        assert "line 1" in err and "'id'" in err

    @pytest.mark.parametrize("name", ["record.txt", "records.jsonl", "dir/a.txt"])
    def test_non_utf8_corpus(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"Age \xff\xfe 18 years")
        target = path.parent if name.startswith("dir/") else path
        err = self.assert_data_error(capsys, "annotate", target)
        assert "UTF-8" in err

    def test_non_utf8_deps_file(self, capsys, fig2_file, tmp_path):
        deps = tmp_path / "deps.tsv"
        deps.write_bytes(b"1\t\xff\t0\troot\n")
        self.assert_data_error(capsys, "annotate", "--deps", deps, fig2_file)

    def test_non_utf8_kb_file(self, capsys, fig2_file, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_bytes(b'{"version": 1, "entries": [], "units": {"\xff": "x"}}')
        self.assert_data_error(capsys, "annotate", "--kb", kb, fig2_file)

    def _pred_with(self, capsys, tmp_path, line_2):
        pred = tmp_path / "pred.jsonl"
        code, out, _ = run(
            capsys, "annotate", "--mode", "paragraphs", "--format", "jsonl",
            "--extended", mini_corpus_dir(),
        )
        assert code == 0
        lines = out.splitlines()
        if callable(line_2):
            line_2 = line_2(lines[1])
        pred.write_text("\n".join([lines[0], line_2, *lines[2:]]) + "\n")
        return pred

    def _pred_with_extended(self, capsys, tmp_path, edit):
        def edit_line(line):
            doc = json.loads(line)
            edit(doc["result"]["extended"])
            return json.dumps(doc)

        return self._pred_with(capsys, tmp_path, edit_line)

    def test_evaluate_non_json_pred_line(self, capsys, tmp_path):
        pred = self._pred_with(capsys, tmp_path, "{not json")
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert "line 2" in err

    def test_evaluate_pred_without_extended(self, capsys, tmp_path):
        compact = json.dumps({"result": {"id": "rec02", "text": "t", "relation": []}})
        pred = self._pred_with(capsys, tmp_path, compact)
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert "line 2" in err and "extended" in err

    @pytest.mark.parametrize("key", ["entities", "attributes", "relations"])
    def test_evaluate_pred_extended_missing_key(self, capsys, tmp_path, key):
        pred = self._pred_with_extended(capsys, tmp_path, lambda ext: ext.pop(key))
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert "line 2" in err and key in err

    @pytest.mark.parametrize("key, pool", [
        ("entity", "entities"), ("attribute", "attributes"),
    ])
    def test_evaluate_pred_relation_index_out_of_range(self, capsys, tmp_path, key, pool):
        def edit(ext):
            assert ext["relations"]
            ext["relations"][0][key] = len(ext[pool])

        pred = self._pred_with_extended(capsys, tmp_path, edit)
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert "line 2" in err and pool in err

    @pytest.mark.parametrize("pool, field", [
        ("entities", "start"), ("attributes", "end"), ("relations", "entity"),
        ("relations", "attribute"),
    ])
    def test_evaluate_pred_bool_offset_or_index(self, capsys, tmp_path, pool, field):
        def edit(ext):
            assert ext[pool]
            ext[pool][0][field] = True

        pred = self._pred_with_extended(capsys, tmp_path, edit)
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert "line 2" in err and field in err

    def test_annotate_repeated_jsonl_id(self, capsys, tmp_path):
        corpus = tmp_path / "records.jsonl"
        corpus.write_text('{"id": "a", "text": "pain"}\n{"id": "a", "text": "fever"}\n')
        err = self.assert_data_error(capsys, "annotate", corpus)
        assert "line 2" in err and "line 1" in err and "'a'" in err

    def test_annotate_kb_is_a_directory(self, capsys, fig2_file, tmp_path):
        self.assert_data_error(capsys, "annotate", "--kb", tmp_path, fig2_file)

    def test_annotate_out_is_a_directory(self, capsys, fig2_file, tmp_path):
        self.assert_data_error(capsys, "annotate", "--out", tmp_path, fig2_file)

    def test_evaluate_pred_is_a_directory(self, capsys, tmp_path):
        self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", tmp_path
        )

    @pytest.mark.parametrize("record_id", [5, ["a"]], ids=["int", "list"])
    def test_evaluate_non_string_pred_id(self, capsys, tmp_path, record_id):
        def edit_line(line):
            doc = json.loads(line)
            doc["result"]["id"] = record_id
            return json.dumps(doc)

        pred = self._pred_with(capsys, tmp_path, edit_line)
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert err == f"critex: error: {pred}: line 2: 'id' must be a string\n"

    def test_evaluate_duplicate_pred_id(self, capsys, tmp_path):
        pred = self._pred_with(capsys, tmp_path, lambda line: line)
        lines = pred.read_text().splitlines()
        # line 2's record once more at the end, with its mentions emptied
        doc = json.loads(lines[1])
        doc["result"]["extended"].update(entities=[], attributes=[], relations=[])
        pred.write_text("\n".join([*lines, json.dumps(doc)]) + "\n")
        err = self.assert_data_error(
            capsys, "evaluate", "--gold", mini_corpus_dir(), "--pred", pred
        )
        assert f"line {len(lines) + 1}" in err and "line 2" in err
        assert repr(doc["result"]["id"]) in err


class TestKbCommand:
    def test_validate_ok(self, capsys):
        code, out, err = run(capsys, "kb", "validate", bundled_kb_path())
        assert code == 0
        assert "OK" in out
        assert err == ""

    def test_validate_accepts_terms_of_any_token_shape(self, capsys, tmp_path):
        # terms with numbers, brackets and non-ASCII letters can all match,
        # so there is nothing to warn about
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"concept_id": "LOCAL:t2d", "preferred_term": "type 2 diabetes",
             "synonyms": ["diabetes", "Sjögren syndrome"]},
            {"concept_id": "LOCAL:bp", "preferred_term": "blood pressure (BP)"},
        ]}))
        code, out, err = run(capsys, "kb", "validate", path)
        assert (code, out, err) == (0, "OK: 2 entries, 106 unit variants\n", "")

    def test_validate_synonyms_with_the_same_tokens(self, capsys, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"concept_id": "LOCAL:bp", "preferred_term": "blood pressure",
             "synonyms": ["BP (x)", "BP(x)"]},
        ]}))
        code, out, err = run(capsys, "kb", "validate", path)
        assert (code, out) == (2, "")
        assert err == (
            f"critex: error: {path}: entries[0]: LOCAL:bp: duplicate synonym: 'BP(x)'\n"
        )

    def test_validate_inverted_range(self, capsys, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({
            "version": 1, "units": {},
            "entries": [{
                "concept_id": "LOCAL:bad", "preferred_term": "bad",
                "value_min": 10, "value_max": 5,
            }],
        }))
        code, out, err = run(capsys, "kb", "validate", path)
        assert code == 2
        assert "LOCAL:bad" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_KBS))
    def test_validate_malformed_terms_and_units(self, capsys, tmp_path, case):
        path, message = malformed_kb_file(tmp_path, case)
        code, out, err = run(capsys, "kb", "validate", path)
        assert code == 2
        assert out == ""
        assert err.startswith("critex: error: " + malformed_kb_where(path, case))
        assert message in err

    def test_validate_duplicate_concept_id(self, capsys, tmp_path):
        path = tmp_path / "kb.json"
        entry = {"concept_id": "LOCAL:x", "preferred_term": "x"}
        path.write_text(json.dumps({"version": 1, "entries": [entry, dict(entry)]}))
        code, out, err = run(capsys, "kb", "validate", path)
        assert (code, out) == (2, "")
        assert err == (
            f"critex: error: {path}: entries[1]: duplicate concept_id: LOCAL:x"
            " (also entries[0])\n"
        )

    def test_mine_writes_candidates(self, capsys, tmp_path, fig2_file):
        out_path = tmp_path / "cand.json"
        code, out, err = run(
            capsys, "kb", "mine", fig2_file, "--out", out_path,
            "--mode", "paragraphs",
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        terms = [e["preferred_term"] for e in doc["entries"]]
        assert "blood pressure" in terms


    def test_mine_with_kb_knows_its_unit_spellings(self, capsys, tmp_path):
        corpus = tmp_path / "r.txt"
        corpus.write_text("Pressure of 140 Torr\nPressure Torr of 140\n", encoding="utf-8")
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps({"version": 1, "units": {"torr": "mmHg"}, "entries": []}))

        def mined(*kb_args):
            out_path = tmp_path / "cand.json"
            code, out, err = run(capsys, "kb", "mine", corpus, "--out", out_path, *kb_args)
            assert (code, err) == (0, "")
            return {e["concept_id"]: e for e in json.loads(out_path.read_text())["entries"]}

        assert set(mined()) == {"LOCAL:pressure", "LOCAL:pressure-torr"}
        assert mined()["LOCAL:pressure"]["expected_units"] == []
        with_kb = mined("--kb", kb_path)
        assert set(with_kb) == {"LOCAL:pressure"}
        assert with_kb["LOCAL:pressure"]["expected_units"] == ["mmHg"]
        assert with_kb["LOCAL:pressure"]["category"] == "MEASUREMENT"

    def test_mine_without_kb_ignores_the_kb_environment(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "r.txt"
        corpus.write_text("Pressure of 140 Torr\n", encoding="utf-8")
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps({"version": 1, "units": {"torr": "mmHg"}, "entries": []}))
        monkeypatch.setenv("CRITEX_KB", str(kb_path))
        out_path = tmp_path / "cand.json"
        assert run(capsys, "kb", "mine", corpus, "--out", out_path)[0] == 0
        (entry,) = json.loads(out_path.read_text())["entries"]
        assert entry["expected_units"] == []

    def test_mine_with_a_malformed_kb_is_a_data_error(self, capsys, tmp_path, fig2_file):
        path, message = malformed_kb_file(tmp_path, "blank synonym")
        code, out, err = run(capsys, "kb", "mine", fig2_file, "--out", tmp_path / "c.json",
                             "--kb", path)
        assert (code, out) == (2, "")
        assert message in err
        assert not (tmp_path / "c.json").exists()


class TestConfigCommand:
    def test_show_defaults(self, capsys):
        # the exact text: key order, nesting and float spelling, with the KB path
        code, out, err = run(capsys, "config", "--show-defaults")
        assert code == 0 and err == ""
        assert out == SHOW_DEFAULTS.replace("KB_PATH", json.dumps(str(bundled_kb_path()))[1:-1])


SHOW_DEFAULTS = """{
  "mode": "lines",
  "theta": 0.5,
  "min_score": 0.2,
  "cross_sentence": false,
  "tau": 2.0,
  "boundary_penalty": 5.0,
  "weights": {
    "unit": 0.6,
    "pattern": 0.25,
    "range": 0.15
  },
  "kb": "KB_PATH"
}
"""
