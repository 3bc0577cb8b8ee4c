"""Command-line interface: ``critex annotate | evaluate | kb | config``.

Exit codes: 0 on success, 2 on data errors (malformed inputs, span or
alignment failures, paths that are missing or cannot be read or written),
64 on usage errors.  Output is deterministic: records are processed in id
order and repeated runs produce identical bytes.  ``annotate`` annotates
the records in chunks of ``_CHUNK``, stage by stage over the whole chunk
(``pipeline._annotate_split``), and writes each chunk's output in one
write as soon as the chunk is done, so a data error part-way leaves the
chunks before it written.  Once the KB is loaded and, under ``--deps``,
every parse block is aligned (all of them before the first record is
annotated), no data error is known to be reachable.
Flag defaults come from ``pipeline.DEFAULT_CONFIG``, and ``PipelineConfig``
checks ``annotate``'s settings: a bad value is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import pipeline
from .errors import CritexError, CycleDetected, ParseMismatch
from .io_eval import (
    ElementType,
    EvalReport,
    MatchMode,
    evaluate,
    read_brat_dir,
    read_corpus,
    read_predictions,
    read_text,
    to_json,
)
from .kb import KnowledgeBase, load_kb, mine_kb_candidates, save_kb
from .resources import bundled_kb_path
from .segmentation import SplitMode, split_records
from .syntax import align_block, parse_blocks

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_USAGE = 64
# records annotated together, stage by stage, and written in one write
_CHUNK = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a positive integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _build_parser() -> _Parser:
    defaults = pipeline.DEFAULT_CONFIG
    modes = tuple(m.value for m in SplitMode)
    parser = _Parser(prog="critex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    annotate = sub.add_parser("annotate", help="structure records into relations")
    annotate.add_argument("input", help="record file, directory of .txt, or .jsonl")
    annotate.add_argument("--kb", help="knowledge base path (default: $CRITEX_KB or bundled)")
    annotate.add_argument(
        "--mode", choices=modes, default=defaults.mode.value,
        help=f"sentence layout of the records (default: {defaults.mode.value})",
    )
    annotate.add_argument("--theta", type=float, default=defaults.theta,
                          help="mixture weight of the compatibility signal")
    annotate.add_argument("--min-score", type=float, default=defaults.min_score,
                          help="assignment threshold")
    annotate.add_argument("--cross-sentence", action="store_true",
                          help="allow links between entities and attributes of different sentences")
    annotate.add_argument("--deps", help="external dependency parses (ID FORM HEAD DEPREL blocks)")
    annotate.add_argument("--extended", action="store_true",
                          help="include mention offsets, payloads and scores in the output")
    annotate.add_argument("--format", choices=("json", "jsonl"), default="json",
                          help="pretty documents or one line per record")
    annotate.add_argument("--out", help="write to a file instead of stdout")
    annotate.add_argument("--jobs", type=_positive_int, default=1,
                          help="accepted for compatibility; has no effect")

    evaluate_cmd = sub.add_parser("evaluate", help="score predictions against Brat gold")
    evaluate_cmd.add_argument("--gold", required=True, help="directory of .txt/.ann pairs")
    evaluate_cmd.add_argument("--pred", required=True, help="JSONL of extended annotate output")
    evaluate_cmd.add_argument("--mode", choices=("exact", "overlap", "both"), default="both")
    evaluate_cmd.add_argument("--match-labels", action="store_true",
                              help="require relation labels to match")
    evaluate_cmd.add_argument("--format", choices=("table", "json"), default="table")

    kb_cmd = sub.add_parser("kb", help="knowledge-base utilities")
    kb_sub = kb_cmd.add_subparsers(dest="kb_command", required=True, parser_class=_Parser)
    kb_validate = kb_sub.add_parser("validate", help="check a knowledge-base file")
    kb_validate.add_argument("path")
    kb_mine = kb_sub.add_parser("mine", help="mine candidate entries from a corpus")
    kb_mine.add_argument("corpus", help="record file, directory of .txt, or .jsonl")
    kb_mine.add_argument("--out", required=True, help="candidate file to write (for curation)")
    kb_mine.add_argument("--mode", choices=modes, default=defaults.mode.value)
    kb_mine.add_argument("--kb", help="knowledge base whose unit spellings mining also knows"
                         " (default: the built-in unit table only)")

    config = sub.add_parser("config", help="show configuration")
    config.add_argument("--show-defaults", action="store_true",
                        help="print all default parameters as JSON")

    return parser


def _resolve_kb_path(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("CRITEX_KB")
    if env:
        return Path(env)
    return bundled_kb_path()


def _block_where(deps_path: str, cursor: int, record_id: str, sentence_index: int) -> str:
    """Names a parse block (counted from 1), its record and its sentence."""

    return f"{deps_path}: block {cursor + 1} (record {record_id}, sentence {sentence_index})"


def _load_parses(deps_path: str, records, mode: SplitMode):
    """Split every record and match parse blocks to its sentences, in id order.

    Returns one ``(record_id, text, sentences, parses)`` per record, as
    ``pipeline._annotate_split`` takes them.  Alignment and tree errors
    name the block (counted from 1), the record and the sentence index.
    Each raw block is dropped once it is aligned.
    """

    try:
        blocks = parse_blocks(read_text(Path(deps_path)))
    except ParseMismatch as exc:
        raise ParseMismatch(exc.index, f"{deps_path}: {exc}") from None
    n_blocks = len(blocks)
    blocks.reverse()  # popped from the end, so in file order
    split = []
    cursor = 0
    for record_id, text in records:
        sentences = split_records(text, mode, record_id=record_id)
        if cursor + len(sentences) > n_blocks:
            raise ParseMismatch(
                cursor, f"{deps_path}: fewer parse blocks than sentences"
            )
        parses = []
        for s in sentences:
            try:
                parses.append(align_block(blocks.pop(), s))
            except ParseMismatch as exc:
                where = _block_where(deps_path, cursor, record_id, s.sentence_index)
                raise ParseMismatch(exc.index, f"{where}: {exc}") from None
            except CycleDetected as exc:
                where = _block_where(deps_path, cursor, record_id, s.sentence_index)
                raise CycleDetected(f"{where}: {exc}") from None
            cursor += 1
        split.append((record_id, text, sentences, parses))
    if cursor != n_blocks:
        raise ParseMismatch(cursor, f"{deps_path}: more parse blocks than sentences")
    return split


def _cmd_annotate(args, config: pipeline.PipelineConfig) -> int:
    kb = load_kb(_resolve_kb_path(args.kb))
    records = sorted(read_corpus(args.input), key=lambda r: r[0])
    # every parse is aligned before the first record is annotated
    split = _load_parses(args.deps, records, config.mode) if args.deps else None
    indent = None if args.format == "jsonl" else 2
    # The KB, the records and their parses live until the command ends.  A
    # chunk's results outlive its stages, so collections run while it is
    # annotated; frozen, the ingested objects are not walked by them.
    gc.freeze()
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            for at in range(0, len(records), _CHUNK):
                if split is None:
                    chunk = [
                        (rid, text, split_records(text, config.mode, record_id=rid), None)
                        for rid, text in records[at : at + _CHUNK]
                    ]
                else:
                    chunk = split[at : at + _CHUNK]
                results = pipeline._annotate_split(chunk, kb, config)
                # each chunk is written in one write, as soon as it is annotated
                out.write("".join(
                    [to_json(r, extended=args.extended, indent=indent) + "\n" for r in results]
                ))
    finally:
        gc.unfreeze()
    return EXIT_OK


def _format_table(report: EvalReport) -> str:
    header = f"{'type':<10} {'mode':<8} {'precision':>9} {'recall':>9} {'f1':>9} {'tp':>5} {'fp':>5} {'fn':>5}"
    rows = [header, "-" * len(header)]
    for etype in ElementType:
        for mode in MatchMode:
            if (etype, mode) not in report.micro:
                continue
            c = report.counts(etype, mode)
            rows.append(
                f"{etype.value:<10} {mode.value:<8} "
                f"{c.precision:>9.3f} {c.recall:>9.3f} {c.f1:>9.3f} "
                f"{c.tp:>5d} {c.fp:>5d} {c.fn:>5d}"
            )
    rows.append(f"records: {report.n_records} (micro shown; use --format json for macro)")
    return "\n".join(rows)


def _cmd_evaluate(args) -> int:
    gold = read_brat_dir(args.gold)
    predictions = read_predictions(args.pred)
    mode = None if args.mode == "both" else MatchMode(args.mode.upper())
    report = evaluate(predictions, gold, mode=mode, match_labels=args.match_labels)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_format_table(report))
    return EXIT_OK


def _cmd_kb(args) -> int:
    if args.kb_command == "validate":
        kb = load_kb(args.path)
        print(f"OK: {len(kb.entries)} entries, {len(kb.unit_table)} unit variants")
        return EXIT_OK
    records = read_corpus(args.corpus)
    mode = SplitMode(args.mode)
    sentences = []
    for record_id, text in sorted(records, key=lambda r: r[0]):
        sentences.extend(split_records(text, mode, record_id=record_id))
    if args.kb:
        candidates = mine_kb_candidates(sentences, load_kb(args.kb).normalize_unit)
    else:
        candidates = mine_kb_candidates(sentences)
    save_kb(KnowledgeBase.build(candidates), args.out)
    print(f"wrote {len(candidates)} candidate entries to {args.out}")
    return EXIT_OK


def _cmd_config(args) -> int:
    defaults = dataclasses.asdict(pipeline.DEFAULT_CONFIG)
    defaults["mode"] = pipeline.DEFAULT_CONFIG.mode.value
    defaults["kb"] = str(bundled_kb_path())
    print(json.dumps(defaults, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "annotate":
        # PipelineConfig checks the settings, before any file is read
        try:
            config = pipeline.PipelineConfig(
                mode=SplitMode(args.mode), theta=args.theta,
                min_score=args.min_score, cross_sentence=args.cross_sentence,
            )
        except ValueError as exc:
            parser.error(str(exc))
    try:
        if args.command == "annotate":
            return _cmd_annotate(args, config)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "kb":
            return _cmd_kb(args)
        return _cmd_config(args)
    except (CritexError, OSError) as exc:
        # OSError: a path that is missing, a directory or unreadable
        print(f"critex: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
