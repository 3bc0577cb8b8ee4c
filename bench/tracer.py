"""Outside-in tracing of critex's layers.

The tracer replaces functions where the pipeline and the CLI look them up
(``critex.pipeline.extract_attributes``, ``critex.cli.parse_blocks``, ...)
with timing wrappers, so no program file changes.  Calls made once per
record or per attribute become spans kept in memory; calls made once per
candidate or per n-gram (distances, compatibility, KB probes) are only
counted and timed per record, which keeps memory bounded.  A span's self
time is its duration minus what its child spans cover and minus the time of
the per-candidate calls made directly under it.

A target that a later version of the program no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import astuple, dataclass
from pathlib import Path

# (module, attribute, layer name); attribute may be "Class.method".
SPAN_TARGETS = (
    ("critex.pipeline", "annotate_record", "pipeline.annotate_record"),
    ("critex.pipeline", "split_records", "segmentation.split_records"),
    ("critex.pipeline", "recognize_entities", "entities.recognize_entities"),
    ("critex.pipeline", "link_abbreviations", "entities.link_abbreviations"),
    ("critex.pipeline", "extract_attributes", "attributes.extract_attributes"),
    ("critex.pipeline", "generate_candidates", "linker.generate_candidates"),
    ("critex.pipeline", "group_by_attribute", "linker.group_by_attribute"),
    ("critex.pipeline", "p_sup", "linker.p_sup"),
    ("critex.pipeline", "assign", "linker.assign"),
    ("critex.linker", "group_by_attribute", "linker.group_by_attribute"),
    ("critex.io_eval", "to_json", "io_eval.to_json"),
    ("critex.cli", "load_kb", "kb.load_kb"),
    ("critex.cli", "read_corpus", "io_eval.read_corpus"),
    ("critex.cli", "split_records", "segmentation.split_records"),
    ("critex.cli", "parse_blocks", "syntax.parse_blocks"),
    ("critex.cli", "align_block", "syntax.align_block"),
    ("critex.cli", "to_json", "io_eval.to_json"),
)
LEAF_TARGETS = (
    ("critex.pipeline", "heuristic_distance", "syntax.heuristic_distance"),
    ("critex.pipeline", "path_distance", "syntax.path_distance"),
    ("critex.linker", "score_compatibility", "linker.score_compatibility"),
    ("critex.kb", "KnowledgeBase.lookup_terms", "kb.lookup_terms"),
    ("critex.kb", "KnowledgeBase.normalize_unit", "kb.normalize_unit"),
)
# The record a span belongs to is the first argument of these.
_RECORD_ARG = frozenset({"pipeline.annotate_record"})
# Work counts are taken from results on the pipeline path only, so a second
# ingest-time split in the CLI does not count its sentences twice.
_COUNTERS = {
    ("critex.pipeline", "split_records"): (
        ("segmentation.sentences", len),
        ("segmentation.tokens", lambda r: sum(len(s.tokens) for s in r)),
    ),
    ("critex.pipeline", "link_abbreviations"): (("entities.mentions", len),),
    ("critex.pipeline", "extract_attributes"): (("attributes.mentions", len),),
    ("critex.pipeline", "generate_candidates"): (("linker.candidates", len),),
    ("critex.pipeline", "assign"): (("linker.relations", len),),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    record: str | None
    leaf_s: float = 0.0  # time of per-candidate calls made directly inside


class Tracer:
    """Install with :meth:`install`, undo with :meth:`restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[dict] = []  # per-thread leaf and counter tables
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.tables
        except AttributeError:
            local.stack = []
            local.tables = {"leaf": {}, "counts": {}}
            with self._lock:
                self._threads.append(local.tables)
            return local.stack, local.tables

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name, counters):
        clock, spans, ids = time.perf_counter, self.spans, self._ids
        takes_record = name in _RECORD_ARG

        def wrapper(*args, **kwargs):
            stack, tables = self._state()
            parent = stack[-1] if stack else None
            record = args[0] if takes_record and args else (parent[2] if parent else None)
            frame = [next(ids), 0.0, record]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(frame[0], name, start, end, parent[0] if parent else None, record, frame[1])
                )
            counts = tables["counts"]
            for counter, measure in counters:
                counts[counter] = counts.get(counter, 0) + measure(result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            stack, tables = self._state()
            frame = stack[-1] if stack else None
            if frame is not None:
                frame[1] += elapsed
            key = (frame[2] if frame else None, name)
            entry = tables["leaf"].get(key)
            if entry is None:
                entry = tables["leaf"][key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if result:
                entry[2] += 1
            return result

        return wrapper

    def install(self, span_targets=SPAN_TARGETS, leaf_targets=LEAF_TARGETS) -> None:
        for targets, leaf in ((span_targets, False), (leaf_targets, True)):
            for module_name, attr, name in targets:
                owner, member = _resolve(module_name, attr)
                original = getattr(owner, member, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if leaf:
                    wrapped = self._leaf_wrapper(original, name)
                else:
                    wrapped = self._span_wrapper(
                        original, name, _COUNTERS.get((module_name, attr), ())
                    )
                self._patches.append((owner, member, original))
                setattr(owner, member, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, member, original = self._patches.pop()
            setattr(owner, member, original)

    # -- results ------------------------------------------------------------
    def leaf_table(self) -> dict[tuple[str | None, str], list]:
        """(record, name) -> [calls, seconds, truthy results], all threads."""

        merged: dict = {}
        with self._lock:
            for tables in self._threads:
                for key, (calls, seconds, hits) in tables["leaf"].items():
                    entry = merged.setdefault(key, [0, 0.0, 0])
                    entry[0] += calls
                    entry[1] += seconds
                    entry[2] += hits
        return merged

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        with self._lock:
            for tables in self._threads:
                for name, value in tables["counts"].items():
                    merged[name] = merged.get(name, 0) + value
        return merged

    def result(self) -> dict:
        """Everything recorded: spans, the leaf table, counts, absent targets."""

        return {
            "spans": list(self.spans),
            "leaf": self.leaf_table(),
            "counts": self.counts(),
            "absent": list(self.absent),
        }

    def write(self, path: Path) -> None:
        result = self.result()
        result["spans"] = [astuple(s) for s in result["spans"]]
        result["leaf"] = [[rec, name, *v] for (rec, name), v in result["leaf"].items()]
        path.write_text(json.dumps(result), encoding="utf-8")


def load(path: Path) -> dict:
    """Read a :meth:`Tracer.write` file back into the :meth:`Tracer.result` shape."""

    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["spans"] = [Span(*row) for row in raw["spans"]]
    raw["leaf"] = {(rec, name): v for rec, name, *v in raw["leaf"]}
    return raw


def merge(results: list[dict]) -> dict:
    """One result from several (e.g. one per CLI run)."""

    merged: dict = {"spans": [], "leaf": {}, "counts": {}, "absent": results[0]["absent"]}
    for result in results:
        merged["spans"].extend(result["spans"])
        for key, values in result["leaf"].items():
            row = merged["leaf"].get(key, [0, 0.0, 0])
            merged["leaf"][key] = [a + b for a, b in zip(row, values)]
        for name, value in result["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
    return merged


def _resolve(module_name: str, attr: str) -> tuple[object, str]:
    """The object that holds ``attr`` and the member name (owner None if gone)."""

    *path, member = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, member
    for part in path:
        owner = getattr(owner, part, None)
    return owner, member


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child coverage minus direct leaf time.

    Children of one parent normally run one after another, but the union of
    their intervals is taken so that overlapping children are not
    subtracted twice.
    """

    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered - s.leaf_s
    return out


def layer_totals(spans: list[Span], leaf: dict) -> dict[str, dict[str, float]]:
    """Layer name -> {"calls", "total_s", "self_s"} (plus "hits" for leaves)."""

    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.id]
    for (_, name), (calls, seconds, hits) in leaf.items():
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
        row["calls"] += calls
        row["total_s"] += seconds
        row["self_s"] += seconds
        row["hits"] = row.get("hits", 0) + hits
    return out
