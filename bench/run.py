"""critex benchmark: three workloads, end-to-end metrics and a traced run.

Run from anywhere inside a checkout of the repository::

    python3 bench/run.py --workload batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run builds its inputs from ``--seed``, measures a closed loop for
``--seconds``, checks every output, and prints one JSON object as the last
line of stdout: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Times are expressed at the
reference speed of :mod:`calibration`; raw figures and sample counts go to
stderr.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibration
import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("batch", "long-cross", "cli-deps")

SETUP_SPAWNS = 15
MIN_PASSES = 3
CHUNK_S = 0.15  # records timed between two calibrations
CLI_JOBS = 2
CLI_TIMEOUT_S = 120.0
_SETUP_CODE = "import critex; critex.load_kb(critex.bundled_kb_path())"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""

    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


@dataclass
class Tally:
    """Attempts, failures and the relation counts of checked outputs."""

    attempted: int = 0
    failed: int = 0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    logged: int = 0

    def fail(self, message: str, records: int = 1) -> None:
        self.failed += records
        if self.logged < 5:
            self.logged += 1
            log(f"output check failed: {message}")

    def check(self, line: str, record: inputs.GoldRecord) -> bool:
        try:
            pairs = checks.check_output(line, record.id, record.text)
        except checks.OutputError as exc:
            self.fail(str(exc))
            return False
        tp, fp, fn = checks.match_relations(pairs, list(record.relations))
        self.tp, self.fp, self.fn = self.tp + tp, self.fp + fp, self.fn + fn
        return True

    @property
    def f1(self) -> float:
        return checks.f1(self.tp, self.fp, self.fn)


class Bench:
    """One run: the program under test, its KB, the clock and scratch files."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import critex
        from critex import io_eval, pipeline

        self.critex, self.pipeline, self.io_eval = critex, pipeline, io_eval
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tally = Tally()
        self.calibrations: list[float] = []
        # The speed of each CPU of a shared machine drifts on its own, so the
        # run and its children stay on one CPU and calibrate where they run.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.setup_s = None if trace else self.measure_setup()
        self.kb = critex.load_kb(critex.bundled_kb_path())
        self.gold = inputs.read_gold_corpus(Path(critex.mini_corpus_dir()))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- clock ---------------------------------------------------------------
    def calibrate(self) -> float:
        seconds = calibration.measure()
        self.calibrations.append(seconds)
        return seconds

    def reference_scale(self, since: int = 0) -> float:
        """Raw-to-reference factor from the calibrations taken since ``since``."""

        return calibration.REFERENCE_S / statistics.median(self.calibrations[since:])

    def measure_setup(self) -> float:
        """Median time of a fresh process that imports critex and loads the KB.

        Raw seconds: the start-up of a child process does not follow the
        calibration unit's speed (measured), so scaling would add noise.
        """

        cmd = [sys.executable, "-c", _SETUP_CODE]

        def spawn_once():
            subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)

        spawn_once()  # also writes the bytecode caches
        raw = []
        for _ in range(SETUP_SPAWNS):
            start = time.perf_counter()
            spawn_once()
            raw.append(time.perf_counter() - start)
        return statistics.median(raw)

    # -- in-process passes -------------------------------------------------
    def annotate(self, record, config, parses=None) -> str | None:
        try:
            result = self.pipeline.annotate_record(record.id, record.text, self.kb, config, parses=parses)
            return self.io_eval.to_json(result, extended=True)
        except Exception:  # a failing record is counted, and the run goes on
            self.tally.fail(f"{record.id}: {traceback.format_exc(limit=3)}")
            return None

    def check_pass(self, records, config, parses=None) -> tuple[bytes, list[list[int]]]:
        """An untimed pass that checks every output (and warms up).

        Returns the output bytes and the records grouped into chunks of
        about ``CHUNK_S`` seconds, to be timed between calibrations.
        """

        lines, chunks, chunk, chunk_s = [], [], [], 0.0
        for i, record in enumerate(records):
            start = time.perf_counter()
            line = self.annotate(record, config, parses[i] if parses else None)
            chunk_s += time.perf_counter() - start
            self.tally.attempted += 1
            if line is not None and self.tally.check(line, record):
                lines.append(line)
            chunk.append(i)
            if chunk_s >= CHUNK_S:
                chunks.append(chunk)
                chunk, chunk_s = [], 0.0
        if chunk:
            chunks.append(chunk)
        return ("\n".join(lines) + "\n").encode("utf-8"), chunks

    def timed_pass(self, records, config, chunks, latencies, parses=None):
        """Annotate every record once, chunk by chunk between calibrations.

        Appends each record's reference-speed latency to ``latencies`` and
        returns (reference s, raw wall s, CPU s, output digest).
        """

        digest = hashlib.sha256()
        clock = time.perf_counter
        total = 0.0
        cpu0, start = time.process_time(), clock()
        before = self.calibrate()
        for chunk in chunks:
            raw = []
            for i in chunk:
                t0 = clock()
                line = self.annotate(records[i], config, parses[i] if parses else None)
                t1 = clock()
                if line is not None:
                    raw.append((i, t1 - t0))
                    digest.update(line.encode("utf-8") + b"\n")
            after = self.calibrate()
            scale = calibration.REFERENCE_S * 2 / (before + after)
            for i, seconds in raw:
                latencies[i].append(seconds * scale)
                total += seconds * scale
            before = after
        wall, cpu = clock() - start, time.process_time() - cpu0
        self.tally.attempted += len(records)
        return total, wall, cpu, digest.hexdigest()

    def passes(self, records, config, chunks, seconds, min_passes=MIN_PASSES):
        """Closed loop: pass after pass over ``records`` until ``seconds`` pass."""

        latencies = [[] for _ in records]
        scaled, walls, cpus, digests = [], [], [], set()
        deadline = time.perf_counter() + seconds
        while len(walls) < min_passes or time.perf_counter() < deadline:
            total, wall, cpu, digest = self.timed_pass(records, config, chunks, latencies)
            scaled.append(total)
            walls.append(wall)
            cpus.append(cpu)
            digests.add(digest)
        if len(digests) != 1:
            self.tally.fail(f"output digest differs across {len(walls)} passes")
        return latencies, scaled, walls, cpus

    def measure_load_kb(self, n: int = 5) -> float:
        mark, raw = len(self.calibrations), []
        for _ in range(n):
            self.calibrate()
            start = time.perf_counter()
            self.critex.load_kb(self.critex.bundled_kb_path())
            raw.append(time.perf_counter() - start)
        self.calibrate()
        return statistics.median(raw) * self.reference_scale(mark)


# ---------------------------------------------------------------------------
# End-to-end and per-layer metrics
# ---------------------------------------------------------------------------

def end_to_end(bench: Bench, latencies, wall: float, peak_rss_kb: float) -> dict[str, float]:
    per_record = [statistics.median(samples) for samples in latencies if samples]
    log(
        f"{bench.workload}: latency percentiles over {len(per_record)} per-record medians "
        f"of {min(map(len, latencies))}+ samples; calibration median "
        f"{statistics.median(bench.calibrations) * 1e3:.3f} ms (reference "
        f"{calibration.REFERENCE_S * 1e3:.0f} ms) over {len(bench.calibrations)} samples"
    )
    return {
        "setup_s": bench.setup_s,
        "wall_s": wall,
        "records_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(per_record) * 1e3,
        "latency_p99_ms": nearest_rank(per_record, 0.99) * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "relation_f1": bench.tally.f1,
    }


_WORK_COUNTS = (
    "segmentation.sentences", "segmentation.tokens", "entities.mentions",
    "attributes.mentions", "linker.candidates", "linker.relations",
)


def per_layer(trace: dict, passes: int, scale: float, chars: dict[str, int],
              extra: dict[str, float]) -> dict[str, float]:
    """Per-pass layer metrics from a trace; layers not called read as 0.

    ``scale`` turns the trace's raw seconds into reference seconds.
    """

    totals = tracer.layer_totals(trace["spans"], trace["leaf"])
    out = {}
    for _, _, layer in tracer.SPAN_TARGETS + tracer.LEAF_TARGETS:
        out[f"{layer}.calls"] = out[f"{layer}.self_s"] = out[f"{layer}.hit_ratio"] = 0.0
    out.update(extra)
    for layer, row in totals.items():
        out[f"{layer}.calls"] = row["calls"] / passes
        out[f"{layer}.self_s"] = row["self_s"] * scale / passes
        if "hits" in row:
            out[f"{layer}.hit_ratio"] = row["hits"] / row["calls"] if row["calls"] else 0.0
    counts = trace["counts"]
    for name in _WORK_COUNTS:
        out[name] = counts.get(name, 0) / passes
    attrs = counts.get("attributes.mentions", 0)
    out["linker.linked_ratio"] = counts.get("linker.relations", 0) / attrs if attrs else 0.0

    per_record: dict[str, list[float]] = {}
    for s in trace["spans"]:
        if s.name == "pipeline.annotate_record" and s.record in chars:
            per_record.setdefault(s.record, []).append(s.end - s.start)
    points = [(chars[r], statistics.median(v)) for r, v in per_record.items()]
    out["pipeline.length_exponent"] = loglog_slope(points) if len(points) > 1 else 0.0

    by_module: dict[str, float] = {}
    for layer, row in totals.items():
        module = layer.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + row["self_s"] * scale / passes
    whole = sum(by_module.values()) or 1.0
    log("self time per pass by module: " + ", ".join(
        f"{m} {v:.4f} s ({100 * v / whole:.0f}%)"
        for m, v in sorted(by_module.items(), key=lambda kv: -kv[1])
    ))
    if trace["absent"]:
        log("absent layers (reported as 0): " + ", ".join(trace["absent"]))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def in_process(bench: Bench, records, config) -> dict[str, float]:
    """``batch`` and ``long-cross``: one caller annotates records in order."""

    output, chunks = bench.check_pass(records, config)
    if not bench.trace:
        latencies, _, walls, _ = bench.passes(records, config, chunks, bench.seconds)
        log(f"{bench.workload}: {len(walls)} passes of {len(records)} records in {len(chunks)} "
            f"chunks; raw pass wall median {statistics.median(walls):.4f} s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall = sum(statistics.median(samples) for samples in latencies)
        return end_to_end(bench, latencies, wall, peak)

    _, plain, plain_walls, plain_cpus = bench.passes(records, config, chunks, bench.seconds / 2, 2)
    t = tracer.Tracer()
    mark = len(bench.calibrations)
    t.install()
    try:
        _, traced, _, _ = bench.passes(records, config, chunks, bench.seconds / 2, 2)
    finally:
        t.restore()
    t.write(WORK / f"trace-{bench.workload}-seed{bench.seed}.json")
    return per_layer(t.result(), len(traced), bench.reference_scale(mark), {r.id: len(r.text) for r in records}, {
        "io_eval.output_bytes": len(output),
        "cli.cpu_utilization": sum(plain_cpus) / sum(plain_walls),
        "kb.load_kb_s": bench.measure_load_kb(),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    })


def run_batch(bench: Bench) -> dict[str, float]:
    records = inputs.batch_records(bench.gold, bench.seed)
    config = bench.pipeline.PipelineConfig(mode=bench.critex.SplitMode.PARAGRAPHS)
    return in_process(bench, records, config)


def run_long_cross(bench: Bench) -> dict[str, float]:
    records = inputs.long_records(bench.gold, bench.seed)
    config = bench.pipeline.PipelineConfig(
        mode=bench.critex.SplitMode.PARAGRAPHS, cross_sentence=True
    )
    return in_process(bench, records, config)


def spawn(bench: Bench, cmd: list[str]) -> tuple[int, resource.struct_rusage]:
    """Run a child to completion; (exit code, its own rusage)."""

    with open(bench.work / "child-stderr.txt", "ab") as err:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli_deps(bench: Bench) -> dict[str, float]:
    critex = bench.critex
    lines_mode = critex.SplitMode.LINES
    records = inputs.cli_records(bench.gold, bench.seed)
    sentences = [critex.split_records(r.text, lines_mode, record_id=r.id) for r in records]
    trees = inputs.dependency_trees(
        [[[t.surface for t in s.tokens] for s in sents] for sents in sentences], bench.seed
    )
    parses = [
        [
            critex.DependencyParse(tuple(h for _, h, _ in rows), tuple(d for _, _, d in rows), s)
            for s, rows in zip(sents, record_trees)
        ]
        for sents, record_trees in zip(sentences, trees)
    ]
    work = bench.work
    corpus, parse_file, out = work / "records.jsonl", work / "parses.conll", work / "out.jsonl"
    inputs.write_jsonl(records, corpus)
    inputs.write_parses(trees, parse_file)
    config = bench.pipeline.PipelineConfig(mode=lines_mode)

    expected, chunks = bench.check_pass(records, config, parses)  # serial, in process
    expected_digest = hashlib.sha256(expected).hexdigest()
    args = [
        "annotate", "--mode", "lines", "--deps", str(parse_file), "--extended",
        "--format", "jsonl", "--jobs", str(CLI_JOBS), "--out", str(out), str(corpus),
    ]
    plain_cmd = [sys.executable, "-m", "critex.cli", *args]

    # The CLI runs on the run's one CPU.  Given both CPUs, its two threads
    # hand the interpreter lock across CPUs, and its wall time spread by 27-31%
    # between runs (measured); on one CPU it follows the calibration unit.
    # Calibrations taken between CLI runs set the scale of the CLI's times.
    cli_cals: list[float] = []

    def invoke(cmd) -> tuple[float, resource.struct_rusage]:
        """One CLI run; (raw wall s, rusage), output checked."""

        cli_cals.extend(bench.calibrate() for _ in range(3))
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        code, usage = spawn(bench, cmd)
        raw = time.perf_counter() - start
        bench.tally.attempted += len(records)
        produced = out.read_bytes() if out.exists() else b""
        if code != 0 or produced != expected:
            got, want = produced.splitlines(), expected.splitlines()
            bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
            stderr = (work / "child-stderr.txt").read_text(encoding="utf-8", errors="replace")
            bench.tally.fail(
                f"CLI exit {code}; {bad} output lines differ from the serial in-process run"
                f"\n{stderr[-2000:]}",
                records=max(bad, 1),
            )
        return raw, usage

    if not bench.trace:
        latencies = [[] for _ in records]
        walls, rss = [], []
        deadline = time.perf_counter() + bench.seconds
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            raw, usage = invoke(plain_cmd)
            walls.append(raw)
            rss.append(usage.ru_maxrss)
            *_, digest = bench.timed_pass(records, config, chunks, latencies, parses)
            if digest != expected_digest:
                bench.tally.fail("in-process output differs across passes")
        cli_cals.extend(bench.calibrate() for _ in range(3))
        log(f"cli-deps: {len(walls)} CLI runs of {len(records)} records; "
            f"raw wall median {statistics.median(walls):.4f} s")
        cli_scale = calibration.REFERENCE_S / statistics.median(cli_cals)
        return end_to_end(bench, latencies, statistics.median(walls) * cli_scale,
                          statistics.median(rss))

    walls, cpu_shares = [], []
    deadline = time.perf_counter() + bench.seconds / 2
    while len(walls) < 2 or time.perf_counter() < deadline:
        raw, usage = invoke(plain_cmd)
        walls.append(raw)
        cpu_shares.append((usage.ru_utime + usage.ru_stime) / raw)
    plain_scale = calibration.REFERENCE_S / statistics.median(cli_cals)
    cli_cals.clear()
    traces, traced_walls = [], []
    deadline = time.perf_counter() + bench.seconds / 2
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        trace_file = work / f"trace-{len(traced_walls)}.json"
        raw, _ = invoke([sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_file), *args])
        traced_walls.append(raw)
        traces.append(tracer.load(trace_file))
    traced_scale = calibration.REFERENCE_S / statistics.median(cli_cals)
    shutil.copyfile(work / "trace-0.json", WORK / f"trace-{bench.workload}-seed{bench.seed}.json")
    return per_layer(tracer.merge(traces), len(traces), traced_scale, {r.id: len(r.text) for r in records}, {
        "io_eval.output_bytes": len(expected),
        "cli.cpu_utilization": statistics.median(cpu_shares),
        "kb.load_kb_s": bench.measure_load_kb(),
        "trace.overhead_ratio": (statistics.median(traced_walls) * traced_scale)
        / (statistics.median(walls) * plain_scale),
    })


RUNNERS = {"batch": run_batch, "long-cross": run_long_cross, "cli-deps": run_cli_deps}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import critex from it."""

    if not (SRC / "critex" / "__init__.py").is_file():
        raise SystemExit(f"bench: no critex sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import critex

    if Path(critex.__file__).resolve().parent != (SRC / "critex").resolve():
        raise SystemExit(f"bench: imported critex from {critex.__file__}, not from {SRC}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wanted = load_spec()["per_layer" if trace else "end_to_end"]
    import_program()
    bench = Bench(workload, seed, seconds, trace)
    try:
        values = RUNNERS[workload](bench)
    finally:
        bench.close()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not computed: {missing}")
    tally = bench.tally
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; one table of every metric."""

    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_share={result['failed'] / result['attempted']:.6f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
