#!/usr/bin/env python3
"""stratagem benchmark: a single-process, closed-loop batch runner.

Run from the root of a source checkout:

    python3 bench/run.py --workload report-batch --seed 1 --seconds 25 --trace 0

One client, one document at a time: the next document starts only when
the previous one has finished, which is how stratagem is used (a batch CLI
or library call), not as a server. Inputs are generated from ``--seed``
during set-up; the loop then runs whole passes over them until
``--seconds`` have gone by and checks every output. A document fails if
it raises, exits non-zero or fails a check; failures are counted, never
fatal.

``--trace 0`` reports the end-to-end metrics. Times are normalized by a
machine-speed reference timed around each document (speed.py), because
the shared host's speed swings by up to 2x; the summary lines also give
the raw wall-clock figures. ``--trace 1`` wraps the
program's public functions (see tracing.py) and runs the same whole
passes, each document traced and then once more untraced; it reports
per-layer self time per document, exact per-document counts from the
first pass, and the tracing overhead, and writes the spans to
``.bench_out/``. METRICS.md says which end-to-end metric and workload
each per-layer metric should move.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 11
WARMUP_DOCS = 2
MAX_REPORTED_FAILURES = 5

_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import speed
before = speed.text_reference()
start = time.perf_counter()
import stratagem.cli
took = time.perf_counter() - start
print(took, (before + speed.text_reference()) / 2)
"""


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import ``stratagem.cli``,
    which imports every module of the program, normalized by the text
    reference timed around the import; and the median raw time. One
    discarded import first writes the bytecode cache, as an installed
    program would have it."""
    normalized, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        took, reference = map(float, out.stdout.split())
        normalized.append(took * speed.REFERENCE_S / reference)
        raw.append(took)
    return statistics.median(normalized[1:]), statistics.median(raw[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed loop over the pool; counts documents and failures."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def one(self, index: int, tracer=None) -> float | None:
        """Run and check one pool document; with a tracer, the run (not
        the check) is recorded as a "doc" span. Returns the run's wall
        time, or None when the document failed."""
        doc = self.pool[index]
        self.attempted += 1
        if tracer:
            record = tracer.begin("doc")
        start = time.perf_counter()
        try:
            output = self.workload.run(doc)
        except Exception as exc:  # a failing document must not end the run
            self.fail(index, f"raised {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(record)
        problems = self.workload.check(doc, output)
        if problems:
            self.fail(index, "; ".join(problems))
            return None
        return elapsed

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(f"doc {index}: {message}")


def tail(latencies: list[float], percentile: int) -> float:
    """Latency at ``percentile`` (nearest rank)."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[rank - 1]


def whole_passes(size: int, seconds: float, step, after_pass=None) -> int:
    """Call ``step(doc_index, pass_index)`` over whole passes of the pool
    until ``seconds`` have gone by, so every run measures each pool
    document equally often."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i in range(size):
            step(i, passes)
        passes += 1
        if after_pass:
            after_pass()
    return passes


def latency_metrics(lat: list[float], pct: int) -> dict:
    return {
        "docs_per_s": (len(lat) / sum(lat), "1/s"),
        "doc_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "doc_tail_ms": (tail(lat, pct) * 1000, "ms"),
    }


def measure(workload, pool, seconds: float, report: list[str]) -> tuple[Loop, dict]:
    """End-to-end metrics, after a few untimed documents have warmed up
    whatever the program caches or sets up lazily. Each document's wall
    time is normalized by the workload's speed reference timed just before
    and just after it (see speed.py); the raw figures go to the summary."""
    loop = Loop(workload, pool)
    for doc in pool[:WARMUP_DOCS]:
        with contextlib.suppress(Exception):  # the timed loop reports failures
            workload.run(doc)
    refs = [workload.reference()]
    raw: list[float] = []
    lat: list[float] = []

    def step(i, _):
        elapsed = loop.one(i)
        refs.append(workload.reference())
        if elapsed is not None:
            raw.append(elapsed)
            lat.append(elapsed * speed.REFERENCE_S * 2 / (refs[-2] + refs[-1]))

    passes = whole_passes(len(pool), seconds, step)
    if not lat:
        return loop, {}
    pct = workload.tail_percentile
    beyond = sum(1 for x in lat if x > tail(lat, pct))
    metrics = latency_metrics(lat, pct)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.append(f"{passes} pass(es) over {len(pool)} docs; "
                  f"doc_tail_ms is p{pct}: {beyond} of {len(lat)} docs beyond it")
    wall = ", ".join(f"{k} {v:.4f}" for k, (v, _) in latency_metrics(raw, pct).items())
    report.append(f"wall clock, not normalized: {wall}; reference median "
                  f"{statistics.median(refs) * 1000:.3f} ms (nominal "
                  f"{speed.REFERENCE_S * 1000:g} ms)")
    report.append(f"error_rate {loop.failed / loop.attempted:.4f} "
                  f"({loop.failed} of {loop.attempted} docs failed)")
    return loop, metrics


def traced(workload, pool, seconds: float, spans_path: Path, report: list[str]):
    """Whole passes over the pool. Each document runs traced, then again
    untraced right after it, so that the tracing overhead compares runs
    made at the same machine speed."""
    import tracing

    tracer = tracing.Tracer()
    loop = Loop(workload, pool)
    untraced_s = 0.0
    first_pass: list[dict] = []

    def step(i, pass_index):
        nonlocal untraced_s
        tracer.doc = pass_index * len(pool) + i
        tracing.instrument(tracer)
        try:
            elapsed = loop.one(i, tracer)
        finally:
            tracer.restore()
        if elapsed is None:
            return
        start = time.perf_counter()
        workload.run(pool[i])
        untraced_s += time.perf_counter() - start

    def keep_counts():
        if not first_pass:
            first_pass.append(dict(tracer.counts))

    passes = whole_passes(len(pool), seconds, step, keep_counts)
    docs = passes * len(pool)
    self_s = tracer.self_times()
    metrics = tracing.layer_metrics(self_s, docs, first_pass[0], len(pool))
    traced_rate = docs / sum(r[2] - r[1] for r in tracer.spans if r[0] == "doc")
    untraced_rate = docs / untraced_s if untraced_s else 0.0
    metrics.update({
        "trace.docs_per_s": (traced_rate, "1/s"),
        "trace.untraced_docs_per_s": (untraced_rate, "1/s"),
        "trace.overhead": (untraced_rate / traced_rate - 1, "ratio"),
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    report.append(f"traced {passes} pass(es) of {len(pool)} docs; "
                  f"harness self time in doc spans {self_s['doc'] * 1000 / docs:.3f} ms/doc; "
                  f"spans in {spans_path}")
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stratagem" / "__init__.py").is_file():
        print(f"error: no stratagem sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}"]
    try:
        try:
            pinned = checks.pinned_digests()
        except Exception as exc:  # a broken program is a failed check
            pinned = [f"pinned Foobar render raised {exc!r}"]
        pool = workload.build(args.seed, workdir)
        if args.trace:
            spans = Path(".bench_out") / f"spans-{args.workload}-{args.seed}.jsonl"
            loop, metrics = traced(workload, pool, args.seconds, spans, report)
        else:
            setup, setup_raw = setup_seconds()
            loop, metrics = measure(workload, pool, args.seconds, report)
            metrics["setup_s"] = (setup, "s")
            report.append(f"setup_s wall clock, not normalized: {setup_raw:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in pinned + loop.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    attempted = loop.attempted + 1
    failed = loop.failed + (1 if pinned else 0)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
