"""Benchmark worker: one workload's setup and passes, in this process only.

run.py starts one worker process per role, one at a time, so import time
and peak RSS belong to the workload alone and the cores are not shared.

    python3 perfbench/worker.py setup   WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py measure WORKLOAD SEED WORKDIR SECONDS TRACE [TRACE_FILE]
    python3 perfbench/worker.py record  WORKDIR
    python3 perfbench/worker.py reference

setup times the import and the workload's setup.  measure does the same
and then runs passes for about SECONDS (at least MIN_PASSES); with TRACE 1
every other pass records spans, which go to TRACE_FILE.  record runs one
pass of every workload at the default seed and rewrites expected.json from
its answers; do that only when a change is meant to alter the answers.
reference times the loop run.py rescales wall times by.  setup, measure
and reference print one JSON object as their last stdout line.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before cnflab is imported

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 1


def reference_s():
    """Wall seconds of a fixed pure-Python loop in the mix cnflab's layers
    run on: interpreter dispatch and dict updates, shift/and/popcount on
    512 KiB big ints, and fresh 4 MB big ints turned into bytes, as the
    2^25-bit solution bitmaps are.  It uses no cnflab code."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(800_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 7)
    bits = (1 << (1 << 22)) // 3
    for _ in range(80):
        bits ^= bits << 1
        acc += (bits & (bits >> 7)).bit_count()
    bits = (1 << (1 << 25)) // 3
    for i in range(12):
        mask = bits ^ (bits >> (i + 1))
        acc += (mask & bits).bit_count() + mask.to_bytes(1 << 22, "little")[i]
    return time.perf_counter() - start


def _setup(name, seed, workdir, tracer):
    with tracer.span("setup"):
        workload = workloads.WORKLOADS[name](seed, workdir, tracer)
    return workload, time.perf_counter() - _START


def _summary(passes):
    """Failures, answers and counters of a run of passes; every pass must
    repeat the first one's answers and counters exactly."""
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:20]
    for i, p in enumerate(passes[1:], 1):
        if p.answers != first.answers or p.counters != first.counters:
            failed += 1
            errors.append("pass %d: answers or counters differ from pass 0" % i)
    answers = json.dumps(first.answers, sort_keys=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "answers": first.answers,
        "answers_sha256": workloads.sha256_text(answers),
        "counters": first.counters,
    }


def _trace_summary(tracer):
    roots = spans.per_root(tracer.spans, "pass")
    layers = spans.layer_medians(roots)
    setup = spans.layer_medians(spans.per_root(tracer.spans, "setup"))
    covered = [sum(row["busy_s"] for row in r["layers"].values()) / r["duration_s"]
               for r in roots]
    query = roots[0]["layers"].get("solutions.query", {})
    return {
        "layers": layers,
        "setup_layers": setup,
        "coverage": statistics.median(covered),
        "spans_per_pass": 1 + sum(row["calls"] for row in roots[0]["layers"].values()),
        "query_rss_growth_mb": query.get("rss_growth_mb", 0.0),
    }


def measure(name, seed, workdir, seconds, traced, trace_file=None):
    """Setup, then passes for about SECONDS.  Traced, the passes alternate
    between tracing on and off, starting with on, so the tracing overhead
    is measured under the same machine conditions as the passes it slows."""
    tracer = spans.Tracer(name) if traced else spans.NullTracer()
    workload, setup_s = _setup(name, seed, workdir, tracer)
    expected = workloads.expected_answers(name, seed)
    tracers = [tracer, spans.NullTracer()] if traced else [tracer]
    min_passes = 2 * len(tracers) if traced else MIN_PASSES
    passes, times = [], []
    began = time.perf_counter()
    # stop before a pass that would likely end after SECONDS
    while (len(passes) < min_passes
           or time.perf_counter() - began + statistics.median(times) <= seconds):
        workload.tracer = tracers[len(passes) % len(tracers)]
        p = workloads.Pass(workload.tracer, expected)
        start = time.perf_counter()
        with workload.tracer.span("pass"):
            workload.run_pass(p)
        times.append(time.perf_counter() - start)
        passes.append(p)
    plain = slice(1, None, 2) if traced else slice(None)
    out = {"setup_s": setup_s, "pass_s": times[plain], "peak_rss_mb": spans.peak_rss_mb()}
    out.update(_summary(passes))
    out["setup_counters"] = workload.setup_counters
    if traced:
        out["traced_pass_s"] = times[::2]
        out["trace"] = _trace_summary(tracer)
        out["trace"]["span_cost_s"] = spans.span_cost_s()
        Path(trace_file).write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "summary": spans.summarize(tracer.spans),
            "spans": tracer.spans,
        }))
    return out


def record(workdir):
    answers = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        tracer = spans.NullTracer()
        workload = cls(workloads.DEFAULT_SEED, Path(workdir) / name, tracer)
        p = workloads.Pass(tracer, None)
        workload.run_pass(p)
        if p.failed:
            raise SystemExit("%s: %d failed operations: %s" % (name, p.failed, p.errors))
        answers[name] = p.answers
    workloads.EXPECTED_FILE.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


def main(argv):
    role = argv[0]
    if role == "record":
        record(argv[1])
        return
    if role == "reference":
        print(json.dumps({"reference_s": reference_s()}))
        return
    name, seed, workdir = argv[1], int(argv[2]), argv[3]
    if role == "setup":
        result = {"setup_s": _setup(name, seed, workdir, spans.NullTracer())[1]}
    elif role == "measure":
        result = measure(name, seed, workdir, float(argv[4]), argv[5] == "1",
                         argv[6] if len(argv) > 6 else None)
    else:
        raise SystemExit("unknown role %r" % role)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
