"""cnflab's benchmark: four seeded experiment workloads, timed end to end
and, in a separate traced run, per layer.

Run it from the repository root (it needs src/cnflab, nothing installed):

    python3 perfbench/run.py --workload learn --seed 0 --seconds 30 --trace 0

Workloads (why each exists, and which layer metric should move on it, is
in BENCHMARK.json and perfbench/baseline.json):

    learn        learning trials at the predicted sample size
    sweep        the paper's T*(n) sample-complexity sweep
    exact-dense  exact queries on a random 3-CNF at n = 25, alpha = 3.0
    reveal       bad sets, niceness estimates, exhaustive reveals, one CLI run

Every workload is single-process, single-threaded and closed-loop: a pass
is the whole experiment, run in a worker process (worker.py), and the next
pass starts when the previous one ends.  Workers run one at a time, so a
worker's peak RSS is the workload's own and the cores are not shared.  The
untraced passes are split over MEASURE_PROCESSES fresh workers, each given
an equal share of the seconds: a page-fault-heavy pass (exact-dense) keeps
one speed for a process's whole life, and that speed differs by up to 30%
between processes, so one process per run would make every run a single
sample of it.

pass_s and setup_s are nominal seconds: wall seconds times REF_NOMINAL_S
over the median wall time of a fixed reference loop (worker.reference_s),
run in a worker of its own before the first measuring worker and after
each one.  The guests of a shared virtual machine slow each other down,
for minutes at a time.  On a 2-vCPU Xeon guest, plain wall pass_s of
sweep, which does the same work on every seed, spread by 0.27 and 0.30
(quartile distance over median) in two ten-run sets out of six measured,
past the 0.25 bound; the loop, timed in the second of them, slowed down
with the machine, and the rescaled figures of the same runs spread by 0.14
(wall_clock_sets in perfbench/baseline.json).  Between the two baseline
sets there the machine sped up: median wall pass_s fell by 3-25% per
workload, while the rescaled medians moved by less than 8%.  On a quiet
machine the rescaling adds the loop's own noise: over those two sets wall
spreads were 0.09-0.23 and rescaled ones 0.04-0.23.  The loop uses no
cnflab code, so a change to cnflab cannot move it.  It runs in a process
of its own, so its memory never shows in a measuring worker's peak RSS;
not in this one either, since a child inherits its parent's peak RSS at
exec.  The info line before the result gives the wall times and the loop's
median.  The traced run's times are plain wall seconds.

--trace 0 prints the end-to-end metrics:
    pass_s       median nominal seconds of one pass over the run's passes
    peak_rss_mb  peak resident memory of a worker that ran passes (the
                 largest of the workers')
    setup_s      median, over SETUP_REPEATS + MEASURE_PROCESSES processes,
                 of the nominal seconds to import cnflab, generate the
                 instances and write the CLI leg's input files
    ok_frac      1 - failed / attempted operations (the failure fraction is
                 its complement; an end-to-end metric must never read 0)
--trace 1 runs one worker whose passes alternate between tracing on and off
and prints the per-layer metrics: calls and median busy seconds per traced
pass for every layer span, the work counters and the tracing overhead:
traced minus untraced pass_s, the range of the untraced passes it has to
stand out from, and the direct estimate spans per pass times the cost of
one empty span.  The spans go to .perfbench_work/trace-WORKLOAD-seedSEED.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A run is incorrect if any operation fails, or if two
passes of one run (traced or not), or two runs of the same seed, disagree
on answers or work counters.  The first correct run of a seed is kept in
.perfbench_work/history/, under a key of expected.json's contents, so
re-recording the expected answers starts a new history.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("learn", "sweep", "exact-dense", "reveal")
SETUP_REPEATS = 7
MEASURE_PROCESSES = 3
HISTORY_KEYS = ("answers_sha256", "counters", "setup_counters")
# Nominal seconds of one reference loop: reported times are wall times
# rescaled to a machine on which worker.reference_s() takes this long.
REF_NOMINAL_S = 0.5
# A run gives up after 2 * --seconds plus this margin: the measured seconds,
# one pass of overshoot per worker and the setup processes fit well inside.
DEADLINE_MARGIN_S = 110

LAYERS = (
    "generators",
    "solutions.space",
    "solutions.query",
    "solutions.sample_uniform",
    "learner.valiant_learn",
    "learner.sample_complexity_sweep",
    "resilience.resilience_theta",
    "structure.identify_bad",
    "reveal.estimate_nice_probability",
    "reveal.reveal",
    "reveal.is_nice",
    "cli.reveal_sim",
)
COUNTERS = (
    ("generators.clauses", "count"),
    ("solutions.space.bits", "count"),
    ("solutions.sample_uniform.draws", "count"),
    ("learner.valiant_learn.pattern_updates", "count"),
    ("learner.valiant_learn.clauses_out", "count"),
    ("learner.sample_complexity_sweep.trial_cells", "count"),
    ("learner.sample_complexity_sweep.success_ratio", "ratio"),
    ("resilience.resilience_theta.subsets", "count"),
    ("resilience.resilience_theta.candidates", "count"),
    ("structure.identify_bad.bad_clauses", "count"),
    ("reveal.estimate_nice_probability.trials", "count"),
    ("reveal.estimate_nice_probability.nice_ratio", "ratio"),
    ("reveal.reveal.steps", "count"),
)


class WorkerError(Exception):
    pass


def _worker(deadline, *args):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker %s timed out" % args[0]) from exc
    if proc.returncode != 0:
        raise WorkerError("worker %s exited %d:\n%s"
                          % (args[0], proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (label, value); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return "p%g" % (100.0 * (n - 10) / n), ordered[n - 11]


def _check_history(name, seed, result, correct, problems):
    """Two runs of one seed must agree on answers and work counters.  Only
    a correct run is kept as the reference, under a key of expected.json's
    contents, so re-recording the expected answers starts a new history."""
    answers = hashlib.sha256((HERE / "expected.json").read_bytes()).hexdigest()[:16]
    path = WORK / "history" / answers / ("%s-seed%d.json" % (name, seed))
    current = {key: result[key] for key in HISTORY_KEYS}
    if path.exists():
        if json.loads(path.read_text()) != current:
            problems.append("answers or counters differ from an earlier run "
                            "of this seed (%s)" % path.relative_to(ROOT))
        return
    if not correct:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, sort_keys=True))
    os.replace(tmp, path)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, rundir, deadline):
    refs = [_worker(deadline, "reference")["reference_s"]]
    setups = [_worker(deadline, "setup", args.workload, args.seed, rundir / ("setup%d" % i))
              ["setup_s"] for i in range(SETUP_REPEATS)]
    runs = []
    for i in range(MEASURE_PROCESSES):
        runs.append(_worker(deadline, "measure", args.workload, args.seed,
                            rundir / ("measure%d" % i), args.seconds / MEASURE_PROCESSES, 0))
        refs.append(_worker(deadline, "reference")["reference_s"])
    setups += [r["setup_s"] for r in runs]
    walls = [w for r in runs for w in r["pass_s"]]
    ref = statistics.median(refs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    label, tail = _tail(walls)
    print("%s seed %d: %d passes in %d processes, wall pass_s median %.4f s, %s %.4f s; "
          "wall setup_s median of %d processes %.4f s; reference loop median of %d "
          "%.4f s; %d operations, %d failed"
          % (args.workload, args.seed, len(walls), len(runs), statistics.median(walls),
             label, tail, len(setups), statistics.median(setups), len(refs), ref,
             attempted, failed))
    metrics = {
        "pass_s": _metric(statistics.median(walls) * REF_NOMINAL_S / ref, "s"),
        "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": _metric(statistics.median(setups) * REF_NOMINAL_S / ref, "s"),
        "ok_frac": _metric(1 - failed / attempted, "fraction"),
    }
    return runs, metrics


def traced_run(args, rundir, deadline, problems):
    trace_file = WORK / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    m = _worker(deadline, "measure", args.workload, args.seed, rundir / "traced",
                args.seconds, 1, trace_file)
    t = m["trace"]
    plain_s = statistics.median(m["pass_s"])
    traced_s = statistics.median(m["traced_pass_s"])
    overhead_s = traced_s - plain_s
    # the paired difference is resolved only when it exceeds the spread of
    # the untraced passes; the span cost estimate holds either way
    noise_s = max(m["pass_s"]) - min(m["pass_s"])
    span_cost_s = t["spans_per_pass"] * t["span_cost_s"]
    data = json.loads(trace_file.read_text())
    data.update(traced_pass_s=traced_s, untraced_pass_s=plain_s, overhead_s=overhead_s,
                overhead_noise_s=noise_s, span_cost_s=span_cost_s, coverage=t["coverage"])
    trace_file.write_text(json.dumps(data))
    print("%s seed %d: pass_s median %.4f s over %d traced passes, %.4f s over %d "
          "untraced; overhead %.4f s (%s: untraced passes range over %.4f s), "
          "%d spans per pass at %.2f us each = %.4f s; layer spans cover %.1f%% of "
          "a traced pass; spans in %s"
          % (args.workload, args.seed, traced_s, len(m["traced_pass_s"]), plain_s,
             len(m["pass_s"]), overhead_s,
             "resolved" if abs(overhead_s) > noise_s else "unresolved", noise_s,
             t["spans_per_pass"], 1e6 * t["span_cost_s"], span_cost_s,
             100 * t["coverage"], trace_file.relative_to(ROOT)))
    metrics = {}
    for name in LAYERS:
        row = (t["setup_layers"] if name == "generators" else t["layers"]).get(
            name, {"calls": [0], "busy_s": 0.0})
        if len(set(row["calls"])) != 1:
            problems.append("%s: call counts differ between passes" % name)
        metrics[name + ".calls"] = _metric(row["calls"][0], "count")
        metrics[name + ".busy_s"] = _metric(row["busy_s"], "s")
    counters = dict(m["counters"], **m["setup_counters"])
    for name, unit in COUNTERS:
        metrics[name] = _metric(counters.get(name, 0), unit)
    metrics["solutions.query.rss_growth_mb"] = _metric(t["query_rss_growth_mb"], "MB")
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    metrics["trace.untraced_pass_s"] = _metric(plain_s, "s")
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    metrics["trace.overhead_noise_s"] = _metric(noise_s, "s")
    metrics["trace.span_cost_s"] = _metric(span_cost_s, "s")
    metrics["trace.coverage"] = _metric(t["coverage"], "fraction")
    metrics["trace.spans_per_pass"] = _metric(t["spans_per_pass"], "count")
    return [m], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cnflab" / "__init__.py").is_file():
        print("perfbench: no cnflab sources at %s" % (ROOT / "src" / "cnflab"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_MARGIN_S
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    problems = []
    try:
        if args.trace:
            results, metrics = traced_run(args, rundir, deadline, problems)
        else:
            results, metrics = timed_run(args, rundir, deadline)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for r in results[1:]:
        if any(r[key] != results[0][key] for key in HISTORY_KEYS):
            problems.append("two worker processes disagree on answers or counters")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    _check_history(args.workload, args.seed, results[0], failed == 0 and not problems,
                   problems)
    for line in [e for r in results for e in r["errors"]] + problems:
        print("problem: %s" % line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
