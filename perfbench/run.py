"""minisol benchmark: runs one workload (or all of them) through the public
``minisol.synthesize``, checks every answer, and prints its metrics.

    python3 perfbench/run.py --workload deep-sat --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, with a table

With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json with tracing off.  With ``--trace 1`` it alternates an
untraced and a traced pass and reports the per-layer metrics; every query
must give the same verdict, walk count and sequence in both.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Load is one process, one thread, queries one after another (closed loop).
Set-up time is measured in fresh interpreters, since every CLI call pays it.
The passes' times are rescaled to a nominal machine speed, sampled while
they run (see speed.py); the table also prints the unscaled wall time.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import speed
import stats
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_TIMEOUT = 60


@dataclass
class Outcome:
    status: str = "error"
    walks: int = 0
    reason: str = ""
    seconds: float = 0.0      # rescaled to the nominal machine when sampled
    raw_seconds: float = 0.0  # as measured, less the sampler's own time
    txs: list = field(default_factory=list)
    sequence_json: str = ""
    error: str = ""

    def signature(self):
        """What must repeat exactly between passes and traced runs."""
        return (self.status, self.walks, self.reason, self.txs, self.error)


def run_query(minisol, query, tracer=None, query_id=0, probe=None):
    kwargs = {"heuristic": query.heuristic, "lazy_check": query.lazy_check}
    if query.max_walks is not None:
        kwargs["limits"] = minisol.Limits(max_walks=query.max_walks,
                                          wall_timeout=workloads.NO_TIMEOUT)
    out = Outcome()
    stolen = probe.stolen if probe else 0.0
    t0 = time.perf_counter()

    def elapsed():
        return (time.perf_counter() - t0
                - ((probe.stolen - stolen) if probe else 0.0))
    try:
        if tracer is None:
            result = minisol.synthesize(query.source, **kwargs)
        else:
            result = tracer.run_query(query_id, minisol.synthesize,
                                      query.source, **kwargs)
    except Exception as exc:   # any raise is a failed query, not a crash
        out.seconds = out.raw_seconds = elapsed()
        out.error = "%s: %s" % (type(exc).__name__, exc)
        return out
    out.seconds = out.raw_seconds = elapsed()
    out.status = result.status
    out.walks = result.walks_explored
    out.reason = result.reason
    if result.status == "found":
        out.sequence_json = minisol.concretize.to_json(result.sequence)
        out.txs = json.loads(out.sequence_json)["transactions"]
    return out


def check(minisol, query, out):
    """Problems with one answer; an empty list means it is correct."""
    if out.error:
        return ["raised %s" % out.error]
    problems = []
    if out.reason == "timeout":
        problems.append("ended by the wall clock, not the walk budget")
    if query.expect is not None and out.status != query.expect:
        problems.append("verdict %s, expected %s" % (out.status, query.expect))
    if out.status == "found":
        # No input reads block.timestamp, so replaying the JSON (which does
        # not carry timestamps) at timestamp 0 is exact.
        try:
            report = minisol.engine.replay_file(query.source,
                                                out.sequence_json)
        except Exception as exc:
            return problems + ["replay raised %s: %s"
                               % (type(exc).__name__, exc)]
        if not (report.target_hit and report.safety_value):
            problems.append("replay misses the target (hit=%s safety=%s)"
                            % (report.target_hit, report.safety_value))
    return problems


class Run:
    """One benchmark run of one workload: its passes and their checks."""

    def __init__(self, minisol, queries, probe=None):
        self.minisol = minisol
        self.probe = probe             # samples machine speed, untraced only
        self.queries = queries
        self.reference = None          # first pass's signatures
        self.attempted = 0
        self.failures = []             # (query name, problems), per attempt

    def one_pass(self, tracer=None):
        probe = None if tracer else self.probe
        if probe is None:
            outcomes = [run_query(self.minisol, q, tracer, i)
                        for i, q in enumerate(self.queries)]
        else:
            with probe.sampling():
                outcomes = [run_query(self.minisol, q, None, i, probe)
                            for i, q in enumerate(self.queries)]
            factor = speed.scale(probe.samples)
            for o in outcomes:
                o.seconds = o.raw_seconds * factor
        signatures = [o.signature() for o in outcomes]
        if self.reference is None:
            self.reference = signatures
        for q, o, sig, ref in zip(self.queries, outcomes, signatures,
                                  self.reference):
            problems = check(self.minisol, q, o)
            if sig != ref:
                problems.append("differs from the first untraced pass%s: "
                                "%s vs %s" % (" (traced)" if tracer else "",
                                              sig[:3], ref[:3]))
            self.attempted += 1
            if problems:
                self.failures.append((q.name, "; ".join(problems)))
        return outcomes


def measure_setup(workload, seed):
    """Seconds for a fresh interpreter to import minisol and build the
    workload's inputs; one value per repeat.  Unlike the passes' times these
    are not rescaled: start-up is file reads and module execution, whose
    slowdowns the reference task (speed.py) did not track."""
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload,
            str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise workloads.SetupError(proc.stderr.strip()
                                       or "exit %d" % proc.returncode)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(minisol, workload, seed, seconds, trace):
    """Returns (run, metrics, missing hooks) for one workload."""
    setup = measure_setup(workload, seed)
    run = Run(minisol, workloads.build(workload, seed),
              None if trace else speed.Probe())
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run.one_pass())
        if trace:
            tracers.append(Tracer())
            with tracers[-1].installed():
                traced.append(run.one_pass(tracers[-1]))
        now = time.perf_counter()
        # Stop before a round that would overrun the measuring time.
        if now - start + (now - round_start) > seconds:
            break
    if not trace:
        metrics = stats.end_to_end(untraced, setup, peak_rss_mb(),
                                   len(run.failures), run.attempted)
        metrics["raw.wall_s"] = stats.median(
            [sum(o.raw_seconds for o in p) for p in untraced])
        return run, metrics, []
    write_spans(tracers, workload, seed)
    metrics = {}
    per_pass = [stats.layer_metrics(t.spans, t.counts, t.missing)
                for t in tracers]
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = None if None in values else stats.median(values)
    metrics["trace.overhead_share"] = stats.overhead_share(untraced, traced)
    return run, metrics, tracers[0].missing


def write_spans(tracers, workload, seed):
    """Every span of the traced passes, one JSON object a line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for k, tracer in enumerate(tracers):
            for record in tracer.records():
                fh.write(json.dumps({"pass": k, **record}) + "\n")


def load_contract():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(metrics, declared):
    """The declared metrics, in declared order, with their units."""
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            raise KeyError("metric %s is declared but not measured"
                           % m["name"])
        value = metrics[m["name"]]
        entry = {"value": value, "unit": m["unit"]}
        if value is None:
            entry["missing"] = "a hooked function was not found"
        out[m["name"]] = entry
    return out


def print_table(workload, metrics, units):
    for name, value in metrics.items():
        text = "null (hook missing)" if value is None else "%.6g" % value
        print("%-14s %-26s %s %s" % (workload, name, text,
                                     units.get(name, "")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        contract = load_contract()
        minisol = workloads.import_minisol()
    except (OSError, ValueError, workloads.SetupError) as exc:
        print("benchmark cannot start: %s" % exc, file=sys.stderr)
        return 2
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    units["failed_share"] = "share"

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    for workload in names:
        try:
            run, metrics, missing = run_workload(
                minisol, workload, args.seed, args.seconds, args.trace)
        except (subprocess.TimeoutExpired, workloads.SetupError) as exc:
            print("benchmark cannot set up %s: %s" % (workload, exc),
                  file=sys.stderr)
            return 2
        for name, problem in run.failures:
            print("FAILED %s %s: %s" % (workload, name, problem),
                  file=sys.stderr)
        attempted += run.attempted
        failed += len(run.failures)
        if missing:
            print("MISSING hooks, their metrics read null: %s"
                  % ", ".join(missing), file=sys.stderr)
        print_table(workload, metrics, units)
        chosen = select(metrics, declared)
        if len(names) == 1:
            result_metrics = chosen
        else:
            result_metrics.update({"%s.%s" % (workload, k): v
                                   for k, v in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
