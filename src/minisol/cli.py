"""Command-line driver.

Default mode runs the whole pipeline on an annotated ``.msol`` file and
writes the transaction-sequence JSON.  ``--replay`` re-executes a saved
sequence against the contract; ``--mutants`` solves kill queries from a
mutant-list JSON file.

Exit codes: 0 found (or replay hit / mutants processed), 1 not found
(or replay miss), 2 usage, parse, solver or file errors (a path that
cannot be read or written).  stderr always carries one machine-parseable
line: ``result=<found|notfound|error> walks=<n> time_ms=<t>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cfg import to_dot
from .concretize import to_json
from .encoder import SolverConfig
from .engine import pick_target, prepare, replay_file, synthesize
from .errors import MiniSolError
from .explorer import HEURISTICS, Limits
from .mutation import load_mutant_specs, run_mutants


def build_parser():
    p = argparse.ArgumentParser(
        prog="minisol",
        description="Targeted backward symbolic execution for MiniSol "
                    "contracts.")
    p.add_argument("input", help="annotated .msol contract file")
    p.add_argument("--target-line", type=int, default=None, metavar="N",
                   help="select one of several @target annotations")
    p.add_argument("--heuristic", default="floyd-warshall", metavar="NAME",
                   help="walk heuristic: %s" % ", ".join(sorted(HEURISTICS)))
    p.add_argument("--solver-cmd", default=None, metavar="STR",
                   help="external SMT-LIB 2 solver command (default: "
                        "bundled solver, in process)")
    p.add_argument("--max-walks", type=int, default=100000, metavar="N")
    p.add_argument("--max-walk-len", type=int, default=400, metavar="N")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SECS")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON artifact here instead of stdout")
    p.add_argument("--emit-dot", default=None, metavar="PATH",
                   help="dump the transaction graph as DOT")
    p.add_argument("--emit-smt", default=None, metavar="DIR",
                   help="dump every solver script as numbered .smt2 files")
    p.add_argument("--no-replay-check", action="store_true",
                   help="skip the concrete replay verification of results")
    p.add_argument("--lazy-check", action="store_true",
                   help="check satisfiability only at transaction boundaries")
    p.add_argument("--mutants", default=None, metavar="PATH",
                   help="mutant-list JSON; solve kill queries instead")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="replay a sequence JSON instead of searching")
    return p


def _write_out(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    walks = 0
    result_word = "error"

    def summary():
        elapsed = int((time.monotonic() - t0) * 1000)
        sys.stderr.write("result=%s walks=%d time_ms=%d\n"
                         % (result_word, walks, elapsed))

    try:
        source = open(args.input).read()
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        summary()
        return 2

    solver = SolverConfig(command=args.solver_cmd, emit_dir=args.emit_smt)
    try:
        limits = Limits(max_walk_len=args.max_walk_len,
                        max_walks=args.max_walks,
                        wall_timeout=args.timeout)
        if args.emit_smt:
            os.makedirs(args.emit_smt, exist_ok=True)

        if args.emit_dot:
            _ast, _program, graph = prepare(source)
            with open(args.emit_dot, "w") as fh:
                fh.write(to_dot(graph))

        if args.replay is not None:
            report = replay_file(source, open(args.replay).read())
            _write_out(args.out,
                       json.dumps(report.to_obj(), indent=2) + "\n")
            result_word = "found" if report.target_hit else "notfound"
            summary()
            return 0 if report.target_hit else 1

        if args.mutants is not None:
            specs = load_mutant_specs(open(args.mutants).read())
            outcomes = run_mutants(source, specs, heuristic=args.heuristic,
                                   solver=solver, limits=limits,
                                   lazy_check=args.lazy_check)
            walks = sum(o.walks_explored for o in outcomes)
            obj = {"mutants": [o.to_obj() for o in outcomes]}
            _write_out(args.out, json.dumps(obj, indent=2) + "\n")
            result_word = "found"
            summary()
            return 0

        target = pick_target(source, args.target_line)
        result = synthesize(source, target=target,
                            heuristic=args.heuristic, solver=solver,
                            limits=limits, lazy_check=args.lazy_check,
                            replay_check=not args.no_replay_check)
        walks = result.walks_explored
        if result.status == "found":
            _write_out(args.out, to_json(result.sequence))
            result_word = "found"
            summary()
            return 0
        result_word = "notfound"
        sys.stderr.write("no satisfiable walk: %s\n" % result.reason)
        summary()
        return 1
    except (MiniSolError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        summary()
        return 2


if __name__ == "__main__":
    sys.exit(main())
