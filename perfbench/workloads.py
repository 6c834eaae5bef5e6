"""The benchmark's workloads: which contracts are queried, how, and with
which known verdict.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
imports minisol and builds one workload's inputs, which is the set-up every
CLI call pays; the benchmark times that in a fresh interpreter.
"""

import os
import sys
from dataclasses import dataclass
from typing import Optional

import progen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")

# Annotated corpus contracts small enough to answer in milliseconds.  The
# long ones (multi_tx, token) have workloads of their own.
SMALL_CORPUS = ["address_scores", "condition_check", "contradiction",
                "ctor_target", "distinct_callers", "guess_check",
                "internal_call", "loop_sum", "msg_value_check", "overflow",
                "two_tx_overflow"]
NOTFOUND = {"contradiction"}
HEURISTICS = ["floyd-warshall", "state-var"]

# small-mix's generated part: enough small programs that a run's totals
# depend little on which ones the seed drew, and few enough that few seeds
# draw one of the rare programs (about 1 in 5000) whose CDCL search lifts
# peak RSS from 40 to 58 MB.  The walk budget, not the wall clock, bounds
# every query.
GENERATED_PROGRAMS = 300
GENERATED_WALK_BUDGET = 20
NO_TIMEOUT = 3600.0


class SetupError(Exception):
    pass


def import_minisol():
    """Import minisol from this checkout's sources, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "minisol")):
        raise SetupError("no minisol sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import minisol
    origin = os.path.dirname(os.path.abspath(minisol.__file__))
    if origin != os.path.join(SRC, "minisol"):
        raise SetupError("minisol imported from %s, not %s" % (origin, SRC))
    return minisol


@dataclass
class Query:
    name: str
    source: str
    heuristic: str = "floyd-warshall"
    lazy_check: bool = False
    max_walks: Optional[int] = None   # None: the library's default limits
    expect: Optional[str] = None      # known verdict, None if unknown


def _corpus(name):
    path = os.path.join(CORPUS, name + ".msol")
    if not os.path.isfile(path):
        raise SetupError("missing corpus file %s" % path)
    with open(path) as fh:
        return fh.read()


def build(workload, seed):
    """The list of queries one pass of `workload` runs."""
    if workload == "deep-sat":
        return [Query("multi_tx", _corpus("multi_tx"), expect="found")]
    if workload == "lazy-boundary":
        return [Query("multi_tx/lazy", _corpus("multi_tx"), lazy_check=True,
                      expect="found")]
    if workload == "mapping-token":
        return [Query("token", _corpus("token"), heuristic="state-var",
                      expect="found")]
    if workload == "small-mix":
        queries = [Query("%s/%s" % (name, h), _corpus(name), heuristic=h,
                         expect="notfound" if name in NOTFOUND else "found")
                   for name in SMALL_CORPUS for h in HEURISTICS]
        for i in range(GENERATED_PROGRAMS):
            source, line = progen.annotated_program(seed, i)
            queries.append(Query("gen%d@%d" % (i, line), source,
                                 max_walks=GENERATED_WALK_BUDGET))
        return queries
    raise SetupError("unknown workload %r" % workload)


WORKLOADS = ["deep-sat", "lazy-boundary", "mapping-token", "small-mix"]


if __name__ == "__main__":
    try:
        import_minisol()
        build(sys.argv[1], int(sys.argv[2]))
    except SetupError as exc:
        sys.exit("set-up failed: %s" % exc)
