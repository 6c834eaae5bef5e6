"""Machine speed, sampled while the benchmark runs.

The benchmark shares a host whose speed drifts by tens of percent over
seconds and minutes, so identical work can take 1.5 times as long in one
run as in the next.  To report times that belong to the program rather than
to the host, a fixed reference task (defined here, independent of minisol)
is run every `INTERVAL` seconds from a SIGALRM handler while a pass runs.
Its mean duration over the pass (less the slowest fifth of the samples)
says how fast the machine was, and the pass's times are rescaled to a
machine on which the reference takes `REFERENCE_S`:

    scaled = measured * REFERENCE_S / trimmed mean(reference durations)

The time spent in the handler is taken out of every measured time.  The
reference does in small what the engine does most: it builds an expression
tree of small objects and evaluates it recursively, then renders and
tokenizes SMT-LIB-like text.  On the 2-vCPU host it was chosen on, its
slowdowns tracked the engine's one for one (log-log slope 0.94-1.08 over
35 passes), where integer and dict work, or pointer chasing through a
table, moved only three quarters as much as the engine did.
"""

import gc
import signal
import time
from contextlib import contextmanager

INTERVAL = 0.1          # seconds between reference samples
REFERENCE_S = 0.0004    # the reference's duration on the nominal machine
TRIM = 0.2              # share of the slowest samples left out of the mean
TREE_DEPTH = 7
TERMS = 120
_OPS = ("add", "mul", "ite", "lt")


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b


def _tree(depth, k):
    if depth == 0:
        return "v%d" % (k % 7)
    return _Node(_OPS[k % 4], _tree(depth - 1, k * 3 + 1),
                 _tree(depth - 1, k * 5 + 2))


def _evaluate(node, env):
    if node.__class__ is str:
        return env[node]
    x = _evaluate(node.a, env)
    y = _evaluate(node.b, env)
    if node.op == "add":
        return (x + y) & 0xffffffff
    if node.op == "mul":
        return (x * y) & 0xffffffff
    if node.op == "lt":
        return int(x < y)
    return x if y & 1 else y


def reference():
    """The fixed reference task; about `REFERENCE_S` on the nominal
    machine.  Returns the same value on every call."""
    env = {"v%d" % i: i * 2654435761 & 0xffffffff for i in range(7)}
    value = _evaluate(_tree(TREE_DEPTH, 1), env)
    text = " ".join("(bvadd x%d #x%08x)"
                    % (i % 13, i * 2654435761 & 0xffffffff)
                    for i in range(TERMS))
    counts = {}
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        counts[token] = counts.get(token, 0) + 1
    return value, len(counts)


class Probe:
    """Samples the reference's duration during a measured stretch of work.

    `samples` holds the durations of the last block; `stolen` is the total
    time spent in the handler, so that a caller can subtract it from a time
    it measures across a block."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()     # the program's heap must not slow the reference
        try:
            t1 = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - t1)
        finally:
            if collecting:
                gc.enable()
            self.stolen += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Samples the reference every `INTERVAL` seconds inside the block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:       # a block shorter than one interval
            self._tick()


def scale(samples):
    """The factor that rescales times measured while `samples` were taken
    to the nominal machine: `REFERENCE_S` over the samples' mean, leaving
    out the slowest `TRIM` of them.  A 0.4 ms sample that the host happens
    to preempt reads ten times its length; such samples say nothing about
    the machine's speed, and a few of them would move a plain mean by a
    fifth."""
    kept = sorted(samples)[:len(samples) - int(len(samples) * TRIM)]
    return REFERENCE_S * len(kept) / sum(kept)
