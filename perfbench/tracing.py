"""Spans and counters recorded at minisol's layer boundaries, from outside.

``minisol.synthesize`` looks its collaborators up when it runs: module
globals of ``minisol.engine``, attributes of ``minisol.encoder``,
``minisol.smt.solve`` and friends, and methods of a few classes.  Replacing
those attributes with timing wrappers traces every layer without editing
or re-implementing the engine.  The wrappers are installed only for a
traced pass and the originals are put back afterwards, so untraced passes
run the library's own functions.

A hook whose attribute no longer exists is reported as missing, and the
metrics that need it read null: a renamed function must never be measured
as zero.
"""

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

perf_counter = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int                     # index in Tracer.spans; -1: none
    query: int
    attrs: dict = field(default_factory=dict)


def self_times(spans):
    """Per span: its duration minus the part of its interval that its
    children cover (children clipped to the parent, overlaps merged)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end)
                             for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# (owner, attribute, span name).  The owner is a module or a class in one,
# as synthesize reaches it at call time.
SPAN_HOOKS = [
    ("minisol.engine", "extract_targets", "frontend.targets"),
    ("minisol.engine", "parse_contract", "frontend.parse"),
    ("minisol.engine", "lower", "ir.lower"),
    ("minisol.engine", "inline_internal_calls", "ir.inline"),
    ("minisol.engine", "build_cfg_plus", "cfg.build"),
    ("minisol.engine", "build_context", "explorer.context"),
    ("minisol.engine", "find_minimal_satisfiable_walk", "explorer.search"),
    ("minisol.engine", "ssa_number", "encoder.ssa"),
    ("minisol.engine", "encode", "encoder.encode"),
    ("minisol.encoder.SolverSession", "check", "solver.check"),
    ("minisol.encoder", "parse_solver_output", "encoder.parse_output"),
    ("minisol.smt.solve", "parse_script", "smt.parse"),
    ("minisol.smt.solve", "solve_commands", "smt.solve"),
    ("minisol.smt.solve", "_greedy_model", "smt.greedy"),
    ("minisol.smt.sat.SatSolver", "solve", "smt.cdcl"),
    ("minisol.concretize", "concretize", "concretize"),
    ("minisol.oracle", "replay", "oracle.replay"),
]

# (owner, attribute, counter name): hot calls that are counted, not timed.
COUNT_HOOKS = [
    ("minisol.explorer.WalkTree", "extend", "explorer.tree_nodes"),
    ("minisol.smt.sat.SatSolver", "analyze", "smt.cdcl_conflicts"),
]

# The bit-blast stage is no single call: it runs from the construction of
# the Blaster to the start of SatSolver.solve (Tseitin encoding plus CNF
# loading), so it is recorded as that interval.
BLASTER_HOOK = ("minisol.smt.solve", "Blaster", "smt.bitblast")


def _resolve(owner):
    """Import the module part of a dotted owner and walk the rest."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _observe(span, result):
    """Record on the span what the metrics later need from a result."""
    name = span.name
    if name == "cfg.build":
        span.attrs["nodes"] = len(result.nodes)
    elif name == "encoder.encode":
        span.attrs["bytes"] = len(result.text)
    elif name in ("solver.check", "smt.solve"):
        span.attrs["status"] = result.status
    elif name == "smt.greedy":
        span.attrs["hit"] = result is not None


class Tracer:
    """Keeps every span in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)   # query id -> counter -> n
        self.missing = []
        self.query = None                    # recording only inside a query
        self._stack = []
        self._blaster = None                 # (start, blaster) pending

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, start, start, parent, self.query)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def run_query(self, query_id, fn, *args, **kwargs):
        """Run `fn` as query `query_id`, under a root span named "query"."""
        self.query = query_id
        span = self._open("query", perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)
            self.query = None
            self._blaster = None

    def _span_wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.query is None:
                return fn(*args, **kwargs)
            if name == "smt.cdcl":         # CDCL starts: bit-blasting ended
                tracer._end_bitblast()
            span = tracer._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            _observe(span, result)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.query is not None:
                tracer.counts[tracer.query][name] += 1
            return fn(*args, **kwargs)
        return counted

    def _blaster_class(self, cls, _name):
        tracer = self

        class TracedBlaster(cls):
            def __init__(self, *args, **kwargs):
                start = perf_counter()
                super().__init__(*args, **kwargs)
                if tracer.query is not None:
                    tracer._blaster = (start, self)
        return TracedBlaster

    def _end_bitblast(self):
        if self._blaster is None:
            return
        start, blaster = self._blaster
        self._blaster = None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(
            "smt.bitblast", start, perf_counter(), parent, self.query,
            {"vars": blaster.cnf.nvars, "clauses": len(blaster.cnf.clauses)}))

    @contextmanager
    def installed(self):
        """Replace every hooked attribute for the duration of the block."""
        saved = []
        self.missing = []
        hooks = ([(o, a, n, self._span_wrapper) for o, a, n in SPAN_HOOKS]
                 + [(o, a, n, self._count_wrapper) for o, a, n in COUNT_HOOKS]
                 + [BLASTER_HOOK + (self._blaster_class,)])
        try:
            for owner_name, attr, name, make in hooks:
                owner = _resolve(owner_name)
                original = getattr(owner, attr, None) if owner else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                # Wrap the raw class attribute so methods stay methods.
                own = attr in vars(owner)
                raw = vars(owner)[attr] if own else original
                saved.append((owner, attr, raw, own))
                setattr(owner, attr, make(raw, name))
            yield self
        finally:
            for owner, attr, raw, own in reversed(saved):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    def records(self):
        """Spans as plain dicts with their self times, for writing out."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "query": s.query, "self": st,
                 **s.attrs}
                for s, st in zip(self.spans, self_times(self.spans))]
