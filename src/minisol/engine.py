"""End-to-end pipeline: parse -> lower -> graph -> explore -> concretize ->
replay-verify.  This is the library entry point the CLI and the tests use.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from . import concretize as conc
from . import oracle
from .cfg import build_cfg_plus
from .encoder import (SolverConfig, SolverSession, SsaScript, encode,
                      ssa_number)
from .errors import ConfigError, MiniSolError, TargetError
from .explorer import (HEURISTICS, Limits, Walk, build_context,
                       find_minimal_satisfiable_walk)
from .frontend import extract_targets, parse_contract, target_markers
from .ir import inline_internal_calls, lower
from .smt.solve import SatResult


@dataclass
class EngineResult:
    status: str                      # 'found' | 'notfound'
    sequence: Optional[conc.TransactionSequence] = None
    report: Optional[oracle.ReplayReport] = None
    walk: Optional[object] = None
    walks_explored: int = 0
    reason: str = ""                 # why notfound: see ExploreResult
    time_ms: int = 0
    target: Optional[object] = None


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for the body, if it is on.
    A run builds no reference cycles: its terms, clause chains, memo tables
    and walk tree are freed by reference counting alone, so a collection
    in the middle of one frees nothing and only re-walks what the run
    keeps alive.  Re-entrant: only the use that paused the collector turns
    it back on, also when the body raises.  As a decorator, every call of
    the function is one use."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def prepare(source, ast=None):
    """Parse and lower a contract; returns (ast, inlined program, graph).
    `ast`, when given, is `parse_contract(source)` and is not parsed again:
    nothing downstream writes to it."""
    if ast is None:
        ast = parse_contract(source)
    program = inline_internal_calls(lower(ast))
    graph = build_cfg_plus(program)
    return ast, program, graph


def pick_target(source, target_line=None, ast=None):
    """The annotated target: the one on `target_line`, or the only one.
    `ast`, when given, is `parse_contract(source)`."""
    targets = extract_targets(source, ast)
    if not targets:
        raise TargetError("no @target annotation in the input")
    if target_line is None:
        if len(targets) > 1:
            raise TargetError("multiple @target annotations; select one "
                              "with --target-line")
        return targets[0]
    for spec in targets:
        if spec.line == target_line:
            return spec
    raise TargetError("no @target annotation on line %d" % target_line)


@collector_paused()
def synthesize(source, *, target=None, target_line=None,
               **options) -> EngineResult:
    """Find a transaction sequence reaching the (annotated) target line of
    `source`: parse it once, then ``search`` its program with `options`.
    The cyclic garbage collector is paused for the call."""
    ast = None      # parsed once, for the annotations and for lowering
    if target is None:
        # an unannotated source is a TargetError before it is parsed
        if target_markers(source):
            ast = parse_contract(source)
        target = pick_target(source, target_line, ast)
    return search(prepare(source, ast)[2], target, **options)


@collector_paused()
def search(graph, target, *, heuristic="floyd-warshall",
           solver: SolverConfig = None, limits: Limits = None,
           lazy_check=False, replay_check=True) -> EngineResult:
    """Find a transaction sequence reaching `target` in a prepared graph
    (see ``prepare``) of its program; the wall timeout counts from here.
    With `replay_check` (the default) a found sequence must be confirmed by
    concrete replay before it is returned; a diverging sequence raises.
    The cyclic garbage collector is paused for the call."""
    t0 = time.monotonic()
    program = graph.program
    limits = limits or Limits()
    if heuristic not in HEURISTICS:
        raise ConfigError("unknown heuristic %r (have: %s)"
                          % (heuristic, ", ".join(sorted(HEURISTICS))))
    factory = HEURISTICS[heuristic]
    session = SolverSession(solver)
    context = build_context(graph, target.safety)
    deadline = t0 + limits.wall_timeout

    def solve(script, base):
        """Decide a numbered walk, whose root asserts the safety condition.
        A complete walk needs a model and is always solved.  Any other
        needs only sat or unsat, which an earlier script of the same
        assertions has settled: it is looked up in the session's table on
        its clause chain, and encoded and solved only on a miss;
        ``unknown`` settles nothing.  An in-process solve starts from
        `base`, the kept reduction of its prefix."""
        key = script.clause_chain
        if not script.complete:
            status = session.answers.get(key)
            if status is not None:
                return SatResult(status, reason="repeated")
        result = session.check(encode(script), deadline, base,
                               script.complete)
        if not script.complete and result.status != "unknown":
            session.answers[key] = result.status
        return result

    def check(walk):
        script = ssa_number(walk, program, ctx=session.terms)
        result = solve(script, walk.prefix.reduction)
        # for the extensions: the numbering, and the reduction their solves
        # start from (a check that made none passes on its prefix's)
        result.numbering = script.numbering
        if result.reduction is None:
            result.reduction = walk.prefix.reduction
        return result

    # every walk starts at the target's node, which asserts the safety
    # condition: number it once, for all
    root = graph.target_node(target.line)
    prefix = None if root is None else SatResult("unknown", numbering=(
        ssa_number(Walk((root,), graph), program, ctx=session.terms,
                   safety=target.safety).numbering))
    result = find_minimal_satisfiable_walk(
        graph, target, factory, limits, check=check, context=context,
        lazy_check=lazy_check, deadline=deadline, prefix=prefix)
    elapsed_ms = int((time.monotonic() - t0) * 1000)

    if result.status != "found":
        return EngineResult("notfound", walks_explored=result.walks_explored,
                            reason=result.reason, time_ms=elapsed_ms,
                            target=target)

    seq = conc.concretize(result.found.model,
                          SsaScript(result.found.numbering),
                          target_line=target.line,
                          safety_text=target.safety_text,
                          heuristic=heuristic,
                          walks_explored=result.walks_explored,
                          time_ms=elapsed_ms)
    report = oracle.replay(program, seq, target)
    if replay_check:
        if not report.target_hit or not report.safety_value:
            raise MiniSolError(
                "replay verification failed: solver model does not drive "
                "execution to line %d (hit=%s safety=%s)"
                % (target.line, report.target_hit, report.safety_value))
    return EngineResult("found", sequence=seq, report=report,
                        walk=result.walk,
                        walks_explored=result.walks_explored,
                        time_ms=elapsed_ms, target=target)


@collector_paused()
def replay_file(source, seq_json_text, prepared=None):
    """Replay a JSON transaction sequence against a contract; the target is
    the file's annotation (first one if several).  `prepared`, when given,
    is ``prepare(source)``, and the source is not parsed again.  The cyclic
    garbage collector is paused for the call."""
    ast = parse_contract(source) if prepared is None else prepared[0]
    targets = extract_targets(source, ast)
    target = targets[0] if targets else None
    _ast, program, _graph = prepared or prepare(source, ast)
    seq = conc.from_json(seq_json_text)
    return oracle.replay(program, seq, target)
