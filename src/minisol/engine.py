"""End-to-end pipeline: parse -> lower -> graph -> explore -> concretize ->
replay-verify.  This is the library entry point the CLI and the tests use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import concretize as conc
from . import oracle
from .cfg import build_cfg_plus
from .encoder import (SatResult, SolverConfig, SolverSession, answer_key,
                      encode, frontier_script, resolve_safety, ssa_number)
from .errors import ConfigError, MiniSolError, TargetError
from .explorer import (HEURISTICS, Limits, Walk, build_context,
                       find_minimal_satisfiable_walk)
from .frontend import extract_targets, parse_contract
from .ir import inline_internal_calls, lower
from .smt.terms import Ctx


@dataclass
class EngineResult:
    status: str                      # 'found' | 'notfound'
    sequence: Optional[conc.TransactionSequence] = None
    report: Optional[oracle.ReplayReport] = None
    walk: Optional[object] = None
    walks_explored: int = 0
    reason: str = ""
    time_ms: int = 0
    target: Optional[object] = None


def prepare(source):
    """Parse and lower a contract; returns (ast, inlined program, graph)."""
    ast = parse_contract(source)
    program = inline_internal_calls(lower(ast))
    graph = build_cfg_plus(program)
    return ast, program, graph


def pick_target(source, target_line=None):
    targets = extract_targets(source)
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


def synthesize(source, *, target=None, target_line=None,
               heuristic="floyd-warshall", solver: SolverConfig = None,
               limits: Limits = None, lazy_check=False,
               replay_check=True) -> EngineResult:
    """Find a transaction sequence reaching the (annotated) target line.

    With `replay_check` (the default) a found sequence must be confirmed by
    concrete replay before it is returned; a diverging sequence raises.
    """
    t0 = time.monotonic()
    if target is None:
        target = pick_target(source, target_line)
    ast, program, graph = prepare(source)
    limits = limits or Limits()
    if heuristic not in HEURISTICS:
        raise ConfigError("unknown heuristic %r (have: %s)"
                          % (heuristic, ", ".join(sorted(HEURISTICS))))
    factory = HEURISTICS[heuristic]
    session = SolverSession(solver)
    context = build_context(graph, target.safety)
    deadline = t0 + limits.wall_timeout
    # one term context for the run: a walk's numbering builds its new
    # node's clauses into it, and every check's script is made of them
    terms = Ctx()
    answers = {}    # an incomplete walk's script's key -> sat | unsat

    def solve(script, complete, safety=None):
        """Submit `script` (a numbered walk, or a frontier script), plus the
        safety condition, or answer it from `answers`: an incomplete walk
        needs only sat or unsat, which an earlier script of the same
        clauses has settled, so it is encoded only on a miss.  A complete
        walk needs a model and is always solved; ``unknown`` settles
        nothing."""
        key = None
        if not complete:
            asserts = script.clauses
            if safety is not None:
                asserts = asserts + [resolve_safety(script, safety,
                                                    program).term]
            key = answer_key(asserts)
            status = answers.get(key)
            if status is not None:
                return SatResult(status, reason="repeated")
        result = session.check(encode(script, safety, program), deadline)
        if key is not None and result.status != "unknown":
            answers[key] = result.status
        return result

    def decide(walk, script):
        # the rest of a SAT parent's extension is SAT: if the new node's
        # clauses are independent of it, they decide; a complete walk
        # needs the whole model
        if walk.parent_sat and not script.complete:
            front = frontier_script(script, target.safety, program)
            if front is not None:
                if not front.clauses:
                    return SatResult("sat", reason="inherited")
                result = solve(front, False)
                if result.reason == "repeated":
                    return result
                if result.status != "unknown":
                    return SatResult(result.status, reason="inherited")
        return solve(script, script.complete, target.safety)

    def check(walk):
        script = ssa_number(walk, program, ctx=terms)
        result = decide(walk, script)
        result.numbering = script.numbering    # kept for the extensions
        return result

    # every walk starts at the target's node: number it once, for all
    root = graph.target_node(target.line)
    numbered = None if root is None else ssa_number(
        Walk((root,), graph), program, ctx=terms).numbering
    result = find_minimal_satisfiable_walk(
        graph, target, factory, limits, check=check, context=context,
        lazy_check=lazy_check, deadline=deadline, numbered=numbered)
    elapsed_ms = int((time.monotonic() - t0) * 1000)

    if result.status != "found":
        return EngineResult("notfound", walks_explored=result.walks_explored,
                            reason=result.reason, time_ms=elapsed_ms,
                            target=target)

    seq = conc.concretize(result.model, result.walk, program,
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


def replay_file(source, seq_json_text):
    """Replay a JSON transaction sequence against a contract; the target is
    the file's annotation (first one if several)."""
    targets = extract_targets(source)
    target = targets[0] if targets else None
    _ast, program, _graph = prepare(source)
    seq = conc.from_json(seq_json_text)
    return oracle.replay(program, seq, target)
