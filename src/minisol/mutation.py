"""Kill-query generation for the supported mutant classes.

A mutant is a (line, original fragment, mutated fragment) triple.  For each
supported class the generator builds a target line plus an infection
condition for the engine to solve:

* condition mutants: exactly one of the two conditions may hold, so the
  infection is their exclusive-or, written ``(orig) != (mut)``;
* assignment right-hand-side mutants: the two right-hand sides must differ;
* data-width mutants: the variable must take a value in the symmetric
  difference of the two type ranges (solved against the widened program,
  where that range is expressible);
* selfdestruct-like removals: reaching the line is the kill, no infection.

Mutant classes that need synthesized intermediate contracts (access
modifiers, tx.origin/msg.sender, call mechanisms) and line swaps are
rejected.  Whether a solved query actually kills is confirmed by
differential replay of the sequence on the original and mutated programs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .concretize import to_obj
from .engine import collector_paused, prepare, search
from .errors import MutationError
from .frontend import parse_expression_at
from .lang import (BOOL, Ident, Index, TargetSpec, VarDecl, iter_exprs,
                   iter_statements)
from . import oracle

SUPPORTED_KINDS = ("condition", "assignment_rhs", "width_change",
                   "selfdestruct_like")
SYNTHESIS_KINDS = ("access_modifier", "tx_origin", "line_swap",
                   "call_mechanism")


@dataclass
class MutantSpec:
    kind: str
    line: int
    original: str
    mutated: str


@dataclass
class KillQuery:
    target: TargetSpec
    description: str


@dataclass
class KillResult:
    killed: bool
    strong: bool                  # externally visible: revert outcomes differ
    weak: bool                    # internal state or executed path differs
    detail: str = ""


def load_mutant_specs(text):
    try:
        items = json.loads(text)
        specs = [MutantSpec(it["kind"], int(it["line"]), it["original"],
                            it["mutated"]) for it in items]
    except (KeyError, TypeError, ValueError) as exc:
        raise MutationError("malformed mutant list: %s" % exc) from exc
    for spec in specs:
        if spec.kind in SYNTHESIS_KINDS:
            raise MutationError(
                "mutant kind %r requires contract synthesis - unsupported"
                % spec.kind)
        if spec.kind not in SUPPORTED_KINDS:
            raise MutationError("unknown mutant kind %r" % spec.kind)
    return specs


def apply_mutant(source, spec: MutantSpec) -> str:
    """Substitute the mutated fragment on the spec's line, textually."""
    lines = source.splitlines(keepends=True)
    if not 1 <= spec.line <= len(lines):
        raise MutationError("mutant line %d out of range" % spec.line)
    text = lines[spec.line - 1]
    if spec.original not in text:
        raise MutationError("line %d does not contain %r"
                            % (spec.line, spec.original))
    lines[spec.line - 1] = text.replace(spec.original, spec.mutated, 1)
    return "".join(lines)


def gen_condition_kill(ast, spec: MutantSpec) -> KillQuery:
    """Infection for a mutated condition: (original) xor (mutant)."""
    if spec.kind != "condition":
        raise MutationError("expected a condition mutant")
    for frag in (spec.original, spec.mutated):
        expr = parse_expression_at(ast, spec.line, frag)
        if expr.type_ is not BOOL:
            raise MutationError("fragment %r is not boolean" % frag)
    text = "(%s) != (%s)" % (spec.original, spec.mutated)
    infection = parse_expression_at(ast, spec.line, text)
    return KillQuery(TargetSpec(spec.line, infection, text),
                     "condition %s -> %s" % (spec.original, spec.mutated))


def gen_assignment_kill(ast, spec: MutantSpec) -> KillQuery:
    """Infection for a mutated right-hand side: the two values differ."""
    if spec.kind != "assignment_rhs":
        raise MutationError("expected an assignment mutant")
    for frag in (spec.original, spec.mutated):
        expr = parse_expression_at(ast, spec.line, frag)
        if expr.type_ is BOOL:
            raise MutationError("fragment %r is not numeric" % frag)
    text = "(%s) != (%s)" % (spec.original, spec.mutated)
    infection = parse_expression_at(ast, spec.line, text)
    return KillQuery(TargetSpec(spec.line, infection, text),
                     "rhs %s -> %s" % (spec.original, spec.mutated))


_WIDTHS = {"uint8": 8, "uint16": 16, "uint256": 256, "uint": 256}


def _declared_var_at(ast, line):
    for fn in ([ast.constructor] if ast.constructor else []) + ast.functions:
        for stmt in iter_statements(fn.body):
            if isinstance(stmt, VarDecl) and stmt.line == line:
                return stmt.name
        for pname, _ptype in fn.params:
            if fn.line == line:
                return pname
    for sv in ast.state_vars:
        if sv.line == line:
            return sv.name
    raise MutationError("no declaration on line %d" % line)


def _usage_lines(ast, var):
    lines = set()
    bodies = [fn.body for fn in ast.functions]
    if ast.constructor is not None:
        bodies.append(ast.constructor.body)
    for body in bodies:
        for stmt in iter_statements(body):
            for e in iter_exprs(stmt):
                if isinstance(e, Ident) and e.name == var:
                    lines.add(stmt.line)
                elif isinstance(e, Index) and e.base.name == var:
                    lines.add(stmt.line)
    return sorted(lines)


def gen_width_kill(mutated_ast, spec: MutantSpec) -> list:
    """One query per usage line of the re-typed variable; the infection
    keeps the value inside the symmetric difference of the two ranges.
    Queries resolve against the mutated (wider) program, where the range
    is representable.  An unused variable yields an empty list."""
    if spec.kind != "width_change":
        raise MutationError("expected a width mutant")
    old_w = _WIDTHS.get(spec.original)
    new_w = _WIDTHS.get(spec.mutated)
    if old_w is None or new_w is None:
        raise MutationError("width mutant fragments must be uint types")
    if old_w == new_w:
        raise MutationError("widths are equal; no range difference")
    low = 1 << min(old_w, new_w)
    high = (1 << max(old_w, new_w)) - 1
    var = _declared_var_at(mutated_ast, spec.line)
    queries = []
    for line in _usage_lines(mutated_ast, var):
        text = "%s >= %d && %s <= %d" % (var, low, var, high)
        infection = parse_expression_at(mutated_ast, line, text)
        queries.append(KillQuery(
            TargetSpec(line, infection, text),
            "width %s: %s -> %s at line %d" % (var, spec.original,
                                               spec.mutated, line)))
    return queries


def gen_reachability_only(spec: MutantSpec) -> KillQuery:
    """selfdestruct-like removals: reaching the line is the kill."""
    if spec.kind != "selfdestruct_like":
        raise MutationError("expected a selfdestruct-like mutant")
    return KillQuery(TargetSpec(spec.line, None, None),
                     "reach line %d" % spec.line)


def differential_kill(orig_program, mutant_program, seq) -> KillResult:
    """Replay the sequence on both programs and compare behavior."""
    r_orig = oracle.replay(orig_program, seq, target=None)
    r_mut = oracle.replay(mutant_program, seq, target=None)
    strong = r_orig.reverted != r_mut.reverted
    weak = (r_orig.final_storage != r_mut.final_storage
            or r_orig.trace != r_mut.trace)
    detail = []
    if strong:
        detail.append("revert outcomes differ %s vs %s"
                      % (r_orig.reverted, r_mut.reverted))
    if r_orig.final_storage != r_mut.final_storage:
        detail.append("final storage differs")
    if r_orig.trace != r_mut.trace:
        detail.append("executed paths differ")
    return KillResult(strong or weak, strong, weak, "; ".join(detail))


@dataclass
class MutantOutcome:
    spec: MutantSpec
    status: str                   # killed | reached | no_kill_found | no_usage
    kill: Optional[KillResult] = None
    sequence: Optional[object] = None
    walks_explored: int = 0

    def to_obj(self):
        out = {
            "kind": self.spec.kind,
            "line": self.spec.line,
            "original": self.spec.original,
            "mutated": self.spec.mutated,
            "status": self.status,
            "walks_explored": self.walks_explored,
        }
        if self.kill is not None:
            out["kill"] = {"strong": self.kill.strong,
                           "weak": self.kill.weak,
                           "detail": self.kill.detail}
        if self.sequence is not None:
            out["transactions"] = to_obj(self.sequence)["transactions"]
        return out


@collector_paused()
def run_mutants(source, specs, *, heuristic="floyd-warshall", solver=None,
                limits=None, lazy_check=False, prepared=None):
    """Solve each mutant's kill queries and validate kills by differential
    replay.  The queries search the original program, prepared once (or
    given as `prepared`, ``prepare(source)``); the engine runs width
    mutants against the widened program.  The cyclic garbage collector is
    paused for the call."""
    outcomes = []
    ast, orig_program, orig_graph = prepared or prepare(source)
    for spec in specs:
        mut_ast_checked, mutant_program, mutant_graph = prepare(
            apply_mutant(source, spec))
        searched = orig_graph
        if spec.kind == "condition":
            queries = [gen_condition_kill(ast, spec)]
        elif spec.kind == "assignment_rhs":
            queries = [gen_assignment_kill(ast, spec)]
        elif spec.kind == "width_change":
            queries = gen_width_kill(mut_ast_checked, spec)
            searched = mutant_graph
        else:
            queries = [gen_reachability_only(spec)]
        if not queries:
            outcomes.append(MutantOutcome(spec, "no_usage"))
            continue
        outcome = None
        walks = 0
        for query in queries:
            result = search(searched, query.target, heuristic=heuristic,
                            solver=solver, limits=limits,
                            lazy_check=lazy_check)
            walks += result.walks_explored
            if result.status != "found":
                continue
            if spec.kind == "selfdestruct_like":
                outcome = MutantOutcome(spec, "reached",
                                        sequence=result.sequence,
                                        walks_explored=walks)
                break
            kill = differential_kill(orig_program, mutant_program,
                                     result.sequence)
            status = "killed" if kill.killed else "not_killed"
            outcome = MutantOutcome(spec, status, kill=kill,
                                    sequence=result.sequence,
                                    walks_explored=walks)
            break
        if outcome is None:
            outcome = MutantOutcome(spec, "no_kill_found",
                                    walks_explored=walks)
        outcomes.append(outcome)
    return outcomes
