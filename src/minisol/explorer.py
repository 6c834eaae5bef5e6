"""Backward walk search over the reversed transaction graph.

A tree of partial walks grows from the target node toward the start node.
Every tree node keeps its untried reversed-graph neighbours; the frontier
option with the lowest heuristic cost is extended next (ties broken by the
smallest stable graph node id, then tree age), each extension is checked,
and UNSAT extensions are never grown again.  The first extension that
lands on the start node with a SAT script is the answer.  A candidate walk
says whether its tree leaf was checked SAT (``Walk.parent_sat``), so the
check callback can decide it from the new node's clauses alone.

The walks are numbered backward from the target (``encoder.Numbering``),
so a walk's numbering extends its parent's by one node.  A tree node holds
its numbering (or, unchecked in lazy mode, its nearest numbered
ancestor's) while some of its options wait in the heap, and hands it to
the check of each extension as ``Walk.numbered``: a check numbers only the
nodes after it, one in eager mode.  The root's numbering comes from the
caller, every other one from the check of its walk
(``SatResult.numbering``); the last option popped releases it.

Heuristics are cost functions ``h(tree, leaf, option) -> float``; infinity
means "never pick while any finite option exists".  Two ship built in:

* ``floyd-warshall``: walk length so far plus the shortest-path distance
  from the option to the start node on the reversed graph (the name is
  historical: one breadth-first search from the start node gives every
  distance the heuristic reads).
* ``state-var``: like the above, but infinite for options inside functions
  that cannot write any state variable the walk has read without a
  later-in-walk (earlier-in-execution) write.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cfg import CfgPlus, ReversedView
from .errors import ConfigError, TargetError


@dataclass
class Walk:
    nodes: tuple
    graph: Optional[CfgPlus] = None
    parent_sat: bool = False       # the walk less its frontier checked SAT
    # the numbering of a prefix of the walk (``encoder.Numbering``): its
    # nearest numbered ancestor's
    numbered: Optional[object] = None

    def __len__(self):
        return len(self.nodes)


@dataclass
class Limits:
    max_walk_len: int = 400
    max_walks: int = 100000
    wall_timeout: float = 300.0

    def __post_init__(self):
        if self.max_walk_len <= 0 or self.max_walks <= 0 \
                or self.wall_timeout <= 0:
            raise ConfigError("limits must be positive")


def distances_to_start(rv: ReversedView) -> list:
    """Shortest path length (edge count) from every node to the start node
    on the reversed graph, indexed by node id; infinity where there is no
    path.  One breadth-first search backward from the start node."""
    start = rv.plus.start_id
    dist = [math.inf] * len(rv.nodes)
    dist[start] = 0.0
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for prev in rv.predecessors(node):
            if dist[prev] == math.inf:
                dist[prev] = dist[node] + 1
                queue.append(prev)
    return dist


# ---------------------------------------------------------------------------
# Exploration context and heuristics
# ---------------------------------------------------------------------------

@dataclass
class ExplorationContext:
    graph: CfgPlus
    rv: ReversedView
    to_start: list                         # node id -> distance to start
    fn_writes: dict                        # function name -> set of state vars
    safety_reads: frozenset = frozenset()


def build_context(graph: CfgPlus, safety=None) -> ExplorationContext:
    rv = ReversedView(graph)
    to_start = distances_to_start(rv)
    fn_writes = {fn.name: fn.state_writes()
                 for fn in graph.program.all_functions()}
    safety_reads = frozenset(safety_state_reads(safety)) if safety is not None \
        else frozenset()
    return ExplorationContext(graph, rv, to_start, fn_writes, safety_reads)


def safety_state_reads(expr):
    from .lang import Ident, Index, iter_exprs
    out = set()
    for e in iter_exprs(expr):
        if isinstance(e, Index):
            out.add(e.base.name)
        elif isinstance(e, Ident) and e.binding == "state":
            out.add(e.name)
    return out


def heuristic_floyd_warshall(ctx: ExplorationContext):
    to_start = ctx.to_start

    def cost(tree, leaf, option):
        return leaf.depth + to_start[option]

    return cost


def heuristic_state_var(ctx: ExplorationContext):
    fw = heuristic_floyd_warshall(ctx)
    pending = {}    # tree-node index -> state variables read, not yet written

    def pending_at(tree, leaf):
        """The state variables the walk to `leaf` reads before (in
        execution order) any write of them: its parent's, less what the
        leaf writes, plus what it reads.  The root's start from the safety
        condition's reads."""
        out = pending.get(leaf.idx)
        if out is None:
            node = ctx.graph.node(leaf.cfg_node)
            instr = node.instr if node.kind == "instr" else None
            if leaf.parent is None:
                out = ctx.safety_reads
            else:
                out = pending_at(tree, tree.nodes[leaf.parent])
                if instr is not None and instr.state_writes():
                    out = out.difference(instr.state_writes())
            if instr is not None and instr.state_reads():
                out = out.union(instr.state_reads())
            pending[leaf.idx] = out
        return out

    def cost(tree, leaf, option):
        reads = pending_at(tree, leaf)
        if reads:
            fn = ctx.graph.node(option).fn
            if fn is not None and not (ctx.fn_writes.get(fn, set()) & reads):
                return float("inf")
        return fw(tree, leaf, option)

    return cost


HEURISTICS = {
    "floyd-warshall": heuristic_floyd_warshall,
    "state-var": heuristic_state_var,
}


def register_heuristic(name, factory):
    """Expose a third-party heuristic under `name` (factory takes an
    ExplorationContext and returns the cost function)."""
    HEURISTICS[name] = factory


# ---------------------------------------------------------------------------
# Walk tree
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TreeNode:
    idx: int
    cfg_node: int
    parent: Optional[int]
    depth: int
    status: str = "unknown"
    # while some of its options wait in the heap: its numbering, or its
    # nearest numbered ancestor's, for the checks of its extensions
    numbered: Optional[object] = None
    options: int = 0


class WalkTree:
    def __init__(self, root_cfg_node, ctx):
        self.ctx = ctx
        self.nodes = [TreeNode(0, root_cfg_node, None, 1)]

    def extend(self, leaf_idx, cfg_node, status):
        leaf = self.nodes[leaf_idx]
        child = TreeNode(len(self.nodes), cfg_node, leaf_idx, leaf.depth + 1,
                         status=status)
        self.nodes.append(child)
        return child

    def path(self, idx):
        out = []
        while idx is not None:
            out.append(self.nodes[idx].cfg_node)
            idx = self.nodes[idx].parent
        out.reverse()
        return tuple(out)                  # target first, frontier last

    def walk(self, idx, extra=None):
        nodes = self.path(idx)
        if extra is not None:
            nodes = nodes + (extra,)
        return Walk(nodes, self.ctx.graph)


@dataclass
class ExploreResult:
    status: str                            # 'found' | 'notfound'
    walk: Optional[Walk] = None
    model: Optional[object] = None
    walks_explored: int = 0
    reason: str = ""


def find_minimal_satisfiable_walk(graph: CfgPlus, target, heuristic, limits,
                                  *, check, context=None, lazy_check=False,
                                  deadline=None,
                                  numbered=None) -> ExploreResult:
    """Grow backward walks from the target line's node until one reaches the
    start node with a satisfiable script (plus safety condition).

    `check` is the solver callback: Walk -> SatResult.  With `lazy_check`,
    satisfiability is only decided at transaction boundaries instead of on
    every extension.  The search ends with reason ``timeout`` once
    ``time.monotonic()`` passes `deadline` (default: `limits.wall_timeout`
    from now), also when a check gave up on ``unknown`` because of it.

    `numbered` is the root walk's numbering, if the caller has one.  A
    check hands back its walk's numbering as ``SatResult.numbering``; the
    tree keeps it, or the nearest numbered ancestor's, while the node's
    options wait, and gives it to their checks as ``Walk.numbered``.
    """
    if deadline is None:
        deadline = time.monotonic() + limits.wall_timeout
    root = graph.target_node(target.line)
    if root is None:
        raise TargetError("target line %d has no IR node" % target.line)
    ctx = context or build_context(graph, target.safety)
    h = heuristic(ctx)                     # heuristic is a factory over ctx
    tree = WalkTree(root, ctx)
    explored = 0
    heap = []
    counter = 0

    def push_options(tree_node, numbered):
        nonlocal counter
        if tree_node.depth >= limits.max_walk_len:
            return
        for succ in sorted(ctx.rv.successors(tree_node.cfg_node)):
            cost = h(tree, tree_node, succ)
            counter += 1
            heapq.heappush(heap, (cost, succ, tree_node.idx, counter))
            tree_node.options += 1
        if tree_node.options:
            tree_node.numbered = numbered

    push_options(tree.nodes[0], numbered)

    def timed_out():
        return ExploreResult("notfound", walks_explored=explored,
                             reason="timeout")

    while heap:
        if time.monotonic() > deadline:
            return timed_out()
        _cost, option, leaf_idx, _age = heapq.heappop(heap)
        complete = option == graph.start_id
        boundary = graph.is_boundary(option)
        leaf = tree.nodes[leaf_idx]
        numbered = leaf.numbered
        leaf.options -= 1
        if not leaf.options:
            leaf.numbered = None           # no extension of it is left

        if lazy_check and not boundary:
            child = tree.extend(leaf_idx, option, "unknown")
            push_options(child, numbered)
            continue

        if explored >= limits.max_walks:
            return ExploreResult("notfound", walks_explored=explored,
                                 reason="budget")
        candidate = tree.walk(leaf_idx, extra=option)
        candidate.parent_sat = leaf.status == "sat"
        candidate.numbered = numbered
        result = check(candidate)
        explored += 1
        if result.status == "sat" and complete:
            return ExploreResult("found", candidate, result.model, explored)
        if result.status == "unknown" and time.monotonic() > deadline:
            return timed_out()
        child = tree.extend(leaf_idx, option, result.status)
        if result.status == "sat":
            push_options(child, result.numbering or numbered)

    return ExploreResult("notfound", walks_explored=explored,
                         reason="exhausted")
