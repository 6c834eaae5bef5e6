"""Backward walk search over the reversed transaction graph.

A tree of partial walks grows from the target node toward the start node.
Every tree node keeps its untried reversed-graph neighbours; the frontier
option with the lowest heuristic cost is extended next (ties broken by the
smallest stable graph node id, then tree age), each extension is checked,
and UNSAT extensions are never grown again.  The first extension that
lands on the start node with a SAT script is the answer.  A candidate walk
says whether its tree leaf was checked SAT (``Walk.parent_sat``), so the
check callback can decide it from the new node's clauses alone.

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

    def cost(tree, leaf, option):
        if leaf.pending:
            fn = ctx.graph.node(option).fn
            if fn is not None and not (ctx.fn_writes.get(fn, set())
                                       & leaf.pending):
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

@dataclass
class TreeNode:
    idx: int
    cfg_node: int
    parent: Optional[int]
    depth: int
    pending: frozenset
    status: str = "unknown"


class WalkTree:
    def __init__(self, root_cfg_node, ctx, safety_reads):
        self.ctx = ctx
        self.nodes = []
        root_pending = (frozenset(safety_reads)
                        | self._reads(root_cfg_node))
        self.nodes.append(TreeNode(0, root_cfg_node, None, 1, root_pending))

    def _reads(self, cfg_node):
        node = self.ctx.graph.node(cfg_node)
        if node.kind == "instr":
            return frozenset(node.instr.state_reads())
        return frozenset()

    def _writes(self, cfg_node):
        node = self.ctx.graph.node(cfg_node)
        if node.kind == "instr":
            return frozenset(node.instr.state_writes())
        return frozenset()

    def extend(self, leaf_idx, cfg_node, status):
        leaf = self.nodes[leaf_idx]
        pending = (leaf.pending - self._writes(cfg_node)) | self._reads(cfg_node)
        child = TreeNode(len(self.nodes), cfg_node, leaf_idx, leaf.depth + 1,
                         pending, status=status)
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
                                  deadline=None) -> ExploreResult:
    """Grow backward walks from the target line's node until one reaches the
    start node with a satisfiable script (plus safety condition).

    `check` is the solver callback: Walk -> SatResult.  With `lazy_check`,
    satisfiability is only decided at transaction boundaries instead of on
    every extension.  The search ends with reason ``timeout`` once
    ``time.monotonic()`` passes `deadline` (default: `limits.wall_timeout`
    from now), also when a check gave up on ``unknown`` because of it.
    """
    if deadline is None:
        deadline = time.monotonic() + limits.wall_timeout
    root = graph.target_node(target.line)
    if root is None:
        raise TargetError("target line %d has no IR node" % target.line)
    ctx = context or build_context(graph, target.safety)
    h = heuristic(ctx)                     # heuristic is a factory over ctx
    tree = WalkTree(root, ctx, ctx.safety_reads)
    explored = 0
    heap = []
    counter = 0

    def push_options(tree_node):
        nonlocal counter
        if tree_node.depth >= limits.max_walk_len:
            return
        for succ in sorted(ctx.rv.successors(tree_node.cfg_node)):
            cost = h(tree, tree_node, succ)
            counter += 1
            heapq.heappush(heap, (cost, succ, tree_node.idx, counter))

    push_options(tree.nodes[0])

    def timed_out():
        return ExploreResult("notfound", walks_explored=explored,
                             reason="timeout")

    while heap:
        if time.monotonic() > deadline:
            return timed_out()
        _cost, option, leaf_idx, _age = heapq.heappop(heap)
        complete = option == graph.start_id
        boundary = graph.is_boundary(option)

        if lazy_check and not boundary:
            child = tree.extend(leaf_idx, option, "unknown")
            push_options(child)
            continue

        if explored >= limits.max_walks:
            return ExploreResult("notfound", walks_explored=explored,
                                 reason="budget")
        candidate = tree.walk(leaf_idx, extra=option)
        candidate.parent_sat = tree.nodes[leaf_idx].status == "sat"
        result = check(candidate)
        explored += 1
        if result.status == "sat" and complete:
            return ExploreResult("found", candidate, result.model, explored)
        if result.status == "unknown" and time.monotonic() > deadline:
            return timed_out()
        child = tree.extend(leaf_idx, option, result.status)
        if result.status == "sat":
            push_options(child)

    return ExploreResult("notfound", walks_explored=explored,
                         reason="exhausted")
