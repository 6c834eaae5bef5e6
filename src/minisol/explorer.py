"""Backward walk search over the reversed transaction graph.

A tree of partial walks grows from the target node toward the start node.
Every tree node keeps its untried reversed-graph neighbours; the frontier
option with the lowest heuristic cost is extended next (ties broken by the
smallest stable graph node id, then tree age), each extension is checked,
and UNSAT extensions are never grown again.  The first extension that
lands on the start node with a SAT script is the answer; its check's
result leaves the search with it.

A tree node holds one opaque value while some of its options wait in the
heap: the result of its own check or, unchecked in lazy mode, of its
nearest checked ancestor's.  It hands that value to the check of each
extension as ``Walk.prefix``, and the last option popped releases it.
The engine's results (``smt.solve.SatResult``) carry the checked walk's
numbering, so a check numbers only the nodes after it, one in eager mode.
The root's value comes from the caller.

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
from dataclasses import dataclass, field
from typing import Optional

from .cfg import CfgPlus, ReversedView
from .errors import ConfigError, TargetError


class Walk:
    """A backward walk on `graph`, target first, and the result of the
    check of its nearest checked prefix.  One the explorer grows is a tree
    node (`leaf`) plus a graph node (`last`), read back from the tree only
    as far as asked."""
    __slots__ = ("graph", "prefix", "_nodes", "_leaf", "_last")

    def __init__(self, nodes, graph: CfgPlus, prefix=None, leaf=None,
                 last=None):
        self._nodes, self.graph, self.prefix = nodes, graph, prefix
        self._leaf, self._last = leaf, last

    @property
    def nodes(self):
        if self._nodes is None:
            self._nodes = self.nodes_after(0)
        return self._nodes

    def nodes_after(self, length):
        """The walk's nodes after its first `length`."""
        if self._nodes is not None:
            return self._nodes[length:]
        out = [self._last]
        node = self._leaf
        while node is not None and node.depth > length:
            out.append(node.cfg_node)
            node = node.parent
        return tuple(reversed(out))


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

@dataclass(slots=True)
class NodeFacts:
    """What the search reads of one graph node: its options (its
    reversed-graph successors, sorted), the state variables its
    instruction reads and writes, and those its function writes (None
    outside a function)."""
    options: tuple
    reads: frozenset
    writes: frozenset
    fn_writes: Optional[frozenset]


@dataclass
class ExplorationContext:
    """What the search reads of the graph.  A node's ``NodeFacts`` are
    computed once per run, on its first read (``node_facts``), and kept in
    `facts`, indexed by node id: a small program's search reads few of
    its nodes."""
    graph: CfgPlus
    rv: ReversedView
    to_start: list                         # node id -> distance to start
    fn_writes: dict                        # function name -> frozenset
    safety_reads: frozenset = frozenset()
    facts: list = field(init=False)        # node id -> NodeFacts, once read

    def __post_init__(self):
        self.facts = [None] * len(self.graph.nodes)


_NO_VARS = frozenset()


def node_facts(ctx: ExplorationContext, node_id) -> NodeFacts:
    """The facts of node `node_id`, computed on its first read; a caller
    that reads ``ctx.facts`` first calls this only then."""
    facts = ctx.facts[node_id]
    if facts is None:
        node = ctx.graph.node(node_id)
        instr = node.instr if node.kind == "instr" else None
        facts = ctx.facts[node_id] = NodeFacts(
            tuple(sorted(ctx.rv.successors(node_id))),
            frozenset(instr.state_reads()) if instr else _NO_VARS,
            frozenset(instr.state_writes()) if instr else _NO_VARS,
            None if node.fn is None else ctx.fn_writes.get(node.fn, _NO_VARS))
    return facts


def build_context(graph: CfgPlus, safety=None) -> ExplorationContext:
    rv = ReversedView(graph)
    to_start = distances_to_start(rv)
    fn_writes = {fn.name: frozenset(fn.state_writes())
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
    facts = ctx.facts
    pending = {}    # tree-node index -> state variables read, not yet written

    def pending_at(tree, leaf):
        """The state variables the walk to `leaf` reads before (in
        execution order) any write of them: its parent's, less what the
        leaf writes, plus what it reads.  The root's start from the safety
        condition's reads."""
        out = pending.get(leaf.idx)
        if out is not None:
            return out
        above = []
        while leaf is not None and leaf.idx not in pending:
            above.append(leaf)
            leaf = leaf.parent
        out = ctx.safety_reads if leaf is None else pending[leaf.idx]
        for leaf in reversed(above):
            node = facts[leaf.cfg_node] or node_facts(ctx, leaf.cfg_node)
            if leaf.parent is not None and node.writes:
                out = out - node.writes
            if node.reads:
                out = out | node.reads
            pending[leaf.idx] = out
        return out

    def cost(tree, leaf, option):
        reads = pending_at(tree, leaf)
        if reads:
            writes = (facts[option] or node_facts(ctx, option)).fn_writes
            if writes is not None and writes.isdisjoint(reads):
                return math.inf
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
    parent: Optional[TreeNode]
    depth: int
    # while some of its options wait in the heap: its check's result, or
    # its nearest checked ancestor's, for the checks of its extensions
    prefix: Optional[object] = None
    options: int = 0


class WalkTree:
    def __init__(self, root_cfg_node):
        self.nodes = [TreeNode(0, root_cfg_node, None, 1)]

    def extend(self, leaf_idx, cfg_node):
        leaf = self.nodes[leaf_idx]
        child = TreeNode(len(self.nodes), cfg_node, leaf, leaf.depth + 1)
        self.nodes.append(child)
        return child


@dataclass
class ExploreResult:
    """A search's outcome.  A `notfound` one says which bound ended it
    (`reason`):

    * ``exhausted``: every walk was tried; no satisfiable one reaches the
      start node.
    * ``budget``: `max_walks` checks were made.
    * ``timeout``: the wall clock passed the deadline.
    * ``depth``: the walks ran out, but some were cut at `max_walk_len`,
      whose longer extensions were never tried."""
    status: str                            # 'found' | 'notfound'
    walk: Optional[Walk] = None
    found: Optional[object] = None         # the found walk's check result
    walks_explored: int = 0
    reason: str = ""


def find_minimal_satisfiable_walk(graph: CfgPlus, target, heuristic, limits,
                                  *, check, context=None, lazy_check=False,
                                  deadline=None,
                                  prefix=None) -> ExploreResult:
    """Grow backward walks from the target line's node until one reaches the
    start node with a satisfiable script (plus safety condition).

    `check` is the solver callback: Walk -> SatResult.  With `lazy_check`,
    satisfiability is only decided at transaction boundaries instead of on
    every extension.  The search ends with reason ``timeout`` once
    ``time.monotonic()`` passes `deadline` (default: `limits.wall_timeout`
    from now), also when a check gave up on ``unknown`` because of it
    (every reason: see ``ExploreResult``).

    `prefix` is the root's value for the checks of its extensions (see
    ``Walk.prefix``), if the caller has one; every other is a check's.
    """
    if deadline is None:
        deadline = time.monotonic() + limits.wall_timeout
    root = graph.target_node(target.line)
    if root is None:
        raise TargetError("target line %d has no IR node" % target.line)
    ctx = context or build_context(graph, target.safety)
    h = heuristic(ctx)                     # heuristic is a factory over ctx
    tree = WalkTree(root)
    explored = 0
    heap = []
    counter = 0
    cut = 0                                # options dropped at max_walk_len

    facts = ctx.facts

    def push_options(tree_node, prefix):
        nonlocal counter, cut
        node = tree_node.cfg_node
        options = (facts[node] or node_facts(ctx, node)).options
        if tree_node.depth >= limits.max_walk_len:
            cut += len(options)
            return
        for succ in options:
            cost = h(tree, tree_node, succ)
            counter += 1
            heapq.heappush(heap, (cost, succ, tree_node.idx, counter))
            tree_node.options += 1
        if tree_node.options:
            tree_node.prefix = prefix

    push_options(tree.nodes[0], prefix)

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
        prefix = leaf.prefix
        leaf.options -= 1
        if not leaf.options:
            leaf.prefix = None             # no extension of it is left

        if lazy_check and not boundary:
            child = tree.extend(leaf_idx, option)
            push_options(child, prefix)
            continue

        if explored >= limits.max_walks:
            return ExploreResult("notfound", walks_explored=explored,
                                 reason="budget")
        candidate = Walk(None, graph, prefix, leaf, option)
        result = check(candidate)
        explored += 1
        if result.status == "sat" and complete:
            return ExploreResult("found", Walk(candidate.nodes, graph, prefix),
                                 result, explored)
        if result.status == "unknown" and time.monotonic() > deadline:
            return timed_out()
        child = tree.extend(leaf_idx, option)
        if result.status == "sat":
            push_options(child, result)

    return ExploreResult("notfound", walks_explored=explored,
                         reason="depth" if cut else "exhausted")
