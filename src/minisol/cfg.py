"""Per-function control-flow graphs and the chained multi-transaction graph.

Each function gets explicit synthetic entry/exit marker nodes plus one node
per IR instruction.  Branching instructions (condition/require/assert) have
exactly two successors; a failing require branches into the function's
revert sink, which counts as a final state so an aborted transaction still
flows into ``tx_processed`` (the edge is recognizable by its source node).
The constructor's revert sink is a dead end: a failed deployment can never
lead to the constructed state.

The combined graph chains everything through four auxiliary nodes --
``start``, ``constructed``, ``tx_processed`` and ``end`` -- so that a walk
can encode any number of transactions after deployment.  The walk search
runs on the transposed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ir import CONSTRUCTOR, IrFunction, IrProgram

AUX_KINDS = ("start", "end", "constructed", "tx_processed")


@dataclass
class CfgNode:
    id: int
    kind: str                       # aux kind | 'entry' | 'exit' | 'instr'
    fn: Optional[str] = None
    instr: Optional[object] = None

    @property
    def line(self):
        return self.instr.line if self.instr is not None else None

    @property
    def is_revert_sink(self):
        return self.instr is not None and self.instr.kind == "revert_sink"

    def label(self):
        if self.kind == "instr":
            return self.instr.text()
        if self.kind in ("entry", "exit"):
            return "%s %s" % (self.kind, self.fn)
        return self.kind


@dataclass
class Cfg:
    fn: str
    nodes: list                     # CfgNode, construction order
    edges: list                     # (src_id, dst_id)
    initial: list                   # [entry id]
    final: list                     # [exit id] (+ revert sink for functions)
    entry_id: int = -1
    exit_id: int = -1
    branch: dict = field(default_factory=dict)  # cond id -> (true id, false id)


def build_cfg(fn: IrFunction, id_base=0) -> Cfg:
    """Instruction-level CFG with synthetic entry/exit markers.

    Unreachable instructions are dropped so that every node is reachable
    from the entry marker.
    """
    nodes = []
    edges = []
    branch = {}

    def new_node(kind, instr=None):
        node = CfgNode(len(nodes), kind, fn=fn.name, instr=instr)
        nodes.append(node)
        return node

    entry = new_node("entry")
    instr_nodes = {}                # (block idx, instr idx) -> node
    for block in fn.blocks:
        for i, ins in enumerate(block.instrs):
            instr_nodes[(block.idx, i)] = new_node("instr", ins)
    exit_node = new_node("exit")

    def block_head(idx):
        seen = set()
        while not fn.blocks[idx].instrs:
            if idx in seen:
                raise ValueError("empty block cycle in %s" % fn.name)
            seen.add(idx)
            term = fn.blocks[idx].term
            if term.kind == "return":
                return exit_node.id
            if term.kind != "goto":
                raise ValueError("empty block with branch terminator")
            idx = term.targets[0]
        return instr_nodes[(idx, 0)].id

    edges.append((entry.id, block_head(0)))
    for block in fn.blocks:
        for i, ins in enumerate(block.instrs[:-1]):
            edges.append((instr_nodes[(block.idx, i)].id,
                          instr_nodes[(block.idx, i + 1)].id))
        if not block.instrs:
            continue
        last = instr_nodes[(block.idx, len(block.instrs) - 1)]
        term = block.term
        if term.kind == "goto":
            edges.append((last.id, block_head(term.targets[0])))
        elif term.kind == "branch":
            t, f = (block_head(x) for x in term.targets)
            edges.append((last.id, t))
            edges.append((last.id, f))
            branch[last.id] = (t, f)
        elif term.kind == "return":
            if not last.is_revert_sink:
                edges.append((last.id, exit_node.id))

    # drop unreachable instruction nodes, renumber in construction order
    succs = {}
    for a, b in edges:
        succs.setdefault(a, []).append(b)
    reached = {entry.id}
    frontier = [entry.id]
    while frontier:
        nxt = []
        for n in frontier:
            for s in succs.get(n, ()):
                if s not in reached:
                    reached.add(s)
                    nxt.append(s)
        frontier = nxt
    reached.add(exit_node.id)

    keep = [n for n in nodes if n.id in reached]
    remap = {}
    for new_id, node in enumerate(keep):
        remap[node.id] = new_id + id_base
        node.id = new_id + id_base
    kept_edges = [(remap[a], remap[b]) for a, b in edges
                  if a in remap and b in remap]
    branch = {remap[c]: (remap[t], remap[f]) for c, (t, f) in branch.items()
              if c in remap}

    final = [exit_node.id]
    if not fn.is_constructor:
        final += [n.id for n in keep if n.is_revert_sink]
    return Cfg(fn.name, keep, kept_edges, [entry.id], final,
               entry_id=entry.id, exit_id=exit_node.id, branch=branch)


@dataclass
class CfgPlus:
    program: IrProgram
    nodes: list
    edges: list
    start_id: int
    end_id: int
    constructed_id: int
    tx_processed_id: int
    ctor_cfg: Cfg
    fn_cfgs: dict                   # name -> Cfg (public functions)
    branch: dict
    succs: dict = field(default_factory=dict)
    preds: dict = field(default_factory=dict)

    def node(self, node_id):
        return self.nodes[node_id]

    def target_node(self, line):
        """First IR instruction node on `line`, in program order."""
        for node in self.nodes:
            if node.kind == "instr" and node.instr.line == line:
                return node.id
        return None

    def successors(self, node_id):
        return self.succs.get(node_id, ())

    def predecessors(self, node_id):
        return self.preds.get(node_id, ())

    def is_boundary(self, node_id):
        return self.nodes[node_id].kind in AUX_KINDS


def build_cfg_plus(program: IrProgram) -> CfgPlus:
    nodes = []

    def new_aux(kind):
        node = CfgNode(len(nodes), kind)
        nodes.append(node)
        return node

    start = new_aux("start")
    ctor_cfg = build_cfg(program.constructor, id_base=len(nodes))
    nodes.extend(ctor_cfg.nodes)
    constructed = new_aux("constructed")
    fn_cfgs = {}
    for fn in program.public_functions():
        cfg = build_cfg(fn, id_base=len(nodes))
        nodes.extend(cfg.nodes)
        fn_cfgs[fn.name] = cfg
    txp = new_aux("tx_processed")
    end = new_aux("end")

    edges = list(ctor_cfg.edges)
    for cfg in fn_cfgs.values():
        edges.extend(cfg.edges)
    for s in ctor_cfg.initial:
        edges.append((start.id, s))
    for t in ctor_cfg.final:
        edges.append((t, constructed.id))
    for cfg in fn_cfgs.values():
        for s in cfg.initial:
            edges.append((constructed.id, s))
        for t in cfg.final:
            edges.append((t, txp.id))
    edges.append((txp.id, constructed.id))
    edges.append((txp.id, end.id))

    branch = dict(ctor_cfg.branch)
    for cfg in fn_cfgs.values():
        branch.update(cfg.branch)

    succs, preds = {}, {}
    for a, b in edges:
        succs.setdefault(a, []).append(b)
        preds.setdefault(b, []).append(a)

    return CfgPlus(program, nodes, edges, start.id, end.id, constructed.id,
                   txp.id, ctor_cfg, fn_cfgs, branch, succs, preds)


class ReversedView:
    """The transposed graph; the walk search runs on this."""

    def __init__(self, plus: CfgPlus):
        self.plus = plus

    @property
    def nodes(self):
        return self.plus.nodes

    def edges(self):
        return [(b, a) for a, b in self.plus.edges]

    def successors(self, node_id):
        return self.plus.predecessors(node_id)

    def predecessors(self, node_id):
        return self.plus.successors(node_id)


def to_dot(plus: CfgPlus) -> str:
    """Deterministic DOT rendering; auxiliary nodes are double circles and
    every function body sits in its own cluster."""
    out = ["digraph cfg_plus {"]
    aux = [n for n in plus.nodes if n.kind in AUX_KINDS]
    for node in aux:
        out.append('  n%d [shape=doublecircle, label="%s"];'
                   % (node.id, node.label()))

    def cluster(cfg, title):
        out.append('  subgraph "cluster_%s" {' % title)
        out.append('    label="%s";' % title)
        for node in cfg.nodes:
            shape = "ellipse" if node.kind in ("entry", "exit") else "box"
            out.append('    n%d [shape=%s, label="%s"];'
                       % (node.id, shape, _dot_escape(node.label())))
        out.append("  }")

    cluster(plus.ctor_cfg, CONSTRUCTOR)
    for name in plus.fn_cfgs:
        cluster(plus.fn_cfgs[name], name)

    for a, b in sorted(set(plus.edges)):
        attrs = []
        if a in plus.branch:
            t, f = plus.branch[a]
            attrs.append('label="%s"' % ("T" if b == t else "F"))
        if plus.nodes[a].is_revert_sink:
            attrs.append("style=dashed")
        suffix = " [%s]" % ", ".join(attrs) if attrs else ""
        out.append("  n%d -> n%d%s;" % (a, b, suffix))
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')
