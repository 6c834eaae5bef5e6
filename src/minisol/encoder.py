"""Walks to constraints: SSA numbering, solver terms, solver access.

``ssa_number`` numbers a walk backward, from its root (the target point)
toward its frontier, one node per step (``Numbering.step``), and builds
each node's clauses as ``smt`` terms straight into the run's ``Ctx``.  The
versions live at the target point are fixed: state variable ``x`` is
``x!0``, mapping ``m`` is the array ``m!0``, and the target's
transaction is segment ``t0``.  A write defines the version live after it
and leaves a fresh one live before it; each earlier transaction gets the
next segment index.  A node's names therefore depend only on the walk from
the target to it, and a numbered node's clauses never change: a one-node
extension's clauses are its parent's, term for term, plus the new node's.
The walk tree keeps each checked node's ``Numbering`` for its children,
and ``ssa_number`` numbers only the nodes after the numbered prefix a walk
carries (``Walk.numbered``).  Locals and the transaction environment
belong to their segment; a local read with no earlier write in a complete
segment is an error, found when the backward walk reaches the entry.

Two kinds of clause move with the frontier and come first: the account
clauses of the segment the frontier is in, until its entry is numbered,
and the link of a reverting segment.  A segment reverts when the backward
walk passes tx_processed from its revert sink.  Its path constraints hold
but its writes are discarded, as in the EVM: inside it every state
variable and mapping it touches gets private versions, and the link
equates the versions live after the segment with the private ones live at
its start (at the frontier while it is open, at its entry once numbered).
The zero-initialization clauses (scalars = 0, all map cells = 0) attach to
the start node, so partial walks leave their pre-state free and an UNSAT
prefix can never become SAT by extension.

``frontier_script`` cuts the frontier's clauses (the moving ones and the
new node's) out as a script of their own when they mention no symbol that
the rest of the walk or the safety condition mentions; if the parent was
SAT, they alone decide the extension.  Each numbering marks which of its
live symbols its clauses mention, so the test reads only the new node's
symbols.  ``clause_shape`` keys such scripts up to a renaming of their
symbols, so the engine answers a repeat from its table.

Scalars are fixed-width bitvectors and each mapping generation ``m!g`` is
an SMT-LIB array variable (QF_ABV): a write is the one clause
``(= m!g (store m!h key val))``, zero-initialization equates the
generation with a constant array of zeros, a reverting segment's link
equates two generations, and a read is ``(select m!g key)``.  Map
generations are symbols like any other; only the scalar ones are
queried for a model.  ``encode`` assembles one check's script:
the numbered clauses plus the safety condition, over the versions live at
the target point, before the target instruction's own effect; the replay
oracle mirrors this by stopping at the first arrival that satisfies the
condition.

The bundled solver reads those terms in process.  SMT-LIB 2 text is
rendered from them (``SmtScript.text``) only when something reads it: the
``--emit-smt`` dumps and an external ``--solver-cmd`` process, whose answer
``parse_solver_output`` reads back.
"""

from __future__ import annotations

import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import EncodeError, SolverError
from .ir import BRANCH_KINDS, CONSTRUCTOR
from .lang import (ADDRESS, BOOL, ENV_NAMES, ENV_TYPES, NUM_ACCOUNTS,
                   U256, Binary, BoolLit, AddressLit, EnvRead,
                   Ident, Index, IntLit, Unary)
from . import smt
from .smt import terms as smt_terms
from .smt.parse import Script, read_sexprs, tokenize as smt_tokenize

GAS = "gas"
_ENV = ENV_NAMES + (GAS,)

_OPS = {"+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvudiv",
        "%": "bvurem", "<": "bvult", "<=": "bvule", ">": "bvugt",
        ">=": "bvuge", "==": "=", "!=": "distinct", "&&": "and", "||": "or"}

_ADDRESS_SORT = smt_terms.bv(ADDRESS.bit_width)
_WORD = smt_terms.bv(256)          # what every mapping cell holds


def _key_type(type_):
    """The key type of a mapping or array."""
    return type_.key if type_.kind == "mapping" else U256


def _sort(type_):
    """The solver sort of `type_`; a mapping or array is an SMT-LIB array
    from its keys to 256-bit words."""
    if type_ is BOOL:
        return smt_terms.BOOL
    if type_.is_scalar:
        return smt_terms.bv(type_.bit_width)
    return smt_terms.array(_sort(_key_type(type_)), _WORD)


def _lit(ctx, value, type_):
    if type_ is BOOL:
        return ctx.cbool(bool(value))
    return ctx.const(value, type_.bit_width)


def _conv(ctx, term, to_w):
    """`term` at width `to_w`: zero-extended, truncated, or a constant
    masked."""
    if term.op in ("const", "cbool"):
        value = term.val[0] if term.op == "const" else int(term.val)
        return ctx.const(value, to_w)
    from_w = term.sort[1]
    if from_w == to_w:
        return term
    if from_w < to_w:
        return ctx.mk("zero_extend", term, val=to_w - from_w)
    return ctx.mk("extract", term, val=(to_w - 1, 0))


@dataclass
class TxEnv:
    """Per-transaction symbol generation: caller, attached value, origin,
    timestamp and gas, plus the parameter input symbols."""
    index: int
    fn: str
    sender: str
    value: str
    origin: str
    timestamp: str
    gas: str
    params: list = field(default_factory=list)   # (param name, input symbol)
    is_deployment: bool = False
    partial: bool = False
    aborted: bool = False


@dataclass
class TargetPoint:
    """Where the walk root sits: its function and inline suffix.  The
    versions live there are fixed (``x!0``, ``m!0``, segment ``t0``)."""
    fn: Optional[str]
    inline_suffix: str


# ---------------------------------------------------------------------------
# Backward numbering
# ---------------------------------------------------------------------------

class _Run:
    """What every numbering of one walk tree shares: the term context, the
    program and graph, and caches over them."""

    def __init__(self, ctx, program, graph):
        self.ctx = ctx
        self.program = program
        self.graph = graph
        self.types = dict(program.state_vars)
        self.sorts = {name: _sort(type_) for name, type_ in self.types.items()}
        self.params = {}               # function name -> its parameters
        self.safety = None             # the last ResolvedSafety

    def fn_params(self, fn_name):
        params = self.params.get(fn_name)
        if params is None:
            fn = self.program.function(fn_name)
            params = self.params[fn_name] = tuple(fn.params) if fn else ()
        return params

    def link(self, cur, saved):
        """A reverting segment's link: for every state variable and mapping
        whose live version `cur` differs from the one live after the
        segment (`saved`), the clause equating them, with both names."""
        ctx = self.ctx
        out = []
        for name, sort in self.sorts.items():
            inside, after = cur.get(name, 0), saved.get(name, 0)
            if inside == after:
                continue
            a = ctx.var("%s!%d" % (name, after), sort)
            c = ctx.var("%s!%d" % (name, inside), sort)
            out.append((ctx.mk("=", a, c), a.val, c.val))
        return out


class _Link:
    """The persistent part of one numbered node: its clauses in execution
    order, the symbols it declares, the symbol it defines, the transaction
    its entry completes, and the link of the node after it in execution
    order."""
    __slots__ = ("parent", "clauses", "decls", "defined", "tx")

    def __init__(self, parent, clauses, decls, defined, tx):
        self.parent = parent
        self.clauses = clauses
        self.decls = decls
        self.defined = defined
        self.tx = tx


class _Seg:
    """The transaction segment the frontier is in: its index, function and
    environment, the version of every local it has touched, the symbols of
    its own that its clauses mention, and, for a reverting segment, the
    state versions live after it (`saved`)."""
    __slots__ = ("index", "fn", "env", "env_clauses", "locals", "marks",
                 "saved")

    def copy(self):
        seg = _Seg()
        seg.index, seg.fn, seg.env, seg.env_clauses = \
            self.index, self.fn, self.env, self.env_clauses
        seg.locals, seg.marks, seg.saved = self.locals, self.marks, self.saved
        return seg

    def tx(self, params, partial):
        """The segment's transaction; its parameters' live symbols are the
        inputs."""
        env = self.env
        return TxEnv(self.index, self.fn, env["msg.sender"].val,
                     env["msg.value"].val, env["tx.origin"].val,
                     env["block.timestamp"].val, env[GAS].val,
                     [(p, "%s!t%d!%d" % (p, self.index, self.locals.get(p, 0)))
                      for p, _t in params],
                     is_deployment=(self.fn == CONSTRUCTOR), partial=partial,
                     aborted=self.saved is not None)


class Numbering:
    """The numbering of a walk's first `length` nodes, root first.

    Immutable: ``step`` returns the numbering one node longer and shares
    every part it leaves unchanged.  `cur` and `high` map each state
    variable and mapping to its live and its highest version, `marks` holds
    the live state symbols (map generations among them) the clauses
    mention, and `front_shared` says whether the last node's clauses, or
    the moving ones, mention a symbol the clauses before it mention."""
    __slots__ = ("run", "link", "length", "node", "cur", "high", "marks",
                 "nseg", "seg", "target", "written0", "front_shared",
                 "complete")

    @classmethod
    def empty(cls, program, graph, ctx):
        n = cls()
        n.run = _Run(ctx, program, graph)
        n.link = None
        n.length = 0
        n.node = None
        n.cur, n.high = {}, {}
        n.marks = frozenset()
        n.nseg = 0
        n.seg = None
        n.target = None
        n.written0 = None              # slots the root segment writes
        n.front_shared = False
        n.complete = False
        return n

    def step(self, node_id):
        """The numbering of the walk extended by `node_id`, which executes
        just before the nodes numbered so far."""
        return _Step(self, node_id).result()

    def moving(self):
        """The clauses that move with the frontier, with the names they
        mention: the open segment's account clauses and, if it reverts,
        its link."""
        seg = self.seg
        if seg is None:
            return [], []
        clauses = list(seg.env_clauses)
        names = [seg.env["msg.sender"].val, seg.env["tx.origin"].val]
        if seg.saved is not None:
            for clause, a, c in self.run.link(self.cur, seg.saved):
                clauses.append(clause)
                names += (a, c)
        return clauses, names


class _Step:
    """Numbers one node onto a parent numbering, copying each part of the
    parent's state it changes."""

    def __init__(self, parent, node_id):
        self.parent = parent
        self.run = parent.run
        self.ctx = parent.run.ctx
        self.node_id = node_id
        self.node = parent.run.graph.node(node_id)
        self.cur, self.high, self.seg = parent.cur, parent.high, parent.seg
        self.nseg = parent.nseg
        self.target, self.written0 = parent.target, parent.written0
        self.complete = parent.complete
        self.clauses = []
        self.decls = {}                # name -> var term
        self.defined = None
        self.tx = None
        self.mentioned, self.dead = set(), set()           # state symbols
        self.seg_mentioned, self.seg_dead = set(), set()   # locals and env

    # -- symbols ---------------------------------------------------------------

    def declare(self, name, type_):
        term = self.ctx.var(name, _sort(type_))
        self.decls.setdefault(name, term)
        return term

    def state_term(self, name, ver, type_):
        term = self.declare("%s!%d" % (name, ver), type_)
        self.mentioned.add(term.val)
        return term

    def local_term(self, slot, ver, type_):
        term = self.declare("%s!t%d!%d" % (slot, self.seg.index, ver), type_)
        self.seg_mentioned.add(term.val)
        return term

    def own_seg(self):
        if self.seg is self.parent.seg:
            self.seg = self.seg.copy()
        return self.seg

    def set_local(self, slot, ver):
        seg = self.own_seg()
        if self.parent.seg is not None \
                and seg.locals is self.parent.seg.locals:
            seg.locals = dict(seg.locals)
        seg.locals[slot] = ver

    def bump(self, name):
        """Make the next version of state variable or mapping `name` live."""
        if self.high is self.parent.high:
            self.high = dict(self.high)
        if self.cur is self.parent.cur:
            self.cur = dict(self.cur)
        ver = self.high[name] = self.cur[name] = self.high.get(name, 0) + 1
        return ver

    def live(self, name):
        """The live version of `name`; the first time a reverting segment
        touches it, a private one."""
        ver = self.cur.get(name, 0)
        seg = self.seg
        if seg is not None and seg.saved is not None \
                and ver == seg.saved.get(name, 0):
            ver = self.bump(name)
        return ver

    # -- operands --------------------------------------------------------------

    def read(self, op):
        if op.kind == "lit":
            return _lit(self.ctx, op.value, op.type_)
        if op.kind == "env":
            term = self.seg.env[op.name]
            self.seg_mentioned.add(term.val)
            return term
        if op.kind == "state":
            return self.state_term(op.name, self.live(op.name), op.type_)
        ver = self.seg.locals.get(op.name)       # a local or a parameter
        if ver is None:
            ver = 0
            self.set_local(op.name, ver)
        return self.local_term(op.name, ver, op.type_)

    def write(self, op):
        """The symbol `op` is defined as here; an earlier one is live now."""
        if op.kind == "state":
            return self.write_state(op.name, op.type_)
        ver = self.seg.locals.get(op.name, 0)
        term = self.local_term(op.name, ver, op.type_)
        self.seg_dead.add(term.val)
        self.set_local(op.name, ver + 1)
        self.defined = term.val
        return term

    def write_state(self, name, type_):
        """The version of state variable or mapping `name` defined here; an
        earlier one is live now."""
        term = self.state_term(name, self.live(name), type_)
        self.dead.add(term.val)
        self.bump(name)
        self.defined = term.val
        return term

    def assume(self, term):
        self.clauses.append(self.ctx.checked("assert", term))

    def define(self, sym, term):
        self.clauses.append(self.ctx.mk("=", sym, term))

    # -- the step --------------------------------------------------------------

    def result(self):
        node = self.node
        parent = self.parent
        if node.fn is not None and self.seg is None:
            self.open_segment(node)
        if node.kind == "instr":
            if parent.length == 0:
                # the walk root is the target node; the safety condition
                # binds to the versions live here, before its effect
                self.target = TargetPoint(node.fn, node.instr.inline_suffix)
            else:
                self.apply_instr(node, parent.node)
        elif node.kind == "entry":
            self.close_segment()
        elif node.kind == "start":
            self.zero_state()

        n = Numbering()
        n.run, n.length, n.node = self.run, parent.length + 1, self.node_id
        n.cur, n.high, n.nseg, n.seg = self.cur, self.high, self.nseg, self.seg
        n.target, n.written0 = self.target, self.written0
        n.complete = self.complete
        n.link = _Link(parent.link, tuple(self.clauses),
                       tuple(self.decls.values()), self.defined, self.tx)
        n.marks = parent.marks
        if self.mentioned or self.dead:
            n.marks = (n.marks | self.mentioned) - self.dead
        if n.seg is not None and (self.seg_mentioned or self.seg_dead):
            seg = self.own_seg()
            seg.marks = (seg.marks | self.seg_mentioned) - self.seg_dead
            n.seg = seg
        _moving, names = n.moving()
        front = self.mentioned.union(self.seg_mentioned, names)
        seg_marks = parent.seg.marks if parent.seg is not None else ()
        n.front_shared = any(name in parent.marks or name in seg_marks
                             for name in front)
        return n

    def open_segment(self, node):
        """The backward walk enters a transaction at its last node; it
        reverts when that node is a revert sink (reached from
        tx_processed)."""
        ctx = self.ctx
        index = self.nseg
        self.nseg += 1
        seg = self.seg = _Seg()
        seg.index, seg.fn = index, node.fn
        seg.env = {which: self.declare("%s!t%d" % (which, index),
                                       ENV_TYPES.get(which, U256))
                   for which in _ENV}
        # finite account universe; single-contract world: origin == sender
        sender = seg.env["msg.sender"]
        seg.env_clauses = (
            ctx.checked("bvule", sender,
                        ctx.const(NUM_ACCOUNTS - 1, ADDRESS.bit_width)),
            ctx.checked("=", seg.env["tx.origin"], sender))
        seg.locals = {}
        seg.marks = frozenset()
        seg.saved = self.cur if node.is_revert_sink \
            and self.parent.length > 0 else None

    def close_segment(self):
        """The backward walk reaches the segment's entry: its moving
        clauses become the entry's, and its parameters are its inputs."""
        seg = self.seg
        params = self.run.fn_params(seg.fn)
        names = {p for p, _ in params}
        for slot, ver in seg.locals.items():
            if slot not in names and \
                    "%s!t%d!%d" % (slot, seg.index, ver) in seg.marks:
                raise EncodeError("local %r read before any write on the "
                                  "walk" % slot)
        self.clauses.extend(seg.env_clauses)
        self.seg_mentioned.update((seg.env["msg.sender"].val,
                                   seg.env["tx.origin"].val))
        if seg.saved is not None:
            for clause, a, c in self.run.link(self.cur, seg.saved):
                self.clauses.append(clause)
                _symbols([clause], self.decls)
                self.mentioned.update((a, c))
                self.dead.add(a)
        self.tx = seg.tx(params, partial=False)
        for (_, sym), (_, type_) in zip(self.tx.params, params):
            self.declare(sym, type_)
        if seg.index == 0:
            self.written0 = frozenset(s for s, v in seg.locals.items() if v)
        self.seg = None

    def zero_state(self):
        """The start node: every state variable and map cell is 0."""
        self.complete = True
        ctx = self.ctx
        for name, type_ in self.run.program.state_vars:
            term = self.state_term(name, self.live(name), type_)
            self.define(term, _lit(ctx, 0, type_) if type_.is_scalar
                        else ctx.const_array(term.sort, ctx.const(0, 256)))

    def apply_instr(self, node, succ):
        ins = node.instr
        kind = ins.kind
        ctx = self.ctx
        if kind in BRANCH_KINDS:
            cond = self.read(ins.args[0])
            t_succ, f_succ = self.run.graph.branch[node.id]
            if succ == t_succ:
                self.assume(cond)
            elif succ == f_succ:
                self.assume(ctx.mk("not", cond))
            else:
                raise EncodeError("walk leaves condition node %d without "
                                  "taking a branch" % node.id)
            return
        if kind == "assign":
            dest = self.write(ins.dest)
            src = ins.args[0]
            if ins.dest.type_.is_numeric or ins.dest.type_.kind == "address":
                src = _conv(ctx, self.read(src), ins.dest.type_.bit_width)
            else:
                src = self.read(src)
            self.define(dest, src)
            return
        if kind == "binary":
            dest = self.write(ins.dest)
            a, b = self.read(ins.args[0]), self.read(ins.args[1])
            self.define(dest, ctx.checked(_OPS[ins.op], a, b))
            return
        if kind == "unary":
            dest = self.write(ins.dest)
            self.define(dest, ctx.mk("not", self.read(ins.args[0])))
            return
        if kind == "index_read":
            dest = self.write(ins.dest)
            key = self.read(ins.args[0])
            array = self.state_term(ins.map, self.live(ins.map),
                                    self.run.types[ins.map])
            self.define(dest, ctx.checked("select", array, key))
            return
        if kind == "index_write":
            type_ = self.run.types[ins.map]
            after = self.write_state(ins.map, type_)
            before = self.state_term(ins.map, self.cur[ins.map], type_)
            key = self.read(ins.args[0])
            val = self.read(ins.args[1])
            self.define(after, ctx.checked("store", before, key, val))
            return
        if kind in ("return", "revert_sink"):
            return
        if kind == "call":
            raise EncodeError("call instruction in a walk; inline first")
        raise EncodeError("cannot encode instruction kind %r" % kind)


def _symbols(terms, symbols=None):
    """The free symbols (name -> var term) of `terms`, in first-occurrence
    order."""
    symbols = {} if symbols is None else symbols
    seen = set()
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.op == "var":
            symbols.setdefault(t.val, t)
        stack.extend(reversed(t.args))
    return symbols


class SsaScript:
    """A numbered walk.  Its clause list is assembled on demand from the
    numbering: the frontier's moving clauses, then each numbered node's
    clauses from the frontier to the root, which is execution order."""

    def __init__(self, numbering):
        self.numbering = numbering

    @property
    def ctx(self):
        return self.numbering.run.ctx

    @property
    def complete(self):
        return self.numbering.complete

    @cached_property
    def moving(self):
        return self.numbering.moving()[0]

    @property
    def frontier_end(self):
        """How many clauses the frontier contributes: the moving ones and
        the last numbered node's."""
        link = self.numbering.link
        return len(self.moving) + (len(link.clauses) if link else 0)

    def links(self):
        """The numbered nodes' links, frontier first."""
        link = self.numbering.link
        while link is not None:
            yield link
            link = link.parent

    @cached_property
    def _assembled(self):
        clauses = list(self.moving)
        symbols = _symbols(clauses)
        for link in self.links():
            clauses.extend(link.clauses)
            for term in link.decls:
                symbols.setdefault(term.val, term)
        return clauses, symbols

    @property
    def clauses(self):
        return self._assembled[0]

    @property
    def symbols(self):
        return self._assembled[1]

    @cached_property
    def transactions(self):
        """The walk's transaction segments, in execution order."""
        n = self.numbering
        out = [] if n.seg is None \
            else [n.seg.tx(n.run.fn_params(n.seg.fn), partial=True)]
        out.extend(link.tx for link in self.links() if link.tx is not None)
        return out


def ssa_number(walk, program, graph=None, ctx=None):
    """Number a walk into an SsaScript, resuming from the numbering of a
    prefix the walk carries (``walk.numbered``) if any, else from the walk
    root in `ctx` (a fresh ``Ctx`` by default).  The graph defaults to the
    one the walk was found on (walks carry it)."""
    graph = graph if graph is not None else walk.graph
    if graph is None:
        raise EncodeError("walk carries no graph")
    numbering = walk.numbered
    if numbering is None:
        numbering = Numbering.empty(program, graph,
                                    ctx if ctx is not None
                                    else smt_terms.Ctx())
    for node_id in walk.nodes[numbering.length:]:
        numbering = numbering.step(node_id)
    return SsaScript(numbering)


# ---------------------------------------------------------------------------
# Safety resolution at the target point
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ResolvedSafety:
    """A safety condition resolved at a target point: its term, the
    symbols the term mentions, and the locals it reads that are not
    parameters, as (slot, name)."""
    expr: object
    target: TargetPoint
    term: object
    symbols: dict
    reads: list


def resolve_safety(script, safety, program):
    """The safety condition resolved over the versions live at the target
    point (a ``ResolvedSafety``, kept by the run for the next check).  It
    may read a local only if the target's segment defines it before the
    target, unless that segment is still open."""
    n = script.numbering
    tp = n.target
    if tp is None:
        raise EncodeError("walk never reaches the target line")
    run = n.run
    out = run.safety
    if out is None or out.expr is not safety or out.target is not tp:
        params = {p for p, _ in run.fn_params(tp.fn)}
        reads = []
        term = _resolve(run, safety, tp, params, reads)
        out = run.safety = ResolvedSafety(safety, tp, term, _symbols([term]),
                                          reads)
    if n.written0 is not None:
        for slot, name in out.reads:
            if slot not in n.written0:
                raise EncodeError("safety reads local %r before its "
                                  "definition" % name)
    return out


def _resolve(run, e, tp, params, reads):
    """The term of safety expression `e` at target point `tp`; the locals
    it reads that are not parameters go to `reads`."""
    ctx = run.ctx
    if isinstance(e, IntLit):
        return _lit(ctx, e.value, e.type_ if e.type_ is not None else U256)
    if isinstance(e, BoolLit):
        return ctx.cbool(e.value)
    if isinstance(e, AddressLit):
        return _lit(ctx, e.index, ADDRESS)
    if isinstance(e, EnvRead):
        return ctx.var("%s!t0" % e.which, _sort(e.type_))
    if isinstance(e, Ident):
        if e.binding == "state":
            return ctx.var("%s!0" % e.name, _sort(e.type_))
        slot = e.slot + tp.inline_suffix
        if e.binding != "param" and slot not in params:
            reads.append((slot, e.name))
        return ctx.var("%s!t0!0" % slot, _sort(e.type_))
    if isinstance(e, Index):
        name = e.base.name
        key = _conv(ctx, _resolve(run, e.index, tp, params, reads),
                    _key_type(run.types[name]).bit_width)
        return ctx.checked("select", ctx.var("%s!0" % name, run.sorts[name]),
                           key)
    if isinstance(e, Unary):
        return ctx.mk("not", _resolve(run, e.operand, tp, params, reads))
    if isinstance(e, Binary):
        a = _resolve(run, e.lhs, tp, params, reads)
        b = _resolve(run, e.rhs, tp, params, reads)
        if e.op in ("&&", "||") or a.sort == smt_terms.BOOL \
                or _ADDRESS_SORT in (a.sort, b.sort):
            return ctx.checked(_OPS[e.op], a, b)
        width = getattr(e, "width", 256)
        return ctx.checked(_OPS[e.op], _conv(ctx, a, width),
                           _conv(ctx, b, width))
    raise EncodeError("unsupported expression in safety condition: %r" % e)


# ---------------------------------------------------------------------------
# The frontier's clauses, when they decide an extension alone
# ---------------------------------------------------------------------------

@dataclass
class FrontierScript:
    """The frontier's clauses as a script of their own."""
    ctx: smt_terms.Ctx
    clauses: list
    symbols: dict


def frontier_script(script, safety=None, program=None):
    """The frontier's clauses (the moving ones and the last numbered
    node's) as a script of their own, or None when they mention a symbol
    that the walk's other clauses or the resolved safety condition
    mention.

    Map generations are symbols like any other.  The safety condition is
    resolved only once the clauses pass; a walk it cannot be resolved on
    raises here, or in `encode` when None sends the check to a full
    solve."""
    n = script.numbering
    if n.front_shared:
        return None
    clauses = list(script.moving) + list(n.link.clauses)
    symbols = _symbols(clauses)
    if safety is not None and not resolve_safety(
            script, safety, program).symbols.keys().isdisjoint(symbols):
        return None
    return FrontierScript(script.ctx, clauses, symbols)


SHAPE_LIMIT = 8                    # assertions of a script keyed by shape


def answer_key(asserts):
    """What a run keys an incomplete walk's answer on: a script of at most
    SHAPE_LIMIT assertions on its shape, any other on its very terms.

    Frontier scripts and the whole scripts of short walks are that small,
    and repeat one another up to a renaming of their symbols: a frontier
    script often has the shape of an earlier short walk's.  A long script
    is a whole walk's; its shape costs time and memory in proportion to
    the walk, and its repeats are mostly term for term.  On the benchmark,
    every limit from 3 to 8 finds the same repeats, and shaping every
    script finds a few more but makes the long workloads 16-26% slower."""
    if len(asserts) <= SHAPE_LIMIT:
        return clause_shape(asserts)
    return tuple(asserts)


def clause_shape(clauses):
    """`clauses` up to a consistent renaming of their symbols, sorts kept.  Two clause lists of one shape are renamings of
    each other, so one is satisfiable exactly when the other is."""
    names, memo = {}, {}
    return tuple(_shape(c, names, memo) for c in clauses)


def _shape(t, names, memo):
    """The shape of term `t`: symbols numbered in order of first occurrence
    (`names`), shared subterms shaped once (`memo`)."""
    out = memo.get(id(t))
    if out is not None:
        return out
    if t.op == "var":
        out = ("var", names.setdefault(t.val, len(names)), t.sort)
    else:
        out = (t.op, t.val) + tuple(_shape(a, names, memo) for a in t.args)
    memo[id(t)] = out
    return out


# ---------------------------------------------------------------------------
# Solver input
# ---------------------------------------------------------------------------

@dataclass
class SmtScript:
    """One check's solver input: the terms ``smt.solve_commands`` reads, in
    the ``Ctx`` they were built in, and the symbols the model must value,
    one per get-value answer position.  ``text`` is the same script as
    SMT-LIB 2, rendered on first use."""
    ctx: smt_terms.Ctx
    commands: Script
    manifest: list                 # (scalar symbol, sort) in declaration order

    @cached_property
    def text(self):
        return smt_terms.print_script(self.commands)


@dataclass
class Model:
    values: dict                   # symbol -> int (bools as 0/1)

    def __getitem__(self, sym):
        return self.values[sym]


def encode(script, safety=None, program=None) -> SmtScript:
    """The solver input for a numbered walk or a frontier script, plus the
    optional safety condition, in the context its clauses were built in.
    Deterministic: identical walks render byte-identically."""
    asserts = list(script.clauses)
    symbols = dict(script.symbols)
    if safety is not None:
        if program is None:
            raise EncodeError("safety resolution needs the program")
        safe = resolve_safety(script, safety, program)
        asserts.append(safe.term)
        # the safety condition can read versions no clause mentions
        for name, term in safe.symbols.items():
            symbols.setdefault(name, term)
    decls = {name: term.sort for name, term in symbols.items()}
    manifest = [(name, sort) for name, sort in decls.items()
                if sort[0] != "array"]
    commands = Script(decls=decls, asserts=asserts,
                      queries=[symbols[name] for name, _sort in manifest],
                      query_texts=[name for name, _sort in manifest],
                      has_check=True)
    return SmtScript(script.ctx, commands, manifest)


# ---------------------------------------------------------------------------
# Solver invocation
# ---------------------------------------------------------------------------

@dataclass
class SatResult:
    status: str                    # 'sat' | 'unsat' | 'unknown'
    model: Optional[Model] = None
    reason: str = ""
    # the checked walk's ``Numbering``, for the checks of its extensions
    numbering: Optional[object] = None


@dataclass
class SolverConfig:
    command: Optional[str] = None  # None = run the bundled solver in process
    emit_dir: Optional[str] = None


class SolverSession:
    """One exploration's solver channel; counts every submission and
    optionally dumps each script as a numbered .smt2 file."""

    def __init__(self, config: SolverConfig = None):
        self.config = config or SolverConfig()
        self.n_submissions = 0

    def check(self, smt_script: SmtScript, deadline=None) -> SatResult:
        """Decide one script.  The solver, bundled or external, gives up
        with ``unknown`` (reason ``deadline``) once ``time.monotonic()``
        passes `deadline`."""
        self.n_submissions += 1
        if self.config.emit_dir:
            import os
            path = os.path.join(self.config.emit_dir,
                                "%06d.smt2" % self.n_submissions)
            with open(path, "w") as fh:
                fh.write(smt_script.text)
        if self.config.command is None:
            return self._solve(smt_script, deadline)
        return self._run(smt_script, deadline)

    def _solve(self, smt_script, deadline):
        """The bundled solver, in process, on the script's terms."""
        commands = smt_script.commands
        try:
            result = smt.solve.solve_commands(
                smt_script.ctx, commands, smt.solve.DEFAULT_CONFLICT_BUDGET,
                deadline)
        except smt.SmtUnknown as exc:
            return SatResult("unknown", reason=str(exc))
        except smt.SmtError as exc:
            raise SolverError("crash", str(exc)) from exc
        if result.status != "sat":
            return SatResult(result.status, reason=result.reason)
        return SatResult("sat", Model(
            {sym: int(v) for sym, v in zip(commands.query_texts,
                                           result.values)}))

    def _run(self, smt_script, deadline):
        """The external solver, as a process given the time left."""
        argv = shlex.split(self.config.command)
        timeout = None if deadline is None \
            else max(0.0, deadline - time.monotonic())
        try:
            proc = subprocess.run(argv, input=smt_script.text,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except FileNotFoundError as exc:
            raise SolverError("missing", "solver executable %r not found"
                              % argv[0]) from exc
        except subprocess.TimeoutExpired:
            return SatResult("unknown", reason="deadline")
        output = proc.stdout
        if not output.strip():
            raise SolverError("crash", "no output (exit %d): %s"
                              % (proc.returncode, proc.stderr[:500]))
        return parse_solver_output(output, smt_script)


def bundled_solver_command():
    """Command line that runs the bundled solver as an external process."""
    return "%s -m minisol.smt" % shlex.quote(sys.executable)


def parse_solver_output(output, smt_script) -> SatResult:
    head, _, rest = output.strip().partition("\n")
    head = head.strip()
    if head == "unsat":
        return SatResult("unsat")
    if head == "unknown":
        return SatResult("unknown", reason=rest.strip())
    if head != "sat":
        raise SolverError("malformed", "unrecognized solver output %r"
                          % output[:200])
    values = {}
    manifest = smt_script.manifest
    if manifest:
        try:
            forms = read_sexprs(smt_tokenize(rest))
        except smt.SmtError as exc:
            raise SolverError("malformed", "cannot parse model: %s"
                              % exc) from exc
        pairs = []
        for form in forms:
            if isinstance(form, list):
                pairs.extend(p for p in form if isinstance(p, list))
        if len(pairs) != len(manifest):
            raise SolverError("malformed",
                              "expected %d model values, got %d"
                              % (len(manifest), len(pairs)))
        for (sym, _sort), pair in zip(manifest, pairs):
            values[sym] = _parse_value(pair[-1])
    return SatResult("sat", Model(values))


def _parse_value(sexp):
    if isinstance(sexp, list):
        if len(sexp) == 3 and sexp[0] == "_" and sexp[1].startswith("bv"):
            return int(sexp[1][2:])
        raise SolverError("malformed", "bad model value %r" % (sexp,))
    if sexp == "true":
        return 1
    if sexp == "false":
        return 0
    if sexp.startswith("#x"):
        return int(sexp[2:], 16)
    if sexp.startswith("#b"):
        return int(sexp[2:], 2)
    if sexp.isdigit():
        return int(sexp)
    raise SolverError("malformed", "bad model value %r" % (sexp,))
