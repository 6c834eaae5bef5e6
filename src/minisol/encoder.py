"""Walks to constraints: SSA numbering, solver terms, solver access.

``ssa_number`` numbers a walk backward, from its root (the target point)
toward its frontier, one node per step (``Numbering.step``), and builds
each node's clauses as ``smt`` terms straight into the run's ``Ctx``.  The
versions live at the target point are fixed: state variable ``x`` is
``x!0``, mapping ``m`` is the array ``m!0``, and the target's
transaction is segment ``t0``.  A target's safety condition is the
root's one clause, over those versions, before the target instruction's
own effect; the replay oracle mirrors this by stopping at the first arrival
that satisfies the condition.  A write defines the version live after it
and leaves a fresh one live before it; each earlier transaction gets the
next segment index.  A node's names therefore depend only on the walk from
the target to it, and a numbered node's clauses never change: a one-node
extension's clauses are its parent's, term for term, plus the new node's.
A walk carries the check result of its nearest checked prefix
(``Walk.prefix``, a ``SatResult``), and ``ssa_number`` numbers only the
nodes after that result's numbering.  A run numbers a node once per
numbering state (``Numbering.step``), however many walks reach it.  Locals
and the transaction environment belong to their segment; a local read with
no earlier write in a complete segment is an error, found when the
backward walk reaches the entry, and so is a safety condition that reads a
local the target's segment defines only after the target.

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

Scalars are fixed-width bitvectors and each mapping generation ``m!g`` is
an SMT-LIB array variable (QF_ABV): a write is the one clause
``(= m!g (store m!h key val))``, zero-initialization equates the
generation with a constant array of zeros, a reverting segment's link
equates two generations, and a read is ``(select m!g key)``.  Map
generations are symbols like any other; only the scalar ones are
queried for a model.  ``encode`` assembles one check's script: the
frontier's moving clauses, then the walk's clause chain, which ends in the
root's.

The bundled solver reads those terms in process; a check that needs only
sat or unsat reads its assertions alone.  A script's symbol table, and the
declarations and queries built from it, are assembled only for a model or
for SMT-LIB 2 text (``smt.parse.Script.text``), which is rendered only
when something reads it: the ``--emit-smt`` dumps and an external
``--solver-cmd`` process, whose answer ``parse_solver_output`` reads
back, refusing any value that answers no query of its sort.
"""

from __future__ import annotations

import shlex
import subprocess
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
from .smt.solve import SatResult

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


# ---------------------------------------------------------------------------
# Backward numbering
# ---------------------------------------------------------------------------

class _Run:
    """What every numbering of one walk tree shares: the term context, the
    program and graph, caches over them (among them each segment index's
    environment, ``env``), the locals the safety condition reads that are
    not parameters, as (slot, name), which the root step sets, and the
    step memo that ``Numbering.step`` keeps."""

    def __init__(self, ctx, program, graph):
        self.ctx = ctx
        self.program = program
        self.graph = graph
        self.types = dict(program.state_vars)
        self.sorts = {name: _sort(type_) for name, type_ in self.types.items()}
        self.params = {}               # function name -> its parameters
        self.envs = {}                 # segment index -> ``env(index)``
        self.safety_reads = ()
        self.states = {}               # numbering state -> its number
        self.steps = {}                # (state number, node) -> step outputs

    def fn_params(self, fn_name):
        params = self.params.get(fn_name)
        if params is None:
            fn = self.program.function(fn_name)
            params = self.params[fn_name] = tuple(fn.params) if fn else ()
        return params

    def env(self, index):
        """Segment `index`'s environment (name -> var term), its two
        account clauses (finite account universe; single-contract world:
        origin == sender) and its symbols' declarations (symbol -> var
        term).  Built once per run and shared by every segment of the
        index, so none is ever mutated."""
        out = self.envs.get(index)
        if out is None:
            ctx = self.ctx
            env = {which: ctx.var("%s!t%d" % (which, index),
                                  _sort(ENV_TYPES.get(which, U256)))
                   for which in _ENV}
            sender = env["msg.sender"]
            out = self.envs[index] = (env, (
                ctx.checked("bvule", sender,
                            ctx.const(NUM_ACCOUNTS - 1, ADDRESS.bit_width)),
                ctx.checked("=", env["tx.origin"], sender)),
                {term.val: term for term in env.values()})
        return out

    def number(self, n):
        """The number of `n`'s state: its last node, segment count and
        live versions, and its open segment's marks, locals and saved
        versions, each table of versions sorted by name.  The segment's
        index (``nseg - 1``) and function (the last node's) follow, and a
        complete `n` is never stepped."""
        seg = n.seg
        if seg is not None:
            saved = seg.saved
            saved = saved if saved is None else tuple(sorted(saved.items()))
            seg = seg.marks, *sorted(seg.locals.items()), saved
        key = n.node, n.nseg, *sorted(n.cur.items()), seg
        return self.states.setdefault(key, len(self.states))

    def link(self, cur, saved):
        """A reverting segment's link: for every state variable and mapping
        whose live version `cur` differs from the one live after the
        segment (`saved`), the clause equating them."""
        ctx = self.ctx
        out = []
        for name, sort in self.sorts.items():
            inside, after = cur.get(name, 0), saved.get(name, 0)
            if inside == after:
                continue
            a = ctx.var("%s!%d" % (name, after), sort)
            c = ctx.var("%s!%d" % (name, inside), sort)
            out.append(ctx.mk("=", a, c))
        return out


class _Link:
    """The persistent part of one numbered node: its clauses in execution
    order, the symbols it declares, the symbol it defines, the transaction
    its entry completes, the link of the node after it in execution order,
    and the clause chain of the walk up to it (its clauses on its
    parent's)."""
    __slots__ = ("parent", "clauses", "decls", "defined", "tx", "chain")

    def __init__(self, parent, clauses, decls, defined, tx, ctx):
        self.parent = parent
        self.clauses = clauses
        self.decls = decls
        self.defined = defined
        self.tx = tx
        self.chain = ctx.chained(clauses, parent and parent.chain)


class _Seg:
    """The transaction segment the frontier is in: its index, function and
    environment, the version of every local it has touched, the live local
    symbols its clauses read (`marks`), and, for a reverting segment, the
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
    every part it leaves unchanged.  `cur` maps each state variable and
    mapping to its live version, which is also its highest: versions only
    grow toward the frontier.  `state` is the run's number for what a step
    from it reads (``_Run.number``)."""
    __slots__ = ("run", "link", "length", "node", "cur", "nseg", "seg",
                 "complete", "state")

    @classmethod
    def empty(cls, program, graph, ctx):
        n = cls()
        n.run = _Run(ctx, program, graph)
        n.link = None
        n.length = 0
        n.node = None
        n.cur = {}
        n.nseg = 0
        n.seg = None
        n.complete = False
        n.state = None
        return n

    def step(self, node_id, safety=None):
        """The numbering of the walk extended by `node_id`, which executes
        just before the nodes numbered so far.  The root step asserts
        `safety`, when given, at the root; later steps ignore it.

        The run keeps each later step's outputs on (state number, node),
        and a step from an equal state builds only the numbering and a link
        on its own parent's.  A step that raises is not kept."""
        if self.length == 0:
            return _Step(self, node_id).result(safety)
        run, key = self.run, (self.state, node_id)
        out = run.steps.get(key)
        if out is None:
            n = _Step(self, node_id).result(None)
            link = n.link
            run.steps[key] = (n.state, n.cur, n.nseg, n.seg, n.complete,
                              link.clauses, link.decls, link.defined, link.tx)
            return n
        n = Numbering()
        n.run, n.length, n.node = run, self.length + 1, node_id
        n.state, n.cur, n.nseg, n.seg, n.complete, *made = out
        n.link = _Link(self.link, *made, run.ctx)
        return n

    def moving(self):
        """The clauses that move with the frontier: the open segment's
        account clauses and, if it reverts, its link."""
        seg = self.seg
        if seg is None:
            return []
        clauses = list(seg.env_clauses)
        if seg.saved is not None:
            clauses += self.run.link(self.cur, seg.saved)
        return clauses


class _Step:
    """Numbers one node onto a parent numbering, copying each part of the
    parent's state it changes."""

    def __init__(self, parent, node_id):
        self.parent = parent
        self.run = parent.run
        self.ctx = parent.run.ctx
        self.node_id = node_id
        self.node = parent.run.graph.node(node_id)
        self.cur, self.seg = parent.cur, parent.seg
        self.nseg = parent.nseg
        self.complete = parent.complete
        self.clauses = []
        self.decls = {}                # name -> var term
        self.defined = None
        self.tx = None
        self.seg_mentioned = set()     # local symbols

    # -- symbols ---------------------------------------------------------------

    def declare(self, name, type_):
        term = self.ctx.var(name, _sort(type_))
        self.decls.setdefault(name, term)
        return term

    def state_term(self, name, ver, type_):
        return self.declare("%s!%d" % (name, ver), type_)

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
        if self.cur is self.parent.cur:
            self.cur = dict(self.cur)
        ver = self.cur[name] = self.cur.get(name, 0) + 1
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
            return self.seg.env[op.name]
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
        self.set_local(op.name, ver + 1)
        self.defined = term.val
        return term

    def write_state(self, name, type_):
        """The version of state variable or mapping `name` defined here; an
        earlier one is live now."""
        term = self.state_term(name, self.live(name), type_)
        self.bump(name)
        self.defined = term.val
        return term

    def assume(self, term):
        self.clauses.append(self.ctx.checked("assert", term))

    def define(self, sym, term):
        self.clauses.append(self.ctx.mk("=", sym, term))

    # -- the step --------------------------------------------------------------

    def result(self, safety):
        node = self.node
        parent = self.parent
        if node.fn is not None and self.seg is None:
            self.open_segment(node)
        if parent.length == 0 and safety is not None:
            self.assume_safety(node, safety)
        if node.kind == "instr":
            if parent.length > 0:
                self.apply_instr(node, parent.node)
        elif node.kind == "entry":
            self.close_segment()
        elif node.kind == "start":
            self.zero_state()

        n = Numbering()
        n.run, n.length, n.node = self.run, parent.length + 1, self.node_id
        n.cur, n.nseg, n.seg = self.cur, self.nseg, self.seg
        n.complete = self.complete
        n.link = _Link(parent.link, tuple(self.clauses),
                       tuple(self.decls.values()), self.defined, self.tx,
                       self.ctx)
        if n.seg is not None and self.seg_mentioned:
            seg = self.own_seg()
            seg.marks = seg.marks | self.seg_mentioned
            n.seg = seg
        n.state = self.run.number(n)
        return n

    def assume_safety(self, node, safety):
        """The walk root is the target node: the safety condition holds
        over the versions live there, before its effect, and its symbols
        are the root's."""
        if node.kind != "instr":
            raise EncodeError("walk never reaches the target line")
        params = {p for p, _ in self.run.fn_params(node.fn)}
        reads = []
        term = _resolve(self.run, safety, node.instr.inline_suffix, params,
                        reads)
        self.run.safety_reads = tuple(reads)
        self.assume(term)
        _symbols([term], self.decls)

    def open_segment(self, node):
        """The backward walk enters a transaction at its last node; it
        reverts when that node is a revert sink (reached from
        tx_processed).  The segment's environment and account clauses are
        its index's, built once per run (``_Run.env``); the step declares
        the environment's symbols first, in their order."""
        index = self.nseg
        self.nseg += 1
        seg = self.seg = _Seg()
        seg.index, seg.fn = index, node.fn
        seg.env, seg.env_clauses, decls = self.run.env(index)
        self.decls.update(decls)
        seg.locals = {}
        seg.marks = frozenset()
        seg.saved = self.cur if node.is_revert_sink \
            and self.parent.length > 0 else None

    def close_segment(self):
        """The backward walk reaches the segment's entry: its moving
        clauses become the entry's, and its parameters are its inputs.
        The target's segment must define every local the safety condition
        reads before the target."""
        seg = self.seg
        params = self.run.fn_params(seg.fn)
        names = {p for p, _ in params}
        for slot, ver in seg.locals.items():
            if slot not in names and \
                    "%s!t%d!%d" % (slot, seg.index, ver) in seg.marks:
                raise EncodeError("local %r read before any write on the "
                                  "walk" % slot)
        if seg.index == 0:
            for slot, name in self.run.safety_reads:
                if not seg.locals.get(slot):
                    raise EncodeError("safety reads local %r before its "
                                      "definition" % name)
        self.clauses.extend(seg.env_clauses)
        if seg.saved is not None:
            link = self.run.link(self.cur, seg.saved)
            self.clauses.extend(link)
            _symbols(link, self.decls)
        self.tx = seg.tx(params, partial=False)
        for (_, sym), (_, type_) in zip(self.tx.params, params):
            self.declare(sym, type_)
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
    order (``Term.free``)."""
    symbols = {} if symbols is None else symbols
    for term in terms:
        for var in term.free:
            symbols.setdefault(var.val, var)
    return symbols


class SsaScript:
    """A numbered walk.  Its clauses are the frontier's moving clauses,
    then each numbered node's clauses from the frontier to the root, which
    is execution order: `moving` on the numbered nodes' `chain`.  Its
    symbol table is assembled apart, on its first read."""

    def __init__(self, numbering):
        self.numbering = numbering
        self.moving = numbering.moving()

    @property
    def ctx(self):
        return self.numbering.run.ctx

    @property
    def complete(self):
        return self.numbering.complete

    @property
    def chain(self):
        return self.numbering.link and self.numbering.link.chain

    @property
    def clause_chain(self):
        """All the walk's clauses as one chain: equal clause sequences are
        one object, wherever their node boundaries fall."""
        return self.ctx.chained(self.moving, self.chain)

    def links(self):
        """The numbered nodes' links, frontier first."""
        link = self.numbering.link
        while link is not None:
            yield link
            link = link.parent

    @cached_property
    def clauses(self):
        return list(self.clause_chain or ())

    @cached_property
    def symbols(self):
        """Name -> var term of every symbol the walk declares, in
        declaration order."""
        symbols = _symbols(self.moving)
        for link in self.links():
            for term in link.decls:
                symbols.setdefault(term.val, term)
        return symbols

    @cached_property
    def transactions(self):
        """The walk's transaction segments, in execution order."""
        n = self.numbering
        out = [] if n.seg is None \
            else [n.seg.tx(n.run.fn_params(n.seg.fn), partial=True)]
        out.extend(link.tx for link in self.links() if link.tx is not None)
        return out


def ssa_number(walk, program, ctx=None, safety=None):
    """Number a walk into an SsaScript, resuming from the numbering of the
    prefix result the walk carries (``walk.prefix``) if it has one, else
    from the walk root in `ctx` (a fresh ``Ctx`` by default), on the graph
    the walk was found on.  Numbered from the root, the root asserts the
    safety condition `safety` (a resumed numbering has its prefix's)."""
    numbering = walk.prefix.numbering if walk.prefix is not None else None
    if numbering is None:
        numbering = Numbering.empty(program, walk.graph,
                                    ctx if ctx is not None
                                    else smt_terms.Ctx())
    for node_id in walk.nodes_after(numbering.length):
        numbering = numbering.step(node_id, safety)
    return SsaScript(numbering)


def _resolve(run, e, suffix, params, reads):
    """The term of safety expression `e` at the walk root, whose locals
    carry inline suffix `suffix`; the locals it reads that are not
    parameters go to `reads`."""
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
        slot = e.slot + suffix
        if e.binding != "param" and slot not in params:
            reads.append((slot, e.name))
        return ctx.var("%s!t0!0" % slot, _sort(e.type_))
    if isinstance(e, Index):
        name = e.base.name
        key = _conv(ctx, _resolve(run, e.index, suffix, params, reads),
                    _key_type(run.types[name]).bit_width)
        return ctx.checked("select", ctx.var("%s!0" % name, run.sorts[name]),
                           key)
    if isinstance(e, Unary):
        return ctx.mk("not", _resolve(run, e.operand, suffix, params, reads))
    if isinstance(e, Binary):
        a = _resolve(run, e.lhs, suffix, params, reads)
        b = _resolve(run, e.rhs, suffix, params, reads)
        if e.op in ("&&", "||") or a.sort == smt_terms.BOOL \
                or _ADDRESS_SORT in (a.sort, b.sort):
            return ctx.checked(_OPS[e.op], a, b)
        width = getattr(e, "width", 256)
        return ctx.checked(_OPS[e.op], _conv(ctx, a, width),
                           _conv(ctx, b, width))
    raise EncodeError("unsupported expression in safety condition: %r" % e)


# ---------------------------------------------------------------------------
# Solver input
# ---------------------------------------------------------------------------

def encode(script) -> Script:
    """The solver input for a numbered walk, in the context its clauses
    were built in.  Deterministic: identical walks render
    byte-identically."""
    return Script(script.ctx, script.moving, script.chain,
                  lambda: script.symbols)


# ---------------------------------------------------------------------------
# Solver invocation
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    command: Optional[str] = None  # None = run the bundled solver in process
    emit_dir: Optional[str] = None


class SolverSession:
    """One exploration's solver channel; counts every submission and
    optionally dumps each script as a numbered .smt2 file.  It owns the
    run's term context (`terms`), which every numbering of the run builds
    its clauses in, and the run's answer table (`answers`: an incomplete
    walk's ``SsaScript.clause_chain`` -> sat | unsat)."""

    def __init__(self, config: SolverConfig = None):
        self.config = config or SolverConfig()
        self.n_submissions = 0
        self.terms = smt_terms.Ctx()
        self.answers = {}

    def check(self, smt_script: Script, deadline=None, base=None,
              model=True) -> SatResult:
        """Decide one script.  The solver, bundled or external, gives up
        with ``unknown`` (reason ``deadline``) once ``time.monotonic()``
        passes `deadline`.

        In process, the solve starts from `base`, the kept reduction of an
        earlier SAT script, when it can (see ``smt.solve.solve_commands``),
        and a SAT answer keeps its own (``SatResult.reduction``); a model
        is read only with `model`.  An external solver is given the whole
        script."""
        self.n_submissions += 1
        if self.config.emit_dir:
            import os
            path = os.path.join(self.config.emit_dir,
                                "%06d.smt2" % self.n_submissions)
            with open(path, "w") as fh:
                fh.write(smt_script.text)
        if self.config.command is None:
            return self._solve(smt_script, deadline, base, model)
        return self._run(smt_script, deadline)

    def _solve(self, smt_script, deadline, base, model):
        """The bundled solver, in process, on the script's terms; without
        a `model` it reads only the assertions."""
        try:
            return smt.solve.solve_commands(
                smt_script.ctx, smt_script,
                smt.solve.DEFAULT_CONFLICT_BUDGET, deadline, base, model)
        except smt.SmtUnknown as exc:
            return SatResult("unknown", reason=str(exc))
        except smt.SmtError as exc:
            raise SolverError("crash", str(exc)) from exc

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


def parse_solver_output(output, smt_script) -> SatResult:
    """An external solver's answer to `smt_script`.  On sat, the get-value
    answer holds one pair per query, in query order: each names its
    queried symbol, and its value fits that symbol's sort.  Anything else
    is a ``SolverError`` of kind ``malformed``."""
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
    if smt_script.queries:
        try:
            forms = read_sexprs(smt_tokenize(rest))
        except smt.SmtError as exc:
            raise SolverError("malformed", "cannot parse model: %s"
                              % exc) from exc
        pairs = []
        for form in forms:
            if isinstance(form, list):
                pairs.extend(p for p in form if isinstance(p, list))
        if len(pairs) != len(smt_script.queries):
            raise SolverError("malformed",
                              "expected %d model values, got %d"
                              % (len(smt_script.queries), len(pairs)))
        for sym, query, pair in zip(smt_script.query_texts,
                                    smt_script.queries, pairs):
            if len(pair) != 2 or pair[0] != sym:
                raise SolverError("malformed", "model pair %r does not "
                                  "answer the query of %s" % (pair, sym))
            values[sym] = _parse_value(pair[1], query.sort)
    return SatResult("sat", values)


_DIGITS = {2: "01", 10: "0123456789", 16: "0123456789abcdefABCDEF"}


def _number(text, base):
    """`text` read as an unsigned numeral in `base`; None if it is none."""
    if text and all(c in _DIGITS[base] for c in text):
        return int(text, base)
    return None


def _parse_value(sexp, sort):
    """The value `sexp` gives a symbol of `sort`, a Bool as 0/1."""
    value = None
    if sort == smt_terms.BOOL:
        if sexp in ("true", "false"):
            value = int(sexp == "true")
    else:
        if isinstance(sexp, str):
            base = {"#x": 16, "#b": 2}.get(sexp[:2], 10)
            value = _number(sexp if base == 10 else sexp[2:], base)
        elif len(sexp) == 3 and sexp[0] == "_" and sexp[2] == str(sort[1]) \
                and isinstance(sexp[1], str) and sexp[1].startswith("bv"):
            value = _number(sexp[1][2:], 10)
        if value is not None and value >> sort[1]:
            value = None
    if value is None:
        raise SolverError("malformed", "bad model value %r for sort %s"
                          % (sexp, smt_terms.print_sort(sort)))
    return value
