"""Walks to constraints: SSA numbering, solver terms, solver access.

``ssa_number`` reverses a walk into execution order and forward-numbers it:
state variables keep one version chain across the whole walk, locals and the
transaction environment restart per transaction, and mapping writes advance
a per-mapping generation.  Version 0 of anything is its value before the
walk's first write; the zero-initialization clauses (scalars = 0, all map
cells = 0) attach only when the walk contains the start node, so partial
walks leave their pre-state free and an UNSAT prefix can never become SAT
by extension.

A transaction segment that runs through a revert sink has its storage
versions rolled back at the tx_processed boundary: its path constraints
hold but its writes are discarded, matching EVM revert semantics.

The clauses of the walk's earliest node come first (``frontier_end``
counts them).  A one-node extension's other clauses are then its parent
walk's clauses renamed: segment indices shift up when the new node opens a
transaction, and the versions it writes shift up by one.
``frontier_script`` cuts the new node's clauses out as a script of their
own when they share no symbol with the rest or with the safety condition;
if the parent was SAT, they alone decide the extension.

``encode`` builds the clause list as ``smt`` terms in the ``Ctx`` it is
given (``synthesize`` passes one context for the whole run, so a term that
recurs across checks is built and folded once): scalars become fixed-width
bitvectors, mappings/arrays become one uninterpreted function per
generation, and each write emits the point update plus the quantified
one-key frame axiom.  The safety condition is conjoined over the versions
live at the walk root (the target point), before the target instruction's
own effect; the replay oracle mirrors this by stopping at the first arrival
that satisfies the condition.

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
                   SCALAR_TYPES, U256, Binary, BoolLit, AddressLit, EnvRead,
                   Ident, Index, IntLit, Unary)
from . import smt
from .smt import terms as smt_terms
from .smt.parse import Script, read_sexprs, tokenize as smt_tokenize

GAS = "gas"


# ---------------------------------------------------------------------------
# Clause expressions: small tagged tuples, type in the last slot
# ---------------------------------------------------------------------------

def e_sym(name, type_):
    return ("sym", name, type_)


def e_lit(value, type_):
    return ("lit", value, type_)


def e_bin(op, a, b, type_):
    return ("bin", op, a, b, type_)


def e_not(a):
    return ("not", a, BOOL)


def e_read(map_name, gen, key):
    return ("read", map_name, gen, key, U256)


def e_conv(a, to_type):
    from_w = expr_type(a).bit_width
    to_w = to_type.bit_width
    if a[0] == "lit":
        return e_lit(a[1] & ((1 << to_w) - 1), to_type)
    if from_w == to_w:
        return a
    if from_w < to_w:
        return ("zext", a, to_w - from_w, to_type)
    return ("trunc", a, to_w - 1, to_type)


def expr_type(e):
    return e[-1]


# Clause kinds: ('def', sym, type, expr, pos) | ('assume', expr, pos)
# | ('safety', expr, pos) | ('map_write', map, g_from, g_to, key, val, pos)
# | ('scalar_zero', sym, type, pos) | ('map_zero', map, pos)


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
    """Version environment captured at the first target-line arrival."""
    fn: str
    seg: int
    inline_suffix: str
    partial_seg: bool
    state: dict
    locals: dict
    maps: dict
    env: dict


@dataclass
class SsaScript:
    clauses: list = field(default_factory=list)
    symbols: dict = field(default_factory=dict)      # name -> MsType
    map_syms: list = field(default_factory=list)     # (map, gen) decl order
    transactions: list = field(default_factory=list)
    target_point: Optional[TargetPoint] = None
    complete: bool = False
    map_key_types: dict = field(default_factory=dict)
    frontier_end: int = 0          # clauses[:frontier_end] number position 0


class _Numberer:
    def __init__(self, walk, program, graph):
        self.walk = walk
        self.program = program
        self.graph = graph
        self.script = SsaScript()
        self.state_cur = {}
        self.state_high = {}
        self.map_cur = {}
        self.map_high = {}
        self.seg = -1
        self.seg_env = None
        self.seg_fn = None
        self.seg_partial = False
        self.seg_snapshot = None
        self.local_ver = {}
        self.fn_params = {}
        for name, type_ in program.state_vars:
            if type_.kind in ("mapping", "array"):
                self.script.map_key_types[name] = \
                    type_.key if type_.kind == "mapping" else U256

    # -- symbols ---------------------------------------------------------------

    def declare(self, name, type_):
        if name not in self.script.symbols:
            self.script.symbols[name] = type_

    def map_sym(self, map_name, gen):
        if (map_name, gen) not in self.script.map_syms:
            self.script.map_syms.append((map_name, gen))
        return gen

    def state_sym(self, name, ver, type_):
        sym = "%s!%d" % (name, ver)
        self.declare(sym, type_)
        return sym

    def local_sym(self, slot, ver, type_):
        sym = "%s!t%d!%d" % (slot, self.seg, ver)
        self.declare(sym, type_)
        return sym

    # -- segments ----------------------------------------------------------------

    def begin_segment(self, fn_name, partial):
        self.seg += 1
        self.seg_fn = fn_name
        self.seg_partial = partial
        self.local_ver = {}
        self.seg_snapshot = (dict(self.state_cur), dict(self.map_cur))
        env = {}
        for which in ENV_NAMES + (GAS,):
            sym = "%s!t%d" % (which, self.seg)
            self.declare(sym, ENV_TYPES.get(which, U256))
            env[which] = sym
        fn = self.program.function(fn_name)
        params = []
        if fn is not None:
            for pname, ptype in fn.params:
                params.append((pname, self.local_sym(pname, 0, ptype)))
        self.fn_params[self.seg] = {p for p, _ in (fn.params if fn else [])}
        tx = TxEnv(self.seg, fn_name, env["msg.sender"], env["msg.value"],
                   env["tx.origin"], env["block.timestamp"], env[GAS],
                   params, is_deployment=(fn_name == CONSTRUCTOR),
                   partial=partial)
        self.seg_env = tx
        self.script.transactions.append(tx)
        # finite account universe; single-contract world: origin == sender
        sender = e_sym(env["msg.sender"], ADDRESS)
        self.assume(e_bin("<=", sender,
                          e_lit(NUM_ACCOUNTS - 1, ADDRESS), BOOL), -1)
        self.assume(e_bin("==", e_sym(env["tx.origin"], ADDRESS), sender,
                          BOOL), -1)

    def end_segment(self):
        if self.seg_env is None:
            return
        if self.seg_env.aborted:
            self.state_cur, self.map_cur = self.seg_snapshot
        self.seg_env = None
        self.seg_fn = None

    # -- operands ---------------------------------------------------------------

    def read_operand(self, op):
        if op.kind == "lit":
            return e_lit(op.value, op.type_)
        if op.kind == "env":
            return e_sym(self.seg_env.__dict__[
                {"msg.sender": "sender", "msg.value": "value",
                 "tx.origin": "origin", "block.timestamp": "timestamp"}
                [op.name]], op.type_)
        if op.kind == "state":
            ver = self.state_cur.get(op.name, 0)
            return e_sym(self.state_sym(op.name, ver, op.type_), op.type_)
        # local or param
        ver = self.local_ver.get(op.name)
        if ver is None:
            if op.kind == "param" or op.name in self.fn_params.get(self.seg,
                                                                   set()):
                return e_sym(self.local_sym(op.name, 0, op.type_), op.type_)
            if self.seg_partial:
                return e_sym(self.local_sym(op.name, 0, op.type_), op.type_)
            raise EncodeError("local %r read before any write on the walk"
                              % op.name)
        return e_sym(self.local_sym(op.name, ver, op.type_), op.type_)

    def write_operand(self, op, pos):
        if op.kind == "state":
            ver = self.state_high.get(op.name, 0) + 1
            self.state_high[op.name] = ver
            self.state_cur[op.name] = ver
            return self.state_sym(op.name, ver, op.type_)
        ver = self.local_ver.get(op.name, 0) + 1
        self.local_ver[op.name] = ver
        return self.local_sym(op.name, ver, op.type_)

    def assume(self, expr, pos):
        self.script.clauses.append(("assume", expr, pos))

    def define(self, sym, type_, expr, pos):
        self.script.clauses.append(("def", sym, type_, expr, pos))

    # -- the pass -----------------------------------------------------------------

    def run(self):
        nodes = [self.graph.node(n) for n in reversed(self.walk.nodes)]
        self.script.complete = bool(nodes) and nodes[0].kind == "start"

        if self.script.complete:
            for name, type_ in self.program.state_vars:
                if type_.is_scalar:
                    sym = self.state_sym(name, 0, type_)
                    self.script.clauses.append(("scalar_zero", sym, type_, -1))
                else:
                    self.map_sym(name, 0)
                    self.script.clauses.append(("map_zero", name, -1))

        last = len(nodes) - 1
        for pos, node in enumerate(nodes):
            if pos == 0 and node.fn is not None and node.kind != "entry":
                self.begin_segment(node.fn, partial=True)
            if node.kind == "entry":
                self.begin_segment(node.fn, partial=False)
            elif node.kind == "tx_processed":
                self.end_segment()

            if node.kind == "instr":
                if node.instr.kind == "revert_sink" and self.seg_env is not None:
                    self.seg_env.aborted = True
                if pos == last:
                    # the walk root is the target node; the safety condition
                    # binds to the versions live here, before its effect
                    self.capture_target(node)

            if pos < last and node.kind == "instr":
                self.apply_instr(node, nodes[pos + 1], pos)
            if pos == 0:
                self.script.frontier_end = len(self.script.clauses)
        return self.script

    def capture_target(self, node):
        self.script.target_point = TargetPoint(
            fn=self.seg_fn, seg=self.seg,
            inline_suffix=node.instr.inline_suffix,
            partial_seg=self.seg_partial,
            state=dict(self.state_cur), locals=dict(self.local_ver),
            maps=dict(self.map_cur),
            env={"msg.sender": self.seg_env.sender,
                 "msg.value": self.seg_env.value,
                 "tx.origin": self.seg_env.origin,
                 "block.timestamp": self.seg_env.timestamp})

    def apply_instr(self, node, succ, pos):
        ins = node.instr
        kind = ins.kind
        if kind in BRANCH_KINDS:
            cond = self.read_operand(ins.args[0])
            t_succ, f_succ = self.graph.branch[node.id]
            if succ.id == t_succ:
                self.assume(cond, pos)
            elif succ.id == f_succ:
                self.assume(e_not(cond), pos)
            else:
                raise EncodeError("walk leaves condition node %d without "
                                  "taking a branch" % node.id)
            return
        if kind == "assign":
            src = e_conv(self.read_operand(ins.args[0]), ins.dest.type_) \
                if ins.dest.type_.is_numeric or ins.dest.type_.kind == "address" \
                else self.read_operand(ins.args[0])
            sym = self.write_operand(ins.dest, pos)
            self.define(sym, ins.dest.type_, src, pos)
            return
        if kind == "binary":
            a = self.read_operand(ins.args[0])
            b = self.read_operand(ins.args[1])
            sym = self.write_operand(ins.dest, pos)
            self.define(sym, ins.dest.type_,
                        e_bin(ins.op, a, b, ins.dest.type_), pos)
            return
        if kind == "unary":
            a = self.read_operand(ins.args[0])
            sym = self.write_operand(ins.dest, pos)
            self.define(sym, ins.dest.type_, e_not(a), pos)
            return
        if kind == "index_read":
            key = self.read_operand(ins.args[0])
            gen = self.map_cur.get(ins.map, 0)
            self.map_sym(ins.map, gen)
            sym = self.write_operand(ins.dest, pos)
            self.define(sym, ins.dest.type_, e_read(ins.map, gen, key), pos)
            return
        if kind == "index_write":
            key = self.read_operand(ins.args[0])
            val = self.read_operand(ins.args[1])
            g_from = self.map_cur.get(ins.map, 0)
            g_to = self.map_high.get(ins.map, 0) + 1
            self.map_sym(ins.map, g_from)
            self.map_sym(ins.map, g_to)
            self.map_high[ins.map] = g_to
            self.map_cur[ins.map] = g_to
            self.script.clauses.append(("map_write", ins.map, g_from, g_to,
                                        key, val, pos))
            return
        if kind in ("return", "revert_sink"):
            return
        if kind == "call":
            raise EncodeError("call instruction in a walk; inline first")
        raise EncodeError("cannot encode instruction kind %r" % kind)


def ssa_number(walk, program, graph=None):
    """Number a walk into an SsaScript.  The graph defaults to the one the
    walk was found on (walks carry it)."""
    graph = graph if graph is not None else walk.graph
    if graph is None:
        raise EncodeError("walk carries no graph")
    return _Numberer(walk, program, graph).run()


# ---------------------------------------------------------------------------
# Safety resolution at the target point
# ---------------------------------------------------------------------------

def resolve_safety(script, safety, program):
    tp = script.target_point
    if tp is None:
        raise EncodeError("walk never reaches the target line")
    fn = program.function(tp.fn)
    params = {p for p, _ in (fn.params if fn else [])}
    return _resolve(safety, tp, params, script.map_key_types)


def _resolve(e, tp, params, key_types):
    """The clause expression of safety expression `e` over the versions
    of target point `tp`."""
    if isinstance(e, IntLit):
        return e_lit(e.value, e.type_ if e.type_ is not None else U256)
    if isinstance(e, BoolLit):
        return e_lit(int(e.value), BOOL)
    if isinstance(e, AddressLit):
        return e_lit(e.index, ADDRESS)
    if isinstance(e, EnvRead):
        return e_sym(tp.env[e.which], e.type_)
    if isinstance(e, Ident):
        if e.binding == "state":
            ver = tp.state.get(e.name, 0)
            return e_sym("%s!%d" % (e.name, ver), e.type_)
        slot = e.slot + tp.inline_suffix
        ver = tp.locals.get(slot)
        if ver is None:
            if e.binding == "param" or slot in params or tp.partial_seg:
                ver = 0
            else:
                raise EncodeError("safety reads local %r before its "
                                  "definition" % e.name)
        return e_sym("%s!t%d!%d" % (slot, tp.seg, ver), e.type_)
    if isinstance(e, Index):
        gen = tp.maps.get(e.base.name, 0)
        key = e_conv(_resolve(e.index, tp, params, key_types),
                     key_types[e.base.name])
        return e_read(e.base.name, gen, key)
    if isinstance(e, Unary):
        return e_not(_resolve(e.operand, tp, params, key_types))
    if isinstance(e, Binary):
        a = _resolve(e.lhs, tp, params, key_types)
        b = _resolve(e.rhs, tp, params, key_types)
        if e.op in ("&&", "||") or expr_type(a) is BOOL:
            return e_bin(e.op, a, b, BOOL)
        if expr_type(a).kind == "address" or expr_type(b).kind == "address":
            return e_bin(e.op, a, b, BOOL)
        width = getattr(e, "width", 256)
        target = SCALAR_TYPES["uint%d" % width]
        a, b = e_conv(a, target), e_conv(b, target)
        result = BOOL if e.op in ("==", "!=", "<", "<=", ">", ">=") \
            else target
        return e_bin(e.op, a, b, result)
    raise EncodeError("unsupported expression in safety condition: %r" % e)


# ---------------------------------------------------------------------------
# The frontier node's clauses, when they decide an extension alone
# ---------------------------------------------------------------------------

def _expr_symbols(e, out):
    tag = e[0]
    if tag == "sym":
        out.add(e[1])
    elif tag == "bin":
        _expr_symbols(e[2], out)
        _expr_symbols(e[3], out)
    elif tag in ("not", "zext", "trunc"):
        _expr_symbols(e[1], out)
    elif tag == "read":
        out.add("%s!%d" % (e[1], e[2]))
        _expr_symbols(e[3], out)


def _clause_symbols(clause, out):
    """Add the symbols a clause mentions to `out`; map generations count
    as symbols named as their functions are (``m!g``)."""
    kind = clause[0]
    if kind == "def":
        out.add(clause[1])
        _expr_symbols(clause[3], out)
    elif kind == "assume":
        _expr_symbols(clause[1], out)
    elif kind == "map_write":
        _, map_name, g_from, g_to, key, val, _pos = clause
        out.add("%s!%d" % (map_name, g_from))
        out.add("%s!%d" % (map_name, g_to))
        _expr_symbols(key, out)
        _expr_symbols(val, out)
    elif kind == "scalar_zero":
        out.add(clause[1])
    elif kind == "map_zero":
        out.add("%s!0" % clause[1])


def frontier_script(script, safety=None, program=None):
    """The clauses of the frontier node (execution position 0) as a script
    of their own, or None when they share a symbol with the walk's other
    clauses or with the resolved safety condition.

    Map generations count as symbols.  The safety condition is resolved
    only once the clauses pass; a walk it cannot be resolved on raises
    here, or in `encode` when None sends the check to a full solve."""
    front = set()
    for clause in script.clauses[:script.frontier_end]:
        _clause_symbols(clause, front)
    syms = set()
    for clause in script.clauses[script.frontier_end:]:
        _clause_symbols(clause, syms)
        if not front.isdisjoint(syms):
            return None
        syms.clear()
    if safety is not None:
        _expr_symbols(resolve_safety(script, safety, program), syms)
        if not front.isdisjoint(syms):
            return None
    return SsaScript(
        clauses=script.clauses[:script.frontier_end],
        symbols={s: t for s, t in script.symbols.items() if s in front},
        map_syms=[(m, g) for m, g in script.map_syms
                  if "%s!%d" % (m, g) in front],
        map_key_types=script.map_key_types)


# ---------------------------------------------------------------------------
# Solver input: terms in a context that may serve a whole run
# ---------------------------------------------------------------------------

_OPS = {"+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvudiv",
        "%": "bvurem", "<": "bvult", "<=": "bvule", ">": "bvugt",
        ">=": "bvuge", "==": "=", "!=": "distinct", "&&": "and", "||": "or"}

_KEY = "%k"                        # the frame axioms' bound key


def _sort(type_):
    return smt_terms.BOOL if type_ is BOOL else smt_terms.bv(type_.bit_width)


@dataclass
class SmtScript:
    """One check's solver input: the terms ``smt.solve_commands`` reads, in
    the ``Ctx`` they were built in, and the typed symbols the model must
    value.  ``text`` is the same script as SMT-LIB 2, rendered on first
    use."""
    ctx: smt_terms.Ctx
    commands: Script
    manifest: list                 # (symbol, MsType) in declaration order

    @cached_property
    def text(self):
        return smt_terms.print_script(self.commands)

    @property
    def queries(self):
        """What each get-value answer position holds."""
        return [("sym", sym) for sym, _type in self.manifest]


@dataclass
class Model:
    values: dict                   # symbol -> int (bools as 0/1)

    def __getitem__(self, sym):
        return self.values[sym]


class _Terms:
    """Builds one script's terms in `ctx` from clause expressions, and
    collects the symbols and map functions they use."""

    def __init__(self, ctx, script):
        self.ctx = ctx
        self.key_types = script.map_key_types
        self.symbols = dict(script.symbols)
        self.funs = {}
        for map_name, gen in script.map_syms:
            self.fun(map_name, gen)

    def fun(self, map_name, gen):
        name = "%s!%d" % (map_name, gen)
        if name not in self.funs:
            self.funs[name] = (_sort(self.key_types[map_name]), _sort(U256))
        return name

    def lit(self, value, type_):
        if type_ is BOOL:
            return self.ctx.cbool(bool(value))
        return self.ctx.const(value, type_.bit_width)

    def var(self, name, type_):
        # the safety condition can reference pre-state versions no clause
        # declared; they are declared on first use
        return self.ctx.var(name, _sort(self.symbols.setdefault(name, type_)))

    def app(self, name, key):
        return self.ctx.checked("app", key, val=name, sig=self.funs[name])

    def term(self, e):
        tag = e[0]
        if tag == "sym":
            return self.var(e[1], e[2])
        if tag == "lit":
            return self.lit(e[1], e[2])
        ctx = self.ctx
        if tag == "not":
            return ctx.mk("not", self.term(e[1]))
        if tag == "zext":
            return ctx.mk("zero_extend", self.term(e[1]), val=e[2])
        if tag == "trunc":
            return ctx.mk("extract", self.term(e[1]), val=(e[2], 0))
        if tag == "read":
            return self.app(self.fun(e[1], e[2]), self.term(e[3]))
        if tag == "bin":
            return ctx.checked(_OPS[e[1]], self.term(e[2]), self.term(e[3]))
        raise EncodeError("cannot encode %r" % (e,))

    def forall(self, map_name, body):
        """The frame axiom ``forall k. body(k)`` over `map_name`'s keys."""
        key_sort = _sort(self.key_types[map_name])
        return self.ctx.mk("forall", body(self.ctx.var(_KEY, key_sort)),
                           val=(_KEY, key_sort))


def encode(script: SsaScript, safety=None, program=None,
           ctx=None) -> SmtScript:
    """Build the solver input for an SsaScript (plus the optional safety
    condition) in `ctx`, a fresh ``Ctx`` by default.  Deterministic:
    identical scripts render byte-identically, in any context."""
    ctx = ctx if ctx is not None else smt_terms.Ctx()
    t = _Terms(ctx, script)
    asserts = []
    for clause in script.clauses:
        kind = clause[0]
        if kind == "def":
            _, sym, type_, expr, _pos = clause
            asserts.append(ctx.mk("=", t.var(sym, type_), t.term(expr)))
        elif kind == "assume":
            asserts.append(t.term(clause[1]))
        elif kind == "scalar_zero":
            _, sym, type_, _pos = clause
            asserts.append(ctx.mk("=", t.var(sym, type_), t.lit(0, type_)))
        elif kind == "map_zero":
            map_name = clause[1]
            asserts.append(t.forall(map_name, lambda k: ctx.mk(
                "=", t.app(t.fun(map_name, 0), k), t.lit(0, U256))))
        elif kind == "map_write":
            _, map_name, g_from, g_to, key, val, _pos = clause
            key = t.term(key)
            f_from, f_to = t.fun(map_name, g_from), t.fun(map_name, g_to)
            asserts.append(ctx.mk("=", t.app(f_to, key), t.term(val)))
            asserts.append(t.forall(map_name, lambda k: ctx.mk(
                "=>", ctx.mk("distinct", k, key),
                ctx.mk("=", t.app(f_to, k), t.app(f_from, k)))))
        else:
            raise EncodeError("unknown clause kind %r" % kind)

    if safety is not None:
        if program is None:
            raise EncodeError("safety resolution needs the program")
        asserts.append(t.term(resolve_safety(script, safety, program)))

    decls = {name: _sort(type_) for name, type_ in t.symbols.items()}
    commands = Script(decls=decls, funs=t.funs,
                      asserts=[ctx.checked("assert", a) for a in asserts],
                      queries=[ctx.var(n, s) for n, s in decls.items()],
                      query_texts=list(decls), has_check=True)
    return SmtScript(ctx, commands, list(t.symbols.items()))


# ---------------------------------------------------------------------------
# Solver invocation
# ---------------------------------------------------------------------------

@dataclass
class SatResult:
    status: str                    # 'sat' | 'unsat' | 'unknown'
    model: Optional[Model] = None
    reason: str = ""


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
        for query, pair in zip(smt_script.queries, pairs):
            values[query[1]] = _parse_value(pair[-1])
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
