"""Reference oracles the tests check the engine against; not shipped in
the package.

``exhaustive_search`` is the brute-force oracle: it enumerates deployments
and bounded call sequences in a deterministic order and replays each until
one hits the target.

``AstInterpreter`` executes the checked AST directly with the replay
interpreter's semantics; lowering bugs show up as AST-vs-IR divergence on
random programs.

``expected_plus_edges`` recomputes the CFG+ edge set from the per-function
graphs, and ``definition_symbols`` lists an SSA script's assignment
targets for the single-assignment scans.

``forward_ssa_number`` and ``forward_encode`` are the encoder's former
numbering: they reverse a walk into execution order and number it forward
from its earliest node, as tagged tuples turned into terms afterwards.
The backward numbering must give equisatisfiable scripts.

``reference_free_vars``, ``reference_array_free`` and ``reference_rewrite``
compute by a walk of every node what a hash-consed term keeps
(``Term.free``, ``Term.plain``) and what ``smt.solve.rewrite`` returns
without walking the terms its shortcut skips.

``reference_tokenize`` is the frontend's former lexer, one anchored match
per token with a running column; the single-pass lexer must give the same
token stream and the same errors.  ``to_source``/``ast_equal`` (the
printer round trip), ``statement_lines``, ``dump_ir``, ``frontier_end`` and
``bundled_solver_command`` are helpers only the tests use.
"""

import itertools
import shlex
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

from minisol.concretize import Transaction, TransactionSequence
from minisol.encoder import GAS, TxEnv
from minisol.errors import EncodeError, ParseError, ReplayError
from minisol.frontend import _TOKEN_RE, KEYWORDS, Token
from minisol.ir import BRANCH_KINDS, CONSTRUCTOR, IrProgram
from minisol.lang import (ADDRESS, BOOL, ENV_NAMES, ENV_TYPES, NUM_ACCOUNTS,
                          SCALAR_TYPES, U256, AddressLit,
                          Assign, AssertStmt, Binary, BoolLit, Call,
                          ContractAst, EnvRead, ExprStmt, Ident, If, Index,
                          IntLit, Require, Return, Unary, VarDecl, While,
                          iter_statements, mask)
from minisol.smt import terms as smt_terms
from minisol.smt.parse import Script
from minisol.oracle import (EvmState, Interpreter, _binary, _Env,
                            _eval_expr, _Revert, _wrap)


# ---------------------------------------------------------------------------
# Source-level references: the former lexer, printing, equality
# ---------------------------------------------------------------------------

def reference_tokenize(source):
    """The frontend's former lexer: one anchored `_TOKEN_RE.match` per
    token and a running column; the list ends in a single eof token."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError("unexpected character %r" % source[pos], line, col)
        text = m.group()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        elif kind == "num":
            tokens.append(Token("num", text, line, col))
            col += len(text)
        elif kind == "ident":
            k = "kw" if text in KEYWORDS or text in SCALAR_TYPES else "ident"
            tokens.append(Token(k, text, line, col))
            col += len(text)
        else:
            tokens.append(Token(text, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def statement_lines(ast):
    """The set of executable source lines: one entry per statement, plus
    state-variable initializers (they execute during deployment)."""
    lines = set()
    for sv in ast.state_vars:
        if sv.init is not None:
            lines.add(sv.line)
    bodies = [fn.body for fn in ast.functions]
    if ast.constructor is not None:
        bodies.append(ast.constructor.body)
    for body in bodies:
        for stmt in iter_statements(body):
            lines.add(stmt.line)
    return lines


_IGNORED_FIELDS = {"line", "col", "type_", "binding", "slot", "source_lines"}


def ast_equal(a, b, include_lines=False):
    """Structural equality; positions and checker annotations are ignored
    unless `include_lines` asks for line comparison."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(
            ast_equal(x, y, include_lines) for x, y in zip(a, b))
    if not hasattr(a, "__dataclass_fields__"):
        return a == b
    for f in fields(a):
        if f.name in _IGNORED_FIELDS and not (include_lines and f.name == "line"):
            continue
        if not ast_equal(getattr(a, f.name), getattr(b, f.name), include_lines):
            return False
    return True


_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3,
               ">=": 3, "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


def expr_to_source(e, parent_prec=0):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, AddressLit):
        return "address(%d)" % e.index
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, EnvRead):
        return e.which
    if isinstance(e, Unary):
        return "!" + expr_to_source(e.operand, 6)
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        text = "%s %s %s" % (expr_to_source(e.lhs, prec), e.op,
                             expr_to_source(e.rhs, prec + 1))
        return "(" + text + ")" if prec < parent_prec else text
    if isinstance(e, Index):
        return "%s[%s]" % (e.base.name, expr_to_source(e.index))
    if isinstance(e, Call):
        return "%s(%s)" % (e.name, ", ".join(expr_to_source(a) for a in e.args))
    raise TypeError("cannot print %r" % e)


def _stmt_to_lines(stmt, indent):
    pad = "    " * indent
    out = []
    if isinstance(stmt, VarDecl):
        init = " = " + expr_to_source(stmt.init) if stmt.init is not None else ""
        out.append("%s%s %s%s;" % (pad, stmt.type_, stmt.name, init))
    elif isinstance(stmt, Assign):
        out.append("%s%s %s %s;" % (pad, expr_to_source(stmt.target), stmt.op,
                                    expr_to_source(stmt.value)))
    elif isinstance(stmt, If):
        out.append("%sif (%s) {" % (pad, expr_to_source(stmt.cond)))
        for s in stmt.then:
            out.extend(_stmt_to_lines(s, indent + 1))
        if stmt.orelse:
            out.append("%s} else {" % pad)
            for s in stmt.orelse:
                out.extend(_stmt_to_lines(s, indent + 1))
        out.append("%s}" % pad)
    elif isinstance(stmt, While):
        out.append("%swhile (%s) {" % (pad, expr_to_source(stmt.cond)))
        for s in stmt.body:
            out.extend(_stmt_to_lines(s, indent + 1))
        out.append("%s}" % pad)
    elif isinstance(stmt, Return):
        if stmt.value is None:
            out.append("%sreturn;" % pad)
        else:
            out.append("%sreturn %s;" % (pad, expr_to_source(stmt.value)))
    elif isinstance(stmt, Require):
        out.append("%srequire(%s);" % (pad, expr_to_source(stmt.cond)))
    elif isinstance(stmt, AssertStmt):
        out.append("%sassert(%s);" % (pad, expr_to_source(stmt.cond)))
    elif isinstance(stmt, ExprStmt):
        out.append("%s%s;" % (pad, expr_to_source(stmt.call)))
    else:
        raise TypeError("cannot print %r" % stmt)
    return out


def to_source(ast):
    """Pretty-print a contract back to MiniSol source (canonical layout)."""
    out = ["contract %s {" % ast.name]
    for sv in ast.state_vars:
        init = " = " + expr_to_source(sv.init) if sv.init is not None else ""
        out.append("    %s %s%s;" % (sv.type_, sv.name, init))
    fns = ([ast.constructor] if ast.constructor is not None else []) + ast.functions
    for fn in fns:
        params = ", ".join("%s %s" % (t, n) for n, t in fn.params)
        if fn.is_constructor:
            head = "    constructor(%s) {" % params
        else:
            ret = " returns (%s)" % fn.ret if fn.ret is not None else ""
            head = "    function %s(%s) %s%s {" % (fn.name, params,
                                                   fn.visibility, ret)
        out.append(head)
        for s in fn.body:
            out.extend(_stmt_to_lines(s, 2))
        out.append("    }")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Structural references
# ---------------------------------------------------------------------------

def expected_plus_edges(plus):
    """The edge set the auxiliary-node chaining must produce, recomputed
    from the per-function graphs."""
    expected = set(plus.ctor_cfg.edges)
    for cfg in plus.fn_cfgs.values():
        expected.update(cfg.edges)
    expected.update((plus.start_id, s) for s in plus.ctor_cfg.initial)
    expected.update((t, plus.constructed_id) for t in plus.ctor_cfg.final)
    for cfg in plus.fn_cfgs.values():
        expected.update((plus.constructed_id, s) for s in cfg.initial)
        expected.update((t, plus.tx_processed_id) for t in cfg.final)
    expected.add((plus.tx_processed_id, plus.constructed_id))
    expected.add((plus.tx_processed_id, plus.end_id))
    return expected


def definition_symbols(script):
    """What the instructions of an SsaScript define, in execution order:
    scalar symbols, and the map function each map write defines."""
    return [link.defined for link in script.links()
            if link.defined is not None]


def dump_ir(program):
    """Stable one-instruction-per-line dump, used by golden tests."""
    out = []
    for fn in program.all_functions():
        params = ", ".join("%s: %s" % (n, t) for n, t in fn.params)
        out.append("function %s(%s)%s" % (fn.name, params,
                                          " -> %s" % fn.ret if fn.ret else ""))
        for block in fn.blocks:
            term = block.term
            ttext = term.kind
            if term.targets:
                ttext += " " + ",".join("b%d" % t for t in term.targets)
            out.append("  b%d:" % block.idx)
            for ins in block.instrs:
                out.append("    " + ins.text())
            out.append("    -> " + ttext)
    return "\n".join(out) + "\n"


def frontier_end(script):
    """How many of an `SsaScript`'s clauses its frontier contributes: the
    moving ones and the last numbered node's."""
    link = script.numbering.link
    return len(script.moving) + (len(link.clauses) if link else 0)


def bundled_solver_command():
    """Command line that runs the bundled solver as an external process."""
    return "%s -m minisol.smt" % shlex.quote(sys.executable)


# ---------------------------------------------------------------------------
# Bounded brute force
# ---------------------------------------------------------------------------

@dataclass
class SearchBounds:
    max_calls: int = 4
    arg_values: tuple = tuple(range(16))
    address_values: tuple = (0, 1)
    callers: tuple = ("A0", "A1")
    values: tuple = (0,)
    timestamps: tuple = (0,)


def _arg_domain(ptype, bounds):
    if ptype is BOOL:
        return (0, 1)
    if ptype.kind == "address":
        return bounds.address_values
    return tuple(v & mask(ptype.width) for v in bounds.arg_values)


def _call_options(program, bounds):
    options = []
    for fn in program.public_functions():
        domains = [_arg_domain(pt, bounds) for _n, pt in fn.params]
        for caller in bounds.callers:
            for value in bounds.values:
                for args in itertools.product(*domains):
                    options.append((fn.name, caller, list(args), value))
    return options


def exhaustive_search(program: IrProgram, target,
                      bounds: SearchBounds = None) -> Optional[TransactionSequence]:
    """Deterministic bounded enumeration; returns the first sequence whose
    replay hits the target with the safety condition true, else None."""
    bounds = bounds or SearchBounds()
    interp = Interpreter(program, target, step_limit=100000)
    ctor = program.constructor
    ctor_domains = [_arg_domain(pt, bounds) for _n, pt in ctor.params]
    deployments = [Transaction(CONSTRUCTOR, caller, list(args), value)
                   for caller in bounds.callers
                   for value in bounds.values
                   for args in itertools.product(*ctor_domains)]
    options = _call_options(program, bounds)
    for n_calls in range(bounds.max_calls + 1):
        for deploy in deployments:
            for combo in itertools.product(options, repeat=n_calls):
                txs = [deploy] + [Transaction(f, c, list(a), v)
                                  for f, c, a, v in combo]
                seq = TransactionSequence(txs)
                report = interp.replay(seq)
                if report.target_hit and report.safety_value:
                    return seq
    return None


# ---------------------------------------------------------------------------
# Direct AST execution (differential oracle for the lowering)
# ---------------------------------------------------------------------------

class _AstReturn(Exception):
    def __init__(self, value):
        self.value = value


class AstInterpreter:
    """Executes the checked AST with the same semantics as the IR
    interpreter; used to cross-check the lowering on random programs."""

    def __init__(self, ast: ContractAst, step_limit=500000):
        self.ast = ast
        self.step_limit = step_limit
        self.steps = 0

    def run(self, seq: TransactionSequence):
        state = EvmState()
        reverted = []
        for i, tx in enumerate(seq.transactions):
            self.steps = 0
            if i == 0:
                if tx.function != CONSTRUCTOR:
                    raise ReplayError("sequence must start with deployment")
                fn = self.ast.constructor
            else:
                fn = self.ast.function(tx.function)
                if fn is None:
                    raise ReplayError("unknown function %r" % tx.function)
            env = _Env(tx)
            snap = state.snapshot()
            locals_ = {}
            for (pname, ptype), arg in zip(fn.params, tx.args):
                locals_[pname] = _wrap(arg, ptype)
            try:
                if i == 0:
                    for sv in self.ast.state_vars:
                        if sv.init is not None:
                            state.storage[sv.name] = _wrap(
                                self._eval(sv.init, state, {}, env), sv.type_)
                self._exec_body(fn.body, state, locals_, env)
                reverted.append(False)
                if i == 0:
                    state.deployed = True
            except _AstReturn:
                reverted.append(False)
                if i == 0:
                    state.deployed = True
            except _Revert:
                state.restore(snap)
                reverted.append(True)
        return state, reverted

    def _exec_body(self, body, state, locals_, env):
        for stmt in body:
            self._exec_stmt(stmt, state, locals_, env)

    def _step(self):
        self.steps += 1
        if self.steps > self.step_limit:
            raise ReplayError("step limit exceeded in AST interpreter")

    def _exec_stmt(self, stmt, state, locals_, env):
        self._step()
        if isinstance(stmt, VarDecl):
            value = self._eval(stmt.init, state, locals_, env) \
                if stmt.init is not None else 0
            locals_[stmt.slot] = _wrap(value, stmt.type_)
        elif isinstance(stmt, Assign):
            self._exec_assign(stmt, state, locals_, env)
        elif isinstance(stmt, If):
            if self._eval(stmt.cond, state, locals_, env):
                self._exec_body(stmt.then, state, locals_, env)
            else:
                self._exec_body(stmt.orelse, state, locals_, env)
        elif isinstance(stmt, While):
            while self._eval(stmt.cond, state, locals_, env):
                self._step()
                self._exec_body(stmt.body, state, locals_, env)
        elif isinstance(stmt, Return):
            value = self._eval(stmt.value, state, locals_, env) \
                if stmt.value is not None else None
            raise _AstReturn(value)
        elif isinstance(stmt, (Require, AssertStmt)):
            if not self._eval(stmt.cond, state, locals_, env):
                raise _Revert()
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.call, state, locals_, env)
        else:
            raise ReplayError("cannot execute %r" % stmt)

    def _exec_assign(self, stmt, state, locals_, env):
        value = self._eval(stmt.value, state, locals_, env)
        target = stmt.target
        if isinstance(target, Ident):
            type_ = target.type_
            if stmt.op != "=":
                cur = self._read_ident(target, state, locals_)
                value = _binary(stmt.op[0], cur, _wrap(value, type_),
                                type_.bit_width)
            if target.binding == "state":
                state.storage[target.name] = _wrap(value, type_)
            else:
                locals_[target.slot] = _wrap(value, type_)
        else:
            key = self._eval(target.index, state, locals_, env)
            base = target.base
            if base.type_.kind == "array":
                if key >= base.type_.length:
                    raise _Revert()
            table = state.maps.setdefault(base.name, {})
            if stmt.op != "=":
                cur = table.get(key, 0)
                value = _binary(stmt.op[0], cur, _wrap(value, U256), 256)
            table[key] = _wrap(value, U256)

    def _read_ident(self, e, state, locals_):
        if e.binding == "state":
            return state.storage.get(e.name, 0)
        return locals_[e.slot]

    def _eval(self, e, state, locals_, env):
        self._step()
        if isinstance(e, Call):
            fn = self.ast.function(e.name)
            sub_locals = {}
            for (pname, ptype), arg in zip(fn.params, e.args):
                sub_locals[pname] = _wrap(
                    self._eval(arg, state, locals_, env), ptype)
            try:
                self._exec_body(fn.body, state, sub_locals, env)
            except _AstReturn as ret:
                if ret.value is None:
                    return 0
                return _wrap(ret.value, fn.ret) if fn.ret is not None \
                    else ret.value
            return 0
        if isinstance(e, Index):
            key = self._eval(e.index, state, locals_, env)
            if e.base.type_.kind == "array" and key >= e.base.type_.length:
                raise _Revert()
            return state.maps.get(e.base.name, {}).get(key, 0)
        if isinstance(e, Binary):
            a = self._eval(e.lhs, state, locals_, env)
            b = self._eval(e.rhs, state, locals_, env)
            return _binary(e.op, a, b, getattr(e, "width", 256))
        if isinstance(e, Unary):
            return 0 if self._eval(e.operand, state, locals_, env) else 1
        return _eval_expr(e, state, locals_, env)


# ---------------------------------------------------------------------------
# Forward numbering: the encoder's former numberer, kept as a reference
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
class _ForwardTarget:
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
class ForwardScript:
    clauses: list = field(default_factory=list)
    symbols: dict = field(default_factory=dict)      # name -> MsType
    map_syms: list = field(default_factory=list)     # (map, gen) decl order
    transactions: list = field(default_factory=list)
    target_point: Optional[_ForwardTarget] = None
    complete: bool = False
    map_key_types: dict = field(default_factory=dict)
    frontier_end: int = 0          # clauses[:frontier_end] number position 0


class _ForwardNumberer:
    def __init__(self, walk, program, graph):
        self.walk = walk
        self.program = program
        self.graph = graph
        self.script = ForwardScript()
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
        self.script.target_point = _ForwardTarget(
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


def forward_ssa_number(walk, program, graph=None):
    """Number a walk forward into a ForwardScript.  The graph defaults to
    the one the walk was found on (walks carry it)."""
    graph = graph if graph is not None else walk.graph
    if graph is None:
        raise EncodeError("walk carries no graph")
    return _ForwardNumberer(walk, program, graph).run()


# ---------------------------------------------------------------------------
# Safety resolution at the target point
# ---------------------------------------------------------------------------

def forward_resolve_safety(script, safety, program):
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


_OPS = {"+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvudiv",
        "%": "bvurem", "<": "bvult", "<=": "bvule", ">": "bvugt",
        ">=": "bvuge", "==": "=", "!=": "distinct", "&&": "and", "||": "or"}


def _sort(type_):
    return smt_terms.BOOL if type_ is BOOL else smt_terms.bv(type_.bit_width)


class _Terms:
    """Builds one script's terms in `ctx` from clause expressions, and
    collects the symbols and map generations (arrays) they use."""

    def __init__(self, ctx, script):
        self.ctx = ctx
        self.key_types = script.map_key_types
        self.symbols = dict(script.symbols)
        self.arrays = {}           # map generation name -> array var term
        for map_name, gen in script.map_syms:
            self.array(map_name, gen)

    def array(self, map_name, gen):
        name = "%s!%d" % (map_name, gen)
        if name not in self.arrays:
            self.arrays[name] = self.ctx.var(name, smt_terms.array(
                _sort(self.key_types[map_name]), _sort(U256)))
        return self.arrays[name]

    def lit(self, value, type_):
        if type_ is BOOL:
            return self.ctx.cbool(bool(value))
        return self.ctx.const(value, type_.bit_width)

    def var(self, name, type_):
        # the safety condition can reference pre-state versions no clause
        # declared; they are declared on first use
        return self.ctx.var(name, _sort(self.symbols.setdefault(name, type_)))

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
            return ctx.checked("select", self.array(e[1], e[2]),
                               self.term(e[3]))
        if tag == "bin":
            return ctx.checked(_OPS[e[1]], self.term(e[2]), self.term(e[3]))
        raise EncodeError("cannot encode %r" % (e,))


def forward_encode(script, safety=None, program=None, ctx=None):
    """Build the solver input for a ForwardScript (plus the optional safety
    condition) in `ctx`, a fresh ``Ctx`` by default."""
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
            zero = t.array(clause[1], 0)
            asserts.append(ctx.mk("=", zero, ctx.const_array(
                zero.sort, t.lit(0, U256))))
        elif kind == "map_write":
            _, map_name, g_from, g_to, key, val, _pos = clause
            asserts.append(ctx.mk("=", t.array(map_name, g_to), ctx.checked(
                "store", t.array(map_name, g_from), t.term(key),
                t.term(val))))
        else:
            raise EncodeError("unknown clause kind %r" % kind)

    if safety is not None:
        if program is None:
            raise EncodeError("safety resolution needs the program")
        asserts.append(t.term(forward_resolve_safety(script, safety, program)))

    symbols = {name: ctx.var(name, _sort(type_))
               for name, type_ in t.symbols.items()}
    symbols.update(t.arrays)
    return Script(ctx, [ctx.checked("assert", a) for a in asserts],
                  symbols=lambda: symbols)


# ---------------------------------------------------------------------------
# Term facts and rewriting, by a walk of every node
# ---------------------------------------------------------------------------

def reference_free_vars(term, out=None, seen=None):
    """The variables of `term`, depth first, left to right, each at its
    first occurrence: a list of variable terms.  A subterm met again adds
    nothing, so it is not walked again (`seen`: ids of subterms met)."""
    out = [] if out is None else out
    seen = set() if seen is None else seen
    if id(term) not in seen:
        seen.add(id(term))
        if term.op == "var":
            out.append(term)
        for a in term.args:
            reference_free_vars(a, out, seen)
    return out


def reference_array_free(term):
    """True when no select, store, constant array or other array-sorted
    term occurs in `term`."""
    stack, seen = [term], set()
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        if term.sort[0] == "array" \
                or term.op in ("select", "store", "const_array"):
            return False
        stack.extend(term.args)
    return True


def reference_rewrite(ctx, term, subst, maps, memo):
    """``smt.solve.rewrite`` with no shortcut: every node is walked, each
    rebuilt one folded, variables replaced through `subst` (following
    chains) and reads resolved through the definitions of `maps` (a
    ``smt.solve._Maps``), down to its Ackermann reads."""
    from minisol.smt.solve import SmtUnknown, fold

    hit = memo.get(term)
    if hit is not None:
        return hit
    if term.sort[0] == "array":
        raise SmtUnknown("array term outside a definition or select")
    if term.op == "var":
        value = subst.get(term)
        out = term if value is None \
            else reference_rewrite(ctx, value, subst, maps, memo)
    elif term.op == "select":
        key = reference_rewrite(ctx, term.args[1], subst, maps, memo)
        out = _reference_read(ctx, term.args[0], key, subst, maps, memo)
    elif term.args:
        args = tuple(reference_rewrite(ctx, a, subst, maps, memo)
                     for a in term.args)
        out = fold(ctx, term if args == term.args
                   else ctx.node(term.op, term.val, args, term.sort))
    else:
        out = term
    memo[term] = out
    return out


def _reference_read(ctx, array, key, subst, maps, memo):
    """The value `array` holds at the rewritten `key`: through definitions,
    stores and constant arrays, as ``_Maps.resolve`` reads them."""
    from minisol.smt.solve import fold

    def value(t):
        return reference_rewrite(ctx, t, subst, maps, memo)

    while True:
        if array.op == "var":
            if array not in maps.defs:
                return maps._read(array, key)
            array = maps.defs[array]
        elif array.op == "const_array":
            return value(array.args[0])
        else:
            below, index, stored = array.args
            hit = fold(ctx, ctx.mk("=", key, value(index)))
            if hit.op != "cbool":
                return fold(ctx, ctx.mk(
                    "ite", hit, value(stored),
                    _reference_read(ctx, below, key, subst, maps, memo)))
            if hit.val:
                return value(stored)
            array = below
