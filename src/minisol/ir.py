"""Three-address IR and the AST-to-IR lowering.

Each function body becomes a list of basic blocks of :class:`IrInstr`.
Lowering expands compound assignments (``x += v`` becomes a temp add plus a
store), widens mixed-width operands through explicit conversion temps, and
guards division/modulo and array indexing with revert branches so a walk
through a failing guard ends in a ``revert_sink``.

``inline_internal_calls`` replaces every call site with an alpha-renamed
copy of the callee body (suffix ``$k`` for the k-th inline site) and leaves
a program whose public functions reference no other function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import LoweringError
from .lang import (BOOL, SCALAR_TYPES, U256, AddressLit, Assign, AssertStmt,
                   Binary, BoolLit, Call, EnvRead, ExprStmt, Ident, If, Index,
                   IntLit, MsType, Require, Return, Unary, VarDecl, While)

CONSTRUCTOR = "<constructor>"

# Instruction kinds; 'call' only appears before inline_internal_calls runs.
KINDS = ("assign", "binary", "unary", "index_read", "index_write",
         "condition", "return", "require", "assert", "revert_sink", "call")

BRANCH_KINDS = ("condition", "require", "assert")


@dataclass(frozen=True)
class Operand:
    kind: str                     # 'local' | 'param' | 'state' | 'lit' | 'env'
    type_: MsType
    name: str = ""
    value: int = 0

    def __str__(self):
        if self.kind == "lit":
            return str(self.value)
        return self.name


def lit(value, type_):
    return Operand("lit", type_, value=value)


@dataclass
class IrInstr:
    kind: str
    dest: Optional[Operand] = None
    op: Optional[str] = None
    args: tuple = ()
    map: Optional[str] = None     # state mapping/array name for index ops
    line: Optional[int] = None
    callee: Optional[str] = None  # pre-inline call target
    inline_suffix: str = ""       # '$k...' rename applied to enclosing locals

    def state_reads(self):
        names = [a.name for a in self.args if a.kind == "state"]
        if self.kind == "index_read":
            names.append(self.map)
        return names

    def state_writes(self):
        names = []
        if self.dest is not None and self.dest.kind == "state":
            names.append(self.dest.name)
        if self.kind == "index_write":
            names.append(self.map)
        return names

    def text(self):
        line = str(self.line) if self.line is not None else "-"
        if self.kind == "assign":
            return "%s: %s = assign %s" % (line, self.dest, self.args[0])
        if self.kind == "binary":
            return "%s: %s = %s %s %s" % (line, self.dest, self.op,
                                          self.args[0], self.args[1])
        if self.kind == "unary":
            return "%s: %s = %s %s" % (line, self.dest, self.op, self.args[0])
        if self.kind == "index_read":
            return "%s: %s = index_read %s[%s]" % (line, self.dest, self.map,
                                                   self.args[0])
        if self.kind == "index_write":
            return "%s: index_write %s[%s] = %s" % (line, self.map,
                                                    self.args[0], self.args[1])
        if self.kind == "return":
            if self.args:
                return "%s: return %s" % (line, self.args[0])
            return "%s: return" % line
        if self.kind == "call":
            return "%s: %s = call %s(%s)" % (line, self.dest, self.callee,
                                             ", ".join(map(str, self.args)))
        if self.kind == "revert_sink":
            return "%s: revert_sink" % line
        return "%s: %s %s" % (line, self.kind, self.args[0])


@dataclass
class Terminator:
    kind: str                     # 'goto' | 'branch' | 'return'
    targets: tuple = ()           # goto: (next,); branch: (true, false)


@dataclass
class Block:
    idx: int
    instrs: list = field(default_factory=list)
    term: Terminator = None


@dataclass
class IrFunction:
    name: str
    params: list                  # list of (name, MsType)
    ret: Optional[MsType]
    visibility: str
    blocks: list
    is_constructor: bool = False

    def instructions(self):
        for block in self.blocks:
            yield from block.instrs

    def state_writes(self):
        out = set()
        for ins in self.instructions():
            out.update(ins.state_writes())
        return out


@dataclass
class IrProgram:
    name: str
    state_vars: list              # list of (name, MsType)
    constructor: IrFunction
    functions: list               # declaration order; public only post-inline

    def function(self, name):
        if name == CONSTRUCTOR:
            return self.constructor
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def public_functions(self):
        return [fn for fn in self.functions if fn.visibility == "public"]

    def all_functions(self):
        return [self.constructor] + list(self.functions)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

class _FnLowerer:
    def __init__(self, fn):
        self.fn = fn
        self.blocks = [Block(0)]
        self.current = self.blocks[0]
        self.temp_n = 0
        self.revert_block = None

    def new_block(self):
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def temp(self, type_):
        self.temp_n += 1
        return Operand("local", type_, name="$t%d" % self.temp_n)

    def emit(self, instr):
        self.current.instrs.append(instr)

    def seal(self, term):
        if self.current.term is None:
            self.current.term = term

    def get_revert_block(self, line):
        if self.revert_block is None:
            block = self.new_block()
            block.instrs.append(IrInstr("revert_sink", line=line))
            block.term = Terminator("return")
            self.revert_block = block
        return self.revert_block

    # -- expressions --------------------------------------------------------

    def widen(self, operand, type_, line):
        """Explicit conversion temp when widths differ; literals re-type."""
        if operand.type_ == type_:
            return operand
        if operand.kind == "lit":
            return lit(operand.value & ((1 << type_.bit_width) - 1), type_)
        t = self.temp(type_)
        self.emit(IrInstr("assign", dest=t, args=(operand,), line=line))
        return t

    def lower_expr(self, e, line):
        if isinstance(e, IntLit):
            return lit(e.value, e.type_ if e.type_ is not None else U256)
        if isinstance(e, BoolLit):
            return lit(int(e.value), BOOL)
        if isinstance(e, AddressLit):
            return lit(e.index, e.type_)
        if isinstance(e, EnvRead):
            return Operand("env", e.type_, name=e.which)
        if isinstance(e, Ident):
            kind = "state" if e.binding == "state" else e.binding
            return Operand(kind, e.type_, name=e.slot)
        if isinstance(e, Unary):
            a = self.lower_expr(e.operand, line)
            t = self.temp(BOOL)
            self.emit(IrInstr("unary", dest=t, op="!", args=(a,), line=line))
            return t
        if isinstance(e, Binary):
            return self.lower_binary(e, line)
        if isinstance(e, Index):
            key = self.lower_index_key(e, line)
            t = self.temp(e.type_)
            self.emit(IrInstr("index_read", dest=t, map=e.base.name,
                              args=(key,), line=line))
            return t
        if isinstance(e, Call):
            fn_ret = e.type_ if e.type_ is not None else U256
            args = tuple(self.lower_expr(a, line) for a in e.args)
            t = self.temp(fn_ret)
            self.emit(IrInstr("call", dest=t, callee=e.name, args=args,
                              line=line))
            return t
        raise LoweringError("cannot lower expression %r" % e)

    def lower_index_key(self, e, line):
        base_type = e.base.type_
        key = self.lower_expr(e.index, line)
        if base_type.kind == "mapping":
            key_type = base_type.key
        else:
            key_type = U256
        key = self.widen(key, key_type, line)
        if base_type.kind == "array":
            bound = base_type.length
            if key.kind == "lit":
                if key.value >= bound:
                    self.guard(lit(0, BOOL), line)          # always reverts
            else:
                ok = self.temp(BOOL)
                self.emit(IrInstr("binary", dest=ok, op="<",
                                  args=(key, lit(bound, U256)), line=line))
                self.guard(ok, line)
        return key

    def lower_binary(self, e, line):
        op = e.op
        if op in ("&&", "||"):
            a = self.lower_expr(e.lhs, line)
            b = self.lower_expr(e.rhs, line)
            t = self.temp(BOOL)
            self.emit(IrInstr("binary", dest=t, op=op, args=(a, b), line=line))
            return t
        a = self.lower_expr(e.lhs, line)
        b = self.lower_expr(e.rhs, line)
        if op in ("==", "!=") and (a.type_ is BOOL or a.type_.kind == "address"):
            t = self.temp(BOOL)
            self.emit(IrInstr("binary", dest=t, op=op, args=(a, b), line=line))
            return t
        width = getattr(e, "width", 256)
        wide = SCALAR_TYPES["uint%d" % width]
        a = self.widen(a, wide, line)
        b = self.widen(b, wide, line)
        if op in ("/", "%") and not (b.kind == "lit" and b.value != 0):
            ok = self.temp(BOOL)
            self.emit(IrInstr("binary", dest=ok, op="!=",
                              args=(b, lit(0, wide)), line=line))
            self.guard(ok, line)
        result = BOOL if op in ("==", "!=", "<", "<=", ">", ">=") else wide
        t = self.temp(result)
        self.emit(IrInstr("binary", dest=t, op=op, args=(a, b), line=line))
        return t

    def guard(self, cond, line):
        """Branch that reverts when `cond` is false (division, array bounds)."""
        instr = IrInstr("require", args=(cond,), line=line)
        self.emit(instr)
        ok_block = self.new_block()
        self.current.term = Terminator("branch", (ok_block.idx,
                                                  self.get_revert_block(line).idx))
        self.current = ok_block

    # -- statements ----------------------------------------------------------

    def lower_body(self, body):
        for stmt in body:
            if self.current.term is not None:
                break                          # unreachable tail after return
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt):
        line = stmt.line
        if isinstance(stmt, VarDecl):
            dest = Operand("local", stmt.type_, name=stmt.slot)
            if stmt.init is None:
                src = lit(0, stmt.type_) if stmt.type_ is not BOOL else lit(0, BOOL)
            else:
                src = self.lower_expr(stmt.init, line)
            self.emit(IrInstr("assign", dest=dest, args=(src,), line=line))
        elif isinstance(stmt, Assign):
            self.lower_assign(stmt, line)
        elif isinstance(stmt, If):
            cond = self.lower_expr(stmt.cond, line)
            self.emit(IrInstr("condition", args=(cond,), line=line))
            cond_block = self.current
            then_block = self.new_block()
            self.current = then_block
            self.lower_body(stmt.then)
            then_end = self.current
            else_block = self.new_block()
            self.current = else_block
            self.lower_body(stmt.orelse)
            else_end = self.current
            join = self.new_block()
            cond_block.term = Terminator("branch", (then_block.idx,
                                                    else_block.idx))
            then_end.term = then_end.term or Terminator("goto", (join.idx,))
            else_end.term = else_end.term or Terminator("goto", (join.idx,))
            self.current = join
        elif isinstance(stmt, While):
            head = self.new_block()
            self.seal(Terminator("goto", (head.idx,)))
            self.current = head
            cond = self.lower_expr(stmt.cond, line)
            self.emit(IrInstr("condition", args=(cond,), line=line))
            cond_block = self.current
            body_block = self.new_block()
            self.current = body_block
            self.lower_body(stmt.body)
            self.seal(Terminator("goto", (head.idx,)))   # back edge
            after = self.new_block()
            cond_block.term = Terminator("branch", (body_block.idx, after.idx))
            self.current = after
        elif isinstance(stmt, Return):
            args = ()
            if stmt.value is not None:
                value = self.lower_expr(stmt.value, line)
                if self.fn.ret is not None:
                    value = self.widen(value, self.fn.ret, line) \
                        if self.fn.ret.is_numeric else value
                args = (value,)
            self.emit(IrInstr("return", args=args, line=line))
            self.current.term = Terminator("return")
        elif isinstance(stmt, (Require, AssertStmt)):
            cond = self.lower_expr(stmt.cond, line)
            kind = "require" if isinstance(stmt, Require) else "assert"
            self.emit(IrInstr(kind, args=(cond,), line=line))
            ok_block = self.new_block()
            self.current.term = Terminator(
                "branch", (ok_block.idx, self.get_revert_block(line).idx))
            self.current = ok_block
        elif isinstance(stmt, ExprStmt):
            self.lower_expr(stmt.call, line)
        else:
            raise LoweringError("cannot lower statement %r" % stmt)

    def lower_assign(self, stmt, line):
        if isinstance(stmt.target, Ident):
            target = stmt.target
            kind = "state" if target.binding == "state" else target.binding
            dest = Operand(kind, target.type_, name=target.slot)
            if stmt.op == "=":
                src = self.lower_expr(stmt.value, line)
                src = self.coerce_literal(src, dest.type_)
                self.emit(IrInstr("assign", dest=dest, args=(src,), line=line))
            else:
                # x += v  =>  t = x + v; x = t
                op = stmt.op[0]
                synth = Binary(op, stmt.target, stmt.value, line=line)
                synth.width = dest.type_.bit_width
                synth.type_ = dest.type_
                t = self.lower_binary(synth, line)
                self.emit(IrInstr("assign", dest=dest, args=(t,), line=line))
        elif isinstance(stmt.target, Index):
            target = stmt.target
            key = self.lower_index_key(target, line)
            if stmt.op == "=":
                src = self.lower_expr(stmt.value, line)
                src = self.coerce_literal(src, U256)
                src = self.widen(src, U256, line)
                self.emit(IrInstr("index_write", map=target.base.name,
                                  args=(key, src), line=line))
            else:
                cur = self.temp(U256)
                self.emit(IrInstr("index_read", dest=cur, map=target.base.name,
                                  args=(key,), line=line))
                rhs = self.lower_expr(stmt.value, line)
                rhs = self.widen(rhs, U256, line)
                op = stmt.op[0]
                t = self.temp(U256)
                self.emit(IrInstr("binary", dest=t, op=op, args=(cur, rhs),
                                  line=line))
                self.emit(IrInstr("index_write", map=target.base.name,
                                  args=(key, t), line=line))
        else:
            raise LoweringError("invalid assignment target")

    def coerce_literal(self, operand, type_):
        if operand.kind == "lit" and type_.is_numeric:
            return lit(operand.value & ((1 << type_.width) - 1), type_)
        return operand

    def finish(self):
        for block in self.blocks:
            if block.term is None:
                block.term = Terminator("return")
        return self.blocks


def lower_function(fn):
    lowerer = _FnLowerer(fn)
    lowerer.lower_body(fn.body)
    blocks = lowerer.finish()
    return IrFunction(fn.name, list(fn.params), fn.ret, fn.visibility, blocks,
                      is_constructor=fn.is_constructor)


def lower(ast):
    """Lower a checked contract AST to an IrProgram.

    State-variable initializers become constructor assignments in declaration
    order, executed before the explicit constructor body.
    """
    ctor_decl = ast.constructor
    ctor = _FnLowerer(ctor_decl)
    for sv in ast.state_vars:
        if sv.init is None:
            continue
        dest = Operand("state", sv.type_, name=sv.name)
        src = ctor.lower_expr(sv.init, sv.line)
        src = ctor.coerce_literal(src, sv.type_)
        ctor.emit(IrInstr("assign", dest=dest, args=(src,), line=sv.line))
    ctor.lower_body(ctor_decl.body)
    ctor_fn = IrFunction(CONSTRUCTOR, list(ctor_decl.params), None, "public",
                         ctor.finish(), is_constructor=True)
    functions = [lower_function(fn) for fn in ast.functions]
    return IrProgram(ast.name, [(sv.name, sv.type_) for sv in ast.state_vars],
                     ctor_fn, functions)


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------

def _call_graph(program):
    edges = {}
    for fn in program.all_functions():
        edges[fn.name] = sorted({ins.callee for ins in fn.instructions()
                                 if ins.kind == "call"})
    return edges


WHITE, GRAY, BLACK = 0, 1, 2


def _callees_first(edges):
    """The functions of call graph `edges`, each after every function it
    calls (depth first, in `edges` order); recursion is a lowering error."""
    color = {name: WHITE for name in edges}
    order = []
    for name in edges:
        if color[name] == WHITE:
            _visit(name, edges, color, [], order)
    return order


def _visit(name, edges, color, stack, order):
    color[name] = GRAY
    stack.append(name)
    for succ in edges.get(name, ()):
        if color.get(succ) == GRAY:
            raise LoweringError("recursion among functions: [%s]"
                                % ", ".join(stack[stack.index(succ):]))
        if color.get(succ) == WHITE:
            _visit(succ, edges, color, stack, order)
    stack.pop()
    color[name] = BLACK
    order.append(name)


def _rename_operand(operand, suffix):
    if operand.kind in ("local", "param"):
        kind = "local"                       # callee params become caller locals
        return replace(operand, kind=kind, name=operand.name + suffix)
    return operand


def _inline_into(fn, callees, counter):
    """Replace call instructions in `fn` with renamed callee bodies."""
    changed = True
    while changed:
        changed = False
        for b_idx, block in enumerate(fn.blocks):
            for i_idx, ins in enumerate(block.instrs):
                if ins.kind != "call":
                    continue
                callee = callees.get(ins.callee)
                if callee is None:
                    raise LoweringError("call to undefined function %r"
                                        % ins.callee)
                counter[0] += 1
                _splice(fn, b_idx, i_idx, ins, callee, "$%d" % counter[0])
                changed = True
                break
            if changed:
                break
    return fn


def _splice(fn, b_idx, i_idx, call_ins, callee, suffix):
    block = fn.blocks[b_idx]
    before, after = block.instrs[:i_idx], block.instrs[i_idx + 1:]
    offset = len(fn.blocks)

    cloned = []
    for cb in callee.blocks:
        instrs = []
        for ins in cb.instrs:
            new = replace(
                ins,
                dest=_rename_operand(ins.dest, suffix) if ins.dest else None,
                args=tuple(_rename_operand(a, suffix) for a in ins.args),
                inline_suffix=ins.inline_suffix + suffix)
            instrs.append(new)
        term = Terminator(cb.term.kind,
                          tuple(t + offset for t in cb.term.targets))
        cloned.append(Block(cb.idx + offset, instrs, term))

    cont = Block(len(fn.blocks) + len(cloned), list(after), block.term)

    # bind arguments to the callee's (renamed) parameters
    binds = []
    for (pname, ptype), arg in zip(callee.params, call_ins.args):
        dest = Operand("local", ptype, name=pname + suffix)
        binds.append(IrInstr("assign", dest=dest, args=(arg,),
                             line=call_ins.line))

    # returns in the callee become an assignment to the call destination
    # followed by a jump to the continuation
    for cb in cloned:
        new_instrs = []
        for ins in cb.instrs:
            if ins.kind == "return":
                if ins.args and call_ins.dest is not None:
                    new_instrs.append(IrInstr("assign", dest=call_ins.dest,
                                              args=(ins.args[0],),
                                              line=ins.line,
                                              inline_suffix=ins.inline_suffix))
            else:
                new_instrs.append(ins)
        cb.instrs = new_instrs
        if cb.term.kind == "return" and not _is_sink(cb):
            cb.term = Terminator("goto", (cont.idx,))

    block.instrs = before + binds
    block.term = Terminator("goto", (offset + 0,))
    fn.blocks.extend(cloned)
    fn.blocks.append(cont)


def _is_sink(block):
    return any(ins.kind == "revert_sink" for ins in block.instrs)


def inline_internal_calls(program):
    """Inline every call site; the result contains public functions only.
    A function with no call site is kept as lowered, not copied: inlining
    only reads a callee, and nothing downstream writes to a function."""
    counter = [0]

    # inline bottom-up so callee bodies are call-free before they are copied
    edges = _call_graph(program)
    order = _callees_first(edges)

    result = {}
    for name in order:
        fn = program.function(name)
        if not edges[name]:
            result[name] = fn
            continue
        clone = IrFunction(fn.name, list(fn.params), fn.ret, fn.visibility,
                           [Block(b.idx, list(b.instrs),
                                  Terminator(b.term.kind, tuple(b.term.targets)))
                            for b in fn.blocks],
                           is_constructor=fn.is_constructor)
        _inline_into(clone, result, counter)
        result[name] = clone

    publics = [result[fn.name] for fn in program.functions
               if fn.visibility == "public"]
    return IrProgram(program.name, list(program.state_vars),
                     result[CONSTRUCTOR], publics)
