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
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from minisol.concretize import Transaction, TransactionSequence
from minisol.errors import ReplayError
from minisol.ir import CONSTRUCTOR, IrProgram
from minisol.lang import (BOOL, U256 as _U256, Assign, AssertStmt, Binary,
                          Call, ContractAst, ExprStmt, Ident, If, Index,
                          Require, Return, Unary, VarDecl, While, mask)
from minisol.oracle import (EvmState, Interpreter, _binary, _Env,
                            _eval_expr, _Revert, _wrap)


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
    """Assignment targets of an SsaScript, in clause order."""
    return [c[1] for c in script.clauses if c[0] == "def"]


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
                value = _binary(stmt.op[0], cur, _wrap(value, _U256), 256)
            table[key] = _wrap(value, _U256)

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
