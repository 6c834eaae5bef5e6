"""Concrete replay: the ground-truth checker for everything upstream.

The interpreter executes the IR with EVM-flavored semantics: unsigned
wraparound at each declared width, zero-defaulted storage and map cells,
and transaction-level rollback when a require/assert/guard fails.  Replay
stops the moment execution is about to run an instruction on the target
line with the safety condition true there (evaluated against the
pre-instruction state).  Arrivals where the safety condition is false do
not stop execution; if the line is reached but no arrival ever satisfies
the condition, the report carries target_hit with safety_value False for
the first arrival.  Without a safety condition the first arrival stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .concretize import Transaction, TransactionSequence
from .errors import ReplayError
from .ir import CONSTRUCTOR, IrProgram
from .lang import (BOOL, NUM_ACCOUNTS, U256 as _U256, AddressLit, Binary,
                   BoolLit, EnvRead, Ident, Index, IntLit, Unary, mask)

INITIAL_BALANCE = 1 << 255


@dataclass
class EvmState:
    storage: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    balances: dict = field(default_factory=lambda: {
        i: INITIAL_BALANCE for i in range(NUM_ACCOUNTS)})
    contract_balance: int = 0
    deployed: bool = False

    def snapshot(self):
        return ({k: v for k, v in self.storage.items()},
                {m: dict(t) for m, t in self.maps.items()},
                dict(self.balances), self.contract_balance)

    def restore(self, snap):
        storage, maps, balances, cbal = snap
        self.storage = storage
        self.maps = maps
        self.balances = balances
        self.contract_balance = cbal


@dataclass
class ReplayReport:
    target_hit: bool = False
    safety_value: Optional[bool] = None
    hit_at_tx: int = -1
    final_storage: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)      # (tx index, line)
    reverted: list = field(default_factory=list)   # per-transaction flag

    def to_obj(self):
        return {
            "target_hit": self.target_hit,
            "safety_value": self.safety_value,
            "hit_at_tx": self.hit_at_tx,
            "reverted": self.reverted,
            "final_storage": {k: str(v) for k, v in
                              sorted(self.final_storage.items())},
            "trace": [[t, l] for t, l in self.trace],
        }


class _Revert(Exception):
    pass


class _TargetHit(Exception):
    def __init__(self, safety_value):
        self.safety_value = safety_value


class _Env:
    def __init__(self, tx: Transaction):
        self.sender = tx.caller_index
        self.value = tx.value
        self.origin = tx.caller_index
        self.timestamp = tx.timestamp


def _wrap(value, type_):
    if type_ is BOOL:
        return 1 if value else 0
    return value & mask(type_.bit_width)


def _binary(op, a, b, width):
    if op == "+":
        return (a + b) & mask(width)
    if op == "-":
        return (a - b) & mask(width)
    if op == "*":
        return (a * b) & mask(width)
    if op == "/":
        if b == 0:
            raise _Revert()
        return a // b
    if op == "%":
        if b == 0:
            raise _Revert()
        return a % b
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "&&":
        return 1 if a and b else 0
    if op == "||":
        return 1 if a or b else 0
    raise ReplayError("unknown operator %r" % op)


class Interpreter:
    """Executes IR transactions against an EvmState."""

    def __init__(self, program: IrProgram, target=None, step_limit=500000):
        self.program = program
        self.target = target
        self.step_limit = step_limit
        self._first_arrival = None

    def replay(self, seq: TransactionSequence) -> ReplayReport:
        report = ReplayReport()
        state = EvmState()
        self._first_arrival = None
        if not seq.transactions:
            raise ReplayError("empty transaction sequence")
        if seq.transactions[0].function != CONSTRUCTOR:
            raise ReplayError("sequence must start with the deployment")
        try:
            for i, tx in enumerate(seq.transactions):
                if i > 0 and tx.function == CONSTRUCTOR:
                    raise ReplayError("constructor can only run once")
                if i > 0 and not state.deployed:
                    report.reverted.append(True)
                    continue
                reverted = self._run_tx(i, tx, state, report)
                report.reverted.append(reverted)
                if i == 0 and not reverted:
                    state.deployed = True
        except _TargetHit:
            report.reverted.append(False)
            report.target_hit = True
            report.safety_value = True
            report.hit_at_tx = len(report.reverted) - 1
        else:
            if self._first_arrival is not None:
                # line was reached but no arrival satisfied the condition
                report.target_hit = True
                report.safety_value = False
                report.hit_at_tx = self._first_arrival
        report.final_storage = self._storage_snapshot(state)
        return report

    def _storage_snapshot(self, state):
        out = dict(state.storage)
        for name, table in state.maps.items():
            for key, value in table.items():
                if value != 0:
                    out["%s[%d]" % (name, key)] = value
        return out

    def _run_tx(self, index, tx, state, report):
        if tx.function == CONSTRUCTOR:
            fn = self.program.constructor
        else:
            fn = self.program.function(tx.function)
            if fn is None or fn.visibility != "public":
                raise ReplayError("unknown public function %r" % tx.function)
        if len(tx.args) != len(fn.params):
            raise ReplayError("%s expects %d args, got %d"
                              % (tx.function, len(fn.params), len(tx.args)))
        env = _Env(tx)
        snap = state.snapshot()
        state.balances[env.sender] = _wrap(
            state.balances.get(env.sender, 0) - tx.value, _U256)
        state.contract_balance = _wrap(state.contract_balance + tx.value,
                                       _U256)
        locals_ = {}
        for (pname, ptype), arg in zip(fn.params, tx.args):
            locals_[pname] = _wrap(arg, ptype)
        try:
            self._exec_fn(fn, index, state, locals_, env, report)
            return False
        except _Revert:
            state.restore(snap)
            return True

    def _exec_fn(self, fn, tx_index, state, locals_, env, report):
        steps = 0
        block = fn.blocks[0]
        while True:
            cond_value = None
            for ins in block.instrs:
                steps += 1
                if steps > self.step_limit:
                    raise ReplayError("step limit exceeded in %s" % fn.name)
                if self.target is not None and ins.line == self.target.line:
                    if self._eval_safety(ins, state, locals_, env):
                        raise _TargetHit(True)
                    if self._first_arrival is None:
                        self._first_arrival = tx_index
                if ins.line is not None:
                    report.trace.append((tx_index, ins.line))
                cond_value = self._exec_instr(ins, state, locals_, env)
            term = block.term
            if term.kind == "return":
                return
            if term.kind == "goto":
                block = fn.blocks[term.targets[0]]
            elif term.kind == "branch":
                if cond_value is None:
                    raise ReplayError("branch without a condition value")
                block = fn.blocks[term.targets[0] if cond_value
                                  else term.targets[1]]
            else:
                raise ReplayError("unknown terminator %r" % term.kind)

    def _exec_instr(self, ins, state, locals_, env):
        kind = ins.kind
        if kind == "assign":
            value = self._read(ins.args[0], state, locals_, env)
            self._write(ins.dest, _wrap(value, ins.dest.type_), state, locals_)
            return None
        if kind == "binary":
            a = self._read(ins.args[0], state, locals_, env)
            b = self._read(ins.args[1], state, locals_, env)
            width = ins.args[0].type_.bit_width
            value = _binary(ins.op, a, b, width)
            self._write(ins.dest, value, state, locals_)
            return None
        if kind == "unary":
            a = self._read(ins.args[0], state, locals_, env)
            self._write(ins.dest, 0 if a else 1, state, locals_)
            return None
        if kind == "index_read":
            key = self._read(ins.args[0], state, locals_, env)
            value = state.maps.get(ins.map, {}).get(key, 0)
            self._write(ins.dest, value, state, locals_)
            return None
        if kind == "index_write":
            key = self._read(ins.args[0], state, locals_, env)
            value = self._read(ins.args[1], state, locals_, env)
            state.maps.setdefault(ins.map, {})[key] = value
            return None
        if kind in ("condition", "require", "assert"):
            return bool(self._read(ins.args[0], state, locals_, env))
        if kind == "return":
            return None
        if kind == "revert_sink":
            raise _Revert()
        raise ReplayError("cannot execute instruction kind %r" % kind)

    def _read(self, op, state, locals_, env):
        if op.kind == "lit":
            return op.value
        if op.kind == "state":
            return state.storage.get(op.name, 0)
        if op.kind == "env":
            return {"msg.sender": env.sender, "msg.value": env.value,
                    "tx.origin": env.origin,
                    "block.timestamp": env.timestamp}[op.name]
        if op.name in locals_:
            return locals_[op.name]
        raise ReplayError("read of undefined local %r" % op.name)

    def _write(self, op, value, state, locals_):
        if op.kind == "state":
            state.storage[op.name] = value
        else:
            locals_[op.name] = value

    def _eval_safety(self, arrival_ins, state, locals_, env):
        if self.target is None or self.target.safety is None:
            return True
        suffix = arrival_ins.inline_suffix
        return bool(_eval_expr(self.target.safety, state, locals_, env,
                               suffix))


def _eval_expr(e, state, locals_, env, suffix=""):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return 1 if e.value else 0
    if isinstance(e, AddressLit):
        return e.index
    if isinstance(e, EnvRead):
        return {"msg.sender": env.sender, "msg.value": env.value,
                "tx.origin": env.origin,
                "block.timestamp": env.timestamp}[e.which]
    if isinstance(e, Ident):
        if e.binding == "state":
            return state.storage.get(e.name, 0)
        slot = e.slot + suffix
        if slot in locals_:
            return locals_[slot]
        raise ReplayError("safety reads undefined local %r" % e.name)
    if isinstance(e, Index):
        key = _eval_expr(e.index, state, locals_, env, suffix)
        return state.maps.get(e.base.name, {}).get(key, 0)
    if isinstance(e, Unary):
        return 0 if _eval_expr(e.operand, state, locals_, env, suffix) else 1
    if isinstance(e, Binary):
        a = _eval_expr(e.lhs, state, locals_, env, suffix)
        b = _eval_expr(e.rhs, state, locals_, env, suffix)
        width = getattr(e, "width", 256)
        return _binary(e.op, a, b, width)
    raise ReplayError("cannot evaluate %r" % e)


def replay(program: IrProgram, seq: TransactionSequence,
           target=None, step_limit=500000) -> ReplayReport:
    """Replay a sequence; report whether (and where) the target line was
    reached and what the safety condition evaluated to at that point."""
    return Interpreter(program, target, step_limit).replay(seq)
