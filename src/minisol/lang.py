"""MiniSol types and abstract syntax.

MiniSol is a small Solidity-like contract language: one contract per file,
typed state variables (bool, uint8/uint16/uint256, address, single-level
mappings, fixed-size uint256 arrays), public/internal functions, and a
C-like statement and expression core.  All arithmetic is unsigned and wraps
modulo 2^width, matching EVM storage semantics.

The nodes here are produced by :mod:`minisol.frontend`; after checking,
every expression carries its inferred type and every identifier carries its
resolved binding (state variable, local slot, or parameter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MsType:
    kind: str                      # 'bool' | 'uint' | 'address' | 'mapping' | 'array'
    width: int = 0                 # value bit width for uint; 160 for address
    key: Optional["MsType"] = None    # mapping key type
    value: Optional["MsType"] = None  # mapping/array element type
    length: int = 0                # array length

    @property
    def is_numeric(self):
        return self.kind == "uint"

    @property
    def is_scalar(self):
        return self.kind in ("bool", "uint", "address")

    @property
    def bit_width(self):
        if self.kind == "uint":
            return self.width
        if self.kind == "address":
            return 160
        if self.kind == "bool":
            return 1
        raise ValueError("no bit width for %s" % self.kind)

    def __str__(self):
        if self.kind == "uint":
            return "uint%d" % self.width
        if self.kind == "mapping":
            return "mapping(%s => %s)" % (self.key, self.value)
        if self.kind == "array":
            return "uint256[%d]" % self.length
        return self.kind


BOOL = MsType("bool")
U8 = MsType("uint", 8)
U16 = MsType("uint", 16)
U256 = MsType("uint", 256)
ADDRESS = MsType("address", 160)

SCALAR_TYPES = {"bool": BOOL, "uint8": U8, "uint16": U16, "uint256": U256,
                "uint": U256, "address": ADDRESS}


def mapping_type(key):
    return MsType("mapping", key=key, value=U256)


def array_type(length):
    return MsType("array", value=U256, length=length)


def mask(width):
    return (1 << width) - 1


ENV_NAMES = ("msg.sender", "msg.value", "tx.origin", "block.timestamp")

ENV_TYPES = {"msg.sender": ADDRESS, "msg.value": U256,
             "tx.origin": ADDRESS, "block.timestamp": U256}

# Finite account universe: callers are always one of A0..A7 (addresses 0..7).
NUM_ACCOUNTS = 8
ACCOUNTS = tuple("A%d" % i for i in range(NUM_ACCOUNTS))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)
    type_: Optional[MsType] = field(default=None, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class AddressLit(Expr):
    index: int                    # address(n) literal, n in 0..7


@dataclass
class Ident(Expr):
    name: str
    binding: str = ""             # 'state' | 'local' | 'param' (set by checker)
    slot: str = ""                # unique slot name within the function


@dataclass
class EnvRead(Expr):
    which: str                    # one of ENV_NAMES


@dataclass
class Binary(Expr):
    op: str                       # + - * / % == != < <= > >= && ||
    lhs: Expr
    rhs: Expr


@dataclass
class Unary(Expr):
    op: str                       # only '!'
    operand: Expr


@dataclass
class Index(Expr):
    base: Ident                   # mapping or array state variable
    index: Expr


@dataclass
class Call(Expr):
    name: str
    args: list


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass
class VarDecl(Stmt):
    name: str
    type_: MsType
    init: Optional[Expr]
    slot: str = ""                # unique slot name (checker)


@dataclass
class Assign(Stmt):
    target: Expr                  # Ident or Index
    op: str                       # '=' | '+=' | '-='
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: list
    orelse: list


@dataclass
class While(Stmt):
    cond: Expr
    body: list


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class Require(Stmt):
    cond: Expr


@dataclass
class AssertStmt(Stmt):
    cond: Expr


@dataclass
class ExprStmt(Stmt):
    call: Call                    # bare function-call statement


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class StateVar:
    name: str
    type_: MsType
    init: Optional[Expr]
    line: int


@dataclass
class FunctionDecl:
    name: str
    params: list                  # list of (name, MsType)
    ret: Optional[MsType]
    visibility: str               # 'public' | 'internal'
    body: list
    line: int
    is_constructor: bool = False


@dataclass
class ContractAst:
    name: str
    state_vars: list
    constructor: Optional[FunctionDecl]
    functions: list
    source_lines: int

    def function(self, name):
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


@dataclass
class TargetSpec:
    line: int
    safety: Optional[Expr]
    safety_text: Optional[str] = None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def iter_exprs(node):
    """Yield every expression node below (and including) expressions in `node`."""
    if isinstance(node, Expr):
        yield node
        if isinstance(node, Binary):
            yield from iter_exprs(node.lhs)
            yield from iter_exprs(node.rhs)
        elif isinstance(node, Unary):
            yield from iter_exprs(node.operand)
        elif isinstance(node, Index):
            yield from iter_exprs(node.base)
            yield from iter_exprs(node.index)
        elif isinstance(node, Call):
            for a in node.args:
                yield from iter_exprs(a)
    elif isinstance(node, Stmt):
        for e in _stmt_exprs(node):
            yield from iter_exprs(e)
        for body in _stmt_bodies(node):
            for s in body:
                yield from iter_exprs(s)


def _stmt_exprs(stmt):
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, (If, While)):
        return [stmt.cond]
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (Require, AssertStmt)):
        return [stmt.cond]
    if isinstance(stmt, ExprStmt):
        return [stmt.call]
    return []


def _stmt_bodies(stmt):
    if isinstance(stmt, If):
        return [stmt.then, stmt.orelse]
    if isinstance(stmt, While):
        return [stmt.body]
    return []


def iter_statements(body):
    """Yield every statement in `body`, depth first, in source order."""
    for stmt in body:
        yield stmt
        for sub in _stmt_bodies(stmt):
            yield from iter_statements(sub)


def statement_at(ast, line):
    """First statement recorded at `line`, searching constructor then functions."""
    bodies = []
    if ast.constructor is not None:
        bodies.append(ast.constructor.body)
    bodies.extend(fn.body for fn in ast.functions)
    for body in bodies:
        for stmt in iter_statements(body):
            if stmt.line == line:
                return stmt
    return None


def enclosing_function(ast, line):
    """The function (or constructor) whose body contains a statement at `line`."""
    candidates = []
    if ast.constructor is not None:
        candidates.append(ast.constructor)
    candidates.extend(ast.functions)
    for fn in candidates:
        for stmt in iter_statements(fn.body):
            if stmt.line == line:
                return fn
    return None
