"""MiniSol frontend: lexing, recursive-descent parsing, and checking.

`parse_contract` returns a fully validated :class:`~minisol.lang.ContractAst`
with every expression typed and every identifier resolved to a binding.
`extract_targets` scans for ``// @target [expr]`` trailing annotations and
resolves each optional safety expression in the scope of its line, in an
AST the caller has already parsed when it passes one.

Anything outside the grammar is rejected with :class:`ParseError` or
:class:`SemanticError`; no construct is ever silently dropped.
"""

from __future__ import annotations

import re

from .errors import ParseError, SemanticError, TargetError
from .lang import (ADDRESS, BOOL, ENV_TYPES, NUM_ACCOUNTS, SCALAR_TYPES, U256,
                   AddressLit, Assign, AssertStmt, Binary, BoolLit, Call,
                   ContractAst, EnvRead, Expr, ExprStmt, FunctionDecl, Ident,
                   If, Index, IntLit, MsType, Require, Return, StateVar, Stmt,
                   TargetSpec, Unary, VarDecl, While, array_type,
                   enclosing_function, mapping_type, statement_at)

KEYWORDS = {"contract", "function", "constructor", "returns", "public",
            "private", "internal", "if", "else", "while", "return", "require",
            "assert", "true", "false", "mapping", "msg", "tx", "block"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<num>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>=>|\+=|-=|==|!=|<=|>=|&&|\|\||[{}()\[\];,.<>=+\-*/%!])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind            # 'num' | 'ident' | 'kw' | punctuation | 'eof'
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)@%d:%d" % (self.kind, self.text, self.line, self.col)


_KEYWORD_TEXTS = frozenset(KEYWORDS) | frozenset(SCALAR_TYPES)

# The parser looks at most this many tokens past the current one.
LOOKAHEAD = 1


def tokenize(source):
    """The tokens of `source`, in one pass of `_TOKEN_RE`.  The list ends in
    ``LOOKAHEAD + 1`` eof tokens, so that `Parser.peek` never runs off it."""
    tokens = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        if m.start() != pos:        # the search skipped an unmatched character
            break
        kind = m.lastgroup
        text = m.group()
        if kind == "ident":
            append(Token("kw" if text in _KEYWORD_TEXTS else "ident", text,
                         line, pos - line_start + 1))
        elif kind == "punct":
            append(Token(text, text, line, pos - line_start + 1))
        elif kind == "num":
            append(Token("num", text, line, pos - line_start + 1))
        elif kind == "nl":
            line += 1
            line_start = pos + 1
        pos = m.end()
    if pos < len(source):
        raise ParseError("unexpected character %r" % source[pos], line,
                         pos - line_start + 1)
    tokens.extend([Token("eof", "", line, pos - line_start + 1)]
                  * (LOOKAHEAD + 1))
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None):
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind, text=None):
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError("expected %r, found %r" % (want, tok.text or "<eof>"),
                             tok.line, tok.col)
        return self.next()

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- declarations ------------------------------------------------------

    def parse_contract(self):
        self.expect("kw", "contract")
        name = self.expect("ident").text
        self.expect("{")
        state_vars, functions, constructor = [], [], None
        while not self.at("}"):
            if self.at("eof"):
                self.error("unexpected end of file inside contract body")
            if self.at("kw", "function"):
                functions.append(self.parse_function())
            elif self.at("kw", "constructor"):
                if constructor is not None:
                    self.error("duplicate constructor")
                constructor = self.parse_constructor()
            elif self.type_starts():
                state_vars.append(self.parse_state_var())
            else:
                self.error("unsupported construct %r in contract body"
                           % self.peek().text)
        self.expect("}")
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("trailing input after contract", tok.line, tok.col)
        return ContractAst(name, state_vars, constructor, functions, 0)

    def type_starts(self):
        tok = self.peek()
        return tok.kind == "kw" and (tok.text in SCALAR_TYPES or tok.text == "mapping")

    def parse_type(self, allow_complex):
        tok = self.expect("kw")
        if tok.text == "mapping":
            if not allow_complex:
                raise ParseError("mapping is only allowed for state variables",
                                 tok.line, tok.col)
            self.expect("(")
            key_tok = self.expect("kw")
            key = SCALAR_TYPES.get(key_tok.text)
            if key not in (U256, ADDRESS) or key_tok.text == "bool":
                raise ParseError("mapping keys must be uint256 or address",
                                 key_tok.line, key_tok.col)
            self.expect("=>")
            val_tok = self.expect("kw")
            if SCALAR_TYPES.get(val_tok.text) is not U256:
                raise ParseError("mapping values must be uint256",
                                 val_tok.line, val_tok.col)
            self.expect(")")
            return mapping_type(key)
        if tok.text not in SCALAR_TYPES:
            raise ParseError("unknown type %r" % tok.text, tok.line, tok.col)
        base = SCALAR_TYPES[tok.text]
        if self.at("["):
            if not allow_complex:
                raise ParseError("arrays are only allowed for state variables",
                                 tok.line, tok.col)
            if base is not U256:
                raise ParseError("only uint256 arrays are supported",
                                 tok.line, tok.col)
            self.next()
            length = int(self.expect("num").text)
            if length <= 0:
                raise ParseError("array length must be positive", tok.line, tok.col)
            self.expect("]")
            return array_type(length)
        return base

    def parse_state_var(self):
        first = self.peek()
        type_ = self.parse_type(allow_complex=True)
        if self.at("kw", "public") or self.at("kw", "private"):
            self.next()                      # visibility on state is cosmetic
        name = self.expect("ident").text
        init = None
        if self.at("="):
            self.next()
            init = self.parse_expr()
            if not type_.is_scalar:
                raise ParseError("mappings and arrays cannot have initializers",
                                 first.line, first.col)
        self.expect(";")
        return StateVar(name, type_, init, first.line)

    def parse_params(self):
        self.expect("(")
        params = []
        while not self.at(")"):
            if params:
                self.expect(",")
            type_ = self.parse_type(allow_complex=False)
            name = self.expect("ident").text
            params.append((name, type_))
        self.expect(")")
        return params

    def parse_function(self):
        first = self.expect("kw", "function")
        name = self.expect("ident").text
        params = self.parse_params()
        visibility = None
        ret = None
        while True:
            if self.at("kw", "public") or self.at("kw", "internal"):
                if visibility is not None:
                    self.error("duplicate visibility")
                visibility = self.next().text
            elif self.at("kw", "private"):
                self.error("unsupported construct 'private' function "
                           "(use internal)")
            elif self.at("kw", "returns"):
                self.next()
                self.expect("(")
                ret = self.parse_type(allow_complex=False)
                self.expect(")")
            else:
                break
        if visibility is None:
            visibility = "public"
        body = self.parse_block()
        return FunctionDecl(name, params, ret, visibility, body, first.line)

    def parse_constructor(self):
        first = self.expect("kw", "constructor")
        params = self.parse_params()
        if self.at("kw", "public"):
            self.next()
        body = self.parse_block()
        return FunctionDecl("<constructor>", params, None, "public", body,
                            first.line, is_constructor=True)

    # -- statements ----------------------------------------------------------

    def parse_block(self):
        self.expect("{")
        body = []
        while not self.at("}"):
            if self.at("eof"):
                self.error("unexpected end of file inside block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    def parse_statement(self):
        tok = self.peek()
        if self.at("{"):
            self.error("unsupported construct: bare block statement")
        if self.type_starts():
            type_ = self.parse_type(allow_complex=False)
            name = self.expect("ident").text
            init = None
            if self.at("="):
                self.next()
                init = self.parse_expr()
            self.expect(";")
            return VarDecl(name, type_, init, line=tok.line)
        if self.at("kw", "if"):
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_body_or_single()
            orelse = []
            if self.at("kw", "else"):
                self.next()
                orelse = self.parse_body_or_single()
            return If(cond, then, orelse, line=tok.line)
        if self.at("kw", "while"):
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_body_or_single()
            return While(cond, body, line=tok.line)
        if self.at("kw", "return"):
            self.next()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            return Return(value, line=tok.line)
        if self.at("kw", "require") or self.at("kw", "assert"):
            which = self.next().text
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            cls = Require if which == "require" else AssertStmt
            return cls(cond, line=tok.line)
        if self.at("ident"):
            if self.peek(1).kind == "(":
                call = self.parse_expr()
                if not isinstance(call, Call):
                    self.error("expected call statement")
                self.expect(";")
                return ExprStmt(call, line=tok.line)
            target = self.parse_postfix()
            if not isinstance(target, (Ident, Index)):
                self.error("invalid assignment target")
            if self.at("=") or self.at("+=") or self.at("-="):
                op = self.next().text
                value = self.parse_expr()
                self.expect(";")
                return Assign(target, op, value, line=tok.line)
            self.error("expected assignment or call")
        self.error("unsupported construct %r" % (tok.text or "<eof>"))

    def parse_body_or_single(self):
        if self.at("{"):
            return self.parse_block()
        return [self.parse_statement()]

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        e = self.parse_and()
        while self.at("||"):
            tok = self.next()
            e = Binary("||", e, self.parse_and(), line=tok.line, col=tok.col)
        return e

    def parse_and(self):
        e = self.parse_cmp()
        while self.at("&&"):
            tok = self.next()
            e = Binary("&&", e, self.parse_cmp(), line=tok.line, col=tok.col)
        return e

    def parse_cmp(self):
        e = self.parse_add()
        if self.peek().kind in ("==", "!=", "<", "<=", ">", ">="):
            tok = self.next()
            e = Binary(tok.kind, e, self.parse_add(), line=tok.line, col=tok.col)
        return e

    def parse_add(self):
        e = self.parse_mul()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            e = Binary(tok.kind, e, self.parse_mul(), line=tok.line, col=tok.col)
        return e

    def parse_mul(self):
        e = self.parse_unary()
        while self.peek().kind in ("*", "/", "%"):
            tok = self.next()
            e = Binary(tok.kind, e, self.parse_unary(), line=tok.line, col=tok.col)
        return e

    def parse_unary(self):
        if self.at("!"):
            tok = self.next()
            return Unary("!", self.parse_unary(), line=tok.line, col=tok.col)
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return IntLit(int(tok.text), line=tok.line, col=tok.col)
        if self.at("kw", "true") or self.at("kw", "false"):
            self.next()
            return BoolLit(tok.text == "true", line=tok.line, col=tok.col)
        if self.at("kw", "address"):
            self.next()
            self.expect("(")
            num = self.expect("num")
            self.expect(")")
            idx = int(num.text)
            if idx >= NUM_ACCOUNTS:
                raise ParseError("address literal outside the A0..A%d universe"
                                 % (NUM_ACCOUNTS - 1), num.line, num.col)
            return AddressLit(idx, line=tok.line, col=tok.col)
        if self.at("kw", "msg") or self.at("kw", "tx") or self.at("kw", "block"):
            head = self.next().text
            self.expect(".")
            member = self.expect("ident").text
            which = "%s.%s" % (head, member)
            if which not in ENV_TYPES:
                raise ParseError("unknown environment variable %r" % which,
                                 tok.line, tok.col)
            return EnvRead(which, line=tok.line, col=tok.col)
        if self.at("("):
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("ident"):
            return self.parse_postfix()
        self.error("expected expression, found %r" % (tok.text or "<eof>"))

    def parse_postfix(self):
        tok = self.expect("ident")
        base = Ident(tok.text, line=tok.line, col=tok.col)
        if self.at("["):
            self.next()
            index = self.parse_expr()
            self.expect("]")
            return Index(base, index, line=tok.line, col=tok.col)
        if self.at("("):
            self.next()
            args = []
            while not self.at(")"):
                if args:
                    self.expect(",")
                args.append(self.parse_expr())
            self.expect(")")
            return Call(tok.text, args, line=tok.line, col=tok.col)
        return base


# ---------------------------------------------------------------------------
# Checking: scopes, slots, types
# ---------------------------------------------------------------------------

class _Scope:
    def __init__(self, parent=None):
        self.parent = parent
        self.names = {}            # source name -> (slot, MsType, kind)

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class Checker:
    """Resolves identifiers to slots and annotates every expression type."""

    def __init__(self, ast):
        self.ast = ast
        self.state = {sv.name: sv.type_ for sv in ast.state_vars}
        self.functions = {fn.name: fn for fn in ast.functions}

    def run(self):
        seen = set()
        for sv in self.ast.state_vars:
            if sv.name in seen:
                raise SemanticError("duplicate state variable %r" % sv.name,
                                    sv.line)
            seen.add(sv.name)
            if sv.init is not None:
                t = self.check_expr(sv.init, _Scope(), "<init>")
                self._require_assignable(sv.type_, t, sv.init)
        names = set()
        for fn in self.ast.functions:
            if fn.name in names:
                raise SemanticError("duplicate function %r" % fn.name, fn.line)
            names.add(fn.name)
        for fn in self.ast.functions:
            self.check_function(fn)
        if self.ast.constructor is not None:
            self.check_function(self.ast.constructor)

    def check_function(self, fn):
        scope = _Scope()
        seen = set()
        for name, type_ in fn.params:
            if name in seen:
                raise SemanticError("duplicate parameter %r in %s"
                                    % (name, fn.name), fn.line)
            seen.add(name)
            scope.names[name] = (name, type_, "param")
        self._slot_counts = {name: 1 for name, _ in fn.params}
        self.check_body(fn.body, scope, fn)

    def check_body(self, body, scope, fn):
        for stmt in body:
            self.check_stmt(stmt, scope, fn)

    def _new_slot(self, name):
        count = self._slot_counts.get(name, 0)
        self._slot_counts[name] = count + 1
        return name if count == 0 else "%s@%d" % (name, count + 1)

    def check_stmt(self, stmt, scope, fn):
        if isinstance(stmt, VarDecl):
            if stmt.name in scope.names:
                raise SemanticError("redeclaration of %r in the same scope"
                                    % stmt.name, stmt.line)
            if stmt.init is not None:
                t = self.check_expr(stmt.init, scope, fn.name)
                self._require_assignable(stmt.type_, t, stmt.init)
            stmt.slot = self._new_slot(stmt.name)
            scope.names[stmt.name] = (stmt.slot, stmt.type_, "local")
        elif isinstance(stmt, Assign):
            tt = self.check_expr(stmt.target, scope, fn.name, lvalue=True)
            vt = self.check_expr(stmt.value, scope, fn.name)
            if stmt.op in ("+=", "-=") and not tt.is_numeric:
                raise SemanticError("compound assignment needs a numeric "
                                    "target", stmt.line)
            self._require_assignable(tt, vt, stmt.value)
        elif isinstance(stmt, If):
            self._require_bool(self.check_expr(stmt.cond, scope, fn.name),
                               stmt.cond)
            self.check_body(stmt.then, _Scope(scope), fn)
            self.check_body(stmt.orelse, _Scope(scope), fn)
        elif isinstance(stmt, While):
            self._require_bool(self.check_expr(stmt.cond, scope, fn.name),
                               stmt.cond)
            self.check_body(stmt.body, _Scope(scope), fn)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                if fn.ret is None:
                    raise SemanticError("%s returns no value" % fn.name,
                                        stmt.line)
                t = self.check_expr(stmt.value, scope, fn.name)
                self._require_assignable(fn.ret, t, stmt.value)
            elif fn.ret is not None:
                raise SemanticError("%s must return a value" % fn.name,
                                    stmt.line)
        elif isinstance(stmt, (Require, AssertStmt)):
            self._require_bool(self.check_expr(stmt.cond, scope, fn.name),
                               stmt.cond)
        elif isinstance(stmt, ExprStmt):
            self.check_expr(stmt.call, scope, fn.name)
        else:
            raise SemanticError("unsupported statement %r" % stmt, stmt.line)

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e, scope, where, lvalue=False):
        if isinstance(e, IntLit):
            if e.value >= (1 << 256):
                raise SemanticError("integer literal does not fit uint256",
                                    e.line)
            e.type_ = None            # adapts to context; defaults to uint256
            return e.type_
        if isinstance(e, BoolLit):
            e.type_ = BOOL
            return BOOL
        if isinstance(e, AddressLit):
            e.type_ = ADDRESS
            return ADDRESS
        if isinstance(e, EnvRead):
            e.type_ = ENV_TYPES[e.which]
            return e.type_
        if isinstance(e, Ident):
            hit = scope.lookup(e.name)
            if hit is not None:
                e.slot, e.type_, e.binding = hit
                if not e.type_.is_scalar:
                    raise SemanticError("%r is not a scalar" % e.name, e.line)
                return e.type_
            if e.name in self.state:
                e.binding, e.slot = "state", e.name
                e.type_ = self.state[e.name]
                if not e.type_.is_scalar and not lvalue:
                    raise SemanticError("%r must be indexed" % e.name, e.line)
                if not e.type_.is_scalar and lvalue:
                    raise SemanticError("cannot assign whole %s" % e.type_,
                                        e.line)
                return e.type_
            raise SemanticError("unknown identifier %r in %s" % (e.name, where),
                                e.line)
        if isinstance(e, Index):
            if e.base.name not in self.state:
                raise SemanticError("unknown mapping or array %r" % e.base.name,
                                    e.base.line)
            bt = self.state[e.base.name]
            if bt.kind not in ("mapping", "array"):
                raise SemanticError("%r is not indexable" % e.base.name, e.line)
            e.base.binding, e.base.slot, e.base.type_ = "state", e.base.name, bt
            it = self.check_expr(e.index, scope, where)
            key_type = bt.key if bt.kind == "mapping" else U256
            if key_type is ADDRESS:
                if it is not ADDRESS:
                    raise SemanticError("%r expects an address key"
                                        % e.base.name, e.line)
            else:
                self._require_numeric(it, e.index, allow_untyped=True)
            e.type_ = bt.value
            return e.type_
        if isinstance(e, Unary):
            t = self.check_expr(e.operand, scope, where)
            self._require_bool(t, e.operand)
            e.type_ = BOOL
            return BOOL
        if isinstance(e, Binary):
            lt = self.check_expr(e.lhs, scope, where)
            rt = self.check_expr(e.rhs, scope, where)
            e.type_ = self._binary_type(e, lt, rt)
            return e.type_
        if isinstance(e, Call):
            fn = self.functions.get(e.name)
            if fn is None:
                raise SemanticError("call to undefined function %r" % e.name,
                                    e.line)
            if len(e.args) != len(fn.params):
                raise SemanticError("%s expects %d arguments, got %d"
                                    % (e.name, len(fn.params), len(e.args)),
                                    e.line)
            for arg, (_, pt) in zip(e.args, fn.params):
                at = self.check_expr(arg, scope, where)
                self._require_assignable(pt, at, arg)
            e.type_ = fn.ret
            return fn.ret
        raise SemanticError("unsupported expression %r" % e, getattr(e, "line", 0))

    def _binary_type(self, e, lt, rt):
        op = e.op
        if op in ("&&", "||"):
            self._require_bool(lt, e.lhs)
            self._require_bool(rt, e.rhs)
            return BOOL
        if op in ("==", "!="):
            if lt is BOOL or rt is BOOL:
                self._require_bool(lt, e.lhs)
                self._require_bool(rt, e.rhs)
                return BOOL
            if lt is ADDRESS or rt is ADDRESS:
                if not (lt is ADDRESS and rt is ADDRESS):
                    raise SemanticError("address compared with non-address",
                                        e.line)
                return BOOL
            self._arith_width(e, lt, rt)
            return BOOL
        if op in ("<", "<=", ">", ">="):
            self._arith_width(e, lt, rt)
            return BOOL
        # + - * / %
        width = self._arith_width(e, lt, rt)
        return SCALAR_TYPES["uint%d" % width]

    def _arith_width(self, e, lt, rt):
        """Common width of a numeric binary: max of operand widths; untyped
        literals adapt.  Records the width on the node for lowering."""
        for t, operand in ((lt, e.lhs), (rt, e.rhs)):
            if t is not None:
                self._require_numeric(t, operand)
        widths = [t.width for t in (lt, rt) if t is not None]
        width = max(widths) if widths else 256
        for operand, t in ((e.lhs, lt), (e.rhs, rt)):
            if t is None:
                operand.type_ = SCALAR_TYPES["uint%d" % width]
                if operand.value > (1 << width) - 1:
                    raise SemanticError("literal %d does not fit uint%d"
                                        % (operand.value, width), operand.line)
        e.width = width
        return width

    def _require_bool(self, t, e):
        if t is not BOOL:
            raise SemanticError("expected a boolean expression", e.line)

    def _require_numeric(self, t, e, allow_untyped=False):
        if t is None:
            if allow_untyped:
                e.type_ = U256
                return
            t = U256
        if not t.is_numeric:
            raise SemanticError("expected a numeric expression", e.line)

    def _require_assignable(self, dst, src, value_expr):
        if src is None:                      # untyped literal: adapt
            if not dst.is_numeric:
                raise SemanticError("integer literal cannot initialize %s"
                                    % dst, value_expr.line)
            if value_expr.value > (1 << dst.width) - 1:
                raise SemanticError("literal %d does not fit %s"
                                    % (value_expr.value, dst), value_expr.line)
            value_expr.type_ = dst
            return
        if dst.is_numeric and src.is_numeric:
            return                           # widen or truncate on assignment
        if dst is not src:
            raise SemanticError("cannot assign %s to %s" % (src, dst),
                                value_expr.line)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse_contract(source):
    """Parse and validate MiniSol source, returning the annotated AST."""
    tokens = tokenize(source)
    ast = Parser(tokens).parse_contract()
    ast.source_lines = source.count("\n") + 1
    if ast.constructor is None:
        ast.constructor = FunctionDecl("<constructor>", [], None, "public", [],
                                       0, is_constructor=True)
    Checker(ast).run()
    return ast


_TARGET_RE = re.compile(r"//\s*@target(?:[ \t]+(?P<expr>.*\S))?[ \t]*$")


def target_markers(source):
    """(line, safety text or None) of each ``// @target [expr]`` annotation,
    in line order; the source is not parsed."""
    markers = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _TARGET_RE.search(text)
        if m is not None:
            markers.append((lineno, m.group("expr")))
    return markers


def extract_targets(source, ast=None):
    """One TargetSpec per ``// @target [expr]`` annotation, in line order.
    `ast` is `parse_contract(source)` when the caller has it; otherwise the
    source is parsed here, and only if it has an annotation."""
    markers = target_markers(source)
    if not markers:
        return []
    if ast is None:
        ast = parse_contract(source)
    specs = []
    for lineno, expr_text in markers:
        stmt = statement_at(ast, lineno)
        if stmt is None:
            raise TargetError("line %d: @target must sit on a statement line"
                              % lineno)
        safety = None
        if expr_text is not None:
            safety = parse_expression_at(ast, lineno, expr_text)
            if safety.type_ is not BOOL:
                raise TargetError("line %d: safety expression must be boolean"
                                  % lineno)
        specs.append(TargetSpec(lineno, safety, expr_text))
    return specs


def scope_at(ast, line):
    """Bindings visible to a statement at `line`: state variables plus the
    enclosing function's parameters and the locals declared strictly before
    the line, innermost scope winning."""
    fn = enclosing_function(ast, line)
    if fn is None:
        raise TargetError("line %d has no enclosing function" % line)
    bindings = {}
    for name, type_ in fn.params:
        bindings[name] = (name, type_, "param")

    found = _scope_walk(fn.body, dict(bindings), line)
    if found is None:
        raise TargetError("line %d is not a statement line" % line)
    return fn, found


def _scope_walk(body, local, line):
    """The bindings `local` holds at the first statement of `body` (nested
    ones included) on `line`, each declaration before it added; None when
    there is none."""
    for stmt in body:
        if stmt.line == line:
            return dict(local)
        if isinstance(stmt, VarDecl) and stmt.line < line:
            local[stmt.name] = (stmt.slot, stmt.type_, "local")
        found = None
        if isinstance(stmt, If):
            found = _scope_walk(stmt.then, dict(local), line)
            if found is None:
                found = _scope_walk(stmt.orelse, dict(local), line)
        elif isinstance(stmt, While):
            found = _scope_walk(stmt.body, dict(local), line)
        if found is not None:
            return found
    return None


def parse_expression_at(ast, line, text):
    """Parse `text` as an expression and resolve it in the scope at `line`.
    Function calls are rejected: condition expressions must be pure."""
    try:
        tokens = tokenize(text)
        parser = Parser(tokens)
        expr = parser.parse_expr()
        if parser.peek().kind != "eof":
            parser.error("trailing input after expression")
    except ParseError as exc:
        raise TargetError("line %d: cannot parse expression %r (%s)"
                          % (line, text, exc)) from exc
    fn, visible = scope_at(ast, line)
    checker = Checker(ast)
    scope = _Scope()
    scope.names.update(visible)
    checker._slot_counts = {}
    try:
        checker.check_expr(expr, scope, "safety@%d" % line)
    except SemanticError as exc:
        raise TargetError("line %d: %s" % (line, exc)) from exc
    from .lang import Call, iter_exprs
    if any(isinstance(e, Call) for e in iter_exprs(expr)):
        raise TargetError("line %d: function calls are not allowed in "
                          "condition expressions" % line)
    if expr.type_ is None:                    # bare integer literal
        expr.type_ = U256
    _fix_lines(expr, line)
    return expr


def _fix_lines(expr, line):
    # fragment expressions were tokenized standalone; anchor them to the
    # annotated source line so the [1, source_lines] invariant holds
    from .lang import iter_exprs
    for e in iter_exprs(expr):
        e.line = line
