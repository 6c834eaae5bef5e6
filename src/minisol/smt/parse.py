"""SMT-LIB 2 reader for the fragment the encoder emits.

Understands declare-const, declare-fun of arity 0, assert, check-sat,
get-value, set-logic/set-option/exit, and quantifier-free bitvector and
array terms (QF_ABV: ``select``, ``store`` and ``(as const (Array K V))``).
Anything else, quantifiers and functions of arity one or more among it,
raises :class:`SmtParseError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import BOOL, BV_BINOPS, BV_CMPS, BV_UNOPS, Ctx, SmtError, \
    array, bv


class SmtParseError(SmtError):
    pass


_OPERATORS = BV_BINOPS | BV_CMPS | BV_UNOPS | {
    "and", "or", "not", "xor", "=>", "=", "distinct", "ite", "concat",
    "select", "store"}


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(c)
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtParseError("unterminated quoted symbol")
            out.append(text[i + 1:j])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_sexprs(tokens):
    pos = 0
    out = []

    def read():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise SmtParseError("unbalanced parenthesis")
            pos += 1
            return items
        if tok == ")":
            raise SmtParseError("unexpected ')'")
        return tok

    while pos < len(tokens):
        out.append(read())
    return out


def parse_sort(sexp):
    if sexp == "Bool":
        return BOOL
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[0] == "_" \
            and sexp[1] == "BitVec":
        return bv(int(sexp[2]))
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[0] == "Array":
        return array(parse_sort(sexp[1]), parse_sort(sexp[2]))
    raise SmtParseError("unsupported sort %r" % (sexp,))


@dataclass
class Script:
    """A script's commands as terms; what ``solve.solve_commands`` reads
    and ``terms.print_script`` renders."""
    decls: dict = field(default_factory=dict)    # name -> sort
    asserts: list = field(default_factory=list)
    queries: list = field(default_factory=list)  # get-value terms, in order
    query_texts: list = field(default_factory=list)
    has_check: bool = False


def parse_script(text):
    ctx = Ctx()
    script = Script()
    for form in read_sexprs(tokenize(text)):
        if not isinstance(form, list) or not form:
            raise SmtParseError("top-level junk %r" % (form,))
        head = form[0]
        if head in ("set-logic", "set-option", "set-info", "exit"):
            continue
        if head == "declare-const":
            name, sort = form[1], parse_sort(form[2])
            script.decls[name] = sort
        elif head == "declare-fun":
            if form[2]:
                raise SmtParseError("functions are not supported: %r"
                                    % form[1])
            script.decls[form[1]] = parse_sort(form[3])
        elif head == "assert":
            script.asserts.append(
                ctx.checked("assert", parse_term(ctx, script, form[1])))
        elif head == "check-sat":
            script.has_check = True
        elif head == "get-value":
            for sexp in form[1]:
                script.queries.append(parse_term(ctx, script, sexp))
                script.query_texts.append(_render(sexp))
        else:
            raise SmtParseError("unsupported command %r" % head)
    return ctx, script


def _render(sexp):
    if isinstance(sexp, list):
        return "(%s)" % " ".join(_render(x) for x in sexp)
    return sexp


def _parse_const_atom(ctx, tok):
    if tok.startswith("#x"):
        return ctx.const(int(tok[2:], 16), 4 * (len(tok) - 2))
    if tok.startswith("#b"):
        return ctx.const(int(tok[2:], 2), len(tok) - 2)
    return None


def parse_term(ctx, script, sexp):
    if isinstance(sexp, str):
        if sexp == "true":
            return ctx.TRUE
        if sexp == "false":
            return ctx.FALSE
        c = _parse_const_atom(ctx, sexp)
        if c is not None:
            return c
        if sexp in script.decls:
            return ctx.var(sexp, script.decls[sexp])
        raise SmtParseError("undeclared symbol %r" % sexp)

    head = sexp[0]
    if head == "_":
        if len(sexp) == 3 and sexp[1].startswith("bv"):
            return ctx.const(int(sexp[1][2:]), int(sexp[2]))
        raise SmtParseError("unsupported indexed constant %r" % (sexp,))

    if isinstance(head, list) and len(head) == 3 and head[:2] == ["as",
                                                                  "const"]:
        sort = parse_sort(head[2])
        value = parse_term(ctx, script, sexp[1])
        if sort[0] != "array" or value.sort != sort[2]:
            raise SmtParseError("bad constant array %r" % (sexp,))
        return ctx.const_array(sort, value)

    if isinstance(head, list) and head and head[0] == "_":
        op = head[1]
        arg = parse_term(ctx, script, sexp[1])
        if op == "extract":
            hi, lo = int(head[2]), int(head[3])
            return ctx.mk("extract", arg, val=(hi, lo))
        if op in ("zero_extend", "sign_extend"):
            return ctx.mk(op, arg, val=int(head[2]))
        raise SmtParseError("unsupported indexed operator %r" % op)

    if not isinstance(head, str) or head not in _OPERATORS:
        # refused before its arguments are read: a quantifier's are binders
        raise SmtParseError("unsupported operator %r" % (head,))
    args = [parse_term(ctx, script, x) for x in sexp[1:]]

    if head in ("and", "or"):
        if not args:
            return ctx.TRUE if head == "and" else ctx.FALSE
        return ctx.mk(head, *args)
    if head == "not":
        return ctx.mk("not", args[0])
    if head == "xor":
        return ctx.mk("xor", *args)
    if head == "=>":
        term = args[-1]
        for a in reversed(args[:-1]):
            term = ctx.mk("=>", a, term)
        return term
    if head == "=":
        pairs = [ctx.mk("=", args[i], args[i + 1])
                 for i in range(len(args) - 1)]
        return pairs[0] if len(pairs) == 1 else ctx.mk("and", *pairs)
    if head == "distinct":
        pairs = []
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                pairs.append(ctx.mk("distinct", args[i], args[j]))
        return pairs[0] if len(pairs) == 1 else ctx.mk("and", *pairs)
    if head == "ite":
        return ctx.mk("ite", *args)
    if head in BV_BINOPS or head in BV_CMPS or head in ("select", "store"):
        return ctx.checked(head, *args)
    if head in BV_UNOPS:
        return ctx.mk(head, args[0])
    if head == "concat":
        return ctx.mk("concat", *args)
    raise SmtParseError("unsupported operator %r" % head)
