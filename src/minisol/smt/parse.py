"""SMT-LIB 2 reader for the fragment the encoder emits.

Understands declare-const, declare-fun of arity 0, assert, check-sat,
get-value, set-logic/set-option/exit, and quantifier-free bitvector and
array terms (QF_ABV: ``select``, ``store`` and ``(as const (Array K V))``).
Anything else, quantifiers and functions of arity one or more among it,
raises :class:`SmtParseError`.
"""

from __future__ import annotations

from functools import cached_property

from .terms import BOOL, BV_BINOPS, BV_CMPS, BV_UNOPS, Ctx, SmtError, \
    array, bv, print_script


class SmtParseError(SmtError):
    pass


_OPERATORS = BV_BINOPS | BV_CMPS | BV_UNOPS | {
    "and", "or", "not", "xor", "=>", "=", "distinct", "ite", "concat",
    "select", "store"}


# command -> its length as a list, head included
_COMMAND_LENGTHS = {"declare-const": 3, "declare-fun": 4, "assert": 2,
                    "check-sat": 1, "get-value": 2}


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
    """The s-expressions of `tokens`: a list for each parenthesized one, a
    string for each atom.  The lists still open are kept on a stack, so a
    deep nesting costs no recursion."""
    out = []
    stack = []                     # the open lists, innermost last
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SmtParseError("unexpected ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SmtParseError("unbalanced parenthesis")
    return out


def parse_sort(sexp):
    if sexp == "Bool":
        return BOOL
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[0] == "_" \
            and sexp[1] == "BitVec":
        return bv(_int(sexp[2]))
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[0] == "Array":
        return array(parse_sort(sexp[1]), parse_sort(sexp[2]))
    raise SmtParseError("unsupported sort %r" % (sexp,))


class Script:
    """One check's solver input, what ``solve.solve_commands`` reads: terms
    of the ``Ctx`` they were built in.  The assertions are `front` (a
    walk's moving clauses, or a list's every assertion) and the clauses of
    `chain`, whose last is the safety condition when there is one.
    `symbols`, when given, is a function giving the symbols they mention
    (name -> var term, in declaration order), and every scalar among them
    is queried.  The declarations, the queries and the text are built from
    it on first read, so a check that needs only sat or unsat builds none
    of them; ``parse_script`` sets them as it reads."""

    has_check = True

    def __init__(self, ctx, front, chain=None, symbols=None):
        self.ctx = ctx
        self.front = front
        self.chain = chain
        self._symbols = symbols or dict

    @cached_property
    def asserts(self):
        return [*self.front, *(self.chain or ())]

    @cached_property
    def decls(self):
        """Name -> sort of every symbol."""
        return {name: t.sort for name, t in self._symbols().items()}

    @cached_property
    def queries(self):
        """The get-value terms, in order: one per scalar symbol."""
        return [t for t in self._symbols().values() if t.sort[0] != "array"]

    @cached_property
    def query_texts(self):
        return [t.val for t in self.queries]

    @cached_property
    def text(self):
        """The script as SMT-LIB 2."""
        return print_script(self)


def parse_script(text):
    ctx = Ctx()
    script = Script(ctx, [])
    script.decls, script.queries, script.query_texts = {}, [], []
    script.has_check = False
    for form in read_sexprs(tokenize(text)):
        if not isinstance(form, list) or not form:
            raise SmtParseError("top-level junk %r" % (form,))
        head = form[0]
        if head in ("set-logic", "set-option", "set-info", "exit"):
            continue
        if len(form) != _COMMAND_LENGTHS.get(head, len(form)):
            raise SmtParseError("malformed %s command" % head)
        if head == "declare-const":
            name, sort = form[1], parse_sort(form[2])
            script.decls[name] = sort
        elif head == "declare-fun":
            if form[2]:
                raise SmtParseError("functions are not supported: %r"
                                    % form[1])
            script.decls[form[1]] = parse_sort(form[3])
        elif head == "assert":
            script.front.append(
                ctx.checked("assert", parse_term(ctx, script, form[1])))
        elif head == "check-sat":
            script.has_check = True
        elif head == "get-value":
            if not isinstance(form[1], list):
                raise SmtParseError("malformed get-value command")
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


def _int(text, base=10):
    try:
        return int(text, base)
    except ValueError:
        raise SmtParseError("bad number %r" % text) from None


def _parse_const_atom(ctx, tok):
    if tok.startswith("#x"):
        return ctx.const(_int(tok[2:], 16), 4 * (len(tok) - 2))
    if tok.startswith("#b"):
        return ctx.const(_int(tok[2:], 2), len(tok) - 2)
    return None


def parse_term(ctx, script, sexp):
    """The term of `sexp`; every operator application passes
    ``Ctx.checked``, so an operator given the wrong number or sorts of
    operands is an error."""
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
    if not sexp:
        raise SmtParseError("empty term")

    head = sexp[0]
    if head == "_":
        if len(sexp) == 3 and sexp[1].startswith("bv"):
            return ctx.const(_int(sexp[1][2:]), _int(sexp[2]))
        raise SmtParseError("unsupported indexed constant %r" % (sexp,))

    if isinstance(head, list) and len(head) == 3 and head[:2] == ["as",
                                                                  "const"]:
        sort = parse_sort(head[2])
        if len(sexp) != 2:
            raise SmtParseError("bad constant array %r" % (sexp,))
        value = parse_term(ctx, script, sexp[1])
        if sort[0] != "array" or value.sort != sort[2]:
            raise SmtParseError("bad constant array %r" % (sexp,))
        return ctx.const_array(sort, value)

    if isinstance(head, list) and len(head) > 1 and head[0] == "_":
        op = head[1]
        if op == "extract" and len(head) == 4:
            val = (_int(head[2]), _int(head[3]))
        elif op in ("zero_extend", "sign_extend") and len(head) == 3:
            val = _int(head[2])
        else:
            raise SmtParseError("unsupported indexed operator %r" % (head,))
        args = [parse_term(ctx, script, x) for x in sexp[1:]]
        return ctx.checked(op, *args, val=val)

    if not isinstance(head, str) or head not in _OPERATORS:
        # refused before its arguments are read: a quantifier's are binders
        raise SmtParseError("unsupported operator %r" % (head,))
    args = [parse_term(ctx, script, x) for x in sexp[1:]]

    if head in ("and", "or"):
        if not args:
            return ctx.TRUE if head == "and" else ctx.FALSE
        return ctx.checked(head, *args)
    if head in ("=>", "=", "distinct") and len(args) < 2:
        raise SmtParseError("%s needs two operands or more" % head)
    if head == "=>":
        term = args[-1]
        for a in reversed(args[:-1]):
            term = ctx.checked("=>", a, term)
        return term
    if head == "=":
        pairs = [ctx.checked("=", args[i], args[i + 1])
                 for i in range(len(args) - 1)]
        return pairs[0] if len(pairs) == 1 else ctx.mk("and", *pairs)
    if head == "distinct":
        pairs = []
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                pairs.append(ctx.checked("distinct", args[i], args[j]))
        return pairs[0] if len(pairs) == 1 else ctx.mk("and", *pairs)
    return ctx.checked(head, *args)
