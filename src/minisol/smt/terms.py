"""Interned term representation for the bundled SMT solver.

Terms are immutable and hash-consed through a :class:`Ctx`, so structural
equality is identity equality and memo tables can key on ``id(term)``.
``Ctx.folded`` is the one constant-folding memo of the context: it maps the
id of every term ``solve.fold`` has seen, and of every folded result, to
the folded term.  A context may serve many scripts (``minisol.synthesize``
keeps one for a whole run), so every distinct term is built and folded once
for all of them.  Sorts are ``('bool',)``, ``('bv', width)`` or
``('array', key sort, value sort)``: an SMT-LIB array, read with ``select``,
updated with ``store`` and built constant with ``const_array`` (whose
``val`` is its array sort).
"""

from __future__ import annotations

BOOL = ("bool",)


def bv(width):
    return ("bv", width)


def array(key, value):
    return ("array", key, value)


class SmtError(Exception):
    pass


class Term:
    __slots__ = ("op", "val", "args", "sort")

    def __init__(self, op, val, args, sort):
        self.op = op
        self.val = val
        self.args = args
        self.sort = sort

    def __repr__(self):
        return "<%s>" % print_term(self)


# operator -> (arity, result sort rule); 'same' means operand sort
BV_BINOPS = {"bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvand", "bvor",
             "bvxor", "bvshl", "bvlshr"}
BV_CMPS = {"bvult", "bvule", "bvugt", "bvuge"}
BV_UNOPS = {"bvnot", "bvneg"}
BOOL_OPS = {"and", "or", "xor", "not", "=>"}


class Ctx:
    def __init__(self):
        self._intern = {}
        self.folded = {}           # id(term) -> folded term, see solve.fold
        self.TRUE = self.node("cbool", True, ())
        self.FALSE = self.node("cbool", False, ())

    def node(self, op, val, args, sort=None):
        ids = tuple(id(a) for a in args)
        # one name may have different sorts in the scripts that share the
        # context; every other op's sort follows from op, val and args
        key = (op, val, ids, sort) if op == "var" else (op, val, ids)
        hit = self._intern.get(key)
        if hit is not None:
            return hit
        if sort is None:
            sort = self._infer_sort(op, val, args)
        term = Term(op, val, tuple(args), sort)
        self._intern[key] = term
        return term

    def _infer_sort(self, op, val, args):
        if op == "cbool":
            return BOOL
        if op == "const":
            return bv(val[1])
        if op in BOOL_OPS or op in BV_CMPS or op in ("=", "distinct"):
            return BOOL
        if op in BV_BINOPS:
            return args[0].sort
        if op in BV_UNOPS:
            return args[0].sort
        if op == "ite":
            return args[1].sort
        if op == "select":
            return args[0].sort[2]
        if op == "store":
            return args[0].sort
        if op == "const_array":
            return val
        if op == "extract":
            hi, lo = val
            return bv(hi - lo + 1)
        if op in ("zero_extend", "sign_extend"):
            return bv(args[0].sort[1] + val)
        if op == "concat":
            return bv(args[0].sort[1] + args[1].sort[1])
        raise SmtError("cannot infer sort of %r" % op)

    # -- convenience builders ------------------------------------------------

    def cbool(self, b):
        return self.TRUE if b else self.FALSE

    def const(self, value, width):
        return self.node("const", (value & ((1 << width) - 1), width), ())

    def var(self, name, sort):
        return self.node("var", name, (), sort)

    def const_array(self, sort, value):
        """The array of sort `sort` holding `value` at every key."""
        return self.node("const_array", sort, (value,))

    def mk(self, op, *args, val=None):
        return self.node(op, val, args)

    def checked(self, op, *args, val=None):
        """``mk`` behind the sort checks every script must pass: an
        ``assert`` (which returns its one argument) is Bool, the operands of
        a bitvector operator have one width, and ``select`` and ``store``
        get an array, an index of its key sort and a value of its value
        sort."""
        if op == "assert":
            if args[0].sort != BOOL:
                raise SmtError("assert needs a Bool term")
            return args[0]
        if op in ("select", "store"):
            if len(args) != (2 if op == "select" else 3) \
                    or args[0].sort[0] != "array" \
                    or args[1].sort != args[0].sort[1] \
                    or (op == "store" and args[2].sort != args[0].sort[2]):
                raise SmtError("bad %s" % op)
        if (op in BV_BINOPS or op in BV_CMPS) and args[0].sort != args[1].sort:
            raise SmtError("width mismatch in %s" % op)
        return self.node(op, val, args)


def const_value(term):
    if term.op == "const":
        return term.val[0]
    if term.op == "cbool":
        return term.val
    raise SmtError("not a constant: %r" % term)


def is_const(term):
    return term.op in ("const", "cbool")


def print_term(t):
    if t.op == "cbool":
        return "true" if t.val else "false"
    if t.op == "const":
        value, width = t.val
        if width % 4 == 0:
            return "#x%0*x" % (width // 4, value)
        return "(_ bv%d %d)" % (value, width)
    if t.op == "var":
        return t.val
    if t.op == "const_array":
        return "((as const %s) %s)" % (print_sort(t.val),
                                       print_term(t.args[0]))
    if t.op == "extract":
        hi, lo = t.val
        return "((_ extract %d %d) %s)" % (hi, lo, print_term(t.args[0]))
    if t.op in ("zero_extend", "sign_extend"):
        return "((_ %s %d) %s)" % (t.op, t.val, print_term(t.args[0]))
    return "(%s %s)" % (t.op, " ".join(print_term(a) for a in t.args))


def print_sort(sort):
    if sort == BOOL:
        return "Bool"
    if sort[0] == "array":
        return "(Array %s %s)" % (print_sort(sort[1]), print_sort(sort[2]))
    return "(_ BitVec %d)" % sort[1]


def print_script(script):
    """SMT-LIB 2 text of a ``parse.Script``: declarations, assertions,
    check-sat and one get-value over the script's queries."""
    lines = ["(set-option :produce-models true)", "(set-logic QF_ABV)"]
    for name, sort in script.decls.items():
        lines.append("(declare-const %s %s)" % (name, print_sort(sort)))
    lines.extend("(assert %s)" % print_term(a) for a in script.asserts)
    lines.append("(check-sat)")
    if script.query_texts:
        lines.append("(get-value (%s))" % " ".join(script.query_texts))
    return "\n".join(lines) + "\n"
