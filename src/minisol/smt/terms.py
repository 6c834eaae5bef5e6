"""Interned term representation for the bundled SMT solver.

Terms are immutable and hash-consed through a :class:`Ctx`, so structural
equality is identity equality.  ``Term`` keeps ``object``'s identity
``__eq__`` and ``__hash__``, so every table of terms (the intern table,
whose keys hold the argument tuple itself, ``Ctx.folded`` and the
solver's memos) keys on the term itself, as precisely as on its id and
without a call to ``id``; no order is read off a set of terms, which
would follow addresses.
Facts that depend only on a term are computed once, on first read, and
kept on it: ``Term.free``, its free variables in first-occurrence order,
``Term.plain``, whether it holds no array-sorted subterm, and
``Term.linear``, a bitvector term's linear form.  The solver reads them
instead of walking the DAG (``solve.rewrite`` returns a term that reads no
substituted variable and holds no array as its fold).  ``Ctx.folded`` is
the one constant-folding memo of the context: it maps every term
``solve.fold`` has seen, and every folded result, to the folded term.
A context may serve many scripts (``minisol.synthesize`` keeps one for a
whole run), so every distinct term is built and folded once for all of
them.  A :class:`Chain` is a sequence of clauses, hash-consed in the same
way: ``Ctx.chained`` keeps one cell per (chain, clause), so equal clause
sequences are one chain of the context, however they were built.
Sorts are ``('bool',)``, ``('bv', width)`` or ``('array', key sort, value
sort)``: an SMT-LIB array, read with ``select``, updated with ``store``
and built constant with ``const_array`` (whose ``val`` is its array
sort).
"""

from __future__ import annotations

BOOL = ("bool",)


def bv(width):
    return ("bv", width)


def mask(width):
    """The largest value of a `width`-bit bitvector."""
    return (1 << width) - 1


def array(key, value):
    return ("array", key, value)


_NO_VARS = {}                      # the free variables of a ground term


class SmtError(Exception):
    pass


class Term:
    __slots__ = ("op", "val", "args", "sort", "_free", "_plain", "_linear")

    def __init__(self, op, val, args, sort):
        self.op = op
        self.val = val
        self.args = args
        self.sort = sort
        self._free = self._plain = self._linear = None

    @property
    def free(self):
        """The term's free variables in depth-first, left-to-right order of
        first occurrence, as a dict from variable term to None.  Computed
        on first read and never mutated: a term whose other arguments add
        no variable shares the table of its first argument that has one.
        A variable's own table is built on each read, since one kept on it
        would refer back to it, a cycle only the cyclic collector frees."""
        out = self._free
        if out is None:
            if self.op == "var":
                return {self: None}
            out = _NO_VARS
            for a in self.args:
                more = a.free
                if not more.keys() <= out.keys():
                    out = {**out, **more} if out else more
            self._free = out
        return out

    @property
    def plain(self):
        """True when no subterm, the term included, is array-sorted: the
        term holds no select, store or constant array."""
        out = self._plain
        if out is None:
            out = self.sort[0] != "array"
            for a in self.args:
                out = out and a.plain
            self._plain = out
        return out

    @property
    def linear(self):
        """The linear form of a bitvector term, modulo 2^width: a pair
        (coefficients, constant) whose coefficients map atoms to non-zero
        multipliers.  bvadd, bvsub, bvneg and bvmul by a constant are
        linear; every other term (var, ite, extract, ...) is an atom, keyed
        by the hash-consed term itself.  Kept on a constant and a linear
        term, and never mutated; an atom's form is built on each read, as
        its own table would refer back to it (see ``free``)."""
        out = self._linear
        if out is None:
            op, args = self.op, self.args
            top = mask(self.sort[1])
            if op == "const":
                out = ({}, self.val[0])
            elif op in ("bvadd", "bvsub"):
                out = combine(args[0].linear, args[1].linear,
                              1 if op == "bvadd" else -1, top)
            elif op == "bvneg":
                out = combine(({}, 0), args[0].linear, -1, top)
            elif op == "bvmul" and any(a.op == "const" for a in args):
                a, b = args
                scale, other = (a.val[0], b) if a.op == "const" \
                    else (b.val[0], a)
                coeffs, k = other.linear
                scaled = {}
                for atom, c in coeffs.items():
                    c = c * scale & top
                    if c:
                        scaled[atom] = c
                out = (scaled, k * scale & top)
            else:
                return {self: 1}, 0
            self._linear = out
        return out

    def __repr__(self):
        return "<%s>" % print_term(self)


def combine(a, b, sign, top):
    """The linear form of ``a + sign * b`` from the forms `a` and `b`, modulo
    ``top + 1``; `a`'s table itself when `b` has no atom."""
    (ca, ka), (cb, kb) = a, b
    coeffs = dict(ca) if cb else ca
    for atom, c in cb.items():
        c = (coeffs.get(atom, 0) + sign * c) & top
        if c:
            coeffs[atom] = c
        else:
            coeffs.pop(atom, None)
    return coeffs, (ka + sign * kb) & top


class Chain:
    """A persistent sequence of terms, read from its head: `clause`, then
    `parent`'s (None is the empty chain); `length` terms in all.  Only the
    cells ``Ctx.chained`` builds are hash-consed."""
    __slots__ = ("parent", "clause", "length")

    def __init__(self, parent, clause):
        self.parent = parent
        self.clause = clause
        self.length = 1 if parent is None else parent.length + 1

    def __iter__(self):
        cell = self
        while cell is not None:
            yield cell.clause
            cell = cell.parent


# operator -> (arity, result sort rule); 'same' means operand sort
BV_BINOPS = {"bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvand", "bvor",
             "bvxor", "bvshl", "bvlshr"}
BV_CMPS = {"bvult", "bvule", "bvugt", "bvuge"}
BV_UNOPS = {"bvnot", "bvneg"}
BOOL_OPS = {"and", "or", "xor", "not", "=>"}


class Ctx:
    def __init__(self):
        self._intern = {}
        self.folded = {}           # term -> folded term, see solve.fold
        self._chains = {}          # (parent, clause) -> Chain
        self.TRUE = self.node("cbool", True, ())
        self.FALSE = self.node("cbool", False, ())

    def node(self, op, val, args, sort=None):
        args = tuple(args)
        # one name may have different sorts in the scripts that share the
        # context; every other op's sort follows from op, val and args
        key = (op, val, args, sort) if op == "var" else (op, val, args)
        hit = self._intern.get(key)
        if hit is not None:
            return hit
        if sort is None:
            sort = self._infer_sort(op, val, args)
        term = Term(op, val, args, sort)
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

    def chained(self, clauses, parent=None):
        """The context's one chain of `clauses`, in order, on `parent`."""
        chains = self._chains
        for clause in reversed(clauses):
            cell = chains.get((parent, clause))
            if cell is None:
                cell = chains[parent, clause] = Chain(parent, clause)
            parent = cell
        return parent

    def mk(self, op, *args, val=None):
        return self.node(op, val, args)

    def checked(self, op, *args, val=None):
        """``mk`` behind the arity and sort checks every script must pass:
        an ``assert`` (which returns its one argument) is Bool, and every
        operator gets as many operands as it takes, of the sorts it takes
        (``_well_sorted``)."""
        if op == "assert":
            if len(args) != 1 or args[0].sort != BOOL:
                raise SmtError("assert needs a Bool term")
            return args[0]
        sorts = [a.sort for a in args]
        if not _well_sorted(op, val, sorts):
            widths = len(set(sorts)) > 1 and all(s[0] == "bv" for s in sorts)
            raise SmtError("%s %s: %s" % (
                "width mismatch in" if widths else "ill-sorted", op,
                " ".join(map(print_sort, sorts)) or "no operand"))
        return self.node(op, val, args)


def _well_sorted(op, val, sorts):
    """True when operator `op` (with index `val`) takes operands of
    `sorts`: ``xor`` and ``=>`` two Bools or more, ``=`` and ``distinct``
    two of one sort, ``ite`` a Bool and two of one sort, bitvector
    operators bitvectors of one width (``concat`` of any two), and
    ``select`` and ``store`` an array, an index of its key sort and a
    value of its value sort."""
    n = len(sorts)
    if op in ("and", "or"):
        return all(s == BOOL for s in sorts)
    if op == "not":
        return sorts == [BOOL]
    if op in ("xor", "=>"):
        return n >= 2 and all(s == BOOL for s in sorts)
    if op in ("=", "distinct"):
        return n == 2 and sorts[0] == sorts[1]
    if op == "ite":
        return n == 3 and sorts[0] == BOOL and sorts[1] == sorts[2]
    if op in ("select", "store"):
        return n == (2 if op == "select" else 3) and sorts[0][0] == "array" \
            and sorts[1] == sorts[0][1] \
            and (op == "select" or sorts[2] == sorts[0][2])
    if not all(s[0] == "bv" for s in sorts):
        return False
    if op in BV_BINOPS or op in BV_CMPS:
        return n == 2 and sorts[0] == sorts[1]
    if op in BV_UNOPS:
        return n == 1
    if op == "concat":
        return n == 2
    if op == "extract":
        hi, lo = val
        return n == 1 and 0 <= lo <= hi < sorts[0][1]
    if op in ("zero_extend", "sign_extend"):
        return n == 1 and val >= 0
    return False


def chain_above(chain, tail):
    """The clauses of `chain` above `tail` when `chain` is `tail` or
    extends it, in as many steps; None otherwise."""
    out, cell = [], chain
    for _ in range((chain.length if chain else 0)
                   - (tail.length if tail else 0)):
        out.append(cell.clause)
        cell = cell.parent
    return out if cell is tail else None


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
