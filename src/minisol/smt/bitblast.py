"""Tseitin bit-blasting of bitvector terms to CNF.

Bit vectors are tuples of literals, LSB first.  Gates are structurally
cached so shared subterms share circuitry.  Literal +/-1 is the constant
true/false (variable 1 is pinned true).
"""

from __future__ import annotations

import time

from .sat import SatBudgetExceeded
from .terms import BOOL, SmtError

TRUE_LIT = 1
FALSE_LIT = -1
DEADLINE_STRIDE = 4096           # new variables (or loaded clauses) per
#                                  clock read


class Cnf:
    def __init__(self, deadline=None):
        self.nvars = 1
        self.clauses = [[TRUE_LIT]]
        self.deadline = deadline

    def new_var(self):
        """A fresh variable; raises SatBudgetExceeded once the clock passes
        the deadline, read every DEADLINE_STRIDE variables."""
        self.nvars += 1
        if self.nvars % DEADLINE_STRIDE == 0 and self.deadline is not None \
                and time.monotonic() > self.deadline:
            raise SatBudgetExceeded("deadline")
        return self.nvars

    def add(self, *lits):
        self.clauses.append(list(lits))


class Blaster:
    def __init__(self, deadline=None):
        self.cnf = Cnf(deadline)
        self.gate_cache = {}
        self.bool_cache = {}       # id(term) -> lit
        self.bits_cache = {}       # id(term) -> tuple of lits
        self.var_bits = {}         # var name -> tuple of lits / lit

    # -- gates ----------------------------------------------------------------

    def g_and(self, a, b):
        if a == FALSE_LIT or b == FALSE_LIT or a == -b:
            return FALSE_LIT
        if a == TRUE_LIT or a == b:
            return b
        if b == TRUE_LIT:
            return a
        key = ("and", min(a, b), max(a, b))
        hit = self.gate_cache.get(key)
        if hit is not None:
            return hit
        g = self.cnf.new_var()
        self.cnf.add(-g, a)
        self.cnf.add(-g, b)
        self.cnf.add(g, -a, -b)
        self.gate_cache[key] = g
        return g

    def g_or(self, a, b):
        return -self.g_and(-a, -b)

    def g_xor(self, a, b):
        if a == TRUE_LIT:
            return -b
        if a == FALSE_LIT:
            return b
        if b == TRUE_LIT:
            return -a
        if b == FALSE_LIT:
            return a
        if a == b:
            return FALSE_LIT
        if a == -b:
            return TRUE_LIT
        key = ("xor", min(abs(a), abs(b)), max(abs(a), abs(b)),
               (a > 0) == (b > 0))
        hit = self.gate_cache.get(key)
        if hit is not None:
            return hit
        g = self.cnf.new_var()
        self.cnf.add(-g, a, b)
        self.cnf.add(-g, -a, -b)
        self.cnf.add(g, -a, b)
        self.cnf.add(g, a, -b)
        self.gate_cache[key] = g
        return g

    def g_iff(self, a, b):
        return -self.g_xor(a, b)

    def g_ite(self, c, t, e):
        if c == TRUE_LIT:
            return t
        if c == FALSE_LIT:
            return e
        if t == e:
            return t
        key = ("ite", c, t, e)
        hit = self.gate_cache.get(key)
        if hit is not None:
            return hit
        g = self.cnf.new_var()
        self.cnf.add(-c, -t, g)
        self.cnf.add(-c, t, -g)
        self.cnf.add(c, -e, g)
        self.cnf.add(c, e, -g)
        self.gate_cache[key] = g
        return g

    # -- word-level circuits ---------------------------------------------------

    def add_bits(self, a, b, cin=FALSE_LIT):
        out = []
        carry = cin
        for x, y in zip(a, b):
            s1 = self.g_xor(x, y)
            out.append(self.g_xor(s1, carry))
            c1 = self.g_and(x, y)
            c2 = self.g_and(s1, carry)
            carry = self.g_or(c1, c2)
        return tuple(out), carry

    def sub_bits(self, a, b):
        nb = tuple(-x for x in b)
        out, carry = self.add_bits(a, nb, TRUE_LIT)
        return out, carry          # carry==1 means no borrow (a >= b)

    def mul_bits(self, a, b):
        w = len(a)
        acc = (FALSE_LIT,) * w
        for i in range(w):
            row = tuple(FALSE_LIT if j < i else self.g_and(b[i], a[j - i])
                        for j in range(w))
            acc, _ = self.add_bits(acc, row)
        return acc

    def divmod_bits(self, a, b):
        """Restoring division; matches SMT-LIB semantics at divisor 0."""
        w = len(a)
        rem = (FALSE_LIT,) * w
        quot = [FALSE_LIT] * w
        bx = b + (FALSE_LIT,)
        for i in range(w - 1, -1, -1):
            shifted = (a[i],) + rem               # w+1 bits
            diff, carry = self.sub_bits(shifted, bx)
            ge = carry                            # shifted >= b
            rem = tuple(self.g_ite(ge, diff[j], shifted[j]) for j in range(w))
            quot[i] = ge
        return tuple(quot), rem

    def ult_bits(self, a, b):
        _, carry = self.sub_bits(a, b)
        return -carry                             # borrow => a < b

    def eq_bits(self, a, b):
        acc = TRUE_LIT
        for x, y in zip(a, b):
            acc = self.g_and(acc, self.g_iff(x, y))
        return acc

    def shift_bits(self, a, b, left):
        w = len(a)
        bits = list(a)
        for k in range(w.bit_length()):
            amount = 1 << k
            if k >= len(b):
                break
            sel = b[k]
            shifted = []
            for j in range(w):
                src = j - amount if left else j + amount
                shifted.append(bits[src] if 0 <= src < w else FALSE_LIT)
            bits = [self.g_ite(sel, shifted[j], bits[j]) for j in range(w)]
        # any set bit above log2(w) shifts everything out
        overflow = FALSE_LIT
        for k in range(w.bit_length(), len(b)):
            overflow = self.g_or(overflow, b[k])
        return tuple(self.g_ite(overflow, FALSE_LIT, x) for x in bits)

    # -- terms -----------------------------------------------------------------

    def var_lit(self, name):
        if name not in self.var_bits:
            self.var_bits[name] = self.cnf.new_var()
        return self.var_bits[name]

    def var_vec(self, name, width):
        if name not in self.var_bits:
            self.var_bits[name] = tuple(self.cnf.new_var()
                                        for _ in range(width))
        return self.var_bits[name]

    def bits_of(self, term):
        hit = self.bits_cache.get(id(term))
        if hit is not None:
            return hit
        bits = self._bits_of(term)
        self.bits_cache[id(term)] = bits
        return bits

    def _bits_of(self, term):
        op = term.op
        if op == "const":
            value, width = term.val
            return tuple(TRUE_LIT if (value >> i) & 1 else FALSE_LIT
                         for i in range(width))
        if op == "var":
            return self.var_vec(term.val, term.sort[1])
        if op == "ite":
            c = self.bool_of(term.args[0])
            t = self.bits_of(term.args[1])
            e = self.bits_of(term.args[2])
            return tuple(self.g_ite(c, x, y) for x, y in zip(t, e))
        if op in ("bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvand",
                  "bvor", "bvxor", "bvshl", "bvlshr"):
            a = self.bits_of(term.args[0])
            b = self.bits_of(term.args[1])
            if op == "bvadd":
                return self.add_bits(a, b)[0]
            if op == "bvsub":
                return self.sub_bits(a, b)[0]
            if op == "bvmul":
                return self.mul_bits(a, b)
            if op == "bvudiv":
                return self.divmod_bits(a, b)[0]
            if op == "bvurem":
                return self.divmod_bits(a, b)[1]
            if op == "bvand":
                return tuple(self.g_and(x, y) for x, y in zip(a, b))
            if op == "bvor":
                return tuple(self.g_or(x, y) for x, y in zip(a, b))
            if op == "bvxor":
                return tuple(self.g_xor(x, y) for x, y in zip(a, b))
            if op == "bvshl":
                return self.shift_bits(a, b, left=True)
            return self.shift_bits(a, b, left=False)
        if op == "bvnot":
            return tuple(-x for x in self.bits_of(term.args[0]))
        if op == "bvneg":
            a = self.bits_of(term.args[0])
            zero = (FALSE_LIT,) * len(a)
            return self.sub_bits(zero, a)[0]
        if op == "zero_extend":
            return self.bits_of(term.args[0]) + (FALSE_LIT,) * term.val
        if op == "sign_extend":
            a = self.bits_of(term.args[0])
            return a + (a[-1],) * term.val
        if op == "extract":
            hi, lo = term.val
            return self.bits_of(term.args[0])[lo:hi + 1]
        if op == "concat":
            high = self.bits_of(term.args[0])
            low = self.bits_of(term.args[1])
            return low + high
        raise SmtError("cannot blast bitvector term %r" % op)

    def bool_of(self, term):
        hit = self.bool_cache.get(id(term))
        if hit is not None:
            return hit
        lit = self._bool_of(term)
        self.bool_cache[id(term)] = lit
        return lit

    def _bool_of(self, term):
        op = term.op
        if op == "cbool":
            return TRUE_LIT if term.val else FALSE_LIT
        if op == "var":
            return self.var_lit(term.val)
        if op == "not":
            return -self.bool_of(term.args[0])
        if op == "and":
            acc = TRUE_LIT
            for a in term.args:
                acc = self.g_and(acc, self.bool_of(a))
            return acc
        if op == "or":
            acc = FALSE_LIT
            for a in term.args:
                acc = self.g_or(acc, self.bool_of(a))
            return acc
        if op == "xor":
            acc = FALSE_LIT
            for a in term.args:
                acc = self.g_xor(acc, self.bool_of(a))
            return acc
        if op == "=>":
            return self.g_or(-self.bool_of(term.args[0]),
                             self.bool_of(term.args[1]))
        if op == "ite":
            return self.g_ite(self.bool_of(term.args[0]),
                              self.bool_of(term.args[1]),
                              self.bool_of(term.args[2]))
        if op in ("=", "distinct"):
            x, y = term.args
            if x.sort == BOOL:
                lit = self.g_iff(self.bool_of(x), self.bool_of(y))
            else:
                lit = self.eq_bits(self.bits_of(x), self.bits_of(y))
            return lit if op == "=" else -lit
        if op in ("bvult", "bvule", "bvugt", "bvuge"):
            a = self.bits_of(term.args[0])
            b = self.bits_of(term.args[1])
            if op == "bvult":
                return self.ult_bits(a, b)
            if op == "bvugt":
                return self.ult_bits(b, a)
            if op == "bvule":
                return -self.ult_bits(b, a)
            return -self.ult_bits(a, b)
        raise SmtError("cannot blast boolean term %r" % op)

    def assert_term(self, term):
        self.cnf.add(self.bool_of(term))
