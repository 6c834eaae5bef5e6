"""Solving pipeline, in order: fold/resolve -> word-level reduction -> greedy
model -> word-level refutation -> cases on ite conditions -> bit-blast ->
CDCL -> model self-check.

Folding is a function of the hash-consed term: each distinct term is folded
once per :class:`~.terms.Ctx` and the result kept in ``Ctx.folded``.  A
context may serve many scripts (``minisol.synthesize`` solves every check of
a run in one), so a term that recurs across checks is folded once.
Fold/resolve folds every assertion, takes each top-level array equality as
its array variable's definition, and replaces every ``select`` by a term
over bitvectors.  Word-level reduction substitutes definitional conjuncts
(``x = t``) until none is left.  Resolution and substitution are one
``rewrite`` pass, which first resolves reads and then substitutes
definitions, refolding each node it rebuilds; a term that reads no
substituted variable and holds no array (facts each term keeps:
``Term.free``, ``Term.plain``) is not walked, so a binding rewrites only
what reads its variable.  Folding also settles what needs no operand's
value (``x - x``, ``x < x``, ``x < 0``, ``x <= max``), and reads a
bitvector (dis)equality with a bvadd, bvsub, bvneg or bvmul side through
the linear form of its difference (``Term.linear``): it is true or false
when no atom is left (``x + 1 + 1 = x``), and an equality whose one atom
is a variable with an odd coefficient is solved for it (``x + 1 = 5`` is
``x = 4``), which reduction then binds.
The refuter (``refute.refutation``) only answers unsat, so satisfiable
checks pass through it unchanged.  The greedy model search assigns
variables at word level, forcing one false conjunct at a time: it keeps
the ite branch a condition already selects, gives a variable forced to
differ a value no other variable of its sort holds, solves one-variable
linear terms (c*x + k = v modulo 2^width) in closed form, solves the
linear difference of two sides that share a variable, tries maximum
values when both sides of a comparison share one (``a + v < a``), and
from its second round keeps the conjuncts that held when a comparison
can be met by moving either side.  When it fails, the residual is
refuted if it can be, by a term stated both true and false, bounds,
intervals or parity.  If not, it is split on up to ``SPLIT_ATOMS`` of its
ite conditions: each truth assignment of them is a leaf, the residual with
the conditions replaced by their values and their literals added, which
the reduction, the refuter and greedy from zeros decide at word level
(``_split``).  Every leaf refuted is unsat; the first leaf greedy
satisfies gives the model.  Only when neither holds is the residual
bit-blasted to CNF for the CDCL solver.

The front half, fold/resolve and reduction, is a ``Reduction`` that can be
extended, and it keeps its solve's model.  It holds where the script's
assertions were: ``front`` and the clauses of a hash-consed ``chain`` (a
walk's moving clauses, and its numbered clauses, the safety condition
last; a script read from text is all front).  It also holds the
array definitions, the Ackermann reads, the substitution, the residual,
the rewritten assertions with the readers of each free variable, and the
model.  A conjunct's variables are its ``Term.free``; the solver keeps no
table of them.  A SAT answer keeps it, and
the engine hands it to the checks of the walk's extensions: a child's
clauses are its parent's, term for term, plus its new node's.  A solve
starts from the reduction it is given when the reduction's chain is the
script's or one the script's extends and its other assertions are among
the script's others, and from ``EMPTY`` otherwise; a whole-script solve
is the same code started from ``EMPTY``.  It reads, folds, resolves and
reduces only what the base lacks: the new front and the chain cells
above the base's.  Those bind their definitional conjuncts first;
once one binds, every conjunct left that reads a variable bound here,
the base's included, is rewritten again.  An array the base read while
undefined and the new assertions define has each of its Ackermann reads
bound to the read through the definition, and each new read of an
undefined array is paired by congruence with every earlier read of it.
The model search starts from the base's model: every variable the solve
binds leaves it, its definition solved back to the value the variable
had, and only the conjuncts that are new or read a variable whose value
moved are evaluated (``_Reuse``); greedy rounds run from there if one
fails, then from zeros, then the refuter and the split, and only then is
the residual bit-blasted.  The self-check evaluates every new assertion
and every reader of a variable whose value moved.  A solve from a base
values no query.  Its model, though valid, need not be the one a
whole-script solve finds, so a SAT script whose model is read is solved
again from empty, where no model is reused: the model, and every sequence
built from it, is the whole script's.

Arrays (QF_ABV) are read by ``select`` only.  A top-level ``(= a t)`` whose
``a`` is an array variable defines ``a`` as ``t``, a ``store`` or constant
array over other arrays (the left side is the variable when both are).  A
read resolves through the definitions: a ``store`` to ``ite(key = i, v,
read of the array below)``, a constant array to its value.  A variable
defined twice, any other array equality and an array anywhere else answer
unknown.  The reads of a variable left undefined are Ackermann-expanded
over the keys that actually occur.  Every model is checked against the
rewritten assertions before it is reported (from a base, against those
its values can have changed).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import Optional

from .bitblast import DEADLINE_STRIDE, Blaster
from .parse import parse_script
from .refute import NEGATED, difference, refutation, solve_linear
from .sat import SatBudgetExceeded, SatSolver
from .terms import BOOL, BV_BINOPS, BV_CMPS, BV_UNOPS, Chain, SmtError, \
    chain_above, is_const, mask, print_term


class SmtUnknown(SmtError):
    """Raised when the script falls outside the supported fragment."""


class SmtInternalError(SmtError):
    """A produced model failed the final self-check; always a solver bug."""


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_CMP_HOLDS = {"bvult": operator.lt, "bvule": operator.le,
              "bvugt": operator.gt, "bvuge": operator.ge}

# bitvector operator -> its value on `width`-bit operands x and y, before
# it is masked to the width
_BV_ARITH = {
    "bvadd": lambda x, y, _width: x + y,
    "bvsub": lambda x, y, _width: x - y,
    "bvmul": lambda x, y, _width: x * y,
    "bvudiv": lambda x, y, width: x // y if y else mask(width),
    "bvurem": lambda x, y, _width: x % y if y else x,
    "bvand": lambda x, y, _width: x & y,
    "bvor": lambda x, y, _width: x | y,
    "bvxor": lambda x, y, _width: x ^ y,
    "bvshl": lambda x, y, width: x << y if y < width else 0,
    "bvlshr": lambda x, y, width: x >> y if y < width else 0,
}


def _sign_extend(value, width, extra):
    """The `width`-bit `value` sign-extended by `extra` bits."""
    if value >> (width - 1):
        value |= mask(extra) << width
    return value


def fold(ctx, term):
    """The constant-folded form of `term`, computed once per context:
    ``ctx.folded`` records the result for the term and, since folding is
    idempotent, for the result itself."""
    folded = ctx.folded
    out = folded.get(term)
    if out is None:
        out = _fold(ctx, term)
        folded[term] = out
        folded[out] = out
    return out


def _fold(ctx, term):
    op = term.op
    if op in ("const", "cbool", "var"):
        return term
    folded = ctx.folded
    args = tuple([folded.get(a) or fold(ctx, a) for a in term.args])
    if op in ("select", "store", "const_array"):
        return ctx.node(op, term.val, args)

    if op == "not":
        a = args[0]
        if a.op == "cbool":
            return ctx.cbool(not a.val)
        if a.op == "not":
            return a.args[0]
        return ctx.mk("not", a)
    if op in ("and", "or"):
        keep = []
        absorb = ctx.FALSE if op == "and" else ctx.TRUE
        for a in args:
            if a is absorb:
                return absorb
            if a.op == "cbool":
                continue
            keep.append(a)
        if not keep:
            return ctx.TRUE if op == "and" else ctx.FALSE
        if len(keep) == 1:
            return keep[0]
        return ctx.mk(op, *keep)
    if op == "xor":
        const = False
        keep = []
        for a in args:
            if a.op == "cbool":
                const ^= a.val
            else:
                keep.append(a)
        if not keep:
            return ctx.cbool(const)
        result = keep[0] if len(keep) == 1 else ctx.mk("xor", *keep)
        return ctx.mk("not", result) if const else result
    if op == "=>":
        return fold(ctx, ctx.mk("or", ctx.mk("not", args[0]), args[1]))
    if op == "=":
        a, b = args
        if a is b:
            return ctx.TRUE
        if is_const(a) and is_const(b):
            return ctx.cbool(a.val == b.val)
        if a.sort == BOOL:
            if a.op == "cbool":
                return b if a.val else fold(ctx, ctx.mk("not", b))
            if b.op == "cbool":
                return a if b.val else fold(ctx, ctx.mk("not", a))
        return _distribute_cmp(ctx, "=", a, b) \
            or _fold_linear(ctx, "=", a, b) or ctx.mk("=", a, b)
    if op == "distinct":
        a, b = args
        if a is b:
            return ctx.FALSE
        if is_const(a) and is_const(b):
            return ctx.cbool(a.val != b.val)
        return _fold_linear(ctx, "distinct", a, b) \
            or ctx.mk("distinct", a, b)
    if op == "ite":
        c, t, e = args
        if c.op == "cbool":
            return t if c.val else e
        if t is e:
            return t
        if t.sort == BOOL:
            if t.op == "cbool" and e.op == "cbool":
                return c if t.val else fold(ctx, ctx.mk("not", c))
            if t.op == "cbool":
                rule = ctx.mk("or", c, e) if t.val \
                    else ctx.mk("and", ctx.mk("not", c), e)
                return fold(ctx, rule)
            if e.op == "cbool":
                rule = ctx.mk("or", ctx.mk("not", c), t) if e.val \
                    else ctx.mk("and", c, t)
                return fold(ctx, rule)
        return ctx.mk("ite", c, t, e)

    if op in BV_BINOPS:
        a, b = args
        width = a.sort[1]
        if a.op == "const" and b.op == "const":
            return ctx.const(_BV_ARITH[op](a.val[0], b.val[0], width),
                             width)
        trivial = _fold_trivial(ctx, op, a, b)
        if trivial is not None:
            return trivial
        if b.op == "const" and b.val[0] == 0:
            if op in ("bvadd", "bvsub", "bvor", "bvxor", "bvshl", "bvlshr"):
                return a
            if op in ("bvmul", "bvand"):
                return ctx.const(0, width)
        if a.op == "const" and a.val[0] == 0:
            if op in ("bvadd", "bvor", "bvxor"):
                return b
            if op in ("bvmul", "bvand"):
                return ctx.const(0, width)
        if b.op == "const" and b.val[0] == 1 and op in ("bvmul", "bvudiv"):
            return a
        if a.op == "const" and a.val[0] == 1 and op == "bvmul":
            return b
        return ctx.mk(op, a, b)
    if op in BV_UNOPS:
        a = args[0]
        width = a.sort[1]
        if a.op == "const":
            v = a.val[0]
            return ctx.const(~v if op == "bvnot" else -v, width)
        return ctx.mk(op, a)
    if op in BV_CMPS:
        a, b = args
        if a.op == "const" and b.op == "const":
            return ctx.cbool(_CMP_HOLDS[op](a.val[0], b.val[0]))
        trivial = _fold_trivial(ctx, op, a, b)
        if trivial is not None:
            return trivial
        distributed = _distribute_cmp(ctx, op, a, b)
        if distributed is not None:
            return distributed
        return ctx.mk(op, a, b)
    if op == "zero_extend":
        a = args[0]
        if term.val == 0:
            return a
        if a.op == "const":
            return ctx.const(a.val[0], a.sort[1] + term.val)
        return ctx.mk(op, a, val=term.val)
    if op == "sign_extend":
        a = args[0]
        if term.val == 0:
            return a
        if a.op == "const":
            v, w = a.val
            return ctx.const(_sign_extend(v, w, term.val), w + term.val)
        return ctx.mk(op, a, val=term.val)
    if op == "extract":
        hi, lo = term.val
        a = args[0]
        if a.op == "const":
            return ctx.const(a.val[0] >> lo, hi - lo + 1)
        if lo == 0 and hi == a.sort[1] - 1:
            return a
        return ctx.mk(op, a, val=term.val)
    if op == "concat":
        a, b = args
        if a.op == "const" and b.op == "const":
            return ctx.const((a.val[0] << b.sort[1]) | b.val[0],
                             a.sort[1] + b.sort[1])
        return ctx.mk(op, a, b)
    raise SmtError("cannot fold %r" % op)


# x op x: 0, x itself (None), or the comparison's truth value
_SELF = {"bvsub": 0, "bvxor": 0, "bvurem": 0, "bvand": None, "bvor": None,
         "bvult": False, "bvugt": False, "bvule": True, "bvuge": True}


def _fold_trivial(ctx, op, a, b):
    """`a op b` (not both constants) when no operand's value is needed:
    ``x op x`` by ``_SELF``, ``x urem 1`` is 0, and a comparison with one
    constant side is decided when it agrees for 0 and the width's maximum
    on the other (``0 <= x``, ``x <= max``, ``x < 0``, ``x > max``)."""
    if a is b and op in _SELF:
        out = _SELF[op]
        if out is None:
            return a
        return ctx.cbool(out) if op in BV_CMPS else ctx.const(0, a.sort[1])
    if op == "bvurem" and b.op == "const" and b.val[0] == 1:
        return ctx.const(0, a.sort[1])
    if op in BV_CMPS and is_const(a) != is_const(b):
        holds, top = _CMP_HOLDS[op], mask(a.sort[1])
        ends = (holds(0, b.val[0]), holds(top, b.val[0])) if is_const(b) \
            else (holds(a.val[0], 0), holds(a.val[0], top))
        if ends[0] == ends[1]:
            return ctx.cbool(ends[0])
    return None


def _distribute_cmp(ctx, op, a, b):
    """Push a comparison against a constant through an ite so map-read
    chains fold into boolean structure over their conditions; None when
    the rule does not apply."""
    for ite_side, other, left in ((a, b, True), (b, a, False)):
        if ite_side.op != "ite" or other.op != "const":
            continue
        _c, t, e = ite_side.args
        if not (is_const(t) and is_const(e)):
            continue
        args_t = (t, other) if left else (other, t)
        args_e = (e, other) if left else (other, e)
        return fold(ctx, ctx.mk("ite", ite_side.args[0],
                                fold(ctx, ctx.mk(op, *args_t)),
                                fold(ctx, ctx.mk(op, *args_e))))
    return None


_LINEAR_OPS = {"bvadd", "bvsub", "bvneg", "bvmul"}


def _fold_linear(ctx, op, a, b):
    """A bitvector ``a = b`` (`op` ``=``) or ``a != b`` with a side built by
    bvadd, bvsub, bvneg or bvmul, read through the linear form of ``a - b``
    (``Term.linear``): true or false when no atom is left, and, for an
    equality, ``x = v`` when one variable x is left, with an odd
    coefficient, so v is x's one solution modulo 2^width (Ganesh & Dill,
    CAV 2007).  None otherwise."""
    if a.op not in _LINEAR_OPS and b.op not in _LINEAR_OPS:
        return None
    coeffs, k = difference(a, b)
    if not coeffs:
        return ctx.cbool((k == 0) == (op == "="))
    if op != "=" or len(coeffs) != 1:
        return None
    (atom, c), = coeffs.items()
    if atom.op != "var" or not c & 1:
        return None
    width = a.sort[1]
    return ctx.mk("=", atom,
                  ctx.const(solve_linear(c, -k & mask(width), width), width))


# ---------------------------------------------------------------------------
# Rewriting: array reads and substitution
# ---------------------------------------------------------------------------

def rewrite(ctx, term, subst, maps, memo):
    """Replace variables through `subst` (following chains) and array reads
    through `maps.resolve`, folding every rebuilt node, bottom up.  A term
    that reads no variable of `subst` (``Term.free``) and holds no array
    (``Term.plain``) is not walked: it rewrites to its fold.  `memo` maps
    each term rewritten to its result and is read first; a
    variable `subst` maps to None is kept, but its readers are walked, so
    a caller that seeds `memo` with replacements of terms over such
    variables (``_split``) has them applied.  A node reads the memo and
    tries the fold shortcut for each of its arguments itself, so only an
    argument that must be walked costs a call."""
    hit = memo.get(term)
    if hit is not None:
        return hit
    op = term.op
    if not term.args and op != "var":
        return term                        # a constant is its own fold
    if op != "var" and term.plain \
            and subst.keys().isdisjoint(term.free.keys()):
        out = fold(ctx, term)
    elif term.sort[0] == "array":
        raise SmtUnknown("array term outside a definition or select: %s"
                         % print_term(term))
    elif op == "var":
        value = subst.get(term)
        out = term if value is None \
            else rewrite(ctx, value, subst, maps, memo)
    elif op == "select":
        key = rewrite(ctx, term.args[1], subst, maps, memo)
        out = maps.resolve(term.args[0], key, subst, memo)
    else:
        folded, keys = ctx.folded, subst.keys()
        args = []
        for a in term.args:
            new = memo.get(a)
            if new is None:
                if not a.plain:
                    new = rewrite(ctx, a, subst, maps, memo)
                elif a.op == "var":        # itself, or its value's rewrite
                    new = subst.get(a)
                    new = a if new is None \
                        else rewrite(ctx, new, subst, maps, memo)
                elif keys.isdisjoint(a.free.keys()):
                    new = (folded.get(a) or fold(ctx, a)) if a.args \
                        else a
                else:
                    new = rewrite(ctx, a, subst, maps, memo)
            args.append(new)
        args = tuple(args)
        node = term if args == term.args \
            else ctx.node(op, term.val, args, term.sort)
        out = folded.get(node) or fold(ctx, node)
    memo[term] = out
    return out


# ---------------------------------------------------------------------------
# Array definitions and reads
# ---------------------------------------------------------------------------

class _Maps:
    """The array definitions and Ackermann reads of one solve, started from
    those of its base (a ``Reduction``).  The base's tables are shared
    until this solve adds a read to one; `since` holds, for each table this
    solve has copied, how many reads the base had made of its array."""

    def __init__(self, ctx, base):
        self.ctx = ctx
        self.defs = dict(base.defs)  # array var term -> its defining term
        self.apps = dict(base.apps)  # base array var -> {key term -> ack var}
        self.since = {}

    def define(self, eq):
        """Record the top-level array equality `eq` as the definition of its
        variable side, the left one if both are, and return that variable;
        None when neither side is a variable, the sorts differ, or the
        variable has a definition already.  Only the definition is read,
        so a second one would be dropped, and the model check, which reads
        the rewritten assertions, would never see it."""
        var, value = eq.args
        if var.op != "var":
            var, value = value, var
        if var.op != "var" or var.sort != value.sort or var in self.defs:
            return None
        self.defs[var] = value
        return var

    def rebind(self, defined, memo):
        """The equalities that bind each Ackermann read the base made of an
        array in `defined` (newly defined, so undefined in the base) to the
        read through its definition; the array's table is dropped, since
        every later read of it resolves through the definition."""
        ctx = self.ctx
        out = []
        for array in defined:
            table = self.apps.pop(array, None)
            if table is None:
                continue
            for key, ack in table.items():
                out.append(fold(ctx, ctx.mk(
                    "=", ack, self.resolve(array, key, {}, memo))))
        return out

    def resolve(self, array, key, subst, memo, hops=0):
        """The value `array` holds at `key` (a rewritten term), rewritten
        under `subst`: through definitions, stores and constant arrays
        down to an Ackermann variable of an undefined array."""
        ctx = self.ctx
        while True:
            op = array.op
            if op == "var":
                value = self.defs.get(array)
                if value is None:
                    return self._read(array, key)
                hops += 1
                if hops > len(self.defs):
                    raise SmtUnknown("cyclic array definition of %r"
                                     % array.val)
                array = value
            elif op == "const_array":
                return rewrite(ctx, array.args[0], subst, self, memo)
            elif op == "store":
                below, index, value = array.args
                hit = fold(ctx, ctx.mk(
                    "=", key, rewrite(ctx, index, subst, self, memo)))
                if hit.op != "cbool":
                    return fold(ctx, ctx.mk(
                        "ite", hit, rewrite(ctx, value, subst, self, memo),
                        self.resolve(below, key, subst, memo, hops)))
                if hit.val:
                    return rewrite(ctx, value, subst, self, memo)
                array = below
            else:
                raise SmtUnknown("unsupported array term %s"
                                 % print_term(array))

    def _read(self, array, key):
        """The Ackermann variable of the undefined `array` at `key`."""
        table = self.apps.get(array)
        if table is not None and key in table:
            return table[key]
        if array not in self.since:
            self.since[array] = len(table) if table else 0
            table = self.apps[array] = dict(table or ())
        ack = table[key] = self.ctx.var(
            "%%ack!%s!%d" % (array.val, len(table)), array.sort[2])
        return ack

    def congruence_assertions(self):
        """Congruence for every read this solve added: it is paired with
        every earlier read of its array, the base's included."""
        out = []
        ctx = self.ctx
        for array, since in self.since.items():
            items = list(self.apps[array].items())
            for i in range(len(items)):
                for j in range(max(i + 1, since), len(items)):
                    (a1, v1), (a2, v2) = items[i], items[j]
                    out.append(ctx.mk("or", ctx.mk("distinct", a1, a2),
                                      ctx.mk("=", v1, v2)))
        return out


# ---------------------------------------------------------------------------
# Problem pipeline
# ---------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class Reduction:
    """The front half of a SAT solve, and its model, kept so that a script
    extending the one solved reduces only the assertions it adds and starts
    its model search from this model.  It holds the script's clause chain
    (`chain`, a ``terms.Chain``) and its other assertions (`loose`, a
    frozenset), the array definitions and Ackermann reads (`defs`,
    `apps`), the substitution word-level reduction found, the conjuncts
    left (`residual`, each rewritten under `subst`; a conjunct's variables
    are its ``Term.free``), the rewritten assertions every model is
    checked against (`checked`, a chain) with the readers of each free
    variable through `subst` (`users`: name -> tuple of assertions; None
    from a whole-script solve, until an extension needs them), and the
    model (`env`: name -> value of free variables only, since
    ``_Evaluator`` reads it before `subst`; a free variable it lacks is 0
    or false)."""
    chain: object
    loose: frozenset
    defs: dict
    apps: dict
    subst: dict
    residual: object
    checked: object
    users: object
    env: object


# where a whole-script solve starts; a solve copies what it extends.  It
# has no model, so a solve from it searches from zeros and checks all.
EMPTY = Reduction(None, frozenset(), {}, {}, {}, (), None, {}, None)


def _lacks(script, base):
    """The script's assertions `base` lacks, in order: the front and the
    chain cells above the base's, less the base's loose ones.  None when
    the base cannot be extended to the script."""
    above = chain_above(script.chain, base.chain)
    fresh = [*script.front, *(above or ())]
    if above is None or not base.loose.issubset(fresh):
        return None
    return [a for a in fresh if a not in base.loose]


def _add_users(users, checked, subst):
    """Record in `users` each of `checked` as a reader of every free
    variable it reads through `subst`: its own free variables, and a
    bound one's definition's, in turn."""
    for a in checked:
        reached = dict(a.free)
        stack = list(reached)
        while stack:
            value = subst.get(stack.pop())
            for var in () if value is None else value.free:
                if var not in reached:
                    reached[var] = None
                    stack.append(var)
        for var in reached:
            if var not in subst:
                users[var.val] = users.get(var.val, ()) + (a,)


def _moved(parent, env, bound, evaluator):
    """The names of the variables free in a base whose value under `env`
    and the substitution of `evaluator` differs from the one the base's
    model `parent` gives them; a variable an env lacks is 0 or false.  A
    variable `bound` newly takes its definition's value."""
    moved = {name for name, value in env.items()
             if parent.get(name, 0) != value}
    moved.update(name for name, value in parent.items()
                 if value and name not in env and name not in bound)
    moved.update(name for name, (var, _definition) in bound.items()
                 if evaluator.eval(var) != parent.get(name, 0))
    return moved


@dataclass
class SatResult:
    """One check's answer.  On SAT, when a model was asked for, `model`
    maps each query's text to its value (bools as 0/1).  `reason` is
    ``repeated`` for an answer taken from a run's table, or says why the
    answer is ``unknown``."""
    status: str                    # 'sat' | 'unsat' | 'unknown'
    model: Optional[dict] = None
    reason: str = ""
    # the checked walk's ``encoder.Numbering``, set by the engine: the
    # checks of its extensions resume from it, and a found walk's
    # transactions are read from it
    numbering: Optional[object] = None
    # on sat, the kept ``Reduction`` its extensions' solves start from (the
    # engine passes a prefix's on to a check that made none)
    reduction: Optional[object] = None


def solve_commands(ctx, script, conflict_budget=None, deadline=None,
                   base=None, model=True):
    """Decide one ``parse.Script``; the answer is a ``SatResult``.
    `conflict_budget` bounds the CDCL search and `deadline` (a
    ``time.monotonic()`` value) the time spent in bit-blasting and CDCL;
    running out of either gives ``unknown``.

    The script's assertions are ``script.front`` and the clauses of
    ``script.chain``.  `base` is the ``Reduction`` of
    an earlier SAT script.  The solve starts from it, and its model search
    from the base's model, when the base's chain is the script's or one
    the script's extends and its other assertions are among the script's
    others; it is handed only what the base lacks (``_lacks``).  Otherwise
    it starts from ``EMPTY``.  Only with a `model` are the script's queries
    valued (``SatResult.model``, keyed by each query's text), from a solve
    started from empty: a SAT answer reached from a base is solved again
    from empty for it, with no model to start from.  Without one the
    script's declarations and queries are not read."""
    new = None if base is None else _lacks(script, base)
    if new is None:
        base, new = EMPTY, _lacks(script, EMPTY)
    result = _solve(ctx, script, new, base, model and base is EMPTY,
                    conflict_budget, deadline)
    if model and base is not EMPTY and result.status == "sat":
        result = _solve(ctx, script, _lacks(script, EMPTY), EMPTY, True,
                        conflict_budget, deadline)
    return result


def _solve(ctx, script, new, base, model, conflict_budget, deadline):
    """Extend `base` by `new`, the script's assertions it lacks, and decide
    the whole; the queries are valued only with `model`."""
    maps = _Maps(ctx, base)
    ground = []
    defined = []
    folded = ctx.folded
    for a in new:
        a = folded.get(a) or fold(ctx, a)
        if a.op == "=" and a.args[0].sort[0] == "array":
            var = maps.define(a)
            if var is None:
                raise SmtUnknown("array equality that is no definition: %s"
                                 % print_term(a))
            defined.append(var)
        elif a.op == "cbool":
            if not a.val:
                return SatResult("unsat")
        else:
            ground.append(a)

    resolved = {}                  # term -> term with array reads resolved
    checked = []
    # the rebound reads, then the new assertions; a folded term that holds
    # no array is its own rewrite under no substitution
    for a in maps.rebind(defined, resolved) + ground:
        if not a.plain:
            a = rewrite(ctx, a, {}, maps, resolved)
        if a.op == "cbool":
            if not a.val:
                return SatResult("unsat")
        else:
            checked.append(a)
    # a read only a query makes is still bound by congruence to the others
    queries = {text: rewrite(ctx, fold(ctx, q), {}, maps, resolved)
               for text, q in zip(script.query_texts, script.queries)
               } if model else None
    if maps.since:
        for a in maps.congruence_assertions():
            a = fold(ctx, a)
            if a.op == "cbool":
                if not a.val:
                    return SatResult("unsat")
            else:
                checked.append(a)

    # word-level reduction: propagate single definitions, first through the
    # new conjuncts, then, once one binds, through every conjunct left
    # (a conjunct of the base's residual, the same term, reading no
    # variable bound here is left as it is)
    kept = set(base.residual)
    subst = dict(base.subst)
    residual = _reduce(ctx, maps, subst, checked, list(base.residual), kept)
    if residual is None:
        return SatResult("unsat")

    # the model search starts from the base's model, if it has one, with
    # each variable this solve binds solved back to its value there
    reuse = None
    bound = {}
    if base.env is not None:
        memo = {}              # the bindings made here follow the base's
        for var, value in islice(subst.items(), len(base.subst), None):
            bound[var.val] = (var, rewrite(ctx, value, subst, maps, memo))
        reuse = _Reuse(base.env, bound, kept)

    # cheap word-level model search first, then refutation and cases on
    # ite conditions; bit-blast only when they all fail
    if residual:
        model_env = _greedy_model(residual, reuse)
        if model_env is None:
            if refutation(residual) is not None:
                return SatResult("unsat")
            model_env = _split(ctx, maps, residual, deadline)
            if isinstance(model_env, SatResult):
                return model_env
        if model_env is None:
            if deadline is not None and time.monotonic() > deadline:
                return SatResult("unknown", reason="deadline")
            model_env = {}
            try:
                blaster = Blaster(deadline)
                for a in residual:
                    blaster.assert_term(a)
                solver = SatSolver(blaster.cnf.nvars)
                for i, clause in enumerate(blaster.cnf.clauses):
                    if i % DEADLINE_STRIDE == 0 and deadline is not None \
                            and time.monotonic() > deadline:
                        raise SatBudgetExceeded("deadline")
                    solver.add_clause(clause)
                assignment = solver.solve(conflict_budget, deadline)
            except SatBudgetExceeded as exc:
                return SatResult("unknown", reason=str(exc))
            if assignment is None:
                return SatResult("unsat")
            for name, lits in blaster.var_bits.items():
                if isinstance(lits, tuple):
                    model_env[name] = sum(1 << i for i, lit in enumerate(lits)
                                          if _lit_value(assignment, lit))
                else:
                    model_env[name] = _lit_value(assignment, lits)
    elif reuse is not None:
        model_env = reuse.start(residual)
    else:
        model_env = {}

    # the self-check: every new assertion, and every one of the base's
    # that reads a variable whose value moved from the base's model (the
    # others hold, as they did there)
    evaluator = _Evaluator(model_env, subst)
    recheck, users = checked, None
    if base.env is not None:
        if base.users is None:
            # found once a whole-script solve is extended, as most (found
            # walks) never are
            base.users = {}
            _add_users(base.users, base.checked or (), base.subst)
        moved = _moved(base.env, model_env, bound, evaluator)
        recheck = checked + [a for name in moved
                             for a in base.users.get(name, ())]
        # the readers of a variable bound here read its definition's
        users = dict(base.users)
        for name, (_var, definition) in bound.items():
            readers = users.pop(name, None)
            for var in definition.free if readers else ():
                users[var.val] = users.get(var.val, ()) + readers
        _add_users(users, checked, subst)
    for a in recheck:
        if evaluator.eval(a) is not True:
            raise SmtInternalError("model fails %s" % print_term(a))

    chain = base.checked
    for a in checked:
        chain = Chain(chain, a)
    return SatResult("sat", None if queries is None else {
        text: int(evaluator.eval(q)) for text, q in queries.items()},
        reduction=Reduction(script.chain, frozenset(script.front), maps.defs,
                            maps.apps, subst, residual, chain, users,
                            model_env))


def _reduce(ctx, maps, subst, fresh, residual, known):
    """Word-level reduction of the conjuncts `fresh`, next to `residual`,
    whose conjuncts are reduced under `subst` already: every definitional
    conjunct (``x = t``) extends `subst`, and after a round that bound one,
    every conjunct left is rewritten again, but for one in `known` that
    reads no variable bound here: rewriting gives it back,
    and it was no definition where it was reduced.  The conjuncts left,
    new ones first, or None when one is false."""
    bound = set()                  # the variable terms bound here
    folded, keys = ctx.folded, subst.keys()
    while True:
        binds = len(bound)
        keep = []
        memo = {}
        for a in fresh:
            free = a.free
            if a in known and bound.isdisjoint(free):
                keep.append(a)
                continue
            # rewrite's own shortcut, taken here without a call
            a2 = (folded.get(a) or fold(ctx, a)) \
                if a.plain and keys.isdisjoint(free.keys()) \
                else rewrite(ctx, a, subst, maps, memo)
            if a2.op == "cbool":
                if not a2.val:
                    return None
                continue
            bind = _match_binding(ctx, a2, subst)
            if bind is not None:
                var, value = bind
                subst[var] = value
                bound.add(var)
                memo = {}
                continue
            keep.append(a2)
        if len(bound) == binds:
            return keep + residual
        fresh, residual = keep + residual, []


# the most ite conditions the split stage cases on: at most 8 leaves
SPLIT_ATOMS = 3


def _split(ctx, maps, residual, deadline):
    """Decide `residual` by cases on its first ``SPLIT_ATOMS`` distinct ite
    conditions (splitting on demand: Barrett, Nieuwenhuis, Oliveras &
    Tinelli, LPAR 2006).  Each truth assignment of those atoms is one leaf:
    the residual with every atom replaced by its value, refolded, next to
    the atoms' literals, reduced under a substitution of its own (a literal
    ``t0 = t1`` binds), then refuted or satisfied by greedy rounds from
    zeros.  The leaves cover every assignment of the atoms, so the residual
    is unsat when each leaf is refuted.  The first leaf greedy satisfies
    gives a model of the residual: the leaf's, with each variable the leaf
    bound at its definition's value (a variable it lacks is 0 or false).
    None when the residual has no ite condition or neither holds; unknown
    once the deadline has passed before a leaf."""
    atoms = _ite_conditions(residual)
    if not atoms:
        return None
    undecided = False
    # rewrite walks every term that reads an atom's variable (a folded atom
    # that is not constant has one) and reads its memo first: seeded, the
    # memo replaces the atoms
    touched = dict.fromkeys(var for atom in atoms for var in atom.free)
    for values in product((True, False), repeat=len(atoms)):
        if deadline is not None and time.monotonic() > deadline:
            return SatResult("unknown", reason="deadline")
        memo = {atom: ctx.cbool(value)
                for atom, value in zip(atoms, values)}
        leaf = [rewrite(ctx, a, touched, maps, memo) for a in residual]
        leaf += [atom if value else fold(ctx, ctx.mk("not", atom))
                 for atom, value in zip(atoms, values)]
        subst = {}
        leaf = _reduce(ctx, maps, subst, leaf, [], set())
        if leaf is None or refutation(leaf) is not None:
            continue
        env = {}
        if not _greedy_rounds(leaf, env):
            undecided = True
            continue
        # the variables the leaf bound take their definitions' values
        evaluator = _Evaluator(env, subst)
        model = dict(env)
        model.update((var.val, evaluator.eval(var)) for var in subst)
        evaluator = _Evaluator(model, {})
        for a in residual:
            if evaluator.eval(a) is not True:
                raise SmtInternalError("split model fails %s" % print_term(a))
        return model
    return None if undecided else SatResult("unsat")


def _ite_conditions(residual):
    """The distinct non-constant conditions of the ite terms of `residual`,
    in first-occurrence order (depth first, conjunct by conjunct), at most
    ``SPLIT_ATOMS``."""
    atoms, seen = [], set()
    stack = residual[::-1]
    while stack and len(atoms) < SPLIT_ATOMS:
        term = stack.pop()
        if term in seen:
            continue
        seen.add(term)
        if term.op == "ite" and term.args[0].op != "cbool" \
                and term.args[0] not in atoms:
            atoms.append(term.args[0])
        stack.extend(term.args[::-1])
    return atoms


def _lit_value(assignment, lit):
    if lit == 1:
        return True
    if lit == -1:
        return False
    v = assignment[abs(lit)]
    return v if lit > 0 else not v


# ---------------------------------------------------------------------------
# Greedy word-level model search
# ---------------------------------------------------------------------------

def _eval_plain(term, env):
    """Evaluate a ground term under `env` (a variable it lacks is 0 or
    false)."""
    return _Evaluator(env, {}).eval(term)


def _set_var(env, term, value):
    if term.op != "var":
        return False
    if term.sort == BOOL:
        env[term.val] = bool(value)
    else:
        width = term.sort[1]
        if value < 0 or value > mask(width):
            return False
        env[term.val] = value
    return True


def _force(term, want, env, residual, depth=0, held=None):
    """Best effort at making a boolean term evaluate to `want` by assigning
    variables; every candidate model is re-verified afterwards.  `residual`
    is the conjuncts the model is searched for, whose variables a fresh
    value avoids (``_fresh_value``); `held`, when given, lists the
    conjuncts a comparison move should keep true."""
    if depth > 12:
        return False
    op = term.op
    if op == "cbool":
        return term.val == want
    if op == "var":
        return _set_var(env, term, want)
    if op == "not":
        return _force(term.args[0], not want, env, residual, depth + 1, held)
    if (op == "and" and want) or (op == "or" and not want):
        evaluator = _Evaluator(env, {})
        for sub in term.args:
            if evaluator.eval(sub) != want:
                if not _force(sub, want, env, residual, depth + 1, held):
                    return False
                evaluator = _Evaluator(env, {})
        return True
    if (op == "or" and want) or (op == "and" and not want):
        return any(_force(sub, want, env, residual, depth + 1, held)
                   for sub in term.args)
    if op in ("=", "distinct"):
        equal = (op == "=") == want
        return _force_eq(term.args[0], term.args[1], equal, env, residual,
                         depth)
    if op in BV_CMPS:
        cmp_op = op if want else NEGATED[op]
        return _force_cmp(term.args[0], term.args[1], cmp_op, env, residual,
                          depth, held)
    return False


def _branches(cond, then, els, env):
    """The two (pick, branch) pairs of an ite, the one its condition
    selects under `env` first, so a branch already taken is kept."""
    taken, other = (True, then), (False, els)
    return (taken, other) if _eval_plain(cond, env) else (other, taken)


def _solve_to_value(term, value, env, residual, depth=0):
    """Assign variables so that `term` evaluates to `value`: a linear term
    over one variable is solved in closed form, otherwise ite/add/sub/extend
    chains are inverted one free side at a time, the ite branch the
    condition selects first."""
    if depth > 16:
        return False
    op = term.op
    if op == "var":
        return _set_var(env, term, value)
    if op == "const":
        return term.val[0] == value
    if op == "cbool":
        return term.val == value
    if op == "zero_extend":
        inner = term.args[0]
        if value > mask(inner.sort[1]):
            return False
        return _solve_to_value(inner, value, env, residual, depth + 1)
    if op == "ite":
        cond, then, els = term.args
        for pick, sub in _branches(cond, then, els, env):
            if _eval_plain(sub, env) == value or _solvable_leaf(sub):
                if _solve_to_value(sub, value, env, residual, depth + 1) \
                        and _force(cond, pick, env, residual, depth + 1):
                    return True
        return False
    if op in ("bvadd", "bvsub", "bvneg", "bvmul"):
        coeffs, k = term.linear
        if len(coeffs) == 1 and next(iter(coeffs)).op == "var":
            (atom, c), = coeffs.items()
            width = term.sort[1]
            x = solve_linear(c, (value - k) & mask(width), width)
            if x is not None:
                return _set_var(env, atom, x)
    if op in ("bvadd", "bvsub"):
        width = term.sort[1]
        a, b = term.args
        for free, fixed, left in ((a, b, True), (b, a, False)):
            fixed_val = _eval_plain(fixed, env)
            if op == "bvadd":
                want = (value - fixed_val) & mask(width)
            elif left:                       # solve a in a - b = value
                want = (value + fixed_val) & mask(width)
            else:                            # solve b in a - b = value
                want = (fixed_val - value) & mask(width)
            if _solve_to_value(free, want, env, residual, depth + 1):
                return True
        return False
    return _eval_plain(term, env) == value


def _solvable_leaf(term):
    while term.op in ("zero_extend", "bvadd", "bvsub"):
        term = term.args[0]
    return term.op in ("var", "ite")


def _force_eq(x, y, equal, env, residual, depth):
    if x.sort != BOOL \
            and _force_difference(x, y, equal, env, residual, depth):
        return True
    for side, other in ((x, y), (y, x)):
        value = _eval_plain(other, env)
        if not equal:
            if other.sort == BOOL:
                value = not value
            elif side.op == "var":
                return _set_var(env, side, _fresh_value(side, value, env,
                                                        residual))
            else:
                value = (value ^ 1) & mask(side.sort[1])
        if _solve_to_value(side, value, env, residual, depth + 1):
            return True
    return False


def _force_difference(x, y, equal, env, residual, depth):
    """When the sides of ``x = y`` (``x != y`` unless `equal`) share an atom,
    solve their linear difference c*a + k for its one atom: c*a + k = 0, or,
    if it is 0, a's value with its low bit flipped (moving it by c, not 0)."""
    if x.linear[0].keys().isdisjoint(y.linear[0]):
        return False
    coeffs, k = difference(x, y)
    if len(coeffs) != 1:
        return False
    (atom, c), = coeffs.items()
    width = x.sort[1]
    if equal:
        value = solve_linear(c, -k & mask(width), width)
        return value is not None \
            and _solve_to_value(atom, value, env, residual, depth + 1)
    current = _eval_plain(atom, env)
    return (c * current + k) & mask(width) != 0 \
        or _solve_to_value(atom, current ^ 1, env, residual, depth + 1)


def _fresh_value(var, value, env, residual):
    """A value for the bitvector `var` other than `value` that no other
    variable of its sort in `residual` holds under `env` (a variable it
    lacks holds 0), trying ``value ^ 1`` first; ``value ^ 1`` when every
    value of the sort is taken."""
    top = mask(var.sort[1])
    taken = {env.get(other.val, 0) for a in residual for other in a.free
             if other.sort == var.sort and other.val != var.val}
    taken.add(value)
    candidate = (value ^ 1) & top
    if len(taken) > top:
        return candidate
    while candidate in taken:
        candidate = (candidate + 1) & top
    return candidate


def _force_cmp(x, y, op, env, residual, depth, held=None):
    """Make ``x op y`` hold by the first of three moves that succeeds: the
    wrap-around values, a move of `x`, a move of `y`.  A move that falsifies
    a conjunct of `held` gives way to a later one that keeps them all
    (``i + 1 < n`` met by ``n := i + 2``, not by wrapping i to n - 2)."""
    moves = (partial(_wrap_around, x, y, op),
             partial(_move_side, x, y, True, op, residual, depth),
             partial(_move_side, y, x, False, op, residual, depth))
    if held is None:
        return any(move(env) for move in moves)
    first = None
    for move in moves:
        trial = dict(env)
        if not move(trial):
            if first is None:
                env.update(trial)
            continue
        if all(map(_Evaluator(trial, {}).eval, held)):
            env.update(trial)
            return True
        if first is None:
            first = trial
    if first is None:
        return False
    env.update(first)
    return True


# a side moves to the other side's value + step on the left, - step right
_CMP_STEP = {"bvult": -1, "bvule": 0, "bvugt": 1, "bvuge": 0}


def _move_side(side, other, left, op, residual, depth, env):
    """Make ``side op other`` (``other op side`` unless `left`) hold: move
    `side` next to the other side's value, or steer the ites inside it."""
    bound = _eval_plain(other, env)
    want = bound + _CMP_STEP[op] if left else bound - _CMP_STEP[op]
    return (0 <= want <= mask(side.sort[1])
            and _solve_to_value(side, want, env, residual, depth + 1)) \
        or _force_cmp_side(side, bound, op, left, env, residual, depth + 1)


def _wrap_around(x, y, op, env):
    """When both sides of `x <op> y` share a variable (the overflow idioms
    ``a + v < a`` and ``x >= x + 3``), set the comparison's bitvector
    variables to their maximum values one at a time on a trial env; keep
    the trial env, and answer True, as soon as the comparison holds."""
    if x.free.keys().isdisjoint(y.free.keys()):
        return False
    trial = dict(env)
    for var in {**x.free, **y.free}:
        if var.sort == BOOL:
            continue
        trial[var.val] = mask(var.sort[1])
        if _CMP_HOLDS[op](_eval_plain(x, trial), _eval_plain(y, trial)):
            env.update(trial)
            return True
    return False


def _force_cmp_side(term, bound, op, left, env, residual, depth):
    """Make `term <op> bound` (or `bound <op> term`) hold by steering ite
    conditions toward a branch that already satisfies the comparison."""
    if depth > 12:
        return False
    while term.op == "zero_extend":
        term = term.args[0]
    if term.op != "ite":
        value = _eval_plain(term, env)
        return _CMP_HOLDS[op](value, bound) if left \
            else _CMP_HOLDS[op](bound, value)
    cond, then, els = term.args
    for pick, sub in _branches(cond, then, els, env):
        value = _eval_plain(sub, env)
        ok = _CMP_HOLDS[op](value, bound) if left \
            else _CMP_HOLDS[op](bound, value)
        if (ok or _force_cmp_side(sub, bound, op, left, env, residual,
                                  depth + 1)) \
                and _force(cond, pick, env, residual, depth + 1):
            return True
    return False


@dataclass(slots=True, eq=False)
class _Reuse:
    """What a solve from a kept reduction reuses of its base's model: the
    base's env (`parent`), the variables the solve binds (`bound`: name ->
    (variable, definition rewritten through the solve's substitution)) and
    the base's residual conjuncts (`kept`)."""
    parent: dict
    bound: dict
    kept: set

    def start(self, residual):
        """The base's model, each newly bound variable taken out, since the
        evaluator reads the env before the substitution, and its definition
        solved back to the value the variable had, so that every conjunct
        the binding rewrote keeps its truth value.  A variable of
        `residual` the base's model lacks is 0 or false."""
        parent = self.parent
        env = dict(parent)
        for name in self.bound:
            env.pop(name, None)
        for name, (var, definition) in self.bound.items():
            value = parent.get(name, 0)
            if var.sort == BOOL:
                _force(definition, bool(value), env, residual)
            else:
                _solve_to_value(definition, value, env, residual)
        return env

    def holds(self, residual, env):
        """True when every conjunct of `residual` holds under `env`, given
        that each of the base's held under the base's model: only new
        conjuncts and those reading a variable whose value moved are
        evaluated."""
        parent, kept = self.parent, self.kept
        moved = {name for name, value in env.items()
                 if parent.get(name, 0) != value}
        evaluator = _Evaluator(env, {})
        for a in residual:
            if (a not in kept
                    or moved and not moved.isdisjoint(
                        [var.val for var in a.free])) \
                    and not evaluator.eval(a):
                return False
        return True


def _greedy_model(residual, reuse):
    """Deterministic best-effort assignment of the variables of `residual`;
    returns an env that makes every conjunct true (a variable it lacks is
    0 or false), or None to fall back to bit-blasting.  With `reuse` (a
    ``_Reuse``) the search starts from the base's model: it is the model
    when every conjunct that is new or reads a moved variable holds there,
    and the greedy rounds run from it otherwise.  Only when they fail do
    they run again from zeros, as in a solve without a base."""
    if reuse is not None:
        env = reuse.start(residual)
        if reuse.holds(residual, env) or _greedy_rounds(residual, env):
            return env
    env = {}
    return env if _greedy_rounds(residual, env) else None


def _greedy_rounds(residual, env):
    """Force the false conjuncts of `residual` true, one at a time, for at
    most 8 rounds; True when `env` then makes every conjunct true (a
    variable `env` lacks is 0 or false, and a move adds it).  One
    evaluator serves until a move changes `env`.  From the second round on
    a comparison move keeps the conjuncts that held before it when it can
    (``_force_cmp``); in the first, every move is the first that succeeds."""
    for round_ in range(8):
        evaluator = _Evaluator(env, {})
        all_ok = True
        for a in residual:
            if evaluator.eval(a):
                continue
            all_ok = False
            held = [b for b in residual if evaluator.eval(b)] \
                if round_ else None
            if not _force(a, True, env, residual, held=held):
                return False
            evaluator = _Evaluator(env, {})
        if all_ok:
            return True
    return all(map(_Evaluator(env, {}).eval, residual))


def _match_binding(ctx, term, subst):
    """Recognize definitional conjuncts: (= var t), a bare variable, or its
    negation.  The variable must be fresh and must not occur in t."""
    if term.op == "var" and term.sort == BOOL and term not in subst:
        return term, ctx.TRUE
    if term.op == "not" and term.args[0].op == "var" \
            and term.args[0] not in subst:
        return term.args[0], ctx.FALSE
    if term.op != "=":
        return None
    a, b = term.args
    for var, value in ((a, b), (b, a)):
        if var.op == "var" and var not in subst and var not in value.free:
            return var, value
    return None


class _Evaluator:
    """The values of terms under a model: a variable's is its value in
    `env` (name -> int or bool), else its definition's in `subst` (term ->
    term), else 0 or false.  A constant or a variable is read where it
    stands; any other term is evaluated once, by its operator's kernel in
    ``_EVAL``, and kept in `memo`, keyed on the term."""
    __slots__ = ("env", "subst", "memo")

    def __init__(self, env, subst):
        self.env = env
        self.subst = subst
        self.memo = {}

    def eval(self, term):
        op = term.op
        if op == "const":
            return term.val[0]
        if op == "cbool":
            return term.val
        if op == "var":
            value = self.env.get(term.val)
            if value is not None:
                return value
            definition = self.subst.get(term)
            if definition is not None:
                return self.eval(definition)
            return False if term.sort == BOOL else 0
        out = self.memo.get(term)
        if out is None:
            kernel = _EVAL.get(op)
            if kernel is None:
                raise SmtError("cannot evaluate %r" % op)
            out = self.memo[term] = kernel(self, term)
        return out


# the evaluation kernels: each takes the evaluator and a term of its
# operator, whose arguments it evaluates through the evaluator

def _eval_xor(ev, term):
    out = False
    for a in term.args:
        out ^= ev.eval(a)
    return out


def _eval_ite(ev, term):
    cond, then, els = term.args
    return ev.eval(then if ev.eval(cond) else els)


def _eval_bv_binop(ev, term):
    a, b = term.args
    width = term.sort[1]
    return _BV_ARITH[term.op](ev.eval(a), ev.eval(b), width) & mask(width)


def _eval_bv_cmp(ev, term):
    a, b = term.args
    return _CMP_HOLDS[term.op](ev.eval(a), ev.eval(b))


def _eval_sign_extend(ev, term):
    a = term.args[0]
    return _sign_extend(ev.eval(a), a.sort[1], term.val)


def _eval_extract(ev, term):
    hi, lo = term.val
    return ev.eval(term.args[0]) >> lo & mask(hi - lo + 1)


def _eval_concat(ev, term):
    high, low = term.args
    return ev.eval(high) << low.sort[1] | ev.eval(low)


_EVAL = {
    "not": lambda ev, term: not ev.eval(term.args[0]),
    "and": lambda ev, term: all(map(ev.eval, term.args)),
    "or": lambda ev, term: any(map(ev.eval, term.args)),
    "xor": _eval_xor,
    "=>": lambda ev, term: (not ev.eval(term.args[0])
                            or ev.eval(term.args[1])),
    "=": lambda ev, term: ev.eval(term.args[0]) == ev.eval(term.args[1]),
    "distinct": lambda ev, term: (ev.eval(term.args[0])
                                  != ev.eval(term.args[1])),
    "ite": _eval_ite,
    **dict.fromkeys(BV_BINOPS, _eval_bv_binop),
    **dict.fromkeys(BV_CMPS, _eval_bv_cmp),
    "bvnot": lambda ev, term: ~ev.eval(term.args[0]) & mask(term.sort[1]),
    "bvneg": lambda ev, term: -ev.eval(term.args[0]) & mask(term.sort[1]),
    "zero_extend": lambda ev, term: ev.eval(term.args[0]),
    "sign_extend": _eval_sign_extend,
    "extract": _eval_extract,
    "concat": _eval_concat,
}


# ---------------------------------------------------------------------------
# Whole-script entry point
# ---------------------------------------------------------------------------

DEFAULT_CONFLICT_BUDGET = 50000


def solve_text(text, conflict_budget=DEFAULT_CONFLICT_BUDGET):
    """Run one SMT-LIB 2 script; returns the response text the process
    interface prints: sat/unsat/unknown, then one ((term value) ...) line
    answering each get-value query in order, a repeated one again.

    The conflict budget bounds pathological bit-level searches; exceeding
    it reports unknown (deterministically: conflicts are not time-based).
    """
    ctx, script = parse_script(text)
    if not script.has_check:
        return "unknown\n(error \"no check-sat command\")\n"
    try:
        result = solve_commands(ctx, script, conflict_budget)
    except SmtUnknown as exc:
        return 'unknown\n(:reason-unknown "%s")\n' % exc
    if result.status == "unsat":
        return "unsat\n"
    if result.status == "unknown":
        return "unknown\n(:reason-unknown \"%s\")\n" % result.reason
    out = ["sat"]
    if script.query_texts:
        out.append("(%s)" % " ".join(
            "(%s %s)" % (text, _value_text(result.model[text], q.sort))
            for text, q in zip(script.query_texts, script.queries)))
    return "\n".join(out) + "\n"


def _value_text(value, sort):
    if sort == BOOL:
        return "true" if value else "false"
    return "(_ bv%d %d)" % (value, sort[1])
