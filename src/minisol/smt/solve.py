"""Solving pipeline, in order: fold/resolve -> word-level reduction -> linear
refutation -> greedy model -> bit-blast -> CDCL -> model self-check.

Folding is a function of the hash-consed term: each distinct term is folded
once per :class:`~.terms.Ctx` and the result kept in ``Ctx.folded``.  A
context may serve many scripts (``minisol.synthesize`` solves every check of
a run in one), so a term that recurs across checks is folded once.
Fold/resolve folds every assertion, takes each top-level array equality as
its array variable's definition, and replaces every ``select`` by a term
over bitvectors.  Word-level reduction substitutes definitional conjuncts
(``x = t``) until none is left.  Resolution and substitution are one
``rewrite`` pass, which first resolves reads and then substitutes
definitions, refolding each node it rebuilds.  Linear refutation answers
unsat when a remaining conjunct is a bitvector (dis)equality whose sides
differ only by a constant; it never rewrites or drops a conjunct, so
satisfiable checks pass through it unchanged.  The greedy model search
assigns variables at word level, forcing one false conjunct at a time: it
keeps the ite branch a condition already selects, gives a variable forced
to differ a value no other variable of its sort holds, solves one-variable
linear terms (c*x + k = v modulo 2^width) in closed form, and tries maximum
values when both sides of a comparison share a variable (``a + v < a``).
Only when it fails are the remaining conjuncts bit-blasted to CNF for the
CDCL solver.

Arrays (QF_ABV) are read by ``select`` only.  A top-level ``(= a t)`` whose
``a`` is an array variable defines ``a`` as ``t``, a ``store`` or constant
array over other arrays (the left side is the variable when both are).  A
read resolves through the definitions: a ``store`` to ``ite(key = i, v,
read of the array below)``, a constant array to its value.  A variable
defined twice, any other array equality and an array anywhere else answer
unknown.  The reads of a variable left undefined are Ackermann-expanded
over the keys that actually occur.  Every model is checked against the
rewritten assertions before it is reported.
"""

from __future__ import annotations

import time

from .bitblast import DEADLINE_STRIDE, Blaster
from .parse import parse_script
from .sat import SatBudgetExceeded, SatSolver
from .terms import BOOL, BV_BINOPS, BV_CMPS, BV_UNOPS, SmtError, \
    is_const, print_term


class SmtUnknown(SmtError):
    """Raised when the script falls outside the supported fragment."""


class SmtInternalError(SmtError):
    """A produced model failed the final self-check; always a solver bug."""


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def _mask(width):
    return (1 << width) - 1


_CMP_HOLDS = {"bvult": lambda a, b: a < b, "bvule": lambda a, b: a <= b,
              "bvugt": lambda a, b: a > b, "bvuge": lambda a, b: a >= b}


def _sign_extend(value, width, extra):
    """The `width`-bit `value` sign-extended by `extra` bits."""
    if value >> (width - 1):
        value |= _mask(extra) << width
    return value


def fold(ctx, term):
    """The constant-folded form of `term`, computed once per context:
    ``ctx.folded`` records the result for the term and, since folding is
    idempotent, for the result itself."""
    folded = ctx.folded
    out = folded.get(id(term))
    if out is None:
        out = _fold(ctx, term)
        folded[id(term)] = out
        folded[id(out)] = out
    return out


def _fold(ctx, term):
    op = term.op
    if op in ("const", "cbool", "var"):
        return term
    args = tuple(fold(ctx, a) for a in term.args)
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
        distributed = _distribute_cmp(ctx, "=", a, b)
        if distributed is not None:
            return distributed
        return ctx.mk("=", a, b)
    if op == "distinct":
        a, b = args
        if a is b:
            return ctx.FALSE
        if is_const(a) and is_const(b):
            return ctx.cbool(a.val != b.val)
        return ctx.mk("distinct", a, b)
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
            return ctx.const(_bv_arith(op, a.val[0], b.val[0], width), width)
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


def _bv_arith(op, x, y, width):
    if op == "bvadd":
        return x + y
    if op == "bvsub":
        return x - y
    if op == "bvmul":
        return x * y
    if op == "bvudiv":
        return x // y if y else _mask(width)
    if op == "bvurem":
        return x % y if y else x
    if op == "bvand":
        return x & y
    if op == "bvor":
        return x | y
    if op == "bvxor":
        return x ^ y
    if op == "bvshl":
        return x << y if y < width else 0
    if op == "bvlshr":
        return x >> y if y < width else 0
    raise SmtError(op)


# ---------------------------------------------------------------------------
# Rewriting: array reads and substitution
# ---------------------------------------------------------------------------

def rewrite(ctx, term, subst, maps, memo):
    """Replace variables through `subst` (following chains) and array reads
    through `maps.resolve`, folding every rebuilt node, bottom up."""
    hit = memo.get(id(term))
    if hit is not None:
        return hit
    op = term.op
    if term.sort[0] == "array":
        raise SmtUnknown("array term outside a definition or select: %s"
                         % print_term(term))
    if op == "var":
        value = subst.get(term)
        out = term if value is None \
            else rewrite(ctx, value, subst, maps, memo)
    elif op == "select":
        key = rewrite(ctx, term.args[1], subst, maps, memo)
        out = maps.resolve(term.args[0], key, subst, memo)
    elif term.args:
        args = tuple(rewrite(ctx, a, subst, maps, memo) for a in term.args)
        out = fold(ctx, ctx.node(op, term.val, args, term.sort))
    else:
        out = term
    memo[id(term)] = out
    return out


def occurs(var, term):
    """True when `var` is `term` or one of its subterms; each shared
    subterm of the DAG is visited once."""
    seen = set()
    stack = [term]
    while stack:
        term = stack.pop()
        if term is var:
            return True
        if id(term) not in seen:
            seen.add(id(term))
            stack.extend(term.args)
    return False


# ---------------------------------------------------------------------------
# Array definitions and reads
# ---------------------------------------------------------------------------

class _Maps:
    def __init__(self, ctx):
        self.ctx = ctx
        self.defs = {}             # array var term -> its defining term
        self.apps = {}             # base array var -> {key term -> ack var}

    def define(self, eq):
        """Record the top-level array equality `eq` as the definition of its
        variable side, the left one if both are; False when neither side
        is a variable, the sorts differ, or the variable has a definition
        already.  Only the definition is read, so a second one would be
        dropped, and the model check, which reads the rewritten
        assertions, would never see it."""
        var, value = eq.args
        if var.op != "var":
            var, value = value, var
        if var.op != "var" or var.sort != value.sort or var in self.defs:
            return False
        self.defs[var] = value
        return True

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
                    table = self.apps.setdefault(array, {})
                    if key not in table:
                        table[key] = ctx.var(
                            "%%ack!%s!%d" % (array.val, len(table)),
                            array.sort[2])
                    return table[key]
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

    def congruence_assertions(self):
        out = []
        ctx = self.ctx
        for table in self.apps.values():
            items = list(table.items())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    (a1, v1), (a2, v2) = items[i], items[j]
                    out.append(ctx.mk("or", ctx.mk("distinct", a1, a2),
                                      ctx.mk("=", v1, v2)))
        return out


# ---------------------------------------------------------------------------
# Problem pipeline
# ---------------------------------------------------------------------------

class Result:
    def __init__(self, status, values=None, reason=""):
        self.status = status       # 'sat' | 'unsat' | 'unknown'
        self.values = values or []  # per query: int, or bool for a Bool
        self.reason = reason


def solve_commands(ctx, script, conflict_budget=None, deadline=None):
    """Decide one script.  `conflict_budget` bounds the CDCL search and
    `deadline` (a ``time.monotonic()`` value) the time spent in bit-blasting
    and CDCL; running out of either gives ``unknown``."""
    maps = _Maps(ctx)
    ground = []
    for a in script.asserts:
        a = fold(ctx, a)
        if a.op == "=" and a.args[0].sort[0] == "array":
            if not maps.define(a):
                raise SmtUnknown("array equality that is no definition: %s"
                                 % print_term(a))
        elif a.op == "cbool":
            if not a.val:
                return Result("unsat")
        else:
            ground.append(a)

    resolved = {}                  # term -> term with array reads resolved
    rewritten = [rewrite(ctx, a, {}, maps, resolved) for a in ground]
    # a read only a query makes is still bound by congruence to the others
    queries = [rewrite(ctx, fold(ctx, q), {}, maps, resolved)
               for q in script.queries]
    rewritten += [fold(ctx, a) for a in maps.congruence_assertions()]

    checked = [a for a in rewritten if a.op != "cbool" or not a.val]
    if any(a.op == "cbool" and not a.val for a in checked):
        return Result("unsat")

    # word-level reduction: propagate single definitions
    residual = checked
    subst = {}
    while True:
        new_binds = 0
        keep = []
        memo = {}
        for a in residual:
            a2 = rewrite(ctx, a, subst, maps, memo)
            if a2.op == "cbool":
                if not a2.val:
                    return Result("unsat")
                continue
            bind = _match_binding(ctx, a2, subst)
            if bind is not None:
                var, value = bind
                subst[var] = value
                new_binds += 1
                memo = {}
                continue
            keep.append(a2)
        residual = keep
        if not new_binds:
            break

    if _refuted_linear(residual):
        return Result("unsat")

    # cheap word-level model search first; bit-blast only when it fails
    model_env = {}
    if residual:
        model_env = _greedy_model(residual)
        if model_env is None:
            if deadline is not None and time.monotonic() > deadline:
                return Result("unknown", reason="deadline")
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
                return Result("unknown", reason=str(exc))
            if assignment is None:
                return Result("unsat")
            for name, lits in blaster.var_bits.items():
                if isinstance(lits, tuple):
                    model_env[name] = sum(1 << i for i, lit in enumerate(lits)
                                          if _lit_value(assignment, lit))
                else:
                    model_env[name] = _lit_value(assignment, lits)

    evaluator = _Evaluator(model_env, subst)
    for a in rewritten:
        if evaluator.eval(a) is not True:
            raise SmtInternalError("model fails %s" % print_term(a))

    return Result("sat", [evaluator.eval(q) for q in queries])


# ---------------------------------------------------------------------------
# Word-level linear refutation
# ---------------------------------------------------------------------------

def _linear(term, memo):
    """The linear form of a bitvector term, modulo 2^width: a pair
    (coefficients, constant) whose coefficients map atoms to non-zero
    multipliers.  bvadd, bvsub, bvneg and bvmul by a constant are linear;
    every other term (var, ite, extract, ...) is an atom, keyed by the
    hash-consed term itself."""
    hit = memo.get(id(term))
    if hit is not None:
        return hit
    op = term.op
    mask = _mask(term.sort[1])
    if op == "const":
        out = ({}, term.val[0])
    elif op in ("bvadd", "bvsub"):
        sign = 1 if op == "bvadd" else -1
        (ca, ka), (cb, kb) = (_linear(a, memo) for a in term.args)
        coeffs = dict(ca)
        for atom, c in cb.items():
            c = (coeffs.get(atom, 0) + sign * c) & mask
            if c:
                coeffs[atom] = c
            else:
                coeffs.pop(atom, None)
        out = (coeffs, (ka + sign * kb) & mask)
    elif op == "bvneg":
        coeffs, k = _linear(term.args[0], memo)
        out = ({atom: -c & mask for atom, c in coeffs.items()}, -k & mask)
    elif op == "bvmul" and any(a.op == "const" for a in term.args):
        a, b = term.args
        scale, other = (a.val[0], b) if a.op == "const" else (b.val[0], a)
        coeffs, k = _linear(other, memo)
        scaled = {}
        for atom, c in coeffs.items():
            c = c * scale & mask
            if c:
                scaled[atom] = c
        out = (scaled, k * scale & mask)
    else:
        out = ({term: 1}, 0)
    memo[id(term)] = out
    return out


def _linear_truth(term, memo):
    """True/False when a bitvector (dis)equality, or its negation, is
    decided by its sides' linear forms alone (equal coefficients on every
    atom, so only the constants differ); None otherwise."""
    want = True
    if term.op == "not":
        term, want = term.args[0], False
    if term.op not in ("=", "distinct") or term.args[0].sort == BOOL:
        return None
    (ca, ka), (cb, kb) = (_linear(a, memo) for a in term.args)
    if ca != cb:
        return None
    return ((ka == kb) == (term.op == "=")) == want


def _refuted_linear(residual):
    """True when some conjunct is false on every assignment because its two
    sides differ only by a constant (x + 2 = x).  Refutation only: a
    conjunct found true stays in the residual and nothing is rewritten."""
    memo = {}
    return any(_linear_truth(a, memo) is False for a in residual)


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
    """Evaluate a ground term under a total env (missing vars are 0)."""
    return _Evaluator(env, {}).eval(term)


def _collect_vars(term, out, seen):
    if id(term) in seen:
        return
    seen.add(id(term))
    if term.op == "var":
        out.setdefault(term.val, term.sort)
    for a in term.args:
        _collect_vars(a, out, seen)


def _set_var(env, term, value):
    if term.op != "var":
        return False
    if term.sort == BOOL:
        env[term.val] = bool(value)
    else:
        width = term.sort[1]
        if value < 0 or value > _mask(width):
            return False
        env[term.val] = value
    return True


_CMP_NEG = {"bvult": "bvuge", "bvule": "bvugt", "bvugt": "bvule",
            "bvuge": "bvult"}


def _force(term, want, env, sorts, depth=0):
    """Best effort at making a boolean term evaluate to `want` by assigning
    variables; every candidate model is re-verified afterwards.  `sorts`
    maps each variable name of the residual to its sort."""
    if depth > 12:
        return False
    op = term.op
    if op == "cbool":
        return term.val == want
    if op == "var":
        return _set_var(env, term, want)
    if op == "not":
        return _force(term.args[0], not want, env, sorts, depth + 1)
    if (op == "and" and want) or (op == "or" and not want):
        for sub in term.args:
            if _eval_plain(sub, env) != want:
                if not _force(sub, want, env, sorts, depth + 1):
                    return False
        return True
    if (op == "or" and want) or (op == "and" and not want):
        return any(_force(sub, want, env, sorts, depth + 1)
                   for sub in term.args)
    if op == "=>":
        if want:
            return (_force(term.args[0], False, env, sorts, depth + 1)
                    or _force(term.args[1], True, env, sorts, depth + 1))
        return (_force(term.args[0], True, env, sorts, depth + 1)
                and _force(term.args[1], False, env, sorts, depth + 1))
    if op in ("=", "distinct"):
        equal = (op == "=") == want
        return _force_eq(term.args[0], term.args[1], equal, env, sorts,
                         depth)
    if op in BV_CMPS:
        cmp_op = op if want else _CMP_NEG[op]
        return _force_cmp(term.args[0], term.args[1], cmp_op, env, sorts,
                          depth)
    return False


def _branches(cond, then, els, env):
    """The two (pick, branch) pairs of an ite, the one its condition
    selects under `env` first, so a branch already taken is kept."""
    taken, other = (True, then), (False, els)
    return (taken, other) if _eval_plain(cond, env) else (other, taken)


def _solve_to_value(term, value, env, sorts, depth=0):
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
        if value > _mask(inner.sort[1]):
            return False
        return _solve_to_value(inner, value, env, sorts, depth + 1)
    if op == "ite":
        cond, then, els = term.args
        for pick, sub in _branches(cond, then, els, env):
            if _eval_plain(sub, env) == value or _solvable_leaf(sub):
                if _solve_to_value(sub, value, env, sorts, depth + 1) \
                        and _force(cond, pick, env, sorts, depth + 1):
                    return True
        return False
    if op in ("bvadd", "bvsub", "bvneg", "bvmul"):
        coeffs, k = _linear(term, {})
        if len(coeffs) == 1 and next(iter(coeffs)).op == "var":
            (atom, c), = coeffs.items()
            width = term.sort[1]
            x = _solve_linear(c, (value - k) & _mask(width), width)
            if x is not None:
                return _set_var(env, atom, x)
    if op in ("bvadd", "bvsub"):
        width = term.sort[1]
        a, b = term.args
        for free, fixed, left in ((a, b, True), (b, a, False)):
            fixed_val = _eval_plain(fixed, env)
            if op == "bvadd":
                want = (value - fixed_val) & _mask(width)
            elif left:                       # solve a in a - b = value
                want = (value + fixed_val) & _mask(width)
            else:                            # solve b in a - b = value
                want = (fixed_val - value) & _mask(width)
            if _solve_to_value(free, want, env, sorts, depth + 1):
                return True
        return False
    return _eval_plain(term, env) == value


def _solve_linear(c, r, width):
    """The least x with c*x = r (mod 2^width), for c non-zero modulo
    2^width, or None: a solution exists iff 2^t divides r, where 2^t is the
    largest power of two dividing c."""
    t = (c & -c).bit_length() - 1
    if r & _mask(t):
        return None
    modulus = 1 << (width - t)
    return (r >> t) * pow(c >> t, -1, modulus) % modulus


def _solvable_leaf(term):
    while term.op in ("zero_extend", "bvadd", "bvsub"):
        term = term.args[0]
    return term.op in ("var", "ite")


def _force_eq(x, y, equal, env, sorts, depth):
    for side, other in ((x, y), (y, x)):
        value = _eval_plain(other, env)
        if not equal:
            if other.sort == BOOL:
                value = not value
            elif side.op == "var":
                return _set_var(env, side, _fresh_value(side, value, env,
                                                        sorts))
            else:
                value = (value ^ 1) & _mask(side.sort[1])
        if _solve_to_value(side, value, env, sorts, depth + 1):
            return True
    return False


def _fresh_value(var, value, env, sorts):
    """A value for the bitvector `var` other than `value` that no other
    variable of its sort holds, trying ``value ^ 1`` first; ``value ^ 1``
    when every value of the sort is taken."""
    mask = _mask(var.sort[1])
    taken = {env[name] for name, sort in sorts.items()
             if sort == var.sort and name != var.val}
    taken.add(value)
    candidate = (value ^ 1) & mask
    if len(taken) > mask:
        return candidate
    while candidate in taken:
        candidate = (candidate + 1) & mask
    return candidate


def _force_cmp(x, y, op, env, sorts, depth):
    if _wrap_around(x, y, op, env):
        return True
    for side, other, left in ((x, y, True), (y, x, False)):
        bound = _eval_plain(other, env)
        if left:
            want = {"bvult": bound - 1, "bvule": bound,
                    "bvugt": bound + 1, "bvuge": bound}[op]
        else:
            want = {"bvult": bound + 1, "bvule": bound,
                    "bvugt": bound - 1, "bvuge": bound}[op]
        width = side.sort[1]
        if 0 <= want <= _mask(width) \
                and _solve_to_value(side, want, env, sorts, depth + 1):
            return True
        if _force_cmp_side(side, bound, op, left, env, sorts, depth + 1):
            return True
    return False


def _wrap_around(x, y, op, env):
    """When both sides of `x <op> y` share a variable (the overflow idioms
    ``a + v < a`` and ``x >= x + 3``), set the comparison's bitvector
    variables to their maximum values one at a time on a trial env; keep
    the trial env, and answer True, as soon as the comparison holds."""
    left, right = {}, {}
    _collect_vars(x, left, set())
    _collect_vars(y, right, set())
    if left.keys().isdisjoint(right):
        return False
    trial = dict(env)
    for name, sort in {**left, **right}.items():
        if sort == BOOL:
            continue
        trial[name] = _mask(sort[1])
        if _CMP_HOLDS[op](_eval_plain(x, trial), _eval_plain(y, trial)):
            env.update(trial)
            return True
    return False


def _force_cmp_side(term, bound, op, left, env, sorts, depth):
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
        if (ok or _force_cmp_side(sub, bound, op, left, env, sorts,
                                  depth + 1)) \
                and _force(cond, pick, env, sorts, depth + 1):
            return True
    return False


def _greedy_model(residual):
    """Deterministic best-effort assignment; returns a full env that makes
    every conjunct true, or None to fall back to bit-blasting."""
    sorts = {}
    seen = set()
    for a in residual:
        _collect_vars(a, sorts, seen)
    env = {name: (False if sort == BOOL else 0)
           for name, sort in sorts.items()}
    for _round in range(8):
        all_ok = True
        progressed = False
        for a in residual:
            if _eval_plain(a, env):
                continue
            all_ok = False
            if _force(a, True, env, sorts):
                progressed = True
            else:
                return None
        if all_ok:
            return env
        if not progressed:
            return None
    if all(_eval_plain(a, env) for a in residual):
        return env
    return None


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
        if var.op == "var" and var not in subst and not occurs(var, value):
            return var, value
    return None


class _Evaluator:
    def __init__(self, env, subst):
        self.env = env             # var name -> int/bool (residual model)
        self.subst = subst         # var term -> term
        self.memo = {}

    def eval(self, term):
        hit = self.memo.get(id(term))
        if hit is not None:
            return hit
        out = self._eval(term)
        self.memo[id(term)] = out
        return out

    def _eval(self, term):
        op = term.op
        if op == "cbool":
            return term.val
        if op == "const":
            return term.val[0]
        if op == "var":
            if term.val in self.env:
                return self.env[term.val]
            if term in self.subst:
                return self.eval(self.subst[term])
            return False if term.sort == BOOL else 0
        if op == "not":
            return not self.eval(term.args[0])
        if op == "and":
            return all(self.eval(a) for a in term.args)
        if op == "or":
            return any(self.eval(a) for a in term.args)
        if op == "xor":
            out = False
            for a in term.args:
                out ^= self.eval(a)
            return out
        if op == "=>":
            return (not self.eval(term.args[0])) or self.eval(term.args[1])
        if op == "=":
            return self.eval(term.args[0]) == self.eval(term.args[1])
        if op == "distinct":
            return self.eval(term.args[0]) != self.eval(term.args[1])
        if op == "ite":
            return self.eval(term.args[1] if self.eval(term.args[0])
                             else term.args[2])
        if op in BV_BINOPS:
            width = term.sort[1]
            return _bv_arith(op, self.eval(term.args[0]),
                             self.eval(term.args[1]), width) & _mask(width)
        if op in BV_CMPS:
            return _CMP_HOLDS[op](self.eval(term.args[0]),
                                  self.eval(term.args[1]))
        if op == "bvnot":
            return ~self.eval(term.args[0]) & _mask(term.sort[1])
        if op == "bvneg":
            return -self.eval(term.args[0]) & _mask(term.sort[1])
        if op == "zero_extend":
            return self.eval(term.args[0])
        if op == "sign_extend":
            return _sign_extend(self.eval(term.args[0]),
                                term.args[0].sort[1], term.val)
        if op == "extract":
            hi, lo = term.val
            return (self.eval(term.args[0]) >> lo) & _mask(hi - lo + 1)
        if op == "concat":
            low_w = term.args[1].sort[1]
            return (self.eval(term.args[0]) << low_w) | self.eval(term.args[1])
        raise SmtError("cannot evaluate %r" % op)


# ---------------------------------------------------------------------------
# Whole-script entry point
# ---------------------------------------------------------------------------

DEFAULT_CONFLICT_BUDGET = 50000


def solve_text(text, conflict_budget=DEFAULT_CONFLICT_BUDGET):
    """Run one SMT-LIB 2 script; returns the response text the process
    interface prints: sat/unsat/unknown, then one ((term value) ...) line.

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
    if result.values:
        out.append("(%s)" % " ".join(
            "(%s %s)" % (text, _value_text(v, q.sort))
            for text, q, v in zip(script.query_texts, script.queries,
                                  result.values)))
    return "\n".join(out) + "\n"


def _value_text(value, sort):
    if sort == BOOL:
        return "true" if value else "false"
    return "(_ bv%d %d)" % (value, sort[1])
