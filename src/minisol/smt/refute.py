"""Word-level refutation: unsat answers for residuals whose conjuncts cannot
all hold, found without bit-blasting.  The pass only ever refutes: a
conjunct found true, or left undecided, stays in the residual and nothing
is rewritten, so a satisfiable check passes through unchanged.  Linear
forms (``Term.linear``) also serve ``solve.fold``: it decides a bitvector
(dis)equality whose sides differ only by a constant (``x + 2 = x``) and
solves an equality whose sides differ by ``c*x + k``, c odd, to ``x = v``.
Every residual conjunct is folded, so none is a comparison its linear form
decides.

``refutation`` runs when the greedy search found no model, before the
split on ite conditions and bit-blasting, and on each leaf of the split.
It reads the conjuncts, with ``and`` flattened and ``not`` pushed into
comparisons, as terms stated true or false and as facts ``a op b``, and
answers with the first reason it finds:

- ``negation``: one term is stated both true and false (``t`` next to
  ``(not t)``, also inside a conjunction);
- ``bounds``: the unsigned bounds that comparisons against constants put
  on one term (intersected across the conjuncts, and carried from ``x + k``
  and ``k - x`` to ``x``) are empty, or miss the term's own interval;
- ``interval``: a comparison fails on the intervals of its sides.  The
  interval of a term is its bounds intersected with what its shape allows:
  a constant, a zero extension, the hull of an ite's branches, and an add
  or subtract whose results all wrap the same number of times (Cousot &
  Cousot, POPL 1977);
- ``parity``: a linear term sum(c_i * x_i) + k only takes values that are
  k modulo 2^m, where 2^m is the largest power of two dividing every c_i,
  and its bounds hold no such value (``p + p = 5``).
"""

from __future__ import annotations

from .terms import BOOL, BV_CMPS, combine, mask


def difference(a, b):
    """The linear form of ``a - b``."""
    return combine(a.linear, b.linear, -1, mask(a.sort[1]))


def solve_linear(c, r, width):
    """The least x with c*x = r (mod 2^width), for c non-zero modulo
    2^width, or None: a solution exists iff 2^t divides r, where 2^t is the
    largest power of two dividing c."""
    t = (c & -c).bit_length() - 1
    if r & mask(t):
        return None
    modulus = 1 << (width - t)
    return (r >> t) * pow(c >> t, -1, modulus) % modulus


# ---------------------------------------------------------------------------
# Negation, bounds, intervals and parity
# ---------------------------------------------------------------------------

# c op t holds when t MIRROR[op] c does
_MIRROR = {"bvult": "bvugt", "bvule": "bvuge", "bvugt": "bvult",
           "bvuge": "bvule", "=": "="}
NEGATED = {"bvult": "bvuge", "bvule": "bvugt", "bvugt": "bvule",
           "bvuge": "bvult", "=": "distinct", "distinct": "="}
# whether a op b can hold for a in [la, ha] and b in [lb, hb]
_FEASIBLE = {
    "bvult": lambda la, ha, lb, hb: la < hb,
    "bvule": lambda la, ha, lb, hb: la <= hb,
    "bvugt": lambda la, ha, lb, hb: ha > lb,
    "bvuge": lambda la, ha, lb, hb: ha >= lb,
    "=": lambda la, ha, lb, hb: max(la, lb) <= min(ha, hb),
    "distinct": lambda la, ha, lb, hb: not la == ha == lb == hb,
}


def refutation(residual):
    """Why the conjuncts of `residual` cannot all hold: ``'negation'``,
    ``'bounds'``, ``'interval'`` or ``'parity'`` (see the module
    docstring); None when no reason is found, which proves nothing."""
    facts, stated = [], {}
    for conjunct in residual:
        if _facts(conjunct, True, stated, facts):
            return "negation"
    bounds = {}
    for op, a, b in facts:
        for term, const, swap in ((a, b, False), (b, a, True)):
            if const.op != "const" or term.op == "const" or op == "distinct":
                continue
            lo, hi = _range(_MIRROR[op] if swap else op, const.val[0],
                            mask(term.sort[1]))
            if not _narrow(bounds, term, lo, hi):
                return "bounds"
    for term, (lo, hi) in list(bounds.items()):
        if not _narrow_atom(bounds, term, lo, hi):
            return "bounds"
    memo = {}
    for term in bounds:
        lo, hi = interval(term, bounds, memo)
        if lo > hi:
            return "bounds"
        coeffs, k = term.linear
        if not _meets_residue(lo, hi, k, _modulus(coeffs, term.sort[1])):
            return "parity"
    for op, a, b in facts:
        if not _FEASIBLE[op](*interval(a, bounds, memo),
                             *interval(b, bounds, memo)):
            return "interval"
    return None


def _facts(term, want, stated, out):
    """Record in `stated` whether `term` (made `want`) and each term it
    states through ``not`` and a conjunction are stated true or false, a
    conjunction before its parts, and append the bitvector comparisons
    among them to `out` as (op, a, b); a term already recorded is not read
    again.  True when some term is stated both ways."""
    while term.op == "not":
        term, want = term.args[0], not want
    if term in stated:
        return stated[term] != want
    stated[term] = want
    op = term.op
    if (op == "and" and want) or (op == "or" and not want):
        return any(_facts(sub, want, stated, out) for sub in term.args)
    if op in BV_CMPS or (op in ("=", "distinct")
                         and term.args[0].sort != BOOL):
        out.append((op if want else NEGATED[op],) + term.args)
    return False


def _range(op, c, top):
    """The values of t for which ``t op c`` holds, as (lo, hi)."""
    return {"bvult": (0, c - 1), "bvule": (0, c), "bvugt": (c + 1, top),
            "bvuge": (c, top), "=": (c, c)}[op]


def _narrow(bounds, term, lo, hi):
    """Intersect the bounds of `term` with [lo, hi]; False when empty."""
    old = bounds.get(term)
    if old is not None:
        lo, hi = max(lo, old[0]), min(hi, old[1])
    bounds[term] = (lo, hi)
    return lo <= hi


def _narrow_atom(bounds, term, lo, hi):
    """Carry the bounds [lo, hi] of `term` to x when `term` is ``x + k`` or
    ``k - x``; False when that leaves x no value."""
    coeffs, k = term.linear
    if len(coeffs) != 1:
        return True
    (atom, c), = coeffs.items()
    width = term.sort[1]
    if c == 1:
        lo, hi = _wrapped(lo - k, hi - k, width)
    elif c == mask(width):
        lo, hi = _wrapped(k - hi, k - lo, width)
    else:
        return True
    return _narrow(bounds, atom, lo, hi)


def _wrapped(lo, hi, width):
    """The integers [lo, hi] modulo 2^width: an interval when they all
    wrap the same number of times, the whole range otherwise."""
    if lo >> width == hi >> width:
        return lo & mask(width), hi & mask(width)
    return 0, mask(width)


def interval(term, bounds, memo):
    """The unsigned interval (lo, hi) holding every value of `term` that
    satisfies `bounds`; lo > hi when there is none."""
    hit = memo.get(term)
    if hit is not None:
        return hit
    op = term.op
    width = term.sort[1]
    if op == "const":
        out = (term.val[0], term.val[0])
    elif op == "zero_extend":
        out = interval(term.args[0], bounds, memo)
    elif op == "ite":
        then, els = (interval(a, bounds, memo) for a in term.args[1:])
        if then[0] > then[1]:
            out = els
        elif els[0] > els[1]:
            out = then
        else:
            out = (min(then[0], els[0]), max(then[1], els[1]))
    elif op in ("bvadd", "bvsub"):
        (la, ha), (lb, hb) = (interval(a, bounds, memo) for a in term.args)
        if la > ha or lb > hb:
            out = (1, 0)
        elif op == "bvadd":
            out = _wrapped(la + lb, ha + hb, width)
        else:
            out = _wrapped(la - hb, ha - lb, width)
    else:
        out = (0, mask(width))
    bound = bounds.get(term)
    if bound is not None:
        out = (max(out[0], bound[0]), min(out[1], bound[1]))
    memo[term] = out
    return out


def _modulus(coeffs, width):
    """2^m for the largest m such that 2^m divides every coefficient (the
    width's modulus when there are none): a linear term is always its
    constant modulo it."""
    m = width
    for c in coeffs.values():
        m = min(m, (c & -c).bit_length() - 1)
    return 1 << m


def _meets_residue(lo, hi, k, modulus):
    """True when [lo, hi] holds a value that is k modulo `modulus`."""
    return lo + (k - lo) % modulus <= hi
